//! The uniform cell grid the §II.B predictors discretise space with.

use hpm_geo::Point;

/// A square grid of `cell_size`-sided cells over `[0, extent]²`.
///
/// Cells are numbered row-major; positions outside the extent clamp to
/// the border cells (GPS jitter can momentarily leave the map).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGrid {
    extent: f64,
    cell_size: f64,
    cols: u32,
}

impl CellGrid {
    /// Creates a grid.
    ///
    /// # Panics
    /// Panics when `extent` or `cell_size` is not positive/finite.
    pub fn new(extent: f64, cell_size: f64) -> Self {
        assert!(
            extent > 0.0 && extent.is_finite(),
            "extent must be positive"
        );
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell_size must be positive"
        );
        let cols = (extent / cell_size).ceil().max(1.0) as u32;
        CellGrid {
            extent,
            cell_size,
            cols,
        }
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.cols as usize) * (self.cols as usize)
    }

    /// The cell containing `p` (clamped into the grid).
    pub fn cell_of(&self, p: &Point) -> u32 {
        let clamp =
            |v: f64| ((v / self.cell_size) as i64).clamp(0, i64::from(self.cols) - 1) as u32;
        clamp(p.y) * self.cols + clamp(p.x)
    }

    /// The centre of a cell.
    ///
    /// # Panics
    /// Panics when `cell` is out of range.
    pub fn center(&self, cell: u32) -> Point {
        assert!((cell as usize) < self.cell_count(), "cell out of range");
        let row = cell / self.cols;
        let col = cell % self.cols;
        Point::new(
            (f64::from(col) + 0.5) * self.cell_size,
            (f64::from(row) + 0.5) * self.cell_size,
        )
    }

    /// The 4-neighbourhood of a cell (fewer at the border), in
    /// deterministic E/W/N/S order.
    pub fn neighbors(&self, cell: u32) -> Vec<u32> {
        let cols = self.cols;
        let row = cell / cols;
        let col = cell % cols;
        let mut out = Vec::with_capacity(4);
        if col + 1 < cols {
            out.push(cell + 1);
        }
        if col > 0 {
            out.push(cell - 1);
        }
        if row + 1 < cols {
            out.push(cell + cols);
        }
        if row > 0 {
            out.push(cell - cols);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_indexing_roundtrip() {
        let g = CellGrid::new(100.0, 10.0);
        assert_eq!(g.cols, 10);
        assert_eq!(g.cell_count(), 100);
        let p = Point::new(25.0, 37.0);
        let c = g.cell_of(&p);
        assert_eq!(c, 3 * 10 + 2);
        assert_eq!(g.center(c), Point::new(25.0, 35.0));
    }

    #[test]
    fn outside_points_clamp() {
        let g = CellGrid::new(100.0, 10.0);
        assert_eq!(g.cell_of(&Point::new(-5.0, -5.0)), 0);
        assert_eq!(g.cell_of(&Point::new(150.0, 150.0)), 99);
    }

    #[test]
    fn non_dividing_extent_rounds_up() {
        let g = CellGrid::new(100.0, 30.0);
        assert_eq!(g.cols, 4);
        assert_eq!(g.cell_of(&Point::new(99.0, 99.0)), 15);
    }

    #[test]
    fn neighbors_interior_and_corner() {
        let g = CellGrid::new(100.0, 10.0);
        let mid = g.cell_of(&Point::new(55.0, 55.0));
        assert_eq!(g.neighbors(mid).len(), 4);
        assert_eq!(g.neighbors(0), vec![1, 10]);
        assert_eq!(g.neighbors(99).len(), 2);
    }

    #[test]
    #[should_panic(expected = "cell_size must be positive")]
    fn zero_cell_size_panics() {
        CellGrid::new(100.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "cell out of range")]
    fn center_out_of_range_panics() {
        CellGrid::new(100.0, 10.0).center(100);
    }
}
