//! The crate's one neighbour grid: a cell-run table for fixed-radius
//! queries, built by one sort and appendable one point at a time.
//!
//! Cells are `Eps`-sized, so a radius-`Eps` disc around a point is
//! covered by the 3×3 block of cells around the point's cell. Point
//! indices are kept grouped by cell in one `Vec<u32>`, and the occupied
//! cells are kept sorted by `(column, row)` with the end of each cell's
//! run. The three cells of a grid column are therefore adjacent in the
//! table and their points one contiguous slice: a neighbourhood query
//! is three binary searches and three slice scans — no hashing, no heap
//! block per cell (4 B per point + 24 B per occupied cell), and the
//! same visiting order on every run. The exact distance test decides
//! membership; the layout only bounds which points are tested.
//!
//! [`IncrementalDbscan::seed`] and [`IncrementalDbscan::insert`] both
//! go through this one type. The
//! SipHash cell maps it replaced (one per caller, a `Vec` per cell)
//! lost to it on every count — time, bytes, allocations (DESIGN.md
//! "Training lifecycle") — and a faster hasher would have to stay sound
//! for keys derived from client-reported positions; the table has none.
//!
//! [`IncrementalDbscan::seed`]: crate::IncrementalDbscan::seed
//! [`IncrementalDbscan::insert`]: crate::IncrementalDbscan::insert

use hpm_geo::grid::{cell_of, CellKey};
use hpm_geo::mem::vec_cap_bytes;
use hpm_geo::{MemUse, Point};

/// One occupied cell: its key and where its run of point indices ends
/// in [`GridIndex::order`] (it starts where the previous cell's ends).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    key: CellKey,
    end: u32,
}

/// A uniform grid over a point set with cell side = query radius.
///
/// The grid stores indices only; every method that needs coordinates
/// takes the point slice the indices refer to, so the batch sweep can
/// index a borrowed slice and the incremental state its own `Vec`.
#[derive(Debug, Clone)]
pub(crate) struct GridIndex {
    cell: f64,
    /// Occupied cells, strictly ascending by key.
    cells: Vec<Cell>,
    /// Point indices grouped by cell, in `cells` order.
    order: Vec<u32>,
}

impl GridIndex {
    /// Builds the grid over `points`; `cell` must be positive (use the
    /// query radius). `keyed` is the sort buffer: overwritten, and kept
    /// by a caller that builds many grids.
    ///
    /// # Panics
    /// Panics if `cell <= 0` or not finite.
    pub(crate) fn build(points: &[Point], cell: f64, keyed: &mut Vec<(CellKey, u32)>) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        keyed.clear();
        keyed.extend(points.iter().zip(0..).map(|(p, i)| (cell_of(p, cell), i)));
        keyed.sort_unstable();
        let distinct = keyed.chunk_by(|a, b| a.0 == b.0).count();
        let mut cells: Vec<Cell> = Vec::with_capacity(distinct);
        let mut order = Vec::with_capacity(points.len());
        for &(key, i) in keyed.iter() {
            order.push(i);
            let end = order.len() as u32;
            match cells.last_mut() {
                Some(c) if c.key == key => c.end = end,
                _ => cells.push(Cell { key, end }),
            }
        }
        GridIndex { cell, cells, order }
    }

    /// Where cell `k`'s run starts in `order` (`k == cells.len()` gives
    /// the end of the last run).
    #[inline]
    fn start(&self, k: usize) -> usize {
        k.checked_sub(1)
            .map_or(0, |prev| self.cells[prev].end as usize)
    }

    /// Appends to `out` the index of every point within `radius` of
    /// `center` (inclusive, and including the point itself when present
    /// in the set), in table order.
    ///
    /// `radius` must be ≤ the cell size used at build time for the
    /// 3×3-block guarantee to hold; this is asserted in debug builds.
    pub(crate) fn neighbors_into(
        &self,
        points: &[Point],
        center: &Point,
        radius: f64,
        out: &mut Vec<u32>,
    ) {
        debug_assert!(radius <= self.cell + 1e-12, "radius exceeds cell size");
        let (cx, cy) = cell_of(center, self.cell);
        let r2 = radius * radius;
        // A coordinate beyond ±2⁶³ cells saturates into the edge cell,
        // which is sound because the distance test, not the cell,
        // decides what a neighbour is. The block is clipped there with
        // saturating bounds, and because the columns are a range a
        // clipped column is still visited once.
        let (y_lo, y_hi) = (cy.saturating_sub(1), cy.saturating_add(1));
        let mut from = 0;
        for gx in cx.saturating_sub(1)..=cx.saturating_add(1) {
            // Columns ascend, so each search starts where the last ended.
            let lo = from + self.cells[from..].partition_point(|c| c.key < (gx, y_lo));
            let mut hi = lo;
            while self.cells.get(hi).is_some_and(|c| c.key <= (gx, y_hi)) {
                hi += 1;
            }
            for &i in &self.order[self.start(lo)..self.start(hi)] {
                if points[i as usize].distance_sq(center) <= r2 {
                    out.push(i);
                }
            }
            from = hi;
        }
    }

    /// Adds point `i` at `p`: one binary search, then a shift of the
    /// run table behind the point's cell.
    pub(crate) fn push(&mut self, i: u32, p: &Point) {
        let key = cell_of(p, self.cell);
        let k = self.cells.partition_point(|c| c.key < key);
        if self.cells.get(k).is_none_or(|c| c.key != key) {
            let end = self.start(k) as u32;
            self.cells.insert(k, Cell { key, end });
        }
        self.order.insert(self.cells[k].end as usize, i);
        for c in &mut self.cells[k..] {
            c.end += 1;
        }
    }

    /// Test support: a grid grown by [`push`](Self::push) must be the
    /// very table a fresh [`build`](Self::build) over the same points
    /// produces (runs are index-ascending either way).
    pub(crate) fn validate(&self, points: &[Point]) -> Result<(), String> {
        let fresh = GridIndex::build(points, self.cell, &mut Vec::new());
        if self.cells == fresh.cells && self.order == fresh.order {
            Ok(())
        } else {
            Err("grid differs from a fresh build over its points".into())
        }
    }
}

impl MemUse for GridIndex {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + vec_cap_bytes(&self.cells) + vec_cap_bytes(&self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_within(points: &[Point], c: &Point, r: f64) -> Vec<u32> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(c) <= r * r)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn sorted_neighbors(grid: &GridIndex, pts: &[Point], c: &Point, r: f64) -> Vec<u32> {
        let mut got = Vec::new();
        grid.neighbors_into(pts, c, r, &mut got);
        got.sort_unstable();
        got
    }

    #[test]
    fn matches_naive_on_grid_lattice() {
        let pts: Vec<Point> = (0..10)
            .flat_map(|x| (0..10).map(move |y| Point::new(x as f64, y as f64)))
            .collect();
        let idx = GridIndex::build(&pts, 1.5, &mut Vec::new());
        idx.validate(&pts).unwrap();
        for c in &pts {
            assert_eq!(
                sorted_neighbors(&idx, &pts, c, 1.5),
                naive_within(&pts, c, 1.5)
            );
        }
    }

    #[test]
    fn includes_self_and_boundary() {
        let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let idx = GridIndex::build(&pts, 2.0, &mut Vec::new());
        let n = sorted_neighbors(&idx, &pts, &pts[0], 2.0);
        assert_eq!(n.len(), 2, "boundary point at exactly eps is included");
    }

    #[test]
    fn negative_coordinates() {
        let pts = [
            Point::new(-1.0, -1.0),
            Point::new(-1.2, -0.9),
            Point::new(5.0, 5.0),
        ];
        let idx = GridIndex::build(&pts, 0.5, &mut Vec::new());
        let n = sorted_neighbors(&idx, &pts, &pts[0], 0.5);
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn pushed_points_answer_like_a_fresh_build() {
        let pts: Vec<Point> = (0..60)
            .map(|i| Point::new((i * 7 % 11) as f64 - 5.0, (i * 5 % 13) as f64 - 6.0))
            .collect();
        let mut grown = GridIndex::build(&pts[..20], 1.5, &mut Vec::new());
        for (i, p) in pts.iter().enumerate().skip(20) {
            grown.push(i as u32, p);
            grown.validate(&pts[..=i]).unwrap();
        }
        let built = GridIndex::build(&pts, 1.5, &mut Vec::new());
        for c in &pts {
            assert_eq!(
                sorted_neighbors(&grown, &pts, c, 1.5),
                sorted_neighbors(&built, &pts, c, 1.5)
            );
        }
    }

    #[test]
    fn saturated_edge_cells_report_each_neighbour_once() {
        // Every key component saturates; the clipped 3×3 walk must not
        // overflow and must not visit the edge column twice.
        let pts = [
            Point::new(f64::MAX, f64::MAX),
            Point::new(f64::MAX, f64::MAX),
            Point::new(-1e300, 1e300),
            Point::new(0.0, 0.0),
        ];
        let idx = GridIndex::build(&pts, 2.0, &mut Vec::new());
        idx.validate(&pts).unwrap();
        for c in &pts {
            assert_eq!(
                sorted_neighbors(&idx, &pts, c, 2.0),
                naive_within(&pts, c, 2.0)
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_panics() {
        GridIndex::build(&[], 0.0, &mut Vec::new());
    }
}
