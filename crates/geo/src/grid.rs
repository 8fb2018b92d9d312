//! Uniform-grid helpers for spatial partitioning.
//!
//! The predictive index in `hpm-objectstore` buckets object envelopes
//! by the grid cell their centre falls in; these helpers keep the
//! cell arithmetic (quantisation, point↔cell membership) in
//! one place, next to the geometry types it is defined over.

use crate::Point;

/// Index of a uniform grid cell: `(column, row)` in units of the grid's
/// cell size, covering the whole plane (negative coordinates quantise
/// to negative indices).
pub type CellKey = (i64, i64);

/// Quantises one coordinate to its cell index for the given cell size.
///
/// Cells are half-open `[k·size, (k+1)·size)` intervals, so every
/// finite coordinate belongs to exactly one cell.
///
/// # Panics
/// Debug-asserts that `size` is positive and finite.
#[inline]
pub fn cell_index(coord: f64, size: f64) -> i64 {
    debug_assert!(size > 0.0 && size.is_finite(), "cell size must be positive");
    (coord / size).floor() as i64
}

/// The cell containing `p` for the given cell size.
#[inline]
pub fn cell_of(p: &Point, size: f64) -> CellKey {
    (cell_index(p.x, size), cell_index(p.y, size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantisation_is_half_open() {
        assert_eq!(cell_index(0.0, 10.0), 0);
        assert_eq!(cell_index(9.999, 10.0), 0);
        assert_eq!(cell_index(10.0, 10.0), 1);
        assert_eq!(cell_index(-0.001, 10.0), -1);
        assert_eq!(cell_index(-10.0, 10.0), -1);
        assert_eq!(cell_index(-10.001, 10.0), -2);
    }

    #[test]
    fn cell_of_uses_both_axes() {
        assert_eq!(cell_of(&Point::new(25.0, -5.0), 10.0), (2, -1));
    }
}
