//! The crate's one neighbour grid: a cell table for fixed-radius
//! queries over a sequence kept sorted by cell, built by one sort and
//! appendable one point at a time.
//!
//! Cells are `Eps`-sized, so a radius-`Eps` disc around a point is
//! covered by the 3×3 block of cells around the point's cell. The
//! points live in one sequence sorted by cell key (a seed's sort buffer
//! of input indices, or one offset's samples), and the table lists the
//! occupied cells by `(column, row)` with the end of each cell's run in
//! that sequence. A state keeps the tables of all its offsets in one
//! `Vec`, one run of cells per offset: each run's ends count from its
//! own offset's samples, so every function here works on one offset's
//! slice of it. The three cells of a grid column are therefore
//! adjacent in the table and their points one contiguous run: a
//! neighbourhood query is three binary searches and three run scans —
//! no hashing, no heap block per cell (12 B per occupied cell), and the
//! same visiting order on every run. The exact distance test decides
//! membership; the layout only bounds which points are tested.
//!
//! [`IncrementalDbscan::seed`] and [`IncrementalDbscan::insert`] both
//! go through these functions. The
//! SipHash cell maps they replaced (one per caller, a `Vec` per cell)
//! lost to them on every count — time, bytes, allocations (DESIGN.md
//! "Training lifecycle") — and a faster hasher would have to stay sound
//! for keys derived from client-reported positions; the table has none.
//!
//! [`IncrementalDbscan::seed`]: crate::IncrementalDbscan::seed
//! [`IncrementalDbscan::insert`]: crate::IncrementalDbscan::insert

use hpm_geo::grid::cell_of;
use hpm_geo::Point;
use std::ops::Range;

/// A cell's `(column, row)`, each clamped to `i32`.
///
/// A coordinate beyond ±2³¹ cells lands in the edge cell. That is
/// sound because the clamp is monotone: two points within `Eps` of each
/// other have columns (and rows) at most one apart, and so do their
/// clamped ones, so the 3×3 block still covers every neighbour — and
/// the distance test, not the cell, decides what a neighbour is.
pub(crate) type Key = (i32, i32);

/// The key of the `Eps`-sized cell holding `p`.
#[inline]
pub(crate) fn key_of(p: &Point, eps: f64) -> Key {
    let clamp = |k: i64| k.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
    let (x, y) = cell_of(p, eps.max(f64::MIN_POSITIVE));
    (clamp(x), clamp(y))
}

/// One occupied cell: its key and where its run ends in the sorted
/// sequence (it starts where the previous cell's ends).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cell {
    key: Key,
    end: u32,
}

/// Appends `(key of points[i], i)` for every point to `keyed`, sorts
/// what it appended and returns the number of occupied cells. `keyed`
/// is the sort buffer, kept by a caller that builds many tables.
pub(crate) fn sort(points: &[Point], eps: f64, keyed: &mut Vec<(Key, u32)>) -> usize {
    let from = keyed.len();
    keyed.extend(points.iter().zip(0..).map(|(p, i)| (key_of(p, eps), i)));
    let run = &mut keyed[from..];
    run.sort_unstable();
    run.chunk_by(|a, b| a.0 == b.0).count()
}

/// Appends the cell table over `keyed`, one run [`sort`] left, to
/// `cells`: the run ends are positions in `keyed`, so the appended
/// cells are a table of their own, whatever precedes them.
pub(crate) fn append(keyed: &[(Key, u32)], cells: &mut Vec<Cell>) {
    let mut end = 0;
    cells.extend(keyed.chunk_by(|a, b| a.0 == b.0).map(|run| {
        end += run.len() as u32;
        Cell { key: run[0].0, end }
    }));
}

/// Where cell `k`'s run starts (`k == cells.len()` gives the end of the
/// last run).
#[inline]
fn start(cells: &[Cell], k: usize) -> usize {
    k.checked_sub(1).map_or(0, |prev| cells[prev].end as usize)
}

/// Calls `visit` with the run of each grid column of the 3×3 block
/// around cell `key`, columns ascending: every point within `Eps` of a
/// point in that cell lies in one of the three runs.
#[inline]
pub(crate) fn block_runs(cells: &[Cell], (cx, cy): Key, mut visit: impl FnMut(Range<usize>)) {
    // The edge cell's block is clipped with saturating bounds, and
    // because the columns are a range a clipped column is still visited
    // once.
    let (y_lo, y_hi) = (cy.saturating_sub(1), cy.saturating_add(1));
    let mut from = 0;
    for gx in cx.saturating_sub(1)..=cx.saturating_add(1) {
        // Columns ascend, so each search starts where the last ended.
        let lo = from + cells[from..].partition_point(|c| c.key < (gx, y_lo));
        let mut hi = lo;
        while cells.get(hi).is_some_and(|c| c.key <= (gx, y_hi)) {
            hi += 1;
        }
        visit(start(cells, lo)..start(cells, hi));
        from = hi;
    }
}

/// Files one more point in cell `key` of the table `cells[span]` — a
/// new cell when the key is not in it, which widens the span by one —
/// and returns its position in the table's sorted sequence (the end of
/// the cell's run, where the caller inserts it) and whether a cell was
/// added.
pub(crate) fn file(cells: &mut Vec<Cell>, span: Range<usize>, key: Key) -> (usize, bool) {
    let table = &cells[span.clone()];
    let k = table.partition_point(|c| c.key < key);
    let added = table.get(k).is_none_or(|c| c.key != key);
    if added {
        let end = start(table, k) as u32;
        cells.insert(span.start + k, Cell { key, end });
    }
    let table = &mut cells[span.start + k..span.end + usize::from(added)];
    let at = table[0].end as usize;
    for c in table {
        c.end += 1;
    }
    (at, added)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table of one sorted sequence.
    fn build(points: &[Point], eps: f64, keyed: &mut Vec<(Key, u32)>) -> Vec<Cell> {
        keyed.clear();
        let mut cells = Vec::with_capacity(sort(points, eps, keyed));
        append(keyed, &mut cells);
        assert_eq!(cells.len(), cells.capacity(), "sort counts the cells");
        cells
    }

    fn naive_within(points: &[Point], c: &Point, r: f64) -> Vec<u32> {
        (0..)
            .zip(points)
            .filter(|(_, p)| p.distance_sq(c) <= r * r)
            .map(|(i, _)| i)
            .collect()
    }

    /// Input indices within `eps` of `c`, found through the table.
    fn sorted_neighbors(pts: &[Point], c: &Point, eps: f64) -> Vec<u32> {
        let mut keyed = Vec::new();
        let cells = build(pts, eps, &mut keyed);
        let mut got = Vec::new();
        block_runs(&cells, key_of(c, eps), |run| {
            for &(_, i) in &keyed[run] {
                if pts[i as usize].distance_sq(c) <= eps * eps {
                    got.push(i);
                }
            }
        });
        got.sort_unstable();
        got
    }

    fn matches_naive(pts: &[Point], eps: f64) {
        for c in pts {
            assert_eq!(sorted_neighbors(pts, c, eps), naive_within(pts, c, eps));
        }
    }

    #[test]
    fn matches_naive_on_grid_lattice() {
        let pts: Vec<Point> = (0..10)
            .flat_map(|x| (0..10).map(move |y| Point::new(x as f64, y as f64)))
            .collect();
        matches_naive(&pts, 1.5);
    }

    #[test]
    fn includes_self_and_boundary() {
        let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let n = sorted_neighbors(&pts, &pts[0], 2.0);
        assert_eq!(n.len(), 2, "boundary point at exactly eps is included");
    }

    #[test]
    fn negative_coordinates() {
        let pts = [
            Point::new(-1.0, -1.0),
            Point::new(-1.2, -0.9),
            Point::new(5.0, 5.0),
        ];
        assert_eq!(sorted_neighbors(&pts, &pts[0], 0.5).len(), 2);
    }

    /// Filing into one table of several leaves the others as they were.
    #[test]
    fn filed_keys_build_the_table_a_sort_builds() {
        let pts: Vec<Point> = (0..60)
            .map(|i| Point::new((i * 7 % 11) as f64 - 5.0, (i * 5 % 13) as f64 - 6.0))
            .collect();
        let mut keyed = Vec::new();
        let (before, after) = (
            build(&pts[40..], 1.5, &mut keyed),
            build(&pts[50..], 2.0, &mut keyed),
        );
        let mut grown = build(&pts[..20], 1.5, &mut keyed);
        let mut order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();
        grown.splice(0..0, before.iter().copied());
        grown.extend(&after);
        let mut span = before.len()..grown.len() - after.len();
        for (p, i) in pts.iter().zip(0..).skip(20) {
            let (at, added) = file(&mut grown, span.clone(), key_of(p, 1.5));
            order.insert(at, i);
            span.end += usize::from(added);
            assert_eq!(
                grown[span.clone()],
                build(&pts[..=i as usize], 1.5, &mut keyed)
            );
            let fresh: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();
            assert_eq!(order, fresh, "a filed point goes last in its run");
            assert_eq!(grown[..span.start], before);
            assert_eq!(grown[span.end..], after);
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
        matches_naive(&pts, 2.0);
    }

    #[test]
    fn keys_past_i32_clamp_to_the_edge_cell() {
        // Columns ±3·10⁹ and beyond share the edge cells; neighbours
        // across the clamp boundary are still found.
        let far = 3e9;
        let pts = [
            Point::new(far, 0.0),
            Point::new(far + 0.5, 0.0),
            Point::new(2.0 * far, 0.0),
            Point::new(-far, 0.0),
            Point::new(-far - 0.5, 1.0),
            Point::new(2_147_483_646.5, 0.0),
            Point::new(2_147_483_647.2, 0.0),
        ];
        assert_eq!(key_of(&pts[0], 1.0), (i32::MAX, 0));
        assert_eq!(key_of(&pts[3], 1.0), (i32::MIN, 0));
        matches_naive(&pts, 1.0);
    }
}
