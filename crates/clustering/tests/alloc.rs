//! Allocation budget of the incremental clustering state: one cell
//! table and one sample vector, no heap block per cell.
//!
//! Installs [`hpm_check::alloc::CountingAllocator`] as the global
//! allocator (hence a dedicated integration-test file with a single
//! test) and holds [`IncrementalDbscan`] to three statements:
//!
//! * seeding `n` points spread over `c` occupied cells acquires a
//!   fixed number of blocks — independent of `n`, of `c` and of the
//!   number of clusters (a cluster is a fold in the scratch, not a
//!   member list, and the state keeps none): with a cold
//!   [`SeedScratch`] one block more per scratch buffer, with a warm one
//!   only the state's own. (The hash-map
//!   grid this replaced acquired two maps and a bucket `Vec` per cell
//!   in each, with their regrowths: 1,920 points over 1,920 cells cost
//!   it thousands of blocks where the table costs eight.)
//! * a safe-path `insert` into a state with spare capacity acquires
//!   nothing, the caller's neighbour scratch included;
//! * `MemUse` charges exactly the heap the state holds, byte for byte,
//!   after a seed and after inserts have regrown its buffers.

use hpm_check::alloc::CountingAllocator;
use hpm_clustering::{DbscanParams, IncrementalDbscan, InsertOutcome, SeedScratch};
use hpm_geo::mem::heap_bytes;
use hpm_geo::Point;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Blocks a one-offset seed acquires whatever its input once its
/// scratch (the sort buffer, the sweep's per-point records, cluster
/// folds, frontier and neighbour list) is warm: the cell table, the
/// samples, the offset table.
const SEED_FIXED_BLOCKS: u64 = 3;

/// Blocks a cold [`SeedScratch`] adds to a seed: one per buffer, sized
/// once, however many points it sorts or sweeps.
const SCRATCH_BLOCKS: u64 = 5;

/// Seeds a one-offset state over `pts` under `params`.
fn seed(pts: Vec<Point>, params: DbscanParams, scratch: &mut SeedScratch) -> IncrementalDbscan {
    IncrementalDbscan::seed(std::slice::from_ref(&pts), params, scratch, |_, _| {})
}

/// `n` points over `cells` occupied cells (`Eps` = 1): cells sit three
/// apart so no neighbourhood crosses one, and the points of a cell are
/// all within `Eps` of each other.
fn spread(n: usize, cells: usize) -> Vec<Point> {
    let mut pts = Vec::with_capacity(n);
    for i in 0..n {
        let (cell, nth) = (i % cells, i / cells);
        pts.push(Point::new(cell as f64 * 3.0 + 0.1, 0.1 + nth as f64 * 1e-4));
    }
    pts
}

/// Runs `f` in a few allocator windows and returns the quietest as
/// `(blocks acquired, live bytes retained, value)`. The counters are
/// process-global, so the libtest harness thread can inject the odd
/// stray allocation into a window; a cost that belongs to `f` shows in
/// every window.
fn quietest<T>(mut f: impl FnMut() -> T) -> (u64, u64, T) {
    (0..4)
        .map(|_| {
            let (blocks, bytes) = (ALLOC.allocations(), ALLOC.live_bytes());
            let value = f();
            (
                ALLOC.allocations() - blocks,
                ALLOC.live_bytes() - bytes,
                value,
            )
        })
        .min_by_key(|window| window.0)
        .unwrap()
}

#[test]
fn one_grid_no_per_cell_allocation() {
    let params = DbscanParams::new(1.0, 3);
    let mut scratch = SeedScratch::default();
    for (n, cells) in [(240, 1), (240, 60), (240, 240), (1_920, 60), (1_920, 1_920)] {
        let pts = spread(n, cells);
        // `pts.clone()` is the `+ 1` here and below.
        let (blocks, _, _) = quietest(|| seed(pts.clone(), params, &mut SeedScratch::default()));
        assert!(
            blocks <= SEED_FIXED_BLOCKS + SCRATCH_BLOCKS + 1,
            "seeding {n} points over {cells} cells with a cold scratch took {blocks} blocks"
        );
        // The first window warms the scratch to `n` points.
        let (blocks, _, _) = quietest(|| seed(pts.clone(), params, &mut scratch));
        let clusters = scratch.folds().len() as u64;
        assert_eq!(clusters, if n / cells >= 3 { cells as u64 } else { 0 });
        assert!(
            blocks <= SEED_FIXED_BLOCKS + 1,
            "seeding {n} points over {cells} cells ({clusters} clusters) took {blocks} blocks"
        );

        let (_, retained, state) = quietest(|| seed(spread(n, cells), params, &mut scratch));
        assert_eq!(
            retained as usize,
            heap_bytes(&state),
            "MemUse after seeding {n} points over {cells} cells"
        );
    }

    // Fold: the first insert regrows the exactly-sized sample vector
    // and sizes the neighbour scratch (40 neighbours: capacity 64); the
    // next twenty fit both. The scratch is the caller's, so it is freed
    // before the state's bytes are read.
    let mut pts = spread(160, 4);
    pts.extend((0..21).map(|i| Point::new(0.1, 0.1 + i as f64 * 1e-4)));
    let mut grown = (0..4)
        .map(|_| {
            let bytes = ALLOC.live_bytes();
            let mut state = seed(spread(160, 4), params, &mut scratch);
            let mut scratch = Vec::new();
            let joined = state.insert(0, pts[160], &params, &mut scratch);
            assert_eq!(joined, InsertOutcome::Member(0));
            let blocks = ALLOC.allocations();
            for &p in &pts[161..] {
                let joined = state.insert(0, p, &params, &mut scratch);
                assert_eq!(joined, InsertOutcome::Member(0));
            }
            let blocks = ALLOC.allocations() - blocks;
            drop(scratch);
            (blocks, ALLOC.live_bytes() - bytes, state)
        })
        .min_by_key(|window| window.0)
        .unwrap();
    assert_eq!(grown.0, 0, "20 safe inserts took {} blocks", grown.0);
    assert_eq!(
        grown.1 as usize,
        heap_bytes(&grown.2),
        "MemUse after inserts"
    );
    // The caller's summaries: the seed's folds, cluster 0 extended by
    // every point that joined it.
    let mut folds = scratch.folds().to_vec();
    for &p in &pts[160..] {
        folds[0].push(p);
    }
    grown.2.validate(0, &pts, &params, &folds).unwrap();
    // A new cell shifts the cell table but is still a safe insert.
    let far = Point::new(-40.0, -40.0);
    assert_eq!(
        grown.2.insert(0, far, &params, &mut Vec::new()),
        InsertOutcome::Noise
    );
    pts.push(far);
    grown.2.validate(0, &pts, &params, &folds).unwrap();
}
