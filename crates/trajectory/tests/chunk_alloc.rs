//! Allocation regression test for the compressed-history append path.
//!
//! Installs [`hpm_check::alloc::CountingAllocator`] globally (dedicated
//! single-test file — the counters are process-global) and proves the
//! two claims the store relies on:
//!
//! * **Amortized O(1) append**: pushing `N` samples makes O(N /
//!   seal_len) allocations, not O(N) — a push that moves nothing into
//!   the open chunk allocates nothing at all, and one that moves
//!   samples allocates at most once.
//! * **Compression holds at the allocator**: steady-state live bytes
//!   retained per sample on a paper-like walk stay far below the raw
//!   16-byte `Point`, measured by the global allocator rather than by
//!   self-reported accounting.

use hpm_check::alloc::CountingAllocator;
use hpm_geo::Point;
use hpm_trajectory::{ChunkParams, ChunkedHistory};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A smooth bounded walk (paper-like workload: small steps).
fn walk(n: usize) -> Vec<Point> {
    let (mut x, mut y) = (5000.0f64, 5000.0f64);
    (0..n as u64)
        .map(|i| {
            x += ((i % 7) as f64 - 3.0) * 0.5;
            y += ((i % 5) as f64 - 2.0) * 0.5;
            Point::new(x, y)
        })
        .collect()
}

#[test]
fn append_path_allocates_amortized_o1_and_retains_compressed_bytes() {
    const SEAL: usize = 256;
    const TAIL: usize = 16;
    const WARM: usize = 2 * (SEAL + TAIL);
    const MEASURE: usize = 16 * SEAL;

    let points = walk(WARM + MEASURE);
    let mut h = ChunkedHistory::new(
        0,
        ChunkParams {
            seal_len: SEAL,
            min_tail: TAIL,
        },
    );
    // Warmup: grows the window to its steady capacity and seals twice,
    // so the measured window sees only steady-state behavior.
    for &p in &points[..WARM] {
        h.push(p);
    }

    // A push that moves nothing into the open chunk is allocation-free.
    let window = h.window().len();
    let before = ALLOC.allocations();
    h.push(points[WARM]);
    assert_eq!(h.window().len(), window + 1, "the push moved nothing");
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "a push that moves nothing must not allocate"
    );

    let allocs_before = ALLOC.allocations();
    let live_before = ALLOC.live_bytes();
    let (mut moving_pushes, mut most) = (0, 0);
    for &p in &points[WARM + 1..] {
        let (window, chunks) = (h.window().len(), h.chunks().len());
        let before = ALLOC.allocations();
        h.push(p);
        // A seal also grows the chunk vector now and then; the
        // floor below covers that.
        if h.window().len() <= window && h.chunks().len() == chunks {
            moving_pushes += 1;
            most = most.max(ALLOC.allocations() - before);
        }
    }
    let allocs = ALLOC.allocations() - allocs_before;
    let live_grew = ALLOC.live_bytes() - live_before;

    // A push that moves samples grows the open chunk's words once.
    assert!(moving_pushes > 0);
    assert!(
        most <= 1,
        "a push that moved samples made {most} allocations"
    );

    // Amortized O(1): every allocation belongs to a seal event (the
    // encoder's word vector growth + the boxed slice + chunk-vec
    // growth). Budget: 16 allocations per seal, plus 8 slack for
    // chunk-vec capacity doublings.
    let seals = (MEASURE - 1) / SEAL + 1;
    let floor = 16 * seals as u64 + 8;
    assert!(
        allocs <= floor,
        "{MEASURE} pushes made {allocs} allocations ({seals} seals, floor {floor})"
    );

    // Compression at the allocator: retained bytes per appended sample
    // stay well under half of the raw 16-byte layout on a smooth walk
    // (self-reported accounting must agree with what the allocator saw).
    let per_sample = live_grew as f64 / (MEASURE - 1) as f64;
    assert!(
        per_sample < 8.0,
        "retained {per_sample:.2} B/sample, want < 8 (raw is 16)"
    );
    assert!(
        h.history_bytes() * 3 < h.raw_baseline_bytes(),
        "self-reported: {} B compressed vs {} B raw",
        h.history_bytes(),
        h.raw_baseline_bytes()
    );
}
