//! Allocation-count regression tests for the predict hot path and
//! for a seed.
//!
//! Installs [`hpm_check::alloc::CountingAllocator`] as the global
//! allocator (hence: a dedicated integration-test file, its tests
//! serialized by one lock, so no concurrent test's allocations bleed
//! into a measured window) and asserts that after warmup:
//!
//! * [`HybridPredictor::predict_with`] performs **zero** heap
//!   allocations per call, for both FQP and BQP queries;
//! * the by-value [`HybridPredictor::predict`] wrapper allocates only
//!   the returned `Prediction`'s answer vector (≤ 2 allocations per
//!   call);
//! * one seed of a commuter — [`HybridPredictor::build`], the whole
//!   offline pipeline — stays within a committed number of blocks.
//!
//! The motion-function fallback is exempt by design (the RMF
//! least-squares fit allocates; see DESIGN.md "Memory layout"), so the
//! fixture guarantees every measured query is answered by patterns.

use hpm_check::alloc::CountingAllocator;
use hpm_core::{
    HpmConfig, HybridPredictor, PredictScratch, Prediction, PredictiveQuery, WeightFunction,
};
use hpm_geo::{BoundingBox, Point};
use hpm_patterns::{
    DiscoveryParams, FrequentRegion, MiningParams, RegionId, RegionSet, TrajectoryPattern,
};
use hpm_trajectory::Trajectory;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Held by each test for its whole run: the counters are global.
static SERIAL: Mutex<()> = Mutex::new(());

/// Blocks one seed of [`commuter`] may acquire: what it makes — the 12
/// offset groups, one clustering over them (a sample vector per
/// offset, the offset table, one cell table, the region sums) and the
/// seed's scratch, one visit sequence per period (grown push by push),
/// the support counts, the rule list and the predictor (178 measured).
/// A per-offset scratch buffer (12 more) or a per-rule allocation (136
/// more) that creeps back fails the gate.
const SEED_BLOCKS: u64 = 234;

/// Hand-built three-region commuter world (period 3): R0@0 → R1@1 and
/// R0∧R1 → R2@2, so both offsets 1 and 2 have consequences.
fn predictor() -> HybridPredictor {
    let mk = |id: u32, offset: u32, cx: f64| FrequentRegion {
        id: RegionId(id),
        offset,
        local_index: 0,
        centroid: Point::new(cx, cx),
        bbox: BoundingBox {
            min: Point::new(cx - 1.0, cx - 1.0),
            max: Point::new(cx + 1.0, cx + 1.0),
        },
        support: 5,
    };
    let regions = RegionSet::new(vec![mk(0, 0, 0.0), mk(1, 1, 50.0), mk(2, 2, 100.0)], 3);
    let patterns = vec![
        TrajectoryPattern {
            premise: vec![RegionId(0)],
            consequence: RegionId(1),
            confidence: 0.9,
            support: 5,
        },
        TrajectoryPattern {
            premise: vec![RegionId(0), RegionId(1)],
            consequence: RegionId(2),
            confidence: 0.5,
            support: 5,
        },
    ];
    HybridPredictor::from_parts(
        regions,
        patterns,
        HpmConfig {
            k: 2,
            distant_threshold: 2,
            time_relaxation: 1,
            weight_fn: WeightFunction::Linear,
            match_margin: 0.5,
            rmf_retrospect: 2,
        },
    )
}

#[test]
fn predict_hot_path_is_allocation_free_after_warmup() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = predictor();
    let recent = [Point::new(0.0, 0.0)];
    // Prediction length 1 ≤ d = 2: Forward Query Processing.
    let fqp = PredictiveQuery {
        recent: &recent,
        current_time: 0,
        query_time: 1,
    };
    // Prediction length 7 > d = 2: Backward Query Processing.
    let bqp = PredictiveQuery {
        recent: &recent,
        current_time: 0,
        query_time: 7,
    };
    let mut scratch = PredictScratch::new();
    let mut out = Prediction::default();

    // Warmup: grows every scratch buffer to steady-state capacity and
    // registers the observability handles (cold paths may allocate).
    for _ in 0..4 {
        p.predict_with(&fqp, &mut scratch, &mut out);
        assert!(out.from_patterns(), "fixture must not hit the fallback");
        p.predict_with(&bqp, &mut scratch, &mut out);
        assert!(out.from_patterns(), "fixture must not hit the fallback");
    }

    // The counter is process-global, so the libtest harness thread can
    // inject the odd stray allocation into a window. Taking the best of
    // several windows filters that out while still catching any real
    // per-call allocation (which would show up in *every* window,
    // ≥ 1024 times).
    let grew = (0..8)
        .map(|_| {
            let before = ALLOC.allocations();
            for _ in 0..512 {
                p.predict_with(&fqp, &mut scratch, &mut out);
                p.predict_with(&bqp, &mut scratch, &mut out);
            }
            ALLOC.allocations() - before
        })
        .min()
        .unwrap();
    assert_eq!(
        grew, 0,
        "warm predict_with made {grew} heap allocations over 1024 calls"
    );

    // The by-value wrapper reuses a thread-local scratch; only the
    // returned Prediction's answer vector may allocate.
    let _ = p.predict(&fqp); // warm the thread-local scratch
    const CALLS: u64 = 64;
    let before = ALLOC.allocations();
    for _ in 0..CALLS {
        std::hint::black_box(p.predict(&fqp));
    }
    let grew = ALLOC.allocations() - before;
    assert!(
        grew <= 2 * CALLS,
        "warm predict() made {grew} heap allocations over {CALLS} calls \
         (expected ≤ 2 per call: the returned answer vector)"
    );
}

/// 30 days of period 12: home, a shared road, then one of two branches
/// on alternate days, with a three-day jitter cycle.
fn commuter() -> Trajectory {
    let mut pts = Vec::new();
    for day in 0..30 {
        let jitter = (day % 3) as f64 * 0.2;
        for t in 0..12 {
            let branch = if t >= 6 && day % 2 == 1 { 40.0 } else { 0.0 };
            pts.push(Point::new(t as f64 * 20.0 + jitter, branch + jitter));
        }
    }
    Trajectory::from_points(pts)
}

#[test]
fn a_seed_stays_within_its_committed_blocks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let hist = commuter();
    let discovery = DiscoveryParams {
        period: 12,
        eps: 2.0,
        min_pts: 3,
    };
    let mining = MiningParams {
        min_support: 2,
        min_confidence: 0.3,
        max_premise_len: 2,
        max_premise_gap: 2,
        max_span: 4,
    };
    let seed = || HybridPredictor::build(&hist, &discovery, &mining, HpmConfig::default());
    // Warm the observability handles, then take the quietest window.
    let rules = seed().patterns().len();
    assert!(rules > 50, "fixture too thin: {rules} rules");
    let blocks = (0..4)
        .map(|_| {
            let before = ALLOC.allocations();
            drop(seed());
            ALLOC.allocations() - before
        })
        .min()
        .unwrap();
    println!("one seed: {blocks} blocks, {rules} rules");
    assert!(
        blocks <= SEED_BLOCKS,
        "one seed made {blocks} allocations, over the committed {SEED_BLOCKS}"
    );
}
