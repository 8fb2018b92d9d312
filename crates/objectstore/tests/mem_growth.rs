//! Steady-state memory regression test for the `report` path.
//!
//! Installs [`hpm_check::alloc::CountingAllocator`] globally (a
//! dedicated file whose tests take one lock in turn — the counters are
//! process-global) and bounds the **retained** live-byte growth per
//! reported sample once a store is warm. Steady-state growth
//! decomposes into:
//!
//! * compressed history (~2–5 B/sample on a paper-like walk, vs 16 raw);
//! * trainer state: each clustered sample once (a 24 B sample — point,
//!   neighbour count, assignment — in its offset's sample vector) and
//!   its share of the one cell table over all offsets — linear by
//!   design, the price of incremental retraining. Visit transactions
//!   are not: the trainer keeps only the open sub-trajectory's visit
//!   sequence, and the support counts are bounded by the region
//!   vocabulary; nor are the regions: the trainer keeps one coordinate
//!   sum per region and folds the rest into the predictor's table;
//! * predictor/index churn: bounded, retained regions/patterns reach a
//!   fixed point on a repeating commuter loop.
//!
//! The budget below is ~2× the measured figure; a regression that
//! leaks per-report scratch (decode buffers, retrain temporaries)
//! overshoots it immediately. The test also cross-checks the store's
//! self-reported accounting against the allocator: `memory_use()` must
//! agree that history compression is actually holding at steady state.
//!
//! Two more cases hold the *trained* share of that accounting —
//! `predictor_bytes + trainer_bytes`, what `mem_bytes_per_object` is
//! made of on a trained fleet — to the bytes the allocator actually
//! handed out while a small commuter fleet trained, under a cadence
//! that drops each trainer and one that keeps it, so a drop in the
//! `MemUse` figure is a drop in real heap.

mod common;

use common::{day, PERIOD};
use hpm_check::alloc::CountingAllocator;
use hpm_core::HpmConfig;
use hpm_geo::Point;
use hpm_objectstore::{MovingObjectStore, ObjectId, StoreConfig, StoreMemory};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_trajectory::Timestamp;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Held by each test for its whole body: the harness runs tests on
/// parallel threads and the allocator counters are process-global.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn config() -> StoreConfig {
    let mut config = StoreConfig {
        min_train_subs: 5,
        retrain_every_subs: 1, // retrain on every day: worst-case cadence
        shards: 2,
        threads: 1,
        ..common::config()
    };
    config.hpm = HpmConfig {
        k: 1,
        rmf_retrospect: HpmConfig::default().rmf_retrospect,
        ..config.hpm
    };
    config
}

#[test]
fn warm_report_retains_bounded_bytes_per_sample() {
    const WARM_DAYS: usize = 200;
    const MEASURE_DAYS: usize = 600;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let store = MovingObjectStore::new(config());
    let id = ObjectId(1);
    for d in 0..WARM_DAYS {
        store
            .report_batch(id, (d * PERIOD as usize) as Timestamp, &day(d))
            .unwrap();
    }
    // Settle observability handles and any lazy one-time state.
    let _ = store.memory_use();

    let live_before = ALLOC.live_bytes();
    for d in WARM_DAYS..WARM_DAYS + MEASURE_DAYS {
        store
            .report_batch(id, (d * PERIOD as usize) as Timestamp, &day(d))
            .unwrap();
    }
    let live_grew = ALLOC.live_bytes().saturating_sub(live_before);
    let samples = (MEASURE_DAYS * PERIOD as usize) as u64;
    let per_sample = live_grew as f64 / samples as f64;

    // Budget: compressed history + trainer linear state + slack.
    // Measured ~53 B/sample (dominated by per-offset clustering points
    // and their grid / assignment / count entries, inflated by Vec
    // capacity doubling); a leak of per-report scratch (retrain
    // temporaries run >1 KiB/day = >256 B/sample) overshoots
    // immediately.
    assert!(
        per_sample < 128.0,
        "steady-state report retained {per_sample:.1} B/sample \
         ({live_grew} B over {samples} samples), budget 128"
    );

    // Self-reported accounting agrees that compression is holding.
    // The commuter fixture is adversarial for XOR-delta (consecutive
    // samples hop ~50 units, so most mantissa bits churn); it still
    // lands under the raw 16 B/sample layout. The ≥3× figure is proven
    // on paper-like smooth walks in hpm-trajectory's chunk_alloc test
    // and measured by `benches/memory.rs`.
    let mem = store.memory_use();
    assert_eq!(mem.objects, 1);
    assert!(
        mem.history_bytes < mem.history_raw_bytes,
        "history {} B vs raw {} B — compression not holding",
        mem.history_bytes,
        mem.history_raw_bytes
    );
    assert!(
        mem.total_bytes as u64 <= ALLOC.live_bytes(),
        "self-reported {} B exceeds process live bytes {}",
        mem.total_bytes,
        ALLOC.live_bytes()
    );
}

/// `periods` days of a forked commuter (sysbench's `predict_point`
/// shape in small): two routes share a first leg and then split, with
/// per-object geometry and seed, so each object mines a few hundred
/// rules of its own.
fn forked_commuter(id: u64, period: u32, periods: usize) -> Vec<Point> {
    use hpm_datagen::{Archetype, GeneratorConfig, PeriodicGenerator};
    let reach = 24.0 + (id % 5) as f64;
    let home = Point::new(4.0, 4.0 + (id % 3) as f64);
    let hub = Point::new(home.x + reach * 0.5, home.y);
    let work = Point::new(hub.x + reach * 0.4, hub.y + reach * 0.5);
    let mall = Point::new(hub.x + reach * 0.3, (hub.y - reach * 0.2).max(1.0));
    PeriodicGenerator::new(
        GeneratorConfig {
            period,
            num_subs: periods,
            similarity_prob: 0.9,
            point_noise: 0.25,
            route_noise: 0.4,
            extent: 40.0,
            seed: 0x5EED ^ id,
        },
        vec![
            Archetype::new(vec![home, hub, work], 0.65),
            Archetype::new(vec![home, hub, mall], 0.35),
        ],
    )
    .generate()
    .points()
    .to_vec()
}

/// Under predict_point's cadence no fold is due, so the store drops
/// each trainer after its pass and the predictor alone is held to the
/// allocator.
#[test]
fn trained_state_accounting_matches_the_allocator() {
    trained_state_accounting(1_000_000);
}

/// Under a cadence below the trained periods each object keeps its
/// trainer for the next fold, so the trainer share is held too.
#[test]
fn held_trainer_accounting_matches_the_allocator() {
    let after = trained_state_accounting(1);
    assert!(after.trainer_bytes > 0, "no trainer was held");
}

/// Trains a commuter fleet at its last sample under `retrain_every_subs`
/// and holds the trained share of `memory_use()` to what the allocator
/// handed out meanwhile; returns the figures after training.
fn trained_state_accounting(retrain_every_subs: usize) -> StoreMemory {
    const OBJECTS: u64 = 12;
    const TRAIN_PERIOD: u32 = 24;
    const TRAIN_DAYS: usize = 12;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let store = MovingObjectStore::new(StoreConfig {
        discovery: DiscoveryParams {
            period: TRAIN_PERIOD,
            eps: 2.0,
            min_pts: 3,
        },
        mining: MiningParams {
            min_support: 3,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 8,
        },
        min_train_subs: TRAIN_DAYS,
        retrain_every_subs,
        ..config()
    });
    // Load every object up to its last pre-training sample, so the
    // histories, map cells and index entries are resident before the
    // window opens and the window holds the training and little else.
    let paths: Vec<Vec<Point>> = (0..OBJECTS)
        .map(|id| forked_commuter(id, TRAIN_PERIOD, TRAIN_DAYS))
        .collect();
    let last = TRAIN_DAYS * TRAIN_PERIOD as usize - 1;
    for (id, path) in paths.iter().enumerate() {
        store
            .report_batch(ObjectId(id as u64), 0, &path[..last])
            .unwrap();
    }
    let before = store.memory_use();
    assert_eq!(before.predictor_bytes + before.trainer_bytes, 0);

    let live_before = ALLOC.live_bytes();
    for (id, path) in paths.iter().enumerate() {
        store
            .report(ObjectId(id as u64), last as Timestamp, path[last])
            .unwrap();
    }
    let allocated = ALLOC.live_bytes().saturating_sub(live_before);
    let after = store.memory_use();

    let rules: usize = (0..OBJECTS)
        .map(|id| store.stats(ObjectId(id)).unwrap().patterns)
        .sum();
    assert!(
        rules >= 100 * OBJECTS as usize,
        "fixture too thin to say anything: {rules} rules over {OBJECTS} objects"
    );
    // What the window allocated besides trained state: the one sample
    // each history took in, and whatever the index noted about it.
    let other = (after.history_bytes - before.history_bytes)
        + after.index_bytes.saturating_sub(before.index_bytes);
    let allocated = allocated as f64 - other as f64;
    let accounted = (after.predictor_bytes + after.trainer_bytes) as f64;
    assert!(
        (accounted / allocated - 1.0).abs() < 0.20,
        "MemUse says {accounted} B of trained state ({} predictor + {} trainer), \
         the allocator handed out {allocated} B",
        after.predictor_bytes,
        after.trainer_bytes
    );
    after
}

/// The index share of `memory_use()` — its slots, cells and expiry
/// groups, less the dirty sets a flush takes — held to what the
/// allocator handed out while a query's flush built the index over a
/// fleet reported since the last flush.
#[test]
fn index_accounting_matches_the_allocator() {
    const OBJECTS: u64 = 4_000;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let store = MovingObjectStore::new(config());
    let walk = |id: u64| {
        let (x, y) = ((id % 64) as f64 * 50.0, (id / 64) as f64 * 50.0);
        [
            Point::new(x, y),
            Point::new(x + 1.0, y),
            Point::new(x + 2.0, y + 1.0),
        ]
    };
    let far = hpm_geo::BoundingBox {
        min: Point::new(-1e6, -1e6),
        max: Point::new(-1e6 + 1.0, -1e6 + 1.0),
    };
    // One object and one query first, so whatever a query sets up once
    // is resident before the window opens.
    store.report_batch(ObjectId(0), 0, &walk(0)).unwrap();
    assert!(store.predict_range(&far, 3).is_empty());
    for id in 1..OBJECTS {
        store.report_batch(ObjectId(id), 0, &walk(id)).unwrap();
    }
    let before = store.memory_use();
    let live_before = ALLOC.live_bytes();
    assert!(store.predict_range(&far, 3).is_empty());
    let allocated = ALLOC.live_bytes() as f64 - live_before as f64;
    let accounted = store.memory_use().index_bytes as f64 - before.index_bytes as f64;
    assert!(
        allocated > 50.0 * OBJECTS as f64,
        "the flush allocated only {allocated} B for {OBJECTS} objects"
    );
    assert!(
        (accounted / allocated - 1.0).abs() < 0.20,
        "MemUse says the index grew {accounted} B, the allocator handed out {allocated} B"
    );
}
