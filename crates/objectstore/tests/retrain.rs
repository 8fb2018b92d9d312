//! Store-level guarantees of the incremental training pipeline:
//! equivalence with full rebuilds, freshness bounds, batching
//! invariance, concurrent-read safety, and clean trainer resets.

use hpm_core::{HpmConfig, HybridPredictor, PredictiveQuery};
use hpm_geo::Point;
use hpm_objectstore::{
    DurabilityConfig, FsyncPolicy, MovingObjectStore, ObjectId, ObjectStats, QueryError,
    StoreConfig,
};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_rand::{Rng, SmallRng};
use hpm_trajectory::{Timestamp, Trajectory};

const PERIOD: u32 = 4;

fn config(retrain_every_subs: usize) -> StoreConfig {
    StoreConfig {
        discovery: DiscoveryParams {
            period: PERIOD,
            eps: 2.0,
            min_pts: 3,
        },
        mining: MiningParams {
            min_support: 2,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 3,
        },
        hpm: HpmConfig {
            k: 2,
            distant_threshold: 3,
            time_relaxation: 1,
            match_margin: 5.0,
            rmf_retrospect: 2,
            ..HpmConfig::default()
        },
        min_train_subs: 3,
        retrain_every_subs,
        recent_len: 2,
        shards: 4,
        threads: 2,
        index: hpm_objectstore::IndexConfig::default(),
    }
}

/// Strips `approx_bytes` (capacity-based, legitimately differs between
/// equal logical states) so stats comparisons check logical fields.
fn logical(mut s: ObjectStats) -> ObjectStats {
    s.approx_bytes = 0;
    s
}

/// One commuter day; `wild` days relocate to a remote hotspot (drives
/// cluster formation/promotion -> structure drift -> full fallback).
fn day(d: usize, wild: bool) -> Vec<Point> {
    if wild {
        let j = (d % 3) as f64 * 0.2;
        return (0..PERIOD)
            .map(|t| Point::new(400.0 + t as f64 * 0.3 + j, 400.0))
            .collect();
    }
    let j = (d % 3) as f64 * 0.2;
    vec![
        Point::new(j, 0.0),
        Point::new(50.0 + j, 0.0),
        Point::new(100.0 + j, 0.0),
        Point::new(100.0 + j, 50.0),
    ]
}

/// A 30-day stream with a burst of wild days in the middle: quiet
/// stretches retrain incrementally, the burst forces drift fallbacks.
fn stream() -> Vec<Vec<Point>> {
    (0..30).map(|d| day(d, (12..16).contains(&d))).collect()
}

/// The incremental path must be observationally identical to forced
/// full rebuilds: a store retraining on every new sub-trajectory
/// (delta pipeline) answers exactly like a store that rebuilt from
/// the complete history in one shot. Both derive their predictor from
/// the trainer, so each is also held to the independent reference: the
/// paper's batch pipeline, `HybridPredictor::build`, run bare over the
/// same history — after the first train (the day `incremental` first
/// reports trained periods), after every `force_retrain`, and after
/// every fold and drift fallback in between.
#[test]
fn incremental_cadence_matches_forced_full_rebuild() {
    let id = ObjectId(1);
    let days = stream();
    let cfg = config(1);
    let incremental = MovingObjectStore::new(cfg.clone());
    let full = MovingObjectStore::new(config(usize::MAX >> 1));
    let mut history = Trajectory::new(0, Vec::new());
    for (d, pts) in days.iter().enumerate() {
        let start = (d * PERIOD as usize) as Timestamp;
        incremental.report_batch(id, start, pts).unwrap();
        full.report_batch(id, start, pts).unwrap();
        for p in pts {
            history.push(*p);
        }

        // Retrain `full` from scratch and compare at every point of
        // the stream, drift fallbacks included.
        let si = incremental.stats(id).unwrap();
        if si.trained_periods == 0 {
            continue; // below min_train_subs: neither store trained
        }
        full.force_retrain(id).unwrap();
        let sf = full.stats(id).unwrap();
        assert_eq!(logical(si), logical(sf), "stats diverged after day {d}");
        let reference = HybridPredictor::build(&history, &cfg.discovery, &cfg.mining, cfg.hpm);
        assert_eq!(sf.regions, reference.regions().len(), "day {d}");
        assert_eq!(sf.patterns, reference.patterns().len(), "day {d}");
        let now = start + PERIOD as Timestamp - 1;
        let (recent, _) = history.recent_window(cfg.recent_len);
        for dt in 1..=PERIOD as Timestamp {
            assert_eq!(
                incremental.predict(id, now + dt).unwrap(),
                full.predict(id, now + dt).unwrap(),
                "prediction diverged after day {d} at +{dt}"
            );
            assert_eq!(
                full.predict(id, now + dt).unwrap(),
                reference.predict(&PredictiveQuery {
                    recent,
                    current_time: now,
                    query_time: now + dt,
                }),
                "stores diverged from the batch build after day {d} at +{dt}"
            );
        }
    }
}

/// With `retrain_every_subs = 1` the predictor is never stale by more
/// than the sub-trajectory currently in flight: after every report
/// the trained watermark equals the full-period count.
#[test]
fn staleness_is_bounded_by_the_retrain_cadence() {
    let id = ObjectId(2);
    let store = MovingObjectStore::new(config(1));
    for (d, pts) in stream().iter().enumerate() {
        store
            .report_batch(id, (d * PERIOD as usize) as Timestamp, pts)
            .unwrap();
        let s = store.stats(id).unwrap();
        if s.trained_periods > 0 {
            assert_eq!(
                s.trained_periods, s.full_periods,
                "stale predictor after day {d}"
            );
        }
    }
}

/// Batch size is not observable in training: an object retrains at
/// every cadence crossing *inside* a run, so one report stream leaves
/// the same trained state however it is cut into calls — one `report`
/// at a time (what WAL replay does), one `report_batch`, `report_many`
/// calls cut at random points that straddle period boundaries — and a
/// durable store fed the single batch reopens to that state too.
#[test]
fn batch_size_is_not_observable_in_training() {
    let id = ObjectId(6);
    // 30 full periods and a 2-sample tail; at a cadence of 2 the stream
    // crosses 14 retrain boundaries, drift fallbacks included, and ends
    // mid-period (where a trailing retrain would see extra samples).
    let mut samples: Vec<Point> = stream().concat();
    samples.extend_from_slice(&day(30, false)[..2]);
    let cfg = config(2);

    let one_by_one = MovingObjectStore::new(cfg.clone());
    for (t, p) in samples.iter().enumerate() {
        one_by_one.report(id, t as Timestamp, *p).unwrap();
    }

    let one_batch = MovingObjectStore::new(cfg.clone());
    one_batch.report_batch(id, 0, &samples).unwrap();

    let random_cuts = MovingObjectStore::new(cfg.clone());
    let mut rng = SmallRng::seed_from_u64(17);
    let mut t = 0;
    while t < samples.len() {
        // Up to 11 samples a call: most calls straddle a boundary,
        // some straddle two.
        let end = (t + rng.gen_range(1..12usize)).min(samples.len());
        let call: Vec<_> = (t..end).map(|i| (id, i as Timestamp, samples[i])).collect();
        for r in random_cuts.report_many(&call) {
            r.unwrap();
        }
        t = end;
    }

    let dir = std::env::temp_dir().join(format!("hpm-retrain-batching-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig {
        fsync: FsyncPolicy::Never,
        ..DurabilityConfig::new(&dir)
    };
    let live = MovingObjectStore::open(cfg.clone(), durability.clone()).unwrap();
    live.report_batch(id, 0, &samples).unwrap();
    drop(live);
    let reopened = MovingObjectStore::open(cfg, durability).unwrap();

    let expected = logical(one_by_one.stats(id).unwrap());
    assert_eq!(expected.trained_periods, 29, "last cadence crossing");
    let now = samples.len() as Timestamp - 1;
    for (name, store) in [
        ("one report_batch", &one_batch),
        ("random report_many cuts", &random_cuts),
        ("reopened after one report_batch", &reopened),
    ] {
        assert_eq!(logical(store.stats(id).unwrap()), expected, "{name}");
        for dt in 1..=PERIOD as Timestamp {
            assert_eq!(
                store.predict(id, now + dt).unwrap(),
                one_by_one.predict(id, now + dt).unwrap(),
                "{name} diverged at +{dt}"
            );
        }
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Readers racing a retraining writer must never observe a torn
/// predictor: every prediction is answerable and finite, and the
/// retrain settles to the trained watermark.
#[test]
fn concurrent_predict_during_retrain_never_torn() {
    let store = MovingObjectStore::new(config(1));
    let id = ObjectId(3);
    let days = stream();
    // Warm up past min_train_subs so readers always have a predictor.
    for (d, pts) in days.iter().take(4).enumerate() {
        store
            .report_batch(id, (d * PERIOD as usize) as Timestamp, pts)
            .unwrap();
    }
    std::thread::scope(|s| {
        let writer = &store;
        s.spawn(move || {
            for (d, pts) in days.iter().enumerate().skip(4) {
                writer
                    .report_batch(id, (d * PERIOD as usize) as Timestamp, pts)
                    .unwrap();
            }
        });
        for _ in 0..2 {
            let reader = &store;
            s.spawn(move || {
                for i in 0..500u64 {
                    // Far enough ahead to stay in every concurrent
                    // trajectory's future.
                    let pred = reader.predict(id, 10_000 + i % 7).unwrap();
                    assert!(pred.best().is_finite(), "torn prediction");
                }
            });
        }
    });
    let s = store.stats(id).unwrap();
    assert_eq!(s.trained_periods, 30);
    assert_eq!(s.full_periods, 30);
    assert!(s.patterns > 0);
}

/// Regression: `force_retrain` below `min_train_subs` must be a typed
/// rejection, not a train. An unguarded force used to seed the trainer
/// from sparse per-offset history, leaving it misaligned; the next
/// automatic retrain then panicked inside `report` while holding the
/// object's write lock — poisoning the object permanently. The guard
/// rejects the force outright, and the object keeps working.
#[test]
fn force_retrain_on_sub_period_history_keeps_object_alive() {
    let id = ObjectId(5);
    let store = MovingObjectStore::new(config(1));
    // Less than one period reported: the forced train is rejected with
    // a typed error and the trainer stays untouched.
    store.report_batch(id, 0, &day(0, false)[..2]).unwrap();
    match store.force_retrain(id) {
        Err(QueryError::InsufficientHistory {
            full_periods: 0,
            min_train_subs: 3,
        }) => {}
        other => panic!("expected InsufficientHistory, got {other:?}"),
    }
    assert_eq!(store.stats(id).unwrap().trained_periods, 0);
    // Keep reporting across the period boundary: the automatic retrain
    // path must survive and stay equivalent to full rebuilds. Batches
    // start 2 samples into a period, so the last automatic retrain
    // fires at the last boundary, 2 samples before the stream ends:
    // the reference forces its rebuild there, then takes the tail.
    let mut samples = day(0, false)[..2].to_vec();
    for (d, pts) in stream().iter().enumerate() {
        let start = (d * PERIOD as usize + 2) as Timestamp;
        store.report_batch(id, start, pts).unwrap();
        samples.extend_from_slice(pts);
    }
    let boundary = samples.len() - 2;
    let full = MovingObjectStore::new(config(usize::MAX >> 1));
    full.report_batch(id, 0, &samples[..boundary]).unwrap();
    full.force_retrain(id).unwrap();
    full.report_batch(id, boundary as Timestamp, &samples[boundary..])
        .unwrap();
    let s = store.stats(id).unwrap();
    assert_eq!(logical(s), logical(full.stats(id).unwrap()));
    assert!(s.patterns > 0);
    let now = (30 * PERIOD as usize + 2) as Timestamp;
    for dt in 1..=PERIOD as Timestamp {
        assert_eq!(
            store.predict(id, now + dt).unwrap(),
            full.predict(id, now + dt).unwrap(),
            "diverged at +{dt}"
        );
    }
}

/// `remove` + re-report must leave no residue: a forced retrain after
/// re-tracking reflects only the new history, exactly like a store
/// that never saw the old one.
#[test]
fn force_retrain_after_remove_resets_trainer_state() {
    let id = ObjectId(4);
    let store = MovingObjectStore::new(config(1));
    // First life: wild history (trains, and drifts the trainer).
    for d in 0..8usize {
        store
            .report_batch(id, (d * PERIOD as usize) as Timestamp, &day(d, true))
            .unwrap();
    }
    assert!(store.stats(id).unwrap().trained_periods > 0);
    assert!(store.remove(id));

    // Second life: a clean commuter history at fresh timestamps.
    let fresh = MovingObjectStore::new(config(1));
    for (s, d) in [(&store, id), (&fresh, id)] {
        for k in 0..6usize {
            s.report_batch(d, (1000 + k * PERIOD as usize) as Timestamp, &day(k, false))
                .unwrap();
        }
        s.force_retrain(d).unwrap();
    }
    let reborn = store.stats(id).unwrap();
    assert_eq!(reborn, fresh.stats(id).unwrap());
    assert_eq!(reborn.samples, 6 * PERIOD as usize);
    let now = (1000 + 6 * PERIOD as usize - 1) as Timestamp;
    for dt in 1..=PERIOD as Timestamp {
        assert_eq!(
            store.predict(id, now + dt).unwrap(),
            fresh.predict(id, now + dt).unwrap(),
            "residue from the first life at +{dt}"
        );
    }
}

/// The store admits any finite position, including ones so far out
/// that their `Eps`-cell index saturates `i64`. The neighbour walk
/// used to compute `i64::MAX + 1` there: with overflow checks on, one
/// such report panicked the retrain under the object's write lock and
/// left it `ObjectUnavailable`. Each day here revisits four such
/// corners, so the first training clusters them and every later day
/// is folded into those clusters.
#[test]
fn huge_finite_positions_train_and_fold_without_a_panic() {
    let id = ObjectId(6);
    let store = MovingObjectStore::new(config(1));
    let corners = [
        Point::new(1e300, -1e300),
        Point::new(-1e300, 1e300),
        Point::new(f64::MAX, f64::MAX),
        Point::new(-f64::MAX, f64::MAX),
    ];
    for d in 0..6usize {
        store
            .report_batch(id, (d * PERIOD as usize) as Timestamp, &corners)
            .unwrap();
    }
    let s = store.stats(id).unwrap();
    assert_eq!(s.samples, 6 * PERIOD as usize);
    assert_eq!(s.trained_periods, 6);
    assert_eq!(s.regions, PERIOD as usize);
}
