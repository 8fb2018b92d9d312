//! Deterministic concurrency stress for the sharded store: writer and
//! reader threads hammer report/predict/remove/force_retrain across
//! shard boundaries under fixed `hpm-rand` seeds.
//!
//! Determinism discipline: thread interleavings vary run to run, so
//! every assertion is interleaving-independent — final per-object
//! sample counts (no lost reports), prediction equality for objects no
//! writer touches (stable predictions for quiescent objects), and
//! atomicity invariants (`samples % batch == 0`) that hold at every
//! instant. The randomness only shuffles *which* operations run, never
//! what the end state must be.

mod common;

use common::{day, PERIOD};
use hpm_geo::Point;
use hpm_objectstore::{MovingObjectStore, ObjectId, QueryError, StoreConfig};
use hpm_rand::{Rng, SmallRng};
use hpm_trajectory::Timestamp;

fn config() -> StoreConfig {
    let mut config = StoreConfig {
        min_train_subs: 5,
        retrain_every_subs: 5,
        shards: 4,
        ..common::config()
    };
    config.hpm.k = 1;
    config
}

fn feed_days(store: &MovingObjectStore, id: ObjectId, days: std::ops::Range<usize>) {
    for d in days {
        store
            .report_batch(id, (d * PERIOD as usize) as Timestamp, &day(d))
            .unwrap();
    }
}

#[test]
fn writers_and_readers_hammer_shards() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const OBJECTS_PER_WRITER: usize = 4;
    const DAYS: usize = 12;

    let store = MovingObjectStore::new(config());

    // A quiescent object: trained before the storm, untouched during
    // it. Its predictions must stay bit-identical throughout.
    let quiet = ObjectId(9_999);
    feed_days(&store, quiet, 0..6);
    let probe_times: Vec<Timestamp> = (24..32).collect();
    let baseline: Vec<_> = probe_times
        .iter()
        .map(|&t| store.predict(quiet, t).unwrap())
        .collect();

    // Writer w owns ids w*10 .. w*10 + OBJECTS_PER_WRITER (consecutive
    // ids land in distinct shards for shards = 4) plus one scratch id
    // that gets removed and re-created mid-run.
    let owned = |w: usize| -> Vec<ObjectId> {
        (0..OBJECTS_PER_WRITER)
            .map(|j| ObjectId((w * 10 + j) as u64))
            .collect()
    };
    let scratch = |w: usize| ObjectId(1_000 + w as u64);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let store = &store;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(1_000 + w as u64);
                let ids = owned(w);
                for d in 0..DAYS {
                    for &id in &ids {
                        let start = (d * PERIOD as usize) as Timestamp;
                        let pts = day(d);
                        // Whole-day batch or sample-by-sample: same end
                        // state either way.
                        if rng.gen_bool(0.5) {
                            store.report_batch(id, start, &pts).unwrap();
                        } else {
                            for (k, p) in pts.iter().enumerate() {
                                store.report(id, start + k as Timestamp, *p).unwrap();
                            }
                        }
                        if rng.gen_bool(0.1) {
                            match store.force_retrain(id) {
                                Ok(()) => {}
                                // Early days: below min_train_subs.
                                Err(QueryError::InsufficientHistory { .. }) => {}
                                Err(e) => panic!("force_retrain: {e:?}"),
                            }
                        }
                        if rng.gen_bool(0.2) {
                            // Reads against our own freshly written
                            // object.
                            let t = start + PERIOD as Timestamp + rng.gen_range(0..8u64);
                            if let Ok(p) = store.predict(id, t) {
                                assert!(p.best().is_finite());
                            }
                        }
                    }
                    // Churn the scratch object: lives, dies, returns.
                    let sc = scratch(w);
                    store
                        .report_batch(sc, (d * 2) as Timestamp, &[Point::new(d as f64, 0.0)])
                        .ok();
                    if rng.gen_bool(0.5) {
                        store.remove(sc);
                    } else {
                        store
                            .report(sc, (d * 2 + 1) as Timestamp, Point::ORIGIN)
                            .ok();
                    }
                }
                // Deterministic final state for the scratch object.
                store.remove(scratch(w));
                store
                    .report_batch(
                        scratch(w),
                        0,
                        &[Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)],
                    )
                    .unwrap();
            });
        }
        for r in 0..READERS {
            let store = &store;
            let baseline = &baseline;
            let probe_times = &probe_times;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(2_000 + r as u64);
                for i in 0..400usize {
                    // The quiescent object answers identically no
                    // matter what the writers are doing elsewhere.
                    let k = i % probe_times.len();
                    let pred = store.predict(quiet, probe_times[k]).unwrap();
                    assert_eq!(pred, baseline[k], "quiescent prediction drifted");
                    // Random cross-shard reads; errors (unknown id,
                    // non-future time) are legitimate outcomes.
                    let id = ObjectId(rng.gen_range(0..40u64));
                    if let Ok(p) = store.predict(id, rng.gen_range(1..60u64)) {
                        assert!(p.best().is_finite());
                    }
                    if let Ok(stats) = store.stats(id) {
                        // A just-created object may be visible with 0
                        // samples (its first report still in flight);
                        // it can never exceed its writer's feed.
                        assert!(stats.samples <= DAYS * PERIOD as usize);
                    }
                    // Fleet-wide indexed queries under writer fire:
                    // results race the writers, so assert the
                    // interleaving-independent invariants — ordering,
                    // finiteness, k-bound, in-region membership.
                    if i % 8 == 0 {
                        let t = rng.gen_range(1..60u64);
                        let region = hpm_geo::BoundingBox {
                            min: Point::new(-10.0, -10.0),
                            max: Point::new(rng.gen_f64() * 200.0, 60.0),
                        };
                        let hits = store.predict_range(&region, t);
                        assert!(
                            hits.windows(2).all(|w| w[0].0 < w[1].0),
                            "range results not id-ordered"
                        );
                        assert!(hits.iter().all(|(_, p)| region.contains(p)));
                        let k = rng.gen_range(1..6usize);
                        let focus = Point::new(rng.gen_f64() * 100.0, 0.0);
                        let near = store.predict_nearest(&focus, t, k);
                        assert!(near.len() <= k);
                        assert!(
                            near.windows(2)
                                .all(|w| { (w[0].2, w[0].0) <= (w[1].2, w[1].0) }),
                            "kNN results not (distance, id)-ordered"
                        );
                        assert!(near
                            .iter()
                            .all(|(_, p, d)| { p.is_finite() && *d == p.distance(&focus) }));
                        // The ordering check lets a repeated id
                        // through when its two entries differ in
                        // distance (a flush racing the ring sweep).
                        for hits in [near, store.predict_nearest_prob(&focus, t, k, 0.5)] {
                            let mut ids: Vec<ObjectId> = hits.iter().map(|h| h.0).collect();
                            ids.sort_unstable();
                            ids.dedup();
                            assert_eq!(ids.len(), hits.len(), "kNN returned an id twice");
                        }
                    }
                }
            });
        }
    });

    // No lost reports: every owned object holds exactly its fed days.
    for w in 0..WRITERS {
        for &id in &owned(w) {
            let stats = store.stats(id).unwrap();
            assert_eq!(stats.samples, DAYS * PERIOD as usize, "{id} lost reports");
            assert!(stats.trained_periods >= 5, "{id} never trained");
        }
        assert_eq!(store.stats(scratch(w)).unwrap().samples, 3);
    }
    // Quiescent object still answers the baseline after the dust
    // settles.
    for (k, &t) in probe_times.iter().enumerate() {
        assert_eq!(store.predict(quiet, t).unwrap(), baseline[k]);
    }
    // With the writers gone the indexed fleet-wide queries must agree
    // with the brute-force scan bit for bit, dirty-set churn included.
    let region = hpm_geo::BoundingBox {
        min: Point::new(-5.0, -5.0),
        max: Point::new(120.0, 60.0),
    };
    for t in [1, 40, 49, 120] {
        assert_eq!(
            store.predict_range(&region, t),
            store.predict_range_scan(&region, t),
            "indexed range drifted from scan at t={t}"
        );
        let focus = Point::new(60.0, 10.0);
        assert_eq!(
            store.predict_nearest(&focus, t, 7),
            store.predict_nearest_scan(&focus, t, 7),
            "indexed kNN drifted from scan at t={t}"
        );
    }
    assert_eq!(
        store.object_count(),
        WRITERS * OBJECTS_PER_WRITER + WRITERS + 1
    );
}

/// `report_batch` interleaved with `predict`/`stats` across shards: a
/// reader sees each object's pre-batch or post-batch history, never a
/// partial prefix (the whole batch lands under one hold of the
/// object's write lock).
#[test]
fn report_batch_is_atomic_under_concurrent_reads() {
    const OBJECTS: u64 = 6;
    const ROUNDS: usize = 40;
    let batch = PERIOD as usize; // every batch is one 4-sample day

    let store = MovingObjectStore::new(config());
    let done = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|s| {
        let store = &store;
        let done = &done;
        s.spawn(move || {
            for d in 0..ROUNDS {
                for id in 0..OBJECTS {
                    store
                        .report_batch(ObjectId(id), (d * batch) as Timestamp, &day(d))
                        .unwrap();
                }
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        for r in 0..3u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(3_000 + r);
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let id = ObjectId(rng.gen_range(0..OBJECTS));
                    if let Ok(stats) = store.stats(id) {
                        assert_eq!(
                            stats.samples % batch,
                            0,
                            "torn batch visible on {id}: {} samples",
                            stats.samples
                        );
                    }
                    if let Ok(p) = store.predict(id, rng.gen_range(1..200u64)) {
                        assert!(p.best().is_finite());
                    }
                }
            });
        }
    });

    for id in 0..OBJECTS {
        assert_eq!(store.stats(ObjectId(id)).unwrap().samples, ROUNDS * batch);
    }
}

/// `report_many` (the multi-object pool-fanned ingest) has the same
/// per-object atomicity: concurrent readers never observe a partially
/// applied per-object slice of the flat batch.
#[test]
fn report_many_is_atomic_per_object() {
    const OBJECTS: u64 = 6;
    const ROUNDS: usize = 30;
    let batch = PERIOD as usize;

    let store = MovingObjectStore::new(config());
    let done = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|s| {
        let store = &store;
        let done = &done;
        s.spawn(move || {
            for d in 0..ROUNDS {
                // One flat batch interleaving every object's day,
                // sample by sample — the grouping logic must still
                // apply each object's slice atomically and in order.
                let mut flat: Vec<(ObjectId, Timestamp, Point)> = Vec::new();
                for k in 0..batch {
                    for id in 0..OBJECTS {
                        flat.push((ObjectId(id), (d * batch + k) as Timestamp, day(d)[k]));
                    }
                }
                let results = store.report_many(&flat);
                assert!(results.iter().all(Result::is_ok), "{results:?}");
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        for r in 0..3u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(4_000 + r);
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let id = ObjectId(rng.gen_range(0..OBJECTS));
                    if let Ok(stats) = store.stats(id) {
                        assert_eq!(
                            stats.samples % batch,
                            0,
                            "torn report_many visible on {id}: {} samples",
                            stats.samples
                        );
                    }
                }
            });
        }
    });

    for id in 0..OBJECTS {
        let stats = store.stats(ObjectId(id)).unwrap();
        assert_eq!(stats.samples, ROUNDS * batch);
        assert!(stats.trained_periods > 0);
    }
}
