//! Store-level guarantees of the incremental training pipeline that
//! need threads or extreme inputs: concurrent-read safety, and no
//! panic on coordinates at the edge of `f64`. Equivalence with the
//! batch pipeline — at every cadence crossing, however reports are
//! batched, live or reopened — is the op-trace model's job
//! (`tests/model.rs` at the workspace root).

mod common;

use common::PERIOD;
use hpm_geo::Point;
use hpm_objectstore::{MovingObjectStore, ObjectId, StoreConfig};
use hpm_trajectory::Timestamp;

fn config(retrain_every_subs: usize) -> StoreConfig {
    StoreConfig {
        retrain_every_subs,
        shards: 4,
        ..common::config()
    }
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
    common::day(d)
}

/// A 30-day stream with a burst of wild days in the middle: quiet
/// stretches retrain incrementally, the burst forces drift fallbacks.
fn stream() -> Vec<Vec<Point>> {
    (0..30).map(|d| day(d, (12..16).contains(&d))).collect()
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
