//! Store-level guarantees of the incremental training pipeline that
//! need extreme inputs: no panic on coordinates at the edge of `f64`.
//! Equivalence with the batch pipeline — at every cadence crossing,
//! however reports are batched, live, reopened or under concurrent
//! readers — is the op-trace model's job (`tests/model.rs` at the
//! workspace root).

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
