//! Allocation-count regression test for the store's batch predict
//! path.
//!
//! Installs [`hpm_check::alloc::CountingAllocator`] globally (dedicated
//! single-test file — the count is process-global) and asserts that a
//! warm [`MovingObjectStore::predict_batch`] stays within a small
//! documented allocation floor per query. The batch API returns owned
//! values, so unlike `HybridPredictor::predict_with` it cannot be
//! literally zero-allocation: the floor covers
//!
//! * the returned results vector, the chunk list, and the pool's
//!   per-chunk output vectors (constant per batch);
//! * one [`hpm_core::PredictScratch`] warmed per chunk (constant per
//!   batch — the point of per-chunk scratch reuse is that this does
//!   *not* scale with queries);
//! * each returned `Prediction`'s answer vector (≤ 2 per query).
//!
//! `threads: 1` keeps the pool inline on the caller thread so the only
//! allocation noise is the libtest harness itself, absorbed by taking
//! the best of several windows.

mod common;

use common::{day, PERIOD};
use hpm_check::alloc::CountingAllocator;
use hpm_objectstore::{MovingObjectStore, ObjectId, StoreConfig};
use hpm_trajectory::Timestamp;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn config() -> StoreConfig {
    let mut config = StoreConfig {
        min_train_subs: 5,
        retrain_every_subs: 100, // no retrain during the measured window
        shards: 2,
        threads: 1, // inline pool: the measured thread does all the work
        ..common::config()
    };
    config.hpm.k = 1;
    config
}

#[test]
fn warm_predict_batch_stays_within_allocation_floor() {
    const OBJECTS: u64 = 4;
    const DAYS: usize = 10;

    let store = MovingObjectStore::new(config());
    let t = (DAYS * PERIOD as usize) as Timestamp;
    for id in 0..OBJECTS {
        for d in 0..DAYS {
            store
                .report_batch(ObjectId(id), (d * PERIOD as usize) as Timestamp, &day(d))
                .unwrap();
        }
        // Partial final day up to "road", so the recent window holds
        // home/road — positions whose premises predict the rest of the
        // day.
        store
            .report_batch(ObjectId(id), t, &day(DAYS)[..2])
            .unwrap();
    }

    // Pattern-backed queries only: the motion-function fallback (RMF
    // least-squares fit) allocates and is exempt by design. Current
    // time is t + 1 ("road"); t + 2 ("work") is an FQP query
    // (length 1 ≤ d), t + 6 (next day's "work") a BQP one (length 5).
    let queries: Vec<(ObjectId, Timestamp)> = (0..OBJECTS)
        .flat_map(|id| [(ObjectId(id), t + 2), (ObjectId(id), t + 6)])
        .collect();

    // Warmup batch: trains nothing (retrain_every_subs is huge),
    // registers observability handles, faults in code paths.
    let warm = store.predict_batch(&queries);
    for r in &warm {
        assert!(
            r.as_ref().unwrap().from_patterns(),
            "fixture must not hit the fallback"
        );
    }

    let n = queries.len() as u64;
    // Documented floor: ≤ 2 allocations per query (the returned
    // Prediction's answer vector) + 64 constant overhead per batch
    // (result/chunk vectors, one warmed scratch per chunk).
    let floor = 2 * n + 64;
    let grew = (0..8)
        .map(|_| {
            let before = ALLOC.allocations();
            std::hint::black_box(store.predict_batch(&queries));
            ALLOC.allocations() - before
        })
        .min()
        .unwrap();
    assert!(
        grew <= floor,
        "warm predict_batch of {n} queries made {grew} heap allocations \
         (floor: {floor})"
    );
}
