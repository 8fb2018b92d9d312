//! Properties: the parallel batch query engine is a pure scheduling
//! change — `predict_batch` over any pool width returns bit-identical
//! results, in input order, to calling `predict` sequentially — and the
//! three ingest entry points are one path: a report stream yields the
//! same per-report outcomes and the same store whichever of `report`,
//! `report_batch` or `report_many` carries it.

use hpm_check::prelude::*;
use hpm_core::HpmConfig;
use hpm_geo::Point;
use hpm_objectstore::{IngestError, MovingObjectStore, ObjectId, StoreConfig, WorkerPool};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_rand::{Rng, SmallRng};
use hpm_trajectory::Timestamp;

const PERIOD: u32 = 4;

fn config() -> StoreConfig {
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
            distant_threshold: 3,
            time_relaxation: 1,
            match_margin: 5.0,
            rmf_retrospect: 2,
            ..HpmConfig::default()
        },
        min_train_subs: 5,
        retrain_every_subs: 5,
        recent_len: 2,
        shards: 4,
        threads: 2,
        index: hpm_objectstore::IndexConfig::default(),
    }
}

/// A store populated from the seed: a handful of commuter objects with
/// per-object route jitter and varying history lengths, some trained,
/// some not, plus ids that are never reported (so batches exercise the
/// error paths too).
fn build_store(seed: u64, n_objects: u64) -> MovingObjectStore {
    let store = MovingObjectStore::new(config());
    let mut rng = SmallRng::seed_from_u64(seed);
    for id in 0..n_objects {
        let days = rng.gen_range(2..8usize); // some below min_train_subs
        let jitter = rng.gen_f64();
        for d in 0..days {
            let j = (d % 3) as f64 * 0.2 + jitter;
            let pts = [
                Point::new(j, 0.0),
                Point::new(50.0 + j, 0.0),
                Point::new(100.0 + j, 0.0),
                Point::new(100.0 + j, 50.0),
            ];
            store
                .report_batch(ObjectId(id), (d * PERIOD as usize) as Timestamp, &pts)
                .unwrap();
        }
    }
    store
}

/// One step of a generated report stream: handed whole to
/// `report_batch`, item by item to `report`, and flattened into mixed
/// multi-object frames for `report_many`.
struct Batch {
    id: ObjectId,
    start: Timestamp,
    points: Vec<Point>,
}

/// A report stream over three objects with every kind of defect the
/// ingest path judges: lone non-finite reports (for an object that has
/// not reported yet, the first-report-invalid case — it must not create
/// the object), batches that skip ahead of the expected timestamp, and
/// batches that replay the past. Defective batches are built so *every*
/// item in them is off-sequence, which is what lets a `report_batch`
/// verdict be spread over its items. Positions follow the commuter day,
/// so objects fed long enough train mid-stream.
fn report_stream(seed: u64, steps: usize) -> Vec<Batch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut expected: std::collections::BTreeMap<u64, Timestamp> = Default::default();
    (0..steps)
        .map(|_| {
            let raw = rng.gen_range(0..3u64);
            let len = rng.gen_range(1..7u64);
            let next = expected.get(&raw).copied();
            let (start, len, finite) = match (rng.gen_range(0..10u32), next) {
                (0..=1, _) => (next.unwrap_or(7), 1, false),
                (2, Some(t)) => (t + 1 + rng.gen_range(0..5u64), len, true),
                (3, Some(t)) if t > len => (t - len - 1, len, true),
                _ => {
                    // In sequence — as any start is for a first report.
                    let start = next.unwrap_or_else(|| rng.gen_range(0..9u64));
                    expected.insert(raw, start + len);
                    (start, len, true)
                }
            };
            let points = (start..start + len)
                .map(|t| {
                    let j = raw as f64 * 0.1 + (t / PERIOD as u64 % 3) as f64 * 0.2;
                    let day = [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0), (100.0, 50.0)];
                    let (x, y) = day[(t % PERIOD as u64) as usize];
                    Point::new(if finite { x + j } else { f64::NAN }, y)
                })
                .collect();
            Batch {
                id: ObjectId(raw),
                start,
                points,
            }
        })
        .collect()
}

props! {
    /// Satellite acceptance property: `predict_batch` with pools of 1
    /// and 4 threads is bit-identical to sequential `predict`, in
    /// input order, on generated workloads (replayable seeds via
    /// hpm-check's regression files).
    fn predict_batch_equivalent_to_sequential(
        seed in int(0u64..1_000_000),
        n_objects in int(2u64..7),
        n_queries in int(1usize..60),
    ) {
        let store = build_store(seed, n_objects);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1CE);
        let queries: Vec<(ObjectId, Timestamp)> = (0..n_queries)
            .map(|_| {
                // Over-range ids hit UnknownObject; small times hit
                // NotInFuture; the rest answer.
                let id = ObjectId(rng.gen_range(0..n_objects + 2));
                let t = rng.gen_range(1..40u64);
                (id, t)
            })
            .collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|&(id, t)| store.predict(id, t))
            .collect();
        for threads in [1usize, 4] {
            let batch = store.predict_batch_with(&queries, &WorkerPool::new(threads));
            require_eq!(batch.len(), sequential.len());
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                require!(
                    b == s,
                    "threads={threads} query {i}: batch {b:?} != sequential {s:?}"
                );
            }
        }
    }

    /// The store's own pool (config-sized) agrees as well.
    fn predict_batch_default_pool_equivalent(
        seed in int(0u64..1_000_000),
        n_queries in int(0usize..30),
    ) {
        let store = build_store(seed, 4);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB00);
        let queries: Vec<(ObjectId, Timestamp)> = (0..n_queries)
            .map(|_| (ObjectId(rng.gen_range(0..6u64)), rng.gen_range(1..40u64)))
            .collect();
        let sequential: Vec<_> = queries
            .iter()
            .map(|&(id, t)| store.predict(id, t))
            .collect();
        require!(store.predict_batch(&queries) == sequential);
    }
    /// One ingest path: the same stream through `report`,
    /// `report_batch` and `report_many` (random frame sizes, so an
    /// object's reports split across calls and share calls with other
    /// objects') produces identical per-report outcomes, and stores
    /// that agree on every object's stats and predictions. Retrains
    /// fire mid-stream on all three, at call granularity; a final
    /// `force_retrain` puts the stores on the same training watermark
    /// before answers are compared.
    fn ingest_entry_points_agree(
        seed in int(0u64..1_000_000),
        steps in int(1usize..90),
    ) {
        let stream = report_stream(seed, steps);
        let stores: Vec<MovingObjectStore> =
            (0..3).map(|_| MovingObjectStore::new(config())).collect();

        let mut by_report = Vec::new();
        let mut by_batch = Vec::new();
        let mut flat = Vec::new();
        for b in &stream {
            let verdict = stores[1].report_batch(b.id, b.start, &b.points);
            for (i, p) in b.points.iter().enumerate() {
                let t = b.start + i as Timestamp;
                by_report.push(stores[0].report(b.id, t, *p));
                // Every item of a defective batch is off-sequence
                // against the same expected timestamp.
                by_batch.push(match verdict {
                    Err(IngestError::NonContiguous { expected, got }) => {
                        Err(IngestError::NonContiguous { expected, got: got + i as Timestamp })
                    }
                    other => other,
                });
                flat.push((b.id, t, *p));
            }
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF4A3);
        let mut by_many = Vec::new();
        let mut rest = flat.as_slice();
        while !rest.is_empty() {
            let (frame, tail) = rest.split_at(rng.gen_range(1..41usize).min(rest.len()));
            by_many.extend(stores[2].report_many(frame));
            rest = tail;
        }
        require!(by_batch == by_report, "report_batch {by_batch:?} != report {by_report:?}");
        require!(by_many == by_report, "report_many {by_many:?} != report {by_report:?}");

        // Ids 0..3 may exist; 3 never reports.
        for raw in 0..4u64 {
            let id = ObjectId(raw);
            let view = |store: &MovingObjectStore| {
                let forced = store.force_retrain(id);
                let stats = store.stats(id).map(|s| (s.samples, s.trained_periods, s.patterns, s.regions));
                let answers: Vec<_> = (1..160u64).step_by(9).map(|t| store.predict(id, t)).collect();
                (forced, stats, answers)
            };
            let reference = view(&stores[0]);
            require!(view(&stores[1]) == reference, "report_batch store differs on {id}");
            require!(view(&stores[2]) == reference, "report_many store differs on {id}");
        }
        require_eq!(stores[1].object_count(), stores[0].object_count());
        require_eq!(stores[2].object_count(), stores[0].object_count());
    }
}
