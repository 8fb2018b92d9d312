//! Metric names this crate emits, and their registration.
//!
//! Names follow the workspace `crate.module.op` convention; the full
//! catalogue lives in `docs/OBSERVABILITY.md`.

use std::sync::Mutex;
use std::sync::OnceLock;

hpm_obs::catalog! {
    #![extends(
        hpm_core::metrics::register,
        hpm_patterns::metrics::register,
        hpm_store::metrics::register
    )]

    /// Latency span around one location-report ingest (retrain included
    /// when a threshold was crossed).
    span REPORT_SPAN = "objectstore.report";
    /// Latency span around one per-object predictive query.
    span PREDICT_SPAN = "objectstore.predict";
    /// Latency span around one per-object predictor retrain (incremental
    /// or full).
    span RETRAIN_SPAN = "objectstore.retrain";
    // The phase spans of a retrain — `objectstore.retrain.discover`,
    // `.mine` and `.tpt` — are declared by `hpm_core::metrics`, where
    // the training verb records them.
    /// Latency span around one batch predictive call (`predict_batch`),
    /// pool fan-out included.
    span PREDICT_BATCH_SPAN = "objectstore.predict_batch";
    /// Latency span around one multi-object `report_many` ingest.
    span REPORT_MANY_SPAN = "objectstore.report_many";

    /// Location reports accepted (single and batched samples alike).
    counter REPORTS = "objectstore.reports";
    /// Per-object predictive queries answered (range/nearest queries count
    /// once per object examined).
    counter PREDICTS = "objectstore.predicts";
    /// Probabilistic range queries answered (`predict_within`).
    counter PREDICT_WITHIN = "objectstore.predict_within";
    /// Probabilistic kNN queries answered (`predict_nearest_prob`).
    counter PREDICT_NEAREST_PROB = "objectstore.predict_nearest_prob";
    /// Predictor retrains performed (incremental and full alike).
    counter RETRAINS = "objectstore.retrains";
    /// Retrains absorbed incrementally (delta pipeline, no full rebuild).
    counter RETRAINS_INCREMENTAL = "objectstore.retrains.incremental";
    /// Retrains that re-seeded the trainer from the complete history
    /// (first train, forced, or drift fallback).
    counter RETRAINS_FULL = "objectstore.retrains.full";
    /// Incremental retrains that aborted on structure drift and fell back
    /// to a re-seed (a subset of `objectstore.retrains.full`).
    counter RETRAIN_DRIFT_FALLBACKS = "objectstore.retrains.drift_fallback";
    /// Sub-trajectories accumulated beyond the trained watermark at
    /// retrain entry (gauge, last retrain wins) — how stale the predictor
    /// was when retraining kicked in. (`store.`-prefixed: the one
    /// deployment-facing SLO name, kept stable across internal crate
    /// moves.)
    gauge RETRAIN_STALENESS = "store.retrain.staleness";
    /// Currently tracked objects (gauge).
    gauge OBJECTS = "objectstore.objects";
    /// Approximate resident bytes of all object state — compressed
    /// histories, predictors, trainer state, and the predictive index —
    /// capacity-based, refreshed by `MovingObjectStore::memory_use`
    /// (gauge). (`store.`-prefixed: deployment-facing SLO name.)
    gauge MEM_BYTES = "store.mem.bytes";
    /// `store.mem.bytes / objects` at the last `memory_use` call (gauge;
    /// 0 while no objects are tracked).
    gauge MEM_BYTES_PER_OBJECT = "store.mem.bytes_per_object";
    /// The history share of `store.mem.bytes`: packed chunk words plus hot
    /// tails at capacity (gauge, refreshed with it).
    gauge MEM_HISTORY_BYTES = "store.mem.history_bytes";
    /// The trained-predictor share of `store.mem.bytes`: regions, pattern
    /// table, key table, packed TPT image, weight table (gauge).
    gauge MEM_PREDICTOR_BYTES = "store.mem.predictor_bytes";
    /// The incremental-trainer share of `store.mem.bytes`: per-offset
    /// clustering state, the open visit sequence, support counts (gauge).
    gauge MEM_TRAINER_BYTES = "store.mem.trainer_bytes";
    /// The predictive-index share of `store.mem.bytes`, all shards (gauge).
    gauge MEM_INDEX_BYTES = "store.mem.index_bytes";

    /// Latency span around one predictive-index envelope refit (motion
    /// fit + horizon rollout for one dirty object, at query-time flush).
    span INDEX_UPDATE_SPAN = "objectstore.index.update";
    /// Latency span around the candidate-selection phase of one indexed
    /// fleet-wide query (cell probing and envelope tests; the
    /// surviving candidates' predictions are *not* included, nor is a
    /// kNN's ring sweep, which runs between its predictions).
    span INDEX_PRUNE_SPAN = "objectstore.index.prune";
    /// Index cells pruned per indexed fleet-wide query: for a range,
    /// cells none of whose objects is a candidate; for kNN, cells the
    /// ring sweep never reached.
    histogram[Count] INDEX_PARTITIONS_PRUNED = "objectstore.index.partitions_pruned";
    /// Index cells one kNN query probed by key or enumerated in its
    /// ring sweep.
    histogram[Count] INDEX_CELLS_PROBED_KNN = "objectstore.index.buckets_per_query.knn";
    /// Candidate objects actually predicted per indexed fleet-wide query
    /// — the survivors; `candidates / objects` is the pruning ratio.
    histogram[Count] INDEX_CANDIDATES = "objectstore.index.candidates";
    /// Objects currently holding a predictive-index entry (gauge, set at
    /// flush; lags `objectstore.objects` by the dirty set).
    gauge INDEX_SIZE = "objectstore.index.entries";

    /// Jobs still unclaimed at each pool worker's job claim — deep means
    /// batches arrive faster than workers drain them, shallow means the
    /// pool is wider than the work.
    histogram[Count] POOL_QUEUE_DEPTH = "objectstore.pool.queue_depth";

    /// Latency span around `MovingObjectStore::open` (snapshot load + WAL
    /// replay + rotation).
    span OPEN_SPAN = "objectstore.open";
    /// Latency span around one snapshot (WAL rotation, serialization,
    /// atomic file write, GC).
    span SNAPSHOT_SPAN = "objectstore.snapshot";
    /// Snapshots taken (manual and cadence-driven alike).
    counter SNAPSHOTS = "objectstore.snapshots";
    /// Objects serialized by the last snapshot (gauge).
    gauge SNAPSHOT_OBJECTS = "objectstore.snapshot.objects";
    /// Cadence-driven snapshots that failed with an I/O error (the data
    /// stays safe in the unrotated WAL; the snapshot retries next time).
    counter SNAPSHOT_ERRORS = "objectstore.snapshot.errors";
    /// WAL records replayed by the last `open` (gauge).
    gauge RECOVERY_REPLAYED = "objectstore.recovery.replayed";
    /// Retrains run by `open`: one per object whose replayed WAL tail
    /// crossed a retrain cadence, however many it crossed.
    counter OPEN_RETRAINS = "objectstore.open.retrains";
    /// `remove` operations whose WAL record could not be written (the
    /// in-memory removal still happened; a crash before the next snapshot
    /// resurrects the object).
    counter WAL_REMOVE_ERRORS = "objectstore.wal.remove_errors";
}

/// Per-shard occupancy gauge (`objectstore.shard.objects.<i>`).
///
/// Metric names are `&'static str` throughout the obs layer, so shard
/// names are leaked once into a process-wide cache — the set of shard
/// indices a process ever sees is small and fixed by `StoreConfig`.
pub fn shard_objects_gauge(shard: usize) -> &'static hpm_obs::Gauge {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let names = NAMES.get_or_init(|| Mutex::new(Vec::new()));
    let mut names = names.lock().unwrap_or_else(|e| e.into_inner());
    while names.len() <= shard {
        let name: &'static str =
            Box::leak(format!("objectstore.shard.objects.{}", names.len()).into_boxed_str());
        names.push(name);
    }
    hpm_obs::registry().gauge(names[shard])
}
