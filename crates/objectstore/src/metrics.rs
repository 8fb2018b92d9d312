//! Metric names this crate emits, and their registration.
//!
//! Names follow the workspace `crate.module.op` convention; the full
//! catalogue lives in `docs/OBSERVABILITY.md`.

use std::sync::Mutex;
use std::sync::OnceLock;

/// Latency span around one location-report ingest (retrain included
/// when a threshold was crossed).
pub const REPORT_SPAN: &str = "objectstore.report";
/// Latency span around one per-object predictive query.
pub const PREDICT_SPAN: &str = "objectstore.predict";
/// Latency span around one per-object predictor retrain (incremental
/// or full).
pub const RETRAIN_SPAN: &str = "objectstore.retrain";
/// Latency span around the decomposition phase of an incremental
/// retrain (§III delta cursor). The seed path — first train, forced,
/// drift fallback — decomposes inside the discover span instead.
pub const RETRAIN_DECOMPOSE_SPAN: &str = "objectstore.retrain.decompose";
/// Latency span around the region-discovery phase of a retrain:
/// incremental DBSCAN insertions, or on the seed path the whole
/// trainer seed (decomposition, batch DBSCAN, support-count rebuild).
pub const RETRAIN_DISCOVER_SPAN: &str = "objectstore.retrain.discover";
/// Latency span around the pattern-mining phase of a retrain
/// (support-count deltas + rule derivation; derivation alone after a
/// seed).
pub const RETRAIN_MINE_SPAN: &str = "objectstore.retrain.mine";
/// Latency span around the TPT phase of a retrain (a confidence
/// patch, or a bulk load + one repack — always the latter on the seed
/// path).
pub const RETRAIN_TPT_SPAN: &str = "objectstore.retrain.tpt";
/// Latency span around one batch predictive call (`predict_batch`),
/// pool fan-out included.
pub const PREDICT_BATCH_SPAN: &str = "objectstore.predict_batch";
/// Latency span around one multi-object `report_many` ingest.
pub const REPORT_MANY_SPAN: &str = "objectstore.report_many";

/// Location reports accepted (single and batched samples alike).
pub const REPORTS: &str = "objectstore.reports";
/// Per-object predictive queries answered (range/nearest queries count
/// once per object examined).
pub const PREDICTS: &str = "objectstore.predicts";
/// Probabilistic range queries answered (`predict_within`).
pub const PREDICT_WITHIN: &str = "objectstore.predict_within";
/// Probabilistic kNN queries answered (`predict_nearest_prob`).
pub const PREDICT_NEAREST_PROB: &str = "objectstore.predict_nearest_prob";
/// Predictor retrains performed (incremental and full alike).
pub const RETRAINS: &str = "objectstore.retrains";
/// Retrains absorbed incrementally (delta pipeline, no full rebuild).
pub const RETRAINS_INCREMENTAL: &str = "objectstore.retrains.incremental";
/// Retrains that re-seeded the trainer from the complete history
/// (first train, forced, or drift fallback).
pub const RETRAINS_FULL: &str = "objectstore.retrains.full";
/// Incremental retrains that aborted on structure drift and fell back
/// to a re-seed (a subset of `objectstore.retrains.full`).
pub const RETRAIN_DRIFT_FALLBACKS: &str = "objectstore.retrains.drift_fallback";
/// Sub-trajectories accumulated beyond the trained watermark at
/// retrain entry (gauge, last retrain wins) — how stale the predictor
/// was when retraining kicked in. (`store.`-prefixed: the one
/// deployment-facing SLO name, kept stable across internal crate
/// moves.)
pub const RETRAIN_STALENESS: &str = "store.retrain.staleness";
/// Currently tracked objects (gauge).
pub const OBJECTS: &str = "objectstore.objects";
/// Approximate resident bytes of all object state — compressed
/// histories, predictors, trainer state, and the predictive index —
/// capacity-based, refreshed by `MovingObjectStore::memory_use`
/// (gauge). (`store.`-prefixed: deployment-facing SLO name.)
pub const MEM_BYTES: &str = "store.mem.bytes";
/// `store.mem.bytes / objects` at the last `memory_use` call (gauge;
/// 0 while no objects are tracked).
pub const MEM_BYTES_PER_OBJECT: &str = "store.mem.bytes_per_object";
/// The history share of `store.mem.bytes`: packed chunk words plus hot
/// tails at capacity (gauge, refreshed with it).
pub const MEM_HISTORY_BYTES: &str = "store.mem.history_bytes";
/// The trained-predictor share of `store.mem.bytes`: regions, pattern
/// table, key table, packed TPT image, weight table (gauge).
pub const MEM_PREDICTOR_BYTES: &str = "store.mem.predictor_bytes";
/// The incremental-trainer share of `store.mem.bytes`: per-offset
/// clustering state, visit transactions, support counts (gauge).
pub const MEM_TRAINER_BYTES: &str = "store.mem.trainer_bytes";
/// The predictive-index share of `store.mem.bytes`, all shards (gauge).
pub const MEM_INDEX_BYTES: &str = "store.mem.index_bytes";

/// Latency span around one predictive-index envelope refit (motion
/// fit + horizon rollout for one dirty object, at query-time flush).
pub const INDEX_UPDATE_SPAN: &str = "objectstore.index.update";
/// Latency span around the candidate-selection phase of one indexed
/// fleet-wide query (bucket pruning / ring construction; the
/// surviving candidates' predictions are *not* included).
pub const INDEX_PRUNE_SPAN: &str = "objectstore.index.prune";
/// Envelope buckets pruned whole per indexed fleet-wide query (for
/// kNN: ring buckets never visited because the sweep terminated).
pub const INDEX_PARTITIONS_PRUNED: &str = "objectstore.index.partitions_pruned";
/// Candidate objects actually predicted per indexed fleet-wide query
/// — the survivors; `candidates / objects` is the pruning ratio.
pub const INDEX_CANDIDATES: &str = "objectstore.index.candidates";
/// Objects currently holding a predictive-index entry (gauge, set at
/// flush; lags `objectstore.objects` by the dirty set).
pub const INDEX_SIZE: &str = "objectstore.index.entries";

/// Queue depth observed by pool workers at each job pop — deep means
/// batches arrive faster than workers drain them, shallow means the
/// pool is wider than the work.
pub const POOL_QUEUE_DEPTH: &str = "objectstore.pool.queue_depth";

/// Latency span around `MovingObjectStore::open` (snapshot load + WAL
/// replay + rotation).
pub const OPEN_SPAN: &str = "objectstore.open";
/// Latency span around one snapshot (WAL rotation, serialization,
/// atomic file write, GC).
pub const SNAPSHOT_SPAN: &str = "objectstore.snapshot";
/// Snapshots taken (manual and cadence-driven alike).
pub const SNAPSHOTS: &str = "objectstore.snapshots";
/// Objects serialized by the last snapshot (gauge).
pub const SNAPSHOT_OBJECTS: &str = "objectstore.snapshot.objects";
/// Cadence-driven snapshots that failed with an I/O error (the data
/// stays safe in the unrotated WAL; the snapshot retries next time).
pub const SNAPSHOT_ERRORS: &str = "objectstore.snapshot.errors";
/// WAL records replayed by the last `open` (gauge).
pub const RECOVERY_REPLAYED: &str = "objectstore.recovery.replayed";
/// `remove` operations whose WAL record could not be written (the
/// in-memory removal still happened; a crash before the next snapshot
/// resurrects the object).
pub const WAL_REMOVE_ERRORS: &str = "objectstore.wal.remove_errors";

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

/// Registers every metric above so snapshots cover them even before
/// the first report (zero-valued metrics are still listed).
/// Per-shard gauges register themselves lazily on first touch.
pub fn register() {
    hpm_obs::registry().counter(REPORTS);
    hpm_obs::registry().counter(PREDICTS);
    hpm_obs::registry().counter(PREDICT_WITHIN);
    hpm_obs::registry().counter(PREDICT_NEAREST_PROB);
    hpm_obs::registry().counter(RETRAINS);
    hpm_obs::registry().counter(RETRAINS_INCREMENTAL);
    hpm_obs::registry().counter(RETRAINS_FULL);
    hpm_obs::registry().counter(RETRAIN_DRIFT_FALLBACKS);
    hpm_obs::registry().counter(SNAPSHOTS);
    hpm_obs::registry().counter(SNAPSHOT_ERRORS);
    hpm_obs::registry().counter(WAL_REMOVE_ERRORS);
    hpm_obs::registry().gauge(RETRAIN_STALENESS);
    hpm_obs::registry().gauge(OBJECTS);
    hpm_obs::registry().gauge(MEM_BYTES);
    hpm_obs::registry().gauge(MEM_BYTES_PER_OBJECT);
    hpm_obs::registry().gauge(MEM_HISTORY_BYTES);
    hpm_obs::registry().gauge(MEM_PREDICTOR_BYTES);
    hpm_obs::registry().gauge(MEM_TRAINER_BYTES);
    hpm_obs::registry().gauge(MEM_INDEX_BYTES);
    hpm_obs::registry().gauge(SNAPSHOT_OBJECTS);
    hpm_obs::registry().gauge(RECOVERY_REPLAYED);
    hpm_obs::registry().gauge(INDEX_SIZE);
    hpm_obs::registry().histogram(POOL_QUEUE_DEPTH, hpm_obs::Unit::Count);
    hpm_obs::registry().histogram(INDEX_PARTITIONS_PRUNED, hpm_obs::Unit::Count);
    hpm_obs::registry().histogram(INDEX_CANDIDATES, hpm_obs::Unit::Count);
    for span in [
        REPORT_SPAN,
        PREDICT_SPAN,
        RETRAIN_SPAN,
        RETRAIN_DECOMPOSE_SPAN,
        RETRAIN_DISCOVER_SPAN,
        RETRAIN_MINE_SPAN,
        RETRAIN_TPT_SPAN,
        PREDICT_BATCH_SPAN,
        REPORT_MANY_SPAN,
        OPEN_SPAN,
        SNAPSHOT_SPAN,
        INDEX_UPDATE_SPAN,
        INDEX_PRUNE_SPAN,
    ] {
        hpm_obs::registry().histogram(span, hpm_obs::Unit::Nanos);
    }
}
