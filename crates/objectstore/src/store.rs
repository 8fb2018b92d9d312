//! The store implementation.

use crate::durability::{
    self, snap_path, wal_path, DurabilityConfig, DurabilityState, RecoverError,
};
use crate::index::{Envelope, IndexConfig, PredictiveIndex};
use crate::pool::WorkerPool;
use hpm_core::{
    HpmConfig, HybridPredictor, PredictScratch, Prediction, PredictiveQuery, TrainPass,
    TrainerState, Uncertainty,
};
use hpm_geo::mem::heap_bytes;
use hpm_geo::{MemUse, Point};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_store::wal::{scan_wal_runs, WalRecord, WalWriter};
use hpm_store::{
    decode_model, decode_snapshot, encode_model, encode_snapshot, DecodeError, HistorySnapshot,
    ObjectSnapshot,
};
use hpm_trajectory::{
    ChunkParams, ChunkedHistory, History, Prefix, Timestamp, DEFAULT_MIN_TAIL, DEFAULT_SEAL_LEN,
};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Identifier of a tracked object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "object#{}", self.0)
    }
}

/// Store-wide configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Discovery parameters (`period`, `Eps`, `MinPts`) shared by all
    /// objects.
    pub discovery: DiscoveryParams,
    /// Mining parameters shared by all objects.
    pub mining: MiningParams,
    /// Query-processing configuration shared by all objects.
    pub hpm: HpmConfig,
    /// Full periods of history required before the first training.
    pub min_train_subs: usize,
    /// Retrain after this many further full periods accumulate.
    pub retrain_every_subs: usize,
    /// Recent samples handed to each query (premise matching + motion
    /// fallback fitting).
    pub recent_len: usize,
    /// Shards the object map is split across (`id % shards`); each
    /// shard has its own lock, so the hot path never takes a global
    /// one. Must be at least 1.
    pub shards: usize,
    /// Worker threads for the batch APIs; `0` = auto (available
    /// parallelism).
    pub threads: usize,
    /// Predictive-index tuning (horizon and cell size; the
    /// defaults auto-derive both from the discovery parameters).
    pub index: IndexConfig,
}

impl StoreConfig {
    fn validate(&self) {
        self.index.validate();
        assert!(self.min_train_subs >= 1, "min_train_subs must be >= 1");
        assert!(
            self.retrain_every_subs >= 1,
            "retrain_every_subs must be >= 1"
        );
        assert!(self.recent_len >= 1, "recent_len must be >= 1");
        assert!(self.shards >= 1, "shards must be >= 1");
        self.hpm.validate();
    }
}

/// Why a location report was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The report's timestamp is not the object's next expected one
    /// (the §III model is one sample per timestamp, gap-free).
    NonContiguous {
        /// The timestamp the store expected.
        expected: Timestamp,
        /// The timestamp reported.
        got: Timestamp,
    },
    /// The position contained NaN/∞.
    NonFinitePosition,
    /// The report is at `Timestamp::MAX`, which no history can hold:
    /// the history's end, one past its last timestamp, would overflow.
    TimestampOutOfRange,
    /// The object's state lock was poisoned by a panic in an earlier
    /// operation; its history can no longer be trusted. Remove and
    /// re-track the object to recover.
    ObjectUnavailable(ObjectId),
    /// The write-ahead log rejected the record (disk full, I/O error).
    /// The report was **not** applied — durable stores never hold
    /// state the log does not.
    Durability(std::io::ErrorKind),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::NonContiguous { expected, got } => {
                write!(
                    f,
                    "non-contiguous report: expected t={expected}, got t={got}"
                )
            }
            IngestError::NonFinitePosition => write!(f, "non-finite position"),
            IngestError::TimestampOutOfRange => {
                write!(
                    f,
                    "timestamp {} leaves no room for the history's end",
                    Timestamp::MAX
                )
            }
            IngestError::ObjectUnavailable(id) => {
                write!(
                    f,
                    "{id} is unavailable (state poisoned by an earlier panic)"
                )
            }
            IngestError::Durability(kind) => {
                write!(f, "write-ahead log append failed: {kind}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Why a predictive query could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The object has never reported.
    UnknownObject(ObjectId),
    /// The object has no samples yet.
    NoHistory(ObjectId),
    /// `query_time` is not after the object's last report.
    NotInFuture {
        /// The object's current time (last report).
        current: Timestamp,
        /// The requested query time.
        requested: Timestamp,
    },
    /// The object's state lock was poisoned by a panic in an earlier
    /// operation. Remove and re-track the object to recover.
    ObjectUnavailable(ObjectId),
    /// A forced retrain was refused: the object has no model to rebuild
    /// (fewer full periods than `StoreConfig::min_train_subs`, or a
    /// snapshot restored it untrained).
    InsufficientHistory {
        /// Full periods of history the object has.
        full_periods: usize,
        /// The configured training floor.
        min_train_subs: usize,
    },
    /// `query_time` is more than `u32::MAX` steps after the object's
    /// last report: past the longest prediction length.
    HorizonOutOfRange {
        /// The object's current time (last report).
        current: Timestamp,
        /// The requested query time.
        requested: Timestamp,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownObject(id) => write!(f, "{id} is not tracked"),
            QueryError::NoHistory(id) => write!(f, "{id} has no reported history"),
            QueryError::NotInFuture { current, requested } => write!(
                f,
                "query time {requested} is not after the current time {current}"
            ),
            QueryError::ObjectUnavailable(id) => {
                write!(
                    f,
                    "{id} is unavailable (state poisoned by an earlier panic)"
                )
            }
            QueryError::InsufficientHistory {
                full_periods,
                min_train_subs,
            } => write!(
                f,
                "only {full_periods} full periods of history \
                 (min_train_subs = {min_train_subs})"
            ),
            QueryError::HorizonOutOfRange { current, requested } => write!(
                f,
                "query time {requested} is more than {} steps after the current time {current}",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Per-object health snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectStats {
    /// Samples reported so far.
    pub samples: usize,
    /// Full periods of history.
    pub full_periods: usize,
    /// Periods of history the current predictor was trained on
    /// (0 = untrained).
    pub trained_periods: usize,
    /// Trajectory patterns in the current predictor.
    pub patterns: usize,
    /// Frequent regions in the current predictor.
    pub regions: usize,
    /// Approximate resident bytes of this object's state (compressed
    /// history + predictor + trainer), capacity-based. Depends on
    /// allocator growth history, so equal histories may differ — treat
    /// as an observability figure, not part of the object's logical
    /// state.
    pub approx_bytes: usize,
}

/// Fleet-wide memory accounting, from
/// [`MovingObjectStore::memory_use`]. Every figure is approximate
/// resident bytes computed from container *capacities* (what the
/// allocator was asked for), not lengths; `Arc`/lock cell overhead per
/// object is not charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMemory {
    /// Objects walked (excludes poisoned/removed cells).
    pub objects: usize,
    /// Deep bytes across all object state plus the predictive index.
    pub total_bytes: usize,
    /// Bytes held by position histories: sealed and open chunk words
    /// plus the raw windows, at capacity.
    pub history_bytes: usize,
    /// What the same histories would occupy as raw point vectors
    /// (16 bytes per sample) — divide by `history_bytes` for the fleet
    /// compression ratio.
    pub history_raw_bytes: usize,
    /// Bytes held by trained predictors: regions, the pattern table,
    /// the key table, the packed TPT image and the weight table.
    pub predictor_bytes: usize,
    /// Bytes held by incremental-trainer state.
    pub trainer_bytes: usize,
    /// Bytes held by the predictive index (all shards).
    pub index_bytes: usize,
}

impl StoreMemory {
    /// `total_bytes / objects`, 0 when no objects are tracked.
    pub fn bytes_per_object(&self) -> usize {
        self.total_bytes.checked_div(self.objects).unwrap_or(0)
    }

    /// Raw-over-compressed history ratio (1.0 when nothing is stored).
    pub fn history_compression_ratio(&self) -> f64 {
        if self.history_bytes == 0 {
            1.0
        } else {
            self.history_raw_bytes as f64 / self.history_bytes as f64
        }
    }
}

/// One fleet-query result: the object, its best predicted position, and
/// the score it qualified or ranked with (see [`score`]).
type Hit = (ObjectId, Point, f64);

/// Which objects a fleet query selects.
#[derive(Clone, Copy)]
enum Select<'a> {
    /// Every object that qualifies for the box, ordered by id.
    Box(&'a hpm_geo::BoundingBox),
    /// The `k` objects ranked nearest `focus`, best first.
    Ring { focus: &'a Point, k: usize },
}

/// What a fleet query reads off each candidate's prediction.
#[derive(Clone, Copy)]
enum Refine {
    /// The best predicted point alone.
    Point,
    /// The whole predicted distribution, against a mass threshold.
    Mass { tau: f64 },
}

/// The four membership/rank rules of the fleet operators: whether a
/// prediction qualifies for `select` under `refine`, and with which
/// best point and score.
///
/// | select, refine | qualifies when | score |
/// |---|---|---|
/// | box, point | best point inside the box | unused (0) |
/// | box, mass | some answer region touches the box and the mass inside reaches `tau` | mass inside |
/// | ring, point | always | distance best point → focus |
/// | ring, mass | the claimed mass reaches `tau` (finite radius) | confidence radius around focus |
fn score(prediction: &Prediction, select: Select<'_>, refine: Refine) -> Option<(Point, f64)> {
    let best = prediction.try_best()?;
    let s = match (select, refine) {
        (Select::Box(region), Refine::Point) => region.contains(&best).then_some(0.0)?,
        (Select::Box(region), Refine::Mass { tau }) => {
            if !prediction.possibly_in(region) {
                return None;
            }
            let mass = prediction.probability_in(region);
            (mass >= tau).then_some(mass)?
        }
        (Select::Ring { focus, .. }, Refine::Point) => best.distance(focus),
        (Select::Ring { focus, .. }, Refine::Mass { tau }) => {
            let radius = prediction.confidence_distance(focus, tau);
            radius.is_finite().then_some(radius)?
        }
    };
    Some((best, s))
}

/// The half of the ingest contract a report meets on its own: a finite
/// position, at a timestamp a history can end after.
fn admissible(timestamp: Timestamp, position: &Point) -> Result<(), IngestError> {
    if !position.is_finite() {
        Err(IngestError::NonFinitePosition)
    } else if timestamp == Timestamp::MAX {
        Err(IngestError::TimestampOutOfRange)
    } else {
        Ok(())
    }
}

/// The ingest contract for one report: [`admissible`], at the object's
/// next timestamp, `expected`.
fn admit(timestamp: Timestamp, position: &Point, expected: Timestamp) -> Result<(), IngestError> {
    admissible(timestamp, position)?;
    if timestamp != expected {
        Err(IngestError::NonContiguous {
            expected,
            got: timestamp,
        })
    } else {
        Ok(())
    }
}

/// Reports a replayed run needs to be applied as it is; an object's
/// later, shorter runs are gathered first (see
/// [`MovingObjectStore::replay_segment`]), so replaying a fleet's
/// interleaved reports looks up and locks an object about once per
/// this many of them, not once per report.
const REPLAY_GATHER: usize = 64;

/// How [`MovingObjectStore::apply_run`] feeds a run to its object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// `report_batch`: the run stops at its first refused report.
    Batch,
    /// `report_many`: every report of the run is tried.
    Many,
    /// WAL replay inside `open`: every report is tried, and a cadence
    /// crossing leaves its retrain pending (see
    /// [`MovingObjectStore::maybe_retrain`]).
    Replay,
}

struct ObjectState {
    /// Position history: compressed chunks plus a raw window sized so
    /// every recent-window read is a plain slice borrow.
    history: ChunkedHistory,
    /// The trained model, boxed like the trainer so an untrained
    /// object pays a pointer for it.
    predictor: Option<Box<HybridPredictor>>,
    /// Incremental-training state carried between retrains, boxed so
    /// an object without one pays a pointer. Derived state: `None`
    /// until the first training pass seeds it, after a pass whose next
    /// retrain would not fold (see [`MovingObjectStore::retrain`]), and
    /// after `open` restores the object or `force_retrain` — `retrain`
    /// answers an absent trainer by re-seeding.
    trainer: Option<Box<TrainerState>>,
    trained_subs: usize,
    /// Set by WAL replay inside `open` when a cadence crossing moved
    /// `trained_subs` past the periods `predictor` was trained on; the
    /// open then retrains the object once, to that watermark.
    retrain_pending: bool,
    /// Set (under the state's write lock) when the object is removed
    /// from its shard map. A writer that raced `remove` and still
    /// holds a stale `Arc` sees the flag and re-resolves the object,
    /// so live state and WAL order agree on which side of the remove
    /// its report landed.
    removed: bool,
}

impl MemUse for ObjectState {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + heap_bytes(&self.history)
            + heap_bytes(&self.predictor)
            + heap_bytes(&self.trainer)
    }
}

/// One partition of the object population: its own map under its own
/// lock. Writers to different shards never contend.
struct Shard {
    objects: RwLock<HashMap<u64, Arc<RwLock<ObjectState>>>>,
}

type ObjectMap = HashMap<u64, Arc<RwLock<ObjectState>>>;

impl Shard {
    fn new() -> Self {
        Shard {
            objects: RwLock::new(HashMap::new()),
        }
    }

    /// Reads the shard map. Map mutations are single `HashMap` calls
    /// whose invariants hold across panics, so a poisoned map lock is
    /// recovered rather than propagated — only per-object state locks
    /// surface poisoning as `ObjectUnavailable`.
    fn read_map(&self) -> RwLockReadGuard<'_, ObjectMap> {
        self.objects.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes the shard map (see [`read_map`](Self::read_map) on
    /// poisoning).
    fn write_map(&self) -> RwLockWriteGuard<'_, ObjectMap> {
        self.objects.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The store: the tracked-object population partitioned into
/// `config.shards` shards (`id % shards`), each object with its
/// history and a lazily retrained predictor. Single-object calls touch
/// exactly one shard lock plus the object's own lock; batch calls fan
/// work across an internal [`WorkerPool`].
pub struct MovingObjectStore {
    config: StoreConfig,
    shards: Box<[Shard]>,
    pool: WorkerPool,
    /// Shared pattern-free predictor answering queries for objects
    /// that have not trained yet (motion function only) — built once
    /// instead of per untrained query.
    empty_predictor: HybridPredictor,
    /// WAL + snapshot state; `None` for a memory-only store.
    durability: Option<DurabilityState>,
    /// The cross-object predictive index behind `predict_range` /
    /// `predict_nearest` (see [`crate::index`]): per-shard envelope
    /// slots in velocity-partitioned cells, kept fresh lazily through a
    /// dirty set every mutation feeds.
    index: PredictiveIndex,
}

impl MovingObjectStore {
    /// Creates an empty, memory-only store (no durability; a restart
    /// loses everything — see [`open`](Self::open)).
    ///
    /// # Panics
    /// Panics when `config` is inconsistent.
    pub fn new(config: StoreConfig) -> Self {
        config.validate();
        let shards: Box<[Shard]> = (0..config.shards).map(|_| Shard::new()).collect();
        let pool = WorkerPool::sized(config.threads);
        let empty_predictor = HybridPredictor::from_parts(
            hpm_patterns::RegionSet::new(Vec::new(), config.discovery.period),
            Vec::new(),
            config.hpm,
        );
        let (horizon, cell) = config
            .index
            .resolve(config.discovery.period, config.discovery.eps);
        let index = PredictiveIndex::new(config.shards, horizon, cell);
        MovingObjectStore {
            config,
            shards,
            pool,
            empty_predictor,
            durability: None,
            index,
        }
    }

    /// Opens a durable store on a data directory, recovering whatever
    /// a previous process persisted there: the highest decodable
    /// snapshot is loaded, every WAL segment from that epoch on — of
    /// any shard count — is replayed up to its torn tail, and fresh
    /// WAL segments are started at a new epoch. The recovered store
    /// answers queries bit-identically to one that ingested the
    /// surviving report stream without ever crashing. Replay retrains
    /// no object at its cadence crossings: after the last segment,
    /// each object whose replayed reports crossed one is retrained
    /// once, to its last crossing. A snapshot or segment in another
    /// format version fails the open with
    /// [`RecoverError::UnsupportedVersion`].
    ///
    /// # Panics
    /// Panics when `config` is inconsistent.
    pub fn open(config: StoreConfig, durability: DurabilityConfig) -> Result<Self, RecoverError> {
        let _span = hpm_obs::span!(crate::metrics::OPEN_SPAN);
        let mut store = Self::new(config);
        std::fs::create_dir_all(&durability.dir)?;
        let listing = durability::list_dir(&durability.dir)?;

        // The newest snapshot is the only authoritative one: snapshots
        // are renamed into place atomically, and the GC that follows a
        // successful snapshot deletes the WAL segments an *older*
        // snapshot would need for replay. A decode failure here is
        // bit-rot (or a format version this build does not read), and
        // falling back would silently lose data — refuse to open
        // instead.
        let base_epoch = match listing.snap_epochs.last().copied() {
            Some(epoch) => {
                let path = snap_path(&durability.dir, epoch);
                let bytes = std::fs::read(&path)?;
                let objects = decode_snapshot(&bytes).map_err(|e| match e {
                    DecodeError::UnsupportedVersion(version) => {
                        RecoverError::UnsupportedVersion { path, version }
                    }
                    e => RecoverError::CorruptSnapshot(e),
                })?;
                store
                    .restore_objects(objects)
                    .map_err(RecoverError::CorruptSnapshot)?;
                Some(epoch)
            }
            None => None,
        };

        // Replay WAL segments from the snapshot's epoch on (segments
        // below it are fully contained in the snapshot), epoch by
        // epoch, each scanned to its torn tail. One process with one
        // shard count wrote an epoch's segments, so an object's records
        // of that epoch live in exactly one of them: the segments of an
        // epoch are independent pool tasks.
        let (mut replayed, mut pending) = (0u64, Vec::new());
        for segments in listing.wal_segments.chunk_by(|a, b| a.0 == b.0) {
            let epoch = segments[0].0;
            if base_epoch.is_some_and(|b| epoch < b) {
                continue;
            }
            let path = |i: usize| wal_path(&durability.dir, epoch, segments[i].1);
            for records in store
                .pool
                .run(segments.len(), |i| store.replay_segment(&path(i)))
            {
                let (records, ids) = records?;
                replayed += records;
                pending.extend(ids);
            }
        }
        hpm_obs::gauge!(crate::metrics::RECOVERY_REPLAYED).set(replayed as i64);
        let retrained = store.run_pending_retrains(pending);
        hpm_obs::counter!(crate::metrics::OPEN_RETRAINS).add(retrained as u64);

        // Rotate: never append after a torn tail.
        let epoch = listing.max_epoch().map_or(0, |e| e + 1);
        let opts = durability.wal_options();
        let wals = (0..store.shards.len())
            .map(|shard| {
                WalWriter::create(wal_path(&durability.dir, epoch, shard), opts).map(Mutex::new)
            })
            .collect::<Result<Box<[_]>, _>>()?;
        hpm_store::sync_dir(&durability.dir)?;
        store.durability = Some(DurabilityState {
            config: durability,
            epoch: AtomicU64::new(epoch),
            wals,
            since_snapshot: AtomicU64::new(0),
            snapshot_gate: Mutex::new(()),
        });
        Ok(store)
    }

    /// The configuration in use.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The batch-API worker pool (sized by `StoreConfig::threads`).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Number of tracked objects.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.read_map().len()).sum()
    }

    /// The shard index `id` lives in.
    #[inline]
    fn shard_index(&self, raw: u64) -> usize {
        (raw % self.shards.len() as u64) as usize
    }

    #[inline]
    fn shard_of(&self, raw: u64) -> &Shard {
        &self.shards[self.shard_index(raw)]
    }

    /// The state cell of a tracked object, if any.
    fn lookup(&self, id: ObjectId) -> Option<Arc<RwLock<ObjectState>>> {
        self.shard_of(id.0).read_map().get(&id.0).cloned()
    }

    /// Ingests one location report. The first report of an object sets
    /// its start timestamp; every later report must be for the next
    /// consecutive timestamp. Crossing a retraining threshold rebuilds
    /// the object's predictor synchronously (other objects unaffected).
    pub fn report(
        &self,
        id: ObjectId,
        timestamp: Timestamp,
        position: Point,
    ) -> Result<(), IngestError> {
        self.report_batch(id, timestamp, &[position])
    }

    /// Ingests a contiguous batch starting at `start` — a convenience
    /// over repeated [`report`](Self::report) calls that retrains at
    /// every cadence crossing, exactly as the same reports sent one at
    /// a time would. The object's lock is held across the whole batch,
    /// so a concurrent reader sees either none or all of it. A batch
    /// holding any non-finite position is rejected whole; an empty
    /// batch is a no-op.
    /// On a durable store an I/O failure mid-batch applies (and logs)
    /// only a prefix; memory and WAL still agree exactly.
    pub fn report_batch(
        &self,
        id: ObjectId,
        start: Timestamp,
        positions: &[Point],
    ) -> Result<(), IngestError> {
        let _span = hpm_obs::span!(crate::metrics::REPORT_SPAN);
        if positions.iter().any(|p| !p.is_finite()) {
            return Err(IngestError::NonFinitePosition);
        }
        // Past `Timestamp::MAX` the run stays there: refused, and it
        // stops the batch.
        let run = positions
            .iter()
            .enumerate()
            .map(|(i, p)| (start.saturating_add(i as Timestamp), *p));
        let mut result = Ok(());
        // Stop at the first failure: what follows it cannot be
        // contiguous.
        self.apply_run(id, run, Feed::Batch, |r| result = r);
        self.maybe_auto_snapshot();
        result
    }

    /// Ingests a mixed multi-object batch, fanned across the worker
    /// pool **by shard** (an object lives in exactly one shard, so its
    /// reports are applied by one worker, in input order). Returns one
    /// result per input report, in input order.
    ///
    /// Atomicity: all of an object's reports in one call are applied
    /// under a single hold of its write lock — a concurrent reader
    /// sees the object's pre-call or post-call history, never a
    /// partial prefix. Each object retrains at every cadence crossing,
    /// exactly as the same reports sent one at a time would.
    pub fn report_many(
        &self,
        reports: &[(ObjectId, Timestamp, Point)],
    ) -> Vec<Result<(), IngestError>> {
        let _span = hpm_obs::span!(crate::metrics::REPORT_MANY_SPAN);
        // Partition input indices by shard, preserving input order.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, (id, _, _)) in reports.iter().enumerate() {
            by_shard[self.shard_index(id.0)].push(i);
        }
        let groups: Vec<Vec<usize>> = by_shard.into_iter().filter(|g| !g.is_empty()).collect();
        let per_group: Vec<Vec<(usize, Result<(), IngestError>)>> =
            self.pool.run(groups.len(), |g| {
                // Sub-group the shard's reports by object, preserving
                // first-appearance order and per-object input order.
                let mut order: Vec<u64> = Vec::new();
                let mut per_object: HashMap<u64, Vec<usize>> = HashMap::new();
                for &i in &groups[g] {
                    let raw = reports[i].0 .0;
                    per_object
                        .entry(raw)
                        .or_insert_with(|| {
                            order.push(raw);
                            Vec::new()
                        })
                        .push(i);
                }
                let mut out = Vec::with_capacity(groups[g].len());
                for raw in order {
                    let mut slots = per_object[&raw].iter();
                    let run = slots.clone().map(|&i| (reports[i].1, reports[i].2));
                    self.apply_run(ObjectId(raw), run, Feed::Many, |r| {
                        out.extend(slots.next().map(|&i| (i, r)));
                    });
                }
                out
            });
        let mut results: Vec<Option<Result<(), IngestError>>> =
            (0..reports.len()).map(|_| None).collect();
        for group in per_group {
            for (i, r) in group {
                results[i] = Some(r);
            }
        }
        self.maybe_auto_snapshot();
        results
            .into_iter()
            .map(|r| r.expect("every report dispatched to exactly one shard"))
            .collect()
    }

    /// The one ingest path: applies `run` — one object's reports, in
    /// order — under a single hold of the object's write lock, handing
    /// each report's outcome to `each` in run order (up to the first
    /// failure for [`Feed::Batch`]). The reports the finiteness and
    /// contiguity checks accept always form one contiguous timestamp
    /// run from the history's end: they are logged first, under a
    /// single hold of the shard's WAL lock, so the run lies contiguous
    /// in the log whatever other threads do; then applied, retraining
    /// at every cadence crossing inside the run exactly as the same
    /// reports sent one at a time would — batch size is never
    /// observable in training. Marks the object's envelope stale iff
    /// something was accepted. Returns whether the object's retrain is
    /// pending when the run is done (only [`Feed::Replay`] leaves one).
    fn apply_run(
        &self,
        id: ObjectId,
        run: impl Iterator<Item = (Timestamp, Point)> + Clone,
        feed: Feed,
        mut each: impl FnMut(Result<(), IngestError>),
    ) -> bool {
        let stop_at_error = feed == Feed::Batch;
        let reject_all = if stop_at_error { 1 } else { usize::MAX };
        // Inadmissible reports never create the object: the first
        // admissible one resolves (and, for a new object, starts) its
        // state.
        let Some((start, _)) = run.clone().find(|(t, p)| admissible(*t, p).is_ok()) else {
            run.take(reject_all)
                .for_each(|(t, p)| each(admissible(t, &p)));
            return false;
        };
        loop {
            let state = self.state_of(id, start);
            let Ok(mut state) = state.write() else {
                run.take(reject_all)
                    .for_each(|_| each(Err(IngestError::ObjectUnavailable(id))));
                return false;
            };
            if state.removed {
                // Raced a concurrent `remove` on a stale cell;
                // re-resolve so the run lands after it.
                continue;
            }
            // Log before apply: a report the WAL rejected leaves no
            // trace in memory either.
            let unlogged = self.log_run(id, run.clone(), state.history.end(), stop_at_error);
            let period = self.config.discovery.period as usize;
            let mut accepted = 0;
            for (timestamp, position) in run {
                // The report the log refused, and any the log never saw
                // after it, fail as the refused one did.
                let result = match (admit(timestamp, &position, state.history.end()), unlogged) {
                    (Ok(()), Some((logged, kind))) if accepted == logged => {
                        Err(IngestError::Durability(kind))
                    }
                    (result, _) => result,
                };
                let ok = result.is_ok();
                if ok {
                    state.history.push(position);
                    accepted += 1;
                    // Due-ness only changes when a period fills.
                    if state.history.len() % period == 0 {
                        self.maybe_retrain(&mut state, feed);
                    }
                }
                each(result);
                if !ok && stop_at_error {
                    break;
                }
            }
            hpm_obs::counter!(crate::metrics::REPORTS).add(accepted as u64);
            if accepted > 0 {
                self.index.mark_dirty(self.shard_index(id.0), id.0);
            }
            return state.retrain_pending;
        }
    }

    /// The logging half of [`apply_run`](Self::apply_run): appends the
    /// reports of `run` that [`admit`] accepts against a history ending
    /// at `end` — stopping at the first one it rejects when
    /// `stop_at_error` — to the object's shard WAL under one hold of
    /// its lock. `None` when every accepted report is logged (or the
    /// store is memory-only); `Some((n, kind))` when only the first `n`
    /// are and the next one's append failed with `kind`.
    fn log_run(
        &self,
        id: ObjectId,
        run: impl Iterator<Item = (Timestamp, Point)>,
        end: Timestamp,
        stop_at_error: bool,
    ) -> Option<(usize, std::io::ErrorKind)> {
        let d = self.durability.as_ref()?;
        let mut wal = None;
        let mut expected = end;
        let mut failed = None;
        for (timestamp, p) in run {
            if admit(timestamp, &p, expected).is_err() {
                if stop_at_error {
                    break;
                }
                continue;
            }
            let record = WalRecord::Report {
                object: id.0,
                timestamp,
                x: p.x,
                y: p.y,
            };
            if let Err(e) = wal
                .get_or_insert_with(|| self.wal_of(d, id))
                .append(&record)
            {
                failed = Some(e.kind());
                break;
            }
            expected += 1;
        }
        d.since_snapshot
            .fetch_add(expected - end, Ordering::Relaxed);
        failed.map(|kind| ((expected - end) as usize, kind))
    }

    /// Answers "where will `id` be at `query_time`" from the object's
    /// current predictor (or its motion function while untrained).
    pub fn predict(&self, id: ObjectId, query_time: Timestamp) -> Result<Prediction, QueryError> {
        // Reuses the predictor's thread-local scratch internally.
        self.predict_question(id, query_time, |p, query| p.predict(query))
    }

    /// [`predict`](Self::predict) through caller-owned scratch — the
    /// per-worker reuse path of [`predict_batch`](Self::predict_batch):
    /// one warm [`PredictScratch`] serves a whole chunk of queries
    /// without per-query heap traffic (beyond the returned
    /// `Prediction`'s own answer vector).
    pub fn predict_with_scratch(
        &self,
        id: ObjectId,
        query_time: Timestamp,
        scratch: &mut PredictScratch,
    ) -> Result<Prediction, QueryError> {
        self.predict_question(id, query_time, |p, query| {
            let mut out = Prediction::default();
            p.predict_with(query, scratch, &mut out);
            out
        })
    }

    /// Shared validation/dispatch for the predict variants: resolves
    /// the object, checks the query is askable, and hands the object's
    /// predictor (or the shared pattern-free one while untrained — the
    /// motion-function-only world the paper improves on) to `answer`.
    fn predict_question<F>(
        &self,
        id: ObjectId,
        query_time: Timestamp,
        answer: F,
    ) -> Result<Prediction, QueryError>
    where
        F: FnOnce(&HybridPredictor, &PredictiveQuery<'_>) -> Prediction,
    {
        let _span = hpm_obs::span!(crate::metrics::PREDICT_SPAN);
        hpm_obs::counter!(crate::metrics::PREDICTS).add(1);
        let state = self.lookup(id).ok_or(QueryError::UnknownObject(id))?;
        let state = state
            .read()
            .map_err(|_| QueryError::ObjectUnavailable(id))?;
        if state.history.is_empty() {
            return Err(QueryError::NoHistory(id));
        }
        let current_time = state.history.end() - 1;
        if query_time <= current_time {
            return Err(QueryError::NotInFuture {
                current: current_time,
                requested: query_time,
            });
        }
        if query_time - current_time > u64::from(u32::MAX) {
            return Err(QueryError::HorizonOutOfRange {
                current: current_time,
                requested: query_time,
            });
        }
        // Infallible: `chunk_params` sizes `min_tail >= recent_len`,
        // so the hot window never needs sealed samples.
        let (recent, _) = state
            .history
            .hot_window(self.config.recent_len)
            .expect("min_tail covers recent_len");
        let query = PredictiveQuery {
            recent,
            current_time,
            query_time,
        };
        let predictor = state.predictor.as_deref().unwrap_or(&self.empty_predictor);
        Ok(answer(predictor, &query))
    }

    /// Answers a batch of per-object predictive queries, partitioned
    /// across the store's worker pool. Results are in input order and
    /// bit-identical to calling [`predict`](Self::predict) one query
    /// at a time (prediction is a pure read; the pool only changes who
    /// computes what).
    pub fn predict_batch(
        &self,
        queries: &[(ObjectId, Timestamp)],
    ) -> Vec<Result<Prediction, QueryError>> {
        self.predict_batch_with(queries, &self.pool)
    }

    /// [`predict_batch`](Self::predict_batch) on an explicit pool
    /// (equivalence tests compare pools of different widths).
    pub fn predict_batch_with(
        &self,
        queries: &[(ObjectId, Timestamp)],
        pool: &WorkerPool,
    ) -> Vec<Result<Prediction, QueryError>> {
        let _span = hpm_obs::span!(crate::metrics::PREDICT_BATCH_SPAN);
        if queries.is_empty() {
            return Vec::new();
        }
        let chunk = queries.len().div_ceil(pool.threads());
        let chunks: Vec<&[(ObjectId, Timestamp)]> = queries.chunks(chunk).collect();
        let per_chunk = pool.run(chunks.len(), |i| {
            // One scratch per chunk: the first query warms it, the rest
            // of the chunk predicts allocation-free.
            let mut scratch = PredictScratch::new();
            chunks[i]
                .iter()
                .map(|&(id, t)| self.predict_with_scratch(id, t, &mut scratch))
                .collect::<Vec<_>>()
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// Predictive **range query**: which tracked objects are predicted
    /// to be inside `region` at `query_time`? Objects whose query is
    /// invalid (no history, or `query_time` not in their future) are
    /// skipped. Results are ordered by object id.
    ///
    /// Answered through the predictive index: only the cells each
    /// velocity class can reach into `region` are probed, and only
    /// objects whose envelope meets it are predicted — bit-identical to
    /// [`predict_range_scan`](Self::predict_range_scan), sublinear in
    /// fleet size when predictions are spatially spread.
    pub fn predict_range(
        &self,
        region: &hpm_geo::BoundingBox,
        query_time: Timestamp,
    ) -> Vec<(ObjectId, Point)> {
        let select = Select::Box(region);
        self.fleet_query(select, Refine::Point, query_time)
            .into_iter()
            .map(|(id, p, _)| (id, p))
            .collect()
    }

    /// [`predict_range`](Self::predict_range) by brute force: predicts
    /// every tracked object and filters, reading no index state. The
    /// honest baseline in benchmarks, and the oracle the system
    /// benchmark checks the index against.
    pub fn predict_range_scan(
        &self,
        region: &hpm_geo::BoundingBox,
        query_time: Timestamp,
    ) -> Vec<(ObjectId, Point)> {
        self.scan(Select::Box(region), Refine::Point, query_time)
            .into_iter()
            .map(|(id, p, _)| (id, p))
            .collect()
    }

    /// Probabilistic **range query**: which tracked objects put at
    /// least `tau` of their predicted probability mass inside `region`
    /// at `query_time`? Returns `(id, best point, mass inside)`
    /// ordered by object id.
    ///
    /// Membership is closed-set: an object qualifies when some answer
    /// region touches `region` (inclusive, like
    /// [`BoundingBox::intersects`](hpm_geo::BoundingBox::intersects))
    /// and [`Prediction::probability_in`] reaches `tau`. At `tau = 0`
    /// the result is therefore a superset of
    /// [`predict_range`](Self::predict_range): a best point inside
    /// `region` lies inside its own answer's uncertainty region. A NaN
    /// `tau` matches nothing.
    ///
    /// Answered through the predictive index — envelopes cover every
    /// answer's uncertainty region within the horizon, so pruning is
    /// exact — and bit-identical to
    /// [`predict_within_scan`](Self::predict_within_scan).
    pub fn predict_within(
        &self,
        region: &hpm_geo::BoundingBox,
        query_time: Timestamp,
        tau: f64,
    ) -> Vec<(ObjectId, Point, f64)> {
        hpm_obs::counter!(crate::metrics::PREDICT_WITHIN).add(1);
        let select = Select::Box(region);
        self.fleet_query(select, Refine::Mass { tau }, query_time)
    }

    /// [`predict_within`](Self::predict_within) by brute force:
    /// predicts every tracked object and filters, reading no index
    /// state. The oracle the system benchmark checks the index against.
    pub fn predict_within_scan(
        &self,
        region: &hpm_geo::BoundingBox,
        query_time: Timestamp,
        tau: f64,
    ) -> Vec<(ObjectId, Point, f64)> {
        self.scan(Select::Box(region), Refine::Mass { tau }, query_time)
    }

    /// Predictive **k-nearest-neighbour query**: the `k` tracked
    /// objects predicted closest to `focus` at `query_time`, with
    /// their predicted positions and distances, nearest first (object
    /// id breaks ties deterministically).
    ///
    /// Answered through the predictive index as an expanding-ring
    /// sweep: square rings of cells around `focus`, per velocity
    /// class, hand out objects in ascending envelope distance, and a
    /// class stops once its next ring provably cannot beat the current
    /// `k`-th best distance — bit-identical to
    /// [`predict_nearest_scan`](Self::predict_nearest_scan).
    pub fn predict_nearest(
        &self,
        focus: &Point,
        query_time: Timestamp,
        k: usize,
    ) -> Vec<(ObjectId, Point, f64)> {
        let select = Select::Ring { focus, k };
        self.fleet_query(select, Refine::Point, query_time)
    }

    /// [`predict_nearest`](Self::predict_nearest) by brute force:
    /// predicts every tracked object and keeps the best `k`, reading no
    /// index state. The honest baseline in benchmarks, and the oracle
    /// the system benchmark checks the index against.
    pub fn predict_nearest_scan(
        &self,
        focus: &Point,
        query_time: Timestamp,
        k: usize,
    ) -> Vec<(ObjectId, Point, f64)> {
        self.scan(Select::Ring { focus, k }, Refine::Point, query_time)
    }

    /// Probabilistic **k-nearest-neighbour query**: the `k` tracked
    /// objects whose predicted distribution concentrates around
    /// `focus` soonest — ranked by
    /// [`Prediction::confidence_distance`], the smallest radius around
    /// `focus` containing at least `tau` of the object's predicted
    /// mass. Returns `(id, best point, confidence radius)`, smallest
    /// radius first, object id breaking ties.
    ///
    /// Objects whose claimed mass never reaches `tau` (including every
    /// object when `tau` is NaN) have an infinite radius and are
    /// excluded.
    ///
    /// Answered through the predictive index with the same
    /// expanding-ring sweep as
    /// [`predict_nearest`](Self::predict_nearest): an envelope's
    /// near distance lower-bounds the far distance of every answer
    /// region inside it, so ring termination stays exact —
    /// bit-identical to ranking every tracked object's prediction.
    pub fn predict_nearest_prob(
        &self,
        focus: &Point,
        query_time: Timestamp,
        k: usize,
        tau: f64,
    ) -> Vec<(ObjectId, Point, f64)> {
        hpm_obs::counter!(crate::metrics::PREDICT_NEAREST_PROB).add(1);
        let select = Select::Ring { focus, k };
        self.fleet_query(select, Refine::Mass { tau }, query_time)
    }

    /// The one fleet-query pipeline behind every indexed `predict_*`
    /// operator above: pick candidates from the predictive index → run
    /// the per-object [`predict`](Self::predict) on each → [`score`] →
    /// collect.
    ///
    /// Candidates come in two kinds. *Unconditional* ones are always
    /// predicted: the beyond-horizon ids, plus for a [`Select::Box`]
    /// the objects whose envelope the box touches. A [`Select::Ring`]
    /// additionally takes objects from the index's ring sweep in
    /// ascending envelope distance, until no object left can beat the
    /// current `k`-th best score.
    fn fleet_query(&self, select: Select<'_>, refine: Refine, at: Timestamp) -> Vec<Hit> {
        let mut hits: Vec<Hit> = Vec::new();
        if matches!(select, Select::Ring { k: 0, .. }) {
            return hits;
        }
        self.flush_index();
        let mut unconditional: Vec<u64> = Vec::new();
        let mut pruned = 0u64;
        let mut sweep = None;
        {
            let _span = hpm_obs::span!(crate::metrics::INDEX_PRUNE_SPAN);
            for shard in 0..self.shards.len() {
                match select {
                    Select::Box(region) => {
                        pruned += self
                            .index
                            .range_candidates(shard, region, at, &mut unconditional)
                            .0;
                    }
                    Select::Ring { .. } => self.index.expired_ids(shard, at, &mut unconditional),
                }
            }
            if let Select::Ring { focus, .. } = select {
                sweep = Some(self.index.ring_sweep(focus, at));
            }
        }
        let mut examined = unconditional.len() as u64;
        for raw in unconditional {
            self.consider(ObjectId(raw), select, refine, at, &mut hits);
        }
        if let (Select::Ring { k, .. }, Some(mut sweep)) = (select, sweep) {
            // `hits` is the running top k, best first: once full, its
            // last score is the bound a candidate must not exceed. An
            // envelope's near distance lower-bounds the member's
            // distance and the far distance of every answer region
            // inside it, hence both scores.
            loop {
                let kth = hits.get(k - 1).map_or(f64::INFINITY, |hit| hit.2);
                let Some(raw) = sweep.next(kth) else { break };
                examined += 1;
                self.consider(ObjectId(raw), select, refine, at, &mut hits);
            }
            pruned = sweep.cells.saturating_sub(sweep.visited);
            hpm_obs::histogram!(crate::metrics::INDEX_CELLS_PROBED_KNN).record(sweep.probed);
        } else {
            hits.sort_unstable_by_key(|hit| hit.0);
        }
        hpm_obs::histogram!(crate::metrics::INDEX_PARTITIONS_PRUNED).record(pruned);
        hpm_obs::histogram!(crate::metrics::INDEX_CANDIDATES).record(examined);
        hits
    }

    /// The `_scan` twins' one loop: every tracked object is a candidate
    /// for [`consider`](Self::consider), and no index state is read.
    fn scan(&self, select: Select<'_>, refine: Refine, at: Timestamp) -> Vec<Hit> {
        let mut ids: Vec<u64> = Vec::new();
        for shard in self.shards.iter() {
            ids.extend(shard.read_map().keys());
        }
        let mut hits = Vec::new();
        for raw in ids {
            self.consider(ObjectId(raw), select, refine, at, &mut hits);
        }
        if let Select::Box(_) = select {
            hits.sort_unstable_by_key(|hit| hit.0);
        }
        hits
    }

    /// Predicts one candidate and, when it [`score`]s, hands it to the
    /// selection's collector: a plain push for a box (id-sorted once
    /// at the end), or an insert into the running top `k` kept sorted
    /// by `(score, id)` for a ring. An id the top k already holds is
    /// not inserted again — a query thread that flushes a fresh
    /// envelope mid-sweep can surface one object both as beyond-horizon
    /// and from the ring sweep.
    fn consider(
        &self,
        id: ObjectId,
        select: Select<'_>,
        refine: Refine,
        at: Timestamp,
        hits: &mut Vec<Hit>,
    ) {
        let Ok(prediction) = self.predict(id, at) else {
            return;
        };
        let Some((best, s)) = score(&prediction, select, refine) else {
            return;
        };
        match select {
            Select::Box(_) => hits.push((id, best, s)),
            Select::Ring { k, .. } => {
                // total_cmp: a NaN score (never produced by
                // finite-checked ingest, but cheap to be total about)
                // sorts last instead of panicking in a public query.
                let pos =
                    hits.partition_point(|e| e.2.total_cmp(&s).then_with(|| e.0.cmp(&id)).is_lt());
                if pos < k && hits.iter().all(|e| e.0 != id) {
                    hits.insert(pos, (id, best, s));
                    hits.truncate(k);
                }
            }
        }
    }

    /// Brings the predictive index up to date with every mutation
    /// reported so far (queries call this before pruning; mutations
    /// themselves only mark objects dirty — see [`crate::index`]).
    fn flush_index(&self) {
        let flush = |shard: usize| {
            self.index.flush_shard(shard, |raw| {
                let _span = hpm_obs::span!(crate::metrics::INDEX_UPDATE_SPAN);
                self.compute_envelope(shard, raw)
            })
        };
        let inline = WorkerPool::new(1);
        let parallel = self.index.dirty_count() >= crate::index::PARALLEL_FLUSH_FLOOR;
        let pool = if parallel { &self.pool } else { &inline };
        if pool.run(self.shards.len(), flush).contains(&true) {
            hpm_obs::gauge!(crate::metrics::INDEX_SIZE).set(self.index.entry_count() as i64);
        }
    }

    /// The envelope bounding every answer `predict` can give for this
    /// object within the index horizon — point answers *and* their
    /// uncertainty regions: the motion-fallback rollout box padded by
    /// the horizon-widened error-ellipse half-axes (√steps widening is
    /// monotone, so the horizon pad covers every earlier step), unioned
    /// with the full frequent-region extent box (pattern answers claim
    /// their consequence region's bbox).
    /// `None` uninstalls the object: removed, history-less, or
    /// poisoned objects answer no query, so pruning them is exact.
    fn compute_envelope(&self, shard: usize, raw: u64) -> Option<Envelope> {
        let cell = self.shards[shard].read_map().get(&raw).cloned()?;
        let state = cell.read().ok()?;
        if state.removed || state.history.is_empty() {
            return None;
        }
        let tc = state.history.end() - 1;
        let (recent, _) = state
            .history
            .hot_window(self.config.recent_len)
            .expect("min_tail covers recent_len");
        let predictor = state.predictor.as_deref().unwrap_or(&self.empty_predictor);
        let sigma = predictor.fallback_residual_sigma(recent);
        let (hx, hy) = Uncertainty::ellipse_half_axes(sigma, self.index.horizon);
        let mut bbox = predictor
            .fallback_envelope(recent, self.index.horizon)
            .padded(hx, hy);
        if let Some(regions) = predictor.region_envelope() {
            bbox = bbox.union(&regions);
        }
        Some(Envelope { tc, bbox })
    }

    /// Current stats of an object.
    pub fn stats(&self, id: ObjectId) -> Result<ObjectStats, QueryError> {
        let state = self.lookup(id).ok_or(QueryError::UnknownObject(id))?;
        let state = state
            .read()
            .map_err(|_| QueryError::ObjectUnavailable(id))?;
        let period = self.config.discovery.period as usize;
        Ok(ObjectStats {
            samples: state.history.len(),
            full_periods: state.history.len() / period,
            trained_periods: state.trained_subs,
            patterns: state.predictor.as_ref().map_or(0, |p| p.patterns().len()),
            regions: state.predictor.as_ref().map_or(0, |p| p.regions().len()),
            approx_bytes: state.mem_bytes(),
        })
    }

    /// Hands every live object's state to `f`, shard by shard, each
    /// under a brief hold of its read lock. A poisoned object is
    /// skipped: it is unavailable to queries and ingest alike, and
    /// persisting its half-mutated state would launder the corruption
    /// into the next process. So is a cell a racing `remove` orphaned.
    fn for_each_live(&self, mut f: impl FnMut(u64, &ObjectState)) {
        for shard in self.shards.iter() {
            let cells: Vec<(u64, Arc<RwLock<ObjectState>>)> = shard
                .read_map()
                .iter()
                .map(|(raw, cell)| (*raw, Arc::clone(cell)))
                .collect();
            for (raw, cell) in cells {
                let Ok(state) = cell.read() else { continue };
                if !state.removed {
                    f(raw, &state);
                }
            }
        }
    }

    /// Walks every object and totals approximate resident bytes —
    /// compressed histories (with their raw-equivalent baseline, so
    /// the fleet compression ratio is observable), predictors, trainer
    /// state, and the predictive index. Refreshes the `store.mem.*`
    /// gauges: the total, the per-object figure and the four shares.
    ///
    /// O(objects) with each object's read lock taken briefly; intended
    /// for operational cadence (stats verbs, snapshots), not per-query
    /// hot paths.
    pub fn memory_use(&self) -> StoreMemory {
        let mut m = StoreMemory::default();
        self.for_each_live(|_, state| {
            m.objects += 1;
            m.history_bytes += state.history.history_bytes();
            m.history_raw_bytes += state.history.raw_baseline_bytes();
            m.predictor_bytes += state.predictor.as_deref().map_or(0, MemUse::mem_bytes);
            m.trainer_bytes += state.trainer.as_deref().map_or(0, MemUse::mem_bytes);
            m.total_bytes += state.mem_bytes();
        });
        m.index_bytes = self.index.mem_bytes();
        m.total_bytes += m.index_bytes;
        hpm_obs::gauge!(crate::metrics::MEM_BYTES).set(m.total_bytes as i64);
        hpm_obs::gauge!(crate::metrics::MEM_BYTES_PER_OBJECT).set(m.bytes_per_object() as i64);
        hpm_obs::gauge!(crate::metrics::MEM_HISTORY_BYTES).set(m.history_bytes as i64);
        hpm_obs::gauge!(crate::metrics::MEM_PREDICTOR_BYTES).set(m.predictor_bytes as i64);
        hpm_obs::gauge!(crate::metrics::MEM_TRAINER_BYTES).set(m.trainer_bytes as i64);
        hpm_obs::gauge!(crate::metrics::MEM_INDEX_BYTES).set(m.index_bytes as i64);
        m
    }

    /// Stops tracking `id`, dropping its history and predictor.
    /// Returns `false` when the object was not tracked. (GDPR-style
    /// forget, or simply an object that left the fleet.)
    pub fn remove(&self, id: ObjectId) -> bool {
        let shard_idx = self.shard_index(id.0);
        let mut objects = self.shards[shard_idx].write_map();
        let Some(cell) = objects.remove(&id.0) else {
            return false;
        };
        // Mark the orphaned cell (and log the removal) while still
        // holding the map lock: a report racing us either already
        // holds the cell's lock (its WAL record precedes ours) or has
        // yet to resolve the id (it blocks on the map, misses the
        // entry, and starts a fresh object whose records follow ours).
        // Either way WAL order equals live order.
        if let Ok(mut state) = cell.write() {
            state.removed = true;
        }
        // Removal is best-effort in the log: an I/O error here cannot
        // un-remove the object, so surface it through metrics only.
        // At worst a crash resurrects the object at the next open.
        if let Some(d) = &self.durability {
            match self
                .wal_of(d, id)
                .append(&WalRecord::Remove { object: id.0 })
            {
                Ok(()) => _ = d.since_snapshot.fetch_add(1, Ordering::Relaxed),
                Err(_) => hpm_obs::counter!(crate::metrics::WAL_REMOVE_ERRORS).add(1),
            }
        }
        crate::metrics::shard_objects_gauge(shard_idx).set(objects.len() as i64);
        hpm_obs::gauge!(crate::metrics::OBJECTS).add(-1);
        drop(objects);
        self.index.mark_dirty(shard_idx, id.0);
        self.maybe_auto_snapshot();
        true
    }

    /// Rebuilds `id`'s model from scratch: drops the incremental trainer
    /// and re-seeds it over the first `trained_periods` full periods,
    /// the samples the current model was trained on (the repair hammer
    /// for a trainer suspected bad). Cadence-neutral: the rebuilt model
    /// is the one the cadence produced, so answers and stats stay a
    /// function of the report log, which is all a reopen replays. An
    /// object not trained yet (under `min_train_subs` full periods, or
    /// restored untrained by a snapshot) has no model to rebuild:
    /// [`QueryError::InsufficientHistory`].
    pub fn force_retrain(&self, id: ObjectId) -> Result<(), QueryError> {
        let state = self.lookup(id).ok_or(QueryError::UnknownObject(id))?;
        let mut state = state
            .write()
            .map_err(|_| QueryError::ObjectUnavailable(id))?;
        let full_periods = state.history.len() / self.config.discovery.period as usize;
        if state.trained_subs == 0 {
            return Err(QueryError::InsufficientHistory {
                full_periods,
                min_train_subs: self.config.min_train_subs,
            });
        }
        state.trainer = None;
        let subs = state.trained_subs;
        self.retrain(&mut state, subs);
        self.index.mark_dirty(self.shard_index(id.0), id.0);
        Ok(())
    }

    /// Writes out any group-commit batches still buffered in memory
    /// (fsyncing per policy). Call before a clean shutdown; a no-op on
    /// a memory-only store.
    pub fn flush_wal(&self) -> std::io::Result<()> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        for wal in d.wals.iter() {
            wal.lock().unwrap_or_else(PoisonError::into_inner).flush()?;
        }
        Ok(())
    }

    /// Takes a snapshot now: rotates every shard's WAL to a new epoch,
    /// serializes all object state (trajectories, trained models,
    /// training watermarks) to an atomically renamed snapshot file,
    /// and garbage-collects the files older epochs left behind.
    /// Returns `Ok(false)` on a memory-only store.
    ///
    /// Ingest proceeds concurrently: reports racing the snapshot land
    /// in the new epoch's WAL, and replaying them over the snapshot at
    /// the next open is idempotent (the contiguity check skips
    /// re-applied reports).
    pub fn snapshot(&self) -> std::io::Result<bool> {
        let Some(d) = &self.durability else {
            return Ok(false);
        };
        let _gate = d
            .snapshot_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.snapshot_locked(d)?;
        Ok(true)
    }

    /// Runs the auto-snapshot cadence check after an ingest call. Only
    /// one thread snapshots; the rest skip past a held gate.
    fn maybe_auto_snapshot(&self) {
        let Some(d) = &self.durability else { return };
        if d.config.snapshot_every == 0
            || d.since_snapshot.load(Ordering::Relaxed) < d.config.snapshot_every
        {
            return;
        }
        let Ok(_gate) = d.snapshot_gate.try_lock() else {
            return;
        };
        // Re-check under the gate: the snapshot that just released it
        // reset the counter.
        if d.since_snapshot.load(Ordering::Relaxed) < d.config.snapshot_every {
            return;
        }
        if self.snapshot_locked(d).is_err() {
            hpm_obs::counter!(crate::metrics::SNAPSHOT_ERRORS).add(1);
        }
    }

    /// The snapshot procedure proper; caller holds the gate.
    fn snapshot_locked(&self, d: &DurabilityState) -> std::io::Result<()> {
        let _span = hpm_obs::span!(crate::metrics::SNAPSHOT_SPAN);
        // An attempt spends its epoch and its cadence up front: a retry
        // after a part-way rotation must not truncate the segments the
        // rotated shards log to, nor run again on the next ingest call.
        let epoch = d.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        d.since_snapshot.store(0, Ordering::Relaxed);
        // Rotate first: once every shard writes to epoch-`epoch`
        // segments, any record still in an older segment was applied
        // under an object lock the serialization below must wait on —
        // so the snapshot contains every old-epoch effect, and old
        // epochs can be GC'd afterwards. Rotation is not atomic across
        // shards, but an object's records live in exactly one shard,
        // so per-object order is preserved regardless.
        for (shard, wal) in d.wals.iter().enumerate() {
            let mut wal = wal.lock().unwrap_or_else(PoisonError::into_inner);
            wal.flush()?;
            *wal = WalWriter::create(
                wal_path(&d.config.dir, epoch, shard),
                d.config.wal_options(),
            )?;
        }
        let mut objects = Vec::new();
        self.for_each_live(|raw, state| {
            objects.push(ObjectSnapshot {
                id: raw,
                start: state.history.start(),
                // The history's parts are copied as they are — a
                // snapshot copies compressed words, it never
                // recompresses.
                history: HistorySnapshot::of(&state.history),
                trained_subs: state.trained_subs as u64,
                model: state
                    .predictor
                    .as_ref()
                    .map(|p| encode_model(p.regions(), p.patterns())),
            });
        });
        // Id order, not shard-map iteration order: equal stores write
        // byte-identical snapshots.
        objects.sort_unstable_by_key(|o| o.id);
        let bytes = encode_snapshot(&objects);
        hpm_store::write_atomic(&snap_path(&d.config.dir, epoch), &bytes)?;
        durability::gc_below(&d.config.dir, epoch);
        hpm_obs::counter!(crate::metrics::SNAPSHOTS).add(1);
        hpm_obs::gauge!(crate::metrics::SNAPSHOT_OBJECTS).set(objects.len() as i64);
        Ok(())
    }

    /// Re-applies one WAL segment through the normal ingest path
    /// (durability is not attached yet during recovery, so nothing is
    /// re-logged) and returns how many records it held and the objects
    /// it left a retrain pending on. An object's first logged run in
    /// the segment, and any run of [`REPLAY_GATHER`] reports or more,
    /// reaches [`apply_run`](Self::apply_run) as it is; later short
    /// runs — a group-commit batch of a fleet fed in interleaved frames
    /// holds runs of one report — are gathered per object across frames
    /// until they are that long or the segment ends, since objects are
    /// independent and only each object's own order matters. The
    /// prefix a snapshot already holds fails the contiguity check
    /// inside one lock hold, and the rest applies. A logged `Remove`
    /// resets the object exactly as it did live. A segment of another
    /// format version is refused, not skipped as an empty log.
    fn replay_segment(&self, path: &Path) -> Result<(u64, Vec<u64>), RecoverError> {
        let bytes = std::fs::read(path)?;
        let mut records = 0u64;
        // Per object seen in the segment, the short run gathered since
        // its last apply: its first timestamp and its positions (none,
        // and the timestamp the next run extends from, right after an
        // apply).
        let mut short: HashMap<u64, (Timestamp, Vec<Point>)> = HashMap::new();
        let mut pending = Vec::new();
        let mut apply = |object: u64, first: Timestamp, points: &[Point]| {
            let reports = points
                .iter()
                .enumerate()
                .map(|(i, p)| (first + i as Timestamp, *p));
            if self.apply_run(ObjectId(object), reports, Feed::Replay, |_| {}) {
                pending.push(object);
            }
        };
        let (_, stopped) = scan_wal_runs(&bytes, |next, _| {
            records += next.points.len().max(1) as u64;
            let seen = short.remove(&next.object);
            let first_run = seen.is_none();
            let mut gathered = match seen {
                Some((first, points))
                    if !next.points.is_empty()
                        && first.checked_add(points.len() as Timestamp) == Some(next.first) =>
                {
                    points
                }
                Some((first, points)) => {
                    apply(next.object, first, &points);
                    Vec::new()
                }
                None => Vec::new(),
            };
            if next.points.is_empty() {
                self.remove(ObjectId(next.object));
                return;
            }
            // The WAL decoder refuses a run that passes the last timestamp.
            let end = next.first + next.points.len() as Timestamp;
            if gathered.is_empty() && (first_run || next.points.len() >= REPLAY_GATHER) {
                apply(next.object, next.first, next.points);
            } else {
                gathered.extend_from_slice(next.points);
                if gathered.len() >= REPLAY_GATHER {
                    apply(next.object, end - gathered.len() as Timestamp, &gathered);
                    gathered.clear();
                }
            }
            short.insert(next.object, (end - gathered.len() as Timestamp, gathered));
        });
        if let Some(DecodeError::UnsupportedVersion(version)) = stopped {
            let path = path.to_owned();
            return Err(RecoverError::UnsupportedVersion { path, version });
        }
        for (object, (first, points)) in short {
            apply(object, first, &points);
        }
        Ok((records, pending))
    }

    /// Installs snapshot state into an empty store: histories verbatim
    /// and each trained predictor decoded from its nested model blob.
    /// Nothing is trained here. The incremental trainer is derived
    /// state and stays absent; [`retrain`](Self::retrain) answers that
    /// at the object's next cadence crossing by deriving it again from
    /// the full history — by the workspace training contract
    /// bit-identical to what a never-restarted store folded up to the
    /// same sample, at the cost of one first-training-sized pass — and
    /// keeps it after that pass only where its own rule holds one.
    fn restore_objects(&mut self, objects: Vec<ObjectSnapshot>) -> Result<(), DecodeError> {
        // Decoding and installing the parts is independent per object,
        // so the states are built on the pool; they go into the shard
        // maps afterwards, in object order, and the first decode error
        // in that order fails the open.
        let objects: Vec<Mutex<Option<ObjectSnapshot>>> =
            objects.into_iter().map(|o| Mutex::new(Some(o))).collect();
        let built = self.pool.run(objects.len(), |i| {
            let o = objects[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            self.restored_state(o.expect("each object is built once"))
        });
        for state in built {
            let (id, state) = state?;
            let shard_idx = self.shard_index(id);
            let mut map = self.shards[shard_idx].write_map();
            map.insert(id, Arc::new(RwLock::new(state)));
            crate::metrics::shard_objects_gauge(shard_idx).set(map.len() as i64);
            hpm_obs::gauge!(crate::metrics::OBJECTS).add(1);
            drop(map);
            self.index.mark_dirty(shard_idx, id);
        }
        Ok(())
    }

    /// One snapshot object's state: its history from the parts as they
    /// are, which is the history the writer held (`from_parts` only
    /// decodes and re-pushes the samples after the sealed chunks when
    /// the writer used another chunk geometry), and its predictor
    /// decoded from the model blob.
    fn restored_state(&self, o: ObjectSnapshot) -> Result<(u64, ObjectState), DecodeError> {
        let h = o.history;
        let history =
            ChunkedHistory::from_parts(o.start, self.chunk_params(), h.chunks, h.open, h.window);
        let predictor = match &o.model {
            Some(blob) => {
                let m = decode_model(blob)?;
                Some(Box::new(HybridPredictor::from_parts(
                    m.regions,
                    m.patterns,
                    self.config.hpm,
                )))
            }
            None => None,
        };
        let state = ObjectState {
            history,
            predictor,
            trainer: None,
            trained_subs: o.trained_subs as usize,
            retrain_pending: false,
            removed: false,
        };
        Ok((o.id, state))
    }

    /// The shard WAL of `id`, locked. Taken with the object's lock held
    /// (WAL mutexes are innermost).
    fn wal_of<'a>(&self, d: &'a DurabilityState, id: ObjectId) -> MutexGuard<'a, WalWriter> {
        d.wals[self.shard_index(id.0)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetches or creates the state cell of an object. A new object's
    /// trajectory starts at the given timestamp.
    fn state_of(&self, id: ObjectId, start: Timestamp) -> Arc<RwLock<ObjectState>> {
        let shard_idx = self.shard_index(id.0);
        let shard = &self.shards[shard_idx];
        if let Some(state) = shard.read_map().get(&id.0) {
            return Arc::clone(state);
        }
        let mut objects = shard.write_map();
        let before = objects.len();
        let state = Arc::clone(objects.entry(id.0).or_insert_with(|| {
            Arc::new(RwLock::new(ObjectState {
                history: ChunkedHistory::new(start, self.chunk_params()),
                predictor: None,
                trainer: None,
                trained_subs: 0,
                retrain_pending: false,
                removed: false,
            }))
        }));
        if objects.len() > before {
            crate::metrics::shard_objects_gauge(shard_idx).set(objects.len() as i64);
            hpm_obs::gauge!(crate::metrics::OBJECTS).add(1);
        }
        state
    }

    /// Retrains when a threshold was crossed. Replaying, a crossing
    /// only moves the watermark where that retrain would put it and
    /// leaves the retrain pending: of the predictors a replayed tail
    /// would train, only the last can ever answer a query.
    fn maybe_retrain(&self, state: &mut ObjectState, feed: Feed) {
        let period = self.config.discovery.period as usize;
        let full = state.history.len() / period;
        let due = if state.predictor.is_none() && !state.retrain_pending {
            full >= self.config.min_train_subs
        } else {
            full >= state.trained_subs + self.config.retrain_every_subs
        };
        if !due {
            return;
        }
        if feed == Feed::Replay {
            state.trained_subs = full;
            state.retrain_pending = true;
        } else {
            self.retrain(state, full);
        }
    }

    /// Runs the retrain WAL replay left pending on each of the objects
    /// `ids` names (replay reports every object it left one on, some
    /// more than once), to the watermark its last crossing set, on the
    /// pool; returns how many ran. A pass over the whole delta equals
    /// the passes the crossings would have run one by one (the
    /// `hpm-core` training contract), so the store answers as if it had
    /// never stopped.
    fn run_pending_retrains(&self, mut ids: Vec<u64>) -> usize {
        ids.sort_unstable();
        ids.dedup();
        let retrained = self.pool.run(ids.len(), |i| {
            let Some(state) = self.lookup(ObjectId(ids[i])) else {
                return false;
            };
            let Ok(mut state) = state.write() else {
                return false;
            };
            let pending = std::mem::take(&mut state.retrain_pending);
            if pending {
                let subs = state.trained_subs;
                self.retrain(&mut state, subs);
            }
            pending
        });
        retrained.into_iter().filter(|&ran| ran).count()
    }

    /// Retrains `state` on its first `subs` full periods (a crossing
    /// passes all it has, `force_retrain` the watermark it had, `open`
    /// the watermark replay moved it to) and
    /// sets the watermark to `subs` — the one training path, through
    /// [`TrainerState::retrain`]: the trainer folds in the samples
    /// reported since the last pass, or is re-seeded from those periods
    /// when it cannot (no trainer — first training, after a restart or
    /// a `force_retrain` — or structure drift). A seed with no live
    /// predictor is, call for call, the paper's batch pipeline
    /// [`HybridPredictor::build`]; a fold equals it by the `hpm-core`
    /// training contract, and that function is what the test suites
    /// compare the store against.
    ///
    /// The trainer is kept after the pass only while the next retrain,
    /// `retrain_every_subs` periods on, falls within the `subs` periods
    /// just trained on — `retrain_every_subs < subs` — so that it is a
    /// fold worth paying for: a fold covers the k new periods, a seed
    /// all n + k, so for k ≥ n a seed costs at most about twice a fold,
    /// while a held trainer costs about 24 B per clustered sample the
    /// whole time. Otherwise the slot is emptied and the next retrain
    /// seeds, with the same answer. The rule reads the config alone.
    fn retrain(&self, state: &mut ObjectState, subs: usize) {
        let period = self.config.discovery.period as usize;
        let samples = Prefix::new(&state.history, subs * period);
        if samples.is_empty() {
            return;
        }
        let _span = hpm_obs::span!(crate::metrics::RETRAIN_SPAN);
        hpm_obs::counter!(crate::metrics::RETRAINS).add(1);
        hpm_obs::gauge!(crate::metrics::RETRAIN_STALENESS)
            .set((state.history.len() / period).saturating_sub(state.trained_subs) as i64);
        let (predictor, pass) = TrainerState::retrain(
            &mut state.trainer,
            state.predictor.as_deref(),
            &samples,
            &self.config.discovery,
            &self.config.mining,
            self.config.hpm,
        );
        if pass == TrainPass::Folded {
            hpm_obs::counter!(crate::metrics::RETRAINS_INCREMENTAL).add(1);
        } else {
            hpm_obs::counter!(crate::metrics::RETRAINS_FULL).add(1);
        }
        if pass == TrainPass::Drifted {
            hpm_obs::counter!(crate::metrics::RETRAIN_DRIFT_FALLBACKS).add(1);
        }
        match &mut state.predictor {
            Some(live) => **live = predictor,
            slot => *slot = Some(Box::new(predictor)),
        }
        state.trained_subs = subs;
        if self.config.retrain_every_subs >= subs {
            state.trainer = None;
        }
    }

    /// Chunk geometry every object history uses: `min_tail` is sized
    /// to the recent window so the predict hot path is always a raw
    /// slice borrow, never a decompress.
    fn chunk_params(&self) -> ChunkParams {
        ChunkParams {
            seal_len: DEFAULT_SEAL_LEN,
            min_tail: DEFAULT_MIN_TAIL.max(self.config.recent_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_core::PredictionSource;

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
            index: IndexConfig::default(),
        }
    }

    /// One commuter day: home → road → work → pub.
    fn day(d: usize) -> Vec<Point> {
        let j = (d % 3) as f64 * 0.2;
        vec![
            Point::new(j, 0.0),
            Point::new(50.0 + j, 0.0),
            Point::new(100.0 + j, 0.0),
            Point::new(100.0 + j, 50.0),
        ]
    }

    fn feed_days(store: &MovingObjectStore, id: ObjectId, days: std::ops::Range<usize>) {
        for d in days {
            store
                .report_batch(id, (d * 4) as Timestamp, &day(d))
                .unwrap();
        }
    }

    #[test]
    fn trains_after_min_subs_and_predicts_patterns() {
        let store = MovingObjectStore::new(config());
        let id = ObjectId(7);
        feed_days(&store, id, 0..4);
        let s = store.stats(id).unwrap();
        assert_eq!(s.trained_periods, 0, "not enough history yet");
        feed_days(&store, id, 4..6);
        let s = store.stats(id).unwrap();
        assert!(s.trained_periods >= 5);
        assert!(s.patterns > 0);
        // Object just passed home+road of day 6; where at offset 2?
        store.report(id, 24, Point::new(0.0, 0.0)).unwrap();
        store.report(id, 25, Point::new(50.0, 0.0)).unwrap();
        let pred = store.predict(id, 26).unwrap();
        assert_eq!(pred.source, PredictionSource::ForwardPatterns);
        assert!(pred.best().distance(&Point::new(100.0, 0.0)) < 2.0);
    }

    /// Holding or dropping a trainer never changes an answer, so only
    /// the slot shows the rule: a trainer is held exactly when the next
    /// retrain folds, `retrain_every_subs < trained_subs`.
    #[test]
    fn a_trainer_is_held_iff_the_next_retrain_folds() {
        for every in [1, 5, 10] {
            let store = MovingObjectStore::new(StoreConfig {
                retrain_every_subs: every,
                ..config()
            });
            let id = ObjectId(4);
            let held = |after: &str| {
                let state = store.lookup(id).unwrap();
                let state = state.read().unwrap();
                let subs = state.trained_subs;
                assert_eq!(
                    state.trainer.is_some(),
                    every < subs,
                    "cadence {every}, {after}, {subs} trained periods"
                );
                subs
            };
            feed_days(&store, id, 0..5);
            assert_eq!(held("first training"), 5);
            feed_days(&store, id, 5..15);
            assert_eq!(held("a later crossing"), 15);
            store.force_retrain(id).unwrap();
            assert_eq!(held("force_retrain"), 15);
            assert!(store.remove(id));
            feed_days(&store, id, 0..5);
            assert_eq!(held("remove and re-report"), 5);
            store.force_retrain(id).unwrap();
            assert_eq!(held("force_retrain"), 5);
        }
    }

    /// Both model slots are boxed: an object without a predictor or a
    /// trainer pays a pointer for each, not their inline sizes.
    #[test]
    fn an_object_state_stays_within_96_bytes() {
        assert!(std::mem::size_of::<ObjectState>() <= 96);
    }

    #[test]
    fn untrained_object_uses_motion_function() {
        let store = MovingObjectStore::new(config());
        let id = ObjectId(1);
        store
            .report_batch(
                id,
                0,
                &[
                    Point::new(0.0, 0.0),
                    Point::new(1.0, 0.0),
                    Point::new(2.0, 0.0),
                ],
            )
            .unwrap();
        let pred = store.predict(id, 5).unwrap();
        assert_eq!(pred.source, PredictionSource::MotionFunction);
        assert!(pred.best().distance(&Point::new(5.0, 0.0)) < 1e-6);
    }

    #[test]
    fn query_times_past_a_u32_horizon_are_refused() {
        let store = MovingObjectStore::new(config());
        let id = ObjectId(3);
        feed_days(&store, id, 0..6);
        let current = 23;
        let last = current + u64::from(u32::MAX);
        let pred = store.predict(id, last).unwrap();
        assert_eq!(pred.source, PredictionSource::BackwardPatterns);
        // 2³² + 3 steps ahead must not be answered as 3 steps ahead.
        for requested in [last + 1, current + (1 << 32) + 3, u64::MAX] {
            assert_eq!(
                store.predict(id, requested),
                Err(QueryError::HorizonOutOfRange { current, requested })
            );
        }
    }

    #[test]
    fn objects_are_independent() {
        let store = MovingObjectStore::new(config());
        feed_days(&store, ObjectId(1), 0..6);
        store.report(ObjectId(2), 0, Point::ORIGIN).unwrap();
        assert_eq!(store.object_count(), 2);
        assert!(store.stats(ObjectId(1)).unwrap().patterns > 0);
        assert_eq!(store.stats(ObjectId(2)).unwrap().patterns, 0);
    }

    /// A snapshot written under a higher `min_train_subs` restores an
    /// untrained object past the lower one: with no model to rebuild,
    /// the force is refused, not a silent no-op, until a boundary trains it.
    #[test]
    fn force_retrain_refuses_an_object_restored_untrained() {
        let dir = std::env::temp_dir().join(format!("hpm-store-force-{}", std::process::id()));
        let (id, mut lower) = (ObjectId(8), config());
        let store = MovingObjectStore::open(config(), DurabilityConfig::new(&dir)).unwrap();
        feed_days(&store, id, 0..3);
        assert!(store.snapshot().unwrap());
        drop(store);
        lower.min_train_subs = 2;
        let store = MovingObjectStore::open(lower, DurabilityConfig::new(&dir)).unwrap();
        let e = store.force_retrain(id).unwrap_err().to_string();
        assert_eq!(e, "only 3 full periods of history (min_train_subs = 2)");
        feed_days(&store, id, 3..4);
        assert_eq!(store.stats(id).unwrap().trained_periods, 4);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_reporters_and_queriers() {
        let store = MovingObjectStore::new(config());
        // Pre-train a queried object.
        feed_days(&store, ObjectId(0), 0..6);
        std::thread::scope(|s| {
            // 4 writer threads each own a distinct object.
            for w in 1u64..=4 {
                let store = &store;
                s.spawn(move || {
                    let id = ObjectId(w);
                    for d in 0..20 {
                        store
                            .report_batch(id, (d * 4) as Timestamp, &day(d))
                            .unwrap();
                    }
                });
            }
            // 2 reader threads hammer the pre-trained object.
            for _ in 0..2 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let pred = store.predict(ObjectId(0), 24 + (i % 8)).unwrap();
                        assert!(pred.best().is_finite());
                    }
                });
            }
        });
        assert_eq!(store.object_count(), 5);
        for w in 1..=4 {
            let s = store.stats(ObjectId(w)).unwrap();
            assert_eq!(s.samples, 80);
            assert!(s.patterns > 0);
        }
    }

    #[test]
    #[should_panic(expected = "min_train_subs")]
    fn zero_min_train_rejected() {
        let mut c = config();
        c.min_train_subs = 0;
        MovingObjectStore::new(c);
    }

    #[test]
    #[should_panic(expected = "shards")]
    fn zero_shards_rejected() {
        let mut c = config();
        c.shards = 0;
        MovingObjectStore::new(c);
    }

    /// Three commuters at staggered points of the same day template.
    fn range_store() -> MovingObjectStore {
        let store = MovingObjectStore::new(config());
        for obj in 0..3u64 {
            for d in 0..6usize {
                // Object `obj` lags `obj` offsets behind: shift its day.
                let mut day_pts = day(d);
                day_pts.rotate_right(obj as usize % 4);
                store
                    .report_batch(ObjectId(obj), (d * 4) as Timestamp, &day_pts)
                    .unwrap();
            }
        }
        store
    }

    #[test]
    fn range_query_finds_objects_headed_to_work() {
        let store = range_store();
        // All three trained; ask who will be near "work" (100, 0) at
        // the next offset-2-equivalent time for object 0.
        let work_area = hpm_geo::BoundingBox {
            min: Point::new(90.0, -10.0),
            max: Point::new(110.0, 10.0),
        };
        // Query far ahead (offset 2 of day 11) so Eq. 5's premise
        // penalty d/(tq − tc) is small and the exact-offset
        // consequence wins the BQP ranking.
        let t = 46;
        let hits = store.predict_range(&work_area, t);
        // Object 0 (unshifted) is at work at offset 2; the shifted
        // objects are elsewhere.
        assert!(hits.iter().any(|(id, _)| *id == ObjectId(0)), "{hits:?}");
        for (_, p) in &hits {
            assert!(work_area.contains(p));
        }
        // Ids are ordered.
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn nearest_query_orders_by_distance() {
        let store = range_store();
        let focus = Point::new(100.0, 0.0); // work
        let all = store.predict_nearest(&focus, 46, 10);
        assert_eq!(all.len(), 3, "every trained object is rankable");
        assert!(all.windows(2).all(|w| w[0].2 <= w[1].2));
        assert_eq!(all[0].0, ObjectId(0));
        let top1 = store.predict_nearest(&focus, 46, 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].0, all[0].0);
    }

    /// What a flush racing the ring sweep does to one query: an object
    /// surfaces as beyond-horizon and again from the ring sweep.
    #[test]
    fn ring_collector_holds_an_id_once() {
        let store = range_store();
        let focus = Point::new(100.0, 0.0);
        let select = Select::Ring {
            focus: &focus,
            k: 5,
        };
        let mut hits = Vec::new();
        for raw in [0, 1, 0] {
            store.consider(ObjectId(raw), select, Refine::Point, 46, &mut hits);
        }
        let ids: Vec<ObjectId> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, [ObjectId(0), ObjectId(1)]);
    }
}
