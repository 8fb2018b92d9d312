//! The naive reference store and the three real targets the op-trace
//! property drives. Every target answers a step's [`Req`]s with
//! [`Answer`]s, and two answers are equal when their wire encodings
//! are: floats compare bit for bit, errors field for field.

use hpm_core::{HybridPredictor, Prediction, PredictiveQuery};
use hpm_geo::{BoundingBox, Point};
use hpm_objectstore::{
    DurabilityConfig, FsyncPolicy, IngestError, MovingObjectStore, ObjectId, ObjectStats,
    QueryError, StoreConfig, WorkerPool,
};
use hpm_patterns::RegionSet;
use hpm_server::proto::encode_response;
use hpm_server::{Client, RequestBody as Q, Response, ResponseBody as R, Server, ServerHandle};
use hpm_store::wal::{scan_wal_runs, WAL_MAGIC};
use hpm_trajectory::{Timestamp, Trajectory};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One request: a wire verb, or an in-process call the wire has no verb
/// for.
#[derive(Debug, Clone)]
pub enum Req {
    Wire(Q),
    Report(ObjectId, Timestamp, Point),
    ReportBatch(ObjectId, Timestamp, Vec<Point>),
    Remove(ObjectId),
    ObjectCount,
}

/// A wire response, or what `remove` / `object_count` return. Stats
/// carry `approx_bytes` zeroed (it follows allocator history, not
/// state).
#[derive(Debug, Clone)]
pub enum Answer {
    Body(R),
    Removed(bool),
    Objects(usize),
}

impl Answer {
    fn of(body: R) -> Self {
        Answer::Body(match body {
            R::Stats(Ok(mut stats)) => {
                stats.approx_bytes = 0;
                R::Stats(Ok(stats))
            }
            body => body,
        })
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            Answer::Body(body) => {
                let (mut out, body) = (Vec::new(), body.clone());
                encode_response(
                    &Response {
                        correlation: 0,
                        body,
                    },
                    &mut out,
                );
                out
            }
            Answer::Removed(removed) => vec![u8::from(*removed)],
            Answer::Objects(n) => n.to_le_bytes().to_vec(),
        }
    }
}

impl PartialEq for Answer {
    fn eq(&self, other: &Self) -> bool {
        self.encode() == other.encode()
    }
}

/// Answers `$req` by calling the operator of that name on `$store` (a
/// `MovingObjectStore` or the `RefStore`), reading the fleet through
/// the indexed operators or, given `scan`, their `_scan` twins
/// (`predict_nearest_prob` has none and reads through the index).
macro_rules! serve {
    ($store:expr, $req:expr, $pool:expr) => {
        serve!($store, $req, $pool; predict_range predict_within predict_nearest predict_nearest_prob)
    };
    ($store:expr, $req:expr, $pool:expr, scan) => {
        serve!($store, $req, $pool;
            predict_range_scan predict_within_scan predict_nearest_scan predict_nearest_prob)
    };
    ($store:expr, $req:expr, $pool:expr; $range:ident $within:ident $knn:ident $knn_prob:ident) => {
        match $req {
            Req::Remove(id) => Answer::Removed($store.remove(*id)),
            Req::ObjectCount => Answer::Objects($store.object_count()),
            Req::Report(id, t, p) => Answer::of(R::Ingested(vec![$store.report(*id, *t, *p)])),
            Req::ReportBatch(id, t, ps) => {
                Answer::of(R::Ingested(vec![$store.report_batch(*id, *t, ps)]))
            }
            Req::Wire(body) => Answer::of(match *body {
                Q::ReportMany(ref reports) => R::Ingested($store.report_many(reports)),
                Q::PredictBatch(ref queries) => {
                    R::Predictions($store.predict_batch_with(queries, $pool))
                }
                Q::PredictRange {
                    ref region,
                    query_time,
                } => R::Range($store.$range(region, query_time)),
                Q::PredictWithin {
                    ref region,
                    query_time: t,
                    tau,
                } => R::Within($store.$within(region, t, tau)),
                Q::PredictNearest {
                    ref focus,
                    query_time: t,
                    k,
                } => R::Nearest($store.$knn(focus, t, k as usize)),
                Q::PredictNearestProb {
                    ref focus,
                    query_time: t,
                    k,
                    tau,
                } => R::NearestProb($store.$knn_prob(focus, t, k as usize, tau)),
                Q::Stats(id) => R::Stats($store.stats(id)),
                Q::ForceRetrain(id) => R::Retrained($store.force_retrain(id)),
                Q::Snapshot => R::Snapshotted($store.snapshot().map_err(|e| e.kind())),
                ref other => unreachable!("the harness never sends {other:?}"),
            }),
        }
    };
}

// ------------------------------------------------------------- the model

type Hit = (ObjectId, Point, f64);
type Ingested = Result<(), IngestError>;
type Predicted = Result<Prediction, QueryError>;

/// The store as the paper states it, with nothing a real store adds for
/// speed or survival: no WAL, chunks, trainer, index or pool. An object
/// is its points and first timestamp; at each cadence crossing its model
/// becomes `HybridPredictor::build` over the whole history; a fleet query
/// predicts every object in id order under the four rules of
/// `store.rs::score`. The operators mirror `MovingObjectStore`'s.
#[derive(Clone)]
pub struct RefStore {
    config: StoreConfig,
    objects: BTreeMap<u64, RefObject>,
    /// What untrained objects answer through: no patterns.
    untrained: HybridPredictor,
}

#[derive(Clone, Default)]
struct RefObject {
    start: Timestamp,
    points: Vec<Point>,
    trained_subs: usize,
    model: Option<HybridPredictor>,
}

impl RefStore {
    pub fn new(config: &StoreConfig) -> Self {
        let regions = RegionSet::new(Vec::new(), config.discovery.period);
        let untrained = HybridPredictor::from_parts(regions, Vec::new(), config.hpm);
        let (config, objects) = (config.clone(), BTreeMap::new());
        RefStore {
            config,
            objects,
            untrained,
        }
    }

    /// The timestamp `id`'s next report must carry (`None`: untracked).
    pub fn end(&self, id: u64) -> Option<Timestamp> {
        let o = self.objects.get(&id)?;
        Some(o.start + o.points.len() as Timestamp)
    }

    /// Tracks `id` from `t` with no samples yet, unless it is tracked:
    /// what a real store shows while a first report's run lands.
    pub fn open(&mut self, id: u64, start: Timestamp) {
        let fresh = RefObject {
            start,
            ..Default::default()
        };
        self.objects.entry(id).or_insert(fresh);
    }

    /// The state as words: per object its id, start, trained periods and
    /// points (the model is a function of them).
    pub fn key(&self) -> Vec<u64> {
        let mut key = Vec::new();
        for (&id, o) in &self.objects {
            key.extend([id, o.start, o.trained_subs as u64, o.points.len() as u64]);
            key.extend(o.points.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits()]));
        }
        key
    }

    pub fn serve(&mut self, reqs: &[Req]) -> Vec<Answer> {
        let pool = WorkerPool::new(1);
        reqs.iter().map(|req| serve!(self, req, &pool)).collect()
    }

    fn report(&mut self, id: ObjectId, t: Timestamp, p: Point) -> Ingested {
        self.report_batch(id, t, &[p])
    }

    /// A batch holding a non-finite point is refused whole; otherwise
    /// its reports apply in order up to the first error (its timestamps
    /// stop at `Timestamp::MAX`, which is one).
    fn report_batch(&mut self, id: ObjectId, t: Timestamp, ps: &[Point]) -> Ingested {
        if ps.iter().any(|p| !p.is_finite()) {
            return Err(IngestError::NonFinitePosition);
        }
        (ps.iter().zip(0..)).try_for_each(|(p, i)| self.admit(id, t.saturating_add(i), *p))
    }

    fn report_many(&mut self, reports: &[(ObjectId, Timestamp, Point)]) -> Vec<Ingested> {
        let admit = |&(id, t, p): &(ObjectId, Timestamp, Point)| self.admit(id, t, p);
        reports.iter().map(admit).collect()
    }

    /// One report, judged on its own. A non-finite one, or one at
    /// `Timestamp::MAX`, never creates an object; any other starts an
    /// untracked object's history.
    fn admit(&mut self, id: ObjectId, t: Timestamp, p: Point) -> Ingested {
        if !p.is_finite() {
            return Err(IngestError::NonFinitePosition);
        }
        if t == Timestamp::MAX {
            return Err(IngestError::TimestampOutOfRange);
        }
        let expected = self.end(id.0).unwrap_or(t);
        if t != expected {
            return Err(IngestError::NonContiguous { expected, got: t });
        }
        self.open(id.0, t);
        let (c, o) = (&self.config, self.objects.get_mut(&id.0).expect("open"));
        o.points.push(p);
        let (period, trained) = (c.discovery.period as usize, o.trained_subs);
        let full = o.points.len() / period;
        let due = match trained {
            0 => full >= c.min_train_subs,
            _ => full >= trained + c.retrain_every_subs,
        };
        if o.points.len().is_multiple_of(period) && due {
            let history = Trajectory::new(o.start, o.points.clone());
            let (discovery, mining) = (&c.discovery, &c.mining);
            o.model = Some(HybridPredictor::build(&history, discovery, mining, c.hpm));
            o.trained_subs = full;
        }
        Ok(())
    }

    fn remove(&mut self, id: ObjectId) -> bool {
        self.objects.remove(&id.0).is_some()
    }

    fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// One query after another: the pool is the real stores' business.
    fn predict_batch_with(&self, q: &[(ObjectId, Timestamp)], _: &WorkerPool) -> Vec<Predicted> {
        q.iter().map(|&(id, t)| self.predict(id, t)).collect()
    }

    fn predict_range(&self, region: &BoundingBox, t: Timestamp) -> Vec<(ObjectId, Point)> {
        let hits = self.fleet(t, None, |p| {
            let best = p.try_best()?;
            region.contains(&best).then_some((best, 0.0))
        });
        hits.into_iter().map(|(id, best, _)| (id, best)).collect()
    }

    fn predict_within(&self, region: &BoundingBox, t: Timestamp, tau: f64) -> Vec<Hit> {
        let hits = self.fleet(t, None, |p| {
            let mass = p.probability_in(region);
            Some((p.try_best()?, mass)).filter(|_| p.possibly_in(region) && mass >= tau)
        });
        // The τ = 0 law: a best point inside the region lies in its own
        // answer's region, which therefore touches the region.
        if tau == 0.0 {
            for (id, best) in self.predict_range(region, t) {
                let covered = hits.iter().any(|h| (h.0, h.1) == (id, best));
                assert!(covered, "τ = 0 misses the point-range hit {id} at {best}");
            }
        }
        hits
    }

    fn predict_nearest(&self, focus: &Point, t: Timestamp, k: usize) -> Vec<Hit> {
        self.fleet(t, Some(k), |p| p.try_best().map(|b| (b, b.distance(focus))))
    }

    fn predict_nearest_prob(&self, focus: &Point, t: Timestamp, k: usize, tau: f64) -> Vec<Hit> {
        self.fleet(t, Some(k), |p| {
            let radius = p.confidence_distance(focus, tau);
            Some((p.try_best()?, radius)).filter(|_| radius.is_finite())
        })
    }

    fn stats(&self, id: ObjectId) -> Result<ObjectStats, QueryError> {
        let o = self.objects.get(&id.0);
        let o = o.ok_or(QueryError::UnknownObject(id))?;
        let model = o.model.as_ref();
        Ok(ObjectStats {
            samples: o.points.len(),
            full_periods: o.points.len() / self.config.discovery.period as usize,
            trained_periods: o.trained_subs,
            patterns: model.map_or(0, |m| m.patterns().len()),
            regions: model.map_or(0, |m| m.regions().len()),
            approx_bytes: 0,
        })
    }

    /// Cadence-neutral: the model rebuilt from the periods it was
    /// trained on is the model, so only the refusal shows.
    fn force_retrain(&self, id: ObjectId) -> Result<(), QueryError> {
        let (full_periods, min_train_subs) =
            (self.stats(id)?.full_periods, self.config.min_train_subs);
        match full_periods < min_train_subs {
            true => Err(QueryError::InsufficientHistory {
                full_periods,
                min_train_subs,
            }),
            false => Ok(()),
        }
    }

    fn snapshot(&self) -> std::io::Result<bool> {
        Ok(false)
    }

    fn predict(&self, id: ObjectId, query_time: Timestamp) -> Predicted {
        let o = self.objects.get(&id.0);
        let o = o.ok_or(QueryError::UnknownObject(id))?;
        if o.points.is_empty() {
            return Err(QueryError::NoHistory(id));
        }
        let current_time = o.start + o.points.len() as Timestamp - 1;
        let (current, requested) = (current_time, query_time);
        if query_time <= current_time {
            return Err(QueryError::NotInFuture { current, requested });
        }
        if query_time - current_time > u64::from(u32::MAX) {
            return Err(QueryError::HorizonOutOfRange { current, requested });
        }
        let recent = &o.points[o.points.len().saturating_sub(self.config.recent_len)..];
        let query = PredictiveQuery {
            recent,
            current_time,
            query_time,
        };
        Ok(o.model.as_ref().unwrap_or(&self.untrained).predict(&query))
    }

    /// Every object, in id order, whose prediction at `t` `score`s — or,
    /// given `k`, the `k` best of them by `(score, id)`.
    fn fleet(
        &self,
        t: Timestamp,
        k: Option<usize>,
        score: impl Fn(&Prediction) -> Option<(Point, f64)>,
    ) -> Vec<Hit> {
        let ids = self.objects.keys().map(|&raw| ObjectId(raw));
        let scored = ids.filter_map(|id| Some((id, score(&self.predict(id, t).ok()?)?)));
        let mut hits: Vec<Hit> = scored.map(|(id, (best, s))| (id, best, s)).collect();
        if let Some(k) = k {
            hits.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
            hits.truncate(k);
        }
        hits
    }
}

// ----------------------------------------------------------- the targets

/// A real store's answer, read through the index.
pub fn execute(store: &MovingObjectStore, req: &Req, pool: &WorkerPool) -> Answer {
    serve!(store, req, pool)
}

/// A memory store fed `log` (accepted reports and removes) in order.
pub fn replayed(config: &StoreConfig, log: &[Req]) -> MovingObjectStore {
    let store = MovingObjectStore::new(config.clone());
    log.iter()
        .for_each(|req| _ = execute(&store, req, store.pool()));
    store
}

/// Target (a): one memory store read two ways — through the index on a
/// 1-thread pool, and on a 4-thread pool through the `_scan` twins the
/// system benchmark checks the index against (`predict_nearest_prob`,
/// which has no twin, through the index again). A mutation runs once,
/// and both views get its answer.
pub struct Memory(MovingObjectStore, [WorkerPool; 2]);

impl Memory {
    pub fn new(store: MovingObjectStore) -> Self {
        Memory(store, [WorkerPool::new(1), WorkerPool::new(4)])
    }

    pub fn serve(&self, reqs: &[Req]) -> [Vec<Answer>; 2] {
        let Memory(store, [one, four]) = self;
        let [mut indexed, mut scanned] = [Vec::new(), Vec::new()];
        for req in reqs {
            let answer = execute(store, req, one);
            let reads = |q: &Q| !matches!(q, Q::ReportMany(_) | Q::ForceRetrain(_) | Q::Snapshot);
            scanned.push(match req {
                Req::Wire(q) if reads(q) => scan(store, req, four),
                _ => answer.clone(),
            });
            indexed.push(answer);
        }
        [indexed, scanned]
    }
}

fn scan(store: &MovingObjectStore, req: &Req, pool: &WorkerPool) -> Answer {
    serve!(store, req, pool, scan)
}

/// Where a crash tears one segment of the newest WAL epoch: at a frame
/// boundary (the header's end, or offset 0: a segment never written,
/// which removes the file), or strictly inside a frame.
#[derive(Debug, Clone, Copy)]
pub struct Cut {
    pub segment: usize,
    pub at: usize,
    pub mid_frame: bool,
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// The durable view's WAL: group commit (records per frame) and the
/// automatic snapshot cadence in records (0: only on `Snapshot`).
pub type Wal = (usize, u64);

/// Target (b): a store on a data directory, fsync off — the one a
/// reopen or a crash acts on. Above group commit 1 a clean drop flushes
/// the partial batch a killed process would lose, and a reopen must
/// find it; a crash tears what the drop wrote.
pub struct Durable {
    config: StoreConfig,
    durability: DurabilityConfig,
    store: Option<MovingObjectStore>,
}

impl Durable {
    pub fn new(config: &StoreConfig, wal: Wal) -> Result<Self, String> {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hpm-model-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durability = DurabilityConfig::new(dir);
        (durability.group_commit, durability.snapshot_every) = wal;
        durability.fsync = FsyncPolicy::Never;
        let mut durable = Durable {
            config: config.clone(),
            durability,
            store: None,
        };
        durable.reopen(config.shards)?;
        Ok(durable)
    }

    pub fn serve(&self, reqs: &[Req]) -> Vec<Answer> {
        let store = self.store.as_ref().expect("open");
        let serve = |req| execute(store, req, store.pool());
        reqs.iter().map(serve).collect()
    }

    /// The oldest and the newest WAL epoch the directory's segments are
    /// named by; the store writes the newest.
    pub fn epochs(&self) -> (u64, u64) {
        let names = std::fs::read_dir(&self.durability.dir);
        let names = names.into_iter().flatten().flatten();
        let epoch = |name: &str| name.strip_prefix("wal-")?.split('-').next()?.parse().ok();
        let epochs = names.filter_map(|e| epoch(e.file_name().to_str()?));
        epochs.fold((u64::MAX, 0), |(lo, hi), e| (lo.min(e), hi.max(e)))
    }

    /// Drops the store cleanly and opens it again on `shards` shards.
    pub fn reopen(&mut self, shards: usize) -> Result<(), String> {
        self.store = None;
        self.config.shards = shards;
        let opened = MovingObjectStore::open(self.config.clone(), self.durability.clone());
        self.store = Some(opened.map_err(|e| format!("open failed: {e}"))?);
        Ok(())
    }

    /// Drops the store, tears the segments of WAL epoch `epoch` at
    /// `cuts` and opens it again; returns how many records of each
    /// object the torn segments still hold.
    pub fn crash(&mut self, epoch: u64, cuts: &[Cut]) -> Result<BTreeMap<u64, usize>, String> {
        self.store = None;
        let io = |e: std::io::Error| format!("tearing the WAL: {e}");
        let segment = |shard| self.durability.dir.join(format!("wal-{epoch}-{shard}.log"));
        for cut in cuts {
            let path = segment(cut.segment % self.config.shards);
            let Ok(bytes) = std::fs::read(&path) else {
                continue; // an earlier cut removed it
            };
            let mut ends = vec![0, WAL_MAGIC.len().min(bytes.len())];
            scan_wal_runs(&bytes, |_, end| {
                ends.extend((ends.last() != Some(&end)).then_some(end))
            });
            let at = match (cut.mid_frame, ends.len() - 2) {
                (false, _) => ends[cut.at % ends.len()],
                (true, 0) => cut.at % (bytes.len() + 1),
                (true, frames) => {
                    let (lo, hi) = (ends[1 + cut.at % frames], ends[2 + cut.at % frames]);
                    lo + 1 + cut.at % (hi - lo - 1)
                }
            };
            match at {
                0 => std::fs::remove_file(&path),
                _ => (std::fs::OpenOptions::new().write(true).open(&path))
                    .and_then(|f| f.set_len(at as u64)),
            }
            .map_err(io)?;
        }
        let mut survivors = BTreeMap::new();
        for shard in 0..self.config.shards {
            let bytes = std::fs::read(segment(shard)).unwrap_or_default();
            scan_wal_runs(&bytes, |run, _| {
                *survivors.entry(run.object).or_default() += run.points.len().max(1);
            });
        }
        self.reopen(self.config.shards)?;
        Ok(survivors)
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        self.store = None;
        let _ = std::fs::remove_dir_all(&self.durability.dir);
    }
}

/// Target (c): a memory store behind `hpm-server` on loopback.
pub struct Wire {
    store: Arc<MovingObjectStore>,
    addr: SocketAddr,
    client: Client,
    server: (ServerHandle, Option<JoinHandle<std::io::Result<()>>>),
}

impl Wire {
    pub fn new(store: MovingObjectStore) -> Result<Self, String> {
        let store = Arc::new(store);
        let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", Default::default());
        let server = server.map_err(|e| format!("bind: {e}"))?;
        let (addr, handle) = (server.local_addr(), server.handle());
        let serving = std::thread::spawn(move || server.serve());
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Wire {
            store,
            addr,
            client,
            server: (handle, Some(serving)),
        })
    }

    /// Pipelines the requests: no reply is read before the last one is
    /// sent. The calls the wire has no verb for run in process, once
    /// the replies before them are in; a single report goes as a
    /// one-report `ReportMany`.
    pub fn serve(&mut self, reqs: &[Req]) -> Result<Vec<Answer>, String> {
        let (mut answers, mut in_flight) = (Vec::with_capacity(reqs.len()), Vec::new());
        for req in reqs {
            let Some(body) = verb(req) else {
                self.drain(&mut in_flight, &mut answers)?;
                answers.push(execute(&self.store, req, self.store.pool()));
                continue;
            };
            in_flight.push(self.client.send(body).map_err(|e| format!("send: {e}"))?);
        }
        self.drain(&mut in_flight, &mut answers)?;
        Ok(answers)
    }

    /// A client of its own, for one thread of a concurrent history: it
    /// sends a request as [`serve`](Self::serve) does, one at a time.
    pub fn connect(&self) -> Result<impl FnMut(&Req) -> Result<Answer, String> + '_, String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        Ok(move |req: &Req| match verb(req) {
            Some(body) => client
                .call(body)
                .map(Answer::of)
                .map_err(|e| format!("{e}")),
            None => Ok(execute(&self.store, req, self.store.pool())),
        })
    }

    /// Reads the replies to the requests in flight, which come back in
    /// order.
    fn drain(&mut self, in_flight: &mut Vec<u64>, answers: &mut Vec<Answer>) -> Result<(), String> {
        for sent in in_flight.drain(..) {
            let reply = self.client.recv().map_err(|e| format!("recv: {e}"))?;
            if reply.correlation != sent {
                return Err(format!("reply {} to request {sent}", reply.correlation));
            }
            answers.push(Answer::of(reply.body));
        }
        Ok(())
    }
}

/// The wire verb a request goes as: a single report as a one-report
/// `ReportMany`; `None` for the calls the wire has no verb for.
fn verb(req: &Req) -> Option<Q> {
    match req {
        Req::Wire(body) => Some(body.clone()),
        Req::Report(id, t, p) => Some(Q::ReportMany(vec![(*id, *t, *p)])),
        Req::ReportBatch(..) | Req::Remove(_) | Req::ObjectCount => None,
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        self.server.0.shutdown();
        if let Some(serving) = self.server.1.take() {
            let _ = serving.join();
        }
    }
}
