//! One model for every path to an answer. Random op traces run against
//! a deliberately naive reference store (`RefStore`) and three real
//! targets: (a) a memory store, read through the index on a 1-thread
//! pool and through the `_scan` twins on a 4-thread pool; (b) a durable
//! store, which `Reopen` (onto 1 to 8 shards) and `Crash` (tearing the
//! newest WAL epoch) act on, its WAL a case dimension — group commit 1
//! or 3, automatic snapshots off or every few records; (c) a memory
//! store behind `hpm-server`, each step pipelined. After every op, every
//! answer — the op's own, the object count, each object's stats — must
//! equal the model's byte for byte, and a failing trace shrinks to a
//! minimal one. Ops pick timestamps relative to the state they run in,
//! so every sub-trace is a valid trace. A new ingest path, read path or
//! operator adds an op here; a new durability knob adds a dimension.

#[path = "model/linearizable.rs"]
mod linearizable;
#[path = "model/stores.rs"]
mod stores;

use hpm_check::prelude::*;
use hpm_check::Tree;
use hpm_core::HpmConfig;
use hpm_geo::{BoundingBox, Point};
use hpm_objectstore::{IndexConfig, IngestError, ObjectId, ObjectStats, QueryError, StoreConfig};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_rand::{Rng, SmallRng};
use hpm_server::{RequestBody as Q, ResponseBody as R};
use hpm_trajectory::Timestamp;
use linearizable::Call;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use stores::{execute, replayed, Answer, Cut, Durable, Memory, RefStore, Req, Wal, Wire};

const PERIOD: u32 = 4;

/// The durable view's WAL when a fixed trace does not vary it: written
/// through, snapshots only on `Snapshot`.
const PLAIN: Wal = (1, 0);
const MIN_TRAIN_SUBS: usize = 2;

/// Object ids are `0..IDS`; `i` and `i + IDS / 2` mirror each other.
const IDS: u64 = 8;

/// A case's store: `shards`, `threads`, the retrain cadence, and one of
/// four index shapes — auto; horizon 1 (almost everything expires);
/// small cells (many buckets); one coarse bucket.
fn config(shards: usize, threads: usize, retrain_every_subs: usize, index: u8) -> StoreConfig {
    let (horizon, cell) = [(0, 0.0), (1, 0.0), (3, 5.0), (20, 500.0)][usize::from(index % 4)];
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
        min_train_subs: MIN_TRAIN_SUBS,
        retrain_every_subs,
        recent_len: 2,
        shards,
        threads,
        index: IndexConfig { horizon, cell },
    }
}

/// Where object `id` is at `t`. By `id % 4`: a commuter (four stops a
/// day; every fifth day somewhere else entirely, which drifts its
/// clusters), a noisy drifter (motion fallback), a fast mover, a
/// near-stationary object. The upper half of the ids mirror the lower
/// in x, so rankings around the y axis tie.
fn position(id: u64, t: Timestamp) -> Point {
    let jitter = (t.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as f64 / 1024.0;
    let day = t / u64::from(PERIOD);
    let p = match id % 4 {
        0 if day % 5 == 4 => Point::new(400.0 + 0.3 * (t % 4) as f64, 400.0),
        0 => {
            let (x, y) = [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0), (100.0, 50.0)][(t % 4) as usize];
            Point::new(x + 0.2 * (day % 3) as f64 + 0.1 * jitter, y)
        }
        1 => Point::new(10.0 + 1.5 * t as f64 + jitter, 0.5 * t as f64),
        2 => Point::new(80.0 * t as f64 - 300.0, 40.0 - 60.0 * t as f64),
        _ => Point::new(-40.0 + 0.05 * jitter, 70.0),
    };
    let mirror = if id % IDS >= IDS / 2 { -1.0 } else { 1.0 };
    Point::new(mirror * p.x, p.y)
}

/// A report's timestamp, relative to its object's next one: that one,
/// `n + 1` past it, wholly before it (`n` further back), or that one
/// with a NaN position (a batch's last); or `Timestamp::MAX`, which no
/// history holds (a batch's first, the rest pinned there). An untracked
/// object starts wherever an admissible report puts it.
#[derive(Debug, Clone, Copy)]
enum When {
    Next,
    Skip(u64),
    Past(u64),
    NonFinite,
    Max,
}

/// A query time: `d` past a current time — the queried object's, the
/// one a fleet query is near, else the fleet's latest — or absolute.
#[derive(Debug, Clone, Copy)]
enum At {
    Ahead(u64),
    Abs(Timestamp),
}

/// A query point: an object's last position (the origin when it is
/// untracked), or a fixed one. Boxes are squares around one.
#[derive(Debug, Clone, Copy)]
enum Spot {
    Near(u64),
    Fixed(f64, f64),
}

/// An op. Fleet queries carry their box's half side, and `tau`. `Exact`
/// is a report with its timestamp and position given, for fixed traces.
#[derive(Debug, Clone)]
enum Op {
    Report(u64, When),
    Exact(u64, Timestamp, Point),
    ReportBatch(u64, When, usize),
    ReportMany(Vec<(u64, When)>),
    Remove(u64),
    ForceRetrain(u64),
    Snapshot,
    Reopen(usize),
    Crash(Vec<Cut>),
    PredictBatch(Vec<(u64, At)>),
    Range(Spot, f64, At),
    Within(Spot, f64, At, f64),
    Nearest(Spot, At, u64),
    NearestProb(Spot, At, u64, f64),
}

/// An op on ids `0..ids`.
fn random_op(rng: &mut SmallRng, ids: u64) -> Op {
    let when = |rng: &mut SmallRng| match rng.gen_range(0..13u32) {
        0..=8 => When::Next,
        9 => When::Skip(rng.gen_range(0..6)),
        10 => When::Past(rng.gen_range(0..6)),
        11 => When::Max,
        _ => When::NonFinite,
    };
    let at = |rng: &mut SmallRng| match rng.gen_range(0..6u32) {
        0 => At::Abs(rng.gen_range(0..20)),
        1 => At::Ahead(rng.gen_range(0..3 * u64::from(PERIOD))),
        _ => At::Ahead(rng.gen_range(0..=u64::from(PERIOD))),
    };
    // Half the ops go to the two commuters, so some train long enough
    // to answer from patterns.
    let id = match rng.gen_bool(0.5) {
        true => rng.gen_range(0..2u64) * ids / 2,
        false => rng.gen_range(0..ids),
    };
    let spot = match rng.gen_range(0..4u32) {
        0 | 1 => Spot::Near(rng.gen_range(0..ids)),
        2 => Spot::Fixed(0.0, rng.gen_range(-2..8) as f64 * 10.0),
        _ => Spot::Fixed(rng.gen_f64() * 400.0 - 150.0, rng.gen_f64() * 300.0 - 150.0),
    };
    let half = [0.0, 1.0, 5.0, 30.0, 500.0][rng.gen_range(0..5usize)];
    let tau = [0.0, 0.1, 0.5, 0.9, 1.5][rng.gen_range(0..5usize)];
    let (k, t) = (rng.gen_range(0..=ids + 2), at(rng));
    let cut = |rng: &mut SmallRng| Cut {
        segment: rng.gen_range(0..8),
        at: rng.gen_range(0..1 << 16),
        mid_frame: rng.gen_bool(0.5),
    };
    match rng.gen_range(0..100u32) {
        0..=12 => Op::Report(id, when(rng)),
        13..=32 => Op::ReportBatch(id, when(rng), rng.gen_range(1..=3 * PERIOD as usize)),
        33..=44 => {
            let n = rng.gen_range(1..13);
            Op::ReportMany((0..n).map(|_| (rng.gen_range(0..ids), when(rng))).collect())
        }
        45..=47 => Op::Remove(id),
        48..=50 => Op::ForceRetrain(id),
        51..=53 => Op::Snapshot,
        54..=56 => Op::Reopen(rng.gen_range(1..=8)),
        57..=59 => Op::Crash((0..rng.gen_range(0..3)).map(|_| cut(rng)).collect()),
        60..=67 => {
            let (pair, n) = ([id, rng.gen_range(0..=ids)], rng.gen_range(1..6));
            Op::PredictBatch((0..n).map(|i| (pair[i % 2], at(rng))).collect())
        }
        68..=75 => Op::Range(spot, half, t),
        76..=83 => Op::Within(spot, half, t, tau),
        84..=91 => Op::Nearest(spot, t, k),
        _ => Op::NearestProb(spot, t, k, tau),
    }
}

/// Traces shrink by dropping whole ops; a batch also towards fewer
/// reports, a frame towards fewer reports or a crash fewer tears (either
/// half, or all but one).
fn op_tree(op: Op) -> Tree<Op> {
    fn fewer<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
        let (front, back) = v.split_at(v.len() / 2);
        let mut out = vec![front.to_vec(), back.to_vec()];
        out.extend((0..v.len()).map(|i| [&v[..i], &v[i + 1..]].concat()));
        out.retain(|fewer| fewer.len() < v.len());
        out
    }
    Tree::with_children(op.clone(), move || {
        let simpler = match &op {
            Op::ReportBatch(id, w, len) if *len > 1 => {
                vec![
                    Op::ReportBatch(*id, *w, 1),
                    Op::ReportBatch(*id, *w, len / 2),
                ]
            }
            Op::ReportMany(r) if r.len() > 1 => fewer(r).into_iter().map(Op::ReportMany).collect(),
            Op::Crash(cuts) if !cuts.is_empty() => fewer(cuts).into_iter().map(Op::Crash).collect(),
            _ => Vec::new(),
        };
        simpler.into_iter().map(op_tree).collect()
    })
}

/// The model, the three targets, and the log a crash cuts.
struct Harness {
    config: StoreConfig,
    model: RefStore,
    memory: Memory,
    durable: Durable,
    wire: Wire,
    /// Accepted reports and removes, with the WAL epoch each went to.
    log: Vec<(u64, Req)>,
}

impl Harness {
    /// Runs one op everywhere. Returns the model's answers: the op's
    /// own, the object count, then each object's stats.
    fn step(&mut self, op: &Op) -> Result<Vec<Answer>, String> {
        // What an ingest call logs goes to this epoch, even when the
        // automatic snapshot that ends the call rotates past it.
        let epoch = self.durable.epochs().1;
        let mut reqs = match op {
            Op::Reopen(shards) => {
                self.durable.reopen(*shards)?;
                Vec::new()
            }
            Op::Crash(cuts) => {
                self.crash(cuts)?;
                Vec::new()
            }
            op => vec![request(|id| self.model.end(id), op)],
        };
        reqs.push(Req::ObjectCount);
        reqs.extend((0..IDS).map(|id| Req::Wire(Q::Stats(ObjectId(id)))));
        let model = self.model.serve(&reqs);
        let [indexed, scanned] = self.memory.serve(&reqs);
        // Whether a snapshot writes one: only the durable store's does;
        // the model's, like a memory store's, answers `Ok(false)`.
        let views = [
            ("memory store via the index, 1 thread", false, indexed),
            ("memory store via the scans, 4 threads", false, scanned),
            ("durable store", true, self.durable.serve(&reqs)),
            ("server", false, self.wire.serve(&reqs)?),
        ];
        for (view, writes, got) in views {
            let snapshotted = Answer::Body(R::Snapshotted(Ok(writes)));
            for ((req, want), got) in reqs.iter().zip(&model).zip(&got) {
                let want = match want {
                    Answer::Body(R::Snapshotted(Ok(_))) => &snapshotted,
                    want => want,
                };
                if got != want {
                    let (want, got) = (format!("{want:?}"), format!("{got:?}"));
                    let e = format!("{view} differs on {req:?}\n model: {want}\n {view}: {got}");
                    return Err(e);
                }
            }
        }
        if matches!(op, Op::Snapshot) && self.durable.epochs().0 < self.durable.epochs().1 {
            return Err("the snapshot left older WAL segments behind".into());
        }
        self.record(epoch, &reqs, &model);
        Ok(model)
    }

    /// Logs, report by report, what the model accepted, in the WAL
    /// `epoch` it went to.
    fn record(&mut self, epoch: u64, reqs: &[Req], answers: &[Answer]) {
        for (req, answer) in reqs.iter().zip(answers) {
            self.log
                .extend(logged(req, answer).into_iter().map(|r| (epoch, r)));
        }
    }

    /// Tears the durable store's newest epoch, keeps what its segments
    /// still hold (a prefix of each object's records of that epoch) and
    /// rebuilds everything else from the log.
    fn crash(&mut self, cuts: &[Cut]) -> Result<(), String> {
        let torn = self.durable.epochs().1;
        let survivors = self.durable.crash(torn, cuts)?;
        let mut kept: BTreeMap<u64, usize> = BTreeMap::new();
        self.log.retain(|(epoch, req)| {
            let (Req::Report(id, ..) | Req::Remove(id)) = req else {
                unreachable!("only reports and removes are logged")
            };
            let n = kept.entry(id.0).or_default();
            *n += usize::from(*epoch == torn);
            *epoch < torn || *n <= survivors.get(&id.0).copied().unwrap_or(0)
        });
        if let Some((id, n)) = survivors.iter().find(|(id, n)| kept.get(id) < Some(n)) {
            let e = format!("the torn WAL holds {n} records of {id} never accepted");
            return Err(e);
        }
        let log: Vec<Req> = self.log.iter().map(|(_, req)| req.clone()).collect();
        self.model = RefStore::new(&self.config);
        self.model.serve(&log);
        self.memory = Memory::new(replayed(&self.config, &log));
        self.wire = Wire::new(replayed(&self.config, &log))?;
        Ok(())
    }
}

/// What a call changed, as the log holds it: each report it accepted, one
/// by one, and a remove that removed.
fn logged(req: &Req, answer: &Answer) -> Vec<Req> {
    let ok = |i: usize| matches!(answer, Answer::Body(R::Ingested(r)) if r[i].is_ok());
    match req {
        Req::Report(..) if ok(0) => vec![req.clone()],
        Req::ReportBatch(id, start, ps) if ok(0) => (ps.iter().zip(*start..))
            .map(|(p, t)| Req::Report(*id, t, *p))
            .collect(),
        Req::Wire(Q::ReportMany(reports)) => (reports.iter().enumerate())
            .filter(|&(i, _)| ok(i))
            .map(|(_, &(id, t, p))| Req::Report(id, t, p))
            .collect(),
        Req::Remove(_) if matches!(answer, Answer::Removed(true)) => vec![req.clone()],
        _ => Vec::new(),
    }
}

/// Resolves an op against `end`, the timestamp each object's next report
/// must carry (`None`: untracked). An object's last position is where it
/// was at the timestamp before; the fleet's clock is the latest current
/// time (0 when the fleet is empty).
fn request(end: impl Fn(u64) -> Option<Timestamp>, op: &Op) -> Req {
    let clock = (0..IDS).filter_map(&end).max().map_or(0, |end| end - 1);
    let time = |at: &At, s: &Spot| match (*at, *s) {
        (At::Abs(t), _) => t,
        (At::Ahead(d), Spot::Near(id)) => end(id).map_or(clock, |end| end - 1).saturating_add(d),
        (At::Ahead(d), _) => clock.saturating_add(d),
    };
    let spot = |s: &Spot| match *s {
        Spot::Near(id) => end(id).map_or(Point::ORIGIN, |end| position(id, end - 1)),
        Spot::Fixed(x, y) => Point::new(x, y),
    };
    let square = |s: &Spot, h: f64| {
        let c = spot(s);
        let (min, max) = (Point::new(c.x - h, c.y - h), Point::new(c.x + h, c.y + h));
        BoundingBox { min, max }
    };
    Req::Wire(match op {
        Op::Report(id, w) => {
            let (t, p) = report(end(*id), *id, *w);
            return Req::Report(ObjectId(*id), t, p);
        }
        Op::Exact(id, t, p) => return Req::Report(ObjectId(*id), *t, *p),
        Op::ReportBatch(id, w, len) => {
            let (start, len) = span(end(*id), *w, *len as u64);
            let at = |i| position(*id, start.saturating_add(i));
            let mut ps: Vec<Point> = (0..len).map(at).collect();
            if let When::NonFinite = w {
                ps[len as usize - 1] = Point::new(f64::NAN, 0.0);
            }
            return Req::ReportBatch(ObjectId(*id), start, ps);
        }
        Op::ReportMany(entries) => {
            // Each report resolves against the ends the frame's
            // earlier reports leave.
            let mut ends: BTreeMap<u64, Option<Timestamp>> = BTreeMap::new();
            let reports = entries.iter().map(|&(id, w)| {
                let end = ends.entry(id).or_insert_with(|| end(id));
                let (t, p) = report(*end, id, w);
                if p.is_finite() && t < Timestamp::MAX && end.is_none_or(|e| e == t) {
                    *end = Some(t + 1);
                }
                (ObjectId(id), t, p)
            });
            Q::ReportMany(reports.collect())
        }
        Op::Remove(id) => return Req::Remove(ObjectId(*id)),
        Op::ForceRetrain(id) => Q::ForceRetrain(ObjectId(*id)),
        Op::Snapshot => Q::Snapshot,
        Op::PredictBatch(queries) => {
            let query = |&(id, at)| (ObjectId(id), time(&at, &Spot::Near(id)));
            Q::PredictBatch(queries.iter().map(query).collect())
        }
        Op::Range(s, half, at) => Q::PredictRange {
            region: square(s, *half),
            query_time: time(at, s),
        },
        Op::Within(s, half, at, tau) => Q::PredictWithin {
            region: square(s, *half),
            query_time: time(at, s),
            tau: *tau,
        },
        Op::Nearest(s, at, k) => Q::PredictNearest {
            focus: spot(s),
            query_time: time(at, s),
            k: *k,
        },
        Op::NearestProb(s, at, k, tau) => Q::PredictNearestProb {
            focus: spot(s),
            query_time: time(at, s),
            k: *k,
            tau: *tau,
        },
        Op::Reopen(_) | Op::Crash(_) => unreachable!("not a request"),
    })
}

/// One report's timestamp and position.
fn report(end: Option<Timestamp>, id: u64, w: When) -> (Timestamp, Point) {
    let (t, _) = span(end, w, 1);
    match w {
        When::NonFinite => (t, Point::new(f64::NAN, 0.0)),
        _ => (t, position(id, t)),
    }
}

/// The first timestamp and the length of a run of `len` reports.
fn span(end: Option<Timestamp>, w: When, len: u64) -> (Timestamp, u64) {
    match (w, end) {
        (When::Max, _) => (Timestamp::MAX, len),
        (When::Next | When::NonFinite, end) => (end.unwrap_or(0), len),
        (When::Skip(n) | When::Past(n), None) => (n, len),
        (When::Skip(n), Some(e)) => (e + 1 + n, len),
        (When::Past(n), Some(e)) => {
            let start = e.saturating_sub(len + n);
            (start, len.min(e - start))
        }
    }
}

/// Runs `ops` from empty, the durable view on `wal`; the model's
/// answers, op by op.
fn run(config: StoreConfig, wal: Wal, ops: &[Op]) -> Result<Vec<Vec<Answer>>, String> {
    let mut harness = Harness {
        model: RefStore::new(&config),
        memory: Memory::new(replayed(&config, &[])),
        durable: Durable::new(&config, wal)?,
        wire: Wire::new(replayed(&config, &[]))?,
        config,
        log: Vec::new(),
    };
    let mut answers = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let step = harness.step(op);
        answers.push(step.map_err(|e| format!("op {i} ({op:?}): {e}"))?);
    }
    Ok(answers)
}

// ---------------------------------------------------- concurrent histories

/// The ids a concurrent history reports on: one object of each kind.
const HOT: u64 = 4;

/// Each object's next timestamp as the threads last saw it (0: never).
struct Hints([AtomicU64; IDS as usize + 1]);

impl Hints {
    fn end(&self, id: u64) -> Option<Timestamp> {
        Some(self.0[id as usize].load(Relaxed)).filter(|&end| end > 0)
    }

    /// Moves each object's next timestamp past the reports `answer`
    /// accepted, and a removed object's a period on: its next life
    /// starts elsewhere.
    fn saw(&self, req: &Req, answer: &Answer) {
        for change in logged(req, answer) {
            let (Req::Report(id, ..) | Req::Remove(id)) = change else {
                unreachable!("only reports and removes are logged")
            };
            let hint = &self.0[id.0 as usize];
            match change {
                Req::Report(_, t, _) => hint.fetch_max(t + 1, Relaxed),
                _ => hint.fetch_add(u64::from(PERIOD), Relaxed),
            };
        }
    }
}

/// `reqs` one after another against `target`, each stamped at invoke
/// and return from `clock`.
fn stamped(
    reqs: impl Iterator<Item = Req>,
    clock: &AtomicU64,
    mut target: impl FnMut(&Req) -> Result<Answer, String>,
) -> Result<Vec<Call>, String> {
    let mut calls = Vec::new();
    for req in reqs {
        let invoke = clock.fetch_add(1, SeqCst);
        let answer = target(&req)?;
        let ret = clock.fetch_add(1, SeqCst);
        calls.push((invoke, ret, req, answer));
    }
    Ok(calls)
}

/// Runs each script on a thread of its own, all at once, against the
/// target `connect` gives each thread.
fn history<T: FnMut(&Req) -> Result<Answer, String>>(
    scripts: &[Vec<Op>],
    clock: &AtomicU64,
    connect: impl Fn() -> Result<T, String> + Sync,
) -> Result<Vec<Call>, String> {
    let (hints, connect) = (&Hints(Default::default()), &connect);
    let run = |ops: &[Op]| {
        let mut target = connect()?;
        let reqs = ops.iter().map(|op| request(|id| hints.end(id), op));
        stamped(reqs, clock, |req| {
            target(req).inspect(|a| hints.saw(req, a))
        })
    };
    let calls = std::thread::scope(|s| {
        let threads: Vec<_> = scripts.iter().map(|o| s.spawn(move || run(o))).collect();
        let joined = threads.into_iter().map(|t| t.join().unwrap());
        joined.collect::<Result<Vec<_>, String>>()
    })?;
    Ok(calls.into_iter().flatten().collect())
}

/// Each object's stats and one prediction past every report.
fn reads() -> impl Iterator<Item = Req> {
    let reads = |id| [Q::Stats(id), Q::PredictBatch(vec![(id, 5_000)])].map(Req::Wire);
    (0..HOT).flat_map(move |id| reads(ObjectId(id)))
}

/// Runs the scripts on (a) a memory store, (b) a memory store behind the
/// server, a client per thread, and (c) a durable store, read before and
/// after it is dropped without a snapshot and reopened; each history
/// must linearize object by object.
fn concurrent(config: StoreConfig, wal: Wal, scripts: &[Vec<Op>]) -> Result<(), String> {
    let (clock, model) = (AtomicU64::new(0), RefStore::new(&config));
    let check = |target: &str, calls: &[Call]| {
        linearizable::check(&model, calls, HOT).map_err(|e| format!("{target}: {e}"))
    };
    let memory = replayed(&config, &[]);
    let serve = |req: &Req| Ok(execute(&memory, req, memory.pool()));
    let mut calls = history(scripts, &clock, || Ok(serve))?;
    calls.extend(stamped(reads(), &clock, serve)?);
    check("memory store", &calls)?;

    let wire = &Wire::new(replayed(&config, &[]))?;
    let mut calls = history(scripts, &clock, || wire.connect())?;
    calls.extend(stamped(reads(), &clock, wire.connect()?)?);
    check("server", &calls)?;

    let mut durable = Durable::new(&config, wal)?;
    let mut calls = history(scripts, &clock, || Ok(durably(&durable)))?;
    calls.extend(stamped(reads(), &clock, durably(&durable))?);
    durable.reopen(config.shards)?;
    calls.extend(stamped(reads(), &clock, durably(&durable))?);
    check("durable store", &calls)
}

/// One request at a time to the durable store.
fn durably(durable: &Durable) -> impl Fn(&Req) -> Result<Answer, String> + '_ {
    move |req| Ok(durable.serve(std::slice::from_ref(req)).remove(0))
}

/// An op of a concurrent history: `random_op`'s on ids `0..HOT`, less
/// those a concurrent history leaves out — snapshots, reopens and
/// crashes act on the whole store, and a kNN rank on other objects.
fn concurrent_op(rng: &mut SmallRng) -> Op {
    loop {
        match random_op(rng, HOT) {
            Op::Snapshot | Op::Reopen(_) | Op::Crash(_) => {}
            Op::Nearest(..) | Op::NearestProb(..) => {}
            op => return op,
        }
    }
}

props! {
    /// Live ≡ indexed ≡ scanned ≡ reopened ≡ recovered ≡ wire ≡ model,
    /// after every op. Knobs: shards, threads, cadence, index shape;
    /// then the durable view's group commit and auto-snapshot cadence.
    fn every_target_agrees_with_the_model(
        knobs in tuple((choice(vec![1, 1, 2, 4]), int(1..=2), int(1..=3), int(0u8..4))),
        ops in vec(Gen::new(|rng| op_tree(random_op(rng, IDS))), 1..96),
        wal in tuple((choice(vec![1, 3]), choice(vec![0, 6]))),
    ) {
        let (shards, threads, every, index) = knobs;
        run(config(shards, threads, every, index), wal, &ops).map_err(CaseError::Fail)?;
    }

    /// 2 to 4 threads of random ops at once, on every target: each
    /// history linearizes object by object against the model. A failing
    /// schedule does not replay, so a case is reported as drawn.
    fn concurrent_histories_linearize_per_object(
        knobs in tuple((choice(vec![1, 2, 4]), int(1..=2), int(1..=3), int(0u8..4))),
        scripts in Gen::new(|rng| {
            let script = |rng: &mut SmallRng| (0..rng.gen_range(1..24)).map(|_| concurrent_op(rng)).collect();
            Tree::leaf((0..rng.gen_range(2..=4)).map(|_| script(rng)).collect::<Vec<Vec<Op>>>())
        }),
        wal in tuple((choice(vec![1, 3]), choice(vec![0, 6]))),
    ) {
        let (shards, threads, every, index) = knobs;
        concurrent(config(shards, threads, every, index), wal, &scripts).map_err(CaseError::Fail)?;
    }
}

// ----------------------------------------------------------- fixed traces

const ORIGIN: Spot = Spot::Fixed(0.0, 0.0);
const EVERYWHERE: f64 = 1e6;

fn answer(answers: &[Vec<Answer>], op: usize) -> &R {
    match &answers[op][0] {
        Answer::Body(body) => body,
        other => panic!("op {op}: {other:?}"),
    }
}

/// The ids a fleet query answered, in answer order.
fn hits(answers: &[Vec<Answer>], op: usize) -> Vec<u64> {
    match answer(answers, op) {
        R::Range(hits) => hits.iter().map(|h| h.0 .0).collect(),
        R::Nearest(h) | R::Within(h) | R::NearestProb(h) => h.iter().map(|h| h.0 .0).collect(),
        other => panic!("op {op}: {other:?}"),
    }
}

/// Object `id`'s stats after op `op`.
fn stats(answers: &[Vec<Answer>], op: usize, id: u64) -> ObjectStats {
    match &answers[op][answers[op].len() - (IDS - id) as usize] {
        Answer::Body(R::Stats(Ok(stats))) => *stats,
        other => panic!("object {id} after op {op}: {other:?}"),
    }
}

/// A reopen used to forget `force_retrain`: the force trained on every
/// full period, ahead of the cadence, while the WAL holds only reports
/// and removes, so `open` rebuilt the cadence's model instead (7
/// periods trained live, 6 reopened at cadence 2; 7 and 5 at cadence 3).
#[test]
fn force_retrain_then_reopen_keeps_the_cadence_model() {
    for (every, samples, trained) in [(2, 7 * 4 + 3, 6), (3, 7 * 4 + 1, 5)] {
        let ops = [
            Op::ReportBatch(0, When::Next, samples),
            Op::ForceRetrain(0),
            Op::Reopen(4),
            Op::PredictBatch((1..=4).map(|d| (0, At::Ahead(d))).collect()),
        ];
        let answers = run(config(4, 2, every, 0), PLAIN, &ops).unwrap();
        assert_eq!(*answer(&answers, 1), R::Retrained(Ok(())));
        assert_eq!(stats(&answers, 2, 0).trained_periods, trained);
    }
}

/// The deleted fleet-query edge suite's six cases, on every target.
#[test]
fn fleet_queries_at_the_edges() {
    // An empty store answers nothing; an untrained fleet answers
    // through the motion function, near and beyond the index horizon;
    // nothing answers at or before every current time (2 for two
    // objects, 12 for four) until the first askable instant.
    let mut ops = vec![
        Op::Within(ORIGIN, EVERYWHERE, At::Abs(100), 0.0),
        Op::NearestProb(ORIGIN, At::Abs(100), 5, 0.0),
    ];
    ops.extend(
        (0..6).map(|id| Op::ReportBatch(id, [When::Next, When::Skip(10)][usize::from(id > 1)], 3)),
    );
    for t in [0, 5, 12, 13, 50] {
        ops.push(Op::Range(ORIGIN, EVERYWHERE, At::Abs(t)));
        ops.push(Op::Nearest(ORIGIN, At::Abs(t), 3));
    }
    let answers = run(config(4, 2, 1, 0), PLAIN, &ops).unwrap();
    let count = |op| hits(&answers, op).len();
    let counts: Vec<usize> = [0, 1].into_iter().chain(8..18).map(count).collect();
    assert_eq!(counts, [0, 0, 0, 0, 2, 2, 2, 2, 6, 3, 6, 3]);

    // A zero-area box hits an exact prediction only; k = 0 answers
    // nothing and k beyond the fleet everyone, nearest first; a removed
    // object leaves the answers at once.
    let near = Spot::Near(3);
    let ops = [
        Op::Report(3, When::Next),
        Op::Report(7, When::Next),
        Op::Report(1, When::Next),
        Op::Range(near, 0.0, At::Abs(3)),
        Op::Range(Spot::Fixed(7.0, 7.0), 0.0, At::Abs(3)),
        Op::Nearest(near, At::Abs(2), 0),
        Op::Nearest(near, At::Abs(2), 50),
        Op::Remove(3),
        Op::Nearest(near, At::Abs(2), 50),
        Op::Range(ORIGIN, EVERYWHERE, At::Abs(1)),
    ];
    let answers = run(config(4, 2, 1, 0), PLAIN, &ops).unwrap();
    let answered = [3, 4, 5, 6, 8, 9].map(|op| hits(&answers, op));
    let want = "[[3], [], [], [3, 7, 1], [1, 7], [1, 7]]";
    assert_eq!(format!("{answered:?}"), want);
}

/// A forced retrain below `min_train_subs` is a typed refusal, and the
/// object trains on cadence afterwards (an unguarded force once left
/// the trainer misaligned, and the next retrain panicked under the
/// object's lock).
#[test]
fn force_retrain_on_sub_period_history_is_refused() {
    let mut ops = vec![Op::ReportBatch(4, When::Next, 2), Op::ForceRetrain(4)];
    ops.extend((0..30).map(|_| Op::ReportBatch(4, When::Next, PERIOD as usize)));
    ops.push(Op::ForceRetrain(4));
    let answers = run(config(4, 2, 1, 0), PLAIN, &ops).unwrap();
    let (full_periods, min_train_subs) = (0, MIN_TRAIN_SUBS);
    let refusal = QueryError::InsufficientHistory {
        full_periods,
        min_train_subs,
    };
    assert_eq!(*answer(&answers, 1), R::Retrained(Err(refusal)));
    let s = stats(&answers, 32, 4);
    assert_eq!((s.full_periods, s.trained_periods), (30, 30));
    assert!(s.patterns > 0);
}

/// A report at `Timestamp::MAX` is refused before it creates an object:
/// a history holding it would end past the last timestamp (the next
/// touch overflowed; a release build then refused every later report as
/// non-contiguous from 0). An object at `MAX - 1` keeps it through a
/// snapshot, reopen and crash, and answers queries up to `MAX`. Object
/// 3, at 0, is more than `u32::MAX` steps behind `MAX`: a predict there
/// is refused, and a fleet query there leaves it out (both used to
/// answer it as a query `MAX mod 2³²` steps ahead).
#[test]
fn reports_at_the_last_timestamp_are_refused() {
    let ops = [
        Op::Report(0, When::Max),
        Op::Exact(1, Timestamp::MAX - 1, Point::new(1.0, 2.0)),
        Op::ReportBatch(1, When::Next, 2),
        Op::ReportMany(vec![(3, When::Max), (1, When::Next), (3, When::Next)]),
        Op::PredictBatch(vec![(1, At::Ahead(1)), (1, At::Ahead(5))]),
        Op::Snapshot,
        Op::Reopen(3),
        Op::Crash(Vec::new()),
        Op::Nearest(ORIGIN, At::Ahead(2), 5),
        Op::PredictBatch(vec![(3, At::Abs(Timestamp::MAX))]),
    ];
    let answers = run(config(4, 2, 1, 0), (3, 0), &ops).unwrap();
    let no = Err(IngestError::TimestampOutOfRange);
    for (op, want) in [(0, vec![no]), (2, vec![no]), (3, vec![no, no, Ok(())])] {
        assert_eq!(*answer(&answers, op), R::Ingested(want), "op {op}");
    }
    assert!(matches!(answer(&answers, 4), R::Predictions(p) if p.iter().all(Result::is_ok)));
    assert_eq!(hits(&answers, 8), [1]);
    let (current, requested) = (0, Timestamp::MAX);
    let far = Err(QueryError::HorizonOutOfRange { current, requested });
    assert_eq!(*answer(&answers, 9), R::Predictions(vec![far]));
}

/// `remove` then re-report leaves nothing of the first life (which
/// trained and drifted): the second answers like a fresh history.
#[test]
fn remove_then_re_report_starts_clean() {
    let ops = [
        Op::ReportBatch(0, When::Next, 8 * PERIOD as usize),
        Op::Remove(0),
        Op::ReportBatch(0, When::Skip(1000), 6 * PERIOD as usize),
        Op::ForceRetrain(0),
        Op::PredictBatch((1..=4).map(|d| (0, At::Ahead(d))).collect()),
    ];
    let s = stats(&run(config(4, 2, 1, 0), PLAIN, &ops).unwrap(), 4, 0);
    assert_eq!((s.samples, s.trained_periods), (24, 6));
}

/// The two persisted seeds of the deleted index-vs-scan suite, (222156,
/// 5, 3) and (31, 3, 3), replayed exactly: every report, remove, box,
/// focus, time and k its range and its kNN property made for each, on
/// the index shape and training config each chose, and the ids the
/// store answered then.
#[test]
fn index_suite_regression_seeds() {
    use Op::{Nearest as Knn, Range as Rg};
    let e = |id, t, x, y| Op::Exact(id, t, Point::new(x, y));
    let (f, a) = (Spot::Fixed, At::Abs);
    let range_222156 = vec![
        e(3, 2, -39.99198104960426, 73.0),
        e(3, 3, -39.90225718865039, 73.0),
        e(3, 4, -39.91651116311074, 73.0),
        e(3, 5, -39.94794643689119, 73.0),
        e(3, 6, -39.9102695133315, 73.0),
        e(3, 7, -39.901694573641805, 73.0),
        Rg(f(121.16647575754808, -4.429371613708184), 500.0, a(24)),
        e(1, 1, 12.43913011824455, 0.5),
        e(1, 2, 13.173751584775959, 1.0),
        e(1, 3, 15.131548535769307, 1.5),
        e(1, 4, 16.3204453242933, 2.0),
        e(1, 5, 17.592096582726455, 2.5),
        Rg(
            f(-67.14537737314798, -148.93774104022145),
            59.93275603039352,
            a(14),
        ),
        e(1, 6, 19.047462674377933, 3.0),
        e(1, 7, 20.730258814261145, 3.5),
        e(1, 8, 22.534419442014336, 4.0),
        e(1, 9, 23.819054975634927, 4.5),
        e(1, 10, 25.855912553678493, 5.0),
        Rg(
            f(-69.21524287065952, -88.38878573181108),
            16.165746277802214,
            a(48),
        ),
    ];
    let knn_222156 = vec![
        e(4, 7, 1.0, 2.0),
        Knn(f(-44.440132003541336, 72.25915014469001), a(44), 2),
        e(2, 0, -300.0, 80.0),
        e(2, 1, -220.0, 20.0),
        e(2, 2, -140.0, -40.0),
        e(2, 3, -60.0, -100.0),
        e(2, 4, 20.0, -160.0),
        e(2, 5, 100.0, -220.0),
        Knn(f(-133.30671478105097, -90.17565604793566), a(35), 3),
        e(4, 8, 1.324272689137198, 0.0),
        e(4, 9, 51.24793882576763, 0.0),
        e(4, 10, 101.31294264177589, 0.0),
        e(4, 11, 101.2250261677323, 50.0),
        e(4, 12, 1.2877300510803744, 0.0),
        Knn(f(202.9775168362454, -36.4660063000608), a(44), 4),
    ];
    let range_31 = vec![
        e(0, 7, 1.0, 2.0),
        Rg(f(178.40094712295053, 113.12927980658901), 0.0, a(15)),
        e(1, 0, 10.055301602259421, 0.0),
        e(1, 1, 12.05775616523681, 0.5),
        e(1, 2, 13.801799879040509, 1.0),
        e(1, 3, 15.22634848484896, 1.5),
        e(1, 4, 16.936750334457503, 2.0),
        Rg(
            f(111.89566041240482, 96.2429091757291),
            3.715358210182754,
            a(53),
        ),
        e(0, 8, 0.1945722855796037, 0.0),
        Rg(
            f(110.57694789212519, -66.05964957439478),
            42.811174811585715,
            a(47),
        ),
    ];
    let knn_31 = vec![
        e(1, 2, 13.403810843093993, 1.0),
        Knn(f(-31.19528325115786, 44.94685110773429), a(29), 3),
        Op::Remove(2),
        Knn(f(94.97206622244784, -120.16919803670675), a(45), 3),
        e(0, 7, 1.0, 2.0),
        Knn(f(182.32572053221514, 55.41844563267631), a(28), 2),
    ];
    let cases = [
        (0, range_222156, "[[3], [], []]"),
        (1, knn_222156, "[[4], [4, 2], [4, 2]]"),
        (3, range_31, "[[], [], []]"),
        (3, knn_31, "[[1], [1], [1, 0]]"),
    ];
    for (shape, ops, want) in cases {
        let config = StoreConfig {
            min_train_subs: 5,
            ..config(4, 2, 5, shape)
        };
        let answers = run(config, PLAIN, &ops).unwrap();
        let queries = (0..ops.len()).filter(|&i| matches!(ops[i], Rg(..) | Knn(..)));
        let answered: Vec<Vec<u64>> = queries.map(|op| hits(&answers, op)).collect();
        assert_eq!(format!("{answered:?}"), want);
    }
}
