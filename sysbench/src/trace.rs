//! Outside-timed layer attribution: spans recorded by the benchmark's
//! own code around its calls into each layer.
//!
//! A traced run replays a workload's seeded op list at successive
//! depths — over the wire, through the codec alone, against the store
//! directly, against bare predictors — recording one span per call.
//! A layer's self time is its rung minus the rung below; what no rung
//! explains (`server.transport.*`: sockets, the reader → writer
//! hand-off, the writer queue) is reported as a number, never dropped.
//! Spans stay in memory until the run ends and are then written as one
//! JSON object per line.

use crate::ops::{Kind, Op};
use crate::run::RunError;
use hpm_core::{
    HpmConfig, HybridPredictor, PredictScratch, Prediction, PredictionSource, PredictiveQuery,
};
use hpm_geo::Point;
use hpm_objectstore::{MovingObjectStore, ObjectId};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_server::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame_into,
    DEFAULT_MAX_FRAME,
};
use hpm_server::{Client, Request, Response, ResponseBody};
use hpm_store::{WalOptions, WalRecord, WalWriter};
use hpm_tpt::{PatternKey, SearchCursor};
use hpm_trajectory::{ChunkParams, ChunkedHistory, TimeOffset, Timestamp, Trajectory};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called (`wire.range`, `objectstore.knn`, …).
    pub name: &'static str,
    /// Start and end, nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span this one explains a part of, by index.
    pub parent: Option<u32>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u32,
    /// The thread that made the call (0 = main; live lanes are 1, 2).
    pub thread: u32,
}

/// Collects spans in memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as one span on the main thread; returns its result
    /// and the span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let id = self.record(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: op as u32,
            thread: 0,
        });
        (out, id)
    }

    /// Adds a span measured elsewhere; returns its index.
    pub fn record(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and count of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// Mean duration of the spans called `name`; 0 when there are none
    /// (a layer the workload never enters took no time).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.total_ns(name) {
            (_, 0) => 0.0,
            (ns, n) => ns as f64 / n as f64,
        }
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.thread
            )?;
        }
        out.flush()
    }
}

/// Span names of the three rungs every op kind has, indexed by
/// [`Kind::index`]. The matching metric is the name plus `.ns`.
pub const WIRE: [&str; 5] = [
    "wire.report_many",
    "wire.predict_batch",
    "wire.range",
    "wire.knn",
    "wire.within",
];
pub const PROTO: [&str; 5] = [
    "server.proto.report_many",
    "server.proto.predict_batch",
    "server.proto.range",
    "server.proto.knn",
    "server.proto.within",
];
pub const STORE: [&str; 5] = [
    "objectstore.report_many",
    "objectstore.predict_batch",
    "objectstore.range",
    "objectstore.knn",
    "objectstore.within",
];

/// Reusable buffers of the codec rung.
#[derive(Default)]
struct CodecBufs {
    payload: Vec<u8>,
    framed: Vec<u8>,
    received: Vec<u8>,
}

/// Everything the wire does to one request/response pair except the
/// socket: encode, frame, unframe (checksum included) and decode, in
/// both directions.
fn codec_round_trip(req: &Request, resp: &Response, b: &mut CodecBufs) -> Result<(), RunError> {
    let proto = |e| RunError(format!("codec rung: {e}"));
    encode_request(req, &mut b.payload);
    b.framed.clear();
    write_frame_into(&mut b.framed, &b.payload);
    read_frame(&mut b.framed.as_slice(), &mut b.received, DEFAULT_MAX_FRAME).map_err(proto)?;
    black_box(decode_request(&b.received).map_err(proto)?);
    encode_response(resp, &mut b.payload);
    b.framed.clear();
    write_frame_into(&mut b.framed, &b.payload);
    read_frame(&mut b.framed.as_slice(), &mut b.received, DEFAULT_MAX_FRAME).map_err(proto)?;
    black_box(decode_response(&b.received).map_err(proto)?);
    Ok(())
}

/// Replays `ops` at three depths — one request in flight over `wire`,
/// the codec alone on the same payloads, and `direct` called
/// in-process — and returns the wire replies. `direct` must be in the
/// state the served store was in before the first op (for read-only
/// ops it may be the served store itself).
pub fn ladder(
    tracer: &mut Tracer,
    ops: &[Op],
    wire: &mut Client,
    direct: &MovingObjectStore,
) -> Result<Vec<ResponseBody>, RunError> {
    let mut roots = Vec::with_capacity(ops.len());
    let mut replies = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let request = op.request();
        let (reply, id) = tracer.time(WIRE[op.kind().index()], i, None, || wire.call(request));
        replies.push(reply?);
        roots.push(id);
    }
    let mut bufs = CodecBufs::default();
    for (i, (op, reply)) in ops.iter().zip(&replies).enumerate() {
        let req = Request {
            correlation: i as u64 + 1,
            body: op.request(),
        };
        let resp = Response {
            correlation: i as u64 + 1,
            body: reply.clone(),
        };
        let (done, _) = tracer.time(PROTO[op.kind().index()], i, Some(roots[i]), || {
            codec_round_trip(&req, &resp, &mut bufs)
        });
        done?;
    }
    // One scratch for the whole rung, as a connection has.
    let mut scratch = PredictScratch::new();
    for (i, op) in ops.iter().enumerate() {
        tracer.time(STORE[op.kind().index()], i, Some(roots[i]), || {
            black_box(op.apply_with(direct, &mut scratch))
        });
    }
    Ok(replies)
}

/// The ladder of one op kind, in nanoseconds per op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rungs {
    /// Ops of this kind the ladder replayed.
    pub ops: usize,
    /// Client send → receive over loopback: the total being explained.
    pub wire: f64,
    /// The codec alone.
    pub proto: f64,
    /// The store call alone.
    pub store: f64,
    /// `wire − proto − store`: what neither explains.
    pub transport: f64,
}

/// Reads one kind's ladder out of the tracer.
pub fn rungs(tracer: &Tracer, kind: Kind) -> Rungs {
    let k = kind.index();
    let wire = tracer.mean_ns(WIRE[k]);
    let proto = tracer.mean_ns(PROTO[k]);
    let store = tracer.mean_ns(STORE[k]);
    Rungs {
        ops: tracer.total_ns(WIRE[k]).1,
        wire,
        proto,
        store,
        transport: wire - proto - store,
    }
}

/// One object's history as a bare predictor needs it.
pub struct Subject {
    /// Timestamp of the first position.
    pub start: Timestamp,
    /// Every position loaded.
    pub points: Vec<Point>,
}

/// What the predictor rung measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictorRung {
    /// Queries answered per source: forward, backward, fallback.
    pub answered: [usize; 3],
    /// TPT nodes visited per `tpt.search` call.
    pub nodes_per_search: f64,
}

pub const CORE_PREDICT: [&str; 3] = [
    "core.predict.fqp",
    "core.predict.bqp",
    "core.predict.fallback",
];
pub const TPT_SEARCH: &str = "tpt.search";

/// Answers `queries` on predictors built by `HybridPredictor::build`
/// from the same histories the store was loaded with, one span per
/// query named by the source that answered, then searches each
/// predictor's packed TPT with the same queries' forward keys.
/// Instrumentation must be on (the node count comes from the
/// `tpt.search.nodes_visited` counter).
pub fn predictor_rung(
    tracer: &mut Tracer,
    subjects: &HashMap<u64, Subject>,
    queries: &[(ObjectId, Timestamp)],
    discovery: &DiscoveryParams,
    mining: &MiningParams,
    hpm: HpmConfig,
    recent_len: usize,
) -> PredictorRung {
    let mut predictors: HashMap<u64, HybridPredictor> = HashMap::new();
    for (id, _) in queries {
        if let Some(subject) = subjects.get(&id.0) {
            predictors.entry(id.0).or_insert_with(|| {
                let history = Trajectory::new(subject.start, subject.points.clone());
                HybridPredictor::build(&history, discovery, mining, hpm)
            });
        }
    }
    let window = |s: &Subject| {
        let from = s.points.len().saturating_sub(recent_len);
        (from, s.start + s.points.len() as Timestamp - 1)
    };
    let mut rung = PredictorRung::default();
    let mut scratch = PredictScratch::new();
    let mut out = Prediction::default();
    for (i, (id, at)) in queries.iter().enumerate() {
        let (Some(subject), Some(predictor)) = (subjects.get(&id.0), predictors.get(&id.0)) else {
            continue;
        };
        let (from, current_time) = window(subject);
        let query = PredictiveQuery {
            recent: &subject.points[from..],
            current_time,
            query_time: *at,
        };
        let start_ns = tracer.now();
        predictor.predict_with(&query, &mut scratch, &mut out);
        let end_ns = tracer.now();
        let source = match out.source {
            PredictionSource::ForwardPatterns => 0,
            PredictionSource::BackwardPatterns => 1,
            PredictionSource::MotionFunction => 2,
        };
        rung.answered[source] += 1;
        tracer.record(Span {
            name: CORE_PREDICT[source],
            start_ns,
            end_ns,
            parent: None,
            op: i as u32,
            thread: 0,
        });
    }

    let nodes = hpm_obs::registry().counter(hpm_tpt::metrics::SEARCH_NODES_VISITED);
    let before = nodes.value();
    let mut cursor = SearchCursor::new();
    let mut key = PatternKey::zeros(0, 0);
    let mut searches = 0usize;
    for (i, (id, at)) in queries.iter().enumerate() {
        let (Some(subject), Some(predictor)) = (subjects.get(&id.0), predictors.get(&id.0)) else {
            continue;
        };
        if predictor.packed_tpt().is_empty() {
            continue;
        }
        let (from, current_time) = window(subject);
        let recent = predictor.recent_regions(&subject.points[from..], current_time);
        let offset = (*at % u64::from(predictor.period())) as TimeOffset;
        predictor
            .key_table()
            .fqp_query_into(recent.iter().copied(), offset, &mut key);
        tracer.time(TPT_SEARCH, i, None, || {
            black_box(cursor.search_packed(predictor.packed_tpt(), &key).len())
        });
        searches += 1;
    }
    if searches > 0 {
        rung.nodes_per_search = (nodes.value() - before) as f64 / searches as f64;
    }
    rung
}

pub const WAL_APPEND: &str = "store.wal.append";
pub const TRAJECTORY_APPEND: &str = "trajectory.append";

/// Appends `reports` to a WAL file in `dir` with the benchmark's
/// durability options, one span per frame-sized batch. Returns
/// `(ns per record, bytes per record)`.
pub fn wal_rung(
    tracer: &mut Tracer,
    reports: &[(ObjectId, Timestamp, Point)],
    dir: &Path,
    options: WalOptions,
) -> Result<(f64, f64), RunError> {
    let path = dir.join("trace-wal.log");
    let mut writer = WalWriter::create(&path, options)?;
    for (i, batch) in reports.chunks(1_024).enumerate() {
        let (done, _) = tracer.time(WAL_APPEND, i, None, || {
            batch.iter().try_for_each(|(id, t, p)| {
                writer.append(&WalRecord::Report {
                    object: id.0,
                    timestamp: *t,
                    x: p.x,
                    y: p.y,
                })
            })
        });
        done?;
    }
    writer.flush()?;
    drop(writer);
    let bytes = std::fs::metadata(&path)?.len();
    let n = reports.len().max(1) as f64;
    Ok((tracer.total_ns(WAL_APPEND).0 as f64 / n, bytes as f64 / n))
}

/// Pushes the same points into one compressed history per object, one
/// span per frame-sized batch. Returns ns per point.
pub fn trajectory_rung(
    tracer: &mut Tracer,
    reports: &[(ObjectId, Timestamp, Point)],
    params: ChunkParams,
) -> f64 {
    let mut histories: HashMap<u64, ChunkedHistory> = HashMap::new();
    for (id, t, _) in reports {
        histories
            .entry(id.0)
            .or_insert_with(|| ChunkedHistory::new(*t, params));
    }
    for (i, batch) in reports.chunks(1_024).enumerate() {
        tracer.time(TRAJECTORY_APPEND, i, None, || {
            for (id, _, p) in batch {
                if let Some(history) = histories.get_mut(&id.0) {
                    history.push(*p);
                }
            }
        });
    }
    black_box(&histories);
    tracer.total_ns(TRAJECTORY_APPEND).0 as f64 / reports.len().max(1) as f64
}

/// The reports inside a run of `report_many` ops.
pub fn reports_of(ops: &[Op]) -> Vec<(ObjectId, Timestamp, Point)> {
    ops.iter()
        .filter_map(|op| match op {
            Op::ReportMany(r) => Some(r.iter().copied()),
            _ => None,
        })
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rungs_sum_to_the_wire_by_construction() {
        let mut t = Tracer::default();
        let mut at = 0;
        let mut push = |t: &mut Tracer, name, len| {
            t.record(Span {
                name,
                start_ns: at,
                end_ns: at + len,
                parent: None,
                op: 0,
                thread: 0,
            });
            at += len;
        };
        for _ in 0..4 {
            push(&mut t, WIRE[Kind::Knn.index()], 1_000);
            push(&mut t, PROTO[Kind::Knn.index()], 100);
            push(&mut t, STORE[Kind::Knn.index()], 700);
        }
        let r = rungs(&t, Kind::Knn);
        assert_eq!(r.ops, 4);
        assert_eq!(
            (r.wire, r.proto, r.store, r.transport),
            (1_000.0, 100.0, 700.0, 200.0)
        );
        assert_eq!(r.proto + r.store + r.transport, r.wire);
        // A kind the workload never sent took no time at any rung.
        let none = rungs(&t, Kind::Range);
        assert_eq!((none.ops, none.wire, none.transport), (0, 0.0, 0.0));
    }

    #[test]
    fn spans_serialise_one_per_line() {
        let mut t = Tracer::default();
        let ((), root) = t.time("wire.range", 7, None, || ());
        t.time("objectstore.range", 7, Some(root), || ());
        let dir = crate::host::ScratchDir::new("trace-test").unwrap();
        let path = dir.path().join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = hpm_obs::json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("name").and_then(|n| n.as_str()),
            Some("objectstore.range")
        );
        assert_eq!(second.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(second.get("op").and_then(|p| p.as_f64()), Some(7.0));
        let first = hpm_obs::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("parent"), Some(&hpm_obs::json::Json::Null));
    }
}
