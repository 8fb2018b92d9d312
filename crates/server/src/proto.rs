//! The wire protocol: length-prefixed, checksummed frames carrying
//! batched requests and responses.
//!
//! Both directions speak the same framing, built on the workspace
//! codec conventions ([`hpm_store::wire`]: LEB128 varints,
//! little-endian doubles, FNV-1a checksums):
//!
//! ```text
//! frame   payload_len  u32 little-endian      (≤ the peer's max_frame)
//!         payload      bytes
//!         checksum     fnv1a(payload)          8 bytes little-endian
//!
//! request payload      correlation varint, verb u8, verb body
//! response payload     correlation varint, tag u8, tag body
//! ```
//!
//! Framing is **batch-friendly**: one request frame carries many
//! queries (`ReportMany`, `PredictBatch`), and the matching response
//! carries one result per query **in input order**. Frames on one
//! connection may be pipelined — the server answers in receive order
//! and echoes each request's correlation id, so a client can keep
//! many frames in flight and match answers without waiting.
//!
//! Error results are **typed**: [`IngestError`] and [`QueryError`]
//! cross the wire structurally (every variant, field for field), so a
//! wire client sees the exact error value an in-process caller would
//! — the property the workspace's op-trace model suite pins down.
//!
//! Decoding is total: any byte sequence yields either a value or a
//! typed [`ProtoError`], never a panic, and length prefixes are
//! sanity-checked before any allocation (a hostile 4 GiB length
//! prefix is rejected while 4 bytes have been read; a count inside a
//! payload is bounded by the bytes behind it, `wire::get_seq`).

use hpm_core::{Prediction, PredictionSource, RankedAnswer, Uncertainty};
use hpm_geo::{BoundingBox, Point};
use hpm_objectstore::{IngestError, ObjectId, ObjectStats, QueryError};
use hpm_store::wire::{
    fnv1a, get_bbox, get_f64, get_len, get_point, get_seq, get_u8, get_varint, put_bbox, put_f64,
    put_point, put_varint,
};
use hpm_store::DecodeError;
use hpm_trajectory::Timestamp;
use std::fmt;
use std::io::{self, Read, Write};

/// Default cap on one frame's payload (requests and responses alike):
/// large enough for tens of thousands of batched queries, small
/// enough that a corrupt length prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME: usize = 4 << 20;

/// Bytes of the fixed frame header (the `u32` payload length).
pub const FRAME_HEADER: usize = 4;

/// Bytes of the frame trailer (the FNV-1a payload checksum).
pub const FRAME_TRAILER: usize = 8;

/// Why a frame or payload could not be read or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The underlying transport failed (or hit EOF mid-frame as
    /// `UnexpectedEof`).
    Io(io::ErrorKind),
    /// A frame announced a payload larger than the configured cap —
    /// corruption or abuse, rejected before any allocation.
    Oversized {
        /// The announced payload length.
        got: u64,
        /// The receiving side's cap.
        limit: u64,
    },
    /// The frame checksum did not match its payload.
    Checksum {
        /// Checksum carried by the frame trailer.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The payload parsed as neither a request nor a response (bad
    /// tag, truncated field, trailing bytes, …).
    Decode(DecodeError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(kind) => write!(f, "transport error: {kind}"),
            ProtoError::Oversized { got, limit } => {
                write!(
                    f,
                    "frame payload of {got} bytes exceeds the {limit}-byte cap"
                )
            }
            ProtoError::Checksum { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ProtoError::Decode(e) => write!(f, "payload decode: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e.kind())
    }
}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> Self {
        ProtoError::Decode(e)
    }
}

/// One request frame: a client-chosen correlation id echoed by the
/// response, plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id; the server echoes it verbatim so pipelined
    /// responses can be matched to their requests.
    pub correlation: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The operations the store serves over the wire. Batched verbs carry
/// many queries per frame; their responses preserve input order.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Multi-object ingest (`MovingObjectStore::report_many`): one
    /// result per report, in input order.
    ReportMany(Vec<(ObjectId, Timestamp, Point)>),
    /// Batched per-object predictive queries
    /// (`MovingObjectStore::predict_*`): one result per query, in
    /// input order.
    PredictBatch(Vec<(ObjectId, Timestamp)>),
    /// Predictive range query over the fleet
    /// (`MovingObjectStore::predict_range`).
    PredictRange {
        /// The spatial region asked about.
        region: BoundingBox,
        /// The future timestamp asked about.
        query_time: Timestamp,
    },
    /// Predictive k-nearest-neighbour query over the fleet
    /// (`MovingObjectStore::predict_nearest`).
    PredictNearest {
        /// The query focus point.
        focus: Point,
        /// The future timestamp asked about.
        query_time: Timestamp,
        /// How many neighbours to return.
        k: u64,
    },
    /// Probabilistic range query over the fleet
    /// (`MovingObjectStore::predict_within`): objects whose predicted
    /// distribution puts at least `tau` mass inside the region.
    PredictWithin {
        /// The spatial region asked about.
        region: BoundingBox,
        /// The future timestamp asked about.
        query_time: Timestamp,
        /// Minimum probability mass inside `region`.
        tau: f64,
    },
    /// Probabilistic k-nearest-neighbour query over the fleet
    /// (`MovingObjectStore::predict_nearest_prob`): objects ranked by
    /// the radius containing `tau` of their predicted mass.
    PredictNearestProb {
        /// The query focus point.
        focus: Point,
        /// The future timestamp asked about.
        query_time: Timestamp,
        /// How many neighbours to return.
        k: u64,
        /// Probability mass the ranking radius must contain.
        tau: f64,
    },
    /// Per-object health snapshot (`MovingObjectStore::stats`).
    Stats(ObjectId),
    /// Admin: rebuild the object's model from a fresh trainer seeded
    /// over the periods it was trained on
    /// (`MovingObjectStore::force_retrain`; cadence-neutral, so the
    /// answers after it equal those before).
    ForceRetrain(ObjectId),
    /// Admin: cut a durability snapshot (`MovingObjectStore::snapshot`).
    Snapshot,
    /// Admin: pull the server's metrics registry as JSON.
    Metrics,
    /// Liveness probe; answered with [`ResponseBody::Pong`].
    Ping,
    /// Admin: answer [`ResponseBody::ShuttingDown`], then stop
    /// accepting connections and drain.
    Shutdown,
}

const REQ_REPORT_MANY: u8 = 1;
const REQ_PREDICT_BATCH: u8 = 2;
const REQ_PREDICT_RANGE: u8 = 3;
const REQ_PREDICT_NEAREST: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_FORCE_RETRAIN: u8 = 6;
const REQ_SNAPSHOT: u8 = 7;
const REQ_METRICS: u8 = 8;
const REQ_PING: u8 = 9;
const REQ_SHUTDOWN: u8 = 10;
const REQ_PREDICT_WITHIN: u8 = 11;
const REQ_PREDICT_NEAREST_PROB: u8 = 12;

/// One response frame, echoing its request's correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id (0 for [`ResponseBody::Malformed`]
    /// replies to frames whose correlation could not be read).
    pub correlation: u64,
    /// The result.
    pub body: ResponseBody,
}

/// The results the server sends back, one variant per verb plus the
/// [`Malformed`](ResponseBody::Malformed) and
/// [`Oversized`](ResponseBody::Oversized) protocol errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Per-report results of a [`RequestBody::ReportMany`], input order.
    Ingested(Vec<Result<(), IngestError>>),
    /// Per-query results of a [`RequestBody::PredictBatch`], input order.
    Predictions(Vec<Result<Prediction, QueryError>>),
    /// Objects predicted inside the region, ordered by object id.
    Range(Vec<(ObjectId, Point)>),
    /// The k predicted-nearest objects with positions and distances,
    /// nearest first.
    Nearest(Vec<(ObjectId, Point, f64)>),
    /// Objects whose distribution puts ≥ τ mass inside the region
    /// ([`RequestBody::PredictWithin`]): id, best point, and the mass
    /// claimed inside, ordered by object id.
    Within(Vec<(ObjectId, Point, f64)>),
    /// The k probabilistically-nearest objects
    /// ([`RequestBody::PredictNearestProb`]): id, best point, and the
    /// τ-confidence radius, smallest radius first.
    NearestProb(Vec<(ObjectId, Point, f64)>),
    /// The object's stats, or why they are unavailable.
    Stats(Result<ObjectStats, QueryError>),
    /// Outcome of a forced retrain.
    Retrained(Result<(), QueryError>),
    /// Outcome of a snapshot: `Ok(false)` on a memory-only store,
    /// `Err` carries the I/O error kind.
    Snapshotted(Result<bool, io::ErrorKind>),
    /// The server's metrics registry rendered as JSON.
    Metrics(String),
    /// Liveness answer to [`RequestBody::Ping`].
    Pong,
    /// Acknowledgement of [`RequestBody::Shutdown`]; the server stops
    /// after this frame is flushed.
    ShuttingDown,
    /// The server received a frame it could not parse; the message
    /// says why. After a framing-level failure (bad checksum,
    /// oversized length) the connection closes behind this reply —
    /// frame boundaries can no longer be trusted — while a well-framed
    /// but undecodable payload leaves the connection usable.
    Malformed(String),
    /// The request executed but its response encoded larger than the
    /// server's frame cap, so the server dropped the result rather
    /// than emit a frame the peer would have to reject. Side effects
    /// (e.g. an ingest) have still happened; narrow the query or raise
    /// the cap on both sides and retry. The connection stays usable.
    Oversized {
        /// Encoded size of the dropped response payload, in bytes.
        encoded: u64,
        /// The server's frame cap, in bytes.
        limit: u64,
    },
}

const RESP_INGESTED: u8 = 1;
const RESP_PREDICTIONS: u8 = 2;
const RESP_RANGE: u8 = 3;
const RESP_NEAREST: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_RETRAINED: u8 = 6;
const RESP_SNAPSHOTTED: u8 = 7;
const RESP_METRICS: u8 = 8;
const RESP_PONG: u8 = 9;
const RESP_SHUTTING_DOWN: u8 = 10;
const RESP_MALFORMED: u8 = 11;
const RESP_OVERSIZED: u8 = 12;
const RESP_WITHIN: u8 = 13;
const RESP_NEAREST_PROB: u8 = 14;

// ---------------------------------------------------------------- framing

/// Appends one complete frame (header, payload, checksum) carrying
/// `payload` to `out`. The inverse of [`read_frame`].
pub fn write_frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
}

/// Reads one frame from `r` into `payload` (cleared and reused —
/// its capacity survives across frames). Returns `Ok(false)` on a
/// clean end of stream (EOF at a frame boundary); EOF anywhere inside
/// a frame is `ProtoError::Io(UnexpectedEof)`. The announced length
/// is checked against `max` before any payload byte is read or
/// allocated.
pub fn read_frame(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    max: usize,
) -> Result<bool, ProtoError> {
    let mut header = [0u8; FRAME_HEADER];
    // Distinguish "no more frames" from "died mid-frame": a clean
    // close yields zero header bytes.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(ProtoError::Io(io::ErrorKind::UnexpectedEof));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max {
        return Err(ProtoError::Oversized {
            got: len as u64,
            limit: max as u64,
        });
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    let mut trailer = [0u8; FRAME_TRAILER];
    r.read_exact(&mut trailer)?;
    let stored = u64::from_le_bytes(trailer);
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(ProtoError::Checksum { stored, computed });
    }
    Ok(true)
}

/// [`write_frame_into`] through the caller's connection-owned
/// `staging` buffer and straight onto a writer, as one `write_all` —
/// how both the client and the server put frames on a socket.
pub fn write_frame(w: &mut impl Write, staging: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    staging.clear();
    write_frame_into(staging, payload);
    w.write_all(staging)
}

// ------------------------------------------------------------- primitives

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, DecodeError> {
    let len = get_len(buf, 1)?;
    let (head, rest) = buf.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| DecodeError::Invalid("string is not UTF-8".into()))?
        .to_string();
    *buf = rest;
    Ok(s)
}

// The stable wire numbering of `std::io::ErrorKind` values a
// `snapshot` can realistically surface; everything else crosses as
// `Other` (the set must be closed for decode to be total).
const IO_KINDS: [(u8, io::ErrorKind); 10] = [
    (1, io::ErrorKind::NotFound),
    (2, io::ErrorKind::PermissionDenied),
    (3, io::ErrorKind::AlreadyExists),
    (4, io::ErrorKind::InvalidInput),
    (5, io::ErrorKind::InvalidData),
    (6, io::ErrorKind::WriteZero),
    (7, io::ErrorKind::UnexpectedEof),
    (8, io::ErrorKind::StorageFull),
    (9, io::ErrorKind::Interrupted),
    (10, io::ErrorKind::TimedOut),
];

fn put_io_kind(out: &mut Vec<u8>, kind: &io::ErrorKind) {
    let code = IO_KINDS
        .iter()
        .find(|(_, k)| k == kind)
        .map_or(0, |(c, _)| *c);
    out.push(code);
}

fn get_io_kind(buf: &mut &[u8]) -> Result<io::ErrorKind, DecodeError> {
    let code = get_u8(buf)?;
    Ok(IO_KINDS
        .iter()
        .find(|(c, _)| *c == code)
        .map_or(io::ErrorKind::Other, |(_, k)| *k))
}

// ---------------------------------------------------------- typed errors

const INGEST_OK: u8 = 0;
const INGEST_NON_CONTIGUOUS: u8 = 1;
const INGEST_NON_FINITE: u8 = 2;
const INGEST_UNAVAILABLE: u8 = 3;
const INGEST_DURABILITY: u8 = 4;

fn put_ingest_result(out: &mut Vec<u8>, r: &Result<(), IngestError>) {
    match r {
        Ok(()) => out.push(INGEST_OK),
        Err(IngestError::NonContiguous { expected, got }) => {
            out.push(INGEST_NON_CONTIGUOUS);
            put_varint(out, *expected);
            put_varint(out, *got);
        }
        Err(IngestError::NonFinitePosition) => out.push(INGEST_NON_FINITE),
        Err(IngestError::ObjectUnavailable(id)) => {
            out.push(INGEST_UNAVAILABLE);
            put_varint(out, id.0);
        }
        Err(IngestError::Durability(kind)) => {
            out.push(INGEST_DURABILITY);
            put_io_kind(out, kind);
        }
    }
}

fn get_ingest_result(buf: &mut &[u8]) -> Result<Result<(), IngestError>, DecodeError> {
    Ok(match get_u8(buf)? {
        INGEST_OK => Ok(()),
        INGEST_NON_CONTIGUOUS => Err(IngestError::NonContiguous {
            expected: get_varint(buf)?,
            got: get_varint(buf)?,
        }),
        INGEST_NON_FINITE => Err(IngestError::NonFinitePosition),
        INGEST_UNAVAILABLE => Err(IngestError::ObjectUnavailable(ObjectId(get_varint(buf)?))),
        INGEST_DURABILITY => Err(IngestError::Durability(get_io_kind(buf)?)),
        other => return Err(DecodeError::Invalid(format!("ingest result tag {other}"))),
    })
}

const QUERY_UNKNOWN: u8 = 1;
const QUERY_NO_HISTORY: u8 = 2;
const QUERY_NOT_IN_FUTURE: u8 = 3;
const QUERY_UNAVAILABLE: u8 = 4;
const QUERY_INSUFFICIENT: u8 = 5;

fn put_query_error(out: &mut Vec<u8>, e: &QueryError) {
    match e {
        QueryError::UnknownObject(id) => {
            out.push(QUERY_UNKNOWN);
            put_varint(out, id.0);
        }
        QueryError::NoHistory(id) => {
            out.push(QUERY_NO_HISTORY);
            put_varint(out, id.0);
        }
        QueryError::NotInFuture { current, requested } => {
            out.push(QUERY_NOT_IN_FUTURE);
            put_varint(out, *current);
            put_varint(out, *requested);
        }
        QueryError::ObjectUnavailable(id) => {
            out.push(QUERY_UNAVAILABLE);
            put_varint(out, id.0);
        }
        QueryError::InsufficientHistory {
            full_periods,
            min_train_subs,
        } => {
            out.push(QUERY_INSUFFICIENT);
            put_varint(out, *full_periods as u64);
            put_varint(out, *min_train_subs as u64);
        }
    }
}

fn get_query_error(buf: &mut &[u8]) -> Result<QueryError, DecodeError> {
    Ok(match get_u8(buf)? {
        QUERY_UNKNOWN => QueryError::UnknownObject(ObjectId(get_varint(buf)?)),
        QUERY_NO_HISTORY => QueryError::NoHistory(ObjectId(get_varint(buf)?)),
        QUERY_NOT_IN_FUTURE => QueryError::NotInFuture {
            current: get_varint(buf)?,
            requested: get_varint(buf)?,
        },
        QUERY_UNAVAILABLE => QueryError::ObjectUnavailable(ObjectId(get_varint(buf)?)),
        QUERY_INSUFFICIENT => QueryError::InsufficientHistory {
            full_periods: get_varint(buf)? as usize,
            min_train_subs: get_varint(buf)? as usize,
        },
        other => return Err(DecodeError::Invalid(format!("query error tag {other}"))),
    })
}

// ------------------------------------------------------------ predictions

const SOURCE_FORWARD: u8 = 1;
const SOURCE_BACKWARD: u8 = 2;
const SOURCE_MOTION: u8 = 3;

fn put_prediction(out: &mut Vec<u8>, p: &Prediction) {
    out.push(match p.source {
        PredictionSource::ForwardPatterns => SOURCE_FORWARD,
        PredictionSource::BackwardPatterns => SOURCE_BACKWARD,
        PredictionSource::MotionFunction => SOURCE_MOTION,
    });
    put_varint(out, p.answers.len() as u64);
    for a in &p.answers {
        put_point(out, &a.location);
        put_f64(out, a.score);
        // 0 = no supporting pattern, else index + 1.
        put_varint(out, a.pattern.map_or(0, |i| u64::from(i) + 1));
        put_bbox(out, &a.uncertainty.region);
        put_f64(out, a.uncertainty.mass);
    }
}

fn get_prediction(buf: &mut &[u8]) -> Result<Prediction, DecodeError> {
    let source = match get_u8(buf)? {
        SOURCE_FORWARD => PredictionSource::ForwardPatterns,
        SOURCE_BACKWARD => PredictionSource::BackwardPatterns,
        SOURCE_MOTION => PredictionSource::MotionFunction,
        other => return Err(DecodeError::Invalid(format!("prediction source {other}"))),
    };
    // Each answer is ≥ 65 bytes: location (2×f64), score (f64), one
    // varint byte, uncertainty region (4×f64) and mass (f64).
    let answers = get_seq(buf, 65, |buf| {
        let location = get_point(buf)?;
        let score = get_f64(buf)?;
        let pattern = match get_varint(buf)? {
            0 => None,
            i => {
                let i = i - 1;
                if i > u64::from(u32::MAX) {
                    return Err(DecodeError::Invalid(format!("pattern index {i}")));
                }
                Some(i as u32)
            }
        };
        let region = get_bbox(buf)?;
        let mass = get_f64(buf)?;
        Ok(RankedAnswer {
            location,
            score,
            pattern,
            uncertainty: Uncertainty { region, mass },
        })
    })?;
    Ok(Prediction { answers, source })
}

fn put_stats(out: &mut Vec<u8>, s: &ObjectStats) {
    put_varint(out, s.samples as u64);
    put_varint(out, s.full_periods as u64);
    put_varint(out, s.trained_periods as u64);
    put_varint(out, s.patterns as u64);
    put_varint(out, s.regions as u64);
    put_varint(out, s.approx_bytes as u64);
}

fn get_stats(buf: &mut &[u8]) -> Result<ObjectStats, DecodeError> {
    Ok(ObjectStats {
        samples: get_varint(buf)? as usize,
        full_periods: get_varint(buf)? as usize,
        trained_periods: get_varint(buf)? as usize,
        patterns: get_varint(buf)? as usize,
        regions: get_varint(buf)? as usize,
        approx_bytes: get_varint(buf)? as usize,
    })
}

/// A `Result` on the wire: `0` then the `Ok` value, or `1` then the
/// error — the one shape `Predictions` items, `Stats`, `Retrained`
/// and `Snapshotted` share.
fn put_result<T, E>(
    out: &mut Vec<u8>,
    r: &Result<T, E>,
    put_ok: impl FnOnce(&mut Vec<u8>, &T),
    put_err: impl FnOnce(&mut Vec<u8>, &E),
) {
    match r {
        Ok(v) => {
            out.push(0);
            put_ok(out, v);
        }
        Err(e) => {
            out.push(1);
            put_err(out, e);
        }
    }
}

/// The inverse of [`put_result`]; `what` names the result in the
/// bad-tag error.
fn get_result<T, E>(
    buf: &mut &[u8],
    what: &str,
    get_ok: impl FnOnce(&mut &[u8]) -> Result<T, DecodeError>,
    get_err: impl FnOnce(&mut &[u8]) -> Result<E, DecodeError>,
) -> Result<Result<T, E>, DecodeError> {
    match get_u8(buf)? {
        0 => get_ok(buf).map(Ok),
        1 => get_err(buf).map(Err),
        other => Err(DecodeError::Invalid(format!("{what} result tag {other}"))),
    }
}

/// The `(id, best point, scalar)` rows `Nearest`, `Within` and
/// `NearestProb` all answer with.
fn put_hits(out: &mut Vec<u8>, tag: u8, hits: &[(ObjectId, Point, f64)]) {
    out.push(tag);
    put_varint(out, hits.len() as u64);
    for (id, p, scalar) in hits {
        put_varint(out, id.0);
        put_point(out, p);
        put_f64(out, *scalar);
    }
}

fn get_hits(buf: &mut &[u8]) -> Result<Vec<(ObjectId, Point, f64)>, DecodeError> {
    // A row is ≥ 25 bytes: a 1-byte varint and three f64.
    get_seq(buf, 25, |buf| {
        Ok((ObjectId(get_varint(buf)?), get_point(buf)?, get_f64(buf)?))
    })
}

// --------------------------------------------------------------- requests

/// Encodes a request payload into `out` (cleared first). Frame it with
/// [`write_frame_into`] / [`write_frame`].
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.clear();
    put_varint(out, req.correlation);
    match &req.body {
        RequestBody::ReportMany(reports) => {
            out.push(REQ_REPORT_MANY);
            put_varint(out, reports.len() as u64);
            for (id, t, p) in reports {
                put_varint(out, id.0);
                put_varint(out, *t);
                put_point(out, p);
            }
        }
        RequestBody::PredictBatch(queries) => {
            out.push(REQ_PREDICT_BATCH);
            put_varint(out, queries.len() as u64);
            for (id, t) in queries {
                put_varint(out, id.0);
                put_varint(out, *t);
            }
        }
        RequestBody::PredictRange { region, query_time } => {
            out.push(REQ_PREDICT_RANGE);
            put_bbox(out, region);
            put_varint(out, *query_time);
        }
        RequestBody::PredictNearest {
            focus,
            query_time,
            k,
        } => {
            out.push(REQ_PREDICT_NEAREST);
            put_point(out, focus);
            put_varint(out, *query_time);
            put_varint(out, *k);
        }
        RequestBody::PredictWithin {
            region,
            query_time,
            tau,
        } => {
            out.push(REQ_PREDICT_WITHIN);
            put_bbox(out, region);
            put_varint(out, *query_time);
            put_f64(out, *tau);
        }
        RequestBody::PredictNearestProb {
            focus,
            query_time,
            k,
            tau,
        } => {
            out.push(REQ_PREDICT_NEAREST_PROB);
            put_point(out, focus);
            put_varint(out, *query_time);
            put_varint(out, *k);
            put_f64(out, *tau);
        }
        RequestBody::Stats(id) => {
            out.push(REQ_STATS);
            put_varint(out, id.0);
        }
        RequestBody::ForceRetrain(id) => {
            out.push(REQ_FORCE_RETRAIN);
            put_varint(out, id.0);
        }
        RequestBody::Snapshot => out.push(REQ_SNAPSHOT),
        RequestBody::Metrics => out.push(REQ_METRICS),
        RequestBody::Ping => out.push(REQ_PING),
        RequestBody::Shutdown => out.push(REQ_SHUTDOWN),
    }
}

/// Decodes a request payload. Total: every failure is a typed error.
pub fn decode_request(mut payload: &[u8]) -> Result<Request, ProtoError> {
    let buf = &mut payload;
    let correlation = get_varint(buf)?;
    let verb = get_u8(buf)?;
    let body = match verb {
        REQ_REPORT_MANY => {
            // A report is ≥ 18 bytes (two 1-byte varints + two f64).
            RequestBody::ReportMany(get_seq(buf, 18, |buf| {
                Ok((
                    ObjectId(get_varint(buf)?),
                    get_varint(buf)?,
                    get_point(buf)?,
                ))
            })?)
        }
        REQ_PREDICT_BATCH => RequestBody::PredictBatch(get_seq(buf, 2, |buf| {
            Ok((ObjectId(get_varint(buf)?), get_varint(buf)?))
        })?),
        REQ_PREDICT_RANGE => RequestBody::PredictRange {
            region: get_bbox(buf)?,
            query_time: get_varint(buf)?,
        },
        REQ_PREDICT_NEAREST => RequestBody::PredictNearest {
            focus: get_point(buf)?,
            query_time: get_varint(buf)?,
            k: get_varint(buf)?,
        },
        REQ_PREDICT_WITHIN => RequestBody::PredictWithin {
            region: get_bbox(buf)?,
            query_time: get_varint(buf)?,
            tau: get_f64(buf)?,
        },
        REQ_PREDICT_NEAREST_PROB => RequestBody::PredictNearestProb {
            focus: get_point(buf)?,
            query_time: get_varint(buf)?,
            k: get_varint(buf)?,
            tau: get_f64(buf)?,
        },
        REQ_STATS => RequestBody::Stats(ObjectId(get_varint(buf)?)),
        REQ_FORCE_RETRAIN => RequestBody::ForceRetrain(ObjectId(get_varint(buf)?)),
        REQ_SNAPSHOT => RequestBody::Snapshot,
        REQ_METRICS => RequestBody::Metrics,
        REQ_PING => RequestBody::Ping,
        REQ_SHUTDOWN => RequestBody::Shutdown,
        other => {
            return Err(ProtoError::Decode(DecodeError::Invalid(format!(
                "unknown request verb {other}"
            ))))
        }
    };
    if !buf.is_empty() {
        return Err(ProtoError::Decode(DecodeError::TrailingBytes(buf.len())));
    }
    Ok(Request { correlation, body })
}

// -------------------------------------------------------------- responses

/// Encodes a response payload into `out` (cleared first).
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.clear();
    put_varint(out, resp.correlation);
    match &resp.body {
        ResponseBody::Ingested(results) => {
            out.push(RESP_INGESTED);
            put_varint(out, results.len() as u64);
            for r in results {
                put_ingest_result(out, r);
            }
        }
        ResponseBody::Predictions(results) => {
            out.push(RESP_PREDICTIONS);
            put_varint(out, results.len() as u64);
            for r in results {
                put_result(out, r, put_prediction, put_query_error);
            }
        }
        ResponseBody::Range(hits) => {
            out.push(RESP_RANGE);
            put_varint(out, hits.len() as u64);
            for (id, p) in hits {
                put_varint(out, id.0);
                put_point(out, p);
            }
        }
        ResponseBody::Nearest(hits) => put_hits(out, RESP_NEAREST, hits),
        ResponseBody::Within(hits) => put_hits(out, RESP_WITHIN, hits),
        ResponseBody::NearestProb(hits) => put_hits(out, RESP_NEAREST_PROB, hits),
        ResponseBody::Stats(result) => {
            out.push(RESP_STATS);
            put_result(out, result, put_stats, put_query_error);
        }
        ResponseBody::Retrained(result) => {
            out.push(RESP_RETRAINED);
            put_result(out, result, |_, ()| {}, put_query_error);
        }
        ResponseBody::Snapshotted(result) => {
            out.push(RESP_SNAPSHOTTED);
            put_result(
                out,
                result,
                |out, cut| out.push(u8::from(*cut)),
                put_io_kind,
            );
        }
        ResponseBody::Metrics(json) => {
            out.push(RESP_METRICS);
            put_string(out, json);
        }
        ResponseBody::Pong => out.push(RESP_PONG),
        ResponseBody::ShuttingDown => out.push(RESP_SHUTTING_DOWN),
        ResponseBody::Malformed(why) => {
            out.push(RESP_MALFORMED);
            put_string(out, why);
        }
        ResponseBody::Oversized { encoded, limit } => {
            out.push(RESP_OVERSIZED);
            put_varint(out, *encoded);
            put_varint(out, *limit);
        }
    }
}

/// Decodes a response payload. Total: every failure is a typed error.
pub fn decode_response(mut payload: &[u8]) -> Result<Response, ProtoError> {
    let buf = &mut payload;
    let correlation = get_varint(buf)?;
    let tag = get_u8(buf)?;
    let body = match tag {
        RESP_INGESTED => ResponseBody::Ingested(get_seq(buf, 1, get_ingest_result)?),
        RESP_PREDICTIONS => ResponseBody::Predictions(get_seq(buf, 2, |buf| {
            get_result(buf, "prediction", get_prediction, get_query_error)
        })?),
        RESP_RANGE => ResponseBody::Range(get_seq(buf, 17, |buf| {
            Ok((ObjectId(get_varint(buf)?), get_point(buf)?))
        })?),
        RESP_NEAREST => ResponseBody::Nearest(get_hits(buf)?),
        RESP_WITHIN => ResponseBody::Within(get_hits(buf)?),
        RESP_NEAREST_PROB => ResponseBody::NearestProb(get_hits(buf)?),
        RESP_STATS => ResponseBody::Stats(get_result(buf, "stats", get_stats, get_query_error)?),
        RESP_RETRAINED => {
            ResponseBody::Retrained(get_result(buf, "retrain", |_| Ok(()), get_query_error)?)
        }
        RESP_SNAPSHOTTED => ResponseBody::Snapshotted(get_result(
            buf,
            "snapshot",
            |buf| Ok(get_u8(buf)? != 0),
            get_io_kind,
        )?),
        RESP_METRICS => ResponseBody::Metrics(get_string(buf)?),
        RESP_PONG => ResponseBody::Pong,
        RESP_SHUTTING_DOWN => ResponseBody::ShuttingDown,
        RESP_MALFORMED => ResponseBody::Malformed(get_string(buf)?),
        RESP_OVERSIZED => ResponseBody::Oversized {
            encoded: get_varint(buf)?,
            limit: get_varint(buf)?,
        },
        other => {
            return Err(ProtoError::Decode(DecodeError::Invalid(format!(
                "unknown response tag {other}"
            ))))
        }
    };
    if !buf.is_empty() {
        return Err(ProtoError::Decode(DecodeError::TrailingBytes(buf.len())));
    }
    Ok(Response { correlation, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_check::mutate::every_cut;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame_into(&mut out, payload);
        out
    }

    #[test]
    fn frame_roundtrip_and_reuse() {
        let mut bytes = frame(b"hello");
        write_frame_into(&mut bytes, b"");
        write_frame_into(&mut bytes, &[0xFFu8; 100]);
        let mut r = &bytes[..];
        let mut payload = Vec::new();
        assert!(read_frame(&mut r, &mut payload, 1024).unwrap());
        assert_eq!(payload, b"hello");
        assert!(read_frame(&mut r, &mut payload, 1024).unwrap());
        assert!(payload.is_empty());
        assert!(read_frame(&mut r, &mut payload, 1024).unwrap());
        assert_eq!(payload, [0xFFu8; 100]);
        assert!(!read_frame(&mut r, &mut payload, 1024).unwrap());
    }

    #[test]
    fn eof_mid_frame_is_typed() {
        every_cut(&frame(b"payload"), |cut, mut prefix| {
            let got = read_frame(&mut prefix, &mut Vec::new(), 1024);
            if cut == 0 {
                // Nothing of a frame: a clean end of stream.
                assert_eq!(got, Ok(false));
            } else {
                let eof = ProtoError::Io(io::ErrorKind::UnexpectedEof);
                assert_eq!(got, Err(eof), "cut {cut}");
            }
        });
    }

    #[test]
    fn oversized_length_rejected_before_read() {
        let mut bytes = ((1u32 << 30).to_le_bytes()).to_vec();
        bytes.extend_from_slice(&[0; 32]);
        let mut r = &bytes[..];
        let mut payload = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut payload, 1 << 20),
            Err(ProtoError::Oversized { got, limit }) if got == 1 << 30 && limit == 1 << 20
        ));
        assert!(payload.capacity() < 1 << 20, "no giant allocation");
    }

    #[test]
    fn corrupt_checksum_detected() {
        let mut bytes = frame(b"payload");
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        let mut r = &bytes[..];
        assert!(matches!(
            read_frame(&mut r, &mut Vec::new(), 1024),
            Err(ProtoError::Checksum { .. })
        ));
    }

    #[test]
    fn request_kinds_roundtrip() {
        let requests = [
            RequestBody::ReportMany(vec![
                (ObjectId(7), 3, Point::new(1.5, -2.5)),
                (
                    ObjectId(u64::MAX),
                    u64::MAX,
                    Point::new(f64::MIN_POSITIVE, 0.0),
                ),
            ]),
            RequestBody::PredictBatch(vec![(ObjectId(1), 10), (ObjectId(2), 20)]),
            RequestBody::PredictRange {
                region: BoundingBox {
                    min: Point::new(-10.0, -10.0),
                    max: Point::new(10.0, 10.0),
                },
                query_time: 99,
            },
            RequestBody::PredictNearest {
                focus: Point::new(0.25, -0.25),
                query_time: 42,
                k: 5,
            },
            RequestBody::PredictWithin {
                region: BoundingBox {
                    min: Point::new(-5.0, -5.0),
                    max: Point::new(5.0, 5.0),
                },
                query_time: 77,
                tau: 0.5,
            },
            RequestBody::PredictNearestProb {
                focus: Point::new(1.0, -1.0),
                query_time: 88,
                k: 3,
                tau: 0.9,
            },
            RequestBody::Stats(ObjectId(3)),
            RequestBody::ForceRetrain(ObjectId(4)),
            RequestBody::Snapshot,
            RequestBody::Metrics,
            RequestBody::Ping,
            RequestBody::Shutdown,
        ];
        let mut out = Vec::new();
        for (i, body) in requests.into_iter().enumerate() {
            let req = Request {
                correlation: i as u64 * 1000 + 1,
                body,
            };
            encode_request(&req, &mut out);
            assert_eq!(decode_request(&out).unwrap(), req);
        }
    }

    #[test]
    fn response_kinds_roundtrip() {
        let pred = Prediction {
            answers: vec![
                RankedAnswer {
                    location: Point::new(5.0, 6.0),
                    score: 0.75,
                    pattern: Some(9),
                    uncertainty: Uncertainty {
                        region: BoundingBox {
                            min: Point::new(4.0, 5.0),
                            max: Point::new(6.0, 7.0),
                        },
                        mass: 0.625,
                    },
                },
                RankedAnswer {
                    location: Point::new(-1.0, 0.5),
                    score: 0.0,
                    pattern: None,
                    uncertainty: Uncertainty::point_claim(Point::new(-1.0, 0.5)),
                },
            ],
            source: PredictionSource::BackwardPatterns,
        };
        let responses = [
            ResponseBody::Ingested(vec![
                Ok(()),
                Err(IngestError::NonContiguous {
                    expected: 4,
                    got: 9,
                }),
                Err(IngestError::NonFinitePosition),
                Err(IngestError::ObjectUnavailable(ObjectId(5))),
                Err(IngestError::Durability(io::ErrorKind::StorageFull)),
            ]),
            ResponseBody::Predictions(vec![
                Ok(pred),
                Err(QueryError::UnknownObject(ObjectId(1))),
                Err(QueryError::NoHistory(ObjectId(2))),
                Err(QueryError::NotInFuture {
                    current: 8,
                    requested: 3,
                }),
                Err(QueryError::ObjectUnavailable(ObjectId(4))),
                Err(QueryError::InsufficientHistory {
                    full_periods: 2,
                    min_train_subs: 5,
                }),
            ]),
            ResponseBody::Range(vec![(ObjectId(1), Point::new(0.5, 0.25))]),
            ResponseBody::Nearest(vec![(ObjectId(2), Point::new(-1.0, 2.0), 3.5)]),
            ResponseBody::Within(vec![(ObjectId(3), Point::new(2.0, 2.0), 0.75)]),
            ResponseBody::NearestProb(vec![(ObjectId(4), Point::new(-2.0, 1.0), 12.5)]),
            ResponseBody::Stats(Ok(ObjectStats {
                samples: 10,
                full_periods: 2,
                trained_periods: 2,
                patterns: 3,
                regions: 4,
                approx_bytes: 2048,
            })),
            ResponseBody::Stats(Err(QueryError::UnknownObject(ObjectId(77)))),
            ResponseBody::Retrained(Ok(())),
            ResponseBody::Retrained(Err(QueryError::InsufficientHistory {
                full_periods: 0,
                min_train_subs: 3,
            })),
            ResponseBody::Snapshotted(Ok(true)),
            ResponseBody::Snapshotted(Ok(false)),
            ResponseBody::Snapshotted(Err(io::ErrorKind::StorageFull)),
            ResponseBody::Metrics("{\"counters\":[]}".into()),
            ResponseBody::Pong,
            ResponseBody::ShuttingDown,
            ResponseBody::Malformed("unknown request verb 240".into()),
            ResponseBody::Oversized {
                encoded: 5 << 20,
                limit: 4 << 20,
            },
        ];
        let mut out = Vec::new();
        for (i, body) in responses.into_iter().enumerate() {
            let resp = Response {
                correlation: i as u64,
                body,
            };
            encode_response(&resp, &mut out);
            assert_eq!(decode_response(&out).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut out = Vec::new();
        encode_request(
            &Request {
                correlation: 1,
                body: RequestBody::Ping,
            },
            &mut out,
        );
        out.push(0);
        assert!(matches!(
            decode_request(&out),
            Err(ProtoError::Decode(DecodeError::TrailingBytes(1)))
        ));
    }

    #[test]
    fn truncated_string_payload_is_typed_not_panic() {
        let mut out = Vec::new();
        encode_response(
            &Response {
                correlation: 1,
                body: ResponseBody::Malformed("abcdef".into()),
            },
            &mut out,
        );
        // Every truncation must decode to a typed error. The
        // one-byte-short cut is the regression case: the announced
        // string length then equals the pre-varint remainder, one more
        // than the bytes left after the varint.
        every_cut(&out, |cut, prefix| {
            assert!(
                decode_response(prefix).is_err(),
                "truncation at {cut} must be a typed error"
            );
        });
    }

    #[test]
    fn truncated_uncertain_prediction_is_typed_not_panic() {
        // The uncertainty-carrying answer encoding: every cut of a
        // Predictions response must decode to a typed error, and the
        // full payload must round-trip.
        let pred = Prediction {
            answers: vec![RankedAnswer {
                location: Point::new(1.0, 2.0),
                score: 0.5,
                pattern: Some(3),
                uncertainty: Uncertainty {
                    region: BoundingBox {
                        min: Point::new(0.0, 1.0),
                        max: Point::new(2.0, 3.0),
                    },
                    mass: 0.5,
                },
            }],
            source: PredictionSource::ForwardPatterns,
        };
        let resp = Response {
            correlation: 9,
            body: ResponseBody::Predictions(vec![Ok(pred)]),
        };
        let mut out = Vec::new();
        encode_response(&resp, &mut out);
        assert_eq!(decode_response(&out).unwrap(), resp);
        every_cut(&out, |cut, prefix| {
            assert!(
                decode_response(prefix).is_err(),
                "truncation at {cut} must be a typed error"
            );
        });
    }

    #[test]
    fn truncated_prob_verbs_are_typed_not_panic() {
        let mut out = Vec::new();
        encode_request(
            &Request {
                correlation: 2,
                body: RequestBody::PredictNearestProb {
                    focus: Point::new(3.0, 4.0),
                    query_time: 10,
                    k: 2,
                    tau: 0.8,
                },
            },
            &mut out,
        );
        every_cut(&out, |cut, prefix| {
            assert!(decode_request(prefix).is_err(), "request cut {cut}");
        });
        encode_response(
            &Response {
                correlation: 2,
                body: ResponseBody::Within(vec![(ObjectId(1), Point::new(0.0, 0.0), 1.0)]),
            },
            &mut out,
        );
        every_cut(&out, |cut, prefix| {
            assert!(decode_response(prefix).is_err(), "response cut {cut}");
        });
    }

    #[test]
    fn unknown_io_kind_crosses_as_other() {
        let mut out = Vec::new();
        put_io_kind(&mut out, &io::ErrorKind::BrokenPipe); // not in the table
        assert_eq!(get_io_kind(&mut &out[..]).unwrap(), io::ErrorKind::Other);
    }
}
