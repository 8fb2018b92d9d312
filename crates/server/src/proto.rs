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
//! Each message's layout is stated once, as a table near the end of
//! this module: `wire_enum!` gives every variant of [`RequestBody`],
//! [`ResponseBody`], [`QueryError`] and [`PredictionSource`] its tag
//! byte and its fields in wire order, and `wire_struct!` lists the
//! fields of [`Request`], [`Response`], [`ObjectStats`], [`Prediction`],
//! [`RankedAnswer`] and [`Uncertainty`]. Encoder, decoder and every
//! count floor derive from those tables through one private `Wire`
//! trait. Besides the generic sequence, tuple and `Result` layouts, the
//! only hand-written ones are the leaf types and the ingest result (`0`
//! for `Ok`, `1`–`5` naming the [`IngestError`]).
//!
//! Decoding is total: any byte sequence yields either a value or a
//! typed [`ProtoError`], never a panic, and length prefixes are
//! sanity-checked before any allocation (a hostile 4 GiB length
//! prefix is rejected while 4 bytes have been read; a count inside a
//! payload is bounded by the bytes behind it over its element type's
//! `Wire::MIN`, `wire::get_seq`).

use hpm_core::{Prediction, PredictionSource, RankedAnswer, Uncertainty};
use hpm_geo::{BoundingBox, Point};
use hpm_objectstore::{IngestError, ObjectId, ObjectStats, QueryError};
use hpm_store::wire::{
    fnv1a, get_bbox, get_f64, get_point, get_seq, get_u8, get_varint, put_bbox, put_f64, put_point,
    put_varint,
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

// ------------------------------------------------------------------ codec

/// A type with one wire layout: `put` appends it, `get` reads it back,
/// and `MIN` is a floor on the bytes one value takes — what
/// [`get_seq`] bounds a count of them by, so no count floor is typed in
/// beside the layout it describes.
trait Wire: Sized {
    /// No value encodes to fewer bytes: the sum of the fields' floors,
    /// plus the tag byte of a `Result` and the smaller arm's floor; an
    /// enum's floor is its tag byte alone.
    const MIN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Leaf types: `type, MIN, |value, out| put, |buf| get`.
macro_rules! wire_leaf {
    ($($ty:ty, $min:expr, |$v:ident, $out:ident| $put:expr, |$buf:ident| $get:expr;)*) => {$(
        impl Wire for $ty {
            const MIN: usize = $min;
            fn put(&self, $out: &mut Vec<u8>) {
                let $v = self;
                $put
            }
            fn get($buf: &mut &[u8]) -> Result<Self, DecodeError> {
                $get
            }
        }
    )*};
}

wire_leaf! {
    u8, 1, |v, out| out.push(*v), |buf| get_u8(buf);
    u64, 1, |v, out| put_varint(out, *v), |buf| get_varint(buf);
    usize, 1, |v, out| put_varint(out, *v as u64), |buf| Ok(get_varint(buf)? as usize);
    ObjectId, 1, |v, out| put_varint(out, v.0), |buf| get_varint(buf).map(ObjectId);
    f64, 8, |v, out| put_f64(out, *v), |buf| get_f64(buf);
    Point, 16, |v, out| put_point(out, v), |buf| get_point(buf);
    BoundingBox, 32, |v, out| put_bbox(out, v), |buf| get_bbox(buf);
    (), 0, |_v, _out| (), |_buf| Ok(());
    // A flag is 0 or 1: any other byte would make unequal payloads
    // decode to equal values.
    bool, 1, |v, out| out.push(u8::from(*v)), |buf| match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(DecodeError::Invalid(format!("flag byte {other}"))),
    };
    // A varint length, then UTF-8 bytes.
    String, 1, |v, out| {
        put_varint(out, v.len() as u64);
        out.extend_from_slice(v.as_bytes());
    }, |buf| String::from_utf8(<Vec<u8> as Wire>::get(buf)?)
        .map_err(|_| DecodeError::Invalid("string is not UTF-8".into()));
    // The stable numbering of the `io::ErrorKind`s a snapshot can
    // realistically surface; every other kind crosses as `Other` (0),
    // so decode is total.
    io::ErrorKind, 1, |v, out| {
        out.push(IO_KINDS.iter().find(|(_, k)| k == v).map_or(0, |(c, _)| *c))
    }, |buf| {
        let code = get_u8(buf)?;
        Ok(IO_KINDS.iter().find(|(c, _)| *c == code).map_or(io::ErrorKind::Other, |(_, k)| *k))
    };
    // A ranked answer's supporting pattern: 0 for none, else index + 1.
    Option<u32>, 1, |v, out| put_varint(out, v.map_or(0, |i| u64::from(i) + 1)),
    |buf| match get_varint(buf)? {
        0 => Ok(None),
        i => u32::try_from(i - 1)
            .map(Some)
            .map_err(|_| DecodeError::Invalid(format!("pattern index {}", i - 1))),
    };
}

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

/// A varint count, then each item; the count is bounded by the item's
/// `MIN` before a slot is allocated.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        self.iter().for_each(|item| item.put(out));
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        get_seq(buf, T::MIN, T::get)
    }
}

macro_rules! wire_tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN: usize = 0 $(+ $t::MIN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)*
            }
            fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok(($($t::get(buf)?,)*))
            }
        }
    };
}

wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// `0` then the `Ok` value, or `1` then the error.
impl<T: Wire, E: Wire> Wire for Result<T, E> {
    const MIN: usize = 1 + if T::MIN < E::MIN { T::MIN } else { E::MIN };
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.put(out);
            }
            Err(e) => {
                out.push(1);
                e.put(out);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match get_u8(buf)? {
            0 => T::get(buf).map(Ok),
            1 => E::get(buf).map(Err),
            other => Err(DecodeError::Invalid(format!("result tag {other}"))),
        }
    }
}

/// An ingest result is one tag byte: `0` for `Ok`, `1`–`4` naming the
/// error. (`IngestError` is not `Wire`, so this does not overlap the
/// generic `Result` layout.)
impl Wire for Result<(), IngestError> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ok(()) => out.push(0),
            Err(IngestError::NonContiguous { expected, got }) => (1u8, *expected, *got).put(out),
            Err(IngestError::NonFinitePosition) => out.push(2),
            Err(IngestError::ObjectUnavailable(id)) => (3u8, *id).put(out),
            Err(IngestError::Durability(kind)) => (4u8, *kind).put(out),
            Err(IngestError::TimestampOutOfRange) => out.push(5),
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Err(match get_u8(buf)? {
            0 => return Ok(Ok(())),
            1 => IngestError::NonContiguous {
                expected: Wire::get(buf)?,
                got: Wire::get(buf)?,
            },
            2 => IngestError::NonFinitePosition,
            3 => IngestError::ObjectUnavailable(Wire::get(buf)?),
            4 => IngestError::Durability(Wire::get(buf)?),
            5 => IngestError::TimestampOutOfRange,
            other => return Err(DecodeError::Invalid(format!("ingest result tag {other}"))),
        }))
    }
}

/// One enum's wire table: each variant's tag byte, then its fields in
/// wire order (a tuple variant's fields are named only to bind them).
/// `put` writes the tag, then each field; `get` reads them back, and
/// an unlisted tag is `Invalid`, named by the leading string. An enum's
/// `MIN` is its tag byte: a floor, not its smallest variant's size.
macro_rules! wire_enum {
    ($($ty:ident $what:literal {
        $($tag:literal => $v:ident $(($($b:ident: $bt:ty),*))? $({$($f:ident: $ft:ty),*})?,)*
    })*) => {$(
        impl Wire for $ty {
            const MIN: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                match self {$(
                    $ty::$v $(($($b),*))? $({$($f),*})? => {
                        out.push($tag);
                        $($($b.put(out);)*)?
                        $($($f.put(out);)*)?
                    }
                )*}
            }
            fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok(match get_u8(buf)? {
                    $($tag => $ty::$v
                        $(($(<$bt as Wire>::get(buf)?),*))?
                        $({$($f: <$ft as Wire>::get(buf)?),*})?,)*
                    other => return Err(DecodeError::Invalid(format!("{} {other}", $what))),
                })
            }
        }
    )*};
}

/// One struct's wire table: its fields in wire order, each in its own
/// layout, with no tag; `MIN` is the fields' sum.
macro_rules! wire_struct {
    ($($ty:ident { $($f:ident: $ft:ty,)* })*) => {$(
        impl Wire for $ty {
            const MIN: usize = 0 $(+ <$ft as Wire>::MIN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                Ok($ty { $($f: <$ft as Wire>::get(buf)?),* })
            }
        }
    )*};
}

wire_enum! {
    RequestBody "unknown request verb" {
        1 => ReportMany(reports: Vec<(ObjectId, Timestamp, Point)>),
        2 => PredictBatch(queries: Vec<(ObjectId, Timestamp)>),
        3 => PredictRange { region: BoundingBox, query_time: Timestamp },
        4 => PredictNearest { focus: Point, query_time: Timestamp, k: u64 },
        5 => Stats(id: ObjectId),
        6 => ForceRetrain(id: ObjectId),
        7 => Snapshot,
        8 => Metrics,
        9 => Ping,
        10 => Shutdown,
        11 => PredictWithin { region: BoundingBox, query_time: Timestamp, tau: f64 },
        12 => PredictNearestProb { focus: Point, query_time: Timestamp, k: u64, tau: f64 },
    }
    ResponseBody "unknown response tag" {
        1 => Ingested(results: Vec<Result<(), IngestError>>),
        2 => Predictions(results: Vec<Result<Prediction, QueryError>>),
        3 => Range(hits: Vec<(ObjectId, Point)>),
        4 => Nearest(hits: Vec<(ObjectId, Point, f64)>),
        5 => Stats(result: Result<ObjectStats, QueryError>),
        6 => Retrained(result: Result<(), QueryError>),
        7 => Snapshotted(result: Result<bool, io::ErrorKind>),
        8 => Metrics(json: String),
        9 => Pong,
        10 => ShuttingDown,
        11 => Malformed(why: String),
        12 => Oversized { encoded: u64, limit: u64 },
        13 => Within(hits: Vec<(ObjectId, Point, f64)>),
        14 => NearestProb(hits: Vec<(ObjectId, Point, f64)>),
    }
    QueryError "query error tag" {
        1 => UnknownObject(id: ObjectId),
        2 => NoHistory(id: ObjectId),
        3 => NotInFuture { current: Timestamp, requested: Timestamp },
        4 => ObjectUnavailable(id: ObjectId),
        5 => InsufficientHistory { full_periods: usize, min_train_subs: usize },
        6 => HorizonOutOfRange { current: Timestamp, requested: Timestamp },
    }
    PredictionSource "prediction source" {
        1 => ForwardPatterns,
        2 => BackwardPatterns,
        3 => MotionFunction,
    }
}

wire_struct! {
    Request { correlation: u64, body: RequestBody, }
    Response { correlation: u64, body: ResponseBody, }
    ObjectStats {
        samples: usize,
        full_periods: usize,
        trained_periods: usize,
        patterns: usize,
        regions: usize,
        approx_bytes: usize,
    }
    Prediction { source: PredictionSource, answers: Vec<RankedAnswer>, }
    RankedAnswer { location: Point, score: f64, pattern: Option<u32>, uncertainty: Uncertainty, }
    Uncertainty { region: BoundingBox, mass: f64, }
}

/// Reads one `T` that must fill the whole payload.
fn decode_whole<T: Wire>(mut payload: &[u8]) -> Result<T, ProtoError> {
    let value = T::get(&mut payload)?;
    if !payload.is_empty() {
        return Err(DecodeError::TrailingBytes(payload.len()).into());
    }
    Ok(value)
}

/// Encodes a request payload into `out` (cleared first): the
/// correlation, then the body. Frame it with [`write_frame_into`] /
/// [`write_frame`].
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    out.clear();
    req.put(out);
}

/// Decodes a request payload. Total: every failure is a typed error.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    decode_whole(payload)
}

/// Encodes a response payload into `out` (cleared first): the
/// correlation, then the body.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.clear();
    resp.put(out);
}

/// Decodes a response payload. Total: every failure is a typed error.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    decode_whole(payload)
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
        // Far past the cap, and one byte past it.
        for len in [1u32 << 30, (1 << 20) + 1] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 32]);
            let mut r = &bytes[..];
            let mut payload = Vec::new();
            assert!(matches!(
                read_frame(&mut r, &mut payload, 1 << 20),
                Err(ProtoError::Oversized { got, limit }) if got == u64::from(len) && limit == 1 << 20
            ));
            assert!(payload.capacity() < 1 << 20, "no giant allocation");
        }
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
                Err(IngestError::TimestampOutOfRange),
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
                Err(QueryError::HorizonOutOfRange {
                    current: 8,
                    requested: 8 + (1 << 32),
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
        io::ErrorKind::BrokenPipe.put(&mut out); // not in the table
        let got = <io::ErrorKind as Wire>::get(&mut &out[..]).unwrap();
        assert_eq!(got, io::ErrorKind::Other);
    }

    #[test]
    fn a_flag_byte_other_than_0_or_1_is_refused() {
        let mut out = Vec::new();
        encode_response(
            &Response {
                correlation: 1,
                body: ResponseBody::Snapshotted(Ok(true)),
            },
            &mut out,
        );
        assert_eq!(out.last(), Some(&1));
        *out.last_mut().unwrap() = 2;
        assert!(matches!(
            decode_response(&out),
            Err(ProtoError::Decode(DecodeError::Invalid(_)))
        ));
    }

    /// Pins `T::MIN` to the count floor it has always been, and checks
    /// that a smallest value encodes to at least that: a floor too high
    /// refuses valid frames, one too low weakens the allocation bound.
    fn floor<T: Wire>(smallest: T, min: usize) {
        assert_eq!(T::MIN, min, "{}", std::any::type_name::<T>());
        let mut out = Vec::new();
        smallest.put(&mut out);
        assert!(out.len() >= T::MIN, "{}", std::any::type_name::<T>());
    }

    #[test]
    fn count_floors_are_the_element_minimums() {
        let origin = Point::new(0.0, 0.0);
        floor::<(ObjectId, Timestamp, Point)>((ObjectId(0), 0, origin), 18);
        floor::<(ObjectId, Timestamp)>((ObjectId(0), 0), 2);
        floor::<(ObjectId, Point)>((ObjectId(0), origin), 17);
        floor::<(ObjectId, Point, f64)>((ObjectId(0), origin, 0.0), 25);
        let answer = RankedAnswer {
            location: origin,
            score: 0.0,
            pattern: None,
            uncertainty: Uncertainty::point_claim(origin),
        };
        floor(answer, 65);
        floor::<Result<(), IngestError>>(Ok(()), 1);
        floor::<Result<Prediction, QueryError>>(Ok(Prediction::default()), 2);
        floor::<Result<Prediction, QueryError>>(Err(QueryError::UnknownObject(ObjectId(0))), 2);
    }
}
