//! A pipelined client for the wire protocol.
//!
//! [`Client`] works at two levels. [`call`](Client::call) sends any
//! [`RequestBody`] and waits for its [`ResponseBody`]; a few typed
//! helpers ([`report_many`](Client::report_many),
//! [`predict_batch`](Client::predict_batch), [`stats`](Client::stats),
//! the admin verbs) unwrap the answer for the verbs the CLI and the
//! benchmarks drive, with signatures that mirror `MovingObjectStore`'s.
//! Fleet queries go through `call`. Underneath, [`send`](Client::send) and
//! [`recv`](Client::recv) expose the pipeline directly: queue many
//! request frames without waiting, then drain responses (the server
//! answers in receive order and echoes each request's correlation
//! id).
//!
//! Encode and receive buffers live on the client and are reused
//! across calls, mirroring the server's connection-owned buffers.

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, ProtoError, Request, RequestBody,
    Response, ResponseBody, DEFAULT_MAX_FRAME,
};
use hpm_geo::Point;
use hpm_objectstore::{IngestError, ObjectId, ObjectStats, QueryError};
use hpm_trajectory::Timestamp;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The transport or the response encoding failed.
    Proto(ProtoError),
    /// The server could not parse what we sent
    /// ([`ResponseBody::Malformed`], message attached).
    Malformed(String),
    /// The server executed the request but its response encoded past
    /// the server's frame cap, so the result was dropped server-side
    /// ([`ResponseBody::Oversized`]). The connection is still usable;
    /// narrow the query or raise `max_frame` on both ends.
    ResponseTooLarge {
        /// Encoded size of the dropped response payload, in bytes.
        encoded: u64,
        /// The server's frame cap, in bytes.
        limit: u64,
    },
    /// The response decoded fine but was the wrong kind for the verb
    /// (protocol confusion — e.g. a `Pong` answering `stats`).
    UnexpectedResponse {
        /// The response kind the verb expects.
        expected: &'static str,
    },
    /// A response's correlation id did not match the request it
    /// should be answering — the pipeline is out of step.
    CorrelationMismatch {
        /// The correlation id the request carried.
        sent: u64,
        /// The correlation id the response echoed.
        got: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Malformed(why) => write!(f, "server rejected request: {why}"),
            ClientError::ResponseTooLarge { encoded, limit } => write!(
                f,
                "server dropped a {encoded}-byte response over its {limit}-byte frame cap"
            ),
            ClientError::UnexpectedResponse { expected } => {
                write!(f, "response kind mismatch: expected {expected}")
            }
            ClientError::CorrelationMismatch { sent, got } => {
                write!(f, "correlation mismatch: sent {sent}, got {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e.kind()))
    }
}

/// One connection to an [`hpm-server`](crate) instance.
pub struct Client {
    stream: TcpStream,
    /// Reusable request-payload encode buffer.
    encode: Vec<u8>,
    /// Reusable frame staging buffer (header + payload + checksum).
    staging: Vec<u8>,
    /// Reusable response-payload receive buffer.
    receive: Vec<u8>,
    next_correlation: u64,
    /// Largest response payload this client accepts.
    max_frame: usize,
}

impl Client {
    /// Connects to a server, accepting responses up to
    /// [`DEFAULT_MAX_FRAME`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, DEFAULT_MAX_FRAME)
    }

    /// Connects to a server with an explicit response-payload cap,
    /// mirroring `ServerConfig::max_frame` — pair them when the server
    /// runs with a non-default cap.
    pub fn connect_with(addr: impl ToSocketAddrs, max_frame: usize) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            encode: Vec::new(),
            staging: Vec::new(),
            receive: Vec::new(),
            next_correlation: 1,
            max_frame,
        })
    }

    /// Queues one request frame without waiting for its answer
    /// (pipelining). Returns the correlation id the response will
    /// echo; match it against [`recv`](Self::recv)'d responses.
    pub fn send(&mut self, body: RequestBody) -> Result<u64, ClientError> {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        let req = Request { correlation, body };
        encode_request(&req, &mut self.encode);
        write_frame(&mut self.stream, &mut self.staging, &self.encode)?;
        Ok(correlation)
    }

    /// Reads the next response frame (in server order — receive order
    /// of the requests).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if !read_frame(&mut self.stream, &mut self.receive, self.max_frame)? {
            return Err(ClientError::Proto(ProtoError::Io(
                io::ErrorKind::UnexpectedEof,
            )));
        }
        Ok(decode_response(&self.receive)?)
    }

    /// [`send`](Self::send) then [`recv`](Self::recv), checking the
    /// correlation id and unwrapping server-side rejections.
    pub fn call(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        let sent = self.send(body)?;
        let resp = self.recv()?;
        if let ResponseBody::Malformed(why) = resp.body {
            return Err(ClientError::Malformed(why));
        }
        if resp.correlation != sent {
            return Err(ClientError::CorrelationMismatch {
                sent,
                got: resp.correlation,
            });
        }
        if let ResponseBody::Oversized { encoded, limit } = resp.body {
            return Err(ClientError::ResponseTooLarge { encoded, limit });
        }
        Ok(resp.body)
    }

    /// Ingests a batch of location reports; one result per report, in
    /// input order (mirrors `MovingObjectStore::report_many`).
    pub fn report_many(
        &mut self,
        reports: &[(ObjectId, Timestamp, Point)],
    ) -> Result<Vec<Result<(), IngestError>>, ClientError> {
        match self.call(RequestBody::ReportMany(reports.to_vec()))? {
            ResponseBody::Ingested(results) => Ok(results),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "Ingested",
            }),
        }
    }

    /// Answers a batch of per-object predictive queries; one result
    /// per query, in input order (mirrors
    /// `MovingObjectStore::predict_batch`).
    pub fn predict_batch(
        &mut self,
        queries: &[(ObjectId, Timestamp)],
    ) -> Result<Vec<Result<hpm_core::Prediction, QueryError>>, ClientError> {
        match self.call(RequestBody::PredictBatch(queries.to_vec()))? {
            ResponseBody::Predictions(results) => Ok(results),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "Predictions",
            }),
        }
    }

    /// Per-object health snapshot (mirrors `MovingObjectStore::stats`).
    pub fn stats(&mut self, id: ObjectId) -> Result<Result<ObjectStats, QueryError>, ClientError> {
        match self.call(RequestBody::Stats(id))? {
            ResponseBody::Stats(result) => Ok(result),
            _ => Err(ClientError::UnexpectedResponse { expected: "Stats" }),
        }
    }

    /// Admin: cut a durability snapshot on the server (`Ok(false)` on
    /// a memory-only store).
    pub fn snapshot(&mut self) -> Result<Result<bool, io::ErrorKind>, ClientError> {
        match self.call(RequestBody::Snapshot)? {
            ResponseBody::Snapshotted(result) => Ok(result),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "Snapshotted",
            }),
        }
    }

    /// Admin: pull the server's metrics registry as JSON.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        match self.call(RequestBody::Metrics)? {
            ResponseBody::Metrics(json) => Ok(json),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "Metrics",
            }),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(RequestBody::Ping)? {
            ResponseBody::Pong => Ok(()),
            _ => Err(ClientError::UnexpectedResponse { expected: "Pong" }),
        }
    }

    /// Asks the server to stop; resolves once the server acknowledges.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(RequestBody::Shutdown)? {
            ResponseBody::ShuttingDown => Ok(()),
            _ => Err(ClientError::UnexpectedResponse {
                expected: "ShuttingDown",
            }),
        }
    }

    /// The raw stream, for tests that need to misbehave (partial
    /// frames, abrupt disconnects).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
