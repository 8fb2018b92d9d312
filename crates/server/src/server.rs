//! The server: a scoped accept loop and one thread per connection,
//! with the socket itself as the backpressure.
//!
//! # Threading
//!
//! [`Server::serve`] blocks inside one `thread::scope`: the calling
//! thread runs the accept loop and every connection gets one scoped
//! thread, so all of them borrow the store without `'static`
//! gymnastics and are joined before `serve` returns. That thread does
//! everything for its connection: read a frame, decode, execute
//! against the store, encode, write the answer.
//!
//! # Backpressure
//!
//! Responses are written with a blocking `write_all` on the thread
//! that reads requests. A client that sends faster than it reads
//! fills its own receive buffer and the server's send buffer; the
//! write then blocks, the server stops reading the socket, and TCP
//! pushes back to the client. The server buffers exactly one response
//! per connection — the one being written — in connection-owned
//! buffers that are reused, so a warm connection serves frames
//! without per-frame allocation.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (or a [`RequestBody::Shutdown`] frame)
//! sets the stop flag, wakes the accept loop with a loopback connect,
//! and half-closes every registered connection's read side.
//! Connections drain: the response in flight is still written, the
//! next read sees end-of-stream, and the thread joins. A read-side
//! close cannot wake a thread blocked writing to a stalled peer, so a
//! detached watchdog severs the write side too
//! ([`ServerConfig::drain_grace`] later) — the drain is bounded, not
//! best-effort. `serve` flushes buffered WAL batches and returns once
//! the scope is empty, on the clean path and the accept-error path
//! alike.

use crate::metrics;
use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, ProtoError, Request, RequestBody,
    Response, ResponseBody, DEFAULT_MAX_FRAME,
};
use hpm_core::PredictScratch;
use hpm_objectstore::MovingObjectStore;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest frame payload in either direction: request length
    /// prefixes above it are rejected before any allocation
    /// ([`ProtoError::Oversized`], connection closed), and a response
    /// that encodes larger is replaced by a typed
    /// [`ResponseBody::Oversized`] reply rather than emitted for the
    /// peer to reject.
    pub max_frame: usize,
    /// How long shutdown lets connections drain in-flight responses
    /// before severing their write side so threads blocked on a
    /// stalled peer are forced out.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame: DEFAULT_MAX_FRAME,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// State shared between the accept loop, connections, and handles.
struct Shared {
    stop: AtomicBool,
    addr: SocketAddr,
    /// Clones of live connections, half-closed on shutdown so blocked
    /// readers wake (and fully severed once the drain grace expires).
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    drain_grace: Duration,
}

impl Shared {
    /// Flags the server to stop, wakes the accept loop, and unblocks
    /// every connection's read.
    fn initiate_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop: a throwaway loopback connection makes
        // `accept` return, and the loop re-checks the flag first.
        let _ = TcpStream::connect(self.addr);
        let stragglers: Vec<TcpStream> = {
            let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
            conns.values().filter_map(|s| s.try_clone().ok()).collect()
        };
        // A read-side close does not wake a connection blocked in
        // `write_all` against a peer that stopped reading. Give every
        // connection a bounded window to drain, then sever the write
        // side too; the blocked write then errors out and the thread
        // joins. Detached on purpose: the watchdog owns its clones and
        // a no-op run (everyone drained in time) costs nothing.
        let grace = self.drain_grace;
        thread::spawn(move || {
            thread::sleep(grace);
            for stream in &stragglers {
                let _ = stream.shutdown(Shutdown::Both);
            }
        });
    }
}

/// A shutdown control for a running [`Server`]; cheap to clone, safe
/// to use from any thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stops the server: no new connections, existing connections
    /// drain their in-flight responses, then [`Server::serve`]
    /// returns. Idempotent.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }
}

/// A bound-but-not-yet-serving TCP front end for a
/// [`MovingObjectStore`].
pub struct Server {
    store: Arc<MovingObjectStore>,
    listener: TcpListener,
    config: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (use port 0 to let the OS pick) over `store`.
    pub fn bind(
        store: Arc<MovingObjectStore>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            addr: listener.local_addr()?,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            drain_grace: config.drain_grace,
        });
        Ok(Server {
            store,
            listener,
            config,
            shared,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A clonable shutdown handle; grab one before calling
    /// [`serve`](Self::serve), which consumes the server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] or a
    /// [`RequestBody::Shutdown`] frame, then drains connections,
    /// flushes buffered WAL batches, and returns. The WAL flush runs
    /// even when an accept failure ends the loop early.
    pub fn serve(self) -> io::Result<()> {
        let Server {
            store,
            listener,
            config,
            shared,
        } = self;
        let served = thread::scope(|scope| {
            loop {
                let (stream, _) = match listener.accept() {
                    Ok(accepted) => accepted,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) if shared.stop.load(Ordering::SeqCst) => break,
                    Err(e) => {
                        shared.initiate_shutdown();
                        return Err(e);
                    }
                };
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let store = &store;
                let config = &config;
                let shared = &shared;
                scope.spawn(move || track_conn(store, stream, config, shared));
            }
            Ok(())
        });
        let flushed = store.flush_wal();
        served.and(flushed)
    }
}

/// What a connection does after answering a frame.
enum After {
    /// Keep reading frames.
    Continue,
    /// The answer just written was the last one; close.
    Close,
}

/// Runs one connection on its scoped thread: registers it for
/// shutdown, serves it with [`handle_conn`], and unregisters it.
fn track_conn(
    store: &MovingObjectStore,
    mut stream: TcpStream,
    config: &ServerConfig,
    shared: &Shared,
) {
    let _ = stream.set_nodelay(true);
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    // Register a clone so shutdown can half-close a blocked read (and
    // the watchdog sever a blocked write).
    let Ok(registered) = stream.try_clone() else {
        return;
    };
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(conn_id, registered);
    // Shutdown may have swept the registry between this connection's
    // accept and its registration above; a connection that registered
    // after the sweep severs itself or it would never be woken.
    if shared.stop.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Both);
    }
    hpm_obs::counter!(metrics::CONNECTIONS).add(1);
    hpm_obs::gauge!(metrics::OPEN_CONNECTIONS).add(1);

    if !handle_conn(store, &mut stream, config, shared) {
        hpm_obs::counter!(metrics::DIRTY_DISCONNECTS).add(1);
    }
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn_id);
    hpm_obs::gauge!(metrics::OPEN_CONNECTIONS).add(-1);
}

/// The connection's one loop: frame in, answer straight back onto the
/// socket. The blocking write is the backpressure point — while a
/// peer is not reading, this thread is not reading either. Returns
/// whether the connection ended cleanly (EOF at a frame boundary, or
/// a server-initiated close after answering).
fn handle_conn(
    store: &MovingObjectStore,
    stream: &mut TcpStream,
    config: &ServerConfig,
    shared: &Shared,
) -> bool {
    // Connection-owned buffers: request payload, encoded response,
    // framed response and predict scratch all keep their capacity, so
    // a warm connection serves frames without per-frame allocation and
    // the allocation-free predict path survives the wire.
    let mut payload = Vec::new();
    let mut encoded = Vec::new();
    let mut framed = Vec::new();
    let mut scratch = PredictScratch::new();
    loop {
        let after = match read_frame(stream, &mut payload, config.max_frame) {
            Ok(false) => return true,
            Ok(true) => {
                hpm_obs::histogram!(metrics::REQUEST_BYTES).record(payload.len() as u64);
                let _span = hpm_obs::span!(metrics::REQUEST_SPAN);
                let (response, after) = match decode_request(&payload) {
                    Ok(req) => {
                        hpm_obs::counter!(metrics::REQUESTS).add(1);
                        execute(store, shared, req, &mut scratch)
                    }
                    // Framing held but the payload didn't parse:
                    // answer with the reason and keep serving — frame
                    // boundaries are still trustworthy.
                    Err(e) => (malformed(&e), After::Continue),
                };
                encode_capped(&response, &mut encoded, config.max_frame);
                after
            }
            // EOF or transport death mid-frame: nothing to say, nobody
            // to say it to.
            Err(ProtoError::Io(_)) => return false,
            // Framing-level corruption (bad checksum, oversized
            // length): explain best-effort, then close — byte
            // boundaries can no longer be trusted on this stream.
            Err(framing) => {
                encode_capped(&malformed(&framing), &mut encoded, config.max_frame);
                let _ = write_frame(stream, &mut framed, &encoded);
                return false;
            }
        };
        if write_frame(stream, &mut framed, &encoded).is_err() {
            return false;
        }
        if let After::Close = after {
            return true;
        }
    }
}

/// The typed reply to a frame the server could not parse, counted in
/// `server.malformed`.
fn malformed(why: &ProtoError) -> Response {
    hpm_obs::counter!(metrics::MALFORMED).add(1);
    Response {
        correlation: 0,
        body: ResponseBody::Malformed(why.to_string()),
    }
}

/// Encodes `response` into the connection-owned `encoded` buffer. A
/// response encoding past `max_frame` is replaced by a typed
/// [`ResponseBody::Oversized`] reply instead of shipping a frame the
/// peer must reject.
fn encode_capped(response: &Response, encoded: &mut Vec<u8>, max_frame: usize) {
    encode_response(response, encoded);
    if encoded.len() > max_frame {
        hpm_obs::counter!(metrics::OVERSIZED_RESPONSES).add(1);
        let fallback = Response {
            correlation: response.correlation,
            body: ResponseBody::Oversized {
                encoded: encoded.len() as u64,
                limit: max_frame as u64,
            },
        };
        encode_response(&fallback, encoded);
    }
    hpm_obs::histogram!(metrics::RESPONSE_BYTES).record(encoded.len() as u64);
}

/// Executes one decoded request against the store and says whether
/// the connection should keep reading afterwards.
fn execute(
    store: &MovingObjectStore,
    shared: &Shared,
    req: Request,
    scratch: &mut PredictScratch,
) -> (Response, After) {
    let mut after = After::Continue;
    let body = match req.body {
        RequestBody::ReportMany(reports) => ResponseBody::Ingested(store.report_many(&reports)),
        RequestBody::PredictBatch(queries) => ResponseBody::Predictions(
            queries
                .iter()
                .map(|&(id, t)| store.predict_with_scratch(id, t, scratch))
                .collect(),
        ),
        RequestBody::PredictRange { region, query_time } => {
            ResponseBody::Range(store.predict_range(&region, query_time))
        }
        RequestBody::PredictNearest {
            focus,
            query_time,
            k,
        } => ResponseBody::Nearest(store.predict_nearest(
            &focus,
            query_time,
            usize::try_from(k).unwrap_or(usize::MAX),
        )),
        RequestBody::PredictWithin {
            region,
            query_time,
            tau,
        } => ResponseBody::Within(store.predict_within(&region, query_time, tau)),
        RequestBody::PredictNearestProb {
            focus,
            query_time,
            k,
            tau,
        } => ResponseBody::NearestProb(store.predict_nearest_prob(
            &focus,
            query_time,
            usize::try_from(k).unwrap_or(usize::MAX),
            tau,
        )),
        RequestBody::Stats(id) => ResponseBody::Stats(store.stats(id)),
        RequestBody::ForceRetrain(id) => ResponseBody::Retrained(store.force_retrain(id)),
        RequestBody::Snapshot => ResponseBody::Snapshotted(store.snapshot().map_err(|e| e.kind())),
        RequestBody::Metrics => {
            // Memory gauges are pull-model: walking every shard on the
            // report path would be wasteful, so they refresh when an
            // observer actually asks.
            let _ = store.memory_use();
            ResponseBody::Metrics(hpm_obs::snapshot().to_json())
        }
        RequestBody::Ping => ResponseBody::Pong,
        RequestBody::Shutdown => {
            shared.initiate_shutdown();
            after = After::Close;
            ResponseBody::ShuttingDown
        }
    };
    (
        Response {
            correlation: req.correlation,
            body,
        },
        after,
    )
}
