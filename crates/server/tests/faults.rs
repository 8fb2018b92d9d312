//! Fault injection at the transport layer: clients that die mid-frame,
//! dribble bytes, refuse to read, or lie about frame sizes. The
//! server's contract under all of it: typed errors or a closed
//! connection for the offender, unchanged bit-identical answers for
//! everyone else, and no panic, hang, or leak of a wedged thread.

mod common;

use common::{config, fleet_horizon, fleet_reports, spawn_server};
use hpm_geo::{BoundingBox, Point};
use hpm_objectstore::{MovingObjectStore, ObjectId};
use hpm_rand::{Rng, SmallRng};
use hpm_server::proto::{encode_request, write_frame_into, Request, RequestBody};
use hpm_server::{Client, ClientError, ProtoError, ResponseBody, ServerConfig};
use hpm_trajectory::Timestamp;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N_OBJECTS: u64 = 10;

/// A framed Ping with the given correlation, as raw bytes.
fn ping_frame(correlation: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_request(
        &Request {
            correlation,
            body: RequestBody::Ping,
        },
        &mut payload,
    );
    let mut bytes = Vec::new();
    write_frame_into(&mut bytes, &payload);
    bytes
}

#[test]
fn disconnect_mid_frame_leaves_server_serving() {
    let store = Arc::new(MovingObjectStore::new(config()));
    let server = spawn_server(Arc::clone(&store), ServerConfig::default());

    for cut in [1usize, 3, 7, 11] {
        let frame = ping_frame(99);
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream
            .write_all(&frame[..cut.min(frame.len() - 1)])
            .expect("partial frame");
        drop(stream); // die mid-frame

        // The server must shrug it off and answer the next client.
        let mut probe = Client::connect(server.addr).expect("reconnect");
        probe
            .ping()
            .expect("server must survive a mid-frame disconnect");
    }
    server.stop();
}

#[test]
fn slow_writer_partial_frames_still_answered() {
    let store = Arc::new(MovingObjectStore::new(config()));
    let server = spawn_server(Arc::clone(&store), ServerConfig::default());

    // Dribble a valid frame one byte at a time: many partial reads on
    // the server side, one correct answer on ours.
    let frame = ping_frame(7);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for &b in &frame {
        stream.write_all(&[b]).expect("dribble");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut payload = Vec::new();
    assert!(
        hpm_server::proto::read_frame(&mut stream, &mut payload, 1 << 20).expect("response frame"),
        "server closed on a slow but valid writer"
    );
    let resp = hpm_server::proto::decode_response(&payload).expect("valid response");
    assert_eq!(resp.correlation, 7);
    assert_eq!(resp.body, ResponseBody::Pong);
    server.stop();
}

/// A client that queues hundreds of large-response requests without
/// reading. The socket bounds what the server buffers — once the
/// kernel buffers fill, the connection's thread blocks in its write
/// and stops reading — while other connections keep answering; once
/// the slacker finally reads, every response arrives, in order, none
/// dropped.
#[test]
fn full_socket_applies_backpressure_without_loss() {
    let store = Arc::new(MovingObjectStore::new(config()));
    let server = spawn_server(Arc::clone(&store), ServerConfig::default());

    const FRAMES: u64 = 512;
    let mut slacker = Client::connect(server.addr).expect("connect slacker");
    let mut correlations = Vec::with_capacity(FRAMES as usize);
    for _ in 0..FRAMES {
        // Metrics responses are kilobytes: enough traffic to fill the
        // socket buffers on both ends.
        correlations.push(
            slacker
                .send(RequestBody::Metrics)
                .expect("queue metrics frame"),
        );
    }

    // With the slacker's pipeline saturated, the server as a whole
    // must stay responsive on other connections.
    let mut probe = Client::connect(server.addr).expect("connect probe");
    probe.ping().expect("other connections must not starve");

    for (i, corr) in correlations.into_iter().enumerate() {
        let resp = slacker.recv().expect("drained response");
        assert_eq!(resp.correlation, corr, "response {i} out of order");
        match resp.body {
            ResponseBody::Metrics(json) => assert!(json.contains("server.requests")),
            other => panic!("expected Metrics, got {other:?}"),
        }
    }
    server.stop();
}

#[test]
fn oversized_frame_rejected_with_typed_error() {
    let store = Arc::new(MovingObjectStore::new(config()));
    let server = spawn_server(
        Arc::clone(&store),
        ServerConfig {
            max_frame: 1024,
            ..ServerConfig::default()
        },
    );

    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // An announced 10 KiB payload against a 1 KiB cap: rejected from
    // the length prefix alone, before any payload byte is read.
    stream
        .write_all(&10_240u32.to_le_bytes())
        .expect("lying header");
    let mut payload = Vec::new();
    assert!(
        hpm_server::proto::read_frame(&mut stream, &mut payload, 1 << 20).expect("reply"),
        "expected a Malformed reply before close"
    );
    let resp = hpm_server::proto::decode_response(&payload).expect("typed reply");
    match resp.body {
        ResponseBody::Malformed(why) => {
            assert!(why.contains("1024"), "mentions the cap: {why}")
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    // Frame boundaries are no longer trustworthy: the server closes.
    assert!(
        !hpm_server::proto::read_frame(&mut stream, &mut payload, 1 << 20).expect("clean close"),
        "connection must close after a framing-level violation"
    );
    // But a frame exactly at the cap still fits. Frame overhead is 12
    // bytes; a cap-sized payload is legal.
    let mut probe = Client::connect(server.addr).expect("reconnect");
    probe
        .ping()
        .expect("server alive after oversized rejection");
    server.stop();
}

/// A response that encodes past the server's frame cap is dropped in
/// favor of a typed `Oversized` reply carrying both sizes — never a
/// frame the client would have to reject — and the connection keeps
/// serving.
#[test]
fn oversized_response_replaced_with_typed_error() {
    let store = Arc::new(MovingObjectStore::new(config()));
    let server = spawn_server(
        Arc::clone(&store),
        ServerConfig {
            max_frame: 100,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.addr).expect("connect");
    // The metrics JSON names a handful of metrics and cannot fit a
    // 100-byte cap; a Metrics request is only a few bytes, so the
    // request side sails through.
    let err = client
        .metrics_json()
        .expect_err("an over-cap response must not arrive");
    match err {
        ClientError::ResponseTooLarge { encoded, limit } => {
            assert_eq!(limit, 100);
            assert!(encoded > 100, "dropped response was {encoded} bytes");
        }
        other => panic!("expected ResponseTooLarge, got {other:?}"),
    }
    // Same connection, still serving.
    client
        .ping()
        .expect("connection must stay usable after an oversized response");
    server.stop();
}

/// A client that fills its pipeline and never reads must not wedge
/// shutdown: once the drain grace expires, the watchdog severs the
/// write side, the connection's thread blocked in `write_all` errors
/// out, and `serve` returns.
#[test]
fn shutdown_completes_despite_stalled_client() {
    let store = Arc::new(MovingObjectStore::new(config()));
    let server = spawn_server(
        Arc::clone(&store),
        ServerConfig {
            drain_grace: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );
    // Kilobyte-scale metrics responses nobody reads: the socket
    // buffers fill, then the connection's thread is blocked writing
    // to a peer that never reads.
    let mut slacker = Client::connect(server.addr).expect("connect slacker");
    for _ in 0..2048 {
        slacker
            .send(RequestBody::Metrics)
            .expect("queue metrics frame");
    }
    // Without the write-side watchdog this join never returns.
    server.stop();
    drop(slacker);
}

/// Healthy connections must answer bit-identically to direct store
/// calls **while** chaos connections disconnect mid-frame and blast
/// garbage next to them. Read-only queries compare against the very
/// same store instance the server serves, so equality is exact.
#[test]
fn healthy_connections_stay_bit_identical_under_chaos() {
    let store = Arc::new(MovingObjectStore::new(config()));
    let reports = fleet_reports(11, N_OBJECTS);
    let horizon = fleet_horizon(&reports);
    for r in store.report_many(&reports) {
        r.expect("contiguous fleet ingests cleanly");
    }
    let server = spawn_server(Arc::clone(&store), ServerConfig::default());
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Chaos: mid-frame disconnects and garbage blasts, nonstop.
        for c in 0..2u64 {
            let stop = &stop;
            let addr = server.addr;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xbad + c);
                while !stop.load(Ordering::Relaxed) {
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        continue;
                    };
                    if rng.gen_range(0..2u32) == 0 {
                        let frame = ping_frame(1);
                        let cut = rng.gen_range(1..frame.len());
                        let _ = stream.write_all(&frame[..cut]);
                    } else {
                        let garbage: Vec<u8> = (0..rng.gen_range(1..200usize))
                            .map(|_| rng.gen_range(0..256u32) as u8)
                            .collect();
                        let _ = stream.write_all(&garbage);
                    }
                    // Drop: disconnect without reading the verdict.
                }
            });
        }

        // Health: wire answers vs direct calls on the same store.
        let mut healthy = Vec::new();
        for h in 0..3u64 {
            let store = &store;
            let addr = server.addr;
            healthy.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x900d + h);
                let mut client = Client::connect(addr).expect("healthy connect");
                for round in 0..40 {
                    let t = horizon + 1 + rng.gen_range(0..u64::from(common::PERIOD));
                    let queries: Vec<(ObjectId, Timestamp)> = (0..8)
                        .map(|_| (ObjectId(rng.gen_range(0..N_OBJECTS + 2)), t))
                        .collect();
                    assert_eq!(
                        client.predict_batch(&queries).expect("wire predict"),
                        store.predict_batch(&queries),
                        "healthy predictions diverged in round {round}"
                    );
                    let region = BoundingBox {
                        min: Point::new(-10.0, -10.0),
                        max: Point::new(rng.gen_f64() * 200.0, 60.0),
                    };
                    let range = RequestBody::PredictRange {
                        region,
                        query_time: t,
                    };
                    assert_eq!(
                        client.call(range).expect("wire range"),
                        ResponseBody::Range(store.predict_range(&region, t)),
                        "healthy range diverged in round {round}"
                    );
                    let focus = Point::new(rng.gen_f64() * 150.0, rng.gen_f64() * 40.0);
                    let knn = RequestBody::PredictNearest {
                        focus,
                        query_time: t,
                        k: 3,
                    };
                    assert_eq!(
                        client.call(knn).expect("wire knn"),
                        ResponseBody::Nearest(store.predict_nearest(&focus, t, 3)),
                        "healthy knn diverged in round {round}"
                    );
                }
            }));
        }
        for h in healthy {
            h.join().expect("healthy thread");
        }
        stop.store(true, Ordering::Relaxed);
    });
    server.stop();
}

/// After the server shuts down, pipelined clients see clean typed
/// transport errors, not hangs.
#[test]
fn shutdown_surfaces_as_typed_transport_error() {
    let store = Arc::new(MovingObjectStore::new(config()));
    let server = spawn_server(Arc::clone(&store), ServerConfig::default());
    let mut client = Client::connect(server.addr).expect("connect");
    client.ping().expect("alive before shutdown");
    let mut closer = Client::connect(server.addr).expect("closer");
    closer.shutdown().expect("shutdown verb acknowledged");
    server.stop();

    // The surviving client's next call fails with a typed I/O error.
    let err = client.ping().expect_err("server is gone");
    match err {
        ClientError::Proto(ProtoError::Io(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
}
