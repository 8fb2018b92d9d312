//! Protocol properties: round-trips and totality under hostile bytes.
//!
//! Tier 1 (pure): randomly generated request and response frames —
//! batches, every verb, every typed error variant — survive
//! encode → frame → read → decode bit-identically, and the decoders
//! are total (arbitrary bytes yield `Ok` or a typed error, never a
//! panic).
//!
//! Tier 2 (live): the same generated frames, then *mutated* —
//! truncations, bit-flips, oversized length prefixes, pure garbage —
//! are thrown at a real loopback server. The server must answer with
//! a typed `Malformed` frame or close the connection; it must never
//! panic, never hang the connection, and must keep answering fresh
//! connections afterwards.

mod common;

use common::{config, spawn_server, TestServer};
use hpm_check::prelude::*;
use hpm_core::{Prediction, PredictionSource, RankedAnswer, Uncertainty};
use hpm_geo::{BoundingBox, Point};
use hpm_objectstore::{IngestError, MovingObjectStore, ObjectId, ObjectStats, QueryError};
use hpm_rand::{Rng, SmallRng};
use hpm_server::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame_into,
    Request, RequestBody, Response, ResponseBody,
};
use hpm_server::{Client, ServerConfig};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn random_point(rng: &mut SmallRng) -> Point {
    Point::new(rng.gen_f64() * 200.0 - 100.0, rng.gen_f64() * 200.0 - 100.0)
}

fn random_request(rng: &mut SmallRng) -> Request {
    let body = match rng.gen_range(0..12u32) {
        0 => RequestBody::ReportMany(
            (0..rng.gen_range(0..20usize))
                .map(|_| {
                    (
                        ObjectId(rng.gen_range(0..1u64 << 40)),
                        rng.gen_range(0..1u64 << 40),
                        random_point(rng),
                    )
                })
                .collect(),
        ),
        1 => RequestBody::PredictBatch(
            (0..rng.gen_range(0..20usize))
                .map(|_| (ObjectId(rng.gen_range(0..1000)), rng.gen_range(0..100_000)))
                .collect(),
        ),
        2 => RequestBody::PredictRange {
            region: BoundingBox {
                min: random_point(rng),
                max: random_point(rng),
            },
            query_time: rng.gen_range(0..100_000),
        },
        3 => RequestBody::PredictNearest {
            focus: random_point(rng),
            query_time: rng.gen_range(0..100_000),
            k: rng.gen_range(0..100),
        },
        4 => RequestBody::PredictWithin {
            region: BoundingBox {
                min: random_point(rng),
                max: random_point(rng),
            },
            query_time: rng.gen_range(0..100_000),
            tau: rng.gen_f64(),
        },
        5 => RequestBody::PredictNearestProb {
            focus: random_point(rng),
            query_time: rng.gen_range(0..100_000),
            k: rng.gen_range(0..100),
            tau: rng.gen_f64(),
        },
        6 => RequestBody::Stats(ObjectId(rng.gen_range(0..1000))),
        7 => RequestBody::ForceRetrain(ObjectId(rng.gen_range(0..1000))),
        8 => RequestBody::Snapshot,
        9 => RequestBody::Metrics,
        10 => RequestBody::Ping,
        _ => RequestBody::Shutdown,
    };
    Request {
        correlation: rng.gen_range(0..u64::MAX),
        body,
    }
}

fn random_ingest_result(rng: &mut SmallRng) -> Result<(), IngestError> {
    match rng.gen_range(0..6u32) {
        0 => Ok(()),
        1 => Err(IngestError::NonContiguous {
            expected: rng.gen_range(0..1u64 << 40),
            got: rng.gen_range(0..1u64 << 40),
        }),
        2 => Err(IngestError::NonFinitePosition),
        3 => Err(IngestError::ObjectUnavailable(ObjectId(
            rng.gen_range(0..1000),
        ))),
        4 => Err(IngestError::Durability(std::io::ErrorKind::StorageFull)),
        _ => Err(IngestError::TimestampOutOfRange),
    }
}

fn random_query_error(rng: &mut SmallRng) -> QueryError {
    match rng.gen_range(0..6u32) {
        0 => QueryError::UnknownObject(ObjectId(rng.gen_range(0..1000))),
        1 => QueryError::NoHistory(ObjectId(rng.gen_range(0..1000))),
        2 => QueryError::NotInFuture {
            current: rng.gen_range(0..1u64 << 40),
            requested: rng.gen_range(0..1u64 << 40),
        },
        3 => QueryError::ObjectUnavailable(ObjectId(rng.gen_range(0..1000))),
        4 => QueryError::HorizonOutOfRange {
            current: rng.gen_range(0..1u64 << 40),
            requested: rng.gen_range(0..1u64 << 40),
        },
        _ => QueryError::InsufficientHistory {
            full_periods: rng.gen_range(0..100usize),
            min_train_subs: rng.gen_range(0..100usize),
        },
    }
}

fn random_uncertainty(rng: &mut SmallRng) -> Uncertainty {
    if rng.gen_range(0..3u32) == 0 {
        Uncertainty::point_claim(random_point(rng))
    } else {
        let a = random_point(rng);
        let b = random_point(rng);
        Uncertainty {
            region: BoundingBox {
                min: a.min(&b),
                max: a.max(&b),
            },
            mass: rng.gen_f64(),
        }
    }
}

fn random_prediction(rng: &mut SmallRng) -> Prediction {
    Prediction {
        answers: (0..rng.gen_range(0..6usize))
            .map(|_| RankedAnswer {
                location: random_point(rng),
                score: rng.gen_f64(),
                pattern: if rng.gen_range(0..2u32) == 0 {
                    None
                } else {
                    Some(rng.gen_range(0..1000u64) as u32)
                },
                uncertainty: random_uncertainty(rng),
            })
            .collect(),
        source: match rng.gen_range(0..3u32) {
            0 => PredictionSource::ForwardPatterns,
            1 => PredictionSource::BackwardPatterns,
            _ => PredictionSource::MotionFunction,
        },
    }
}

fn random_response(rng: &mut SmallRng) -> Response {
    let body = match rng.gen_range(0..14u32) {
        0 => ResponseBody::Ingested(
            (0..rng.gen_range(0..20usize))
                .map(|_| random_ingest_result(rng))
                .collect(),
        ),
        1 => ResponseBody::Predictions(
            (0..rng.gen_range(0..10usize))
                .map(|_| {
                    if rng.gen_range(0..2u32) == 0 {
                        Ok(random_prediction(rng))
                    } else {
                        Err(random_query_error(rng))
                    }
                })
                .collect(),
        ),
        2 => ResponseBody::Range(
            (0..rng.gen_range(0..10usize))
                .map(|_| (ObjectId(rng.gen_range(0..1000)), random_point(rng)))
                .collect(),
        ),
        3 => ResponseBody::Nearest(
            (0..rng.gen_range(0..10usize))
                .map(|_| {
                    (
                        ObjectId(rng.gen_range(0..1000)),
                        random_point(rng),
                        rng.gen_f64() * 100.0,
                    )
                })
                .collect(),
        ),
        4 => ResponseBody::Within(
            (0..rng.gen_range(0..10usize))
                .map(|_| {
                    (
                        ObjectId(rng.gen_range(0..1000)),
                        random_point(rng),
                        rng.gen_f64(),
                    )
                })
                .collect(),
        ),
        5 => ResponseBody::NearestProb(
            (0..rng.gen_range(0..10usize))
                .map(|_| {
                    (
                        ObjectId(rng.gen_range(0..1000)),
                        random_point(rng),
                        rng.gen_f64() * 100.0,
                    )
                })
                .collect(),
        ),
        6 => ResponseBody::Stats(if rng.gen_range(0..2u32) == 0 {
            Ok(ObjectStats {
                samples: rng.gen_range(0..10_000usize),
                full_periods: rng.gen_range(0..100usize),
                trained_periods: rng.gen_range(0..100usize),
                patterns: rng.gen_range(0..1000usize),
                regions: rng.gen_range(0..1000usize),
                approx_bytes: rng.gen_range(0..1_000_000usize),
            })
        } else {
            Err(random_query_error(rng))
        }),
        7 => ResponseBody::Retrained(if rng.gen_range(0..2u32) == 0 {
            Ok(())
        } else {
            Err(random_query_error(rng))
        }),
        8 => ResponseBody::Snapshotted(match rng.gen_range(0..3u32) {
            0 => Ok(true),
            1 => Ok(false),
            _ => Err(std::io::ErrorKind::StorageFull),
        }),
        9 => ResponseBody::Metrics(format!("{{\"n\":{}}}", rng.gen_range(0..1000u32))),
        10 => ResponseBody::Pong,
        11 => ResponseBody::ShuttingDown,
        12 => ResponseBody::Malformed(format!("reason {}", rng.gen_range(0..1000u32))),
        _ => ResponseBody::Oversized {
            encoded: rng.gen_range(0..1u64 << 40),
            limit: rng.gen_range(0..1u64 << 40),
        },
    };
    Response {
        correlation: rng.gen_range(0..u64::MAX),
        body,
    }
}

/// The shared fuzz target: one loopback server over an empty store,
/// alive for the whole test binary (its clean shutdown is covered by
/// the other suites; here it must simply survive everything).
fn fuzz_server() -> &'static TestServer {
    static SERVER: OnceLock<TestServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        let store = Arc::new(MovingObjectStore::new(config()));
        spawn_server(store, ServerConfig::default())
    })
}

/// Sends raw bytes, half-closes the write side (so a server stuck
/// waiting for a liar's announced bytes sees EOF instead of hanging
/// us), and drains whatever comes back. Every returned frame must
/// decode as a valid `Response`; the connection must reach EOF within
/// the timeout. Returns the decoded responses.
fn blast(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect fuzz conn");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    // The peer may close mid-send (oversized prefix): a write error
    // is then expected, not a failure.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut responses = Vec::new();
    let mut payload = Vec::new();
    loop {
        match read_frame(&mut stream, &mut payload, 64 << 20) {
            Ok(true) => {
                responses.push(decode_response(&payload).expect("server sent invalid response"))
            }
            Ok(false) => return responses,
            // A reset after the server bailed out is as good as EOF.
            Err(hpm_server::ProtoError::Io(std::io::ErrorKind::ConnectionReset)) => {
                return responses;
            }
            Err(e) => panic!("fuzz connection broke abnormally: {e:?}"),
        }
    }
}

props! {
    #[cases(64)]
    /// Tier 1: generated request frames round-trip bit-identically,
    /// including several frames back-to-back in one stream.
    fn request_frames_roundtrip(seed in int(0u64..1_000_000)) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let requests: Vec<Request> =
            (0..rng.gen_range(1..5usize)).map(|_| random_request(&mut rng)).collect();
        let mut stream_bytes = Vec::new();
        let mut payload = Vec::new();
        for req in &requests {
            encode_request(req, &mut payload);
            write_frame_into(&mut stream_bytes, &payload);
        }
        let mut reader = &stream_bytes[..];
        for req in &requests {
            require!(
                read_frame(&mut reader, &mut payload, usize::MAX).unwrap(),
                "stream ended early"
            );
            let back = decode_request(&payload).expect("decode what we encoded");
            require_eq!(&back, req);
        }
        require!(!read_frame(&mut reader, &mut payload, usize::MAX).unwrap(), "trailing frame");
    }

    #[cases(64)]
    /// Tier 1: generated response frames — every variant, every typed
    /// error — round-trip bit-identically.
    fn response_frames_roundtrip(seed in int(0u64..1_000_000)) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let resp = random_response(&mut rng);
        let mut payload = Vec::new();
        encode_response(&resp, &mut payload);
        let mut framed = Vec::new();
        write_frame_into(&mut framed, &payload);
        let mut reader = &framed[..];
        require!(read_frame(&mut reader, &mut payload, usize::MAX).unwrap(), "frame lost");
        require_eq!(decode_response(&payload).expect("decode what we encoded"), resp);
    }

    #[cases(64)]
    /// Tier 1: the payload decoders are total — a valid payload or
    /// pure garbage, intact, cut at every byte and with every bit
    /// flipped, returns a value or a typed error without panicking.
    fn decoders_are_total(seed in int(0u64..1_000_000)) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut payload = Vec::new();
        match rng.gen_range(0..3u32) {
            0 => {
                encode_request(&random_request(&mut rng), &mut payload);
            }
            1 => {
                encode_response(&random_response(&mut rng), &mut payload);
            }
            _ => {
                payload = (0..rng.gen_range(0..200usize))
                    .map(|_| rng.gen_range(0..256u32) as u8)
                    .collect();
            }
        }
        // Returning at all is the property; both Ok and Err are fine.
        let decode = |_: usize, bytes: &[u8]| {
            let _ = decode_request(bytes);
            let _ = decode_response(bytes);
        };
        decode(0, &payload);
        hpm_check::mutate::every_cut(&payload, decode);
        hpm_check::mutate::every_bit_flip(&payload, decode);
    }

    #[cases(64)]
    /// Tier 2: mutated frames against a live server. The server
    /// answers with typed `Malformed` frames or closes; it never
    /// panics or hangs, and it keeps serving fresh connections.
    fn malformed_frames_leave_server_live(seed in int(0u64..1_000_000)) {
        let server = fuzz_server();
        let mut rng = SmallRng::seed_from_u64(seed);

        // A valid framed request to mutate.
        let mut payload = Vec::new();
        let mut request = random_request(&mut rng);
        // Shutdown would stop the shared server; anything else goes.
        if matches!(request.body, RequestBody::Shutdown) {
            request.body = RequestBody::Ping;
        }
        encode_request(&request, &mut payload);
        let mut bytes = Vec::new();
        write_frame_into(&mut bytes, &payload);

        match rng.gen_range(0..4u32) {
            // Truncation: the peer dies mid-frame.
            0 => {
                let cut = rng.gen_range(0..bytes.len());
                bytes.truncate(cut);
            }
            // Bit-flip: header, payload, or checksum corruption.
            1 => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
            // Oversized length prefix: an announced payload beyond
            // the server's cap.
            2 => {
                let lie = (hpm_server::proto::DEFAULT_MAX_FRAME as u32)
                    .saturating_add(rng.gen_range(1..1_000_000u32));
                bytes[..4].copy_from_slice(&lie.to_le_bytes());
            }
            // Pure garbage, no framing at all.
            _ => {
                bytes = (0..rng.gen_range(1..300usize))
                    .map(|_| rng.gen_range(0..256u32) as u8)
                    .collect();
            }
        }
        // Any decodable responses are acceptable; panics, hangs, or
        // undecodable bytes are not (blast asserts all three).
        let _ = blast(server.addr, &bytes);

        // The server survived: a fresh connection gets a pong.
        let mut probe = Client::connect(server.addr).expect("fresh connection after fuzz");
        probe.ping().expect("server must keep serving after malformed input");
    }
}

/// One request per `RequestBody` variant, in verb order.
fn golden_requests() -> Vec<Request> {
    let region = BoundingBox {
        min: Point::new(-10.5, -0.0),
        max: Point::new(1e9, 2.25),
    };
    let bodies = vec![
        RequestBody::ReportMany(vec![
            (ObjectId(7), 3, Point::new(1.5, -2.5)),
            (
                ObjectId(u64::MAX),
                1 << 40,
                Point::new(f64::MIN_POSITIVE, 0.0),
            ),
        ]),
        RequestBody::PredictBatch(vec![(ObjectId(1), 10), (ObjectId(300), 20_000)]),
        RequestBody::PredictRange {
            region,
            query_time: 99,
        },
        RequestBody::PredictNearest {
            focus: Point::new(0.25, -0.25),
            query_time: 42,
            k: 5,
        },
        RequestBody::Stats(ObjectId(3)),
        RequestBody::ForceRetrain(ObjectId(130)),
        RequestBody::Snapshot,
        RequestBody::Metrics,
        RequestBody::Ping,
        RequestBody::Shutdown,
        RequestBody::PredictWithin {
            region,
            query_time: 77,
            tau: 0.5,
        },
        RequestBody::PredictNearestProb {
            focus: Point::new(1.0, -1.0),
            query_time: 1 << 33,
            k: 3,
            tau: 0.9,
        },
    ];
    (1000u64..)
        .zip(bodies)
        .map(|(correlation, body)| Request { correlation, body })
        .collect()
}

/// One response per `ResponseBody` variant in tag order, then the
/// `Err` arm of each tagged result.
fn golden_responses() -> Vec<Response> {
    let prediction = Prediction {
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
    let insufficient = QueryError::InsufficientHistory {
        full_periods: 2,
        min_train_subs: 5,
    };
    let bodies = vec![
        ResponseBody::Ingested(vec![
            Ok(()),
            Err(IngestError::NonContiguous {
                expected: 4,
                got: 900,
            }),
            Err(IngestError::NonFinitePosition),
            Err(IngestError::ObjectUnavailable(ObjectId(5))),
            Err(IngestError::Durability(std::io::ErrorKind::StorageFull)),
        ]),
        ResponseBody::Predictions(vec![Ok(prediction)]),
        ResponseBody::Range(vec![
            (ObjectId(1), Point::new(0.5, 0.25)),
            (ObjectId(200), Point::new(-0.0, 1e-9)),
        ]),
        ResponseBody::Nearest(vec![
            (ObjectId(2), Point::new(-1.0, 2.0), 3.5),
            (ObjectId(129), Point::new(8.0, 9.0), 10.25),
        ]),
        ResponseBody::Stats(Ok(ObjectStats {
            samples: 3000,
            full_periods: 10,
            trained_periods: 10,
            patterns: 117_059,
            regions: 303,
            approx_bytes: 2_048_000,
        })),
        ResponseBody::Retrained(Ok(())),
        ResponseBody::Snapshotted(Ok(true)),
        ResponseBody::Metrics("{\"counters\":[]}".into()),
        ResponseBody::Pong,
        ResponseBody::ShuttingDown,
        ResponseBody::Malformed("unknown request verb 240".into()),
        ResponseBody::Oversized {
            encoded: 5 << 20,
            limit: 4 << 20,
        },
        ResponseBody::Within(vec![(ObjectId(3), Point::new(2.0, 2.0), 0.75)]),
        ResponseBody::NearestProb(vec![(ObjectId(4), Point::new(-2.0, 1.0), 12.5)]),
        ResponseBody::Predictions(vec![
            Err(QueryError::UnknownObject(ObjectId(1))),
            Err(QueryError::NoHistory(ObjectId(2))),
            Err(QueryError::NotInFuture {
                current: 8,
                requested: 3,
            }),
            Err(QueryError::ObjectUnavailable(ObjectId(4))),
            Err(insufficient),
        ]),
        ResponseBody::Stats(Err(QueryError::UnknownObject(ObjectId(77)))),
        ResponseBody::Retrained(Err(insufficient)),
        ResponseBody::Snapshotted(Err(std::io::ErrorKind::StorageFull)),
    ];
    (2000u64..)
        .zip(bodies)
        .map(|(correlation, body)| Response { correlation, body })
        .collect()
}

/// The wire bytes are frozen: payloads captured before `proto.rs`
/// learned to encode each shape once (`fixtures/wire_v1.hex`, one
/// `req`/`resp` line per [`golden_requests`] / [`golden_responses`]
/// entry) are reproduced byte for byte and read back equal.
#[test]
fn golden_wire_bytes_are_reproduced() {
    let mut lines = include_str!("fixtures/wire_v1.hex").lines();
    let mut expect = |kind: &str| -> Vec<u8> {
        let line = lines.next().expect("fixture has a line per message");
        let hex = line.strip_prefix(kind).expect("fixture line kind").trim();
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex byte"))
            .collect()
    };
    let mut payload = Vec::new();
    for req in golden_requests() {
        let golden = expect("req");
        encode_request(&req, &mut payload);
        assert_eq!(payload, golden, "{req:?}");
        assert_eq!(decode_request(&golden).expect("golden decodes"), req);
    }
    for resp in golden_responses() {
        let golden = expect("resp");
        encode_response(&resp, &mut payload);
        assert_eq!(payload, golden, "{resp:?}");
        assert_eq!(decode_response(&golden).expect("golden decodes"), resp);
    }
    assert_eq!(lines.next(), None, "fixture has unclaimed lines");
}
