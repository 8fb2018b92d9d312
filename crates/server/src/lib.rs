//! The network service layer: a std-only pipelined TCP front end for
//! the moving-objects store.
//!
//! Everything the store can do in-process — batched ingest, batched
//! per-object prediction, fleet-wide predictive range and
//! nearest-neighbour queries, stats, retraining, snapshots, metrics —
//! becomes reachable over a socket, with **the same inputs, the same
//! outputs, and the same typed errors**. That equivalence is the
//! crate's contract: the workspace's op-trace model suite
//! (`tests/model.rs`) asserts wire answers are byte-identical to
//! direct [`MovingObjectStore`] calls after every step of random
//! traces, error variants included.
//!
//! No async runtime and no registry dependencies: the server is a
//! scoped accept loop with one thread per connection and the socket
//! as its backpressure ([`server`] module docs cover threading,
//! backpressure, and shutdown), the protocol is length-prefixed
//! checksummed frames over the workspace codec ([`proto`] module docs
//! give the grammar), and the client ([`Client`]) pipelines frames
//! with correlation ids.
//!
//! ```no_run
//! use hpm_server::{Client, Server, ServerConfig};
//! use hpm_objectstore::{MovingObjectStore, ObjectId, StoreConfig};
//! use hpm_geo::Point;
//! use std::sync::Arc;
//!
//! # fn store_config() -> StoreConfig { unimplemented!() }
//! let store = Arc::new(MovingObjectStore::new(store_config()));
//! let server = Server::bind(store, "127.0.0.1:0", ServerConfig::default())?;
//! let addr = server.local_addr();
//! let handle = server.handle();
//! std::thread::scope(|scope| {
//!     let serving = scope.spawn(move || server.serve());
//!
//!     let mut client = Client::connect(addr)?;
//!     client.report_many(&[(ObjectId(1), 0, Point::new(0.0, 0.0))])?;
//!     handle.shutdown();
//!     serving.join().expect("server thread")?;
//!     Ok::<(), Box<dyn std::error::Error>>(())
//! })?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`MovingObjectStore`]: hpm_objectstore::MovingObjectStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use proto::{ProtoError, Request, RequestBody, Response, ResponseBody};
pub use server::{Server, ServerConfig, ServerHandle};
