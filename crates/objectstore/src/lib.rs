//! A concurrent moving-objects store: the "moving objects database"
//! substrate the paper situates the Hybrid Prediction Model in.
//!
//! The store ingests per-object location reports (one sample per
//! timestamp, §III's sampling model), maintains each object's
//! trajectory, and keeps a per-object
//! [`HybridPredictor`](hpm_core::HybridPredictor) fresh: the
//! first predictor is trained once `min_train_subs` full periods have
//! accumulated, and §V.B's "when a certain amount of new data is
//! accumulated" retraining policy rebuilds it every
//! `retrain_every_subs` further periods.
//!
//! Reads and writes are object-granular and shard-partitioned: the
//! object population is split across `StoreConfig::shards` maps
//! (`id % shards`), each behind its own `std::sync::RwLock`, plus one
//! lock per object — no global lock exists on the hot path, so queries
//! against one object proceed while another object retrains, and
//! writers to different shards never contend. Batch calls
//! ([`MovingObjectStore::predict_batch`],
//! [`MovingObjectStore::report_many`]) fan work across an internal
//! [`WorkerPool`] sized by `StoreConfig::threads`.

//! # Example
//!
//! ```
//! use hpm_core::HpmConfig;
//! use hpm_geo::Point;
//! use hpm_objectstore::{IndexConfig, MovingObjectStore, ObjectId, StoreConfig};
//! use hpm_patterns::{DiscoveryParams, MiningParams};
//!
//! let store = MovingObjectStore::new(StoreConfig {
//!     discovery: DiscoveryParams { period: 3, eps: 2.0, min_pts: 3 },
//!     mining: MiningParams {
//!         min_support: 4,
//!         min_confidence: 0.3,
//!         max_premise_len: 2,
//!         max_premise_gap: 2,
//!         max_span: 2,
//!     },
//!     hpm: HpmConfig { match_margin: 2.0, ..HpmConfig::default() },
//!     min_train_subs: 5,
//!     retrain_every_subs: 5,
//!     recent_len: 2,
//!     shards: 4,
//!     threads: 0, // auto: available parallelism
//!     index: IndexConfig::default(), // auto horizon/cell
//! });
//!
//! // Stream 10 "days" of home -> road -> work.
//! let bus = ObjectId(1);
//! for day in 0..10u64 {
//!     store.report(bus, day * 3, Point::new(0.0, 0.0)).unwrap();
//!     store.report(bus, day * 3 + 1, Point::new(50.0, 0.0)).unwrap();
//!     store.report(bus, day * 3 + 2, Point::new(100.0, 0.0)).unwrap();
//! }
//! assert!(store.stats(bus).unwrap().patterns > 0);
//!
//! // It is day 11, offset 0: where will the bus be at offset 2?
//! store.report(bus, 30, Point::new(0.0, 0.0)).unwrap();
//! let pred = store.predict(bus, 32).unwrap();
//! assert!(pred.best().distance(&Point::new(100.0, 0.0)) < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durability;
mod index;
pub mod metrics;
pub mod pool;
mod store;

pub use durability::{DurabilityConfig, RecoverError};
pub use hpm_store::wal::FsyncPolicy;
pub use index::IndexConfig;
pub use pool::WorkerPool;
pub use store::{
    IngestError, MovingObjectStore, ObjectId, ObjectStats, QueryError, StoreConfig, StoreMemory,
};
