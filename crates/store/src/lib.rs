//! Binary persistence for trained Hybrid Prediction Models.
//!
//! Mining trajectory patterns over a long history is the expensive,
//! offline half of the paper's pipeline; a deployment wants to train
//! once and ship the resulting model — the frequent regions and the
//! trajectory patterns — to query servers. This crate provides a
//! compact, versioned, checksummed binary codec for exactly that pair.
//! (The TPT itself is *not* persisted: bulk-loading it from the
//! decoded patterns is fast and keeps the format independent of index
//! layout choices.)
//!
//! No serialization-format crate is available offline, so every
//! format here is hand-rolled on the one byte layer in [`wire`]: a
//! magic/version header, LEB128 varints for integers, IEEE-754
//! little-endian doubles, and an FNV-1a trailer checksum. The model
//! format is documented in [`mod@format`] and guarded by round-trip
//! property tests. The same crate holds what the moving-objects store
//! persists: its [`snapshot`] codec, its [`wal`], and
//! [`write_atomic`], the one crash-safe way a file is replaced (with
//! [`sync_dir`], the directory fsync it ends on).

//! # Example
//!
//! ```
//! use hpm_store::{decode_model, encode_model};
//! use hpm_patterns::{FrequentRegion, PatternTable, RegionId, RegionSet, TrajectoryPattern};
//! use hpm_geo::{BoundingBox, Point};
//!
//! let region = |id: u32, offset: u32| FrequentRegion {
//!     id: RegionId(id),
//!     offset,
//!     local_index: 0,
//!     centroid: Point::new(id as f64, 0.0),
//!     bbox: BoundingBox::from_point(Point::new(id as f64, 0.0)),
//!     support: 5,
//! };
//! let regions = RegionSet::new(vec![region(0, 0), region(1, 1)], 2);
//! let patterns = PatternTable::from(vec![TrajectoryPattern {
//!     premise: vec![RegionId(0)],
//!     consequence: RegionId(1),
//!     confidence: 0.8,
//!     support: 4,
//! }]);
//!
//! let blob = encode_model(&regions, &patterns);
//! let restored = decode_model(&blob).unwrap();
//! assert_eq!(restored.patterns, patterns);
//! ```

#![forbid(unsafe_code)]

mod error;
mod file;
pub mod format;
pub mod metrics;
mod model;
pub mod snapshot;
pub mod wal;
pub mod wire;

pub use error::DecodeError;
pub use file::{sync_dir, write_atomic};
pub use model::{decode_model, encode_model, load_model, save_model, StoredModel};
pub use snapshot::{decode_snapshot, encode_snapshot, HistorySnapshot, ObjectSnapshot};
pub use wal::{
    scan_wal, scan_wal_file, scan_wal_runs, FsyncPolicy, WalOptions, WalRecord, WalRun, WalScan,
    WalWriter,
};
