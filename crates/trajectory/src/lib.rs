//! Trajectory model: regularly sampled movement histories and their
//! periodic decomposition (§III of the paper).
//!
//! A trajectory is a sequence `(l₀, l₁, …, l_{n−1})` where `lᵢ` is the
//! object's location at discrete timestamp `i`. Given a period `T`
//! (e.g. "a day" for commuters, "a year" for migrating animals) the
//! trajectory decomposes into `⌈n/T⌉` *sub-trajectories*; all locations
//! sharing the same *time offset* `t = timestamp mod T` are gathered
//! into a group `Gₜ`, on which DBSCAN later finds frequent regions.

//! # Example
//!
//! ```
//! use hpm_trajectory::{from_sparse_samples, Placement, Trajectory};
//! use hpm_geo::Point;
//!
//! // A sparse GPS feed with a dropped fix at t = 2.
//! let (traj, filled) = from_sparse_samples(vec![
//!     (0, Point::new(0.0, 0.0)),
//!     (1, Point::new(1.0, 0.0)),
//!     (3, Point::new(3.0, 0.0)),
//! ]).unwrap();
//! assert_eq!(filled, 1);
//! assert_eq!(traj.at(2), Some(Point::new(2.0, 0.0)));
//!
//! // Decompose with a period of 2: t = 3 is offset 1 of the second
//! // sub-trajectory, and offset 0 holds two samples (t = 0 and t = 2).
//! let place = Placement::new(traj.start(), 2);
//! assert_eq!(place.place(3), (1, 1));
//! assert_eq!(place.count(traj.len(), 0), 2);
//! ```

#![forbid(unsafe_code)]

pub mod chunks;
mod decompose;
mod history;
mod preprocess;
mod traj;

pub use chunks::{
    decode_xor_bytes, encode_xor_bytes, ChunkError, ChunkParams, ChunkedHistory, DecodeCursor,
    OpenChunk, SealedChunk, DEFAULT_MIN_TAIL, DEFAULT_SEAL_LEN,
};
pub use decompose::Placement;
pub use history::{History, Prefix};
pub use preprocess::{despike, from_sparse_samples, PreprocessError};
pub use traj::{TimeOffset, Timestamp, Trajectory};
