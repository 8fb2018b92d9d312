//! Planar geometry substrate for the Hybrid Prediction Model.
//!
//! Moving-object trajectories in the paper live in a normalised
//! `[0, 10000]²` plane; this crate provides the small set of geometric
//! value types every other crate builds on: [`Point`], [`BoundingBox`]
//! and [`resample_uniform`], the polyline resampling the workload
//! generators author their routes with.
//!
//! All types are plain `f64` value types: cheap to copy and
//! `PartialEq` for tests.

#![forbid(unsafe_code)]

mod bbox;
pub mod grid;
pub mod mem;
mod point;
mod polyline;

pub use bbox::BoundingBox;
pub use mem::MemUse;
pub use point::Point;
pub use polyline::resample_uniform;
