//! Umbrella crate re-exporting the full Hybrid Prediction Model API.
//!
//! See the README for a quickstart; each sub-crate is re-exported under
//! a short module name.

#![forbid(unsafe_code)]

pub use hpm_baselines as baselines;
pub use hpm_clustering as clustering;
pub use hpm_core as core;
pub use hpm_datagen as datagen;
pub use hpm_geo as geo;
pub use hpm_linalg as linalg;
pub use hpm_motion as motion;
pub use hpm_objectstore as objectstore;
pub use hpm_obs as obs;
pub use hpm_patterns as patterns;
pub use hpm_store as store;
pub use hpm_tpt as tpt;
pub use hpm_trajectory as trajectory;
