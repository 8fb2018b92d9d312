//! Synthetic periodic-trajectory generation (§VII of the paper).
//!
//! The paper evaluates on four datasets it *synthesizes itself*: one
//! seed trajectory per dataset (Bike, Cow, Car, Airplane) expanded to
//! 200 sub-trajectories of `T = 300` positions with a modified
//! periodic-data generator [Mamoulis et al., SIGKDD 2004], where a
//! probability `f` controls how often a generated sub-trajectory is
//! similar to the seed (pattern strength ordered
//! Bike > Cow > Car > Airplane), and the extent is normalised to
//! `[0, 10000]²`.
//!
//! The original GPS seeds are unavailable, so the `datasets` module builds
//! archetype seed routes with the same qualitative character instead
//! (documented in `DESIGN.md`): the generator and everything
//! downstream exercise identical code paths.

#![forbid(unsafe_code)]

mod datasets;
mod generator;

pub use datasets::{
    airplane, bike, car, cow, noisy_sensor, paper_dataset, PaperDataset, EXTENT,
    NOISY_SENSOR_SIGMA, PERIOD, SUB_COUNT,
};
pub use generator::{Archetype, GeneratorConfig, PeriodicGenerator};
