//! Shared experiment machinery for reproducing §VII: the paper's fixed
//! parameter set, dataset construction, synthetic pattern sets for the
//! Fig. 11 index experiments, the forked commuters the trained-state
//! benches share, TSV and `BENCH_*.json` reporting, and the
//! in-tree [`timing`] harness the bench targets run on.

#![forbid(unsafe_code)]

pub mod report;
pub mod setup;
pub mod synth;
pub mod timing;

pub use setup::{paper_discovery, paper_mining, Experiment};
pub use synth::{forked_commuter, forked_params, synthetic_index, synthetic_patterns};
pub use timing::{best_of, Bench, Throughput};
