//! `sysbench`: one repeatable system benchmark for the moving-objects
//! stack. See `README.md` beside this crate for what it measures and
//! why; `main.rs` is the command.

pub mod aa;
pub mod catalog;
pub mod drive;
pub mod fleet;
pub mod host;
pub mod ops;
pub mod pipeline;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;
