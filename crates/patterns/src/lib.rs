//! Trajectory-pattern discovery (§IV of the paper).
//!
//! The pipeline has the two components the paper describes:
//!
//! 1. **Frequent regions** ([`discovery`]): the trajectory is
//!    decomposed into periodic sub-trajectories, every per-offset group
//!    `Gₜ` is clustered with DBSCAN, and each dense cluster becomes a
//!    frequent region `Rₜʲ`. Region ids are assigned in `(offset,
//!    cluster)` order — the sort order the Trajectory Pattern Tree's
//!    region-key table relies on (Property 1 of §V.A).
//! 2. **Trajectory patterns** ([`mining`], [`incremental`]): exact
//!    support counts over the per-sub-trajectory region-visit sequences
//!    ([`SupportCounts`]) yield association rules
//!    `Rt₁ ∧ … ∧ Rtₘ --c--> Rtₙ`, with the paper's two pruning rules
//!    built into which itemsets are counted: premises must be
//!    *monotonically increasing in time* with the consequence strictly
//!    last (no predicting the past from the future), and consequences
//!    are always a *single* region (Theorem 1: the multi-consequence
//!    variant can never win the ranking, so it is never generated).
//!
//! Both components have one implementation: [`discover`] + [`mine`]
//! are the one-call forms of what an incremental trainer
//! (`hpm_core::TrainerState`) holds on to between retrains.

//! # Example
//!
//! ```
//! use hpm_patterns::{discover, mine, DiscoveryParams, MiningParams};
//! use hpm_geo::Point;
//! use hpm_trajectory::Trajectory;
//!
//! // 20 "days" of period 3: home -> road -> work.
//! let mut pts = Vec::new();
//! for day in 0..20 {
//!     let j = (day % 3) as f64 * 0.1;
//!     pts.push(Point::new(j, 0.0));
//!     pts.push(Point::new(50.0 + j, 0.0));
//!     pts.push(Point::new(100.0 + j, 0.0));
//! }
//! let out = discover(
//!     &Trajectory::from_points(pts),
//!     &DiscoveryParams { period: 3, eps: 2.0, min_pts: 3 },
//! );
//! assert_eq!(out.regions.len(), 3);
//!
//! let patterns = mine(&out.regions, &out.visits, &MiningParams {
//!     min_support: 4,
//!     min_confidence: 0.3,
//!     max_premise_len: 2,
//!     max_premise_gap: 2,
//!     max_span: 2,
//! });
//! // Among them: "after home and road comes work", confidence 1.
//! assert!(patterns
//!     .iter()
//!     .any(|p| p.display(&out.regions).to_string() == "R0^0 ∧ R1^0 --1.00--> R2^0"));
//! ```

#![forbid(unsafe_code)]

mod pattern;
mod region;
mod table;

pub mod discovery;
pub mod incremental;
pub mod metrics;
pub mod mining;

pub use discovery::{
    cluster_offsets, discover, visits_against, DiscoveryOutput, DiscoveryParams, OffsetClusters,
    Visit, VisitTable,
};
pub use incremental::SupportCounts;
pub use mining::{mine, prune_statistics, MiningParams, PruneStats};
pub use pattern::TrajectoryPattern;
pub use region::{FrequentRegion, RegionId, RegionSet};
pub use table::PatternTable;
