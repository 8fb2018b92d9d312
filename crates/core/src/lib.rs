//! The Hybrid Prediction Model (§VI of the paper): pattern-based
//! prediction with a motion-function fallback.
//!
//! [`HybridPredictor::build`] runs the full offline pipeline over a
//! movement history — periodic decomposition, DBSCAN frequent regions,
//! Apriori pattern mining, TPT indexing — and then answers
//! [`PredictiveQuery`]s:
//!
//! * prediction lengths below the distant-time threshold `d` go to
//!   **Forward Query Processing** (Algorithm 2), which matches the
//!   object's recent movements against pattern premises and ranks
//!   candidates by premise similarity × confidence (Eq. 2);
//! * distant-time queries go to **Backward Query Processing**
//!   (Algorithm 3), which instead looks for consequences temporally
//!   near the query time, ranking by Eq. 5;
//! * whenever no pattern qualifies, the Recursive Motion Function
//!   answers from the recent movements alone.
//!
//! The [`eval`] module implements §VII's measurement protocol.

//! # Example
//!
//! ```
//! use hpm_core::{HpmConfig, HybridPredictor, PredictiveQuery};
//! use hpm_geo::Point;
//! use hpm_patterns::{DiscoveryParams, MiningParams};
//! use hpm_trajectory::Trajectory;
//!
//! // 40 "days" of period 3: home -> road -> work, with jitter.
//! let mut pts = Vec::new();
//! for day in 0..40 {
//!     let j = (day % 3) as f64 * 0.1;
//!     pts.push(Point::new(j, 0.0));
//!     pts.push(Point::new(50.0 + j, 0.0));
//!     pts.push(Point::new(100.0 + j, 0.0));
//! }
//! let predictor = HybridPredictor::build(
//!     &Trajectory::from_points(pts),
//!     &DiscoveryParams { period: 3, eps: 2.0, min_pts: 3 },
//!     &MiningParams {
//!         min_support: 4,
//!         min_confidence: 0.3,
//!         max_premise_len: 2,
//!         max_premise_gap: 2,
//!         max_span: 2,
//!     },
//!     HpmConfig { match_margin: 2.0, ..HpmConfig::default() },
//! );
//!
//! // Day 40 has just begun: the object is at home. Where at offset 2?
//! let recent = [Point::new(0.0, 0.0)];
//! let prediction = predictor.predict(&PredictiveQuery {
//!     recent: &recent,
//!     current_time: 120,
//!     query_time: 122,
//! });
//! assert!(prediction.from_patterns());
//! assert!(prediction.best().distance(&Point::new(100.1, 0.0)) < 2.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bqp;
mod config;
mod fqp;
mod predictor;
mod scratch;
mod similarity;
mod types;

pub mod eval;
pub mod metrics;
pub mod train;

#[cfg(test)]
pub(crate) mod test_fixtures;

pub use config::{HpmConfig, TPT_FANOUT};
pub use predictor::HybridPredictor;
pub use scratch::PredictScratch;
pub use similarity::{
    consequence_similarity, premise_similarity, premise_similarity_ids, premise_similarity_with,
    WeightFunction, WeightTable,
};
pub use train::{TrainPass, TrainerState};
pub use types::{
    Prediction, PredictionSource, PredictiveQuery, RankedAnswer, Uncertainty, ELLIPSE_SIGMAS,
};
