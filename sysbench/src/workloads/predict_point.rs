//! `predict_point`: "where will X be at t", as fast as one client can
//! ask.
//!
//! Its own phase is point prediction: closed loop, one connection,
//! eight `predict_batch` frames of 64 queries in flight, over trained
//! `hpm-datagen` commuters plus untrained drifters. Ids are uniform
//! over the fleet, one query in a hundred names an id the store has
//! never seen (the typed-error path), and horizons straddle the
//! distant-time threshold so answers come from all three sources —
//! forward patterns, backward patterns, motion function — in asserted
//! shares: a fleet that silently degrades to all-fallback fails the
//! run. The predictor (`core` FQP/BQP/RMF), `tpt::packed` search and
//! response encoding do the work; the index, the WAL and the trainer
//! are bypassed, so a predict-path optimisation must show here and
//! nowhere else.

use super::{Shape, QUERY_FRAME};
use crate::run::Scale;

/// Objects in the fleet at full size: four commuters to one drifter.
const OBJECTS: u64 = 2_500;
/// Positions per commuter period.
const PERIOD: u32 = 32;
/// Full periods of history a commuter trains on.
const TRAINED_PERIODS: usize = 12;
/// Prediction lengths below this are answered forward, the rest
/// backward (the paper's distant-time threshold `d`).
const DISTANT: u32 = 6;
/// Longest prediction length asked.
const MAX_HORIZON: u64 = 11;
/// Queries sent per second of `--seconds` in the timed phase.
const QUERIES_PER_SECOND: u64 = 125_000;
/// Untimed queries before the timed phase (a good second's worth).
const WARM_QUERIES: u64 = QUERIES_PER_SECOND;

/// The workload's fleet and phase sizes at `scale`.
pub fn shape(scale: Scale) -> Shape {
    let frame = QUERY_FRAME as u64;
    Shape {
        objects: scale.fleet(OBJECTS, 100),
        commuter_share: (4, 5),
        period: PERIOD,
        similarity: 0.9,
        min_train_subs: TRAINED_PERIODS,
        retrain_every_subs: 1_000_000,
        distant_threshold: DISTANT,
        // Each commuter is 4 to 15 positions into its day.
        stagger: (4, 12),
        max_horizon: MAX_HORIZON,
        min_shares: Some([0.25, 0.25, 0.15]),
        live_seconds: 0,
        query_cycles: (0, 0),
        predict_frames: (
            scale.fixed(WARM_QUERIES, 8 * frame) / QUERY_FRAME,
            scale.count(QUERIES_PER_SECOND, 64 * frame) / QUERY_FRAME,
        ),
        ingest_frames: (0, 0),
        snapshot_midway: false,
        reopens: 1,
    }
}
