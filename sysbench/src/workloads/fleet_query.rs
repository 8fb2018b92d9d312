//! `fleet_query`: "who will be in R at t" and "which k are nearest p
//! at t" over a large, static fleet.
//!
//! Its own phase is the fleet queries: closed loop, one connection,
//! one query in flight, 100,000 objects on a constant-density grid (1%
//! trained commuters on local routes, 99% drifters, as in
//! `BENCH_range.json`). A fixed repeating schedule interleaves ten
//! range and ten `within` queries (extents 100 / 200 / 400) with one
//! kNN (k = 10) at seeded sites, so every kind's samples span the
//! whole phase. Candidate selection and flushing in
//! `objectstore::index` do the work — kNN enumerates every bucket —
//! while the wire is a few percent of a query: the mirror image of
//! `predict_point`. The first indexed query after a bulk load refits
//! every envelope; that cold flush is timed on each of the three fresh
//! loads set-up makes.

use super::Shape;
use crate::run::Scale;

/// Objects in the fleet at full size; one in a hundred is a commuter.
const OBJECTS: u64 = 100_000;
/// Positions per commuter period, and full periods each trains on.
const PERIOD: u32 = 8;
const TRAINED_PERIODS: usize = 6;
/// Cycles per second of `--seconds` in the timed phase.
const CYCLES_PER_SECOND: u64 = 125;
/// Untimed cycles before the timed phase (two seconds' worth).
const WARM_CYCLES: u64 = 2 * CYCLES_PER_SECOND;

/// The workload's fleet and phase sizes at `scale`.
pub fn shape(scale: Scale) -> Shape {
    Shape {
        objects: scale.fleet(OBJECTS, 1_000),
        commuter_share: (1, 100),
        period: PERIOD,
        similarity: 1.0,
        min_train_subs: TRAINED_PERIODS,
        retrain_every_subs: 1_000_000,
        distant_threshold: 3,
        // Static: every commuter stands at a period boundary.
        stagger: (0, 1),
        max_horizon: 6,
        min_shares: None,
        live_seconds: 0,
        query_cycles: (
            scale.fixed(WARM_CYCLES, 4),
            scale.count(CYCLES_PER_SECOND, 16),
        ),
        predict_frames: (0, 0),
        ingest_frames: (0, 0),
        snapshot_midway: false,
        reopens: 1,
    }
}
