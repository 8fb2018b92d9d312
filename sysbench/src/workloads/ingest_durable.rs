//! `ingest_durable`: a fleet feed acknowledged durably at line rate,
//! then the restart an operator pays for.
//!
//! Its own phase is the feed: closed loop, one connection, four
//! `report_many` frames of 1,024 time-sliced reports in flight, into a
//! durable store. A tenth of the fleet are commuters whose first
//! training happened at load; during the feed each crosses a retrain
//! cadence every `RETRAIN_EVERY × PERIOD` timestamps, staggered so
//! every stretch of the feed retrains the same number of objects. The
//! rest are drifters that never accumulate the history training needs.
//! Frame decode, shard write locks, the WAL, chunk sealing and the
//! incremental trainer do the work; the predictive index and the query
//! processors do none. One
//! explicit snapshot is cut at the midpoint; afterwards the store is
//! dropped without a final snapshot and three copies of its directory
//! are reopened, so a WAL or snapshot format that speeds one side at
//! the other's cost shows in the same row.

use super::{Shape, REPORT_FRAME};
use crate::run::Scale;

/// Objects in the fleet at full size; one in ten is a commuter.
const OBJECTS: u64 = 20_000;
/// Positions per commuter period.
const PERIOD: u32 = 12;
/// Full periods before an object first trains. Large on purpose: every
/// object of a time-sliced feed shares the clock, so with a low
/// threshold all 18,000 drifters would train too and retraining would
/// be 80% of ingest, hiding the WAL and the codec.
const MIN_TRAIN_SUBS: usize = 40;
/// Further full periods between retrains.
const RETRAIN_EVERY: usize = 4;
/// Reports sent per second of `--seconds` in the timed feed; sized so
/// that phase lasts about that long on the defining container.
const REPORTS_PER_SECOND: u64 = 700_000;
/// Untimed feed before the timed one, in timestamps: longer than one
/// retrain cycle and than two seconds of traffic.
const WARM_STEPS: u64 = 64;

/// The workload's fleet and phase sizes at `scale`.
pub fn shape(scale: Scale) -> Shape {
    let objects = scale.fleet(OBJECTS, REPORT_FRAME as u64);
    let frame = REPORT_FRAME as u64;
    Shape {
        objects,
        commuter_share: (1, 10),
        period: PERIOD,
        similarity: 1.0,
        min_train_subs: MIN_TRAIN_SUBS,
        retrain_every_subs: RETRAIN_EVERY,
        distant_threshold: 4,
        // Commuter `j` retrains `CYCLE − j % CYCLE` timestamps into the
        // feed, CYCLE being one retrain cadence.
        stagger: (0, RETRAIN_EVERY * PERIOD as usize),
        max_horizon: 6,
        min_shares: None,
        live_seconds: 0,
        query_cycles: (0, 0),
        predict_frames: (0, 0),
        ingest_frames: (
            (WARM_STEPS * objects).div_ceil(frame) as usize,
            scale.count(REPORTS_PER_SECOND, 64 * frame) / REPORT_FRAME,
        ),
        snapshot_midway: true,
        reopens: 3,
    }
}
