//! `mixed_live`: the feed keeps running while clients ask.
//!
//! Its own phase is **open loop**, on two connections, and of a fixed
//! length. One carries the feed: every object reports once a second,
//! 20,000 reports/s in `report_many` frames of 200 sent every 10 ms.
//! The other carries 340 queries/s on a fixed repeating schedule — 50% `predict_batch`(16),
//! 30% range, 10% kNN, 10% `within`. Every op is timed from its
//! *scheduled* send, and the run reports how late the generator itself
//! ran. The same shard locks, index and WAL serve writes beside reads:
//! each fleet query first refits every envelope dirtied since the last
//! one, and a twelfth of the commuters cross a period boundary each
//! second and retrain inline under the feed — so a gain on static
//! `fleet_query` that is paid for under ingest (or the reverse) shows
//! here. Being a fixed-rate phase it reports latencies only, never a
//! rate.

use super::{Shape, Timeline, EXTENTS, LOOKAHEAD};
use crate::drive::{open_loop, Timed, WallClock};
use crate::ops::{square, Kind, Op};
use crate::run::{RunError, Scale};
use crate::stats::{self, Samples};
use hpm_geo::Point;
use hpm_objectstore::ObjectId;
use hpm_rand::{Rng, SmallRng};
use hpm_server::{Client, ResponseBody};
use hpm_trajectory::Timestamp;

/// Objects in the fleet at full size; one in twenty is a commuter.
const OBJECTS: u64 = 20_000;
/// Positions per commuter period: a commuter retrains every this many
/// seconds of feed.
const PERIOD: u32 = 12;
/// Full periods before an object first trains: commuters arrive with
/// exactly this much (plus a stagger) and train at load; drifters stay
/// short of it through the live phase.
const MIN_TRAIN_SUBS: usize = 8;
/// Reports per live feed frame.
pub const FRAME: usize = 200;
/// Queries per second, and the repeating schedule their kinds follow:
/// with the feed's 100 frames a second, every p95 of the phase has its
/// 1,000 samples after [`LIVE_SECONDS`].
pub const QUERIES_PER_SECOND: u64 = 340;
const SCHEDULE: [Kind; 10] = [
    Kind::PredictBatch,
    Kind::Range,
    Kind::PredictBatch,
    Kind::Range,
    Kind::PredictBatch,
    Kind::Knn,
    Kind::PredictBatch,
    Kind::Range,
    Kind::PredictBatch,
    Kind::Within,
];
/// Queries per live `predict_batch` frame.
pub const BATCH: usize = 16;
/// Seconds of the same traffic before samples count, and seconds
/// sampled after them. A fixed-rate phase does not grow with
/// `--seconds`: that sizes the closed phases only.
pub const WARM_SECONDS: u64 = 2;
const LIVE_SECONDS: u64 = 10;
/// Latency limit the over-limit share is counted against.
const LIMIT_MS: f64 = 10.0;
/// Generator lateness (p95) above which a run does not count.
pub const MAX_LATE_P95_MS: f64 = 1.0;

/// The workload's fleet and phase sizes at `scale`.
pub fn shape(scale: Scale) -> Shape {
    Shape {
        objects: scale.fleet(OBJECTS, 400),
        commuter_share: (1, 20),
        period: PERIOD,
        similarity: 1.0,
        min_train_subs: MIN_TRAIN_SUBS,
        retrain_every_subs: 1,
        distant_threshold: 4,
        // A twelfth of the commuters cross a period boundary each second.
        stagger: (0, PERIOD as usize),
        max_horizon: 6,
        min_shares: None,
        // Smoke runs keep the rates and shorten the phase instead.
        live_seconds: WARM_SECONDS + (LIVE_SECONDS / scale.shrink).max(1),
        query_cycles: (0, 0),
        predict_frames: (0, 0),
        ingest_frames: (0, 0),
        snapshot_midway: false,
        reopens: 1,
    }
}

/// One connection's schedule.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The ops, in due order.
    pub ops: Vec<Op>,
    /// When each is due, nanoseconds from the start of the live phase.
    pub due_ns: Vec<u64>,
}

impl Lane {
    /// Units of work (reports, queries) the lane carries.
    pub fn units(&self) -> u64 {
        self.ops.iter().map(Op::units).sum()
    }
}

/// The open-loop phase: what each connection sends, and when.
#[derive(Debug, Clone)]
pub struct Live {
    /// The feed connection's schedule.
    pub feed: Lane,
    /// The query connection's schedule.
    pub queries: Lane,
    /// Seconds of feed, warm-up included.
    pub seconds: u64,
}

impl Live {
    /// Reports scheduled between two consecutive fleet queries: what
    /// each such query finds dirty in the index. Exact, from the
    /// schedule.
    pub fn dirty_per_query(&self) -> f64 {
        let fleet_queries = self
            .queries
            .ops
            .iter()
            .filter(|op| op.kind() != Kind::PredictBatch)
            .count();
        self.feed.units() as f64 / fleet_queries.max(1) as f64
    }
}

/// Builds the live phase of a fleet whose last loaded timestamp is `now`.
pub fn plan_live(timeline: &Timeline, now: Timestamp, seconds: u64, rng: &mut SmallRng) -> Live {
    let fleet = &timeline.fleet;
    // The feed: second `s` carries every object's report for timestamp
    // `now + 1 + s`, in id order, cut into frames spread evenly over it.
    let frames_per_second = fleet.objects.div_ceil(FRAME as u64);
    let frame_gap = 1_000_000_000 / frames_per_second;
    let mut feed = Lane {
        ops: Vec::new(),
        due_ns: Vec::new(),
    };
    for s in 0..seconds {
        let reports: Vec<(ObjectId, Timestamp, Point)> = (0..fleet.objects)
            .map(|id| (ObjectId(id), now + 1 + s, timeline.at(id, s as usize)))
            .collect();
        for (f, frame) in reports.chunks(FRAME).enumerate() {
            feed.ops.push(Op::ReportMany(frame.to_vec()));
            feed.due_ns.push(s * 1_000_000_000 + f as u64 * frame_gap);
        }
    }

    // The queries: a fixed kind schedule at a fixed rate, offset half a
    // slot so query and feed sends do not share due times.
    let side = fleet.side();
    let gap = 1_000_000_000 / QUERIES_PER_SECOND;
    let mut queries = Lane {
        ops: Vec::new(),
        due_ns: Vec::new(),
    };
    for i in 0..seconds * QUERIES_PER_SECOND {
        let due = i * gap + gap / 2;
        let at = now + 1 + due / 1_000_000_000 + LOOKAHEAD;
        let extent = EXTENTS[i as usize % EXTENTS.len()];
        let site = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        let op = match SCHEDULE[i as usize % SCHEDULE.len()] {
            Kind::Range => Op::Range {
                region: square(site, extent),
                at,
            },
            Kind::Within => Op::Within {
                region: square(site, extent),
                at,
            },
            Kind::Knn => Op::Knn { focus: site, at },
            Kind::PredictBatch | Kind::ReportMany => Op::PredictBatch(
                (0..BATCH)
                    .map(|_| {
                        (
                            ObjectId(rng.gen_range(0..fleet.objects)),
                            at + rng.gen_range(0..6u64),
                        )
                    })
                    .collect(),
            ),
        };
        queries.ops.push(op);
        queries.due_ns.push(due);
    }
    Live {
        feed,
        queries,
        seconds,
    }
}

/// Whether a reply is what its op had to get: the right shape, every
/// report accepted, every prediction answered (all ids are known).
fn acceptable(op: &Op, reply: &ResponseBody) -> bool {
    op.answered_by(reply)
        && match reply {
            ResponseBody::Predictions(rows) => rows.iter().all(Result::is_ok),
            _ => true,
        }
}

/// Runs one lane of the live phase; returns its timings, its deepest
/// backlog and which ops got an unacceptable reply.
fn run_lane(
    client: &mut Client,
    clock: &WallClock,
    lane: &Lane,
) -> Result<(Vec<Timed>, usize, Vec<bool>), RunError> {
    let mut bad = vec![false; lane.ops.len()];
    let run = open_loop(client, clock, &lane.ops, &lane.due_ns, |i, reply| {
        bad[i] = !acceptable(&lane.ops[i], &reply);
    })?;
    Ok((run.timings, run.backlog_max, bad))
}

/// What the live phase measured, before it is reduced to metrics.
pub struct LiveRun {
    /// Timings of both lanes past the warm-up, in due order.
    pub timings: Vec<Timed>,
    /// Per timing: whether the op's reply was unacceptable.
    pub failed: Vec<bool>,
    /// Deepest generator backlog on either lane.
    pub backlog_max: usize,
}

impl LiveRun {
    /// Units (reports, queries) attempted and failed past the warm-up.
    pub fn units(&self) -> (u64, u64) {
        let attempted = self.timings.iter().map(|t| t.units).sum();
        let failed = self
            .timings
            .iter()
            .zip(&self.failed)
            .filter(|(_, bad)| **bad)
            .map(|(t, _)| t.units)
            .sum();
        (attempted, failed)
    }
}

/// Runs both lanes concurrently against one clock.
pub fn live_phase(feed: &mut Client, query: &mut Client, live: &Live) -> Result<LiveRun, RunError> {
    let clock = WallClock::start();
    let (fed, asked) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| run_lane(feed, &clock, &live.feed));
        let asked = run_lane(query, &clock, &live.queries);
        (feeder.join().expect("feed lane panicked"), asked)
    });
    let (fed, asked) = (fed?, asked?);
    let warm_ns = WARM_SECONDS * 1_000_000_000;
    let mut kept: Vec<(Timed, bool)> = fed
        .0
        .into_iter()
        .zip(fed.2)
        .chain(asked.0.into_iter().zip(asked.2))
        .filter(|(t, _)| t.due_ns >= warm_ns)
        .collect();
    kept.sort_by_key(|(t, _)| t.due_ns);
    let (timings, failed) = kept.into_iter().unzip();
    Ok(LiveRun {
        timings,
        failed,
        backlog_max: fed.1.max(asked.1),
    })
}

/// Generator lateness and the over-limit share of a live phase.
pub struct LiveQuality {
    /// p95 of (send began − due), milliseconds; `None` under 1,000 ops.
    pub late_p95_ms: Option<f64>,
    /// Share of ops that took longer than [`LIMIT_MS`] from their due
    /// time or failed (a failed op missed the limit whatever its
    /// latency was).
    pub over_limit_share: f64,
}

/// Reduces a live phase to its quality figures.
pub fn live_quality(live: &LiveRun) -> LiveQuality {
    let late = Samples::new(
        live.timings
            .iter()
            .map(|t| t.sent_ns.saturating_sub(t.due_ns))
            .collect(),
    );
    let missed = live
        .timings
        .iter()
        .zip(&live.failed)
        .filter(|(t, bad)| **bad || stats::ns_to_ms(t.latency_ns()) > LIMIT_MS)
        .count();
    LiveQuality {
        late_p95_ms: late.tail_ms(95.0).ok(),
        over_limit_share: missed as f64 / live.timings.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn live_schedules_are_ascending_and_keep_their_rates() {
        let scale = Scale {
            seconds: 10,
            shrink: Scale::SMOKE_SHRINK,
        };
        let p = Workload::MixedLive.plan(3, scale).unwrap();
        let live = p.live.expect("mixed_live has a live phase");
        for lane in [&live.feed, &live.queries] {
            assert_eq!(lane.ops.len(), lane.due_ns.len());
            assert!(lane.due_ns.windows(2).all(|w| w[0] < w[1]));
            assert!(*lane.due_ns.last().unwrap() < live.seconds * 1_000_000_000);
        }
        assert_eq!(
            live.queries.ops.len() as u64,
            QUERIES_PER_SECOND * live.seconds
        );
        assert_eq!(live.feed.units(), p.timeline.fleet.objects * live.seconds);
        assert!(live.dirty_per_query() > 0.0);
    }

    #[test]
    fn a_failed_op_counts_once_against_the_limit() {
        // Five ops: three fine, one slow, one slow and failed.
        let op = |i: u64, ms: u64| Timed {
            kind: Kind::ReportMany,
            units: 200,
            due_ns: i * 1_000_000,
            sent_ns: i * 1_000_000,
            done_ns: (i + ms) * 1_000_000,
        };
        let live = LiveRun {
            timings: vec![op(0, 1), op(1, 1), op(2, 1), op(3, 11), op(4, 11)],
            failed: vec![false, true, false, false, true],
            backlog_max: 0,
        };
        let q = live_quality(&live);
        assert!(
            (q.over_limit_share - 0.6).abs() < 1e-12,
            "{}",
            q.over_limit_share
        );
        assert_eq!(q.late_p95_ms, None, "five ops are too few for a p95");
        // Failures are counted in the units the tally is kept in.
        assert_eq!(live.units(), (1_000, 400));
    }
}
