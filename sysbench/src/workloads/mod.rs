//! The four workloads. Every one takes a seeded fleet through the same
//! life — load into a durable store, serve, its own traffic, a fixed
//! set of checked queries at rest, restart — and differs in the fleet
//! and in what its own traffic is: a workload times only what its own
//! traffic measures. A workload file holds its [`Shape`] and the
//! reasons for it; [`build`] turns a shape and a seed into the [`Plan`]
//! that [`crate::pipeline`] runs.

pub mod fleet_query;
pub mod ingest_durable;
pub mod mixed_live;
pub mod predict_point;

use crate::fleet::Fleet;
use crate::host;
use crate::ops::{square, Op};
use crate::run::{History, RunError, Scale};
use hpm_core::HpmConfig;
use hpm_geo::Point;
use hpm_objectstore::{IndexConfig, ObjectId, StoreConfig};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_rand::{Rng, SmallRng};
use hpm_trajectory::Timestamp;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop durable ingest, then recovery.
    IngestDurable,
    /// Closed-loop pipelined point prediction.
    PredictPoint,
    /// Closed-loop fleet queries over a large static fleet.
    FleetQuery,
    /// Open-loop feed beside queries.
    MixedLive,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 4] = [
        Workload::IngestDurable,
        Workload::PredictPoint,
        Workload::FleetQuery,
        Workload::MixedLive,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestDurable => "ingest_durable",
            Workload::PredictPoint => "predict_point",
            Workload::FleetQuery => "fleet_query",
            Workload::MixedLive => "mixed_live",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json` carries it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestDurable => {
                "closed-loop durable report_many feed with a midpoint snapshot, then 3 reopens: proto \
                 decode, shard locks, WAL, chunk sealing and the trainer work; index and query paths idle"
            }
            Workload::PredictPoint => {
                "closed-loop pipelined predict_batch over trained commuters: FQP/BQP/RMF, packed TPT \
                 search and response encoding work; index, WAL and trainer are bypassed"
            }
            Workload::FleetQuery => {
                "closed-loop range/within/kNN over a static 100k-object fleet: index candidate selection \
                 and flush dominate, the wire is a few percent; mirror of predict_point"
            }
            Workload::MixedLive => {
                "open-loop 20k reports/s feed beside 340 queries/s on two connections: the same locks, \
                 index and WAL serve writes beside reads; latencies from due time only"
            }
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fleet and phase sizes at `scale`.
    pub fn shape(self, scale: Scale) -> Shape {
        match self {
            Workload::IngestDurable => ingest_durable::shape(scale),
            Workload::PredictPoint => predict_point::shape(scale),
            Workload::FleetQuery => fleet_query::shape(scale),
            Workload::MixedLive => mixed_live::shape(scale),
        }
    }

    /// Everything a run of this workload loads and sends, from the
    /// seed alone.
    pub fn plan(self, seed: u64, scale: Scale) -> Result<Plan, RunError> {
        build(&self.shape(scale), seed)
    }
}

/// Recent samples handed to each query, in every workload.
pub const RECENT_LEN: usize = 4;
/// Reports per `report_many` frame, and frames in flight.
pub const REPORT_FRAME: usize = 1_024;
pub const INGEST_WINDOW: usize = 4;
/// Queries per `predict_batch` frame, and frames in flight.
pub const QUERY_FRAME: usize = 64;
pub const PREDICT_WINDOW: usize = 8;
/// One fleet-query cycle: this many range and `within` queries
/// alternating, then one kNN. One query in flight.
pub const RANGE_PER_CYCLE: usize = 10;
pub const CYCLE_OPS: usize = 2 * RANGE_PER_CYCLE + 1;
/// Side lengths of range and `within` boxes, cycled.
pub const EXTENTS: [f64; 3] = [100.0, 200.0, 400.0];
/// How far past the fleet's clock fleet queries ask: inside every
/// object's index horizon, and in every object's future even when a
/// live query overtakes the feed by a second.
pub const LOOKAHEAD: Timestamp = 3;
/// One point query in this many names an id the store has never seen
/// (the typed-error path).
pub const UNKNOWN_ONE_IN: u64 = 100;
/// Reports a drifter is loaded with: enough for the motion function,
/// far too few to train on.
pub const DRIFTER_SAMPLES: usize = 3;
/// Fleet queries of each kind in the fixed sample every workload is
/// asked at rest, to be checked against the same calls in-process.
pub const CHECKED_PER_KIND: usize = 256;
/// `predict_batch` frames in the fixed sample every workload is asked
/// at rest: 65,536 queries, checked against the same calls in-process
/// and scored against the held-out truth.
pub const SAMPLE_FRAMES: usize = 1_024;

/// A workload's fleet, store settings and phase sizes.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Objects in the fleet.
    pub objects: u64,
    /// `(n, d)`: `n` of every `d` ids are commuters.
    pub commuter_share: (u64, u64),
    /// Positions per commuter period.
    pub period: u32,
    /// Probability that a commuter period follows one of its routes.
    pub similarity: f64,
    /// Full periods before an object first trains. Commuters are loaded
    /// with exactly this much as their first batch, so they train at
    /// load; drifters must never get there.
    pub min_train_subs: usize,
    /// Further full periods between retrains.
    pub retrain_every_subs: usize,
    /// The paper's distant-time threshold `d`.
    pub distant_threshold: u32,
    /// Commuter `j` is loaded with `stagger.0 + j % stagger.1` samples
    /// beyond its training prefix, so retrains under a feed are spread
    /// evenly over its timestamps.
    pub stagger: (usize, usize),
    /// Longest prediction length a point query asks.
    pub max_horizon: u64,
    /// Smallest share of point answers the forward patterns, backward
    /// patterns and motion function must each supply, where asserted.
    pub min_shares: Option<[f64; 3]>,
    /// Seconds of open-loop feed beside queries, warm-up included
    /// (0 where that is not the workload's own traffic; likewise below).
    pub live_seconds: u64,
    /// Untimed and timed fleet-query cycles.
    pub query_cycles: (usize, usize),
    /// Untimed and timed `predict_batch` frames.
    pub predict_frames: (usize, usize),
    /// Untimed and timed `report_many` frames.
    pub ingest_frames: (usize, usize),
    /// Whether an explicit snapshot is cut halfway through the timed
    /// feed.
    pub snapshot_midway: bool,
    /// Copies of the directory left behind that are reopened: three
    /// where the restart follows the workload's own feed and is timed
    /// as a median, one where it only checks that the store comes back.
    pub reopens: usize,
}

/// A store configuration with the settings every workload shares
/// pinned: [`host::SHARDS`] shards, one pool worker per core, DBSCAN
/// `Eps` 2 / `MinPts` 3 (fleet noise is a few tenths of a unit), and
/// mining bounded so a commuter holds hundreds of patterns, not
/// hundreds of thousands.
pub fn store_config(shape: &Shape) -> StoreConfig {
    StoreConfig {
        discovery: DiscoveryParams {
            period: shape.period,
            eps: 2.0,
            min_pts: 3,
        },
        mining: MiningParams {
            min_support: 3,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 8,
        },
        hpm: HpmConfig {
            distant_threshold: shape.distant_threshold,
            time_relaxation: 2,
            match_margin: 2.0,
            rmf_retrospect: 3,
            ..HpmConfig::default()
        },
        min_train_subs: shape.min_train_subs,
        retrain_every_subs: shape.retrain_every_subs,
        recent_len: RECENT_LEN,
        shards: host::SHARDS,
        threads: host::store_threads(),
        index: IndexConfig::default(),
    }
}

/// Where every object is at every timestamp after the load: the source
/// of the feed and of the held-out truth point answers are scored
/// against.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The fleet.
    pub fleet: Fleet,
    /// Per commuter, in id order: samples loaded, and its whole path.
    commuters: Vec<(usize, Vec<Point>)>,
}

impl Timeline {
    /// Where `id` is `step` timestamps after the first one past the load.
    pub fn at(&self, id: u64, step: usize) -> Point {
        if self.fleet.is_commuter(id) {
            let (loaded, path) = &self.commuters[self.fleet.commuter_index(id)];
            path[loaded + step]
        } else {
            self.fleet.drifter_at(id, (DRIFTER_SAMPLES + step) as u64)
        }
    }
}

/// The untimed head and the timed body of one closed-loop phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Sent first, untimed.
    pub warm: Vec<Op>,
    /// The timed ops.
    pub timed: Vec<Op>,
}

impl Phase {
    fn split(mut ops: Vec<Op>, warm: usize) -> Phase {
        let timed = ops.split_off(warm.min(ops.len()));
        Phase { warm: ops, timed }
    }

    /// Units of work (reports, queries) in both parts.
    pub fn units(&self) -> u64 {
        self.warm.iter().chain(&self.timed).map(Op::units).sum()
    }
}

/// Everything a run loads and sends, generated from the seed alone.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The fleet and where it goes.
    pub timeline: Timeline,
    /// The store configuration.
    pub config: StoreConfig,
    /// Histories loaded at set-up; every one ends at [`Plan::now`].
    pub load: Vec<History>,
    /// The timestamp every object shares once loaded.
    pub now: Timestamp,
    /// The open-loop phase, for the workload that has one. It advances
    /// the fleet's clock by its length.
    pub live: Option<mixed_live::Live>,
    /// Fleet queries: cycles of range, `within` and kNN, one in flight.
    pub queries: Phase,
    /// Point predictions: `predict_batch` frames, pipelined.
    pub predict: Phase,
    /// The feed: time-sliced `report_many` frames, pipelined. It ends
    /// mid-timestamp.
    pub ingest: Phase,
    /// Whether a snapshot is cut halfway through the timed feed.
    pub snapshot_midway: bool,
    /// Shares of point answers asserted per source.
    pub min_shares: Option<[f64; 3]>,
    /// Fleet queries asked once the workload's own traffic has ended,
    /// [`CHECKED_PER_KIND`] of each kind.
    pub checked: Vec<Op>,
    /// Point queries asked then, [`SAMPLE_FRAMES`] frames.
    pub sample: Vec<Op>,
    /// Copies of the directory left behind that are reopened.
    pub reopens: usize,
}

impl Plan {
    /// Where `id` really is at `at` (a timestamp past [`Plan::now`]).
    pub fn truth(&self, id: u64, at: Timestamp) -> Point {
        self.timeline.at(id, (at - self.now - 1) as usize)
    }

    /// Reports the store has acknowledged once every phase has run.
    pub fn reports(&self) -> u64 {
        self.load.iter().map(|h| h.points.len() as u64).sum::<u64>()
            + self.live.as_ref().map_or(0, |l| l.feed.units())
            + self.ingest.units()
    }
}

/// `cycles` fleet-query cycles at seeded sites of a plane of side
/// `side`, all asking about `at`.
fn query_cycles(rng: &mut SmallRng, side: f64, at: Timestamp, cycles: usize) -> Vec<Op> {
    let mut site = move || Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    let mut ops = Vec::with_capacity(cycles * CYCLE_OPS);
    for cycle in 0..cycles {
        for i in 0..RANGE_PER_CYCLE {
            let extent = EXTENTS[(cycle * RANGE_PER_CYCLE + i) % EXTENTS.len()];
            ops.push(Op::Range {
                region: square(site(), extent),
                at,
            });
            ops.push(Op::Within {
                region: square(site(), extent),
                at,
            });
        }
        ops.push(Op::Knn { focus: site(), at });
    }
    ops
}

/// `frames` `predict_batch` frames: ids uniform over the fleet (one in
/// [`UNKNOWN_ONE_IN`] unknown), prediction lengths uniform in
/// `1..=max_horizon` past `clock`.
fn predict_frames(
    rng: &mut SmallRng,
    objects: u64,
    clock: Timestamp,
    max_horizon: u64,
    frames: usize,
) -> Vec<Op> {
    (0..frames)
        .map(|_| {
            Op::PredictBatch(
                (0..QUERY_FRAME)
                    .map(|_| {
                        let horizon = rng.gen_range(1..=max_horizon);
                        let id = if rng.gen_range(0..UNKNOWN_ONE_IN) == 0 {
                            objects + rng.gen_range(0..1_000u64)
                        } else {
                            rng.gen_range(0..objects)
                        };
                        (ObjectId(id), clock + horizon)
                    })
                    .collect(),
            )
        })
        .collect()
}

/// `frames` frames of a time-sliced feed: every object's report for
/// one timestamp, in id order, then the next timestamp, starting
/// `first_step` timestamps past the load; frames cut it every
/// [`REPORT_FRAME`] reports wherever that falls.
fn feed_frames(timeline: &Timeline, now: Timestamp, first_step: usize, frames: usize) -> Vec<Op> {
    let objects = timeline.fleet.objects;
    let mut reports = (first_step..)
        .flat_map(|step| (0..objects).map(move |id| (id, step)))
        .map(|(id, step)| {
            (
                ObjectId(id),
                now + 1 + step as Timestamp,
                timeline.at(id, step),
            )
        });
    (0..frames)
        .map(|_| Op::ReportMany(reports.by_ref().take(REPORT_FRAME).collect()))
        .collect()
}

/// Builds the plan of `shape` for `seed`.
pub fn build(shape: &Shape, seed: u64) -> Result<Plan, RunError> {
    let fleet = Fleet {
        seed,
        objects: shape.objects,
        commuter_share: shape.commuter_share,
        period: shape.period,
        similarity: shape.similarity,
    };
    // `report_many` retrains an object at most once per call, WAL
    // replay retrains at the exact report that crosses a cadence, so a
    // frame carrying two reports of one object across a cadence would
    // make the reopened store differ from the live one.
    let ingest_frames = shape.ingest_frames.0 + shape.ingest_frames.1;
    if ingest_frames > 0 && (fleet.objects as usize) < REPORT_FRAME {
        return Err(RunError(format!(
            "a fleet of {} objects is smaller than a frame of {REPORT_FRAME} reports",
            fleet.objects
        )));
    }
    let period = shape.period as usize;
    let train_at = shape.min_train_subs * period;
    let live_steps = shape.live_seconds as usize;
    let steps = live_steps + (ingest_frames * REPORT_FRAME).div_ceil(fleet.objects as usize);
    if DRIFTER_SAMPLES + steps >= train_at {
        return Err(RunError(format!(
            "a feed of {steps} timestamps would train drifters (at {train_at} samples); \
             lower --seconds"
        )));
    }

    // Every history ends at `now`; a commuter's first `train_at`
    // samples are loaded as their own batch, so it trains at exactly
    // the report at which a replay of the WAL would train it.
    let now = (train_at + shape.stagger.0 + shape.stagger.1) as Timestamp;
    let future = steps + shape.max_horizon as usize;
    let mut commuters = Vec::new();
    let mut load = Vec::with_capacity(fleet.objects as usize);
    for (j, id) in fleet.commuter_ids().enumerate() {
        let loaded = train_at + shape.stagger.0 + j % shape.stagger.1;
        let path = fleet.commuter_path(id, (loaded + future).div_ceil(period));
        load.push(History {
            id: ObjectId(id),
            start: now + 1 - loaded as Timestamp,
            points: path[..loaded].to_vec(),
            train_at,
        });
        commuters.push((loaded, path));
    }
    for id in (0..fleet.objects).filter(|&id| !fleet.is_commuter(id)) {
        load.push(History {
            id: ObjectId(id),
            start: now + 1 - DRIFTER_SAMPLES as Timestamp,
            points: (0..DRIFTER_SAMPLES as u64)
                .map(|step| fleet.drifter_at(id, step))
                .collect(),
            train_at: 0,
        });
    }
    let timeline = Timeline { fleet, commuters };

    // One generator per phase, so resizing one phase leaves the
    // others' inputs as they were.
    let rng = |salt: u64| SmallRng::seed_from_u64(seed ^ salt);
    let live = (shape.live_seconds > 0)
        .then(|| mixed_live::plan_live(&timeline, now, shape.live_seconds, &mut rng(0x11fe)));
    let clock = now + shape.live_seconds;
    let (warm, timed) = shape.query_cycles;
    let queries = Phase::split(
        query_cycles(
            &mut rng(0x000f_1ee7),
            fleet.side(),
            clock + LOOKAHEAD,
            warm + timed,
        ),
        warm * CYCLE_OPS,
    );
    let (warm, timed) = shape.predict_frames;
    let predict = Phase::split(
        predict_frames(
            &mut rng(0x09ce_d1c7),
            fleet.objects,
            clock,
            shape.max_horizon,
            warm + timed,
        ),
        warm,
    );
    let ingest = Phase::split(
        feed_frames(&timeline, now, live_steps, ingest_frames),
        shape.ingest_frames.0,
    );
    // What every workload is asked at rest, once its own traffic has
    // moved the fleet's clock to `end`.
    let end = now + steps as Timestamp;
    let mut at_rest = rng(0x0c4e_c4ed);
    let side = fleet.side();
    let site = |rng: &mut SmallRng| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
    let mut checked = Vec::with_capacity(3 * CHECKED_PER_KIND);
    for i in 0..CHECKED_PER_KIND {
        let extent = EXTENTS[i % EXTENTS.len()];
        let at = end + LOOKAHEAD;
        checked.push(Op::Range {
            region: square(site(&mut at_rest), extent),
            at,
        });
        checked.push(Op::Within {
            region: square(site(&mut at_rest), extent),
            at,
        });
        checked.push(Op::Knn {
            focus: site(&mut at_rest),
            at,
        });
    }
    let sample = predict_frames(
        &mut at_rest,
        fleet.objects,
        end,
        shape.max_horizon,
        SAMPLE_FRAMES,
    );
    Ok(Plan {
        timeline,
        config: store_config(shape),
        load,
        now,
        live,
        queries,
        predict,
        ingest,
        snapshot_midway: shape.snapshot_midway,
        min_shares: shape.min_shares,
        checked,
        sample,
        reopens: shape.reopens,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale {
        seconds: 10,
        shrink: Scale::SMOKE_SHRINK,
    };

    /// Everything a plan sends and loads, flattened for comparison:
    /// ops sent, and `(id, start, samples, hash of positions)` per
    /// history loaded.
    type Fingerprint = (Vec<Op>, Vec<(u64, u64, usize, u64)>);

    fn fingerprint(workload: Workload, seed: u64) -> Fingerprint {
        let p = workload.plan(seed, SMOKE).expect("smoke plans are valid");
        let live = p
            .live
            .iter()
            .flat_map(|l| l.feed.ops.iter().chain(&l.queries.ops));
        let ops = live
            .chain(
                [&p.queries, &p.predict, &p.ingest]
                    .into_iter()
                    .flat_map(|ph| ph.warm.iter().chain(&ph.timed)),
            )
            .chain(p.checked.iter().chain(&p.sample))
            .cloned()
            .collect();
        let histories = p
            .load
            .iter()
            .map(|h| {
                let bits = h.points.iter().fold(0u64, |acc, p| {
                    acc.rotate_left(7) ^ p.x.to_bits() ^ p.y.to_bits()
                });
                (h.id.0, h.start, h.points.len(), bits)
            })
            .collect();
        (ops, histories)
    }

    #[test]
    fn every_op_list_is_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            let first = fingerprint(workload, 7);
            assert!(!first.0.is_empty() && !first.1.is_empty());
            assert_eq!(
                first,
                fingerprint(workload, 7),
                "{}: same seed",
                workload.name()
            );
            let other = fingerprint(workload, 8);
            assert_ne!(first.0, other.0, "{}: ops ignore the seed", workload.name());
            assert_ne!(
                first.1,
                other.1,
                "{}: fleet ignores the seed",
                workload.name()
            );
            // A changed seed changes the inputs, not the amount of work.
            assert_eq!(first.0.len(), other.0.len());
            assert_eq!(
                first.0.iter().map(Op::units).sum::<u64>(),
                other.0.iter().map(Op::units).sum::<u64>()
            );
        }
    }

    #[test]
    fn every_history_ends_at_now_and_the_feed_continues_it() {
        for workload in Workload::ALL {
            let p = workload.plan(3, SMOKE).unwrap();
            assert_eq!(p.load.len() as u64, p.timeline.fleet.objects);
            for h in &p.load {
                assert_eq!(h.start + h.points.len() as Timestamp, p.now + 1);
            }
            // No frame carries one object twice, and an object's
            // reports arrive in timestamp order.
            let mut next: std::collections::HashMap<u64, Timestamp> =
                std::collections::HashMap::new();
            let live = p.live.iter().flat_map(|l| l.feed.ops.iter());
            for op in live.chain(&p.ingest.warm).chain(&p.ingest.timed) {
                let Op::ReportMany(frame) = op else {
                    panic!("a feed of reports")
                };
                let mut seen = std::collections::HashSet::new();
                for (id, t, _) in frame {
                    assert!(seen.insert(id.0));
                    let expected = next.entry(id.0).or_insert(p.now + 1);
                    assert_eq!(t, expected, "{} object {id}", workload.name());
                    *expected += 1;
                }
            }
        }
    }

    #[test]
    fn a_feed_long_enough_to_train_drifters_is_refused() {
        let mut shape = Workload::MixedLive.shape(SMOKE);
        shape.live_seconds = 10_000;
        assert!(build(&shape, 1).is_err());
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
