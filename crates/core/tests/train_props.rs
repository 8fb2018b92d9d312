//! The training contract: a predictor kept by `TrainerState::retrain`
//! answers exactly like `HybridPredictor::build` over the same history
//! — after **every** pass, whatever the history grew by since the last
//! one: part of a period, several periods at once, or a drift day that
//! forces a re-seed.

use hpm_check::prelude::*;
use hpm_core::{
    HpmConfig, HybridPredictor, PredictiveQuery, TrainPass, TrainerState, WeightFunction,
};
use hpm_geo::Point;
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_trajectory::{Timestamp, Trajectory};

fn config() -> HpmConfig {
    HpmConfig {
        k: 2,
        distant_threshold: 2,
        time_relaxation: 1,
        weight_fn: WeightFunction::Linear,
        match_margin: 2.0,
        rmf_retrospect: 2,
    }
}

fn discovery(period: u32) -> DiscoveryParams {
    DiscoveryParams {
        period,
        eps: 3.0,
        min_pts: 3,
    }
}

fn mining() -> MiningParams {
    MiningParams {
        min_support: 2,
        min_confidence: 0.2,
        max_premise_len: 2,
        max_premise_gap: 2,
        max_span: 3,
    }
}

/// One commuter day on `branch`, jittered by `jitter(t)`.
fn commute(period: u32, branch: f64, mut jitter: impl FnMut() -> f64) -> Vec<Point> {
    (0..period)
        .map(|t| {
            let j = jitter();
            Point::new(t as f64 * 50.0 + j, branch * 40.0 + j)
        })
        .collect()
}

/// One day spent at a remote hotspot: three of them at one spot make
/// new dense regions, which a fold reports as drift.
fn wild_day(period: u32, x: f64, y: f64) -> Vec<Point> {
    (0..period)
        .map(|t| Point::new(x + t as f64 * 0.2, y))
        .collect()
}

/// One pass of the verb over `traj`, checked against a batch build:
/// same regions, same patterns (ids included), the same index image —
/// a pure function of the pattern list — and the same ranked answers on
/// near (FQP) and distant (BQP) queries and motion fallbacks.
fn step(
    slot: &mut Option<TrainerState>,
    live: Option<&HybridPredictor>,
    traj: &Trajectory,
    period: u32,
) -> Result<(HybridPredictor, TrainPass), CaseError> {
    let (disc, mp) = (discovery(period), mining());
    let (got, pass) = TrainerState::retrain(slot, live, traj, &disc, &mp, config());
    let batch = HybridPredictor::build(traj, &disc, &mp, config());
    require_eq!(got.regions().all(), batch.regions().all(), "{pass:?}");
    require_eq!(got.patterns(), batch.patterns(), "{pass:?}");
    require_eq!(*got.packed_tpt(), *batch.packed_tpt(), "{pass:?}");
    let p = traj.points();
    let now = traj.end() - 1;
    let far = [Point::new(900.0, 900.0)];
    for recent in [&p[p.len() - 1..], &p[p.len().saturating_sub(2)..], &far] {
        for dt in [1, 2, period as Timestamp] {
            let q = PredictiveQuery {
                recent,
                current_time: now,
                query_time: now + dt,
            };
            require_eq!(got.predict(&q), batch.predict(&q), "{pass:?}, query {q:?}");
        }
    }
    require_eq!(slot.as_ref().map(TrainerState::consumed), Some(traj.len()));
    Ok((got, pass))
}

props! {
    // Report streams are commuter days on one or two branches with
    // `wild`-probability outlier days (new hotspots -> promotion /
    // new-cluster drift), starting at any phase of the period. The
    // history grows by the drawn `steps` in turn — 1..=24 samples, so a
    // step is part of a period as often as several whole ones — and
    // every pass must match a batch build over the history it has seen.
    #[cases(96)]
    fn a_pass_over_any_delta_equals_a_batch_build(
        period in int(3u32..6),
        start in int(0u64..6),
        days in int(6usize..16),
        wild in choice(vec![0u64, 150, 400]),
        steps in vec(int(1usize..25), 1..6),
        seed in int(0u64..100_000),
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let branches = 1 + next() % 2;
        let mut pts = Vec::with_capacity(days * period as usize);
        for _ in 0..days {
            if next() % 1000 < wild {
                let x = 500.0 + (next() % 3) as f64 * 150.0;
                let y = 500.0 + (next() % 3) as f64 * 150.0;
                pts.extend(wild_day(period, x, y));
            } else {
                let branch = (next() % branches) as f64;
                pts.extend(commute(period, branch, || (next() % 100) as f64 / 100.0));
            }
        }

        let (mut slot, mut live) = (None, None);
        let mut len = 0;
        for &grow in steps.iter().cycle() {
            len = (len + grow).min(pts.len());
            let traj = Trajectory::new(start, pts[..len].to_vec());
            live = Some(step(&mut slot, live.as_ref(), &traj, period)?.0);
            if len == pts.len() {
                break;
            }
        }
    }
}

/// A fixed schedule that takes every kind of delta the property draws:
/// a part of a period, several periods in one pass, a drift day, and a
/// seed that ends a sub-trajectory — so a draw that misses one kind
/// cannot hide a broken fold.
#[test]
fn the_schedule_folds_partial_and_multi_period_deltas_and_reseeds_on_drift() {
    let period = 4;
    let mut day = 0u64;
    let mut commuter = |days: usize| -> Vec<Point> {
        (0..days)
            .flat_map(|_| {
                day += 1;
                commute(period, 0.0, || (day % 3) as f64 * 0.3)
            })
            .collect()
    };
    let mut pts = commuter(8);
    let mut ends = vec![(6 * period as usize, TrainPass::Seeded)];
    ends.push((ends[0].0 + 1, TrainPass::Folded)); // one sample
    ends.push((7 * period as usize + 2, TrainPass::Folded)); // the rest of a period and more
    pts.extend(commuter(4));
    ends.push((pts.len(), TrainPass::Folded)); // several periods at once
    for _ in 0..3 {
        pts.extend(wild_day(period, 700.0, 700.0));
    }
    ends.push((pts.len(), TrainPass::Drifted)); // three days at a new hotspot
    pts.extend(commuter(2));
    ends.push((pts.len(), TrainPass::Folded)); // folding again after the re-seed
                                               // A seed that stops on a sub-trajectory boundary, then a fold
                                               // whose first sample opens the next one: the open visit sequence
                                               // the seed left must be reset, not extended.
    pts.extend(commuter(3));
    let boundary = pts.len() - 2;
    assert_eq!((2 + boundary) % period as usize, 0);
    ends.push((boundary, TrainPass::Seeded));
    ends.push((pts.len(), TrainPass::Folded));

    let (mut slot, mut live) = (None, None);
    for (end, want) in ends {
        if want == TrainPass::Seeded {
            live = None; // no live predictor: the verb seeds
        }
        let traj = Trajectory::new(2, pts[..end].to_vec());
        let (next, pass) = step(&mut slot, live.as_ref(), &traj, period)
            .unwrap_or_else(|e| panic!("pass to {end}: {e:?}"));
        assert_eq!(pass, want, "pass to {end}");
        live = Some(next);
    }
}
