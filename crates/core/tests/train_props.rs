//! The incremental-training contract: a predictor maintained through
//! `TrainerState` + `apply_update` answers exactly like
//! `HybridPredictor::build` over the full history — after **every**
//! retrain point, drift fallbacks included.

use hpm_check::prelude::*;
use hpm_core::{HpmConfig, HybridPredictor, PredictiveQuery, TrainerState, WeightFunction};
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
        tpt_fanout: 8,
    }
}

/// One incremental retrain pass with the drift fallback the object
/// store takes: on structure drift, rebuild in full and re-seed.
fn retrain(
    trainer: &mut TrainerState,
    predictor: &HybridPredictor,
    traj: &Trajectory,
    disc: &DiscoveryParams,
    mp: &MiningParams,
) -> HybridPredictor {
    let delta = trainer.stage_decompose(traj);
    match trainer.stage_cluster(&delta) {
        Ok(visits) => {
            let patterns = trainer.stage_mine(&visits);
            predictor.apply_update(trainer.regions(), patterns).0
        }
        Err(_) => {
            *trainer = TrainerState::seed(traj, disc, mp);
            HybridPredictor::build(traj, disc, mp, *predictor.config())
        }
    }
}

props! {
    // Report streams are commuter days with `wild`-probability outlier
    // days (new hotspots -> promotion/new-cluster drift). After every
    // daily retrain the incrementally maintained predictor must match
    // a batch build over the full prefix: same regions, same patterns
    // (ids included), same ranked answers on sampled near (FQP) and
    // distant (BQP) queries, and the same motion fallbacks.
    #[cases(96)]
    fn incremental_retrain_equals_full_rebuild(
        period in int(3u32..6),
        days in int(6usize..16),
        warm in int(2usize..5),
        branches in int(1u64..3),
        wild in choice(vec![0u64, 150, 400]),
        seed in int(0u64..100_000),
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // The full report stream, day by day.
        let mut pts = Vec::with_capacity(days * period as usize);
        for _ in 0..days {
            if next() % 1000 < wild {
                // A wild day: the whole day at a remote hotspot.
                let bx = 500.0 + (next() % 3) as f64 * 150.0;
                let by = 500.0 + (next() % 3) as f64 * 150.0;
                for t in 0..period {
                    pts.push(Point::new(bx + t as f64 * 0.2, by));
                }
            } else {
                let branch = (next() % branches) as f64;
                for t in 0..period {
                    let jitter = (next() % 100) as f64 / 100.0;
                    pts.push(Point::new(t as f64 * 50.0 + jitter, branch * 40.0 + jitter));
                }
            }
        }
        let prefix =
            |d: usize| Trajectory::from_points(pts[..d * period as usize].to_vec());

        let disc = DiscoveryParams { period, eps: 3.0, min_pts: 3 };
        let mp = MiningParams {
            min_support: 2,
            min_confidence: 0.2,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 3,
        };
        let warm_days = warm.min(days - 1);
        let warm_traj = prefix(warm_days);
        let mut trainer = TrainerState::seed(&warm_traj, &disc, &mp);
        let mut predictor = HybridPredictor::build(&warm_traj, &disc, &mp, config());

        for d in warm_days + 1..=days {
            let traj = prefix(d);
            predictor = retrain(&mut trainer, &predictor, &traj, &disc, &mp);
            let batch = HybridPredictor::build(&traj, &disc, &mp, config());
            require_eq!(predictor.regions().all(), batch.regions().all());
            require_eq!(predictor.patterns(), batch.patterns());
            // One index per predictor, a pure function of its pattern
            // list: an incrementally maintained image equals the
            // bulk-loaded one, not merely its answers.
            require_eq!(predictor.packed_tpt(), batch.packed_tpt());

            let p = traj.points();
            let now = (p.len() - 1) as Timestamp;
            let recents: [&[Point]; 3] =
                [&p[p.len() - 1..], &p[p.len() - 2..], &[Point::new(900.0, 900.0)]];
            for recent in recents {
                for dt in [1, 2, period as Timestamp] {
                    let q = PredictiveQuery {
                        recent,
                        current_time: now,
                        query_time: now + dt,
                    };
                    require_eq!(predictor.predict(&q), batch.predict(&q));
                }
            }
        }
        require_eq!(trainer.consumed(), days * period as usize);
    }
}
