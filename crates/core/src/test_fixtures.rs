//! Shared test fixtures: the paper's Fig. 3 "Jane" world and a
//! synthetic commuter with a 4-offset day.

use crate::{HpmConfig, HybridPredictor, WeightFunction};
use hpm_geo::{BoundingBox, Point};
use hpm_patterns::{
    DiscoveryParams, FrequentRegion, MiningParams, RegionId, RegionSet, TrajectoryPattern,
};
use hpm_trajectory::{TimeOffset, Timestamp, Trajectory};

pub(crate) const COMMUTER_PERIOD: u32 = 4;

/// 100 "days" of period 4: home → road → work → {pub | gym}.
pub(crate) fn commuter_trajectory() -> Trajectory {
    commuter_days(100)
}

/// The commuter world truncated to `days` days.
pub(crate) fn commuter_days(days: usize) -> Trajectory {
    let mut pts = Vec::with_capacity(days * COMMUTER_PERIOD as usize);
    for day in 0..days {
        let jitter = (day % 3) as f64 * 0.2;
        pts.push(Point::new(jitter, 0.0)); // home
        pts.push(Point::new(50.0 + jitter, 0.0)); // road
        pts.push(Point::new(100.0 + jitter, 0.0)); // work
        if day % 2 == 0 {
            pts.push(Point::new(100.0 + jitter, 50.0)); // pub
        } else {
            pts.push(Point::new(jitter, 50.0)); // gym
        }
    }
    Trajectory::from_points(pts)
}

pub(crate) fn commuter_config() -> HpmConfig {
    HpmConfig {
        k: 1,
        distant_threshold: 3,
        time_relaxation: 1,
        weight_fn: WeightFunction::Linear,
        match_margin: 5.0,
        rmf_retrospect: 2,
    }
}

pub(crate) fn commuter_predictor_with(config: HpmConfig) -> HybridPredictor {
    HybridPredictor::build(
        &commuter_trajectory(),
        &DiscoveryParams {
            period: COMMUTER_PERIOD,
            eps: 2.0,
            min_pts: 3,
        },
        &MiningParams {
            min_support: 2,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 3,
        },
        config,
    )
}

pub(crate) fn commuter_predictor() -> HybridPredictor {
    commuter_predictor_with(commuter_config())
}

/// Fig. 3's five regions, period 3, boxes of half-width 2.
pub(crate) fn fig3_regions() -> RegionSet {
    let mk = |id: u32, offset: TimeOffset, j: u32, cx: f64, cy: f64| {
        let c = Point::new(cx, cy);
        FrequentRegion {
            id: RegionId(id),
            offset,
            local_index: j,
            centroid: c,
            bbox: BoundingBox {
                min: Point::new(cx - 2.0, cy - 2.0),
                max: Point::new(cx + 2.0, cy + 2.0),
            },
            support: 10,
        }
    };
    RegionSet::new(
        vec![
            mk(0, 0, 0, 0.0, 0.0),  // R0^0 home
            mk(1, 1, 0, 10.0, 0.0), // R1^0 city
            mk(2, 1, 1, 0.0, 10.0), // R1^1 shopping centre
            mk(3, 2, 0, 20.0, 0.0), // R2^0 work
            mk(4, 2, 1, 0.0, 20.0), // R2^1 beach
        ],
        3,
    )
}

/// Fig. 3's four patterns P0..P3 with the paper's confidences.
pub(crate) fn fig3_patterns() -> Vec<TrajectoryPattern> {
    let p = |premise: &[u32], consequence: u32, confidence: f64| TrajectoryPattern {
        premise: premise.iter().map(|&i| RegionId(i)).collect(),
        consequence: RegionId(consequence),
        confidence,
        support: 5,
    };
    vec![
        p(&[0], 1, 0.9),
        p(&[0], 2, 0.8),
        p(&[0, 1], 3, 0.5),
        p(&[0, 2], 4, 0.4),
    ]
}

/// Fig. 3 predictor with a non-distant threshold (`d = 60`): every
/// within-period query goes to FQP.
pub(crate) fn fig3_predictor(k: usize) -> HybridPredictor {
    HybridPredictor::from_parts(
        fig3_regions(),
        fig3_patterns(),
        HpmConfig {
            k,
            distant_threshold: 60,
            time_relaxation: 2,
            weight_fn: WeightFunction::Linear,
            match_margin: 0.5,
            rmf_retrospect: 2,
        },
    )
}

/// Fig. 3 predictor with `d = 1` and `tε = 1`: every query is distant
/// and goes to BQP.
pub(crate) fn fig3_predictor_d1(k: usize) -> HybridPredictor {
    HybridPredictor::from_parts(
        fig3_regions(),
        fig3_patterns(),
        HpmConfig {
            k,
            distant_threshold: 1,
            time_relaxation: 1,
            weight_fn: WeightFunction::Linear,
            match_margin: 0.5,
            rmf_retrospect: 2,
        },
    )
}

/// Jane's recent movements through R0^0 then R1^0, current time 1.
pub(crate) fn fig3_query_recent() -> (Vec<Point>, Timestamp) {
    (vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)], 1)
}
