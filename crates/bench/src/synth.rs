//! Synthetic inputs: pattern sets for the Fig. 11 index experiments,
//! and the forked commuters the trained-state benches train.
//!
//! Fig. 11 studies the TPT in isolation — storage at 1 k…100 k patterns
//! for 80/400/800 frequent regions, and search cost against a
//! brute-force scan — so the pattern sets are generated directly rather
//! than mined.

use hpm_datagen::{Archetype, GeneratorConfig, PeriodicGenerator};
use hpm_geo::{BoundingBox, Point};
use hpm_patterns::{
    DiscoveryParams, FrequentRegion, MiningParams, RegionId, RegionSet, TrajectoryPattern,
};
use hpm_rand::{Rng, SmallRng};
use hpm_tpt::{KeyTable, PatternKey};
use hpm_trajectory::{TimeOffset, Trajectory};

/// Period of a [`forked_commuter`] (sysbench's `predict_point` shape).
pub const FORKED_PERIOD: u32 = 32;

/// Periods a [`forked_commuter`]'s history covers.
pub const FORKED_PERIODS: usize = 12;

/// What a [`forked_commuter`] trains under: Eps 2 / MinPts 3,
/// min_support 3, premises of up to 2 regions within a span of 8.
pub fn forked_params() -> (DiscoveryParams, MiningParams) {
    let discovery = DiscoveryParams {
        period: FORKED_PERIOD,
        eps: 2.0,
        min_pts: 3,
    };
    let mining = MiningParams {
        min_support: 3,
        min_confidence: 0.3,
        max_premise_len: 2,
        max_premise_gap: 2,
        max_span: 8,
    };
    (discovery, mining)
}

/// Commuter `id`'s history: [`FORKED_PERIODS`] periods of two routes
/// that share a first leg and fork, with per-object geometry and seed.
pub fn forked_commuter(id: u64) -> Trajectory {
    let reach = 24.0 + (id % 7) as f64;
    let home = Point::new(4.0, 4.0 + (id % 5) as f64);
    let hub = Point::new(home.x + reach * 0.5, home.y);
    let work = Point::new(hub.x + reach * 0.4, hub.y + reach * 0.5);
    let mall = Point::new(hub.x + reach * 0.3, (hub.y - reach * 0.2).max(1.0));
    let beach = Point::new(mall.x + reach * 0.15, mall.y + reach * 0.3);
    PeriodicGenerator::new(
        GeneratorConfig {
            period: FORKED_PERIOD,
            num_subs: FORKED_PERIODS,
            similarity_prob: 0.9,
            point_noise: 0.25,
            route_noise: 0.4,
            extent: 40.0,
            seed: 0x7EA1 ^ id,
        },
        vec![
            Archetype::new(vec![home, hub, work], 0.65),
            Archetype::new(vec![home, hub, mall, beach], 0.35),
        ],
    )
    .generate()
}

/// Builds `num_regions` frequent regions spread evenly over a period of
/// 300, plus `num_patterns` random (but Definition-1-valid) trajectory
/// patterns over them. Deterministic in `seed`.
///
/// # Panics
/// Panics when `num_regions < 2`.
pub fn synthetic_patterns(
    num_patterns: usize,
    num_regions: usize,
    seed: u64,
) -> (RegionSet, Vec<TrajectoryPattern>) {
    assert!(num_regions >= 2, "need at least two regions");
    let period: u32 = 300;
    let per_offset = num_regions.div_ceil(period as usize).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut regions = Vec::with_capacity(num_regions);
    for id in 0..num_regions {
        let offset = (id / per_offset) as TimeOffset;
        let local = (id % per_offset) as u32;
        let c = Point::new(rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0));
        regions.push(FrequentRegion {
            id: RegionId(id as u32),
            offset: offset.min(period - 1),
            local_index: local,
            centroid: c,
            bbox: BoundingBox {
                min: c - Point::new(30.0, 30.0),
                max: c + Point::new(30.0, 30.0),
            },
            support: rng.gen_range(4..40),
        });
    }
    let set = RegionSet::new(regions, period);

    let mut patterns = Vec::with_capacity(num_patterns);
    while patterns.len() < num_patterns {
        // Premise of 1–3 regions with strictly increasing offsets,
        // consequence after the last premise offset.
        let premise_len = rng.gen_range(1..=3usize);
        let start = rng.gen_range(0..num_regions.saturating_sub(premise_len * per_offset + 1));
        let mut premise = Vec::with_capacity(premise_len);
        let mut last_offset = None;
        let mut id = start;
        while premise.len() < premise_len && id < num_regions {
            let r = set.get(RegionId(id as u32));
            if last_offset.is_none_or(|o| r.offset > o) {
                premise.push(r.id);
                last_offset = Some(r.offset);
            }
            id += rng.gen_range(1..=per_offset.max(1) * 2);
        }
        if premise.is_empty() {
            continue;
        }
        let last = last_offset.expect("non-empty premise");
        // A consequence strictly after the premise.
        let candidates_from = ((last + 1) as usize * per_offset).min(num_regions);
        if candidates_from >= num_regions {
            continue;
        }
        let consequence = RegionId(rng.gen_range(candidates_from..num_regions) as u32);
        if set.get(consequence).offset <= last {
            continue;
        }
        patterns.push(TrajectoryPattern {
            premise,
            consequence,
            confidence: rng.gen_range(0.3..=1.0),
            support: rng.gen_range(4..40),
        });
    }
    (set, patterns)
}

/// [`synthetic_patterns`] as index input: the key table that encodes
/// the set, the region count, and the patterns' keys in key order, as
/// a predictor stores its rows (the position is the row id) — what a
/// `LeafEntries` for `PackedTpt::bulk_load` collects and
/// `hpm_tpt::scan` reads.
pub fn synthetic_index(
    num_patterns: usize,
    num_regions: usize,
    seed: u64,
) -> (KeyTable, usize, Vec<PatternKey>) {
    let (set, patterns) = synthetic_patterns(num_patterns, num_regions, seed);
    let table = KeyTable::build(&set, patterns.iter().map(|p| p.consequence));
    let rows = hpm_patterns::PatternTable::from(patterns).into_key_order(&set);
    let keys = rows
        .iter()
        .map(|p| table.encode_pattern(&p, &set))
        .collect();
    (table, set.len(), keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_are_valid() {
        let (set, patterns) = synthetic_patterns(500, 80, 1);
        assert_eq!(patterns.len(), 500);
        assert_eq!(set.len(), 80);
        for p in &patterns {
            p.validate(&set).unwrap();
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (_, a) = synthetic_patterns(100, 400, 9);
        let (_, b) = synthetic_patterns(100, 400, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn region_counts_respected() {
        for n in [80usize, 400, 800] {
            let (set, _) = synthetic_patterns(10, n, 3);
            assert_eq!(set.len(), n);
        }
    }
}
