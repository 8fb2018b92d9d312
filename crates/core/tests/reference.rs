//! Differential tests: the query processors (FQP over the TPT, BQP
//! over the pattern table) against straight-from-the-paper reference
//! implementations that scan every pattern with no index and no
//! shared code paths.

use hpm_check::prelude::*;
use hpm_core::{
    consequence_similarity, premise_similarity, HpmConfig, HybridPredictor, PredictionSource,
    PredictiveQuery, RankedAnswer, Uncertainty,
};
use hpm_geo::Point;
use hpm_patterns::{RegionId, RegionSet, TrajectoryPattern};
use hpm_tpt::{Bitmap, KeyTable};

/// The premise key of `ids` (§V.A: the OR of each region's bit).
fn premise_key(table: &KeyTable, ids: impl IntoIterator<Item = RegionId>) -> Bitmap {
    let mut key = Bitmap::default();
    table.premise_key_into(ids, &mut key);
    key
}

/// Reference FQP (Algorithm 2): filter all patterns by "consequence
/// offset == tq offset AND premise shares a region with the recent
/// visits", score by Eq. 2, rank, dedupe by consequence region, top-k.
#[allow(clippy::too_many_arguments)]
fn reference_fqp(
    regions: &RegionSet,
    patterns: &[TrajectoryPattern],
    table: &KeyTable,
    recent_ids: &[RegionId],
    tq_offset: u32,
    config: &HpmConfig,
) -> Option<Vec<RankedAnswer>> {
    if recent_ids.is_empty() {
        return None;
    }
    let rkq = premise_key(table, recent_ids.iter().copied());
    let mut scored: Vec<(u32, f64)> = patterns
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            p.consequence_offset(regions) == tq_offset
                && p.premise.iter().any(|id| recent_ids.contains(id))
        })
        .map(|(i, p)| {
            let rk = premise_key(table, p.premise.iter().copied());
            (
                i as u32,
                premise_similarity(&rk, &rkq, config.weight_fn) * p.confidence,
            )
        })
        .collect();
    if scored.is_empty() {
        return None;
    }
    rank(patterns, &mut scored);
    Some(dedupe_top_k(regions, patterns, scored, config.k))
}

/// Reference BQP (Algorithm 3 + Eq. 5) with the same widening rule.
fn reference_bqp(
    regions: &RegionSet,
    patterns: &[TrajectoryPattern],
    table: &KeyTable,
    recent_ids: &[RegionId],
    tc: i64,
    tq: i64,
    config: &HpmConfig,
) -> Option<Vec<RankedAnswer>> {
    let period = i64::from(regions.period());
    let t_eps = i64::from(config.time_relaxation);
    let rkq = premise_key(table, recent_ids.iter().copied());
    let tq_offset = tq.rem_euclid(period);
    let mut i = 1i64;
    loop {
        let lo = (tq - i * t_eps).max(tc + 1);
        let hi = tq + i * t_eps;
        let offsets: std::collections::HashSet<i64> = (lo..=hi)
            .take(period as usize)
            .map(|t| t.rem_euclid(period))
            .collect();
        let mut scored: Vec<(u32, f64)> = patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| offsets.contains(&i64::from(p.consequence_offset(regions))))
            .map(|(idx, p)| {
                let rk = premise_key(table, p.premise.iter().copied());
                let sr = premise_similarity(&rk, &rkq, config.weight_fn);
                let t_off = i64::from(p.consequence_offset(regions));
                let delta = (t_off - tq_offset).rem_euclid(period);
                let dist = delta.min(period - delta);
                let sc = consequence_similarity(0, dist, config.time_relaxation);
                let pen = (f64::from(config.distant_threshold) / (tq - tc) as f64).min(1.0);
                (idx as u32, (sr * pen + sc) * p.confidence)
            })
            .collect();
        if !scored.is_empty() {
            rank(patterns, &mut scored);
            return Some(dedupe_top_k(regions, patterns, scored, config.k));
        }
        i += 1;
        if tq - i * t_eps <= tc || (hi - lo) >= period {
            return None;
        }
    }
}

/// Sorts by score, descending; equal scores by the rule — premise
/// length, premise ids, consequence id — then by input position.
fn rank(patterns: &[TrajectoryPattern], scored: &mut [(u32, f64)]) {
    let rule = |i: u32| {
        let p = &patterns[i as usize];
        (p.premise.len(), &p.premise, p.consequence)
    };
    scored.sort_by(|a, b| {
        (b.1.partial_cmp(&a.1).unwrap())
            .then_with(|| rule(a.0).cmp(&rule(b.0)))
            .then(a.0.cmp(&b.0))
    });
}

fn dedupe_top_k(
    regions: &RegionSet,
    patterns: &[TrajectoryPattern],
    scored: Vec<(u32, f64)>,
    k: usize,
) -> Vec<RankedAnswer> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for (pattern, score) in scored {
        let consequence = patterns[pattern as usize].consequence;
        if seen.contains(&consequence) {
            continue;
        }
        seen.push(consequence);
        out.push(RankedAnswer {
            location: regions.get(consequence).centroid,
            score,
            pattern: Some(pattern),
            uncertainty: Uncertainty {
                region: regions.get(consequence).bbox,
                mass: 0.0,
            },
        });
        if out.len() == k {
            break;
        }
    }
    // Independent restatement of the mass rule: each answer's share
    // of the emitted scores, uniform when all scores are zero.
    let total: f64 = out.iter().map(|a| a.score).sum();
    let n = out.len();
    for a in &mut out {
        a.uncertainty.mass = if total > 0.0 {
            a.score / total
        } else {
            1.0 / n as f64
        };
    }
    out
}

/// Random worlds: up to 3 regions per offset, random valid patterns.
fn arb_world() -> Gen<(RegionSet, Vec<TrajectoryPattern>)> {
    tuple((int(3u32..10), int(0usize..60), int(0u64..10_000))).map(|(period, n_patterns, seed)| {
        use hpm_geo::BoundingBox;
        use hpm_patterns::FrequentRegion;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut regions = Vec::new();
        for t in 0..period {
            let locals = 1 + (next() % 3) as u32;
            for j in 0..locals {
                let c = Point::new(t as f64 * 100.0, f64::from(j) * 37.0);
                regions.push(FrequentRegion {
                    id: RegionId(regions.len() as u32),
                    offset: t,
                    local_index: j,
                    centroid: c,
                    bbox: BoundingBox {
                        min: c - Point::new(4.0, 4.0),
                        max: c + Point::new(4.0, 4.0),
                    },
                    support: 3 + (next() % 20) as u32,
                });
            }
        }
        let set = RegionSet::new(regions, period);
        let patterns: Vec<TrajectoryPattern> = (0..n_patterns)
            .map(|_| {
                // Premise at offsets a (< b) with consequence at b.
                let a = (next() % u64::from(period - 1)) as u32;
                let b = a + 1 + (next() % u64::from(period - a - 1).max(1)) as u32;
                let pick = |t: u32, r: u64| {
                    let at = set.at_offset(t);
                    at[(r % at.len() as u64) as usize].id
                };
                let two = a + 1 < b && next() % 2 == 0;
                let mut premise = vec![pick(a, next())];
                if two {
                    let mid = a + 1 + (next() % u64::from(b - a - 1)) as u32;
                    if mid > a && mid < b {
                        premise.push(pick(mid, next()));
                    }
                }
                TrajectoryPattern {
                    premise,
                    consequence: pick(b, next()),
                    confidence: 0.05 + (next() % 95) as f64 / 100.0,
                    support: 1 + (next() % 20) as u32,
                }
            })
            .collect();
        (set, patterns)
    })
}

/// Whether the predictor's answers `a` are the reference's `b`, each
/// naming the same rule: `a`'s pattern ids are the predictor's rows,
/// `b`'s positions in `patterns`.
fn answers_equal(
    predictor: &HybridPredictor,
    a: &[RankedAnswer],
    patterns: &[TrajectoryPattern],
    b: &[RankedAnswer],
) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.pattern.map(|p| predictor.patterns().get(p as usize))
                == y.pattern.map(|p| patterns[p as usize].clone())
                && (x.score - y.score).abs() < 1e-12
                && x.location == y.location
                && x.uncertainty.region == y.uncertainty.region
                && (x.uncertainty.mass - y.uncertainty.mass).abs() < 1e-12
        })
}

props! {
    #[cases(128)]
    /// The production predictor and the index-free reference agree on
    /// every query, for both processing paths and the fallback switch.
    fn predictor_matches_reference(
        world in arb_world(),
        k in int(1usize..4),
        distant in int(1u32..8),
        spot in int(0u32..32),
        length in int(1u64..12),
        t_eps in int(1u32..4),
    ) {
        let (set, patterns) = world;
        let period = set.period();
        let config = HpmConfig {
            k,
            distant_threshold: distant,
            time_relaxation: t_eps,
            match_margin: 1.0,
            rmf_retrospect: 2,
            ..HpmConfig::default()
        };
        let predictor =
            HybridPredictor::from_parts(set.clone(), patterns.clone(), config);
        let table = KeyTable::build(&set, patterns.iter().map(|p| p.consequence));

        // The query stands at a random region's centre.
        let all_ids: Vec<RegionId> = set.all().iter().map(|r| r.id).collect();
        let at = all_ids[spot as usize % all_ids.len()];
        let offset = set.get(at).offset;
        let p0 = set.get(at).centroid;
        let recent = [p0 - Point::new(1.0, 0.0), p0];
        let current_time = u64::from(10 * period + offset);
        let query = PredictiveQuery {
            recent: &recent,
            current_time,
            query_time: current_time + length,
        };
        let got = predictor.predict(&query);

        let recent_ids = predictor.recent_regions(&recent, current_time);
        let expected = if (length as u32) < distant {
            reference_fqp(
                &set, &patterns, &table, &recent_ids,
                ((current_time + length) % u64::from(period)) as u32,
                &config,
            )
        } else {
            reference_bqp(
                &set, &patterns, &table, &recent_ids,
                current_time as i64,
                (current_time + length) as i64,
                &config,
            )
        };
        match expected {
            Some(answers) => {
                require_ne!(got.source, PredictionSource::MotionFunction);
                require!(
                    answers_equal(&predictor, &got.answers, &patterns, &answers),
                    "got {:?}\nexpected {:?}",
                    got.answers,
                    answers
                );
            }
            None => {
                require_eq!(got.source, PredictionSource::MotionFunction);
            }
        }
    }
}
