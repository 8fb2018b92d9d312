//! Backward Query Processing (Algorithm 3): distant-time queries.
//!
//! Recent movements matter little far into the future, so BQP drops
//! the premise constraint (the search key carries an all-ones premise,
//! which intersects every indexed pattern's premise) and instead asks
//! "where does the object usually go *around* `tq`": any pattern whose
//! consequence time offset falls in `[tq − tε, tq + tε]` qualifies.
//! When the interval is empty of candidates it widens by `tε` per round
//! until a pattern is found or the interval reaches back to the current
//! time, at which point the motion function takes over.
//!
//! Candidates are ranked by Eq. 5,
//! `S_p = (S_r · d/(tq − tc) + S_c) · c`: the premise similarity is
//! penalised by how far the query looks ahead, while the consequence
//! similarity `S_c` (Eq. 3) rewards consequences temporally close to
//! `tq`.

use crate::predictor::{rank_answers_into, HybridPredictor};
use crate::scratch::SearchScratch;
use crate::{consequence_similarity, premise_similarity_ids, Prediction, PredictiveQuery};
use hpm_patterns::RegionId;
use hpm_tpt::Bitmap;
use hpm_trajectory::TimeOffset;

/// Retrieves and ranks BQP candidates into `out.answers`; `false`
/// sends the caller to the motion function. Allocation-free once
/// `scratch` is warm.
pub(crate) fn run(
    predictor: &HybridPredictor,
    recent_ids: &[RegionId],
    query: &PredictiveQuery<'_>,
    scratch: &mut SearchScratch,
    out: &mut Prediction,
) -> bool {
    let _span = hpm_obs::span!(crate::metrics::BQP_SPAN);
    let period = predictor.period as i64;
    let t_eps = predictor.config.time_relaxation as i64;
    let tc = query.current_time as i64;
    let tq = query.query_time as i64;
    let SearchScratch {
        cursor,
        qkey,
        rkq,
        scored,
        seen,
    } = scratch;
    predictor
        .key_table
        .premise_key_into(recent_ids.iter().copied(), rkq);

    // The reusable interval key: the all-ones premise (BQP drops the
    // premise constraint) is built once, and each widening round only
    // sets the consequence bits of the *newly covered* interval flanks
    // instead of rebuilding the whole key from scratch.
    qkey.consequence
        .reset(predictor.key_table.consequence_count());
    qkey.premise.reset(predictor.key_table.region_count());
    qkey.premise.set_all();

    let mut i = 1i64;
    let mut covered: Option<(i64, i64)> = None;
    loop {
        let lo = (tq - i * t_eps).max(tc + 1);
        let hi = tq + i * t_eps;
        match covered {
            None => extend(predictor, lo, hi, &mut qkey.consequence),
            Some((plo, phi)) => {
                // [lo, hi] ⊇ [plo, phi]: lo only moves down, hi only up.
                if lo < plo {
                    extend(predictor, lo, plo - 1, &mut qkey.consequence);
                }
                if hi > phi {
                    extend(predictor, phi + 1, hi, &mut qkey.consequence);
                }
            }
        }
        covered = Some((lo, hi));
        if !qkey.consequence.is_zero() {
            let matches = cursor.search_packed(&predictor.packed, qkey);
            if !matches.is_empty() {
                hpm_obs::histogram!(crate::metrics::BQP_CANDIDATES).record(matches.len() as u64);
                hpm_obs::counter!(crate::metrics::BQP_WIDENINGS).add((i - 1) as u64);
                scored.clear();
                score_into(predictor, matches, rkq, tc, tq, scored);
                rank_answers_into(
                    predictor,
                    scored,
                    predictor.config.k,
                    seen,
                    &mut out.answers,
                );
                return true;
            }
        }
        i += 1;
        // Algorithm 3 line 8: stop once the interval reaches back to
        // the current time (also stop when it already spans the whole
        // period and still found nothing).
        if tq - i * t_eps <= tc || (hi - lo) >= period {
            return false;
        }
    }
}

/// Sets the consequence bits for absolute times in `[lo, hi]` (mapped
/// onto period offsets) into the reusable interval key.
fn extend(predictor: &HybridPredictor, lo: i64, hi: i64, consequence: &mut Bitmap) {
    let period = predictor.period as i64;
    let hi = hi.min(lo + period - 1); // a full period covers every offset
    predictor.key_table.extend_consequence_key(
        (lo..=hi).map(|t| (t.rem_euclid(period)) as TimeOffset),
        consequence,
    );
}

/// Eq. 5 scores for each candidate.
fn score_into(
    predictor: &HybridPredictor,
    matches: &[u32],
    rkq: &Bitmap,
    tc: i64,
    tq: i64,
    out: &mut Vec<(u32, f64)>,
) {
    let period = predictor.period as i64;
    let t_eps = predictor.config.time_relaxation;
    let d = predictor.config.distant_threshold as f64;
    let tq_offset = tq.rem_euclid(period);
    out.extend(matches.iter().map(|&id| {
        let premise = predictor.patterns.premise(id as usize);
        let weights = predictor.weight_table.weights(premise.len());
        let sr = premise_similarity_ids(premise, rkq, weights);
        // Temporal distance of the consequence offset to the query
        // offset, on the period circle.
        let consequence = predictor.patterns.consequence(id as usize);
        let t_off = predictor.regions.get(consequence).offset as i64;
        let delta = (t_off - tq_offset).rem_euclid(period);
        let dist = delta.min(period - delta);
        let sc = consequence_similarity(0, dist, t_eps);
        // Eq. 5: premise similarity penalised by d / (tq − tc) ≤ 1.
        let penalty = (d / (tq - tc) as f64).min(1.0);
        (
            id,
            (sr * penalty + sc) * predictor.patterns.confidence(id as usize),
        )
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{fig3_predictor_d1, fig3_query_recent};
    use crate::{HpmConfig, Prediction, PredictionSource, WeightFunction};
    use hpm_geo::Point;

    fn ask(p: &crate::HybridPredictor, tc: u64, tq: u64) -> Prediction {
        let (recent, _) = fig3_query_recent();
        p.predict(&PredictiveQuery {
            recent: &recent,
            current_time: tc,
            query_time: tq,
        })
    }

    #[test]
    fn eq5_ranking_by_hand() {
        // d = 1, tε = 1, tc = 1, tq = 5 (offset 2), premise rkq = 00011.
        // Penalty d/(tq−tc) = 1/4.
        //   P0 (R0 -> R1^0, c=0.9): S_r=1, dist(1,2)=1, S_c=1/2
        //       -> (0.25 + 0.5) × 0.9 = 0.675
        //   P1 (R0 -> R1^1, c=0.8): same shape -> 0.75 × 0.8 = 0.600
        //   P2 (R0∧R1^0 -> R2^0, c=0.5): S_r=1, dist 0, S_c=1
        //       -> (0.25 + 1) × 0.5 = 0.625
        //   P3 (R0∧R1^1 -> R2^1, c=0.4): S_r=1/3
        //       -> (1/12 + 1) × 0.4 = 0.4333…
        let p = fig3_predictor_d1(4);
        let pred = ask(&p, 1, 5);
        assert_eq!(pred.source, PredictionSource::BackwardPatterns);
        let order: Vec<u32> = pred.answers.iter().map(|a| a.pattern.unwrap()).collect();
        assert_eq!(order, vec![0, 2, 1, 3]);
        let scores: Vec<f64> = pred.answers.iter().map(|a| a.score).collect();
        assert!((scores[0] - 0.675).abs() < 1e-9, "{scores:?}");
        assert!((scores[1] - 0.625).abs() < 1e-9);
        assert!((scores[2] - 0.600).abs() < 1e-9);
        assert!((scores[3] - (1.0 / 12.0 + 1.0) * 0.4).abs() < 1e-9);
    }

    #[test]
    fn wrapped_offsets_still_match() {
        // Query offset 0 has no consequences; tε = 1 already spans
        // offsets {2, 0, 1} around it on the period circle, so the
        // neighbouring consequences qualify at i = 1.
        let p = fig3_predictor_d1(1);
        let pred = ask(&p, 1, 6); // offset 0
        assert_eq!(pred.source, PredictionSource::BackwardPatterns);
    }

    #[test]
    fn interval_widens_until_pattern_found() {
        // One pattern with consequence at offset 5 in a period of 10;
        // query offset 9 with tε = 1 needs i = 4 widenings to reach it.
        use hpm_geo::BoundingBox;
        use hpm_patterns::{FrequentRegion, RegionSet, TrajectoryPattern};
        let mk = |id: u32, offset: u32, cx: f64| FrequentRegion {
            id: RegionId(id),
            offset,
            local_index: 0,
            centroid: Point::new(cx, cx),
            bbox: BoundingBox {
                min: Point::new(cx - 1.0, cx - 1.0),
                max: Point::new(cx + 1.0, cx + 1.0),
            },
            support: 5,
        };
        let regions = RegionSet::new(vec![mk(0, 0, 0.0), mk(1, 5, 50.0)], 10);
        let patterns = vec![TrajectoryPattern {
            premise: vec![RegionId(0)],
            consequence: RegionId(1),
            confidence: 0.8,
            support: 5,
        }];
        let p = crate::HybridPredictor::from_parts(
            regions,
            patterns,
            HpmConfig {
                k: 1,
                distant_threshold: 1,
                time_relaxation: 1,
                weight_fn: WeightFunction::Linear,
                match_margin: 0.5,
                rmf_retrospect: 2,
                tpt_fanout: 8,
            },
        );
        let recent = [Point::new(0.0, 0.0)];
        let pred = p.predict(&PredictiveQuery {
            recent: &recent,
            current_time: 0,
            query_time: 9,
        });
        assert_eq!(pred.source, PredictionSource::BackwardPatterns);
        assert_eq!(pred.best(), Point::new(50.0, 50.0));
        // The widened candidate sits 4 offsets away: S_c clamps to 0,
        // leaving only the penalised premise term of Eq. 5.
        let expect = (1.0 * (1.0 / 9.0)) * 0.8;
        assert!((pred.answers[0].score - expect).abs() < 1e-9);
    }

    #[test]
    fn no_patterns_at_all_falls_back() {
        use crate::test_fixtures::commuter_config;
        use hpm_patterns::RegionSet;
        let mut cfg = commuter_config();
        cfg.distant_threshold = 1;
        let p = crate::HybridPredictor::from_parts(RegionSet::new(Vec::new(), 3), Vec::new(), cfg);
        let recent = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let pred = p.predict(&PredictiveQuery {
            recent: &recent,
            current_time: 1,
            query_time: 5,
        });
        assert_eq!(pred.source, PredictionSource::MotionFunction);
    }
}
