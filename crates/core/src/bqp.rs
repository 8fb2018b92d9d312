//! Backward Query Processing (Algorithm 3): distant-time queries.
//!
//! Recent movements matter little far into the future, so BQP drops
//! the premise constraint and instead asks "where does the object
//! usually go *around* `tq`": any pattern whose consequence time
//! offset falls in `[tq − tε, tq + tε]` qualifies. When the interval
//! is empty of candidates it widens by `tε` per round until a pattern
//! is found or the interval reaches back to the current time, at which
//! point the motion function takes over.
//!
//! With no premise constraint there is nothing for the TPT's premise
//! signatures to prune, so each round reads the pattern table instead:
//! the rows are in key order, consequence offset first, so the round's
//! arc of offsets is one run of rows, or two when it wraps past offset
//! 0, each found by binary search on the consequence column. Every
//! premise is non-empty, so the candidates are exactly the patterns a
//! TPT search with an all-ones premise key would return.
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
use std::ops::Range;

/// Retrieves and ranks BQP candidates into `out.answers`; `false`
/// sends the caller to the motion function. Allocation-free once
/// `scratch` is warm.
///
/// Times are counted from `tc`, so no absolute timestamp is ever
/// shifted: relative time `r` falls on offset `(tc mod T + r) mod T`,
/// and `r` stays below `2·(tq − tc) + tε`, with `tq − tc` a `u32`.
pub(crate) fn run(
    predictor: &HybridPredictor,
    recent_ids: &[RegionId],
    query: &PredictiveQuery<'_>,
    scratch: &mut SearchScratch,
    out: &mut Prediction,
) -> bool {
    let _span = hpm_obs::span!(crate::metrics::BQP_SPAN);
    let period = u64::from(predictor.period);
    let t_eps = u64::from(predictor.config.time_relaxation);
    let length = u64::from(query.prediction_length());
    let tc_offset = query.current_time % period;
    let tq_offset = ((tc_offset + length) % period) as TimeOffset;
    let SearchScratch {
        qkey, scored, seen, ..
    } = scratch;
    let rkq = &mut qkey.premise;
    predictor
        .key_table
        .premise_key_into(recent_ids.iter().copied(), rkq);

    let mut i = 1;
    loop {
        // The round's interval `[tq − i·tε, tq + i·tε]`, cut at `tc + 1`.
        let lo = length.saturating_sub(i * t_eps).max(1);
        let hi = length + i * t_eps;
        let start = ((tc_offset + lo) % period) as TimeOffset;
        let len = (hi - lo + 1).min(period) as TimeOffset;
        let [a, b] = arc_rows(predictor, start, len);
        if !(a.is_empty() && b.is_empty()) {
            scored.clear();
            score_into(predictor, a.chain(b), rkq, length, tq_offset, scored);
            if !scored.is_empty() {
                hpm_obs::histogram!(crate::metrics::BQP_CANDIDATES).record(scored.len() as u64);
                hpm_obs::counter!(crate::metrics::BQP_WIDENINGS).add(i - 1);
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
        if i * t_eps >= length || hi - lo >= period {
            return false;
        }
    }
}

/// The rows whose consequence lies at the `len ≤ T` offsets from
/// `start` round the period circle: one run, plus a second when the
/// arc wraps past offset 0 (else `0..0`). Rows are sorted by
/// consequence offset, so a run of offsets is a run of rows.
fn arc_rows(predictor: &HybridPredictor, start: TimeOffset, len: TimeOffset) -> [Range<u32>; 2] {
    let (regions, consequences) = (&predictor.regions, predictor.patterns.consequences());
    let before = |t| consequences.partition_point(|&c| regions.get(c).offset < t) as u32;
    let (end, period) = (start + len, predictor.period);
    match end <= period {
        true => [before(start)..before(end), 0..0],
        false => [before(start)..before(period), 0..before(end - period)],
    }
}

/// Eq. 5 scores for each candidate of a query `length` steps ahead at
/// offset `tq_offset`.
fn score_into(
    predictor: &HybridPredictor,
    candidates: impl Iterator<Item = u32>,
    rkq: &Bitmap,
    length: u64,
    tq_offset: TimeOffset,
    out: &mut Vec<(u32, f64)>,
) {
    let period = i64::from(predictor.period);
    let t_eps = predictor.config.time_relaxation;
    let d = predictor.config.distant_threshold as f64;
    out.extend(candidates.map(|id| {
        let premise = predictor.patterns.premise(id as usize);
        let weights = predictor.weight_table.weights(premise.len());
        let sr = premise_similarity_ids(premise, rkq, weights);
        // Temporal distance of the consequence offset to the query
        // offset, on the period circle.
        let consequence = predictor.patterns.consequence(id as usize);
        let t_off = predictor.regions.get(consequence).offset;
        let delta = (i64::from(t_off) - i64::from(tq_offset)).rem_euclid(period);
        let dist = delta.min(period - delta);
        let sc = consequence_similarity(0, dist, t_eps);
        // Eq. 5: premise similarity penalised by d / (tq − tc) ≤ 1.
        let penalty = (d / length as f64).min(1.0);
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
    use crate::{HpmConfig, Prediction, PredictionSource};
    use hpm_geo::{BoundingBox, Point};
    use hpm_patterns::{FrequentRegion, RegionSet, TrajectoryPattern};

    fn ask(p: &HybridPredictor, tc: u64, tq: u64) -> Prediction {
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
    fn far_future_queries_answer_like_their_shift_by_whole_periods() {
        // Fig. 3's period is 3, and 2⁶³ − 5 is a multiple of it: the
        // shifted query asks about tq = 2⁶³, past `i64::MAX`.
        let p = fig3_predictor_d1(4);
        let near = ask(&p, 1, 5);
        assert_eq!(near.source, PredictionSource::BackwardPatterns);
        let top = (u64::MAX - 5) / 3 * 3;
        for shift in [(1 << 63) - 5, top] {
            assert_eq!(ask(&p, 1 + shift, 5 + shift), near, "shift {shift}");
        }
    }

    /// Region `id` at `offset`, centred on `(cx, cx)`.
    fn region(id: u32, offset: u32, cx: f64) -> FrequentRegion {
        FrequentRegion {
            id: RegionId(id),
            offset,
            local_index: 0,
            centroid: Point::new(cx, cx),
            bbox: BoundingBox {
                min: Point::new(cx - 1.0, cx - 1.0),
                max: Point::new(cx + 1.0, cx + 1.0),
            },
            support: 5,
        }
    }

    /// `regions` over a period of 10, with one rule `[R0] -> c` per
    /// `(c, confidence)`; `d = tε = 1`, so every query is distant.
    fn predictor(regions: Vec<FrequentRegion>, rules: &[(u32, f64)], k: usize) -> HybridPredictor {
        let rules = rules.iter().map(|&(c, confidence)| TrajectoryPattern {
            premise: vec![RegionId(0)],
            consequence: RegionId(c),
            confidence,
            support: 5,
        });
        let config = HpmConfig {
            k,
            distant_threshold: 1,
            time_relaxation: 1,
            ..HpmConfig::default()
        };
        HybridPredictor::from_parts(
            RegionSet::new(regions, 10),
            rules.collect::<Vec<_>>(),
            config,
        )
    }

    /// Offsets 0, 1 and 9, one region each; `[R0]` predicts R1 and R2.
    fn wrap_predictor(k: usize) -> HybridPredictor {
        let regions = vec![region(0, 0, 0.0), region(1, 1, 10.0), region(2, 9, 90.0)];
        predictor(regions, &[(1, 0.5), (2, 0.5)], k)
    }

    #[test]
    fn wrapped_arcs_cover_both_runs() {
        // Row 0 predicts R1 (offset 1), row 1 R2 (offset 9).
        let p = wrap_predictor(1);
        let rows = |start, len| {
            let [a, b] = arc_rows(&p, start, len);
            a.chain(b).collect::<Vec<_>>()
        };
        // Offsets {9, 0, 1} wrap past 0 and hold both consequences: the
        // offsets outside the arc hold none.
        assert_eq!(rows(9, 3), [1, 0]);
        assert_eq!(rows(2, 7), []);
        assert_eq!(rows(8, 2), [1]);
        assert_eq!(rows(1, 1), [0]);
        // A full-period arc covers every row once, from any start.
        for start in 0..10 {
            let mut all = rows(start, 10);
            all.sort_unstable();
            assert_eq!(all, [0, 1], "start {start}");
        }
    }

    #[test]
    fn a_wrapped_first_round_finds_both_consequences() {
        // tc = 7 (offset 7), tq = 10 (offset 0), tε = 1: round 1 spans
        // offsets {9, 0, 1}, so R2 (offset 9) and R1 (offset 1) both
        // qualify at once, each one offset from tq.
        let p = wrap_predictor(2);
        let recent = [Point::new(0.0, 0.0)];
        let pred = p.predict(&PredictiveQuery {
            recent: &recent,
            current_time: 7,
            query_time: 10,
        });
        assert_eq!(pred.source, PredictionSource::BackwardPatterns);
        let order: Vec<u32> = pred.answers.iter().map(|a| a.pattern.unwrap()).collect();
        assert_eq!(order, [0, 1]);
        assert_eq!(pred.answers[0].score, pred.answers[1].score);
    }

    #[test]
    fn interval_widens_until_pattern_found() {
        // One pattern with consequence at offset 5 in a period of 10;
        // query offset 9 with tε = 1 needs i = 4 widenings to reach it.
        let p = predictor(vec![region(0, 0, 0.0), region(1, 5, 50.0)], &[(1, 0.8)], 1);
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
        let mut cfg = commuter_config();
        cfg.distant_threshold = 1;
        let p = HybridPredictor::from_parts(RegionSet::new(Vec::new(), 3), Vec::new(), cfg);
        let recent = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let pred = p.predict(&PredictiveQuery {
            recent: &recent,
            current_time: 1,
            query_time: 5,
        });
        assert_eq!(pred.source, PredictionSource::MotionFunction);
    }
}
