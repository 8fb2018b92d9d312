//! Forward Query Processing (Algorithm 2): non-distant-time queries,
//! ranked by premise similarity × confidence (Eq. 2).

use crate::predictor::{rank_answers_into, HybridPredictor};
use crate::scratch::SearchScratch;
use crate::{premise_similarity_ids, Prediction, PredictiveQuery};
use hpm_patterns::RegionId;
use hpm_trajectory::TimeOffset;

/// Retrieves and ranks FQP candidates into `out.answers`; `false`
/// means no pattern qualified and the caller should invoke the motion
/// function. Allocation-free once `scratch` is warm.
///
/// Candidates must intersect the query key on both parts: share at
/// least one premise region with the object's recent movements *and*
/// have their consequence at exactly the query's time offset.
pub(crate) fn run(
    predictor: &HybridPredictor,
    recent_ids: &[RegionId],
    query: &PredictiveQuery<'_>,
    scratch: &mut SearchScratch,
    out: &mut Prediction,
) -> bool {
    let _span = hpm_obs::span!(crate::metrics::FQP_SPAN);
    if recent_ids.is_empty() {
        return false; // no premise: the query key cannot intersect
    }
    let SearchScratch {
        cursor,
        qkey,
        scored,
        seen,
        ..
    } = scratch;
    let tq_offset = (query.query_time % predictor.period as u64) as TimeOffset;
    predictor
        .key_table
        .fqp_query_into(recent_ids.iter().copied(), tq_offset, qkey);
    if qkey.consequence.is_zero() {
        return false; // no pattern predicts this time offset
    }
    let matches = cursor.search_packed(predictor.packed_tpt(), qkey);
    hpm_obs::histogram!(crate::metrics::FQP_CANDIDATES).record(matches.len() as u64);
    if matches.is_empty() {
        return false;
    }
    // Eq. 2: S_p = S_r × c.
    scored.clear();
    scored.extend(matches.iter().map(|&id| {
        let premise = predictor.patterns.premise(id as usize);
        let weights = predictor.weight_table.weights(premise.len());
        let sr = premise_similarity_ids(premise, &qkey.premise, weights);
        (id, sr * predictor.patterns.confidence(id as usize))
    }));
    rank_answers_into(
        predictor,
        scored,
        predictor.config.k,
        seen,
        &mut out.answers,
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{fig3_predictor, fig3_query_recent};
    use crate::PredictionSource;

    #[test]
    fn section_vi_b_worked_example() {
        // Jane's recent movements are R0^0 and R1^0, tq = 2. The paper
        // computes S_p(1000011, 1000011) = 1 × 0.5 = 0.5 and
        // S_p(1000101, 1000011) = 0.33 × 0.4 = 0.132, so R2^0's centre
        // wins.
        let p = fig3_predictor(1);
        let (recent, tc) = fig3_query_recent();
        let q = PredictiveQuery {
            recent: &recent,
            current_time: tc,
            query_time: 2,
        };
        let pred = p.predict(&q);
        assert_eq!(pred.source, PredictionSource::ForwardPatterns);
        assert_eq!(pred.answers.len(), 1);
        let top = pred.answers[0];
        assert_eq!(top.pattern, Some(2)); // P2: R0^0 ∧ R1^0 -> R2^0
        assert!((top.score - 0.5).abs() < 1e-9);
    }

    #[test]
    fn k2_returns_both_candidates_in_order() {
        let p = fig3_predictor(2);
        let (recent, tc) = fig3_query_recent();
        let q = PredictiveQuery {
            recent: &recent,
            current_time: tc,
            query_time: 2,
        };
        let pred = p.predict(&q);
        assert_eq!(pred.answers.len(), 2);
        assert_eq!(pred.answers[0].pattern, Some(2));
        assert_eq!(pred.answers[1].pattern, Some(3));
        assert!((pred.answers[1].score - 1.0 / 3.0 * 0.4).abs() < 1e-9);
    }

    #[test]
    fn no_consequence_at_query_offset_falls_back() {
        let p = fig3_predictor(1);
        let (recent, tc) = fig3_query_recent();
        // No pattern has consequence offset 0 (only 1 and 2 exist);
        // period is 3 so query_time 3 has offset 0.
        let q = PredictiveQuery {
            recent: &recent,
            current_time: tc,
            query_time: 3,
        };
        let pred = p.predict(&q);
        assert_eq!(pred.source, PredictionSource::MotionFunction);
    }
}
