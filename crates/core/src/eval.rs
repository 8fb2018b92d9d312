//! Evaluation harness implementing §VII's experiment protocol:
//! train a predictor on the first `train_subs` sub-trajectories,
//! generate queries against held-out sub-trajectories, and measure the
//! average prediction error — "the distance between a predicted
//! location and its actual location".
//!
//! Every metric is a reduction over one pass that predicts each query
//! once: [`point_errors`] for any point predictor (the baselines
//! [`rmf_or_last`] and [`linear_or_last`], Markov, slotted Markov), and
//! [`Record::of`] for the hybrid predictor, whose [`Outcome`]s also
//! keep what the breakdowns beyond the paper read — the source, the
//! nearest of the top-k answers, the claimed mass and whether it
//! covered the truth, the best answer's pattern.
//!
//! Query placement is deterministic (evenly strided over test
//! sub-trajectories and in-period positions), so runs are exactly
//! reproducible without threading an RNG through the core crate.

use crate::{HybridPredictor, PredictionSource, PredictiveQuery, RankedAnswer};
use hpm_geo::Point;
use hpm_motion::{LinearMotion, MotionModel, Rmf};
use hpm_trajectory::{Timestamp, Trajectory};

/// Parameters of one evaluation workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Sub-trajectories reserved for training; queries are placed in
    /// the remainder.
    pub train_subs: usize,
    /// Samples of recent movement handed to each query.
    pub recent_len: usize,
    /// Prediction length `tq − tc`.
    pub prediction_length: u32,
    /// Number of queries (paper: 50 for accuracy, 30 for cost).
    pub num_queries: usize,
}

/// One evaluation query with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalQuery {
    /// Recent movements, oldest first.
    pub recent: Vec<Point>,
    /// Timestamp of the last recent sample.
    pub current_time: Timestamp,
    /// The asked-about future timestamp.
    pub query_time: Timestamp,
    /// Where the object actually was at `query_time`.
    pub truth: Point,
}

impl EvalQuery {
    /// Borrowed [`PredictiveQuery`] view.
    pub fn as_query(&self) -> PredictiveQuery<'_> {
        PredictiveQuery {
            recent: &self.recent,
            current_time: self.current_time,
            query_time: self.query_time,
        }
    }
}

/// The training prefix: the first `train_subs` periods of `traj`.
///
/// # Panics
/// Panics when the trajectory is shorter than the requested prefix.
pub fn training_slice(traj: &Trajectory, period: u32, train_subs: usize) -> Trajectory {
    let n = train_subs * period as usize;
    assert!(
        traj.len() >= n,
        "trajectory has {} samples, need {n} for {train_subs} training subs",
        traj.len()
    );
    Trajectory::new(traj.start(), traj.points()[..n].to_vec())
}

/// Builds a deterministic query workload over the held-out
/// sub-trajectories of `traj`.
///
/// Queries are strided round-robin over test sub-trajectories; within
/// each, the current time walks a co-prime stride through the valid
/// positions so queries cover the period evenly. Both `tc` and `tq`
/// stay within one sub-trajectory (Definition 2 assumes `tq < T`).
///
/// # Panics
/// Panics when no test sub-trajectories remain, or the period cannot
/// fit `recent_len + prediction_length`.
pub fn make_workload(traj: &Trajectory, period: u32, params: &WorkloadParams) -> Vec<EvalQuery> {
    let t = period as usize;
    let total_subs = traj.len() / t;
    assert!(
        total_subs > params.train_subs,
        "no held-out sub-trajectories: {} total, {} training",
        total_subs,
        params.train_subs
    );
    let valid = t
        .checked_sub(params.prediction_length as usize + params.recent_len)
        .filter(|&v| v > 0)
        .unwrap_or_else(|| {
            panic!(
                "period {t} cannot fit recent_len {} + prediction_length {}",
                params.recent_len, params.prediction_length
            )
        });
    let test_subs = total_subs - params.train_subs;
    // A stride co-prime with `valid` walks all positions before
    // repeating.
    let stride = (valid / 2).max(1) | 1;
    let stride = if gcd(stride, valid) == 1 { stride } else { 1 };

    let mut queries = Vec::with_capacity(params.num_queries);
    for q in 0..params.num_queries {
        let sub = params.train_subs + q % test_subs;
        let pos = (q * stride) % valid; // in-period index of the first recent sample
        let start = sub * t + pos;
        let recent: Vec<Point> = traj.points()[start..start + params.recent_len].to_vec();
        let current_time = (start + params.recent_len - 1) as Timestamp;
        let query_time = current_time + params.prediction_length as Timestamp;
        let truth = traj.at(query_time).expect("query time inside trajectory");
        queries.push(EvalQuery {
            recent,
            current_time,
            query_time,
            truth,
        });
    }
    queries
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Clamps a predicted location into the data extent `[0, extent]²` —
/// every real deployment knows its map bounds, and without this a
/// diverging motion-function rollout would let a single query dominate
/// the average error.
pub fn clamp_extent(p: Point, extent: f64) -> Point {
    p.clamp(0.0, extent)
}

/// The paper's comparison baseline: an RMF of retrospect `retrospect`
/// fitted on the query's recent window, or the last recent sample when
/// the window is too short to fit one.
pub fn rmf_or_last(q: &PredictiveQuery<'_>, retrospect: usize) -> Point {
    Rmf::fit(q.recent, retrospect)
        .map(|m| m.predict(q.prediction_length()))
        .unwrap_or_else(|| *q.recent.last().expect("non-empty recent"))
}

/// The linear motion function baseline, or the last recent sample when
/// the window is too short to fit one.
pub fn linear_or_last(q: &PredictiveQuery<'_>) -> Point {
    LinearMotion::fit(q.recent)
        .map(|m| m.predict(q.prediction_length()))
        .unwrap_or_else(|| *q.recent.last().expect("non-empty recent"))
}

/// A point predictor's pass over a workload: each query predicted once,
/// the answer clamped into the extent, and its distance to the truth
/// kept in query order.
pub fn point_errors(
    mut predict: impl FnMut(&PredictiveQuery<'_>) -> Point,
    queries: &[EvalQuery],
    extent: f64,
) -> Vec<f64> {
    assert!(!queries.is_empty(), "empty workload");
    queries
        .iter()
        .map(|q| clamp_extent(predict(&q.as_query()), extent).distance(&q.truth))
        .collect()
}

/// The §VII average error: the mean of a pass's per-query errors,
/// summed in query order (0 for none).
pub fn mean(errors: &[f64]) -> f64 {
    if errors.is_empty() {
        return 0.0;
    }
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// Distribution statistics of per-query errors — means hide tails, and
/// the tail is where the motion-function fallback lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Number of queries.
    pub count: usize,
    /// Arithmetic mean error.
    pub mean: f64,
    /// Median error.
    pub median: f64,
    /// 95th-percentile error (nearest-rank).
    pub p95: f64,
    /// Worst-case error.
    pub max: f64,
}

impl ErrorStats {
    /// The statistics of a pass's per-query errors.
    pub fn of(errors: &[f64]) -> Self {
        assert!(!errors.is_empty(), "empty workload");
        let mut sorted = errors.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        let n = sorted.len();
        let rank = |p: f64| sorted[(((n as f64) * p).ceil() as usize).clamp(1, n) - 1];
        ErrorStats {
            count: n,
            mean: mean(errors),
            median: rank(0.5),
            p95: rank(0.95),
            max: sorted[n - 1],
        }
    }
}

/// Calibration of the claimed uncertainty over a workload: the mean
/// probability mass a prediction assigns to its own uncertainty
/// regions, against the empirical frequency of the truth actually
/// landing inside one. A well-calibrated predictor has
/// `hit_rate ≈ predicted_mass`; `hit_rate ≫ predicted_mass` means the
/// regions are too wide (under-confident), the reverse means the
/// claimed mass overstates what the regions deliver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Number of queries evaluated.
    pub queries: usize,
    /// Mean claimed mass per query (sum over the answer set).
    pub predicted_mass: f64,
    /// Fraction of queries whose truth fell inside at least one
    /// answer's uncertainty region.
    pub hit_rate: f64,
}

impl Calibration {
    /// Signed calibration gap `hit_rate − predicted_mass`.
    pub fn gap(&self) -> f64 {
        self.hit_rate - self.predicted_mass
    }
}

/// What one query of a [`Record`] kept of its prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Distance from the truth to the best answer, clamped into the
    /// extent.
    pub error: f64,
    /// Which processing path answered.
    pub source: PredictionSource,
    /// Distance from the truth to the nearest of the top-k answers,
    /// each clamped into the extent.
    pub nearest: f64,
    /// Total probability mass the answers claim.
    pub mass: f64,
    /// Whether the truth lies inside at least one answer's uncertainty
    /// region.
    pub covered: bool,
    /// The best answer's supporting pattern, if any.
    pub pattern: Option<u32>,
}

/// One pass of the Hybrid Prediction Model over a workload: every query
/// predicted exactly once, one [`Outcome`] each, in query order.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The per-query outcomes.
    pub outcomes: Vec<Outcome>,
}

impl Record {
    /// Predicts every query once with `predictor` and keeps its
    /// [`Outcome`].
    pub fn of(predictor: &HybridPredictor, queries: &[EvalQuery], extent: f64) -> Self {
        assert!(!queries.is_empty(), "empty workload");
        let outcomes = queries
            .iter()
            .map(|q| {
                let pred = predictor.predict(&q.as_query());
                let dist = |a: &RankedAnswer| clamp_extent(a.location, extent).distance(&q.truth);
                Outcome {
                    error: dist(&pred.answers[0]),
                    source: pred.source,
                    nearest: pred.answers.iter().map(dist).fold(f64::INFINITY, f64::min),
                    mass: pred.answers.iter().map(|a| a.uncertainty.mass).sum(),
                    covered: (pred.answers.iter()).any(|a| a.uncertainty.region.contains(&q.truth)),
                    pattern: pred.answers[0].pattern,
                }
            })
            .collect();
        Record { outcomes }
    }

    /// The per-query errors of the best answers, in query order.
    pub fn errors(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.error).collect()
    }

    /// The §VII average error of the best answers.
    pub fn mean_error(&self) -> f64 {
        mean(&self.errors())
    }

    /// Fraction of queries answered from patterns (vs the motion
    /// fallback) — what sets Fig. 10's query-cost gap.
    pub fn pattern_share(&self) -> f64 {
        self.share(|o| o.source != PredictionSource::MotionFunction)
    }

    /// Fraction of queries where the truth lies within `radius` of at
    /// least one of the top-k answers — the metric that makes `k > 1`
    /// meaningful (the best single answer may be the wrong branch of a
    /// fork, while the true branch sits at rank 2).
    pub fn hit_rate(&self, radius: f64) -> f64 {
        assert!(radius >= 0.0 && radius.is_finite(), "radius must be finite");
        self.share(|o| o.nearest <= radius)
    }

    /// How many queries each processing path answered, and their mean
    /// error (0 for a path that answered none): Forward Query
    /// Processing, Backward Query Processing, then the motion fallback.
    pub fn sources(&self) -> [(usize, f64); 3] {
        let paths = [
            PredictionSource::ForwardPatterns,
            PredictionSource::BackwardPatterns,
            PredictionSource::MotionFunction,
        ];
        paths.map(|source| {
            let errors: Vec<f64> = (self.outcomes.iter())
                .filter(|o| o.source == source)
                .map(|o| o.error)
                .collect();
            (errors.len(), mean(&errors))
        })
    }

    /// The claimed mass against the rate of the truth landing inside an
    /// answer region.
    pub fn calibration(&self) -> Calibration {
        let masses: Vec<f64> = self.outcomes.iter().map(|o| o.mass).collect();
        Calibration {
            queries: self.outcomes.len(),
            predicted_mass: mean(&masses),
            hit_rate: self.share(|o| o.covered),
        }
    }

    fn share(&self, hit: impl Fn(&Outcome) -> bool) -> f64 {
        let hits = self.outcomes.iter().filter(|o| hit(o)).count();
        hits as f64 / self.outcomes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{commuter_config, commuter_trajectory, COMMUTER_PERIOD};
    use crate::HpmConfig;
    use hpm_patterns::{DiscoveryParams, MiningParams};

    fn workload(len: u32) -> Vec<EvalQuery> {
        make_workload(
            &commuter_trajectory(),
            COMMUTER_PERIOD,
            &WorkloadParams {
                train_subs: 60,
                recent_len: 2,
                prediction_length: len,
                num_queries: 20,
            },
        )
    }

    /// The commuter trained on its first 60 days, answering top-`k`.
    fn predictor(k: usize) -> HybridPredictor {
        let train = training_slice(&commuter_trajectory(), COMMUTER_PERIOD, 60);
        HybridPredictor::build(
            &train,
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
            HpmConfig {
                k,
                ..commuter_config()
            },
        )
    }

    #[test]
    fn workload_shape_and_truth() {
        let w = workload(1);
        assert_eq!(w.len(), 20);
        let traj = commuter_trajectory();
        for q in &w {
            assert_eq!(q.recent.len(), 2);
            assert!(q.query_time > q.current_time);
            // Queries only touch held-out subs.
            assert!(q.current_time as usize / 4 >= 60);
            // Same sub-trajectory for tc and tq.
            assert_eq!(q.current_time as usize / 4, q.query_time as usize / 4);
            assert_eq!(traj.at(q.query_time), Some(q.truth));
        }
    }

    /// Every reduction reads one pass over the commuter, whose
    /// movements repeat (modulo tiny jitter): pattern answers land on
    /// region centres while a motion function extrapolating "home ->
    /// road" misses the work/pub turns.
    #[test]
    fn every_reduction_reads_one_commuter_pass() {
        let p = predictor(1);
        let w = workload(1);
        let record = Record::of(&p, &w, 200.0);
        // A record's error is the point error of the best answer.
        let best = point_errors(|q| p.predict(q).best(), &w, 200.0);
        assert_eq!(record.errors(), best);
        let hpm = record.mean_error();
        let rmf = mean(&point_errors(|q| rmf_or_last(q, 2), &w, 200.0));
        assert!(hpm < rmf, "hpm {hpm} vs rmf {rmf}");
        assert!(hpm < 5.0, "hpm error too large: {hpm}");
        assert!(record.pattern_share() > 0.8);

        let stats = ErrorStats::of(&record.errors());
        assert_eq!(stats.count, w.len());
        assert!(stats.median <= stats.mean * 2.0 + 1e-9);
        assert!(stats.median <= stats.p95 + 1e-9);
        assert!(stats.p95 <= stats.max + 1e-9);
        assert!(stats.max.is_finite());

        let c = record.calibration();
        assert_eq!(c.queries, w.len());
        // Pattern answer masses are normalised to sum to 1 per query,
        // and the commuter workload is fully patterned.
        assert!((c.predicted_mass - 1.0).abs() < 1e-9, "{c:?}");
        assert!((0.0..=1.0).contains(&c.hit_rate));
        assert_eq!(c.gap(), c.hit_rate - c.predicted_mass);
        // The commuter repeats its route within eps: the truth lands
        // inside a discovered region's bbox almost always.
        assert!(c.hit_rate > 0.8, "{c:?}");

        let [fqp, bqp, motion] = record.sources();
        assert_eq!(fqp.0 + bqp.0 + motion.0, w.len());
        // The commuter's offsets are fully patterned: forward answers
        // dominate at length 1.
        assert!(fqp.0 > 0);
        for (n, mean) in [fqp, bqp, motion] {
            if n == 0 {
                assert_eq!(mean, 0.0);
            } else {
                assert!(mean.is_finite() && mean >= 0.0);
            }
        }
    }

    #[test]
    fn training_slice_prefix() {
        let traj = commuter_trajectory();
        let t = training_slice(&traj, COMMUTER_PERIOD, 10);
        assert_eq!(t.len(), 40);
        assert_eq!(t.points()[0], traj.points()[0]);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn oversized_prediction_length_panics() {
        workload(10);
    }

    #[test]
    #[should_panic(expected = "no held-out")]
    fn no_test_subs_panics() {
        make_workload(
            &commuter_trajectory(),
            COMMUTER_PERIOD,
            &WorkloadParams {
                train_subs: 100,
                recent_len: 1,
                prediction_length: 1,
                num_queries: 5,
            },
        );
    }

    #[test]
    fn clamp_bounds_predictions() {
        assert_eq!(
            clamp_extent(Point::new(-5.0, 1e12), 100.0),
            Point::new(0.0, 100.0)
        );
    }

    #[test]
    fn linear_baseline_runs() {
        let w = workload(1);
        let e = mean(&point_errors(linear_or_last, &w, 200.0));
        assert!(e.is_finite() && e >= 0.0);
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(workload(1), workload(1));
    }

    #[test]
    fn error_stats_constant_predictor() {
        // A predictor that always answers the truth has all-zero stats.
        let w = workload(1);
        let truths: Vec<_> = w.iter().map(|q| q.truth).collect();
        let mut i = 0;
        let errors = point_errors(
            |_| {
                let t = truths[i];
                i += 1;
                t
            },
            &w,
            200.0,
        );
        let stats = ErrorStats::of(&errors);
        assert_eq!(stats.mean, 0.0);
        assert_eq!(stats.p95, 0.0);
        assert_eq!(stats.max, 0.0);
    }

    #[test]
    fn hit_rate_monotone_in_k_and_radius() {
        let traj = commuter_trajectory();
        // Queries targeting offset 3 (the pub/gym fork): top-1 can
        // pick the wrong branch, top-2 covers both. Built by hand —
        // the fork sits at the last offset of the tiny period, outside
        // make_workload's same-sub window.
        let w: Vec<EvalQuery> = (60..90)
            .map(|sub| {
                let start = sub * COMMUTER_PERIOD as usize;
                EvalQuery {
                    recent: vec![traj.points()[start]],
                    current_time: start as Timestamp,
                    query_time: (start + 3) as Timestamp,
                    truth: traj.points()[start + 3],
                }
            })
            .collect();
        let record = |k| Record::of(&predictor(k), &w, 200.0);
        // Eq. 5 ranks the certain "work" consequence (adjacent offset,
        // confidence 1) first, then the two fork branches: k = 1 never
        // hits the fork, k = 2 covers one branch, k = 3 covers both.
        let top1 = record(1);
        let k1 = top1.hit_rate(5.0);
        let k2 = record(2).hit_rate(5.0);
        let k3 = record(3).hit_rate(5.0);
        assert!(k1 <= k2 && k2 <= k3, "not monotone: {k1} {k2} {k3}");
        assert!((k2 - 0.5).abs() < 0.2, "k2 {k2}");
        assert!(k3 > 0.9, "k3 {k3}");
        // Wider radius can only help.
        assert!(top1.hit_rate(500.0) >= k1);
    }

    #[test]
    fn calibration_fallback_claims_ellipse_mass() {
        // A patternless workload (random recent points far from any
        // region) forces the motion fallback; each answer claims the
        // two-axis ellipse mass.
        let p = predictor(1);
        let w: Vec<EvalQuery> = (0..10)
            .map(|i| EvalQuery {
                recent: vec![
                    Point::new(1000.0 + i as f64, 1000.0),
                    Point::new(1003.0 + i as f64, 1002.0),
                ],
                current_time: 241,
                query_time: 242,
                truth: Point::new(1006.0 + i as f64, 1004.0),
            })
            .collect();
        let c = Record::of(&p, &w, 2000.0).calibration();
        assert!(c.predicted_mass > 0.0 && c.predicted_mass <= 1.0, "{c:?}");
    }
}
