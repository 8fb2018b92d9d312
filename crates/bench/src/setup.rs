//! The §VII.A experiment setting: fixed parameters and per-dataset
//! predictor construction.
//!
//! Paper defaults: `k = 1`, 60 training sub-trajectories, distant-time
//! threshold `d = 60`, DBSCAN `Eps = 30` / `MinPts = 4`, minimum
//! confidence 0.3; datasets have `T = 300`, 200 sub-trajectories, and
//! extent `[0, 10000]²`; accuracy points average 50 queries, cost
//! points 30.

use hpm_core::eval::{make_workload, training_slice, EvalQuery, WorkloadParams};
use hpm_core::{HpmConfig, HybridPredictor};
use hpm_datagen::{paper_dataset, PaperDataset, PERIOD};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_trajectory::Trajectory;

/// §VII.A: training sub-trajectories used "to discover trajectory
/// patterns".
pub const TRAIN_SUBS: usize = 60;
/// Queries per accuracy measurement.
pub const ACCURACY_QUERIES: usize = 50;
/// Queries per cost measurement.
pub const COST_QUERIES: usize = 30;
/// Recent-movement window handed to each query (premise matching and
/// motion-function fitting). 20 samples keeps the RMF comparator
/// well-conditioned — the paper tunes RMF "for the best performance",
/// and with retrospect 3 a window of 10 leaves only 7 training rows
/// for 6 unknowns and overfits badly (see `tests/rmf_tuning.rs`).
pub const RECENT_LEN: usize = 20;
/// Deterministic dataset seed shared by every experiment.
pub const SEED: u64 = 42;

/// §VII.A discovery parameters with an overridable `Eps`/`MinPts`.
pub fn paper_discovery(eps: f64, min_pts: usize) -> DiscoveryParams {
    DiscoveryParams {
        period: PERIOD,
        eps,
        min_pts,
    }
}

/// §VII.A mining parameters with an overridable minimum confidence.
pub fn paper_mining(min_confidence: f64) -> MiningParams {
    MiningParams {
        min_support: 4,
        min_confidence,
        max_premise_len: 2,
        max_premise_gap: 8,
        max_span: 64,
    }
}

/// One dataset's full experimental context: the generated trajectory
/// (train + held-out) and the knobs to build predictors and workloads
/// against it.
pub struct Experiment {
    /// The full trajectory (training prefix + held-out test subs).
    pub trajectory: Trajectory,
    /// Training sub-trajectories used for discovery/mining.
    pub train_subs: usize,
}

impl Experiment {
    /// Standard context: `train_subs` training + 20 held-out test subs.
    pub fn new(dataset: PaperDataset, train_subs: usize) -> Self {
        let trajectory = paper_dataset(dataset, SEED).generate_subs(train_subs + 20);
        Experiment {
            trajectory,
            train_subs,
        }
    }

    /// Standard context with the paper's 60 training subs.
    pub fn paper(dataset: PaperDataset) -> Self {
        Self::new(dataset, TRAIN_SUBS)
    }

    /// Builds a predictor with explicit discovery/mining parameters.
    pub fn build_with(
        &self,
        discovery: &DiscoveryParams,
        mining: &MiningParams,
        config: HpmConfig,
    ) -> HybridPredictor {
        let train = training_slice(&self.trajectory, PERIOD, self.train_subs);
        HybridPredictor::build(&train, discovery, mining, config)
    }

    /// Builds a predictor with the §VII.A defaults.
    pub fn build(&self) -> HybridPredictor {
        self.build_with(
            &paper_discovery(30.0, 4),
            &paper_mining(0.3),
            HpmConfig::default(),
        )
    }

    /// A query workload at the given prediction length.
    pub fn workload(&self, prediction_length: u32, num_queries: usize) -> Vec<EvalQuery> {
        self.workload_with_recent(prediction_length, RECENT_LEN, num_queries)
    }

    /// A workload with an explicit recent-movement window (Fig. 10
    /// hands both systems a longer history so the RMF comparator's
    /// `n³` training cost is visible; the weight ablation uses a short
    /// one so premise matches are partial).
    pub fn workload_with_recent(
        &self,
        prediction_length: u32,
        recent_len: usize,
        num_queries: usize,
    ) -> Vec<EvalQuery> {
        make_workload(
            &self.trajectory,
            PERIOD,
            &WorkloadParams {
                train_subs: self.train_subs,
                recent_len,
                prediction_length,
                num_queries,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_shapes() {
        let exp = Experiment::new(PaperDataset::Airplane, 5);
        assert_eq!(exp.trajectory.len(), 25 * PERIOD as usize);
        assert_eq!(exp.train_subs, 5);
        let w = exp.workload(50, 7);
        assert_eq!(w.len(), 7);
        assert!(w.iter().all(|q| q.recent.len() == RECENT_LEN));
        assert!(w.iter().all(|q| q.as_query().prediction_length() == 50));
        let w2 = exp.workload_with_recent(50, 3, 4);
        assert!(w2.iter().all(|q| q.recent.len() == 3));
    }

    #[test]
    fn paper_params_match_section_vii() {
        let d = paper_discovery(30.0, 4);
        assert_eq!((d.period, d.eps, d.min_pts), (PERIOD, 30.0, 4));
        let m = paper_mining(0.3);
        assert_eq!(m.min_support, 4);
        assert_eq!(m.min_confidence, 0.3);
    }

    #[test]
    fn build_produces_predictor() {
        let exp = Experiment::new(PaperDataset::Airplane, 5);
        let p = exp.build();
        assert_eq!(p.period(), PERIOD);
        // Airplane at 5 subs: few-to-no patterns, but the predictor is
        // still fully functional (motion fallback).
        let q = exp.workload(20, 1);
        assert!(p.predict(&q[0].as_query()).best().is_finite());
    }
}
