//! End-to-end pipeline tests on the §VII synthetic datasets: generate,
//! discover, mine, index, query — asserting the paper's headline
//! qualitative results.

use hybrid_prediction_model::core::eval::{
    make_workload, mean, point_errors, rmf_or_last, training_slice, Record, WorkloadParams,
};
use hybrid_prediction_model::core::{HpmConfig, HybridPredictor};
use hybrid_prediction_model::datagen::{paper_dataset, PaperDataset, EXTENT, PERIOD};
use hybrid_prediction_model::patterns::{DiscoveryParams, MiningParams};

/// §VII.A's fixed parameters.
fn discovery() -> DiscoveryParams {
    DiscoveryParams {
        period: PERIOD,
        eps: 30.0,
        min_pts: 4,
    }
}

fn mining() -> MiningParams {
    MiningParams {
        min_support: 4,
        min_confidence: 0.3,
        max_premise_len: 2,
        max_premise_gap: 8,
        max_span: 64,
    }
}

fn build(dataset: PaperDataset, train_subs: usize) -> (HybridPredictor, Vec<f64>) {
    let traj = paper_dataset(dataset, 42).generate_subs(train_subs + 20);
    let train = training_slice(&traj, PERIOD, train_subs);
    let predictor = HybridPredictor::build(&train, &discovery(), &mining(), HpmConfig::default());
    // Errors at prediction lengths 20 and 100 for HPM, then RMF.
    let mut out = Vec::new();
    for len in [20u32, 100] {
        let queries = make_workload(
            &traj,
            PERIOD,
            &WorkloadParams {
                train_subs,
                recent_len: 10,
                prediction_length: len,
                num_queries: 50,
            },
        );
        out.push(Record::of(&predictor, &queries, EXTENT).mean_error());
        out.push(mean(&point_errors(|q| rmf_or_last(q, 3), &queries, EXTENT)));
    }
    (predictor, out)
}

#[test]
fn bike_hpm_beats_rmf_and_stays_flat() {
    let (predictor, errs) = build(PaperDataset::Bike, 60);
    let (hpm20, rmf20, hpm100, rmf100) = (errs[0], errs[1], errs[2], errs[3]);
    assert!(!predictor.patterns().is_empty(), "bike must yield patterns");
    // Fig. 5's shape: HPM error low and roughly flat in prediction
    // length; RMF rises sharply.
    assert!(
        hpm100 < rmf100,
        "hpm {hpm100} vs rmf {rmf100} at length 100"
    );
    assert!(rmf100 > rmf20, "rmf must degrade with length");
    assert!(
        hpm100 < rmf100 / 2.0,
        "distant-time advantage should be large: {hpm100} vs {rmf100}"
    );
    assert!(hpm20 < 1_000.0, "near error too large: {hpm20}");
}

#[test]
fn car_sharp_turns_hurt_rmf_more() {
    let (_, errs) = build(PaperDataset::Car, 60);
    let (hpm100, rmf100) = (errs[2], errs[3]);
    assert!(hpm100 < rmf100, "hpm {hpm100} vs rmf {rmf100}");
}

#[test]
fn airplane_patterns_weakest() {
    // The airplane dataset has probability f = 0.55 and four spread
    // routes: it should discover fewer patterns than bike and lean on
    // the motion fallback more.
    let (bike, _) = build(PaperDataset::Bike, 60);
    let (airplane, _) = build(PaperDataset::Airplane, 60);
    assert!(
        airplane.patterns().len() < bike.patterns().len(),
        "airplane {} vs bike {}",
        airplane.patterns().len(),
        bike.patterns().len()
    );
}

#[test]
fn hit_rate_tracks_pattern_strength() {
    let traj_bike = paper_dataset(PaperDataset::Bike, 7).generate_subs(80);
    let traj_air = paper_dataset(PaperDataset::Airplane, 7).generate_subs(80);
    let mk = |traj: &hybrid_prediction_model::trajectory::Trajectory| {
        let train = training_slice(traj, PERIOD, 60);
        let p = HybridPredictor::build(&train, &discovery(), &mining(), HpmConfig::default());
        let queries = make_workload(
            traj,
            PERIOD,
            &WorkloadParams {
                train_subs: 60,
                recent_len: 10,
                prediction_length: 50,
                num_queries: 30,
            },
        );
        Record::of(&p, &queries, EXTENT).pattern_share()
    };
    let bike = mk(&traj_bike);
    let air = mk(&traj_air);
    assert!(
        bike >= air,
        "bike hit rate {bike} should be >= airplane {air}"
    );
    assert!(bike > 0.5, "bike hit rate too low: {bike}");
}
