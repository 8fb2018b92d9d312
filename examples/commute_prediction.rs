//! The paper's Fig. 1 motivation, reproduced on the Car dataset: a
//! commute over a road grid with sharp 90° turns defeats motion
//! functions, while the Hybrid Prediction Model rides its patterns
//! through the turns.
//!
//! ```text
//! cargo run --release --example commute_prediction
//! ```

use hybrid_prediction_model::core::eval::{
    make_workload, mean, point_errors, rmf_or_last, training_slice, Record, WorkloadParams,
};
use hybrid_prediction_model::core::{HpmConfig, HybridPredictor};
use hybrid_prediction_model::datagen::{paper_dataset, PaperDataset, EXTENT, PERIOD};
use hybrid_prediction_model::patterns::{DiscoveryParams, MiningParams};

fn main() {
    // 80 "days" of a commuter car on a Manhattan-style grid; the last
    // 20 days are held out for querying.
    let traj = paper_dataset(PaperDataset::Car, 7).generate_subs(80);
    let train = training_slice(&traj, PERIOD, 60);

    let predictor = HybridPredictor::build(
        &train,
        &DiscoveryParams {
            period: PERIOD,
            eps: 30.0,
            min_pts: 4,
        },
        &MiningParams {
            min_support: 4,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 8,
            max_span: 64,
        },
        HpmConfig::default(),
    );
    println!(
        "car history: {} frequent regions, {} patterns",
        predictor.regions().len(),
        predictor.patterns().len()
    );

    println!("\nprediction-length sweep (50 queries each):");
    println!(
        "{:>8} {:>12} {:>12} {:>8}",
        "length", "HPM error", "RMF error", "ratio"
    );
    for length in [20u32, 50, 100, 150, 200] {
        let queries = make_workload(
            &traj,
            PERIOD,
            &WorkloadParams {
                train_subs: 60,
                recent_len: 10,
                prediction_length: length,
                num_queries: 50,
            },
        );
        let hpm = Record::of(&predictor, &queries, EXTENT).mean_error();
        let rmf = mean(&point_errors(|q| rmf_or_last(q, 3), &queries, EXTENT));
        println!("{length:>8} {hpm:>12.1} {rmf:>12.1} {:>7.1}x", rmf / hpm);
    }

    // Zoom into one query: the car is mid-commute approaching a turn.
    let queries = make_workload(
        &traj,
        PERIOD,
        &WorkloadParams {
            train_subs: 60,
            recent_len: 10,
            prediction_length: 40,
            num_queries: 1,
        },
    );
    let q = &queries[0];
    let pred = predictor.predict(&q.as_query());
    println!(
        "\nsingle query: now at {}, asked +40 steps",
        q.recent.last().unwrap()
    );
    println!("  actual position then : {}", q.truth);
    println!(
        "  HPM answer ({:?}): {} (error {:.0})",
        pred.source,
        pred.best(),
        pred.best().distance(&q.truth)
    );
    if let Some(pid) = pred.answers[0].pattern {
        let pattern = predictor.patterns().get(pid as usize);
        println!(
            "  supporting pattern   : {}",
            pattern.display(predictor.regions())
        );
    }
}
