//! Wildlife tracking on the Cow dataset (the paper's CSIRO
//! virtual-fencing scenario): distant-time queries — "where will the
//! animal be this afternoon?" — answered by Backward Query Processing,
//! plus the refresh path: new GPS days arrive, fresh patterns are
//! mined and the predictor is re-assembled over the extended list.
//!
//! ```text
//! cargo run --release --example wildlife_tracking
//! ```

use hybrid_prediction_model::core::eval::training_slice;
use hybrid_prediction_model::core::{HpmConfig, HybridPredictor, PredictiveQuery};
use hybrid_prediction_model::datagen::{paper_dataset, PaperDataset, PERIOD};
use hybrid_prediction_model::patterns::{mine, visits_against, DiscoveryParams, MiningParams};
use hybrid_prediction_model::trajectory::Timestamp;

fn discovery() -> DiscoveryParams {
    DiscoveryParams {
        period: PERIOD,
        eps: 30.0,
        min_pts: 4,
    }
}

fn mining_params() -> MiningParams {
    MiningParams {
        min_support: 4,
        min_confidence: 0.3,
        max_premise_len: 2,
        max_premise_gap: 8,
        max_span: 64,
    }
}

fn main() {
    // 70 days of a GPS-tagged cow; train on the first 40.
    let traj = paper_dataset(PaperDataset::Cow, 99).generate_subs(70);
    let train = training_slice(&traj, PERIOD, 40);
    let predictor = HybridPredictor::build(
        &train,
        &discovery(),
        &mining_params(),
        HpmConfig {
            k: 3, // rangers want the top 3 candidate areas
            ..HpmConfig::default()
        },
    );
    println!(
        "initial herd model: {} regions, {} patterns",
        predictor.regions().len(),
        predictor.patterns().len()
    );

    // It is early "morning" of day 55 (offset 20); the collar reports
    // the last 10 positions. Ask where the cow will be at offset 170 —
    // a distant-time query (150 offsets ahead, threshold d = 60).
    let day = 55usize;
    let tc_index = day * PERIOD as usize + 20;
    let recent = &traj.points()[tc_index - 9..=tc_index];
    let current_time = tc_index as Timestamp;
    let query = PredictiveQuery {
        recent,
        current_time,
        query_time: current_time + 150,
    };
    let pred = predictor.predict(&query);
    let truth = traj.points()[tc_index + 150];
    println!(
        "\ndistant-time query (+150 offsets) answered by {:?}:",
        pred.source
    );
    for (rank, a) in pred.answers.iter().enumerate() {
        println!(
            "  #{} {} (score {:.3}{})",
            rank + 1,
            a.location,
            a.score,
            a.pattern
                .map(|p| format!(", pattern {p}"))
                .unwrap_or_default()
        );
    }
    println!(
        "  actual position: {} (best error {:.0})",
        truth,
        pred.best().distance(&truth)
    );

    // Two weeks later: 14 more days of collar data accumulated. Map
    // the grown history onto the *existing* region vocabulary, re-mine,
    // and re-assemble the predictor over the extended pattern list —
    // the index is bulk-loaded again (§V.B), nothing is re-discovered.
    let grown = training_slice(&traj, PERIOD, 54);
    let visits = visits_against(&grown, predictor.regions(), 30.0);
    let refreshed = mine(predictor.regions(), &visits, &mining_params());
    let known: std::collections::HashSet<_> = predictor
        .patterns()
        .iter()
        .map(|p| (p.premise, p.consequence))
        .collect();
    let fresh: Vec<_> = refreshed
        .iter()
        .filter(|p| !known.contains(&(p.premise.clone(), p.consequence)))
        .take(500)
        .collect();
    let added = fresh.len();
    let mut extended = predictor.patterns().to_vec();
    extended.extend(fresh);
    let predictor =
        HybridPredictor::from_parts(predictor.regions().clone(), extended, *predictor.config());
    println!(
        "\nincremental update: added {added} new patterns, index now holds {} (height {})",
        predictor.packed_tpt().len(),
        predictor.packed_tpt().height()
    );

    // The same query again, now backed by the refreshed pattern store.
    let pred2 = predictor.predict(&query);
    println!(
        "re-asked query: best {} via {:?} (error {:.0})",
        pred2.best(),
        pred2.source,
        pred2.best().distance(&truth)
    );
}
