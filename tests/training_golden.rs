//! Golden for the training pipeline: the trained model — regions and
//! rule list, every id, support and confidence bit — of seeded
//! `hpm-datagen` histories, pinned by the 8-byte FNV-1a trailer
//! `encode_model` seals it with.
//!
//! The constants were written by the **parent** of the commit that made
//! `HybridPredictor::build` a seeded trainer (affcc7f: `discover` +
//! level-wise `mine`), with its own `hpm` binary:
//!
//! ```text
//! hpm generate --dataset car --subs 20 --seed 7 --output h.csv
//! hpm train --input h.csv --period 300 --output h.hpm
//! tail -c 8 h.hpm | od -An -tx1 | tr -d ' \n'
//! ```
//!
//! (`train`'s defaults are the paper's: Eps 30, MinPts 4, min_support
//! 4, min_conf 0.3, premises ≤ 2 regions ≤ 8 offsets apart, span 64.)
//! A change that moves what training produces — not how — has to
//! regenerate them the same way and say why.
//!
//! That parent wrote rules in the order `SupportCounts::derive` emits
//! them. A predictor now stores its rows in key order, so each model is
//! checked twice: its table re-sorted into derive order against the
//! parent-written trailer, and as stored against a trailer the same
//! procedure wrote with the `hpm` binary of the commit that made rows
//! key-ordered.

use hybrid_prediction_model::core::{HpmConfig, HybridPredictor, TrainPass, TrainerState};
use hybrid_prediction_model::datagen::{paper_dataset, PaperDataset, PERIOD};
use hybrid_prediction_model::patterns::{
    DiscoveryParams, MiningParams, PatternTable, RegionSet, TrajectoryPattern,
};
use hybrid_prediction_model::store::encode_model;
use hybrid_prediction_model::trajectory::Prefix;

/// Dataset, periods, seed, the parent-written trailer (derive order)
/// and the trailer of the stored order.
const GOLDEN: [(PaperDataset, usize, u64, &str, &str); 3] = [
    (
        PaperDataset::Airplane,
        40,
        42,
        "68c6cff7e81e5feb",
        "d28c73cacf8bb7ee",
    ),
    (
        PaperDataset::Car,
        20,
        7,
        "cbe94149ed9c423c",
        "7fd58863f1c0fab1",
    ),
    (
        PaperDataset::Bike,
        16,
        3,
        "e8e75f3412653959",
        "0cb807cc714d9328",
    ),
];

/// The model's trailers: with its rules re-sorted into derive order
/// (premise length, premise ids, consequence id), and as stored.
fn trailers(regions: &RegionSet, patterns: &PatternTable) -> [String; 2] {
    let mut rules = patterns.to_vec();
    let rule = |p: &TrajectoryPattern| (p.premise.len(), p.premise.clone(), p.consequence);
    rules.sort_by_key(rule);
    [rules.into(), patterns.clone()].map(|table| {
        let blob = encode_model(regions, &table);
        blob[blob.len() - 8..]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    })
}

#[test]
fn trained_models_match_the_parent_written_trailers() {
    let discovery = DiscoveryParams {
        period: PERIOD,
        ..DiscoveryParams::paper_defaults()
    };
    let mining = MiningParams::paper_defaults();
    let mut folds = 0;
    for (dataset, subs, seed, derived, stored) in GOLDEN {
        let golden = [derived, stored];
        let history = paper_dataset(dataset, seed).generate_subs(subs);
        let built = HybridPredictor::build(&history, &discovery, &mining, HpmConfig::default());
        let got = trailers(built.regions(), built.patterns());
        assert_eq!(got, golden, "{} build", dataset.name());

        // The store's path: a trainer seeded on all but the last
        // period, then one pass of the verb over the last — a fold, or a
        // re-seed where the fold drifts.
        let mut slot: Option<TrainerState> = None;
        let mut pass = |live, subs: usize| {
            let hist = Prefix::new(&history, subs * PERIOD as usize);
            TrainerState::retrain(
                &mut slot,
                live,
                &hist,
                &discovery,
                &mining,
                HpmConfig::default(),
            )
        };
        let (seeded, _) = pass(None, subs - 1);
        let (live, last) = pass(Some(&seeded), subs);
        folds += usize::from(last == TrainPass::Folded);
        let got = trailers(live.regions(), live.patterns());
        assert_eq!(got, golden, "{} retrained", dataset.name());
    }
    assert!(folds > 0, "no pass folded: only the seed path was pinned");
}
