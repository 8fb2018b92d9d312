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

use hybrid_prediction_model::core::{HpmConfig, HybridPredictor, TrainPass, TrainerState};
use hybrid_prediction_model::datagen::{paper_dataset, PaperDataset, PERIOD};
use hybrid_prediction_model::patterns::{DiscoveryParams, MiningParams};
use hybrid_prediction_model::store::encode_model;
use hybrid_prediction_model::trajectory::Prefix;

const GOLDEN: [(PaperDataset, usize, u64, &str); 3] = [
    (PaperDataset::Airplane, 40, 42, "68c6cff7e81e5feb"),
    (PaperDataset::Car, 20, 7, "cbe94149ed9c423c"),
    (PaperDataset::Bike, 16, 3, "e8e75f3412653959"),
];

fn trailer(blob: &[u8]) -> String {
    blob[blob.len() - 8..]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn trained_models_match_the_parent_written_trailers() {
    let discovery = DiscoveryParams {
        period: PERIOD,
        ..DiscoveryParams::paper_defaults()
    };
    let mining = MiningParams::paper_defaults();
    let mut folds = 0;
    for (dataset, subs, seed, golden) in GOLDEN {
        let history = paper_dataset(dataset, seed).generate_subs(subs);
        let built = HybridPredictor::build(&history, &discovery, &mining, HpmConfig::default());
        let blob = encode_model(built.regions(), built.patterns());
        assert_eq!(trailer(&blob), golden, "{} build", dataset.name());

        // The store's path: a trainer seeded on all but the last
        // period, then one pass of the verb over the last — a fold, or a
        // re-seed where the fold drifts.
        let mut slot = None;
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
        let blob = encode_model(live.regions(), live.patterns());
        assert_eq!(trailer(&blob), golden, "{} retrained", dataset.name());
    }
    assert!(folds > 0, "no pass folded: only the seed path was pinned");
}
