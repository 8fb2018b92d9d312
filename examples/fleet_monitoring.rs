//! Fleet monitoring: the multi-object store ingesting live reports for
//! a fleet of vehicles, retraining per-object predictors as history
//! accumulates, answering dispatch queries concurrently, and
//! persisting a trained model to disk with the binary codec.
//!
//! ```text
//! cargo run --release --example fleet_monitoring
//! ```

use hybrid_prediction_model::core::{HpmConfig, HybridPredictor};
use hybrid_prediction_model::datagen::{paper_dataset, PaperDataset, PERIOD};
use hybrid_prediction_model::objectstore::{MovingObjectStore, ObjectId, StoreConfig};
use hybrid_prediction_model::patterns::{DiscoveryParams, MiningParams};
use hybrid_prediction_model::store::{decode_model, encode_model};

fn main() {
    let store = MovingObjectStore::new(StoreConfig {
        discovery: DiscoveryParams {
            period: PERIOD,
            eps: 30.0,
            min_pts: 4,
        },
        mining: MiningParams {
            min_support: 4,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 8,
            max_span: 64,
        },
        hpm: HpmConfig::default(),
        min_train_subs: 20,
        retrain_every_subs: 10,
        recent_len: 20,
        shards: 8,
        threads: 0,
        index: hpm_objectstore::IndexConfig::default(),
    });

    // Three vehicles with different route habits stream 45 "days" of
    // reports each (in day-sized batches, as a telematics backend
    // would).
    let fleet = [
        (ObjectId(1), PaperDataset::Car),
        (ObjectId(2), PaperDataset::Bike),
        (ObjectId(3), PaperDataset::Cow), // a very slow delivery van
    ];
    for (id, archetype) in fleet {
        let traj = paper_dataset(archetype, id.0).generate_subs(45);
        for d in 0..45usize {
            let day = &traj.points()[d * PERIOD as usize..(d + 1) * PERIOD as usize];
            store
                .report_batch(id, (d * PERIOD as usize) as u64, day)
                .expect("contiguous feed");
        }
    }

    println!("fleet state after 45 days of reports:");
    for (id, archetype) in fleet {
        let s = store.stats(id).unwrap();
        println!(
            "  {id} ({:<4}): {} samples, trained on {} days, {} regions, {} patterns",
            archetype.name(),
            s.samples,
            s.trained_periods,
            s.regions,
            s.patterns
        );
    }

    // Dispatch asks: where will each vehicle be 30 and 120 timestamps
    // from now?
    let now = 45 * PERIOD as u64 - 1;
    println!("\ndispatch queries (current time {now}):");
    for (id, _) in fleet {
        for ahead in [30u64, 120] {
            let pred = store.predict(id, now + ahead).unwrap();
            println!(
                "  {id} in +{ahead:<3}: {} via {:?}",
                pred.best(),
                pred.source
            );
        }
    }

    // Nightly job: persist vehicle 1's trained model and verify the
    // blob round-trips into a working predictor.
    let traj = paper_dataset(PaperDataset::Car, 1).generate_subs(45);
    let out = hybrid_prediction_model::patterns::discover(
        &traj,
        &DiscoveryParams {
            period: PERIOD,
            eps: 30.0,
            min_pts: 4,
        },
    );
    let patterns = hybrid_prediction_model::patterns::mine(
        &out.regions,
        &out.visits,
        &MiningParams {
            min_support: 4,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 8,
            max_span: 64,
        },
    );
    let blob = encode_model(&out.regions, &patterns);
    println!(
        "\npersisted vehicle 1's model: {} regions + {} patterns -> {:.1} KiB",
        out.regions.len(),
        patterns.len(),
        blob.len() as f64 / 1024.0
    );
    let restored = decode_model(&blob).expect("round-trip");
    let predictor =
        HybridPredictor::from_parts(restored.regions, restored.patterns, HpmConfig::default());
    println!(
        "restored predictor: {} patterns indexed, TPT height {}",
        predictor.patterns().len(),
        predictor.packed_tpt().height()
    );
}
