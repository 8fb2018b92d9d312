//! Persistence-codec and object-store throughput benches.

use hpm_bench::synthetic_patterns;
use hpm_bench::{Bench, Throughput};
use hpm_core::HpmConfig;
use hpm_datagen::{paper_dataset, PaperDataset, PERIOD};
use hpm_objectstore::{MovingObjectStore, ObjectId, StoreConfig};
use hpm_patterns::{DiscoveryParams, MiningParams, PatternTable};
use hpm_store::{decode_model, encode_model};

fn bench_codec(bench: &mut Bench) {
    for &n in &[1_000usize, 20_000] {
        let (regions, patterns) = synthetic_patterns(n, 400, 5);
        let patterns = PatternTable::from(patterns);
        let blob = encode_model(&regions, &patterns);
        let bytes = Some(Throughput::Bytes(blob.len() as u64));
        bench.run(&format!("model_codec/encode/{n}"), bytes, || {
            encode_model(&regions, &patterns)
        });
        bench.run(&format!("model_codec/decode/{n}"), bytes, || {
            decode_model(&blob).expect("valid")
        });
    }
}

fn bench_objectstore_ingest(bench: &mut Bench) {
    let traj = paper_dataset(PaperDataset::Cow, 9).generate_subs(25);
    let config = || StoreConfig {
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
        retrain_every_subs: 20,
        recent_len: 20,
        shards: 8,
        threads: 1,
        index: hpm_objectstore::IndexConfig::default(),
    };
    let samples = Some(Throughput::Elements(traj.len() as u64));
    bench.run(
        "objectstore/ingest_25_days_with_one_retrain",
        samples,
        || {
            let store = MovingObjectStore::new(config());
            for d in 0..25usize {
                let day = &traj.points()[d * PERIOD as usize..(d + 1) * PERIOD as usize];
                store
                    .report_batch(ObjectId(1), (d * PERIOD as usize) as u64, day)
                    .unwrap();
            }
            store.stats(ObjectId(1)).unwrap()
        },
    );

    // Query throughput on a trained store.
    let store = MovingObjectStore::new(config());
    for d in 0..25usize {
        let day = &traj.points()[d * PERIOD as usize..(d + 1) * PERIOD as usize];
        store
            .report_batch(ObjectId(1), (d * PERIOD as usize) as u64, day)
            .unwrap();
    }
    let now = 25 * PERIOD as u64 - 1;
    let mut ahead = 1u64;
    let one = Some(Throughput::Elements(1));
    bench.run("objectstore/predict_trained", one, || {
        ahead = ahead % 150 + 1;
        store.predict(ObjectId(1), now + ahead).unwrap()
    });
}

fn main() {
    let mut bench = Bench::from_args();
    bench_codec(&mut bench);
    bench_objectstore_ingest(&mut bench);
    bench.summary();
}
