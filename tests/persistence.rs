//! Integration: the train → persist → restore → query cycle produces
//! byte-identical predictions.

// `mine` now returns the `PatternTable` these tests convert its result
// into; the tests are a pinned floor and stay as written.
#![allow(clippy::useless_conversion)]

use hybrid_prediction_model::core::eval::{make_workload, training_slice, WorkloadParams};
use hybrid_prediction_model::core::{HpmConfig, HybridPredictor};
use hybrid_prediction_model::datagen::{paper_dataset, PaperDataset, PERIOD};
use hybrid_prediction_model::patterns::{
    discover, mine, DiscoveryParams, MiningParams, PatternTable,
};
use hybrid_prediction_model::store::{decode_model, encode_model};

#[test]
fn restored_model_predicts_identically() {
    let traj = paper_dataset(PaperDataset::Cow, 31).generate_subs(50);
    let train = training_slice(&traj, PERIOD, 40);
    let discovery = DiscoveryParams {
        period: PERIOD,
        eps: 30.0,
        min_pts: 4,
    };
    let mining = MiningParams {
        min_support: 4,
        min_confidence: 0.3,
        max_premise_len: 2,
        max_premise_gap: 8,
        max_span: 64,
    };
    let out = discover(&train, &discovery);
    let patterns: PatternTable = mine(&out.regions, &out.visits, &mining).into();
    assert!(!patterns.is_empty());

    let blob = encode_model(&out.regions, &patterns);
    let restored = decode_model(&blob).expect("valid blob");

    let original = HybridPredictor::from_parts(out.regions, patterns, HpmConfig::default());
    let reloaded =
        HybridPredictor::from_parts(restored.regions, restored.patterns, HpmConfig::default());

    let queries = make_workload(
        &traj,
        PERIOD,
        &WorkloadParams {
            train_subs: 40,
            recent_len: 20,
            prediction_length: 50,
            num_queries: 25,
        },
    );
    for q in &queries {
        let a = original.predict(&q.as_query());
        let b = reloaded.predict(&q.as_query());
        assert_eq!(a, b, "prediction diverged after persistence");
    }
}

#[test]
fn blob_size_is_compact() {
    // The codec should spend far less than the naive 16-byte-per-id
    // layout: regions dominate (~56 bytes each), patterns a handful of
    // bytes each thanks to varints + delta coding.
    let traj = paper_dataset(PaperDataset::Airplane, 8).generate_subs(40);
    let out = discover(
        &traj,
        &DiscoveryParams {
            period: PERIOD,
            eps: 30.0,
            min_pts: 4,
        },
    );
    let patterns: PatternTable = mine(
        &out.regions,
        &out.visits,
        &MiningParams {
            min_support: 4,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 8,
            max_span: 64,
        },
    )
    .into();
    let blob = encode_model(&out.regions, &patterns);
    let per_pattern =
        (blob.len() as f64 - out.regions.len() as f64 * 56.0) / patterns.len().max(1) as f64;
    assert!(
        per_pattern < 20.0,
        "{} bytes for {} patterns ({per_pattern:.1} B/pattern)",
        blob.len(),
        patterns.len()
    );
}

#[test]
fn empty_pattern_model_round_trips() {
    // A trained-but-patternless model (regions exist, mining found no
    // rules) is a legal state: it must persist and restore, and the
    // restored predictor must answer exactly like the original (pure
    // motion-function fallback).
    let traj = paper_dataset(PaperDataset::Cow, 17).generate_subs(20);
    let train = training_slice(&traj, PERIOD, 12);
    let out = discover(
        &train,
        &DiscoveryParams {
            period: PERIOD,
            eps: 30.0,
            min_pts: 4,
        },
    );
    // Impossible support floor: mining legitimately yields nothing.
    let patterns: PatternTable = mine(
        &out.regions,
        &out.visits,
        &MiningParams {
            min_support: u32::MAX,
            min_confidence: 0.99,
            max_premise_len: 2,
            max_premise_gap: 8,
            max_span: 64,
        },
    )
    .into();
    assert!(patterns.is_empty());

    let blob = encode_model(&out.regions, &patterns);
    let restored = decode_model(&blob).expect("empty-pattern blob must decode");
    assert!(restored.patterns.is_empty());
    assert_eq!(restored.regions.all(), out.regions.all());

    let original = HybridPredictor::from_parts(out.regions, patterns, HpmConfig::default());
    let reloaded =
        HybridPredictor::from_parts(restored.regions, restored.patterns, HpmConfig::default());
    let queries = make_workload(
        &traj,
        PERIOD,
        &WorkloadParams {
            train_subs: 12,
            recent_len: 10,
            prediction_length: 30,
            num_queries: 10,
        },
    );
    for q in &queries {
        assert_eq!(
            original.predict(&q.as_query()),
            reloaded.predict(&q.as_query()),
            "patternless prediction diverged after persistence"
        );
    }
}

#[test]
fn untrained_objects_survive_a_snapshot_file_on_disk() {
    // The store-level cycle through an actual snapshot file: trained
    // and untrained objects alike must come back exactly — including
    // an object with less than one full period of history.
    use hybrid_prediction_model::geo::Point;
    use hybrid_prediction_model::objectstore::{
        DurabilityConfig, MovingObjectStore, ObjectId, StoreConfig,
    };
    use hybrid_prediction_model::patterns::{DiscoveryParams, MiningParams};

    let config = StoreConfig {
        discovery: DiscoveryParams {
            period: 4,
            eps: 2.0,
            min_pts: 3,
        },
        mining: MiningParams {
            min_support: 2,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 3,
        },
        hpm: HpmConfig {
            k: 2,
            distant_threshold: 3,
            time_relaxation: 1,
            match_margin: 5.0,
            rmf_retrospect: 2,
            ..HpmConfig::default()
        },
        min_train_subs: 3,
        retrain_every_subs: 1,
        recent_len: 2,
        shards: 2,
        threads: 1,
        index: hpm_objectstore::IndexConfig::default(),
    };
    let dir = std::env::temp_dir().join(format!("hpm-persist-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let store = MovingObjectStore::open(config.clone(), DurabilityConfig::new(&dir)).unwrap();
    // Object 1: trained (4 full periods of a commuter loop).
    for d in 0..4u64 {
        for t in 0..4u64 {
            store
                .report(ObjectId(1), d * 4 + t, Point::new(t as f64 * 40.0, 0.0))
                .unwrap();
        }
    }
    // Object 2: untrained, sub-period history (2 samples).
    store
        .report(ObjectId(2), 100, Point::new(1.0, 2.0))
        .unwrap();
    store
        .report(ObjectId(2), 101, Point::new(3.0, 4.0))
        .unwrap();
    let trained = store.stats(ObjectId(1)).unwrap();
    assert!(trained.trained_periods > 0);
    let untrained = store.stats(ObjectId(2)).unwrap();
    assert_eq!(untrained.trained_periods, 0);

    // Cut a snapshot, then reopen from ONLY the snapshot (the WAL is
    // rotated into it, so fresh segments are empty).
    assert!(store.snapshot().unwrap());
    let p1 = store.predict(ObjectId(1), 20).unwrap();
    drop(store);

    let reopened = MovingObjectStore::open(config, DurabilityConfig::new(&dir)).unwrap();
    assert_eq!(reopened.object_count(), 2);
    // approx_bytes is capacity-based and may legitimately differ after
    // recovery; compare the logical fields.
    let logical = |mut s: hybrid_prediction_model::objectstore::ObjectStats| {
        s.approx_bytes = 0;
        s
    };
    assert_eq!(
        logical(reopened.stats(ObjectId(1)).unwrap()),
        logical(trained)
    );
    assert_eq!(
        logical(reopened.stats(ObjectId(2)).unwrap()),
        logical(untrained)
    );
    assert_eq!(reopened.predict(ObjectId(1), 20).unwrap(), p1);
    // The untrained object keeps accumulating where it left off.
    reopened
        .report(ObjectId(2), 102, Point::new(5.0, 6.0))
        .unwrap();
    assert_eq!(reopened.stats(ObjectId(2)).unwrap().samples, 3);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
