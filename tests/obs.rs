//! Observability integration tests: a full predict over an in-tree
//! fixture must add one latency sample to each documented span and
//! move the dispatch counters, and stay within the hot-path span budget
//! (the regression guard for "someone added a span per candidate").

use hybrid_prediction_model::core::eval::{EvalQuery, Record};
use hybrid_prediction_model::core::{
    metrics as core_metrics, HpmConfig, HybridPredictor, PredictiveQuery,
};
use hybrid_prediction_model::geo::Point;
use hybrid_prediction_model::objectstore::{IndexConfig, MovingObjectStore, ObjectId, StoreConfig};
use hybrid_prediction_model::obs;
use hybrid_prediction_model::patterns::{
    metrics as patterns_metrics, DiscoveryParams, MiningParams,
};
use hybrid_prediction_model::trajectory::Trajectory;
use std::collections::BTreeMap;

/// Samples per span: every latency (unit ns) histogram is a span's, and
/// each closed span adds one sample to it.
fn span_samples() -> BTreeMap<String, u64> {
    obs::snapshot()
        .histograms
        .into_iter()
        .filter(|h| h.unit == obs::Unit::Nanos)
        .map(|h| (h.name, h.count))
        .collect()
}

/// Runs `f` and returns its result with the span samples it added, by
/// span name (spans it did not open are left out).
fn spans_added<R>(f: impl FnOnce() -> R) -> (R, BTreeMap<String, u64>) {
    let before = span_samples();
    let result = f();
    let added = span_samples()
        .into_iter()
        .map(|(name, after)| {
            let added = after - before.get(&name).copied().unwrap_or(0);
            (name, added)
        })
        .filter(|&(_, added)| added > 0)
        .collect();
    (result, added)
}

/// 40 days of a period-3 commute (home → road → work) with jitter —
/// the same shape as the crate-level doctest, small enough to build in
/// milliseconds but dense enough to mine patterns from.
fn commuter() -> HybridPredictor {
    let mut pts = Vec::new();
    for day in 0..40 {
        let j = (day % 3) as f64 * 0.1;
        pts.push(Point::new(j, 0.0));
        pts.push(Point::new(50.0 + j, 0.0));
        pts.push(Point::new(100.0 + j, 0.0));
    }
    HybridPredictor::build(
        &Trajectory::from_points(pts),
        &DiscoveryParams {
            period: 3,
            eps: 2.0,
            min_pts: 3,
        },
        &MiningParams {
            min_support: 4,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 2,
        },
        HpmConfig {
            match_margin: 2.0,
            ..HpmConfig::default()
        },
    )
}

fn near_query(recent: &[Point]) -> PredictiveQuery<'_> {
    PredictiveQuery {
        recent,
        current_time: 120,
        query_time: 122,
    }
}

#[test]
fn predict_emits_expected_span_tree_and_dispatch_counter() {
    let _guard = obs::serial();
    let predictor = commuter();
    core_metrics::register();
    obs::enable();
    let fqp_before = obs::snapshot().counter(core_metrics::FQP_DISPATCH).unwrap();
    let recent = [Point::new(0.0, 0.0)];
    let (prediction, spans) = spans_added(|| predictor.predict(&near_query(&recent)));
    obs::disable();

    assert!(prediction.from_patterns());

    // The spans mirror the call structure: predict wraps the FQP stage,
    // which searches the TPT and then ranks candidates; BQP never runs.
    for span in [
        core_metrics::PREDICT_SPAN,
        core_metrics::FQP_SPAN,
        "tpt.search",
        core_metrics::RANK_SPAN,
    ] {
        assert_eq!(spans.get(span), Some(&1), "{span}: {spans:?}");
    }
    assert_eq!(spans.get(core_metrics::BQP_SPAN), None, "{spans:?}");

    // Exactly one near query dispatched to the FQP arm.
    let snap = obs::snapshot();
    assert_eq!(
        snap.counter(core_metrics::FQP_DISPATCH).unwrap() - fqp_before,
        1
    );
    // The TPT search counters moved with it.
    assert!(snap.counter("tpt.search.nodes_visited").unwrap() > 0);
}

#[test]
fn span_budget_stays_flat() {
    let _guard = obs::serial();
    let predictor = commuter();
    obs::enable();
    let recent = [Point::new(0.0, 0.0)];
    let (_, spans) = spans_added(|| predictor.predict(&near_query(&recent)));
    obs::disable();
    let total: u64 = spans.values().sum();
    // One predict currently opens 4 spans (predict, fqp, tpt.search,
    // rank). The budget leaves room for one more stage; per-candidate
    // or per-node spans would blow straight past it.
    assert!(total >= 4, "unexpectedly few spans: {spans:?}");
    assert!(
        total <= 6,
        "hot-path span budget exceeded ({total}): {spans:?}"
    );
}

#[test]
fn fallback_path_counts_rmf() {
    let _guard = obs::serial();
    let predictor = commuter();
    core_metrics::register();
    obs::enable();
    let rmf_before = obs::snapshot().counter(core_metrics::RMF_FALLBACK).unwrap();
    // Recent movements far outside every frequent region: no premise,
    // FQP declines, the motion function answers.
    let recent = [Point::new(900.0, 900.0), Point::new(905.0, 900.0)];
    let prediction = predictor.predict(&near_query(&recent));
    obs::disable();
    assert!(!prediction.from_patterns());
    let snap = obs::snapshot();
    assert_eq!(
        snap.counter(core_metrics::RMF_FALLBACK).unwrap() - rmf_before,
        1
    );
}

/// An evaluation pass predicts each query exactly once, whatever the
/// path — near, distant, fallback; every metric is then a reduction
/// over the record, which holds no predictor to call again.
#[test]
fn an_evaluation_pass_predicts_each_query_once() {
    let _guard = obs::serial();
    let predictor = commuter();
    core_metrics::register();
    obs::enable();
    let calls = || obs::snapshot().counter(core_metrics::PREDICT_CALLS);
    let queries: Vec<EvalQuery> = [(0.0, 2), (0.0, 90), (900.0, 2)]
        .into_iter()
        .cycle()
        .take(7)
        .map(|(x, steps)| EvalQuery {
            recent: vec![Point::new(x, 0.0)],
            current_time: 120,
            query_time: 120 + steps,
            truth: Point::new(100.0, 0.0),
        })
        .collect();
    let before = calls().unwrap();
    let record = Record::of(&predictor, &queries, 1000.0);
    let made = calls().unwrap() - before;
    obs::disable();
    assert_eq!(made, queries.len() as u64);
    // The workload reaches all three paths.
    assert!(record.sources().iter().all(|&(n, _)| n > 0));
}

#[test]
fn disabled_mode_captures_nothing() {
    let _guard = obs::serial();
    let predictor = commuter();
    obs::disable();
    let recent = [Point::new(0.0, 0.0)];
    let (prediction, spans) = spans_added(|| predictor.predict(&near_query(&recent)));
    assert!(prediction.from_patterns(), "prediction itself unaffected");
    assert!(spans.is_empty(), "disabled mode recorded spans: {spans:?}");
}

/// A store trains through the same functions `HybridPredictor::build`
/// does, so its first training shows up under `patterns.*` — the names
/// an operator reads off a served registry.
#[test]
fn store_first_training_fires_the_patterns_spans() {
    let _guard = obs::serial();
    let store = MovingObjectStore::new(StoreConfig {
        discovery: DiscoveryParams {
            period: 3,
            eps: 2.0,
            min_pts: 3,
        },
        mining: MiningParams {
            min_support: 4,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 2,
        },
        hpm: HpmConfig::default(),
        min_train_subs: 10,
        retrain_every_subs: 10,
        recent_len: 3,
        shards: 1,
        threads: 1,
        index: IndexConfig::default(),
    });
    let days: Vec<Point> = (0..10)
        .flat_map(|day| {
            let j = (day % 3) as f64 * 0.1;
            [0.0, 50.0, 100.0].map(|x| Point::new(x + j, 0.0))
        })
        .collect();
    obs::enable();
    let (_, spans) = spans_added(|| store.report_batch(ObjectId(1), 0, &days).unwrap());
    obs::disable();
    assert!(
        store.stats(ObjectId(1)).unwrap().patterns > 0,
        "did not train"
    );
    for span in [
        patterns_metrics::DISCOVER_SPAN,
        patterns_metrics::RULES_SPAN,
    ] {
        assert!(spans.contains_key(span), "{span} did not fire: {spans:?}");
    }
}
