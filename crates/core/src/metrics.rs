//! Metric names this crate emits, and their registration.
//!
//! The dispatch counters make §VI's three-way split observable in
//! production: every [`crate::HybridPredictor::predict`] call lands in
//! exactly one of `fqp_dispatch` (Algorithm 2, prediction length below
//! the distant threshold `d`), `bqp_dispatch` (Algorithm 3, at or
//! beyond `d`), or — whenever no pattern qualified — `rmf_fallback`
//! (the Recursive Motion Function). Names follow the workspace
//! `crate.module.op` convention; the full catalogue lives in
//! `docs/OBSERVABILITY.md`.

hpm_obs::catalog! {
    #![extends(hpm_tpt::metrics::register)]

    /// Latency span around the whole `predict` call.
    span PREDICT_SPAN = "core.predict";
    /// Latency span around FQP retrieval + scoring (Algorithm 2).
    span FQP_SPAN = "core.fqp";
    /// Latency span around BQP retrieval + scoring (Algorithm 3).
    span BQP_SPAN = "core.bqp";
    /// Latency span around similarity ranking (Eq. 2 / Eq. 5 sort +
    /// distinct-consequence top-k), shared by FQP and BQP.
    span RANK_SPAN = "core.rank";
    /// Latency span around applying a retrain result to the live index
    /// ([`crate::HybridPredictor::apply_update`]: the image kept as it
    /// is, or re-assembly from the pattern list).
    span APPLY_UPDATE_SPAN = "core.apply_update";
    /// Latency span around the region-discovery phase of a training pass
    /// ([`crate::TrainerState::retrain`]): a fold's DBSCAN insertions and
    /// the support-count tails of the visits they record, or a whole
    /// trainer seed (decomposition, batch DBSCAN, support-count rebuild).
    /// A drift records both. (`objectstore.`-prefixed: the name predates
    /// the verb's move out of the store.)
    span RETRAIN_DISCOVER_SPAN = "objectstore.retrain.discover";
    /// Latency span around the pattern-mining phase of a training pass:
    /// deriving the rule list from the support counts.
    span RETRAIN_MINE_SPAN = "objectstore.retrain.mine";
    /// Latency span around the TPT phase of a training pass (region
    /// summaries + a confidence patch, or a bulk load + one repack).
    span RETRAIN_TPT_SPAN = "objectstore.retrain.tpt";

    /// Predictive queries answered.
    counter PREDICT_CALLS = "core.predict.calls";
    /// Queries routed to Forward Query Processing.
    counter FQP_DISPATCH = "core.predict.fqp_dispatch";
    /// Queries routed to Backward Query Processing.
    counter BQP_DISPATCH = "core.predict.bqp_dispatch";
    /// Queries answered by the motion-function fallback (no pattern
    /// qualified on the dispatched path).
    counter RMF_FALLBACK = "core.predict.rmf_fallback";
    /// BQP interval widenings beyond the first round (Algorithm 3
    /// line 8's `i` minus one, summed over queries).
    counter BQP_WIDENINGS = "core.bqp.widenings";

    /// FQP candidate-set size per query (histogram, unit `count`).
    histogram[Count] FQP_CANDIDATES = "core.fqp.candidates";
    /// BQP candidate-set size per query (histogram, unit `count`).
    histogram[Count] BQP_CANDIDATES = "core.bqp.candidates";
}
