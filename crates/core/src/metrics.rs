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

/// Latency span around the whole `predict` call.
pub const PREDICT_SPAN: &str = "core.predict";
/// Latency span around FQP retrieval + scoring (Algorithm 2).
pub const FQP_SPAN: &str = "core.fqp";
/// Latency span around BQP retrieval + scoring (Algorithm 3).
pub const BQP_SPAN: &str = "core.bqp";
/// Latency span around similarity ranking (Eq. 2 / Eq. 5 sort +
/// distinct-consequence top-k), shared by FQP and BQP.
pub const RANK_SPAN: &str = "core.rank";
/// Latency span around applying a retrain result to the live index
/// ([`crate::HybridPredictor::apply_update`]: confidence patches in
/// place, or re-assembly from the pattern list).
pub const APPLY_UPDATE_SPAN: &str = "core.apply_update";

/// Predictive queries answered.
pub const PREDICT_CALLS: &str = "core.predict.calls";
/// Queries routed to Forward Query Processing.
pub const FQP_DISPATCH: &str = "core.predict.fqp_dispatch";
/// Queries routed to Backward Query Processing.
pub const BQP_DISPATCH: &str = "core.predict.bqp_dispatch";
/// Queries answered by the motion-function fallback (no pattern
/// qualified on the dispatched path).
pub const RMF_FALLBACK: &str = "core.predict.rmf_fallback";
/// BQP interval widenings beyond the first round (Algorithm 3
/// line 8's `i` minus one, summed over queries).
pub const BQP_WIDENINGS: &str = "core.bqp.widenings";

/// FQP candidate-set size per query (histogram, unit `count`).
pub const FQP_CANDIDATES: &str = "core.fqp.candidates";
/// BQP candidate-set size per query (histogram, unit `count`).
pub const BQP_CANDIDATES: &str = "core.bqp.candidates";

/// Registers every metric above so snapshots cover them even before
/// the first query (zero-valued metrics are still listed).
pub fn register() {
    hpm_obs::registry().counter(PREDICT_CALLS);
    hpm_obs::registry().counter(FQP_DISPATCH);
    hpm_obs::registry().counter(BQP_DISPATCH);
    hpm_obs::registry().counter(RMF_FALLBACK);
    hpm_obs::registry().counter(BQP_WIDENINGS);
    hpm_obs::registry().histogram(FQP_CANDIDATES, hpm_obs::Unit::Count);
    hpm_obs::registry().histogram(BQP_CANDIDATES, hpm_obs::Unit::Count);
    for span in [
        PREDICT_SPAN,
        FQP_SPAN,
        BQP_SPAN,
        RANK_SPAN,
        APPLY_UPDATE_SPAN,
    ] {
        hpm_obs::registry().histogram(span, hpm_obs::Unit::Nanos);
    }
    hpm_tpt::metrics::register();
}
