//! Metric names this crate emits, and their registration.
//!
//! A full training pass (§IV discovery, §V.A mining) runs rarely but
//! long; its spans let an operator see where one spends its time. They
//! sit inside the functions every trainer goes through — a batch
//! `HybridPredictor::build` and a store's first training or re-seed
//! alike. Names follow the workspace `crate.module.op` convention; the
//! full catalogue lives in `docs/OBSERVABILITY.md`.

hpm_obs::catalog! {
    /// Latency span around frequent-region discovery (periodic
    /// decomposition + per-offset DBSCAN): `cluster_offsets`.
    span DISCOVER_SPAN = "patterns.discover";
    /// Latency span around the one-call form, `mine`.
    span MINE_SPAN = "patterns.mine";
    /// Latency span around a from-scratch support count over complete
    /// visit sequences: `SupportCounts::rebuild`.
    span ITEMSETS_SPAN = "patterns.mine.itemsets";
    /// Latency span around deriving the rule list from the counts —
    /// once per training pass, full or delta: `SupportCounts::derive`.
    span RULES_SPAN = "patterns.mine.rules";

    /// Frequent regions discovered, summed over discovery runs.
    counter DISCOVER_REGIONS = "patterns.discover.regions";
    /// Trajectory patterns produced, summed over `mine` calls.
    counter MINE_PATTERNS = "patterns.mine.patterns";
}
