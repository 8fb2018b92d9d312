//! Metric names this crate emits, and their registration.
//!
//! The offline pipeline (§IV discovery, §V.A mining) runs rarely but
//! long; its spans let an operator see where a retrain spends its
//! time. Names follow the workspace `crate.module.op` convention; the
//! full catalogue lives in `docs/OBSERVABILITY.md`.

hpm_obs::catalog! {
    /// Latency span around frequent-region discovery (periodic
    /// decomposition + per-offset DBSCAN).
    span DISCOVER_SPAN = "patterns.discover";
    /// Latency span around the whole mining call.
    span MINE_SPAN = "patterns.mine";
    /// Latency span around level-wise frequent-itemset counting (the
    /// Apriori passes), inside [`MINE_SPAN`].
    span ITEMSETS_SPAN = "patterns.mine.itemsets";
    /// Latency span around association-rule generation, inside
    /// [`MINE_SPAN`].
    span RULES_SPAN = "patterns.mine.rules";

    /// Frequent regions discovered, summed over discovery runs.
    counter DISCOVER_REGIONS = "patterns.discover.regions";
    /// Trajectory patterns produced, summed over mining runs.
    counter MINE_PATTERNS = "patterns.mine.patterns";
    /// Frequent itemsets surviving each Apriori level (histogram, unit
    /// `count`; one sample per level per mining run).
    histogram[Count] MINE_LEVEL_ITEMSETS = "patterns.mine.level_itemsets";
}
