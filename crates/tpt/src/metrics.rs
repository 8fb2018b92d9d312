//! Metric names this crate emits, and their registration.
//!
//! Search cost is the paper's own index metric (Fig. 11b counts nodes
//! visited per query); the counters here expose the same quantities in
//! production. All names follow the workspace `crate.module.op`
//! convention and are catalogued in `docs/OBSERVABILITY.md`.

use crate::SearchStats;

hpm_obs::catalog! {
    /// Latency span (and histogram, unit `ns`) around every TPT search.
    span SEARCH_SPAN = "tpt.search";
    /// Searches executed.
    counter SEARCH_CALLS = "tpt.search.calls";
    /// Tree nodes whose entries were examined, summed over searches.
    counter SEARCH_NODES_VISITED = "tpt.search.nodes_visited";
    /// Entry keys tested against a query key, summed over searches.
    counter SEARCH_ENTRIES_CHECKED = "tpt.search.entries_checked";
    /// Signature false hits: leaf entries reached whose key did not
    /// intersect the query (see [`SearchStats::false_hits`]).
    counter SEARCH_FALSE_HITS = "tpt.search.false_hits";
    /// Matches returned per search (histogram, unit `count`).
    histogram[Count] SEARCH_MATCHES = "tpt.search.matches";
    /// Latency span (and histogram, unit `ns`) around
    /// [`PackedTpt::bulk_load`] packing the image over its rows.
    ///
    /// [`PackedTpt::bulk_load`]: crate::PackedTpt::bulk_load
    span REPACK_SPAN = "tpt.repack";
    /// Packed images built (one per `bulk_load` call).
    counter REPACK_CALLS = "tpt.repack.calls";
    /// Arena bytes of the most recently built packed image (gauge; with
    /// one image per object this tracks the last build, not a sum).
    gauge PACKED_ARENA_BYTES = "tpt.packed.arena_bytes";
}

/// Publishes one search's [`SearchStats`] to the counters.
pub(crate) fn record_search(stats: &SearchStats, matches: usize) {
    if !hpm_obs::enabled() {
        return;
    }
    hpm_obs::counter!(SEARCH_CALLS).add(1);
    hpm_obs::counter!(SEARCH_NODES_VISITED).add(stats.nodes_visited as u64);
    hpm_obs::counter!(SEARCH_ENTRIES_CHECKED).add(stats.entries_checked as u64);
    hpm_obs::counter!(SEARCH_FALSE_HITS).add(stats.false_hits as u64);
    hpm_obs::histogram!(SEARCH_MATCHES).record(matches as u64);
}

/// Publishes one repack: bumps the call counter and points the arena
/// gauge at the fresh image's size.
pub(crate) fn record_repack(arena_bytes: usize) {
    if !hpm_obs::enabled() {
        return;
    }
    hpm_obs::counter!(REPACK_CALLS).add(1);
    hpm_obs::gauge!(PACKED_ARENA_BYTES).set(arena_bytes as i64);
}
