//! Metric names this crate emits, and their registration.
//!
//! Search cost is the paper's own index metric (Fig. 11b counts nodes
//! visited per query); the counters here expose the same quantities in
//! production. All names follow the workspace `crate.module.op`
//! convention and are catalogued in `docs/OBSERVABILITY.md`.

use crate::SearchStats;

/// Latency span (and histogram, unit `ns`) around every TPT search.
pub const SEARCH_SPAN: &str = "tpt.search";
/// Searches executed.
pub const SEARCH_CALLS: &str = "tpt.search.calls";
/// Tree nodes whose entries were examined, summed over searches.
pub const SEARCH_NODES_VISITED: &str = "tpt.search.nodes_visited";
/// Entry keys tested against a query key, summed over searches.
pub const SEARCH_ENTRIES_CHECKED: &str = "tpt.search.entries_checked";
/// Signature false hits: leaf entries reached whose key did not
/// intersect the query (see [`SearchStats::false_hits`]).
pub const SEARCH_FALSE_HITS: &str = "tpt.search.false_hits";
/// Matches returned per search (histogram, unit `count`).
pub const SEARCH_MATCHES: &str = "tpt.search.matches";
/// Latency span (and histogram, unit `ns`) around
/// [`PackedTpt::bulk_load`] sorting the entries and packing the image.
///
/// [`PackedTpt::bulk_load`]: crate::PackedTpt::bulk_load
pub const REPACK_SPAN: &str = "tpt.repack";
/// Packed images built (one per `bulk_load` call).
pub const REPACK_CALLS: &str = "tpt.repack.calls";
/// Arena bytes of the most recently built packed image (gauge; with
/// one image per object this tracks the last build, not a sum).
pub const PACKED_ARENA_BYTES: &str = "tpt.packed.arena_bytes";

/// Registers every metric above so snapshots cover them even before
/// the first search (zero-valued metrics are still listed).
pub fn register() {
    hpm_obs::registry().counter(SEARCH_CALLS);
    hpm_obs::registry().counter(SEARCH_NODES_VISITED);
    hpm_obs::registry().counter(SEARCH_ENTRIES_CHECKED);
    hpm_obs::registry().counter(SEARCH_FALSE_HITS);
    hpm_obs::registry().histogram(SEARCH_MATCHES, hpm_obs::Unit::Count);
    hpm_obs::registry().histogram(SEARCH_SPAN, hpm_obs::Unit::Nanos);
    hpm_obs::registry().counter(REPACK_CALLS);
    hpm_obs::registry().gauge(PACKED_ARENA_BYTES);
    hpm_obs::registry().histogram(REPACK_SPAN, hpm_obs::Unit::Nanos);
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
