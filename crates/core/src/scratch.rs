//! Reusable scratch buffers for the allocation-free predict hot path.
//!
//! Every transient a predictive query needs — the recent-region list,
//! the FQP search cursor, the query key (whose premise part is also
//! BQP's premise key), the score accumulator, the rank dedup set —
//! lives in one [`PredictScratch`] that the caller owns and reuses.
//! After a warmup query has grown each buffer to its high-water mark,
//! [`HybridPredictor::predict_with`] performs **zero heap allocations**
//! on the pattern paths (the motion-function fallback still allocates
//! inside the RMF least-squares fit — a cold path by construction,
//! taken only when no pattern qualifies). A regression test under
//! `tests/alloc.rs` holds this at exactly zero with a counting
//! allocator.
//!
//! [`HybridPredictor::predict_with`]: crate::HybridPredictor::predict_with

use hpm_patterns::RegionId;
use hpm_tpt::{PatternKey, SearchCursor};

/// Scratch for one predicting thread. Create once (cheap: everything
/// starts empty), pass to every
/// [`predict_with`](crate::HybridPredictor::predict_with) call.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    /// Deduplicated recent-region ids (the query premise of §V.C).
    pub(crate) recent_ids: Vec<RegionId>,
    /// Buffers used from query encoding onward.
    pub(crate) search: SearchScratch,
}

impl PredictScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        PredictScratch::default()
    }
}

/// The encode/search/rank buffers, split from the recent-id list so the
/// borrow checker can hand `recent_ids` and these out independently.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchScratch {
    /// FQP's TPT search cursor: match buffer + per-search stats.
    pub(crate) cursor: SearchCursor,
    /// The FQP query key; BQP uses only its premise part, the query
    /// premise key `rkq` of Eq. 5.
    pub(crate) qkey: PatternKey,
    /// `(pattern id, score)` accumulator for ranking.
    pub(crate) scored: Vec<(u32, f64)>,
    /// Consequence regions already emitted (top-`k` dedup).
    pub(crate) seen: Vec<RegionId>,
}
