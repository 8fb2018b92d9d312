//! Allocation-count regression test for incremental support counting.
//!
//! Installs [`hpm_check::alloc::CountingAllocator`] as the global
//! allocator (hence a dedicated integration-test file with a single
//! test) and asserts that [`SupportCounts::record_tail`] touches the
//! allocator only to start tracking an itemset: counting one more
//! instance of itemsets it already tracks — every counted instance of
//! a steady-state retrain — allocates nothing.

use hpm_check::alloc::CountingAllocator;
use hpm_patterns::{MiningParams, RegionId, SupportCounts, Visit};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn counting_tracked_itemsets_is_allocation_free() {
    let mut counts = SupportCounts::new(MiningParams {
        min_support: 2,
        min_confidence: 0.3,
        max_premise_len: 3,
        max_premise_gap: 3,
        max_span: 8,
    });
    // Two routes over eight offsets, forking at offset 3.
    let routes: [Vec<Visit>; 2] = [
        (0..8).map(|t| (RegionId(t), t)).collect(),
        (0..8)
            .map(|t| (RegionId(if t < 3 { t } else { t + 8 }), t))
            .collect(),
    ];
    let replay = |counts: &mut SupportCounts| {
        for tx in &routes {
            for end in 1..=tx.len() {
                counts.record_tail(&tx[..end]);
            }
        }
    };
    replay(&mut counts);
    let tracked = counts.tracked_itemsets();
    assert!(tracked > 100, "fixture too thin: {tracked} itemsets");

    // The counter is process-global, so the libtest harness thread can
    // inject the odd stray allocation into a window; a per-instance
    // allocation would show in every window, thousands of times.
    let grew = (0..8)
        .map(|_| {
            let before = ALLOC.allocations();
            for _ in 0..16 {
                replay(&mut counts);
            }
            ALLOC.allocations() - before
        })
        .min()
        .unwrap();
    assert_eq!(
        grew, 0,
        "re-counting tracked itemsets allocated {grew} times"
    );
    assert_eq!(counts.tracked_itemsets(), tracked);
}
