//! Apriori trajectory-pattern mining (§IV, second component).
//!
//! Transactions are the per-sub-trajectory region-visit sequences of
//! the [`VisitTable`]; frequent itemsets are mined
//! level-wise and every frequent itemset of size ≥ 2 yields exactly one
//! rule — premise = all but the time-wise last region, consequence =
//! the last region. That bakes in the paper's two pruning rules:
//!
//! * **time monotonicity** — premises strictly increase in time and the
//!   consequence is strictly last (no predicting the past from the
//!   future);
//! * **single-item consequences** — Theorem 1: a multi-consequence rule
//!   has confidence ≤ its single-consequence sibling and is never
//!   selected, so it is never generated.
//!
//! [`prune_statistics`] quantifies the effect by counting the rules an
//! *unpruned* Apriori rule generator would emit (all non-empty proper
//! subsets as consequences) against what [`mine`] emits — the paper
//! reports ≈ 58 % fewer patterns.
//!
//! Two structural knobs bound the otherwise quadratic-and-worse blowup
//! on long transactions (a sub-trajectory can visit a region at every
//! one of its `T` offsets): `max_premise_gap` limits the offset gap
//! between consecutive premise regions (query premises come from a
//! short window of *recent* movements, §V.C), and `max_span` limits the
//! premise-start → consequence distance (longer horizons are served by
//! BQP's consequence-time search, not by longer premises).

use crate::{FxBuildHasher, RegionId, RegionSet, TrajectoryPattern, VisitTable};
use hpm_trajectory::TimeOffset;
use std::collections::HashMap;

/// Itemset key: region ids in ascending (time) order.
type Itemset = Box<[u32]>;
/// Support counts per itemset at one level.
type Counts = HashMap<Itemset, u32, FxBuildHasher>;

/// Knobs of the mining stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiningParams {
    /// Minimum number of sub-trajectories an itemset must occur in.
    pub min_support: u32,
    /// Minimum rule confidence (§VII.A default 0.3).
    pub min_confidence: f64,
    /// Maximum premise length `m` (itemsets up to `m + 1` regions).
    pub max_premise_len: usize,
    /// Maximum offset gap between consecutive premise regions.
    pub max_premise_gap: u32,
    /// Maximum offset distance from the first premise region to the
    /// consequence.
    pub max_span: u32,
}

impl MiningParams {
    /// Paper-flavoured defaults: `min_support = 4` (mirrors
    /// `MinPts`), `min_confidence = 0.3` (§VII.A), premises of up to 2
    /// regions at most 8 offsets apart, consequences within 64 offsets
    /// (beyond the paper's distant-time threshold `d = 60`).
    pub fn paper_defaults() -> Self {
        MiningParams {
            min_support: 4,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 8,
            max_span: 64,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.min_support >= 1, "min_support must be >= 1");
        assert!(
            (0.0..=1.0).contains(&self.min_confidence),
            "min_confidence must be in [0, 1]"
        );
        assert!(self.max_premise_len >= 1, "max_premise_len must be >= 1");
        assert!(self.max_span >= 1, "max_span must be >= 1");
        // Guarantees every premise of a valid itemset is itself a valid
        // (and therefore counted) itemset: the premise's own span is at
        // most (len-1) gaps of max_premise_gap each.
        assert!(
            self.max_premise_len.saturating_sub(1) as u32 * self.max_premise_gap <= self.max_span,
            "(max_premise_len - 1) * max_premise_gap must not exceed max_span"
        );
    }
}

/// Pruning-effect statistics (the §IV "58 % of trajectory patterns were
/// reduced" claim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneStats {
    /// Rules [`mine`] emits (pruned generator).
    pub pruned_rules: usize,
    /// Rules a full Apriori rule generator would emit from the same
    /// frequent itemsets: every non-empty proper subset as consequence,
    /// still subject to `min_confidence`.
    pub unpruned_rules: usize,
}

impl PruneStats {
    /// Fraction of rules removed by the two pruning rules.
    pub fn reduction(&self) -> f64 {
        if self.unpruned_rules == 0 {
            0.0
        } else {
            1.0 - self.pruned_rules as f64 / self.unpruned_rules as f64
        }
    }
}

/// Mines trajectory patterns from the visit sequences.
///
/// Returns patterns in deterministic (level, itemset) order; every
/// returned pattern satisfies [`TrajectoryPattern::validate`].
///
/// # Panics
/// Panics when `params` are inconsistent (see [`MiningParams`]).
pub fn mine(
    regions: &RegionSet,
    visits: &VisitTable,
    params: &MiningParams,
) -> Vec<TrajectoryPattern> {
    params.validate();
    let _span = hpm_obs::span!(crate::metrics::MINE_SPAN);
    let levels = frequent_itemsets(regions, visits, params);
    let patterns = {
        let _span = hpm_obs::span!(crate::metrics::RULES_SPAN);
        generate_rules(&levels, params.min_confidence)
    };
    hpm_obs::counter!(crate::metrics::MINE_PATTERNS).add(patterns.len() as u64);
    patterns
}

/// Mines and additionally reports the pruning-effect statistics.
pub fn prune_statistics(
    regions: &RegionSet,
    visits: &VisitTable,
    params: &MiningParams,
) -> (Vec<TrajectoryPattern>, PruneStats) {
    params.validate();
    let levels = frequent_itemsets(regions, visits, params);
    let patterns = generate_rules(&levels, params.min_confidence);
    let stats = PruneStats {
        pruned_rules: patterns.len(),
        unpruned_rules: count_unpruned_rules(&levels, visits, params.min_confidence),
    };
    (patterns, stats)
}

/// Level-wise frequent-itemset mining. `result[k-1]` holds the
/// frequent itemsets of size `k` with their supports.
fn frequent_itemsets(
    regions: &RegionSet,
    visits: &VisitTable,
    params: &MiningParams,
) -> Vec<Counts> {
    let _span = hpm_obs::span!(crate::metrics::ITEMSETS_SPAN);
    let max_len = params.max_premise_len + 1;

    // Level 1: count singles.
    let mut c1: Counts = Counts::default();
    for seq in visits.iter() {
        for &id in seq {
            *c1.entry(Box::new([id.0])).or_insert(0) += 1;
        }
    }
    c1.retain(|_, &mut n| n >= params.min_support);

    // Transactions restricted to frequent regions, with offsets.
    let txs: Vec<Vec<(u32, TimeOffset)>> = visits
        .iter()
        .map(|seq| {
            seq.iter()
                .filter(|id| c1.contains_key([id.0].as_slice()))
                .map(|&id| (id.0, regions.get(id).offset))
                .collect()
        })
        .collect();

    let mut levels = vec![c1];
    for k in 2..=max_len {
        let mut ck = count_level(&txs, k, params, &levels);
        ck.retain(|_, &mut n| n >= params.min_support);
        if ck.is_empty() {
            break;
        }
        levels.push(ck);
    }
    if hpm_obs::enabled() {
        for counts in &levels {
            hpm_obs::histogram!(crate::metrics::MINE_LEVEL_ITEMSETS).record(counts.len() as u64);
        }
    }
    levels
}

/// Counts level-`k` itemset occurrences over a transaction slice.
fn count_level(
    txs: &[Vec<(u32, TimeOffset)>],
    k: usize,
    params: &MiningParams,
    levels: &[Counts],
) -> Counts {
    let mut ck: Counts = Counts::default();
    let mut stack: Vec<u32> = Vec::with_capacity(k);
    for tx in txs {
        if tx.len() < k {
            continue;
        }
        for start in 0..=tx.len() - k {
            stack.clear();
            stack.push(tx[start].0);
            extend(tx, start, start, k, params, levels, &mut stack, &mut ck);
        }
    }
    ck
}

/// Depth-first extension of `stack` — a frequent prefix anchored at
/// `tx[anchor]` whose last item sits at `tx[last]` — up to length `k`,
/// incrementing `out` for every completed, structurally valid itemset.
/// `levels[d - 1]` holds the frequent itemsets of size `d`; only
/// frequent prefixes are extended (Apriori pruning).
#[allow(clippy::too_many_arguments)]
fn extend(
    tx: &[(u32, TimeOffset)],
    anchor: usize,
    last: usize,
    k: usize,
    params: &MiningParams,
    levels: &[Counts],
    stack: &mut Vec<u32>,
    out: &mut Counts,
) {
    let depth = stack.len();
    let anchor_off = tx[anchor].1;
    let last_off = tx[last].1;
    for next in last + 1..tx.len() {
        let (id, off) = tx[next];
        debug_assert!(off >= last_off);
        if off == last_off {
            continue; // same offset cannot co-occur; skip defensively
        }
        if off - anchor_off > params.max_span {
            break; // offsets ascend: nothing further can qualify
        }
        if depth + 1 == k {
            // Final (consequence) item: only the span constraint applies.
            stack.push(id);
            *out.entry(stack[..].into()).or_insert(0) += 1;
            stack.pop();
        } else {
            // Premise item: must respect the premise gap, and the grown
            // prefix must itself be frequent.
            if off - last_off > params.max_premise_gap {
                continue;
            }
            stack.push(id);
            if levels[depth].contains_key(&stack[..]) {
                extend(tx, anchor, next, k, params, levels, stack, out);
            }
            stack.pop();
        }
    }
}

/// One rule per frequent itemset of size ≥ 2: premise = all but last,
/// consequence = last (maximal offset), filtered by confidence.
fn generate_rules(levels: &[Counts], min_confidence: f64) -> Vec<TrajectoryPattern> {
    let mut out = Vec::new();
    for k in 2..=levels.len() {
        let mut items: Vec<(&Itemset, u32)> = levels[k - 1].iter().map(|(s, &n)| (s, n)).collect();
        items.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (set, support) in items {
            let premise = &set[..k - 1];
            let premise_support = levels[k - 2][premise];
            debug_assert!(premise_support >= support);
            let confidence = support as f64 / premise_support as f64;
            if confidence >= min_confidence {
                out.push(TrajectoryPattern {
                    premise: premise.iter().map(|&id| RegionId(id)).collect(),
                    consequence: RegionId(set[k - 1]),
                    confidence,
                    support,
                });
            }
        }
    }
    out
}

/// Counts the rules an unpruned Apriori rule generator would emit from
/// the same frequent itemsets: for every itemset `S` (|S| ≥ 2) and
/// every non-empty proper subset `C ⊂ S` taken as consequence,
/// the rule `S∖C → C` counts when `supp(S)/supp(S∖C) ≥ min_confidence`.
///
/// `supp(S∖C)` for arbitrary subsets is not in the level tables (they
/// only hold structurally valid itemsets), so subsets are recounted by
/// direct transaction scans, memoised per subset.
fn count_unpruned_rules(levels: &[Counts], visits: &VisitTable, min_confidence: f64) -> usize {
    let mut subset_support: Counts = Counts::default();
    let mut count = 0usize;
    for level in levels.iter().skip(1) {
        for (set, &support) in level {
            let k = set.len();
            // Enumerate non-empty proper subsets as premise masks.
            for mask in 1..(1u32 << k) - 1 {
                let premise: Itemset = (0..k)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| set[i])
                    .collect();
                let psupp = *subset_support
                    .entry(premise)
                    .or_insert_with_key(|p| transaction_support(visits, p));
                if psupp > 0 && support as f64 / psupp as f64 >= min_confidence {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Support of an arbitrary sorted itemset by scanning all transactions.
fn transaction_support(visits: &VisitTable, set: &[u32]) -> u32 {
    let mut n = 0;
    for seq in visits.iter() {
        if contains_sorted(seq, set) {
            n += 1;
        }
    }
    n
}

/// Whether sorted `haystack` (of region ids) contains sorted `needle`.
fn contains_sorted(haystack: &[RegionId], needle: &[u32]) -> bool {
    let mut it = haystack.iter();
    'outer: for &want in needle {
        for got in it.by_ref() {
            match got.0.cmp(&want) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::test_region;

    /// Fig. 3's world: 5 regions over offsets 0..=2. 10 sub-trajectory
    /// transactions reproduce the paper's confidences:
    /// 9 × start at R0 (pattern key bit 0), of which
    ///   5 × [R0, R1⁰, R2⁰]   (city → work)
    ///   4 × [R0, R1¹, R2¹]   (mall → beach)
    /// plus 1 × [R0, R1¹] and 1 × [R1⁰] alone.
    fn fig3() -> (RegionSet, VisitTable) {
        let regions = RegionSet::new(
            vec![
                test_region(0, 0, 0, 0.0, 0.0),
                test_region(1, 1, 0, 10.0, 0.0),
                test_region(2, 1, 1, 0.0, 10.0),
                test_region(3, 2, 0, 20.0, 0.0),
                test_region(4, 2, 1, 0.0, 20.0),
            ],
            3,
        );
        let mut visits = VisitTable::with_subs(11);
        let mut s = 0;
        for _ in 0..5 {
            visits.record(s, RegionId(0));
            visits.record(s, RegionId(1));
            visits.record(s, RegionId(3));
            s += 1;
        }
        for _ in 0..4 {
            visits.record(s, RegionId(0));
            visits.record(s, RegionId(2));
            visits.record(s, RegionId(4));
            s += 1;
        }
        visits.record(s, RegionId(0));
        visits.record(s, RegionId(2));
        s += 1;
        visits.record(s, RegionId(1));
        (regions, visits)
    }

    fn params() -> MiningParams {
        MiningParams {
            min_support: 2,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 4,
        }
    }

    fn find<'a>(
        patterns: &'a [TrajectoryPattern],
        premise: &[u32],
        consequence: u32,
    ) -> Option<&'a TrajectoryPattern> {
        patterns.iter().find(|p| {
            p.consequence.0 == consequence
                && p.premise.iter().map(|r| r.0).eq(premise.iter().copied())
        })
    }

    #[test]
    fn fig3_confidences_reproduced() {
        let (regions, visits) = fig3();
        let patterns = mine(&regions, &visits, &params());
        // R0 --> R1⁰ with confidence 5/10.
        let p = find(&patterns, &[0], 1).expect("R0 -> R1^0");
        assert_eq!(p.support, 5);
        assert!((p.confidence - 0.5).abs() < 1e-12);
        // R0 --> R1¹ with confidence 5/10 (4 full runs + 1 partial).
        let p = find(&patterns, &[0], 2).expect("R0 -> R1^1");
        assert_eq!(p.support, 5);
        // R0 ∧ R1⁰ --> R2⁰ with confidence 5/5 = 1.0.
        let p = find(&patterns, &[0, 1], 3).expect("R0 ^ R1^0 -> R2^0");
        assert!((p.confidence - 1.0).abs() < 1e-12);
        // R0 ∧ R1¹ --> R2¹ with confidence 4/5 = 0.8.
        let p = find(&patterns, &[0, 2], 4).expect("R0 ^ R1^1 -> R2^1");
        assert!((p.confidence - 0.8).abs() < 1e-12);
        for p in &patterns {
            p.validate(&regions).unwrap();
        }
    }

    #[test]
    fn min_support_filters() {
        let (regions, visits) = fig3();
        let mut p = params();
        p.min_support = 5;
        let patterns = mine(&regions, &visits, &p);
        // The 4-support mall→beach itemsets drop out.
        assert!(find(&patterns, &[0, 2], 4).is_none());
        assert!(find(&patterns, &[0, 1], 3).is_some());
    }

    #[test]
    fn min_confidence_filters() {
        let (regions, visits) = fig3();
        let mut p = params();
        p.min_confidence = 0.9;
        let patterns = mine(&regions, &visits, &p);
        assert!(find(&patterns, &[0], 1).is_none(), "conf 0.5 filtered");
        assert!(find(&patterns, &[0, 1], 3).is_some(), "conf 1.0 kept");
    }

    #[test]
    fn max_span_blocks_distant_consequences() {
        let (regions, visits) = fig3();
        let mut p = params();
        p.max_span = 1;
        p.max_premise_gap = 1;
        let patterns = mine(&regions, &visits, &p);
        // Offset 0 -> 2 exceeds span 1; only adjacent-offset rules stay.
        assert!(find(&patterns, &[0], 3).is_none());
        assert!(find(&patterns, &[0], 1).is_some());
        assert!(find(&patterns, &[1], 3).is_some());
    }

    #[test]
    fn premise_len_1_only_pairs() {
        let (regions, visits) = fig3();
        let mut p = params();
        p.max_premise_len = 1;
        let patterns = mine(&regions, &visits, &p);
        assert!(patterns.iter().all(|p| p.premise_len() == 1));
        assert!(!patterns.is_empty());
    }

    #[test]
    fn all_mined_patterns_validate() {
        let (regions, visits) = fig3();
        for p in mine(&regions, &visits, &params()) {
            p.validate(&regions).unwrap();
        }
    }

    #[test]
    fn prune_stats_unpruned_is_larger() {
        let (regions, visits) = fig3();
        let (patterns, stats) = prune_statistics(&regions, &visits, &params());
        assert_eq!(stats.pruned_rules, patterns.len());
        // Unpruned generates reversed-time and multi-consequence rules
        // too, so it must be strictly larger here.
        assert!(stats.unpruned_rules > stats.pruned_rules);
        assert!(stats.reduction() > 0.0 && stats.reduction() < 1.0);
    }

    #[test]
    fn theorem1_multi_consequence_confidence_bound() {
        // Direct check of Theorem 1 on the mined supports: for the
        // itemset {R0, R1⁰, R2⁰}, conf(R0 -> R1⁰ ∧ R2⁰) ≤ conf(R0 -> R1⁰).
        let (_, visits) = fig3();
        let c_single = transaction_support(&visits, &[0, 1]) as f64
            / transaction_support(&visits, &[0]) as f64;
        let c_multi = transaction_support(&visits, &[0, 1, 3]) as f64
            / transaction_support(&visits, &[0]) as f64;
        assert!(c_multi <= c_single);
    }

    #[test]
    fn contains_sorted_cases() {
        let hay: Vec<RegionId> = [1u32, 3, 5, 9].iter().map(|&i| RegionId(i)).collect();
        assert!(contains_sorted(&hay, &[1, 5]));
        assert!(contains_sorted(&hay, &[9]));
        assert!(contains_sorted(&hay, &[]));
        assert!(!contains_sorted(&hay, &[2]));
        assert!(!contains_sorted(&hay, &[5, 10]));
        assert!(!contains_sorted(&[], &[1]));
    }

    #[test]
    fn empty_visits_no_patterns() {
        let (regions, _) = fig3();
        let visits = VisitTable::with_subs(5);
        assert!(mine(&regions, &visits, &params()).is_empty());
    }

    #[test]
    #[should_panic(expected = "min_support")]
    fn zero_support_panics() {
        let (regions, visits) = fig3();
        let mut p = params();
        p.min_support = 0;
        mine(&regions, &visits, &p);
    }

    #[test]
    #[should_panic(expected = "must not exceed max_span")]
    fn inconsistent_gap_span_panics() {
        let (regions, visits) = fig3();
        let mut p = params();
        p.max_premise_len = 10;
        p.max_premise_gap = 10;
        p.max_span = 10;
        mine(&regions, &visits, &p);
    }
}
