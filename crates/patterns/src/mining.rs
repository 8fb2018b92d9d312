//! Trajectory-pattern mining (§IV, second component): the parameters,
//! the one-call form, and the pruning-effect statistics.
//!
//! Transactions are the per-sub-trajectory region-visit sequences of
//! the [`VisitTable`]; [`SupportCounts`] counts every structurally
//! valid itemset in them and every frequent itemset of size ≥ 2 yields
//! exactly one rule — premise = all but the time-wise last region,
//! consequence = the last region. That bakes in the paper's two pruning
//! rules:
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

use crate::{PatternTable, RegionId, RegionSet, SupportCounts, Visit, VisitTable};
use std::collections::HashMap;

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

/// Mines the trajectory patterns of `visits` — sequences over
/// `regions` — in one call: counts the supports
/// ([`SupportCounts::rebuild`]) and derives the rules
/// ([`SupportCounts::derive`]).
///
/// Returns patterns in deterministic (itemset size, itemset) order;
/// every returned pattern satisfies
/// [`TrajectoryPattern::validate`](crate::TrajectoryPattern::validate).
///
/// # Panics
/// Panics when `params` are inconsistent (see [`MiningParams`]).
pub fn mine(regions: &RegionSet, visits: &VisitTable, params: &MiningParams) -> PatternTable {
    let _span = hpm_obs::span!(crate::metrics::MINE_SPAN);
    let patterns = counted(regions, visits, params).derive();
    hpm_obs::counter!(crate::metrics::MINE_PATTERNS).add(patterns.len() as u64);
    patterns
}

/// Mines and additionally reports the pruning-effect statistics.
pub fn prune_statistics(
    regions: &RegionSet,
    visits: &VisitTable,
    params: &MiningParams,
) -> (PatternTable, PruneStats) {
    let counts = counted(regions, visits, params);
    let patterns = counts.derive();
    let stats = PruneStats {
        pruned_rules: patterns.len(),
        unpruned_rules: count_unpruned_rules(&counts, visits),
    };
    (patterns, stats)
}

/// The support counts of `visits`.
fn counted(regions: &RegionSet, visits: &VisitTable, params: &MiningParams) -> SupportCounts {
    debug_assert!(
        visits
            .iter()
            .flatten()
            .all(|&(id, offset)| regions.get(id).offset == offset),
        "visits must be over `regions`"
    );
    let mut counts = SupportCounts::new(*params);
    counts.rebuild(visits);
    counts
}

/// Counts the rules an unpruned Apriori rule generator would emit from
/// the same frequent itemsets: for every itemset `S` (|S| ≥ 2) and
/// every non-empty proper subset `C ⊂ S` taken as consequence,
/// the rule `S∖C → C` counts when `supp(S)/supp(S∖C) ≥ min_confidence`.
///
/// `supp(S∖C)` for arbitrary subsets is not among the counts (they
/// only hold structurally valid itemsets), so subsets are recounted by
/// direct transaction scans, memoised per subset.
fn count_unpruned_rules(counts: &SupportCounts, visits: &VisitTable) -> usize {
    let mut subset_support: HashMap<Vec<RegionId>, u32> = HashMap::new();
    let mut count = 0usize;
    for (set, support) in counts.frequent_sets() {
        // Enumerate non-empty proper subsets as premise masks.
        for mask in 1..(1u32 << set.len()) - 1 {
            let premise = (0..set.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| set[i])
                .collect();
            let psupp = *subset_support
                .entry(premise)
                .or_insert_with_key(|p| transaction_support(visits, p));
            if psupp > 0 && support as f64 / psupp as f64 >= counts.params().min_confidence {
                count += 1;
            }
        }
    }
    count
}

/// Support of an arbitrary sorted itemset by scanning all transactions.
fn transaction_support(visits: &VisitTable, set: &[RegionId]) -> u32 {
    let mut n = 0;
    for seq in visits.iter() {
        if contains_sorted(seq, set) {
            n += 1;
        }
    }
    n
}

/// Whether sorted `haystack` (of region visits) contains sorted `needle`.
fn contains_sorted(haystack: &[Visit], needle: &[RegionId]) -> bool {
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
    use crate::TrajectoryPattern;

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
        let mut visit = |s: usize, id: u32| {
            visits.record(s, RegionId(id), regions.get(RegionId(id)).offset);
        };
        let mut s = 0;
        for _ in 0..5 {
            visit(s, 0);
            visit(s, 1);
            visit(s, 3);
            s += 1;
        }
        for _ in 0..4 {
            visit(s, 0);
            visit(s, 2);
            visit(s, 4);
            s += 1;
        }
        visit(s, 0);
        visit(s, 2);
        s += 1;
        visit(s, 1);
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

    fn ids(raw: &[u32]) -> Vec<RegionId> {
        raw.iter().map(|&i| RegionId(i)).collect()
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
        let patterns = mine(&regions, &visits, &params()).to_vec();
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
        let patterns = mine(&regions, &visits, &p).to_vec();
        // The 4-support mall→beach itemsets drop out.
        assert!(find(&patterns, &[0, 2], 4).is_none());
        assert!(find(&patterns, &[0, 1], 3).is_some());
    }

    #[test]
    fn min_confidence_filters() {
        let (regions, visits) = fig3();
        let mut p = params();
        p.min_confidence = 0.9;
        let patterns = mine(&regions, &visits, &p).to_vec();
        assert!(find(&patterns, &[0], 1).is_none(), "conf 0.5 filtered");
        assert!(find(&patterns, &[0, 1], 3).is_some(), "conf 1.0 kept");
    }

    #[test]
    fn max_span_blocks_distant_consequences() {
        let (regions, visits) = fig3();
        let mut p = params();
        p.max_span = 1;
        p.max_premise_gap = 1;
        let patterns = mine(&regions, &visits, &p).to_vec();
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
        let patterns = mine(&regions, &visits, &p).to_vec();
        assert!(patterns.iter().all(|p| p.premise_len() == 1));
        assert!(!patterns.is_empty());
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
        let support = |set: &[u32]| transaction_support(&visits, &ids(set)) as f64;
        let c_single = support(&[0, 1]) / support(&[0]);
        let c_multi = support(&[0, 1, 3]) / support(&[0]);
        assert!(c_multi <= c_single);
    }

    #[test]
    fn contains_sorted_cases() {
        let hay: Vec<Visit> = [1u32, 3, 5, 9].iter().map(|&i| (RegionId(i), i)).collect();
        assert!(contains_sorted(&hay, &ids(&[1, 5])));
        assert!(contains_sorted(&hay, &ids(&[9])));
        assert!(contains_sorted(&hay, &[]));
        assert!(!contains_sorted(&hay, &ids(&[2])));
        assert!(!contains_sorted(&hay, &ids(&[5, 10])));
        assert!(!contains_sorted(&[], &ids(&[1])));
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
