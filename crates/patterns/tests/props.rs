//! Property-based invariants for discovery and pattern mining.
//!
//! The mining oracle is [`rules_by_definition`]: supports, thresholds,
//! confidences and order computed straight from the definitions over a
//! subset-mask enumeration of every visit sequence — no trie, no tail
//! counting, nothing shared with [`SupportCounts`].

use hpm_check::prelude::*;
use hpm_geo::Point;
use hpm_patterns::{
    discover, mine, prune_statistics, visits_against, DiscoveryParams, MiningParams, PatternTable,
    RegionId, SupportCounts, TrajectoryPattern, Visit, VisitTable,
};
use hpm_trajectory::Trajectory;
use std::collections::BTreeMap;

/// Support of every structurally valid itemset, by definition: each
/// subset of each visit sequence (regions are distinct within one, so
/// a subset is one itemset occurring once in that transaction) whose
/// premise — all but the last visit — is at most `max_premise_len`
/// long with consecutive gaps ≤ `max_premise_gap`, and whose last
/// visit is within `max_span` of its first.
fn supports_by_definition(visits: &VisitTable, mp: &MiningParams) -> BTreeMap<Vec<RegionId>, u32> {
    let mut supports = BTreeMap::new();
    for tx in visits.iter() {
        for mask in 1u32..1 << tx.len() {
            let picked: Vec<_> = (0..tx.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| tx[i])
                .collect();
            let (premise, last) = picked.split_at(picked.len() - 1);
            if premise.len() <= mp.max_premise_len
                && premise
                    .windows(2)
                    .all(|w| w[1].1 - w[0].1 <= mp.max_premise_gap)
                && last[0].1 - picked[0].1 <= mp.max_span
            {
                let set = picked.iter().map(|v| v.0).collect();
                *supports.entry(set).or_insert(0) += 1;
            }
        }
    }
    supports
}

/// The rule list, by definition: one rule per itemset of two or more
/// regions with support ≥ `min_support` — premise = all but the last
/// region — whose confidence `supp(itemset) / supp(premise)` is ≥
/// `min_confidence`, ordered by `(itemset size, region ids)`.
fn rules_by_definition(
    supports: &BTreeMap<Vec<RegionId>, u32>,
    mp: &MiningParams,
) -> Vec<TrajectoryPattern> {
    let mut sets: Vec<_> = supports
        .iter()
        .filter(|(set, &n)| set.len() >= 2 && n >= mp.min_support)
        .collect();
    sets.sort_by_key(|(set, _)| (set.len(), *set));
    let mut rules = Vec::new();
    for (set, &support) in sets {
        let (consequence, premise) = set.split_last().unwrap();
        let confidence = support as f64 / supports[premise] as f64;
        if confidence >= mp.min_confidence {
            rules.push(TrajectoryPattern {
                premise: premise.to_vec(),
                consequence: *consequence,
                confidence,
                support,
            });
        }
    }
    rules
}

/// A random "commuter": a few anchor spots per offset, each day picks
/// an anchor per offset with jitter — guaranteed periodic structure
/// with controllable branching.
fn arb_history() -> Gen<(Trajectory, u32)> {
    tuple((
        int(2u32..6),
        int(5usize..30),
        int(1usize..3),
        int(0u64..1000),
    ))
    .map(|(period, days, branches, seed)| {
        // Deterministic xorshift so the generator itself shrinks well.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pts = Vec::with_capacity(days * period as usize);
        for _ in 0..days {
            for t in 0..period {
                let branch = (next() % branches as u64) as f64;
                let jitter = (next() % 100) as f64 / 100.0;
                pts.push(Point::new(t as f64 * 50.0 + jitter, branch * 40.0 + jitter));
            }
        }
        (Trajectory::from_points(pts), period)
    })
}

fn params(period: u32) -> DiscoveryParams {
    DiscoveryParams {
        period,
        eps: 3.0,
        min_pts: 3,
    }
}

fn mining_params() -> MiningParams {
    MiningParams {
        min_support: 2,
        min_confidence: 0.1,
        max_premise_len: 2,
        max_premise_gap: 2,
        max_span: 4,
    }
}

props! {
    /// Discovery invariants: region ids dense and offset-sorted, visit
    /// sequences strictly ascending, supports equal to visit counts.
    fn discovery_invariants(history in arb_history()) {
        let (traj, period) = history;
        let out = discover(&traj, &params(period));
        let regions = &out.regions;
        let mut prev_offset = 0;
        for (i, r) in regions.all().iter().enumerate() {
            require_eq!(r.id.index(), i);
            require!(r.offset >= prev_offset);
            require!(r.offset < period);
            prev_offset = r.offset;
            require!(r.bbox.contains_within(&r.centroid, 1e-9));
        }
        let mut visit_counts = vec![0u32; regions.len()];
        for seq in out.visits.iter() {
            require!(seq.windows(2).all(|w| w[0] < w[1]), "non-ascending visits");
            for (id, offset) in seq {
                require_eq!(regions.get(*id).offset, *offset);
                visit_counts[id.index()] += 1;
            }
        }
        for r in regions.all() {
            require_eq!(r.support, visit_counts[r.id.index()]);
        }
    }

    /// Every mined pattern is Definition-1-valid, meets the thresholds,
    /// and its confidence matches a direct recount over transactions;
    /// the list as a whole is the one the definitions give.
    fn mined_patterns_are_sound(history in arb_history()) {
        let (traj, period) = history;
        let out = discover(&traj, &params(period));
        let mp = mining_params();
        let patterns = mine(&out.regions, &out.visits, &mp);
        require_eq!(
            patterns,
            rules_by_definition(&supports_by_definition(&out.visits, &mp), &mp)
        );
        for p in patterns.iter() {
            require_eq!(p.validate(&out.regions), Ok(()));
            require!(p.support >= mp.min_support);
            require!(p.confidence >= mp.min_confidence);
            // Recount premise and full-itemset support directly.
            let contains = |seq: &[Visit], ids: &[RegionId]| {
                ids.iter().all(|id| seq.iter().any(|visit| visit.0 == *id))
            };
            let full: Vec<RegionId> = p
                .premise
                .iter()
                .copied()
                .chain([p.consequence])
                .collect();
            let n_prem = out.visits.iter().filter(|s| contains(s, &p.premise)).count() as u32;
            let n_full = out.visits.iter().filter(|s| contains(s, &full)).count() as u32;
            require_eq!(p.support, n_full);
            require!((p.confidence - n_full as f64 / n_prem as f64).abs() < 1e-12);
        }
    }

    /// `PatternTable::into_key_order` is a stable sort of the rules by
    /// consequence offset, then premise ids compared from the last,
    /// then consequence id — from derive order and from its reverse
    /// alike, premises of up to four regions included.
    fn key_order_sorts_by_offset_then_premise_from_the_last(history in arb_history()) {
        let (traj, period) = history;
        let out = discover(&traj, &params(period));
        let mp = MiningParams {
            max_premise_len: 4,
            max_span: 8,
            ..mining_params()
        };
        let mut rules = mine(&out.regions, &out.visits, &mp).to_vec();
        let mut sorted = rules.clone();
        sorted.sort_by_key(|r| {
            let premise: Vec<RegionId> = r.premise.iter().rev().copied().collect();
            (out.regions.get(r.consequence).offset, premise, r.consequence)
        });
        require_eq!(PatternTable::from(rules.clone()).into_key_order(&out.regions), sorted);
        rules.reverse();
        require_eq!(PatternTable::from(rules).into_key_order(&out.regions), sorted);
    }

    /// Anti-monotonicity surfaced at the rule level: confidence never
    /// exceeds 1 and premise support bounds rule support.
    fn confidence_bounds(history in arb_history()) {
        let (traj, period) = history;
        let out = discover(&traj, &params(period));
        for p in mine(&out.regions, &out.visits, &mining_params()).iter() {
            require!(p.confidence > 0.0 && p.confidence <= 1.0);
        }
    }

    /// Raising min_support or min_confidence can only shrink the
    /// pattern set, and the survivors are exactly the qualifying ones.
    fn thresholds_are_monotone(history in arb_history()) {
        let (traj, period) = history;
        let out = discover(&traj, &params(period));
        let loose = mine(&out.regions, &out.visits, &mining_params());
        let strict_params = MiningParams {
            min_support: 4,
            min_confidence: 0.5,
            ..mining_params()
        };
        let strict = mine(&out.regions, &out.visits, &strict_params);
        require!(strict.len() <= loose.len());
        let expected: Vec<_> = loose
            .iter()
            .filter(|p| p.support >= 4 && p.confidence >= 0.5)
            .collect();
        require_eq!(strict, expected);
    }

    /// The pruned rule set never exceeds the unpruned universe.
    fn pruning_only_removes(history in arb_history()) {
        let (traj, period) = history;
        let out = discover(&traj, &params(period));
        let (patterns, stats) = prune_statistics(&out.regions, &out.visits, &mining_params());
        require_eq!(stats.pruned_rules, patterns.len());
        require!(stats.pruned_rules <= stats.unpruned_rules);
        let r = stats.reduction();
        require!((0.0..=1.0).contains(&r));
    }

    /// Re-mapping the training trajectory onto its own regions with
    /// zero margin reproduces the discovery visit table.
    fn visits_against_roundtrip(history in arb_history()) {
        let (traj, period) = history;
        let out = discover(&traj, &params(period));
        let remapped = visits_against(&traj, &out.regions, 0.0);
        require_eq!(remapped.len(), out.visits.len());
        for s in 0..remapped.len() {
            require_eq!(remapped.sequence(s), out.visits.sequence(s));
        }
    }

    // `SupportCounts` — grown visit by visit, and rebuilt from
    // scratch — derives *exactly* the rule list the definitions give:
    // same patterns, same order, bit-identical confidences, after every
    // single appended visit, including partially filled tail
    // transactions; and it tracks each structurally valid itemset once.
    // Its layout is a function of the counted itemsets alone: the grown
    // trie passes `validate` after every visit and equals the rebuilt
    // one node for node.
    // One draw in four is `wide` (drawn last, so the other inputs of
    // every case seed are what they were): twice the offsets, 12 to 36 regions
    // at each and 12 times the sub-trajectories, so the counts track up
    // to thousands of itemsets and insert most of them mid-vector;
    // such a draw is compared after every fourth sub-trajectory rather
    // than after every visit, which keeps the enumeration affordable.
    #[cases(96)]
    fn support_counts_match_the_definition_at_every_visit(
        region_counts in vec(int(0u32..3), 3..8),
        subs in int(1usize..10),
        seed in int(0u64..10_000),
        mp in tuple((
            int(1u32..4),
            choice(vec![0.0f64, 0.3, 0.6]),
            int(1usize..4),
            int(1u32..4),
            int(1u32..5),
        ))
        .map(|(min_support, min_confidence, max_premise_len, max_premise_gap, slack)| {
            MiningParams {
                min_support,
                min_confidence,
                max_premise_len,
                max_premise_gap,
                max_span: max_premise_len.saturating_sub(1) as u32 * max_premise_gap + slack,
            }
        }),
        wide in choice(vec![false, false, false, true]),
    ) {
        // Region vocabulary: `region_counts[t]` regions at offset t,
        // dense ids in (offset, local) order, as discovery assigns.
        // Per-sub visit choices: at most one region per offset.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (region_counts, subs) = if wide {
            let twice = region_counts.iter().chain(&region_counts);
            (twice.map(|&n| (n + 1) * 12).collect(), subs * 12)
        } else {
            (region_counts, subs)
        };
        let mut stream: Vec<(usize, RegionId, u32)> = Vec::new(); // (sub, region, offset)
        for s in 0..subs {
            let mut id_base = 0u32;
            for (t, &n) in region_counts.iter().enumerate() {
                if n > 0 && next() % 3 != 0 {
                    let pick = (next() % n as u64) as u32;
                    stream.push((s, RegionId(id_base + pick), t as u32));
                }
                id_base += n;
            }
        }

        // Replay the stream visit by visit, comparing the grown counts
        // and a fresh rebuild with the enumeration over everything
        // seen so far at each step (after every fourth sub-trajectory
        // when wide).
        let mut grown = SupportCounts::new(mp);
        let mut visits = VisitTable::with_subs(subs);
        for (i, &(s, id, t)) in stream.iter().enumerate() {
            grown.record_tail(visits.record(s, id, t));
            grown.validate();
            if wide && stream.get(i + 1).is_some_and(|next| next.0 / 4 == s / 4) {
                continue;
            }
            let supports = supports_by_definition(&visits, &mp);
            let rules = rules_by_definition(&supports, &mp);
            let mut rebuilt = SupportCounts::new(mp);
            rebuilt.rebuild(&visits);
            rebuilt.validate();
            require_eq!(&grown, &rebuilt);
            for counts in [&grown, &rebuilt] {
                require_eq!(counts.derive(), rules);
                require_eq!(counts.tracked_itemsets(), supports.len());
            }
        }
    }
}
