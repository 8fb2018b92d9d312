//! Property-based invariants for discovery and Apriori mining.

use hpm_check::prelude::*;
use hpm_geo::Point;
use hpm_patterns::{
    discover, mine, prune_statistics, visits_against, DiscoveryParams, MiningParams, RegionId,
};
use hpm_trajectory::Trajectory;

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
            for id in seq {
                visit_counts[id.index()] += 1;
            }
        }
        for r in regions.all() {
            require_eq!(r.support, visit_counts[r.id.index()]);
        }
    }

    /// Every mined pattern is Definition-1-valid, meets the thresholds,
    /// and its confidence matches a direct recount over transactions.
    fn mined_patterns_are_sound(history in arb_history()) {
        let (traj, period) = history;
        let out = discover(&traj, &params(period));
        let mp = mining_params();
        let patterns = mine(&out.regions, &out.visits, &mp);
        for p in &patterns {
            require_eq!(p.validate(&out.regions), Ok(()));
            require!(p.support >= mp.min_support);
            require!(p.confidence >= mp.min_confidence);
            // Recount premise and full-itemset support directly.
            let contains = |seq: &[RegionId], ids: &[RegionId]| {
                ids.iter().all(|id| seq.binary_search(id).is_ok())
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

    /// Anti-monotonicity surfaced at the rule level: confidence never
    /// exceeds 1 and premise support bounds rule support.
    fn confidence_bounds(history in arb_history()) {
        let (traj, period) = history;
        let out = discover(&traj, &params(period));
        for p in mine(&out.regions, &out.visits, &mining_params()) {
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
            .cloned()
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

    // Incrementally grown support counts derive *exactly* the batch
    // mine result — same patterns, same order, bit-identical
    // confidences — after every single appended visit, including
    // partially filled tail transactions.
    #[cases(96)]
    fn incremental_counts_equal_batch_mine_at_every_visit(
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
    ) {
        use hpm_geo::BoundingBox;
        use hpm_patterns::{FrequentRegion, RegionSet, SupportCounts, VisitTable};

        let period = region_counts.len() as u32;
        // Region vocabulary: `region_counts[t]` regions at offset t,
        // dense ids in (offset, local) order, as discovery assigns.
        let mut regions = Vec::new();
        for (t, &n) in region_counts.iter().enumerate() {
            for j in 0..n {
                let c = Point::new(t as f64 * 10.0, j as f64 * 10.0);
                regions.push(FrequentRegion {
                    id: RegionId(regions.len() as u32),
                    offset: t as u32,
                    local_index: j,
                    centroid: c,
                    bbox: BoundingBox::from_point(c),
                    support: 1,
                });
            }
        }
        let region_set = RegionSet::new(regions, period);

        // Per-sub visit choices: at most one region per offset.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
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

        // Replay the stream visit by visit, comparing against a batch
        // mine over everything seen so far at each step.
        let mut counts = SupportCounts::new(mp);
        let mut visits = VisitTable::with_subs(subs);
        let mut txs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); subs];
        for &(s, id, t) in &stream {
            visits.record(s, id);
            txs[s].push((id.0, t));
            counts.record_tail(&txs[s]);
            require_eq!(counts.derive(), mine(&region_set, &visits, &mp));
        }

        // And the seed path reproduces the grown state.
        let mut reseeded = SupportCounts::new(mp);
        reseeded.rebuild(&txs);
        require_eq!(reseeded.derive(), counts.derive());

        // The counts track each structurally valid itemset once: a
        // naive enumeration of every visit subset finds as many.
        let mut universe = std::collections::BTreeSet::new();
        for tx in &txs {
            for mask in 1u32..1 << tx.len() {
                let picked: Vec<(u32, u32)> = (0..tx.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| tx[i])
                    .collect();
                let (premise, last) = picked.split_at(picked.len() - 1);
                if premise.len() <= mp.max_premise_len
                    && premise.windows(2).all(|w| w[1].1 - w[0].1 <= mp.max_premise_gap)
                    && last[0].1 - picked[0].1 <= mp.max_span
                {
                    universe.insert(picked.iter().map(|v| v.0).collect::<Vec<u32>>());
                }
            }
        }
        require_eq!(counts.tracked_itemsets(), universe.len());
        require_eq!(reseeded.tracked_itemsets(), universe.len());
    }
}
