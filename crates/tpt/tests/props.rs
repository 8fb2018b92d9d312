//! Property-based invariants for the signature bitmaps and the TPT.

use hpm_check::prelude::*;
use hpm_tpt::{Bitmap, BruteForce, Match, PatternIndex, PatternKey, SearchCursor, Tpt, TptConfig};

const CK_LEN: usize = 12;
const RK_LEN: usize = 90;

/// Key lengths whose signatures spill past `hpm_tpt::INLINE_WORDS`
/// (12 + 200 bits → 1 + 4 words > 3): exercises the heap-backed bitmap
/// representation and wider arena blocks.
const CK_LEN_WIDE: usize = 12;
const RK_LEN_WIDE: usize = 200;

fn arb_bitmap(len: usize, max_ones: usize) -> Gen<Bitmap> {
    vec(int(0usize..len), 1..max_ones + 1).map(move |ones| Bitmap::from_indices(len, &ones))
}

fn arb_key_of(ck_len: usize, rk_len: usize) -> Gen<PatternKey> {
    tuple((arb_bitmap(ck_len, 2), arb_bitmap(rk_len, 4))).map(|(consequence, premise)| PatternKey {
        consequence,
        premise,
    })
}

fn arb_key() -> Gen<PatternKey> {
    arb_key_of(CK_LEN, RK_LEN)
}

fn arb_entries_of(ck_len: usize, rk_len: usize, max: usize) -> Gen<Vec<(PatternKey, f64, u32)>> {
    vec(
        tuple((arb_key_of(ck_len, rk_len), float(0.01..=1.0))),
        0..max,
    )
    .map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (k, c))| (k, c, i as u32))
            .collect()
    })
}

fn arb_entries(max: usize) -> Gen<Vec<(PatternKey, f64, u32)>> {
    arb_entries_of(CK_LEN, RK_LEN, max)
}

/// The two builders over the same entries: Algorithm 1 insertion and
/// bulk load.
fn build_both(fanout: usize, entries: &[(PatternKey, f64, u32)]) -> [Tpt; 2] {
    let mut inc = Tpt::new(TptConfig::new(fanout));
    for (k, c, p) in entries {
        inc.insert(k.clone(), *c, *p);
    }
    [
        inc,
        Tpt::bulk_load(TptConfig::new(fanout), entries.to_vec()),
    ]
}

/// Pattern ids of a match list, sorted: the order-free result *set*.
fn sorted(matches: Vec<Match>) -> Vec<u32> {
    let mut ids: Vec<u32> = matches.iter().map(|m| m.pattern).collect();
    ids.sort_unstable();
    ids
}

props! {
    /// §V.A operation algebra on bitmaps.
    fn bitmap_algebra(a in arb_bitmap(RK_LEN, 6), b in arb_bitmap(RK_LEN, 6)) {
        // Contain is reflexive and implies Intersect for non-zero keys.
        require!(a.contains(&a));
        if a.contains(&b) && !b.is_zero() {
            require!(a.intersects(&b));
        }
        // Intersect is symmetric and agrees with and_count.
        require_eq!(a.intersects(&b), b.intersects(&a));
        require_eq!(a.intersects(&b), a.and_count(&b) > 0);
        // Difference decomposition: |a| = |a∩b| + |a∖b|.
        require_eq!(a.count_ones(), a.and_count(&b) + a.difference(&b));
        // Union is the contain-least-upper-bound.
        let mut u = a.clone();
        u.or_assign(&b);
        require!(u.contains(&a) && u.contains(&b));
        require_eq!(u.count_ones(), a.count_ones() + b.difference(&a));
        // iter_ones roundtrip.
        let rebuilt = Bitmap::from_indices(RK_LEN, &a.iter_ones().collect::<Vec<_>>());
        require_eq!(&rebuilt, &a);
    }

    /// Pattern-key operations decompose over the two parts.
    fn pattern_key_part_decomposition(a in arb_key(), b in arb_key()) {
        require_eq!(
            a.intersects(&b),
            a.consequence.intersects(&b.consequence) && a.premise.intersects(&b.premise)
        );
        require_eq!(
            a.contains(&b),
            a.consequence.contains(&b.consequence) && a.premise.contains(&b.premise)
        );
        require_eq!(
            a.difference(&b),
            a.consequence.difference(&b.consequence) + a.premise.difference(&b.premise)
        );
        require_eq!(a.size(), a.consequence.count_ones() + a.premise.count_ones());
    }

    /// Both builders — Algorithm 1 insertion and bulk load — produce
    /// valid trees whose compacted images return exactly the
    /// brute-force match *set* for every query, self-queries included
    /// (covers the empty index), and the allocating and cursor search
    /// entry points agree on matches and stats.
    fn builders_equal_brute(entries in arb_entries(300), queries in vec(arb_key(), 1..10)) {
        let brute = BruteForce::from_entries(entries.clone());
        let mut cursor = SearchCursor::new();
        for tree in build_both(6, &entries) {
            tree.validate().unwrap();
            require_eq!(tree.len(), entries.len());
            let packed = tree.compact();
            require_eq!(packed.len(), tree.len());
            require_eq!(packed.height(), tree.height());
            require_eq!(packed.node_count(), tree.node_count());
            for q in queries.iter().chain(entries.iter().map(|(k, _, _)| k)) {
                let (found, stats) = packed.search_with_stats(q);
                require_eq!(cursor.search_packed(&packed, q), &found[..]);
                require_eq!(cursor.stats(), stats, "cursor stats differ from search_with_stats");
                require_eq!(sorted(found), sorted(brute.search(q)));
            }
        }
    }

    /// The same holds for keys wider than the bitmap's inline storage
    /// (heap-backed words, multi-word arena blocks).
    fn builders_equal_brute_wide_keys(
        entries in arb_entries_of(CK_LEN_WIDE, RK_LEN_WIDE, 150),
        queries in vec(arb_key_of(CK_LEN_WIDE, RK_LEN_WIDE), 1..8),
    ) {
        let brute = BruteForce::from_entries(entries.clone());
        for tree in build_both(4, &entries) {
            tree.validate().unwrap();
            let packed = tree.compact();
            for q in queries.iter().chain(entries.iter().map(|(k, _, _)| k)) {
                require_eq!(sorted(packed.search(q)), sorted(brute.search(q)));
            }
        }
    }

    /// Every indexed entry is found by a query equal to its own key
    /// (keys always have ≥ 1 bit per part here), with its confidence.
    fn self_query_finds_entry(entries in arb_entries(120)) {
        let packed = Tpt::bulk_load(TptConfig::default(), entries.clone()).compact();
        for (k, c, p) in &entries {
            let found = packed.search(k);
            let me = found.iter().find(|m| m.pattern == *p);
            require!(me.is_some(), "entry {p} not found by its own key");
            require_eq!(me.unwrap().confidence, *c);
        }
    }

    /// Search visits no more entries than a full scan would.
    fn search_never_worse_than_scan(entries in arb_entries(200), q in arb_key()) {
        let packed = Tpt::bulk_load(TptConfig::default(), entries.clone()).compact();
        let (_, stats) = packed.search_with_stats(&q);
        // Internal entries add overhead bounded by the tree fanout
        // structure; leaf entries checked can never exceed the total.
        require!(stats.entries_checked <= entries.len() + packed.node_count() * 32);
    }

    /// Confidences do not shape the tree: patching one in the image
    /// equals a fresh bulk load over the patched entries, so a retrain
    /// that moved only confidences never needs a rebuild.
    fn confidence_patch_equals_fresh_build(entries in arb_entries(200), pick in index()) {
        assume!(!entries.is_empty());
        let image = |e: Vec<(PatternKey, f64, u32)>| Tpt::bulk_load(TptConfig::new(6), e).compact();
        let mut packed = image(entries.clone());
        let mut patched = entries;
        let i = pick.index(patched.len());
        patched[i].1 = 0.005;
        let id = patched[i].2;
        require_eq!(packed.patch_confidences(|p| (p == id).then_some(0.005)), 1);
        require_eq!(&packed, &image(patched));
    }
}
