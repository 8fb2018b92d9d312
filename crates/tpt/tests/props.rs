//! Property-based invariants for the signature bitmaps and the TPT.

use hpm_check::prelude::*;
use hpm_rand::{Rng, SmallRng};
use hpm_store::wire::fnv1a;
use hpm_tpt::{Bitmap, BruteForce, LeafEntries, PackedTpt, PatternKey, SearchCursor};
use std::fmt::Write;

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

fn arb_entries_of(ck_len: usize, rk_len: usize, max: usize) -> Gen<Vec<(PatternKey, u32)>> {
    vec(arb_key_of(ck_len, rk_len), 0..max).map(|keys| keys.into_iter().zip(0..).collect())
}

fn arb_entries(max: usize) -> Gen<Vec<(PatternKey, u32)>> {
    arb_entries_of(CK_LEN, RK_LEN, max)
}

/// The keys of `entries` (whose ids are their positions) and their
/// image.
fn load(fanout: usize, entries: &[(PatternKey, u32)]) -> (LeafEntries, PackedTpt) {
    let leaves: LeafEntries = entries.iter().map(|(k, _)| k.clone()).collect();
    let packed = PackedTpt::bulk_load(fanout, &leaves);
    (leaves, packed)
}

/// A match list sorted: the order-free result *set*.
fn sorted(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids
}

/// A bulk-loaded image is structurally valid and returns exactly the
/// brute-force match *set* for every query, self-queries included
/// (covers the empty index), and the allocating and cursor search
/// entry points agree on matches and stats.
fn image_equals_brute(
    fanout: usize,
    entries: &[(PatternKey, u32)],
    queries: &[PatternKey],
) -> CaseResult {
    let brute = BruteForce::from_entries(entries.to_vec());
    let (leaves, packed) = load(fanout, entries);
    packed.validate(fanout, &leaves).map_err(CaseError::Fail)?;
    require_eq!(packed.len(), entries.len());
    require_eq!(packed.is_empty(), entries.is_empty());
    let (tpt, mut cursor) = (packed.with_leaves(&leaves), SearchCursor::new());
    for q in queries.iter().chain(entries.iter().map(|(k, _)| k)) {
        let (found, stats) = tpt.search_with_stats(q);
        require_eq!(cursor.search_packed(tpt, q), &found[..]);
        require_eq!(
            cursor.stats(),
            stats,
            "cursor stats differ from search_with_stats"
        );
        require_eq!(sorted(found), sorted(brute.search(q)));
    }
    Ok(())
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

    /// See [`image_equals_brute`].
    fn bulk_load_equals_brute(
        entries in arb_entries(300),
        queries in vec(arb_key(), 1..10),
        fanout in int(4usize..40),
    ) {
        image_equals_brute(fanout, &entries, &queries)?;
    }

    /// The same holds for keys wider than the bitmap's inline storage
    /// (heap-backed words, multi-word arena blocks).
    fn bulk_load_equals_brute_wide_keys(
        entries in arb_entries_of(CK_LEN_WIDE, RK_LEN_WIDE, 150),
        queries in vec(arb_key_of(CK_LEN_WIDE, RK_LEN_WIDE), 1..8),
    ) {
        image_equals_brute(4, &entries, &queries)?;
        image_equals_brute(32, &entries, &queries)?;
    }

    /// Every indexed entry is found by a query equal to its own key
    /// (keys always have ≥ 1 bit per part here).
    fn self_query_finds_entry(entries in arb_entries(120)) {
        let (leaves, packed) = load(32, &entries);
        for (k, p) in &entries {
            let found = packed.with_leaves(&leaves).search(k);
            require!(found.contains(p), "entry {p} not found by its own key");
        }
    }

    /// Search visits no more entries than a full scan would.
    fn search_never_worse_than_scan(entries in arb_entries(200), q in arb_key()) {
        let (leaves, packed) = load(32, &entries);
        let (_, stats) = packed.with_leaves(&leaves).search_with_stats(&q);
        // Internal entries add overhead bounded by the tree fanout
        // structure; leaf entries checked can never exceed the total.
        require!(stats.entries_checked <= entries.len() + packed.node_count() * 32);
    }
}

/// `n` seeded `<pk, p>` entries over `cons_bits` × `prem_bits` keys;
/// every fifth entry repeats an earlier key (Table III: one key, two
/// patterns).
fn fixture_entries(
    rng: &mut SmallRng,
    n: usize,
    cons_bits: usize,
    prem_bits: usize,
) -> Vec<(PatternKey, u32)> {
    let mut entries: Vec<(PatternKey, u32)> = Vec::with_capacity(n);
    for i in 0..n {
        let key = if i % 5 == 4 {
            entries[rng.gen_range(0..i)].0.clone()
        } else {
            let mut bits = |len: usize, max: usize| {
                let ones: Vec<usize> = (0..rng.gen_range(1..=max))
                    .map(|_| rng.gen_range(0..len))
                    .collect();
                Bitmap::from_indices(len, &ones)
            };
            PatternKey {
                consequence: bits(cons_bits, 2),
                premise: bits(prem_bits, 4),
            }
        };
        entries.push((key, i as u32));
    }
    entries
}

/// `PackedTpt::bulk_load` builds, byte for byte, the image of the last
/// commit whose leaves held key words, minus those words.
/// `fixtures/packed_image_v3.txt` was written by that commit through
/// this same loop, hashing its image with every leaf node's words cut
/// from the arena and each node's `sig_start` moved to where its run
/// then starts: one line per case — fanouts 4 / 6 / 32;
/// one- and multi-word parts on either side; 0, 1, `fill`, `fill + 1`,
/// `fill² + 1` and 3,000 entries, duplicate keys among them — carrying
/// the image's shape and the FNV-1a of its `Debug` text (every field of
/// every arena).
#[test]
fn committed_image_fixture_is_reproduced_byte_for_byte() {
    let mut rng = SmallRng::seed_from_u64(0x7074_2121);
    let mut out = String::new();
    for fanout in [4usize, 6, 32] {
        let fill = fanout * 3 / 4;
        for (cons_bits, prem_bits) in [(4, 10), (12, 90), (70, 200), (130, 30)] {
            for n in [0, 1, fill, fill + 1, fill * fill + 1, 3000] {
                let (leaves, packed) =
                    load(fanout, &fixture_entries(&mut rng, n, cons_bits, prem_bits));
                packed.validate(fanout, &leaves).unwrap();
                writeln!(
                    out,
                    "fanout={fanout} key={cons_bits}+{prem_bits} n={n} nodes={} height={} debug_fnv1a={:016x}",
                    packed.node_count(),
                    packed.height(),
                    fnv1a(format!("{packed:?}").as_bytes()),
                )
                .unwrap();
            }
        }
    }
    assert_eq!(out, include_str!("fixtures/packed_image_v3.txt"));
}
