//! Property-based invariants for the signature bitmaps and the TPT.

use hpm_check::prelude::*;
use hpm_rand::{Rng, SmallRng};
use hpm_store::wire::fnv1a;
use hpm_tpt::{scan, Bitmap, LeafEntries, PackedTpt, PatternKey, SearchCursor};
use std::fmt::Write;

const CK_LEN: usize = 12;
const RK_LEN: usize = 90;

/// Key lengths with a multi-word premise part (12 + 200 bits → 1 + 4
/// words): exercises wider arena blocks and the sort's tie-break words.
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

/// Up to `max` keys of `key`, in key order.
fn sorted_keys(key: Gen<PatternKey>, max: usize) -> Gen<Vec<PatternKey>> {
    vec(key, 0..max).map(|mut keys| {
        keys.sort();
        keys
    })
}

fn arb_keys(max: usize) -> Gen<Vec<PatternKey>> {
    sorted_keys(arb_key(), max)
}

/// `keys`, in key order, as rows (a key's id is its position) and
/// their image.
fn load(fanout: usize, keys: &[PatternKey]) -> (LeafEntries, PackedTpt) {
    let leaves: LeafEntries = keys.iter().collect();
    let packed = PackedTpt::bulk_load(fanout, &leaves);
    (leaves, packed)
}

/// A match list sorted: the order-free result *set*.
fn sorted(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids
}

/// A bulk-loaded image is structurally valid and returns exactly the
/// brute-force [`scan`]'s match *set* for every query, self-queries
/// included (covers the empty index).
fn image_equals_brute(fanout: usize, keys: &[PatternKey], queries: &[PatternKey]) -> CaseResult {
    let (leaves, packed) = load(fanout, keys);
    packed.validate(fanout, &leaves).map_err(CaseError::Fail)?;
    require_eq!(packed.len(), keys.len());
    require_eq!(packed.is_empty(), keys.is_empty());
    let (tpt, mut cursor) = (packed.with_leaves(&leaves), SearchCursor::new());
    for q in queries.iter().chain(keys) {
        let found = cursor.search_packed(tpt, q).to_vec();
        require_eq!(sorted(found), scan(keys, q).collect::<Vec<_>>());
    }
    Ok(())
}

props! {
    /// §V.A operation algebra on bitmaps.
    fn bitmap_algebra(a in arb_bitmap(RK_LEN, 6), b in arb_bitmap(RK_LEN, 6)) {
        // Intersect is symmetric and means a common set bit.
        require_eq!(a.intersects(&b), b.intersects(&a));
        require_eq!(a.intersects(&b), a.iter_ones().any(|i| b.get(i)));
        // Size counts the set bits; iter_ones roundtrips.
        require_eq!(a.count_ones(), a.iter_ones().count());
        let rebuilt = Bitmap::from_indices(RK_LEN, &a.iter_ones().collect::<Vec<_>>());
        require_eq!(&rebuilt, &a);
    }

    /// Pattern-key operations decompose over the two parts.
    fn pattern_key_part_decomposition(a in arb_key(), b in arb_key()) {
        require_eq!(
            a.intersects(&b),
            a.consequence.intersects(&b.consequence) && a.premise.intersects(&b.premise)
        );
    }

    /// See [`image_equals_brute`].
    fn bulk_load_equals_brute(
        keys in arb_keys(300),
        queries in vec(arb_key(), 1..10),
        fanout in int(4usize..40),
    ) {
        image_equals_brute(fanout, &keys, &queries)?;
    }

    /// The same holds for keys with a multi-word premise part.
    fn bulk_load_equals_brute_wide_keys(
        keys in sorted_keys(arb_key_of(CK_LEN_WIDE, RK_LEN_WIDE), 150),
        queries in vec(arb_key_of(CK_LEN_WIDE, RK_LEN_WIDE), 1..8),
    ) {
        image_equals_brute(4, &keys, &queries)?;
        image_equals_brute(32, &keys, &queries)?;
    }

    /// Search visits no more entries than a full scan would.
    fn search_never_worse_than_scan(keys in arb_keys(200), q in arb_key()) {
        let (leaves, packed) = load(32, &keys);
        let mut cursor = SearchCursor::new();
        cursor.search_packed(packed.with_leaves(&leaves), &q);
        // Internal entries add overhead bounded by the tree fanout
        // structure; leaf entries checked can never exceed the total.
        require!(cursor.stats().entries_checked <= keys.len() + packed.node_count() * 32);
    }
}

/// `n` seeded keys over `cons_bits` × `prem_bits`, in key order; every
/// fifth drawn repeats an earlier key (Table III: one key, two
/// patterns).
fn fixture_keys(
    rng: &mut SmallRng,
    n: usize,
    cons_bits: usize,
    prem_bits: usize,
) -> Vec<PatternKey> {
    let mut keys: Vec<PatternKey> = Vec::with_capacity(n);
    for i in 0..n {
        let key = if i % 5 == 4 {
            keys[rng.gen_range(0..i)].clone()
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
        keys.push(key);
    }
    keys.sort();
    keys
}

/// `PackedTpt::bulk_load` builds, byte for byte, the image of the last
/// commit whose leaves were nodes of their own, minus those nodes.
/// `fixtures/packed_image_v4.txt` was written by that commit through
/// this same loop (its keys drawn in the same order, unsorted: that
/// loader sorted them itself), hashing its image mapped to this layout:
/// leaf nodes and their id runs dropped, internal nodes renumbered in
/// pre-order, each bottom entry naming its leaf's rank in pre-order,
/// each node's one `start` its first entry, the words per key part
/// dropped (derived from the bit lengths) and `fill` added. One line per case — fanouts
/// 4 / 6 / 32; one- and multi-word parts on either side; 0, 1, `fill`,
/// `fill + 1`, `fill² + 1` and 3,000 entries, duplicate keys among them
/// — carrying the image's shape and the FNV-1a of its `Debug` text
/// (every field of every arena).
#[test]
fn committed_image_fixture_is_reproduced_byte_for_byte() {
    let mut rng = SmallRng::seed_from_u64(0x7074_2121);
    let mut out = String::new();
    for fanout in [4usize, 6, 32] {
        let fill = fanout * 3 / 4;
        for (cons_bits, prem_bits) in [(4, 10), (12, 90), (70, 200), (130, 30)] {
            for n in [0, 1, fill, fill + 1, fill * fill + 1, 3000] {
                let (leaves, packed) =
                    load(fanout, &fixture_keys(&mut rng, n, cons_bits, prem_bits));
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
    assert_eq!(out, include_str!("fixtures/packed_image_v4.txt"));
}
