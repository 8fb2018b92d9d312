//! The arena-packed TPT: the index's one form, its bulk loader
//! (§V.B) and the §V.C search.
//!
//! [`PackedTpt`] keeps every internal entry signature contiguously in
//! one `u64` arena: each internal node's entries form a run of
//! `[consequence words | premise words]` blocks, so the intersect test
//! scans the arena linearly and chases no pointer, with each entry's
//! child in one parallel array. The leaves are not in the image: they
//! are the rows of the [`LeafKeys`] source ([`PackedTpt::with_leaves`]),
//! in key order, leaf `j` rows `[j·fill, (j+1)·fill)`, which a bottom
//! entry names by `j`. Internal nodes are laid out in DFS pre-order, so
//! a search walks mostly forward in memory. [`PackedTpt::bulk_load`]
//! packs straight into those arenas; no pointer tree exists.
//!
//! Search walks the image depth-first, descending only into entries
//! whose key intersects the query key on both the consequence and the
//! premise part. The image is a pure function of `(fanout, rows)`; the
//! property suite in `tests/props.rs` holds it structurally valid and
//! equal to the brute-force [`scan`](crate::scan) on every result set
//! over generated key sets, and a fixture pins its bytes.

use crate::PatternKey;

/// Statistics of one search (Fig. 11b instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Nodes whose entries were examined, a leaf's rows counting as
    /// one node.
    pub nodes_visited: usize,
    /// Entry keys tested against the query.
    pub entries_checked: usize,
    /// Signature false hits: leaf entries reached (their parent's
    /// union key intersected the query) whose own key did not — the
    /// superimposed-coding false drops §V's signature layout trades
    /// against node size.
    pub false_hits: usize,
}

/// A reusable search cursor: owns the match buffer and the
/// instrumentation, so a query loop (the FQP hot path) reuses one
/// allocation instead of building a fresh `Vec` per call.
///
/// Stats are **per-search**: every
/// [`search_packed`](SearchCursor::search_packed) resets them before
/// traversing, so [`stats`](SearchCursor::stats) always describes the
/// most recent search alone — reusing a cursor never accumulates
/// `false_hits` (or any other field) across calls.
#[derive(Debug, Clone, Default)]
pub struct SearchCursor {
    out: Vec<u32>,
    stats: SearchStats,
}

/// One internal node: a run of entries in the signature arena and the
/// child array.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedNode {
    /// First entry of this node in `PackedTpt::child`; its signature
    /// run starts at `start` keys into `PackedTpt::sig`.
    start: u32,
    /// Number of entries.
    count: u32,
}

/// The Trajectory Pattern Tree (§V) as one packed image: a leaf entry
/// `<pk, c, p>` is row `p` of the [`LeafKeys`] source a search is
/// given, and each internal entry's key is the OR of all keys in its
/// subtree.
///
/// Built by [`bulk_load`](Self::bulk_load); node 0 is the root (rows
/// that fit one leaf need no node). The image is frozen: a changed
/// pattern set is bulk-loaded afresh. Two images are equal exactly
/// when they hold the same nodes, signatures and children in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedTpt {
    /// Bit length of the consequence part of every key.
    cons_bits: usize,
    /// Bit length of the premise part of every key.
    prem_bits: usize,
    /// Rows per leaf, ¾ of the fanout (0 when empty): leaf `j` is rows
    /// `[j·fill, min((j+1)·fill, len))`.
    fill: usize,
    /// The internal nodes, in DFS pre-order.
    nodes: Box<[PackedNode]>,
    /// Signature arena: per internal entry one key's words,
    /// consequence first, in node order.
    sig: Box<[u64]>,
    /// Per internal entry: its child node id, or, in a bottom node
    /// (one level above the leaves), its leaf `j`.
    child: Box<[u32]>,
    len: usize,
    height: usize,
}

impl hpm_geo::MemUse for PackedTpt {
    /// The arenas are boxed slices, so resident bytes are
    /// [`storage_bytes`](PackedTpt::storage_bytes) exactly.
    fn mem_bytes(&self) -> usize {
        self.storage_bytes()
    }
}

/// The rows an image's leaves are: row `p`'s key, tested against a
/// query's or ORed into a signature, in the image's geometry
/// (consequence words, then premise words). [`LeafEntries`] holds the
/// keys as words; a pattern store derives them from its rows.
pub trait LeafKeys {
    /// A query's words in the form [`intersects`](Self::intersects)
    /// reads, resolved once per search.
    type Query<'q>;

    /// The number of rows, and the bit lengths of a key's consequence
    /// and premise parts.
    fn shape(&self) -> (usize, usize, usize);

    /// Resolves the query whose key has the `consequence` and
    /// `premise` words.
    fn resolve<'q>(&self, consequence: &'q [u64], premise: &'q [u64]) -> Self::Query<'q>;

    /// Whether pattern `p`'s key shares a bit with the query's
    /// consequence part **and** one with its premise part (§V.A's
    /// `Intersect`).
    fn intersects(&self, p: u32, query: &Self::Query<'_>) -> bool;

    /// ORs pattern `p`'s key into the `consequence` and `premise`
    /// words.
    fn or_into(&self, p: u32, consequence: &mut [u64], premise: &mut [u64]);
}

/// Pattern keys in arena layout, collected from [`PatternKey`]s (row
/// ids are positions, as in [`scan`](crate::scan)): the [`LeafKeys`]
/// source of callers that hold no pattern store.
#[derive(Debug, Clone, Default)]
pub struct LeafEntries {
    cons_bits: usize,
    prem_bits: usize,
    /// Per entry one key's words, entries in input order.
    sig: Vec<u64>,
    len: usize,
}

impl LeafEntries {
    /// Row `p`'s key words, split into its two parts.
    fn key(&self, p: u32) -> (&[u64], &[u64]) {
        let (cw, stride) = geometry(self.cons_bits, self.prem_bits);
        self.sig[p as usize * stride..][..stride].split_at(cw)
    }
}

impl<'a> FromIterator<&'a PatternKey> for LeafEntries {
    /// Copies held keys' words out, geometry from the first.
    ///
    /// # Panics
    /// Panics when two keys differ in either part's bit length (all
    /// keys of one image come from one [`KeyTable`](crate::KeyTable)).
    fn from_iter<I: IntoIterator<Item = &'a PatternKey>>(keys: I) -> Self {
        let mut leaves = LeafEntries::default();
        for key in keys {
            let lengths = (key.consequence.len(), key.premise.len());
            if leaves.len == 0 {
                (leaves.cons_bits, leaves.prem_bits) = lengths;
            }
            let geometry = (leaves.cons_bits, leaves.prem_bits);
            assert_eq!(lengths, geometry, "bitmap length mismatch");
            leaves.sig.extend_from_slice(key.consequence.words());
            leaves.sig.extend_from_slice(key.premise.words());
            leaves.len += 1;
        }
        leaves
    }
}

impl LeafKeys for &LeafEntries {
    type Query<'q> = (&'q [u64], &'q [u64]);

    fn shape(&self) -> (usize, usize, usize) {
        (self.len, self.cons_bits, self.prem_bits)
    }

    fn resolve<'q>(&self, consequence: &'q [u64], premise: &'q [u64]) -> Self::Query<'q> {
        (consequence, premise)
    }

    #[inline]
    fn intersects(&self, p: u32, &(consequence, premise): &Self::Query<'_>) -> bool {
        let (cons, prem) = self.key(p);
        words_intersect(cons, consequence) && words_intersect(prem, premise)
    }

    fn or_into(&self, p: u32, consequence: &mut [u64], premise: &mut [u64]) {
        let (cons, prem) = self.key(p);
        for (to, from) in [(consequence, cons), (premise, prem)] {
            to.iter_mut().zip(from).for_each(|(t, f)| *t |= f);
        }
    }
}

impl PackedTpt {
    /// Builds the image by bulk loading (§V.B) over `rows`, which the
    /// caller stores in key order (`PatternKey`'s `Ord`: consequence
    /// part, then premise part, each read as a number) so similar keys
    /// are neighbours; rows in another order search correctly but
    /// cluster less. The rows are the leaves, ¾ of `fanout` each, read
    /// once to build the level above them; parent levels are packed
    /// bottom-up from the OR of each node's signatures.
    ///
    /// Emits the `tpt.repack` span/histogram around the pack, bumps
    /// `tpt.repack.calls` and sets the `tpt.packed.arena_bytes` gauge to
    /// the new image's arena size (i.e. the gauge reports the most
    /// recent build).
    ///
    /// # Panics
    /// Panics when `fanout < 4`.
    pub fn bulk_load(fanout: usize, rows: impl LeafKeys) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        let _span = hpm_obs::span!(crate::metrics::REPACK_SPAN);
        let mut packed = PackedTpt::default();
        let (n, cons_bits, prem_bits) = rows.shape();
        if n > 0 {
            let (cw, stride) = geometry(cons_bits, prem_bits);
            let fill = fanout * 3 / 4;
            // Per level, its signature count and the signatures: node
            // `j` of a level covers signatures `[j·fill, (j+1)·fill)`,
            // and signature `j` of the level above is their OR. Level 0
            // is the rows. The top level is the first that fits one
            // node.
            let mut levels = vec![(n, Vec::new())];
            while let Some(&(n, ref below)) = levels.last().filter(|l| l.0 > fill) {
                let mut above = vec![0u64; n.div_ceil(fill) * stride];
                for i in 0..n {
                    let to = &mut above[i / fill * stride..][..stride];
                    if below.is_empty() {
                        let (consequence, premise) = to.split_at_mut(cw);
                        rows.or_into(i as u32, consequence, premise);
                    } else {
                        let from = &below[i * stride..][..stride];
                        to.iter_mut().zip(from).for_each(|(t, f)| *t |= f);
                    }
                }
                levels.push((n.div_ceil(fill), above));
            }
            // Every node and entry is known before the first copy, so
            // the arenas freeze without slack.
            let entries: usize = levels[1..].iter().map(|l| l.0).sum();
            let mut nodes =
                Vec::with_capacity(levels[1..].iter().map(|l| l.0.div_ceil(fill)).sum());
            let mut sig = Vec::with_capacity(entries * stride);
            let mut child = Vec::with_capacity(entries);
            // Root first, then DFS pre-order: `(level, j, slot)` is a
            // node to emit and the child slot of its parent, which is
            // patched with the packed id as it is assigned. Level 1's
            // children are leaves: the entry names leaf `j` itself.
            let mut stack =
                Vec::from_iter((levels.len() > 1).then_some((levels.len() - 1, 0, None)));
            while let Some((level, j, slot)) = stack.pop() {
                let (n, ref sigs) = levels[level];
                let (lo, hi) = (j * fill, ((j + 1) * fill).min(n));
                if let Some(slot) = slot {
                    child[slot] = nodes.len() as u32;
                }
                let start = child.len();
                nodes.push(PackedNode {
                    start: start as u32,
                    count: (hi - lo) as u32,
                });
                sig.extend_from_slice(&sigs[lo * stride..hi * stride]);
                if level == 1 {
                    child.extend(lo as u32..hi as u32);
                } else {
                    child.resize(start + hi - lo, 0);
                    let below = (lo..hi).rev().map(|i| (level - 1, i, Some(start + i - lo)));
                    stack.extend(below);
                }
            }
            packed = PackedTpt {
                cons_bits,
                prem_bits,
                fill,
                nodes: nodes.into(),
                sig: sig.into(),
                child: child.into(),
                len: n,
                height: levels.len(),
            };
        }
        crate::metrics::record_repack(packed.arena_bytes());
        packed
    }

    /// Checks the image's structural invariants against the `fanout`
    /// it was loaded with and the `rows` it was loaded from; test/debug
    /// helper.
    ///
    /// Verified: internal nodes are in DFS pre-order from node 0 (so
    /// every node is referenced once); every internal entry is the OR
    /// of its child's signatures — over a leaf, of its rows' keys; only
    /// leaves sit at depth `height`; no node is empty or above `fanout`;
    /// and the leaves, in pre-order, are 0, 1, 2, … covering the rows.
    pub fn validate(&self, fanout: usize, rows: impl LeafKeys) -> Result<(), String> {
        let (cw, stride) = geometry(self.cons_bits, self.prem_bits);
        let key = |p: u32| {
            let mut words = vec![0u64; stride];
            let (consequence, premise) = words.split_at_mut(cw);
            rows.or_into(p, consequence, premise);
            words
        };
        // Internal nodes and leaves walked; one leaf may be the tree.
        let mut walk = (0, usize::from(self.nodes.is_empty() && self.len > 0));
        match self.nodes.is_empty() {
            true if self.height != walk.1 => return Err(format!("height {}", self.height)),
            true => {}
            false => {
                self.validate_node(1, fanout, &key, &mut walk)?;
            }
        }
        let claimed = (self.nodes.len(), self.node_count() - self.nodes.len());
        match walk == claimed {
            true => Ok(()),
            false => Err(format!("walked {walk:?} nodes and leaves of {claimed:?}")),
        }
    }

    /// Validates the next internal node in pre-order and its subtree,
    /// reading row keys through `key`; returns the OR of the node's
    /// signatures, which is what its parent entry must hold.
    fn validate_node(
        &self,
        depth: usize,
        fanout: usize,
        key: &impl Fn(u32) -> Vec<u64>,
        walk: &mut (usize, usize),
    ) -> Result<Vec<u64>, String> {
        let id = walk.0;
        let check = |ok: bool, what: &str| match ok {
            true => Ok(()),
            false => Err(format!("node {id} at depth {depth}: {what}")),
        };
        check(
            id < self.nodes.len() && depth < self.height,
            "out of range or at the leaf depth",
        )?;
        walk.0 += 1;
        let (n, stride) = (self.nodes[id], geometry(self.cons_bits, self.prem_bits).1);
        // No occupancy floor: a level may end in one short node.
        check(
            (1..=fanout).contains(&(n.count as usize)),
            "empty or above the fanout",
        )?;
        let mut union = vec![0u64; stride];
        let children = &self.child[n.start as usize..][..n.count as usize];
        let blocks = self.sig[n.start as usize * stride..].chunks_exact(stride);
        for (&child, block) in children.iter().zip(blocks) {
            let below = if depth + 1 == self.height {
                check(child as usize == walk.1, "a leaf is not next in row order")?;
                walk.1 += 1;
                let rows =
                    child * self.fill as u32..((child + 1) * self.fill as u32).min(self.len as u32);
                check(!rows.is_empty(), "a leaf past the rows")?;
                rows.map(key).fold(vec![0u64; stride], |acc, k| {
                    acc.iter().zip(k).map(|(a, k)| a | k).collect()
                })
            } else {
                check(child as usize == walk.0, "a child is not next in pre-order")?;
                self.validate_node(depth + 1, fanout, key, walk)?
            };
            check(below == block, "an entry is not the OR of its child node")?;
            union.iter_mut().zip(block).for_each(|(u, w)| *u |= w);
        }
        Ok(union)
    }

    /// Number of indexed patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 when empty, 1 for a single leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of tree nodes: the internal nodes and the leaves, each a
    /// run of `fill` rows (the last one the rest).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len() + self.len.div_ceil(self.fill.max(1))
    }

    /// Heap bytes of the arena and the SoA metadata arrays.
    pub fn arena_bytes(&self) -> usize {
        self.sig.len() * 8
            + self.child.len() * 4
            + self.nodes.len() * std::mem::size_of::<PackedNode>()
    }

    /// Total resident bytes (Fig. 11a accounting): the internal
    /// signatures and their children, not the leaves, which are the
    /// [`LeafKeys`] source's rows.
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.arena_bytes()
    }

    /// The searchable tree: this image with the rows it was loaded
    /// from.
    pub fn with_leaves<L: LeafKeys>(&self, leaves: L) -> TptView<'_, L> {
        TptView {
            image: self,
            leaves,
        }
    }
}

/// A [`PackedTpt`] image paired with the [`LeafKeys`] rows that are
/// its leaves ([`PackedTpt::with_leaves`]): what a search runs on.
/// Dereferences to the image for its shape and size.
#[derive(Debug, Clone, Copy)]
pub struct TptView<'a, L> {
    image: &'a PackedTpt,
    leaves: L,
}

impl<L> std::ops::Deref for TptView<'_, L> {
    type Target = PackedTpt;

    fn deref(&self) -> &PackedTpt {
        self.image
    }
}

impl<L: LeafKeys> TptView<'_, L> {
    /// One search under the `tpt.search` span: pushes the row id of
    /// every match to the empty `out`, ascending, publishes the stats
    /// to the counters and returns them.
    fn search(&self, query: &PatternKey, out: &mut Vec<u32>) -> SearchStats {
        let _span = hpm_obs::span!(crate::metrics::SEARCH_SPAN);
        let mut stats = SearchStats::default();
        let image = self.image;
        if image.len > 0 {
            // Same contract as `Bitmap::intersects`: searching a
            // non-empty index with a foreign-geometry key is a logic
            // error.
            let lengths = (query.consequence.len(), query.premise.len());
            let geometry = (image.cons_bits, image.prem_bits);
            assert_eq!(lengths, geometry, "bitmap length mismatch");
            let (cq, pq) = (query.consequence.words(), query.premise.words());
            let leaf_query = self.leaves.resolve(cq, pq);
            match image.nodes.is_empty() {
                true => self.leaf(0, &leaf_query, out, &mut stats),
                false => self.dfs(0, 1, cq, pq, &leaf_query, out, &mut stats),
            }
        }
        crate::metrics::record_search(&stats, out.len());
        stats
    }

    /// §V.C's Intersect-pruned depth-first traversal from internal
    /// node `node` at `depth` (the root's is 1): `cq`/`pq` are the
    /// query's words, `leaf_query` the query resolved by the rows.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        node: u32,
        depth: usize,
        cq: &[u64],
        pq: &[u64],
        leaf_query: &L::Query<'_>,
        out: &mut Vec<u32>,
        stats: &mut SearchStats,
    ) {
        let image = self.image;
        let n = image.nodes[node as usize];
        stats.nodes_visited += 1;
        stats.entries_checked += n.count as usize;
        let (cw, stride) = geometry(image.cons_bits, image.prem_bits);
        let children = &image.child[n.start as usize..][..n.count as usize];
        let blocks = image.sig[n.start as usize * stride..].chunks_exact(stride);
        for (&child, block) in children.iter().zip(blocks) {
            if words_intersect(&block[..cw], cq) && words_intersect(&block[cw..], pq) {
                match depth + 1 == image.height {
                    true => self.leaf(child, leaf_query, out, stats),
                    false => self.dfs(child, depth + 1, cq, pq, leaf_query, out, stats),
                }
            }
        }
    }

    /// Tests leaf `j`'s rows, adjacent in the source.
    fn leaf(&self, j: u32, query: &L::Query<'_>, out: &mut Vec<u32>, stats: &mut SearchStats) {
        let (fill, len) = (self.image.fill as u32, self.image.len as u32);
        let rows = j * fill..((j + 1) * fill).min(len);
        stats.nodes_visited += 1;
        stats.entries_checked += rows.len();
        for p in rows {
            match self.leaves.intersects(p, query) {
                true => out.push(p),
                false => stats.false_hits += 1,
            }
        }
    }
}

/// Words per consequence part and per key.
fn geometry(cons_bits: usize, prem_bits: usize) -> (usize, usize) {
    let cw = cons_bits.div_ceil(64);
    (cw, cw + prem_bits.div_ceil(64))
}

/// Word-level intersection as a branchless OR-of-ANDs reduction: no
/// per-word early exit, so LLVM vectorizes the multi-word premise scan
/// (the dominant cost at high region counts). Boolean-identical to
/// `Bitmap::intersects` on equal-length inputs, including the empty
/// case (no words → `acc` stays 0 → false).
#[inline(always)]
fn words_intersect(a: &[u64], b: &[u64]) -> bool {
    let mut acc = 0u64;
    for (x, y) in a.iter().zip(b) {
        acc |= x & y;
    }
    acc != 0
}

impl SearchCursor {
    /// An empty cursor.
    pub fn new() -> Self {
        SearchCursor::default()
    }

    /// The most recent search's stats (zeroed if no search ran yet).
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Searches a packed image, replacing the cursor's previous matches
    /// and stats — the allocation-free hot path: after the cursor's
    /// buffer reaches its high-water mark, no heap traffic at all.
    pub fn search_packed<'c, L: LeafKeys>(
        &'c mut self,
        tpt: TptView<'_, L>,
        query: &PatternKey,
    ) -> &'c [u32] {
        self.out.clear();
        self.stats = tpt.search(query, &mut self.out);
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::ones;
    use crate::keys::{fig3_patterns, fig3_regions, fqp_query};
    use crate::{Bitmap, KeyTable};
    use hpm_rand::{Rng, SmallRng};

    /// Fig. 3's four patterns at fanout 4 (two leaves under one root),
    /// with their key table and keys.
    fn fig3() -> (KeyTable, LeafEntries, PackedTpt) {
        let (patterns, regions) = (fig3_patterns(), fig3_regions());
        let table = KeyTable::build(&regions, patterns.iter().map(|p| p.consequence));
        let keys: Vec<PatternKey> = (patterns.iter())
            .map(|p| table.encode_pattern(p, &regions))
            .collect();
        let leaves: LeafEntries = keys.iter().collect();
        let packed = PackedTpt::bulk_load(4, &leaves);
        packed.validate(4, &leaves).unwrap();
        (table, leaves, packed)
    }

    /// Seeded pseudo-random keys for structural tests, in key order:
    /// one consequence bit, up to three premise bits.
    fn synth_keys(n: usize, ck_len: usize, rk_len: usize) -> Vec<PatternKey> {
        let mut rng = SmallRng::seed_from_u64(0x9E37_79B9);
        let mut key = || {
            let rk: Vec<usize> = (0..3).map(|_| rng.gen_range(0..rk_len)).collect();
            PatternKey {
                consequence: Bitmap::from_indices(ck_len, &[rng.gen_range(0..ck_len)]),
                premise: Bitmap::from_indices(rk_len, &rk),
            }
        };
        let mut keys: Vec<PatternKey> = (0..n).map(|_| key()).collect();
        keys.sort();
        keys
    }

    /// [`synth_keys`] as leaf entries.
    fn synth_leaves(n: usize, ck_len: usize, rk_len: usize) -> LeafEntries {
        synth_keys(n, ck_len, rk_len).iter().collect()
    }

    /// Sorted row ids the tree returns for `q`.
    fn ids(tpt: TptView<'_, &LeafEntries>, q: &PatternKey) -> Vec<u32> {
        let mut found = SearchCursor::new().search_packed(tpt, q).to_vec();
        found.sort_unstable();
        found
    }

    #[test]
    fn fig4_query_finds_shadow_entries() {
        // §VI.B's worked example: query 1000011 matches P2 and P3.
        let (table, leaves, packed) = fig3();
        assert_eq!((packed.height(), packed.node_count()), (2, 3));
        let q = fqp_query(&table, &[0, 1], 2);
        assert_eq!(ids(packed.with_leaves(&leaves), &q), vec![2, 3]);
    }

    #[test]
    fn non_matching_consequence_prunes() {
        let (table, leaves, packed) = fig3();
        // tq = 1 matches P0 and P1 only (consequence offset 1).
        let q = fqp_query(&table, &[0], 1);
        assert_eq!(ids(packed.with_leaves(&leaves), &q), vec![0, 1]);
    }

    #[test]
    fn duplicate_keys_supported() {
        // Table III: pattern key 0100001 represents two patterns.
        let (table, leaves, packed) = fig3();
        let (patterns, regions) = (fig3_patterns(), fig3_regions());
        let key = |i: usize| table.encode_pattern(&patterns[i], &regions);
        assert_eq!(key(0), key(1));
        assert_eq!(ids(packed.with_leaves(&leaves), &key(0)), vec![0, 1]);
    }

    #[test]
    fn leaves_are_row_ranges() {
        // The root is the one packed node: its two entries carry the
        // signature words and name leaves 0 and 1, rows 0..3 and 3..4.
        let (table, _, packed) = fig3();
        let stride = table.consequence_count().div_ceil(64) + table.region_count().div_ceil(64);
        assert_eq!(packed.sig.len(), 2 * stride);
        assert_eq!(&*packed.child, &[0, 1]);
        assert_eq!(packed.arena_bytes(), 2 * stride * 8 + 2 * 4 + 8);
    }

    #[test]
    fn bulk_load_empty() {
        let leaves = LeafEntries::default();
        let packed = PackedTpt::bulk_load(32, &leaves);
        packed.validate(32, &leaves).unwrap();
        assert!(packed.is_empty());
        assert_eq!((packed.height(), packed.node_count()), (0, 0));
        assert_eq!(packed.arena_bytes(), 0);
        assert_eq!(packed, PackedTpt::default());
        // Any query geometry is accepted on an empty image.
        let q = PatternKey {
            consequence: ones(2),
            premise: ones(5),
        };
        let tpt = packed.with_leaves(&leaves);
        let mut cursor = SearchCursor::new();
        assert!(cursor.search_packed(tpt, &q).is_empty());
        assert_eq!(cursor.stats(), SearchStats::default());
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_fanout_rejected() {
        PackedTpt::bulk_load(3, &LeafEntries::default());
    }

    #[test]
    #[should_panic(expected = "bitmap length mismatch")]
    fn mixed_geometry_rejected() {
        // Without the check this packs a 7-word arena that is read at
        // the first key's stride of 2.
        let key = |prem_bits| PatternKey {
            consequence: ones(4),
            premise: ones(prem_bits),
        };
        let _: LeafEntries = [key(10), key(200)].iter().collect();
    }

    #[test]
    fn height_grows_logarithmically() {
        let leaves = synth_leaves(200, 8, 40);
        let packed = PackedTpt::bulk_load(4, &leaves);
        // fill = 3; 200 leaf entries -> 67 leaves -> 23 -> 8 -> 3 -> 1.
        assert_eq!(packed.height(), 5);
        assert_eq!(packed.node_count(), 67 + 23 + 8 + 3 + 1);
        packed.validate(4, &leaves).unwrap();
    }

    #[test]
    fn selective_query_prunes_subtrees() {
        // A selective query should check far fewer entries than a full
        // scan would.
        let leaves = synth_leaves(2000, 16, 200);
        let packed = PackedTpt::bulk_load(32, &leaves);
        let q = &synth_keys(1, 16, 200)[0];
        let mut cursor = SearchCursor::new();
        cursor.search_packed(packed.with_leaves(&leaves), q);
        let stats = cursor.stats();
        assert!(stats.nodes_visited >= 1);
        assert!(stats.entries_checked < 2000, "{stats:?}");
    }

    #[test]
    fn storage_grows_with_patterns() {
        let storage =
            |n, rk_len| PackedTpt::bulk_load(32, &synth_leaves(n, 8, rk_len)).storage_bytes();
        assert!(storage(1000, 80) > storage(100, 80));
        // Wider premise keys also cost more.
        assert!(storage(1000, 800) > storage(1000, 80));
    }

    #[test]
    fn validate_rejects_a_broken_image() {
        let leaves = synth_leaves(40, 8, 40);
        let good = PackedTpt::bulk_load(4, &leaves);
        let broken = |fanout, edit: fn(&mut PackedTpt)| {
            let mut image = good.clone();
            edit(&mut image);
            image.validate(fanout, &leaves).unwrap_err()
        };
        assert!(broken(2, |_| ()).contains("fanout"));
        assert!(broken(4, |p| p.sig[0] = !p.sig[0]).contains("OR of"));
        assert!(broken(4, |p| p.child[1] = p.child[0]).contains("pre-order"));
        assert!(broken(4, |p| p.nodes[1].start += 1).contains("pre-order"));
        assert!(broken(4, |p| p.len -= 1).contains("past the rows"));
        assert!(broken(4, |p| p.height += 1).contains("depth"));
        // The last entry of the arena names the last leaf: the leaves
        // cover the rows in order, each once.
        let skipped = broken(4, |p| p.child[p.child.len() - 1] -= 1);
        assert!(skipped.contains("next in row order"), "{skipped}");
        // A leaf read from other keys is not what its parent entry ORs.
        let other = synth_leaves(41, 8, 40);
        let skewed = LeafEntries {
            len: 40,
            sig: other.sig[2..].to_vec(), // one word per part
            ..other
        };
        assert!(good.validate(4, &skewed).unwrap_err().contains("OR of"));
    }

    #[test]
    fn cursor_stats_are_per_search_not_accumulated() {
        // Regression: a reused cursor must report each search's own
        // matches and stats; false_hits (and the other counters) must
        // never carry over from the previous search.
        let (table, leaves, packed) = fig3();
        let tpt = packed.with_leaves(&leaves);
        let mut cursor = SearchCursor::new();
        let queries = [
            fqp_query(&table, &[0, 1], 2),
            PatternKey {
                consequence: ones(table.consequence_count()),
                premise: ones(5),
            },
            fqp_query(&table, &[4], 0),
        ];
        for q in &queries {
            let mut fresh = SearchCursor::new();
            let want = fresh.search_packed(tpt, q).to_vec();
            assert_eq!(cursor.search_packed(tpt, q), want);
            assert_eq!(cursor.stats(), fresh.stats(), "stats accumulated");
        }
        // Same query twice through one cursor: identical stats, not 2x.
        cursor.search_packed(tpt, &queries[0]);
        let first = cursor.stats();
        let again = cursor.search_packed(tpt, &queries[0]).to_vec();
        assert_eq!(cursor.stats(), first);
        assert_eq!(again, ids(tpt, &queries[0]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn foreign_geometry_panics() {
        let (_, leaves, packed) = fig3();
        let q = PatternKey {
            consequence: ones(3), // table has 2 time ids
            premise: ones(5),
        };
        SearchCursor::new().search_packed(packed.with_leaves(&leaves), &q);
    }
}
