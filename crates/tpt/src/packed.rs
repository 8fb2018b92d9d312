//! The arena-packed TPT: the index's one form, its bulk loader
//! (§V.B) and the §V.C search.
//!
//! [`PackedTpt`] keeps every internal entry signature contiguously in
//! one `u64` arena: each internal node's entries form a run of
//! `[consequence words | premise words]` blocks, so the intersect test
//! scans the arena linearly and chases no pointer, with each entry's
//! child node id in one parallel array. A leaf node is a run of
//! pattern ids in that array and nothing else: a leaf key is a pure
//! function of its pattern's row, so the image does not keep a second
//! copy of it. A search reads it through the id from the [`LeafKeys`]
//! source it is given ([`PackedTpt::with_leaves`]). Nodes are laid out
//! in DFS pre-order, so a search walks mostly forward in memory.
//! [`PackedTpt::bulk_load`] packs sorted keys straight into those
//! arenas; no pointer tree exists at any point.
//!
//! Search walks the image depth-first, descending only into entries
//! whose key intersects the query key on both the consequence and the
//! premise part. The image is a pure function of `(fanout, entries)`;
//! the property suite in `tests/props.rs` holds it structurally valid
//! and equal to the brute-force [`scan`](crate::scan) on every result
//! set over generated key sets, and a fixture pins its bytes.

use crate::PatternKey;

/// Statistics of one search (Fig. 11b instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Nodes whose entries were examined.
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

/// One packed node: a slice of the signature arena plus a slice of the
/// metadata arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedNode {
    /// First word of this node's signature run in `PackedTpt::sig`
    /// (a leaf has no run: where the next internal node's starts).
    sig_start: u32,
    /// First entry of this node in `PackedTpt::child`.
    meta_start: u32,
    /// Number of entries.
    count: u32,
    /// Leaf nodes yield matches; internal nodes yield child node ids.
    leaf: bool,
}

/// The Trajectory Pattern Tree (§V) as one packed image: a leaf entry
/// is `<p>`, the pattern pointer alone — §V's key `pk` and confidence
/// `c` are read through `p` from the pattern store, the key by the
/// [`LeafKeys`] source a search is given — and each internal entry's
/// key is the logical OR of all keys in its subtree.
///
/// Built by [`bulk_load`](Self::bulk_load); node 0 is the root. The
/// image is frozen: a pattern set whose keys change is bulk-loaded
/// afresh. Two images are equal exactly when they hold the same nodes,
/// signatures and payloads in the same layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedTpt {
    /// Bit length of the consequence part of every key.
    cons_bits: usize,
    /// Bit length of the premise part of every key.
    prem_bits: usize,
    /// Words per consequence part (`cons_bits.div_ceil(64)`).
    cw: usize,
    /// Words per premise part.
    pw: usize,
    nodes: Box<[PackedNode]>,
    /// Signature arena: per internal entry `cw + pw` words,
    /// consequence first, node entries contiguous, nodes in DFS
    /// pre-order.
    sig: Box<[u64]>,
    /// Per entry: child node id (internal) or pattern id (leaf).
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

/// Where a search reads the key of a leaf entry: pattern `p`'s key,
/// tested against a query's or ORed into a signature, in the image's
/// geometry (consequence words, then premise words). [`LeafEntries`]
/// holds the keys as words; a pattern store can derive them from its
/// rows instead.
pub trait LeafKeys {
    /// A query's words in the form [`intersects`](Self::intersects)
    /// reads, resolved once per search.
    type Query<'q>;

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

/// Pattern keys in arena layout, pattern `i` the `i`th pushed — `cw +
/// pw` words each, consequence first, written by setting the key's
/// bits ([`push`](Self::push)): what [`PackedTpt::bulk_load`] sorts
/// and packs, and the [`LeafKeys`] source of callers that hold no
/// pattern store. Keys held as [`PatternKey`]s collect into one, their
/// words copied as they are ([`FromIterator`]; ids are positions, as in
/// [`scan`](crate::scan)).
#[derive(Debug, Clone, Default)]
pub struct LeafEntries {
    cons_bits: usize,
    prem_bits: usize,
    /// Per entry `cw + pw` words, entries in input order.
    sig: Vec<u64>,
    len: usize,
}

impl LeafEntries {
    /// No entries yet, for keys of `cons_bits` consequence and
    /// `prem_bits` premise bits, with room for `n`.
    pub fn with_capacity(cons_bits: usize, prem_bits: usize, n: usize) -> Self {
        let stride = cons_bits.div_ceil(64) + prem_bits.div_ceil(64);
        LeafEntries {
            cons_bits,
            prem_bits,
            sig: Vec::with_capacity(n * stride),
            len: 0,
        }
    }

    /// Appends the next pattern, whose key sets the `consequence` and
    /// `premise` bits.
    ///
    /// # Panics
    /// Panics when a bit is outside its part.
    pub fn push(
        &mut self,
        consequence: impl IntoIterator<Item = usize>,
        premise: impl IntoIterator<Item = usize>,
    ) {
        let cw = self.cons_bits.div_ceil(64);
        let start = self.sig.len();
        self.sig.resize(start + cw + self.prem_bits.div_ceil(64), 0);
        let (cons, prem) = self.sig[start..].split_at_mut(cw);
        set_bits(cons, self.cons_bits, consequence);
        set_bits(prem, self.prem_bits, premise);
        self.len += 1;
    }

    /// Words per consequence part and per key.
    fn geometry(&self) -> (usize, usize) {
        let cw = self.cons_bits.div_ceil(64);
        (cw, cw + self.prem_bits.div_ceil(64))
    }

    /// Pattern `p`'s key words, split into its two parts.
    fn key(&self, p: u32) -> (&[u64], &[u64]) {
        let (cw, stride) = self.geometry();
        self.sig[p as usize * stride..][..stride].split_at(cw)
    }
}

/// Sets `bits` in `words`, a part of `len` bits.
fn set_bits(words: &mut [u64], len: usize, bits: impl IntoIterator<Item = usize>) {
    for i in bits {
        assert!(i < len, "bit {i} out of range (len {len})");
        words[i / 64] |= 1 << (i % 64);
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
    /// Builds the image by bulk loading (§V.B: the system bulk-loads
    /// the static history): entries are sorted — by consequence part,
    /// then premise part, each read as a number most-significant word
    /// first, ties in input order — so similar keys become neighbours,
    /// packed into leaves at ¾ of `fanout`, and parent levels are packed
    /// bottom-up from the OR of each node's signatures. The leaves keep
    /// the pattern ids alone: the sorted keys are read once, to build
    /// the level above them, and `entries` is the [`LeafKeys`] source a
    /// search of the image may be given.
    ///
    /// Emits the `tpt.repack` span/histogram around sort and pack,
    /// bumps `tpt.repack.calls` and sets the `tpt.packed.arena_bytes`
    /// gauge to the new image's arena size (i.e. the gauge reports the
    /// most recent build).
    ///
    /// # Panics
    /// Panics when `fanout < 4`.
    pub fn bulk_load(fanout: usize, entries: &LeafEntries) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        let _span = hpm_obs::span!(crate::metrics::REPACK_SPAN);
        let mut packed = PackedTpt::default();
        let n = entries.len;
        if n > 0 {
            let (cw, stride) = entries.geometry();
            let fill = fanout * 3 / 4;
            // The `k`th word of that comparison, read from the arena (0
            // past the block). The first two lead the sort key, a wider
            // block breaks ties on them by the words after it, and the
            // input position ends it, so the unstable sort places
            // entries as a stable one would.
            let block = |i: u32| &entries.sig[i as usize * stride..][..stride];
            let word = |i: u32, k: usize| match k {
                k if k >= stride => 0,
                k if k < cw => block(i)[cw - 1 - k],
                k => block(i)[stride - 1 - (k - cw)],
            };
            let mut order: Vec<(u64, u64, u32)> =
                (0..n as u32).map(|i| (word(i, 0), word(i, 1), i)).collect();
            let rest = |i: u32| (2..stride).map(move |k| word(i, k));
            order.sort_unstable_by(|a, b| {
                (a.0, a.1)
                    .cmp(&(b.0, b.1))
                    .then_with(|| rest(a.2).cmp(rest(b.2)))
                    .then(a.2.cmp(&b.2))
            });
            // Per level, its signature count and the signatures: node
            // `j` of a level covers signatures `[j·fill, (j+1)·fill)`,
            // and signature `j` of the level above is their OR. Level 0
            // holds no words: its signatures are the sorted keys. The
            // top level is the first that fits one node.
            let mut levels = vec![(n, Vec::new())];
            while let Some(&(n, ref below)) = levels.last().filter(|l| l.0 > fill) {
                let mut above = vec![0u64; n.div_ceil(fill) * stride];
                for i in 0..n {
                    let from = match below.is_empty() {
                        true => block(order[i].2),
                        false => &below[i * stride..][..stride],
                    };
                    let to = &mut above[i / fill * stride..][..stride];
                    to.iter_mut().zip(from).for_each(|(t, f)| *t |= f);
                }
                levels.push((n.div_ceil(fill), above));
            }
            // Every node and entry is known before the first copy, so
            // the arenas freeze without slack.
            let total: usize = levels.iter().map(|l| l.0).sum();
            let mut nodes = Vec::with_capacity(levels.iter().map(|l| l.0.div_ceil(fill)).sum());
            let mut sig = Vec::with_capacity((total - n) * stride);
            let mut child = Vec::with_capacity(total);
            // Root first, then DFS pre-order: `(level, j, slot)` is a
            // node to emit and the child slot of its parent, which is
            // patched with the packed id as it is assigned.
            let mut stack = vec![(levels.len() - 1, 0, None)];
            while let Some((level, j, slot)) = stack.pop() {
                let (n, ref sigs) = levels[level];
                let (lo, hi) = (j * fill, ((j + 1) * fill).min(n));
                if let Some(slot) = slot {
                    child[slot] = nodes.len() as u32;
                }
                let meta_start = child.len();
                nodes.push(PackedNode {
                    sig_start: sig.len() as u32,
                    meta_start: meta_start as u32,
                    count: (hi - lo) as u32,
                    leaf: level == 0,
                });
                if level == 0 {
                    child.extend(order[lo..hi].iter().map(|&(.., i)| i));
                } else {
                    sig.extend_from_slice(&sigs[lo * stride..hi * stride]);
                    child.resize(meta_start + hi - lo, 0);
                    let below = (lo..hi)
                        .rev()
                        .map(|i| (level - 1, i, Some(meta_start + i - lo)));
                    stack.extend(below);
                }
            }
            packed = PackedTpt {
                cons_bits: entries.cons_bits,
                prem_bits: entries.prem_bits,
                cw,
                pw: stride - cw,
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
    /// it was loaded with and the `leaves` it was loaded from;
    /// test/debug helper.
    ///
    /// Verified: nodes are laid out in DFS pre-order from node 0 (so
    /// child ids are in range and every node is referenced exactly
    /// once), every internal entry's signature is the OR of its child
    /// node's signatures — over a leaf node, of its patterns' keys read
    /// through their ids from `leaves` — leaves (and only leaves) sit
    /// at depth `height`, no node is empty or holds more than `fanout`
    /// entries, and the leaves hold every pattern id in `0..len` once.
    pub fn validate(&self, fanout: usize, leaves: impl LeafKeys) -> Result<(), String> {
        let (mut visited, mut seen) = (0, vec![false; self.len]);
        if !self.nodes.is_empty() {
            self.validate_node(1, fanout, &leaves, &mut visited, &mut seen)?;
        }
        let height_ok = visited != 0 || self.height == 0;
        let leaf_entries = seen.iter().filter(|&&s| s).count();
        if visited != self.nodes.len() || leaf_entries != self.len || !height_ok {
            let claimed = (self.nodes.len(), self.len);
            return Err(format!(
                "walked {visited} nodes, {leaf_entries} leaf entries of {claimed:?}"
            ));
        }
        Ok(())
    }

    /// Validates the next node in pre-order (`visited` counts the
    /// nodes before it) and its subtree, marking its pattern ids in
    /// `seen`; returns the OR of the node's signatures, which is what
    /// its parent entry must hold.
    fn validate_node(
        &self,
        depth: usize,
        fanout: usize,
        leaves: &impl LeafKeys,
        visited: &mut usize,
        seen: &mut [bool],
    ) -> Result<Vec<u64>, String> {
        let id = *visited;
        let check = |ok: bool, what: &str| match ok {
            true => Ok(()),
            false => Err(format!("node {id} at depth {depth}: {what}")),
        };
        check(id < self.nodes.len(), "id out of range")?;
        *visited += 1;
        let n = self.nodes[id];
        let (count, stride) = (n.count as usize, self.cw + self.pw);
        // No occupancy floor: a level may end in one short node.
        check((1..=fanout).contains(&count), "empty or above the fanout")?;
        check(
            n.leaf == (depth == self.height),
            "only leaves sit at depth `height`",
        )?;
        let mut union = vec![0u64; stride];
        let ids = &self.child[n.meta_start as usize..][..count];
        for (i, &child) in ids.iter().enumerate() {
            let (cons, prem) = union.split_at_mut(self.cw);
            if n.leaf {
                let fresh = seen.get(child as usize).is_some_and(|s| !s);
                check(fresh, "a pattern id is out of range or repeated")?;
                seen[child as usize] = true;
                leaves.or_into(child, cons, prem);
                continue;
            }
            let block = &self.sig[n.sig_start as usize + i * stride..][..stride];
            check(
                child as usize == *visited,
                "a child is not next in pre-order",
            )?;
            let below = self.validate_node(depth + 1, fanout, leaves, visited, seen)?;
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

    /// Number of packed nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Heap bytes of the arena and the SoA metadata arrays.
    pub fn arena_bytes(&self) -> usize {
        self.sig.len() * 8
            + self.child.len() * 4
            + self.nodes.len() * std::mem::size_of::<PackedNode>()
    }

    /// Total resident bytes (Fig. 11a accounting): the internal
    /// signatures and the ids, not the leaf keys, which live in the
    /// [`LeafKeys`] source.
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.arena_bytes()
    }

    /// The searchable tree: this image with the source of its leaf
    /// keys — the [`LeafEntries`] it was loaded from, or a pattern
    /// store that derives the same keys from its rows.
    pub fn with_leaves<L: LeafKeys>(&self, leaves: L) -> TptView<'_, L> {
        TptView {
            image: self,
            leaves,
        }
    }
}

/// A [`PackedTpt`] image paired with the [`LeafKeys`] source its leaf
/// ids point into ([`PackedTpt::with_leaves`]): what a search runs on.
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
    /// The pattern id `p` of every leaf entry matching `query` (order
    /// unspecified), in a fresh vector; the hot path, and a caller that
    /// wants the [`SearchStats`], use [`SearchCursor::search_packed`].
    pub fn search(&self, query: &PatternKey) -> Vec<u32> {
        let mut out = Vec::new();
        self.search_impl(query, &mut out);
        out
    }

    /// One search under the `tpt.search` span: pushes the matches to
    /// the empty `out`, publishes the stats to the counters and returns
    /// them.
    fn search_impl(&self, query: &PatternKey, out: &mut Vec<u32>) -> SearchStats {
        let _span = hpm_obs::span!(crate::metrics::SEARCH_SPAN);
        let mut stats = SearchStats::default();
        if !self.image.nodes.is_empty() {
            // Same contract as `Bitmap::intersects`: searching a
            // non-empty index with a foreign-geometry key is a logic
            // error.
            let lengths = (query.consequence.len(), query.premise.len());
            let geometry = (self.image.cons_bits, self.image.prem_bits);
            assert_eq!(lengths, geometry, "bitmap length mismatch");
            let (cq, pq) = (query.consequence.words(), query.premise.words());
            self.dfs(0, cq, pq, &self.leaves.resolve(cq, pq), out, &mut stats);
        }
        crate::metrics::record_search(&stats, out.len());
        stats
    }

    /// §V.C's Intersect-pruned depth-first traversal, reading internal
    /// signature words straight from the arena and leaf keys through
    /// their ids. `cq`/`pq` are the query's consequence and premise
    /// words, `leaf_query` the same query resolved by the leaf source.
    fn dfs(
        &self,
        node: u32,
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
        let ids = &image.child[n.meta_start as usize..][..n.count as usize];
        if n.leaf {
            for &p in ids {
                match self.leaves.intersects(p, leaf_query) {
                    true => out.push(p),
                    false => stats.false_hits += 1,
                }
            }
            return;
        }
        let (cw, stride) = (image.cw, image.cw + image.pw);
        for (i, &child) in ids.iter().enumerate() {
            let block = &image.sig[n.sig_start as usize + i * stride..][..stride];
            if words_intersect(&block[..cw], cq) && words_intersect(&block[cw..], pq) {
                self.dfs(child, cq, pq, leaf_query, out, stats);
            }
        }
    }
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

    /// The most recent search's matches, as pattern ids.
    pub fn matches(&self) -> &[u32] {
        &self.out
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
        self.stats = tpt.search_impl(query, &mut self.out);
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

    /// Seeded pseudo-random keys for structural tests: one consequence
    /// bit, up to three premise bits.
    fn synth_keys(n: usize, ck_len: usize, rk_len: usize) -> Vec<PatternKey> {
        let mut rng = SmallRng::seed_from_u64(0x9E37_79B9);
        let mut key = || {
            let rk: Vec<usize> = (0..3).map(|_| rng.gen_range(0..rk_len)).collect();
            PatternKey {
                consequence: Bitmap::from_indices(ck_len, &[rng.gen_range(0..ck_len)]),
                premise: Bitmap::from_indices(rk_len, &rk),
            }
        };
        (0..n).map(|_| key()).collect()
    }

    /// [`synth_keys`] as leaf entries.
    fn synth_leaves(n: usize, ck_len: usize, rk_len: usize) -> LeafEntries {
        synth_keys(n, ck_len, rk_len).iter().collect()
    }

    /// Sorted pattern ids the tree returns for `q`.
    fn ids(tpt: TptView<'_, &LeafEntries>, q: &PatternKey) -> Vec<u32> {
        let mut found = tpt.search(q);
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
    fn leaves_hold_ids_not_keys() {
        // Only the root's two entries carry signature words.
        let (table, leaves, packed) = fig3();
        let stride = table.consequence_count().div_ceil(64) + table.region_count().div_ceil(64);
        assert_eq!(packed.sig.len(), 2 * stride);
        assert_eq!(packed.child.len(), 2 + leaves.len);
        assert_eq!(packed.arena_bytes(), 2 * stride * 8 + 6 * 4 + 3 * 16);
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
        assert!(tpt.search(&q).is_empty());
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
        assert!(broken(4, |p| p.len += 1).contains("leaf entries"));
        assert!(broken(4, |p| p.height += 1).contains("depth"));
        // The leaf ids: each once, each in range.
        let last = good.child.len() - 1;
        let repeated = broken(4, |p| {
            p.child[p.child.len() - 1] = p.child[p.child.len() - 2]
        });
        assert!(repeated.contains("repeated"), "{repeated}");
        let mut far = good.clone();
        far.child[last] = 40;
        assert!(far
            .validate(4, &leaves)
            .unwrap_err()
            .contains("out of range"));
        // A leaf read from other keys is not what its parent entry ORs.
        let other = synth_leaves(41, 8, 40);
        let skewed = LeafEntries {
            len: 40,
            sig: other.sig[other.geometry().1..].to_vec(),
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
            fresh.search_packed(tpt, q);
            assert_eq!(cursor.search_packed(tpt, q), fresh.matches());
            assert_eq!(cursor.stats(), fresh.stats(), "stats accumulated");
        }
        // Same query twice through one cursor: identical stats, not 2x.
        cursor.search_packed(tpt, &queries[0]);
        let first = cursor.stats();
        cursor.search_packed(tpt, &queries[0]);
        assert_eq!(cursor.stats(), first);
        assert_eq!(cursor.matches(), &tpt.search(&queries[0])[..]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn foreign_geometry_panics() {
        let (_, leaves, packed) = fig3();
        let q = PatternKey {
            consequence: ones(3), // table has 2 time ids
            premise: ones(5),
        };
        packed.with_leaves(&leaves).search(&q);
    }
}
