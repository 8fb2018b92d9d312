//! The arena-packed TPT: the index's one form, its bulk loader
//! (§V.B) and the §V.C search.
//!
//! [`PackedTpt`] keeps every entry signature contiguously in one `u64`
//! arena: each node's entries form a run of `[consequence words |
//! premise words]` blocks, so the intersect test scans the arena
//! linearly and chases no pointer, with each entry's child or pattern
//! id in one parallel array. Nodes are laid out in DFS pre-order, so a
//! search walks mostly forward in memory.
//! [`PackedTpt::bulk_load`] packs sorted keys straight into those
//! arenas; no pointer tree exists at any point.
//!
//! Search walks the image depth-first, descending only into entries
//! whose key intersects the query key on both the consequence and the
//! premise part. The image is a pure function of `(fanout, entries)`;
//! the property suite in `tests/props.rs` holds it structurally valid
//! and equal to the brute-force scan on every result set over
//! generated key sets, and a parent-written fixture pins its bytes.

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
    /// First word of this node's signature run in `PackedTpt::sig`.
    sig_start: u32,
    /// First entry of this node in `PackedTpt::child`.
    meta_start: u32,
    /// Number of entries.
    count: u32,
    /// Leaf nodes yield matches; internal nodes yield child node ids.
    leaf: bool,
}

/// The Trajectory Pattern Tree (§V) as one packed image: leaf entries
/// are `<pk, p>` (pattern key, pattern pointer; §V's confidence `c` is
/// read through `p` from the pattern store) and each internal entry's
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
    /// Signature arena: per entry `cw + pw` words, consequence first,
    /// node entries contiguous, nodes in DFS pre-order.
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

/// The leaf entries `<pk, p>` of an image in input order, each key
/// written straight in arena layout — `cw + pw` words, consequence
/// first — by setting its bits ([`push`](Self::push)): what
/// [`PackedTpt::bulk_load`] sorts and packs. Keys held as
/// [`PatternKey`]s collect into one, their words copied as they are
/// ([`FromIterator`]).
#[derive(Debug, Clone, Default)]
pub struct LeafEntries {
    cons_bits: usize,
    prem_bits: usize,
    /// Per entry `cw + pw` words, entries in input order.
    sig: Vec<u64>,
    pattern: Vec<u32>,
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
            pattern: Vec::with_capacity(n),
        }
    }

    /// Appends pattern `pattern`, whose key sets the `consequence` and
    /// `premise` bits.
    ///
    /// # Panics
    /// Panics when a bit is outside its part.
    pub fn push(
        &mut self,
        consequence: impl IntoIterator<Item = usize>,
        premise: impl IntoIterator<Item = usize>,
        pattern: u32,
    ) {
        let cw = self.cons_bits.div_ceil(64);
        let start = self.sig.len();
        self.sig.resize(start + cw + self.prem_bits.div_ceil(64), 0);
        let (cons, prem) = self.sig[start..].split_at_mut(cw);
        set_bits(cons, self.cons_bits, consequence);
        set_bits(prem, self.prem_bits, premise);
        self.pattern.push(pattern);
    }
}

/// Sets `bits` in `words`, a part of `len` bits.
fn set_bits(words: &mut [u64], len: usize, bits: impl IntoIterator<Item = usize>) {
    for i in bits {
        assert!(i < len, "bit {i} out of range (len {len})");
        words[i / 64] |= 1 << (i % 64);
    }
}

impl FromIterator<(PatternKey, u32)> for LeafEntries {
    /// Copies held keys' words out, geometry from the first.
    ///
    /// # Panics
    /// Panics when two keys differ in either part's bit length (all
    /// keys of one image come from one [`KeyTable`](crate::KeyTable)).
    fn from_iter<I: IntoIterator<Item = (PatternKey, u32)>>(entries: I) -> Self {
        let mut leaves = LeafEntries::default();
        for (i, (key, pattern)) in entries.into_iter().enumerate() {
            let lengths = (key.consequence.len(), key.premise.len());
            if i == 0 {
                (leaves.cons_bits, leaves.prem_bits) = lengths;
            }
            let geometry = (leaves.cons_bits, leaves.prem_bits);
            assert_eq!(lengths, geometry, "bitmap length mismatch");
            leaves.sig.extend_from_slice(key.consequence.words());
            leaves.sig.extend_from_slice(key.premise.words());
            leaves.pattern.push(pattern);
        }
        leaves
    }
}

impl PackedTpt {
    /// Builds the image by bulk loading (§V.B: the system bulk-loads
    /// the static history): entries are sorted — by consequence part,
    /// then premise part, each read as a number most-significant word
    /// first, ties in input order — so similar keys become neighbours,
    /// packed into leaves at ¾ of `fanout`, and parent levels are packed
    /// bottom-up from the OR of each node's signatures.
    ///
    /// Emits the `tpt.repack` span/histogram around sort and pack,
    /// bumps `tpt.repack.calls` and sets the `tpt.packed.arena_bytes`
    /// gauge to the new image's arena size (i.e. the gauge reports the
    /// most recent build).
    ///
    /// # Panics
    /// Panics when `fanout < 4`.
    pub fn bulk_load(fanout: usize, entries: LeafEntries) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        let _span = hpm_obs::span!(crate::metrics::REPACK_SPAN);
        let mut packed = PackedTpt::default();
        let LeafEntries {
            cons_bits,
            prem_bits,
            sig: input,
            pattern: input_pattern,
        } = entries;
        let n = input_pattern.len();
        if n > 0 {
            let (cw, pw) = (cons_bits.div_ceil(64), prem_bits.div_ceil(64));
            let (fill, stride) = (fanout * 3 / 4, cw + pw);
            // The `k`th word of that comparison, read from the arena (0
            // past the block). The first two lead the sort key, a wider
            // block breaks ties on them by the words after it, and the
            // input position ends it, so the unstable sort places
            // entries as a stable one would.
            let block = |i: u32| &input[i as usize * stride..][..stride];
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
            // Level 0 is the sorted leaf signatures.
            let mut leaves = Vec::with_capacity(n * stride);
            for &(.., i) in &order {
                leaves.extend_from_slice(block(i));
            }
            // Per level, its signature count and the signatures: node
            // `j` of a level covers signatures `[j·fill, (j+1)·fill)`,
            // and signature `j` of the level above is their OR. The
            // top level is the first that fits one node.
            let mut levels = vec![(n, leaves)];
            while let Some(&(n, ref below)) = levels.last().filter(|l| l.0 > fill) {
                let mut above = vec![0u64; n.div_ceil(fill) * stride];
                for i in 0..n {
                    let (from, to) = (i * stride, i / fill * stride);
                    for w in 0..stride {
                        above[to + w] |= below[from + w];
                    }
                }
                levels.push((n.div_ceil(fill), above));
            }
            // Every node and entry is known before the first copy, so
            // the arenas freeze without slack.
            let entries: usize = levels.iter().map(|l| l.0).sum();
            let mut nodes = Vec::with_capacity(levels.iter().map(|l| l.0.div_ceil(fill)).sum());
            let mut sig = Vec::with_capacity(entries * stride);
            let mut child = Vec::with_capacity(entries);
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
                sig.extend_from_slice(&sigs[lo * stride..hi * stride]);
                if level == 0 {
                    for &(.., i) in &order[lo..hi] {
                        child.push(input_pattern[i as usize]);
                    }
                } else {
                    child.resize(meta_start + hi - lo, 0);
                    let below = (lo..hi)
                        .rev()
                        .map(|i| (level - 1, i, Some(meta_start + i - lo)));
                    stack.extend(below);
                }
            }
            packed = PackedTpt {
                cons_bits,
                prem_bits,
                cw,
                pw,
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
    /// it was loaded with; test/debug helper.
    ///
    /// Verified: nodes are laid out in DFS pre-order from node 0 (so
    /// child ids are in range and every node is referenced exactly
    /// once), every internal entry's signature is the OR of its child
    /// node's signatures, leaves (and only leaves) sit at depth
    /// `height`, no node is empty or holds more than `fanout` entries,
    /// and `len` matches the number of leaf entries.
    pub fn validate(&self, fanout: usize) -> Result<(), String> {
        let (mut visited, mut leaf_entries) = (0, 0);
        if !self.nodes.is_empty() {
            self.validate_node(1, fanout, &mut visited, &mut leaf_entries)?;
        }
        let height_ok = visited != 0 || self.height == 0;
        if visited != self.nodes.len() || leaf_entries != self.len || !height_ok {
            let claimed = (self.nodes.len(), self.len, self.height);
            return Err(format!(
                "walked {visited} nodes, {leaf_entries} leaf entries of {claimed:?}"
            ));
        }
        Ok(())
    }

    /// Validates the next node in pre-order (`visited` counts the
    /// nodes before it) and its subtree; returns the OR of the node's
    /// signatures, which is what its parent entry must hold.
    fn validate_node(
        &self,
        depth: usize,
        fanout: usize,
        visited: &mut usize,
        leaf_entries: &mut usize,
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
        for i in 0..count {
            let block = &self.sig[n.sig_start as usize + i * stride..][..stride];
            if n.leaf {
                *leaf_entries += 1;
            } else {
                let child = self.child[n.meta_start as usize + i] as usize;
                check(child == *visited, "a child is not next in pre-order")?;
                let below = self.validate_node(depth + 1, fanout, visited, leaf_entries)?;
                check(below == block, "an entry is not the OR of its child node")?;
            }
            for (u, w) in union.iter_mut().zip(block) {
                *u |= w;
            }
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

    /// Total resident bytes (Fig. 11a accounting).
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.arena_bytes()
    }

    /// The pattern id `p` of every leaf entry matching `query` (order
    /// unspecified), in a fresh vector.
    pub fn search(&self, query: &PatternKey) -> Vec<u32> {
        self.search_with_stats(query).0
    }

    /// Appends the pattern id of every match of `query` to `out` (order
    /// unspecified).
    pub fn search_into(&self, query: &PatternKey, out: &mut Vec<u32>) {
        self.search_impl(query, out);
    }

    /// Searches with instrumentation (allocates the match vector; the
    /// hot path uses [`SearchCursor::search_packed`]).
    pub fn search_with_stats(&self, query: &PatternKey) -> (Vec<u32>, SearchStats) {
        let mut out = Vec::new();
        let stats = self.search_impl(query, &mut out);
        (out, stats)
    }

    /// One search under the `tpt.search` span: appends the matches to
    /// `out`, publishes the stats to the counters and returns them.
    fn search_impl(&self, query: &PatternKey, out: &mut Vec<u32>) -> SearchStats {
        let _span = hpm_obs::span!(crate::metrics::SEARCH_SPAN);
        let (before, mut stats) = (out.len(), SearchStats::default());
        if !self.nodes.is_empty() {
            // Same contract as `Bitmap::intersects`: searching a
            // non-empty index with a foreign-geometry key is a logic
            // error.
            let lengths = (query.consequence.len(), query.premise.len());
            assert_eq!(
                lengths,
                (self.cons_bits, self.prem_bits),
                "bitmap length mismatch"
            );
            let (cq, pq) = (query.consequence.words(), query.premise.words());
            self.dfs(0, cq, pq, out, &mut stats);
        }
        crate::metrics::record_search(&stats, out.len() - before);
        stats
    }

    /// §V.C's Intersect-pruned depth-first traversal, reading
    /// signature words straight from the arena. `cq`/`pq` are the
    /// query's consequence and premise words.
    fn dfs(&self, node: u32, cq: &[u64], pq: &[u64], out: &mut Vec<u32>, stats: &mut SearchStats) {
        let n = self.nodes[node as usize];
        stats.nodes_visited += 1;
        stats.entries_checked += n.count as usize;
        let stride = self.cw + self.pw;
        let mut sig = n.sig_start as usize;
        for i in 0..n.count as usize {
            let block = &self.sig[sig..sig + stride];
            sig += stride;
            let hit =
                words_intersect(&block[..self.cw], cq) && words_intersect(&block[self.cw..], pq);
            if hit {
                let m = n.meta_start as usize + i;
                if n.leaf {
                    out.push(self.child[m]);
                } else {
                    self.dfs(self.child[m], cq, pq, out, stats);
                }
            } else if n.leaf {
                stats.false_hits += 1;
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
    pub fn search_packed<'c>(&'c mut self, packed: &PackedTpt, query: &PatternKey) -> &'c [u32] {
        self.out.clear();
        self.stats = packed.search_impl(query, &mut self.out);
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::ones;
    use crate::keys::{fig3_patterns, fig3_regions};
    use crate::{Bitmap, KeyTable};
    use hpm_patterns::RegionId;
    use hpm_rand::{Rng, SmallRng};

    /// `<pk, p>` entries of `patterns` over Fig. 3's regions.
    fn entries(table: &KeyTable, patterns: &[hpm_patterns::TrajectoryPattern]) -> LeafEntries {
        let regions = fig3_regions();
        patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (table.encode_pattern(p, &regions), i as u32))
            .collect()
    }

    /// Fig. 3's four patterns at fanout 4: two leaves under one root.
    fn fig3() -> (KeyTable, PackedTpt) {
        let patterns = fig3_patterns();
        let table = KeyTable::build(&fig3_regions(), patterns.iter().map(|p| p.consequence));
        let packed = PackedTpt::bulk_load(4, entries(&table, &patterns));
        packed.validate(4).unwrap();
        (table, packed)
    }

    /// Seeded pseudo-random keys for structural tests: one consequence
    /// bit, up to three premise bits.
    fn synth_keys(n: usize, ck_len: usize, rk_len: usize) -> Vec<(PatternKey, u32)> {
        let mut rng = SmallRng::seed_from_u64(0x9E37_79B9);
        let entry = |i| {
            let rk: Vec<usize> = (0..3).map(|_| rng.gen_range(0..rk_len)).collect();
            let key = PatternKey {
                consequence: Bitmap::from_indices(ck_len, &[rng.gen_range(0..ck_len)]),
                premise: Bitmap::from_indices(rk_len, &rk),
            };
            (key, i)
        };
        (0..n as u32).map(entry).collect()
    }

    /// The image of held keys.
    fn load(fanout: usize, keys: Vec<(PatternKey, u32)>) -> PackedTpt {
        PackedTpt::bulk_load(fanout, keys.into_iter().collect())
    }

    /// Sorted pattern ids the image returns for `q`.
    fn ids(packed: &PackedTpt, q: &PatternKey) -> Vec<u32> {
        let mut found = packed.search(q);
        found.sort_unstable();
        found
    }

    #[test]
    fn fig4_query_finds_shadow_entries() {
        // §VI.B's worked example: query 1000011 matches P2 and P3.
        let (table, packed) = fig3();
        assert_eq!((packed.height(), packed.node_count()), (2, 3));
        let q = table.fqp_query([RegionId(0), RegionId(1)], 2);
        assert_eq!(ids(&packed, &q), vec![2, 3]);
    }

    #[test]
    fn non_matching_consequence_prunes() {
        let (table, packed) = fig3();
        // tq = 1 matches P0 and P1 only (consequence offset 1).
        let q = table.fqp_query([RegionId(0)], 1);
        assert_eq!(ids(&packed, &q), vec![0, 1]);
    }

    #[test]
    fn duplicate_keys_supported() {
        // Table III: pattern key 0100001 represents two patterns.
        let (table, packed) = fig3();
        let (patterns, regions) = (fig3_patterns(), fig3_regions());
        let key = |i: usize| table.encode_pattern(&patterns[i], &regions);
        assert_eq!(key(0), key(1));
        assert_eq!(ids(&packed, &key(0)), vec![0, 1]);
    }

    #[test]
    fn bulk_load_empty() {
        let packed = PackedTpt::bulk_load(32, LeafEntries::default());
        packed.validate(32).unwrap();
        assert!(packed.is_empty());
        assert_eq!((packed.height(), packed.node_count()), (0, 0));
        assert_eq!(packed.arena_bytes(), 0);
        assert_eq!(packed, PackedTpt::default());
        // Any query geometry is accepted on an empty image.
        let q = PatternKey {
            consequence: ones(2),
            premise: ones(5),
        };
        let nothing = (Vec::new(), SearchStats::default());
        assert_eq!(packed.search_with_stats(&q), nothing);
        let mut cursor = SearchCursor::new();
        assert!(cursor.search_packed(&packed, &q).is_empty());
        assert_eq!(cursor.stats(), SearchStats::default());
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_fanout_rejected() {
        PackedTpt::bulk_load(3, LeafEntries::default());
    }

    #[test]
    #[should_panic(expected = "bitmap length mismatch")]
    fn mixed_geometry_rejected() {
        // One leaf, so no union ever compares the two keys: without
        // the check this packs a 7-word arena that is read at the
        // first key's stride of 2.
        let key = |prem_bits| PatternKey {
            consequence: ones(4),
            premise: ones(prem_bits),
        };
        load(4, vec![(key(10), 0), (key(200), 1)]);
    }

    #[test]
    fn height_grows_logarithmically() {
        let packed = load(4, synth_keys(200, 8, 40));
        // fill = 3; 200 leaf entries -> 67 leaves -> 23 -> 8 -> 3 -> 1.
        assert_eq!(packed.height(), 5);
        assert_eq!(packed.node_count(), 67 + 23 + 8 + 3 + 1);
        packed.validate(4).unwrap();
    }

    #[test]
    fn selective_query_prunes_subtrees() {
        // A selective query should check far fewer entries than a full
        // scan would.
        let packed = load(32, synth_keys(2000, 16, 200));
        let (q, _) = &synth_keys(1, 16, 200)[0];
        let (_, stats) = packed.search_with_stats(q);
        assert!(stats.nodes_visited >= 1);
        assert!(stats.entries_checked < 2000, "{stats:?}");
    }

    #[test]
    fn storage_grows_with_patterns() {
        let storage = |n, rk_len| load(32, synth_keys(n, 8, rk_len)).storage_bytes();
        assert!(storage(1000, 80) > storage(100, 80));
        // Wider premise keys also cost more.
        assert!(storage(1000, 800) > storage(1000, 80));
    }

    #[test]
    fn validate_rejects_a_broken_image() {
        let good = load(4, synth_keys(40, 8, 40));
        let broken = |fanout, edit: fn(&mut PackedTpt)| {
            let mut image = good.clone();
            edit(&mut image);
            image.validate(fanout).unwrap_err()
        };
        assert!(broken(2, |_| ()).contains("fanout"));
        assert!(broken(4, |p| p.sig[0] = !p.sig[0]).contains("OR of"));
        assert!(broken(4, |p| p.child[1] = p.child[0]).contains("pre-order"));
        assert!(broken(4, |p| p.len += 1).contains("leaf entries"));
        assert!(broken(4, |p| p.height += 1).contains("depth"));
    }

    #[test]
    fn cursor_stats_are_per_search_not_accumulated() {
        // Regression: a reused cursor must report each search's own
        // matches and stats; false_hits (and the other counters) must
        // never carry over from the previous search.
        let (table, packed) = fig3();
        let mut cursor = SearchCursor::new();
        let queries = [
            table.fqp_query([RegionId(0), RegionId(1)], 2),
            PatternKey {
                consequence: table.consequence_key(1..=2),
                premise: ones(5),
            },
            table.fqp_query([RegionId(4)], 0),
        ];
        for q in &queries {
            let (fresh_matches, fresh_stats) = packed.search_with_stats(q);
            assert_eq!(cursor.search_packed(&packed, q), &fresh_matches[..]);
            assert_eq!(cursor.stats(), fresh_stats, "stats accumulated");
        }
        // Same query twice through one cursor: identical stats, not 2x.
        cursor.search_packed(&packed, &queries[0]);
        let first = cursor.stats();
        cursor.search_packed(&packed, &queries[0]);
        assert_eq!(cursor.stats(), first);
        assert_eq!(cursor.matches(), &packed.search(&queries[0])[..]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn foreign_geometry_panics() {
        let (_, packed) = fig3();
        let q = PatternKey {
            consequence: ones(3), // table has 2 time ids
            premise: ones(5),
        };
        packed.search_with_stats(&q);
    }

    #[test]
    fn search_into_appends() {
        let (table, packed) = fig3();
        let q = table.fqp_query([RegionId(0)], 1);
        let mut out = vec![99];
        packed.search_into(&q, &mut out);
        assert_eq!(out[0], 99);
        assert_eq!(out[1..], packed.search(&q)[..]);
        assert_eq!(out.len(), 3);
    }
}
