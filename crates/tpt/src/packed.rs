//! The arena-packed TPT: the searchable form of the index, and the
//! §V.C search itself.
//!
//! [`Tpt`] is the transient *builder* — its insert/split and bulk-load
//! logic shapes the signature tree, but its layout would pay a pointer
//! tax on every search: `Vec<Node> → Vec<Entry> → PatternKey → Bitmap
//! → Vec<u64>` is four dependent loads before the first signature word
//! arrives. [`Tpt::compact`] freezes the tree into a [`PackedTpt`]
//! whose entry signatures live contiguously in one `Vec<u64>` arena —
//! each node's entries form a run of `[consequence words | premise
//! words]` blocks, so the intersect test scans the arena linearly —
//! with entry metadata (child/pattern id, confidence) in parallel SoA
//! arrays. Nodes are laid out in DFS pre-order, so a search walks
//! mostly forward in memory.
//!
//! Search walks the image depth-first, descending only into entries
//! whose key intersects the query key on both the consequence and the
//! premise part. The image is a pure function of the builder's shape,
//! so equal trees compact to equal images; the property suite in
//! `tests/props.rs` holds both builders' images and the brute-force
//! scan equal on every result set over generated key sets.

use crate::{Match, PatternIndex, PatternKey, Tpt};

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
/// instrumentation, so a query loop (the FQP/BQP hot path re-searches
/// per candidate time id) reuses one allocation instead of building a
/// fresh `Vec` per call.
///
/// Stats are **per-search**: every
/// [`search_packed`](SearchCursor::search_packed) resets them before
/// traversing, so [`stats`](SearchCursor::stats) always describes the
/// most recent search alone — reusing a cursor never accumulates
/// `false_hits` (or any other field) across calls.
#[derive(Debug, Clone, Default)]
pub struct SearchCursor {
    out: Vec<Match>,
    stats: SearchStats,
}

/// One packed node: a slice of the signature arena plus a slice of the
/// metadata arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedNode {
    /// First word of this node's signature run in `PackedTpt::sig`.
    sig_start: u32,
    /// First entry of this node in `PackedTpt::{child, confidence}`.
    meta_start: u32,
    /// Number of entries.
    count: u32,
    /// Leaf nodes yield matches; internal nodes yield child node ids.
    leaf: bool,
}

/// The packed search image of a [`Tpt`] — the only searchable form of
/// the index.
///
/// Built by [`Tpt::compact`]; node 0 is the root. The shape is frozen:
/// a pattern set that gains or loses a key is bulk-loaded and
/// compacted afresh, and only leaf confidences can be patched in place
/// ([`patch_confidences`](Self::patch_confidences)). Two images are
/// equal exactly when they hold the same nodes, signatures, payloads
/// and confidences in the same layout.
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
    /// Per entry: confidence (leaves; 0 for internal entries).
    confidence: Box<[f64]>,
    len: usize,
    height: usize,
}

impl Tpt {
    /// Freezes the tree into its arena-packed search image.
    ///
    /// Emits the `tpt.repack` span/histogram, bumps `tpt.repack.calls`
    /// and sets the `tpt.packed.arena_bytes` gauge to the new image's
    /// arena size (i.e. the gauge reports the most recent repack).
    pub fn compact(&self) -> PackedTpt {
        let _span = hpm_obs::span!(crate::metrics::REPACK_SPAN);
        let mut packed = PackedTpt::default();
        if !self.nodes.is_empty() {
            // Every live node holds at least one entry, and all keys in
            // one tree share part lengths, so the root's first key
            // fixes the geometry.
            let first = &self.nodes[self.root as usize].entries[0].key;
            packed.cons_bits = first.consequence.len();
            packed.prem_bits = first.premise.len();
            packed.cw = packed.cons_bits.div_ceil(64);
            packed.pw = packed.prem_bits.div_ceil(64);
            // Every builder node is live, so the arenas are sized
            // before the first copy and freeze without slack.
            let entries: usize = self.nodes.iter().map(|n| n.entries.len()).sum();
            let mut arenas = Arenas {
                nodes: Vec::with_capacity(self.nodes.len()),
                sig: Vec::with_capacity(entries * (packed.cw + packed.pw)),
                child: Vec::with_capacity(entries),
                confidence: Vec::with_capacity(entries),
            };
            arenas.pack_node(self, self.root);
            packed.nodes = arenas.nodes.into();
            packed.sig = arenas.sig.into();
            packed.child = arenas.child.into();
            packed.confidence = arenas.confidence.into();
            packed.len = self.len();
            packed.height = self.height();
        }
        crate::metrics::record_repack(packed.arena_bytes());
        packed
    }
}

/// The arenas of an image while [`Tpt::compact`] fills them.
struct Arenas {
    nodes: Vec<PackedNode>,
    sig: Vec<u64>,
    child: Vec<u32>,
    confidence: Vec<f64>,
}

impl Arenas {
    /// Copies `node` and (pre-order) its subtree into the arenas,
    /// returning the packed node id.
    fn pack_node(&mut self, tree: &Tpt, node: u32) -> u32 {
        let n = &tree.nodes[node as usize];
        let id = self.nodes.len() as u32;
        let meta_start = self.child.len();
        self.nodes.push(PackedNode {
            sig_start: self.sig.len() as u32,
            meta_start: meta_start as u32,
            count: n.entries.len() as u32,
            leaf: n.leaf,
        });
        for e in &n.entries {
            self.sig.extend_from_slice(e.key.consequence.words());
            self.sig.extend_from_slice(e.key.premise.words());
            self.child.push(e.child);
            self.confidence.push(e.confidence);
        }
        if !n.leaf {
            // Children pack after their parent's signature run; patch
            // the child slots with packed ids as they are assigned.
            for (i, e) in n.entries.iter().enumerate() {
                let child_id = self.pack_node(tree, e.child);
                self.child[meta_start + i] = child_id;
            }
        }
        id
    }
}

impl hpm_geo::MemUse for PackedTpt {
    /// The arenas are boxed slices, so resident bytes are
    /// [`storage_bytes`](PackedTpt::storage_bytes) exactly.
    fn mem_bytes(&self) -> usize {
        self.storage_bytes()
    }
}

impl PackedTpt {
    /// An empty image (what compacting an empty tree yields).
    pub fn new() -> Self {
        PackedTpt::default()
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
            + self.confidence.len() * 8
            + self.nodes.len() * std::mem::size_of::<PackedNode>()
    }

    /// Total resident bytes (Fig. 11a accounting).
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.arena_bytes()
    }

    /// Patches leaf confidences in place through `patch` (pattern id →
    /// new confidence; `None` leaves an entry untouched), avoiding a
    /// full rebuild when a retrain changed only confidences: the
    /// builder places entries by key alone, so the patched image equals
    /// the one a fresh bulk load with the new confidences compacts to.
    /// Returns the number of patched entries.
    pub fn patch_confidences(&mut self, mut patch: impl FnMut(u32) -> Option<f64>) -> usize {
        let mut patched = 0;
        for node in self.nodes.iter() {
            if !node.leaf {
                continue;
            }
            let meta = node.meta_start as usize..(node.meta_start + node.count) as usize;
            for m in meta {
                if let Some(c) = patch(self.child[m]) {
                    self.confidence[m] = c;
                    patched += 1;
                }
            }
        }
        patched
    }

    /// Searches with instrumentation (allocates the match vector; the
    /// hot path uses [`SearchCursor::search_packed`]).
    pub fn search_with_stats(&self, query: &PatternKey) -> (Vec<Match>, SearchStats) {
        let _span = hpm_obs::span!(crate::metrics::SEARCH_SPAN);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        self.search_impl(query, &mut out, &mut stats);
        crate::metrics::record_search(&stats, out.len());
        (out, stats)
    }

    fn search_impl(&self, query: &PatternKey, out: &mut Vec<Match>, stats: &mut SearchStats) {
        if self.nodes.is_empty() {
            return;
        }
        // Same contract as `Bitmap::intersects`: searching a non-empty
        // index with a foreign-geometry key is a logic error.
        assert_eq!(
            query.consequence.len(),
            self.cons_bits,
            "bitmap length mismatch"
        );
        assert_eq!(
            query.premise.len(),
            self.prem_bits,
            "bitmap length mismatch"
        );
        self.dfs(
            0,
            query.consequence.words(),
            query.premise.words(),
            out,
            stats,
        );
    }

    /// §V.C's Intersect-pruned depth-first traversal, reading
    /// signature words straight from the arena. `cq`/`pq` are the
    /// query's consequence and premise words.
    fn dfs(
        &self,
        node: u32,
        cq: &[u64],
        pq: &[u64],
        out: &mut Vec<Match>,
        stats: &mut SearchStats,
    ) {
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
                    out.push(Match {
                        pattern: self.child[m],
                        confidence: self.confidence[m],
                    });
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

    /// The most recent search's matches.
    pub fn matches(&self) -> &[Match] {
        &self.out
    }

    /// The most recent search's stats (zeroed if no search ran yet).
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Searches a packed image, replacing the cursor's previous matches
    /// and stats — the allocation-free hot path: after the cursor's
    /// buffer reaches its high-water mark, no heap traffic at all.
    pub fn search_packed<'c>(&'c mut self, packed: &PackedTpt, query: &PatternKey) -> &'c [Match] {
        let _span = hpm_obs::span!(crate::metrics::SEARCH_SPAN);
        self.out.clear();
        self.stats = SearchStats::default();
        packed.search_impl(query, &mut self.out, &mut self.stats);
        crate::metrics::record_search(&self.stats, self.out.len());
        &self.out
    }
}

impl PatternIndex for PackedTpt {
    fn search_into(&self, query: &PatternKey, out: &mut Vec<Match>) {
        let _span = hpm_obs::span!(crate::metrics::SEARCH_SPAN);
        let before = out.len();
        let mut stats = SearchStats::default();
        self.search_impl(query, out, &mut stats);
        crate::metrics::record_search(&stats, out.len() - before);
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{fig3_patterns, fig3_regions};
    use crate::{Bitmap, BruteForce, KeyTable, TptConfig};
    use hpm_patterns::RegionId;

    /// `<pk, c, p>` entries of `patterns` over Fig. 3's regions.
    fn entries(
        table: &KeyTable,
        patterns: &[hpm_patterns::TrajectoryPattern],
    ) -> Vec<(PatternKey, f64, u32)> {
        let regions = fig3_regions();
        patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (table.encode_pattern(p, &regions), p.confidence, i as u32))
            .collect()
    }

    fn fig3() -> (KeyTable, Tpt) {
        let patterns = fig3_patterns();
        let table = KeyTable::build(&fig3_regions(), patterns.iter().map(|p| p.consequence));
        let mut tree = Tpt::new(TptConfig::new(4));
        for (k, c, p) in entries(&table, &patterns) {
            tree.insert(k, c, p);
        }
        (table, tree)
    }

    #[test]
    fn packed_matches_brute_force_on_fig3() {
        let (table, tree) = fig3();
        let packed = tree.compact();
        assert_eq!(packed.len(), tree.len());
        assert_eq!(packed.height(), tree.height());
        assert_eq!(packed.node_count(), tree.node_count());
        let brute = BruteForce::from_entries(entries(&table, &fig3_patterns()));
        for q in [
            table.fqp_query([RegionId(0), RegionId(1)], 2),
            table.fqp_query([RegionId(0)], 1),
            table.bqp_query(1, 2),
            table.fqp_query([RegionId(4)], 0),
        ] {
            let mut pm = packed.search(&q);
            pm.sort_by_key(|m| m.pattern);
            assert_eq!(pm, brute.search(&q), "same ids and confidences");
        }
    }

    #[test]
    fn patch_confidences_equals_a_fresh_build() {
        let mut patterns = fig3_patterns();
        let table = KeyTable::build(&fig3_regions(), patterns.iter().map(|p| p.consequence));
        let image = |patterns: &[hpm_patterns::TrajectoryPattern]| {
            Tpt::bulk_load(TptConfig::new(4), entries(&table, patterns)).compact()
        };
        let mut packed = image(&patterns);
        let patched = packed.patch_confidences(|p| (p == 2).then_some(0.77));
        assert_eq!(patched, 1);
        patterns[2].confidence = 0.77;
        // The patched image is the image of the patched pattern list.
        assert_eq!(packed, image(&patterns));
        let q = table.fqp_query([RegionId(0), RegionId(1)], 2);
        let hit = packed.search(&q).into_iter().find(|m| m.pattern == 2);
        assert_eq!(hit.map(|m| m.confidence), Some(0.77));
    }

    #[test]
    fn empty_tree_compacts_to_empty_image() {
        let packed = Tpt::new(TptConfig::default()).compact();
        assert!(packed.is_empty());
        assert_eq!(packed.node_count(), 0);
        assert_eq!(packed.arena_bytes(), 0);
        assert_eq!(packed, PackedTpt::new());
        // Any query geometry is accepted on an empty image.
        let q = PatternKey {
            consequence: Bitmap::ones(2),
            premise: Bitmap::ones(5),
        };
        let (m, s) = packed.search_with_stats(&q);
        assert!(m.is_empty());
        assert_eq!(s, SearchStats::default());
        let mut cursor = SearchCursor::new();
        assert!(cursor.search_packed(&packed, &q).is_empty());
        assert_eq!(cursor.stats(), SearchStats::default());
    }

    #[test]
    fn cursor_stats_are_per_search_not_accumulated() {
        // Regression: a reused cursor must report each search's own
        // matches and stats; false_hits (and the other counters) must
        // never carry over from the previous search.
        let (table, tree) = fig3();
        let packed = tree.compact();
        let mut cursor = SearchCursor::new();
        let queries = [
            table.fqp_query([RegionId(0), RegionId(1)], 2),
            table.bqp_query(1, 2),
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
        assert_eq!(
            cursor.matches(),
            &packed.search_with_stats(&queries[0]).0[..]
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn foreign_geometry_panics() {
        let (_, tree) = fig3();
        let packed = tree.compact();
        let q = PatternKey {
            consequence: Bitmap::ones(3), // table has 2 time ids
            premise: Bitmap::ones(5),
        };
        packed.search_with_stats(&q);
    }

    #[test]
    fn pattern_index_impl_appends() {
        let (table, tree) = fig3();
        let packed = tree.compact();
        let q = table.fqp_query([RegionId(0)], 1);
        let mut out = vec![Match {
            pattern: 99,
            confidence: 0.0,
        }];
        packed.search_into(&q, &mut out);
        assert_eq!(out[0].pattern, 99);
        assert_eq!(out.len(), 3);
        assert_eq!(PatternIndex::len(&packed), 4);
    }

    #[test]
    fn arena_is_contiguous_and_preorder() {
        // 500 synthetic keys: the arena must hold exactly one signature
        // block per entry (leaf + internal), and node 0 is the root.
        let mut tree = Tpt::new(TptConfig::new(8));
        let mut state = 1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..500u32 {
            let mut ck = Bitmap::zeros(8);
            ck.set((next() % 8) as usize);
            let mut rk = Bitmap::zeros(300);
            rk.set((next() % 300) as usize);
            tree.insert(
                PatternKey {
                    consequence: ck,
                    premise: rk,
                },
                0.5,
                i,
            );
        }
        let packed = tree.compact();
        let stride = 8usize.div_ceil(64) + 300usize.div_ceil(64);
        let entries: usize = packed.nodes.iter().map(|n| n.count as usize).sum();
        assert_eq!(packed.sig.len(), entries * stride);
        assert_eq!(packed.child.len(), entries);
        assert_eq!(packed.confidence.len(), entries);
        assert!(packed.arena_bytes() > 0);
        assert!(packed.storage_bytes() > packed.arena_bytes());
        // Pre-order: every node's signature run starts where the
        // previous entry count left off only for the root; children
        // always pack after their parent.
        for (id, n) in packed.nodes.iter().enumerate() {
            if !n.leaf {
                for i in 0..n.count as usize {
                    let child = packed.child[n.meta_start as usize + i];
                    assert!(child as usize > id, "child packs after parent");
                }
            }
        }
    }
}
