//! The Trajectory Pattern Tree (§V): a signature-tree variant indexing
//! pattern keys.
//!
//! Leaf entries are `<pk, c, p>` (pattern key, confidence, pattern
//! pointer); each internal entry's key is the logical OR of all keys in
//! its subtree. Insertion follows Algorithm 1 (ChooseLeaf): prefer a
//! subtree already *containing* the new key, then one *intersecting* it
//! on both parts (which is what makes §VI's Intersect-driven search
//! prune well), then minimal key enlargement. Overflowing nodes split
//! R-tree-style around the two most dissimilar seeds.
//!
//! The tree is a transient *builder*: it is never searched. Once
//! loaded, [`Tpt::compact`] freezes it into the [`PackedTpt`] image
//! that answers §V.C's Intersect-pruned depth-first search, and the
//! tree is dropped.
//!
//! [`PackedTpt`]: crate::PackedTpt

use crate::PatternKey;

/// Tree shape knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TptConfig {
    /// Maximum entries per node before it splits.
    pub max_entries: usize,
}

impl TptConfig {
    /// Creates a config.
    ///
    /// # Panics
    /// Panics when `max_entries < 4` (splits need room for two
    /// non-trivial groups).
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4, "max_entries must be at least 4");
        TptConfig { max_entries }
    }
}

impl Default for TptConfig {
    /// Fanout 32: a few cache lines of bitmap per node, shallow trees
    /// even at Fig. 11's 100 k patterns.
    fn default() -> Self {
        TptConfig { max_entries: 32 }
    }
}

/// One slot of a node: key plus either a child node (internal) or a
/// pattern payload (leaf).
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) key: PatternKey,
    /// Internal: child node id. Leaf: pattern id.
    pub(crate) child: u32,
    /// Leaf only; 0 for internal entries.
    pub(crate) confidence: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) leaf: bool,
    pub(crate) entries: Vec<Entry>,
}

impl Node {
    fn union_key(&self) -> PatternKey {
        let mut key = self.entries[0].key.clone();
        for e in &self.entries[1..] {
            key.union_assign(&e.key);
        }
        key
    }
}

/// The Trajectory Pattern Tree.
#[derive(Debug, Clone)]
pub struct Tpt {
    config: TptConfig,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: u32,
    len: usize,
    height: usize,
}

impl Tpt {
    /// An empty tree.
    pub fn new(config: TptConfig) -> Self {
        Tpt {
            config,
            nodes: Vec::new(),
            root: 0,
            len: 0,
            height: 0,
        }
    }

    /// Builds a tree by bulk loading (§V.B: the system bulk-loads the
    /// static history): entries are sorted so similar keys become
    /// neighbours, packed into leaves at ~¾ fill, and parent levels are
    /// packed bottom-up.
    pub fn bulk_load(
        config: TptConfig,
        entries: impl IntoIterator<Item = (PatternKey, f64, u32)>,
    ) -> Self {
        let mut items: Vec<Entry> = entries
            .into_iter()
            .map(|(key, confidence, pattern)| Entry {
                key,
                child: pattern,
                confidence,
            })
            .collect();
        if items.is_empty() {
            return Tpt::new(config);
        }
        items.sort_by(|a, b| {
            (&a.key.consequence, &a.key.premise).cmp(&(&b.key.consequence, &b.key.premise))
        });
        let len = items.len();
        let fill = (config.max_entries * 3 / 4).max(1);

        let mut tree = Tpt::new(config);
        // Pack the leaf level.
        let mut level: Vec<u32> = Vec::new();
        let mut iter = items.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<Entry> = iter.by_ref().take(fill).collect();
            level.push(tree.push_node(Node {
                leaf: true,
                entries: chunk,
            }));
        }
        tree.height = 1;
        // Pack parent levels until one node remains.
        while level.len() > 1 {
            let mut next: Vec<u32> = Vec::new();
            for chunk in level.chunks(fill) {
                let entries = chunk
                    .iter()
                    .map(|&id| Entry {
                        key: tree.nodes[id as usize].union_key(),
                        child: id,
                        confidence: 0.0,
                    })
                    .collect();
                next.push(tree.push_node(Node {
                    leaf: false,
                    entries,
                }));
            }
            level = next;
            tree.height += 1;
        }
        tree.root = level[0];
        tree.len = len;
        tree
    }

    /// Number of indexed patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 when empty, 1 for a single leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Inserts one pattern by Algorithm 1: ChooseLeaf descent, then an
    /// R-tree-style split of every node the insertion overflows.
    pub fn insert(&mut self, key: PatternKey, confidence: f64, pattern: u32) {
        let entry = Entry {
            key,
            child: pattern,
            confidence,
        };
        if self.nodes.is_empty() {
            self.root = self.push_node(Node {
                leaf: true,
                entries: vec![entry],
            });
            self.len = 1;
            self.height = 1;
            return;
        }
        if let Some(sibling) = self.insert_rec(self.root, entry) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let old_entry = Entry {
                key: self.nodes[old_root as usize].union_key(),
                child: old_root,
                confidence: 0.0,
            };
            self.root = self.push_node(Node {
                leaf: false,
                entries: vec![old_entry, sibling],
            });
            self.height += 1;
        }
        self.len += 1;
    }

    fn push_node(&mut self, node: Node) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        id
    }

    /// Recursive insert; returns the sibling entry when `node` split.
    fn insert_rec(&mut self, node: u32, entry: Entry) -> Option<Entry> {
        let idx = node as usize;
        if self.nodes[idx].leaf {
            self.nodes[idx].entries.push(entry);
            return (self.nodes[idx].entries.len() > self.config.max_entries)
                .then(|| self.split(node));
        }
        let slot = choose_subtree(&self.nodes[idx].entries, &entry.key);
        self.nodes[idx].entries[slot].key.union_assign(&entry.key);
        let child = self.nodes[idx].entries[slot].child;
        if let Some(sibling) = self.insert_rec(child, entry) {
            // The child kept only one split group: tighten its key.
            self.nodes[idx].entries[slot].key = self.nodes[child as usize].union_key();
            self.nodes[idx].entries.push(sibling);
            if self.nodes[idx].entries.len() > self.config.max_entries {
                return Some(self.split(node));
            }
        }
        None
    }

    /// Splits an overflowing node, keeping one group in place and
    /// returning an entry for the new sibling.
    ///
    /// Seeds are the pair of entries with the largest symmetric key
    /// difference; the rest go to the group whose key they enlarge
    /// least (ties to the smaller group), with a minimum fill of
    /// `max_entries / 2` enforced by forced assignment.
    fn split(&mut self, node: u32) -> Entry {
        let idx = node as usize;
        let leaf = self.nodes[idx].leaf;
        let entries = std::mem::take(&mut self.nodes[idx].entries);
        debug_assert!(entries.len() > self.config.max_entries);
        let min_fill = (self.config.max_entries / 2).max(1);

        // Seed selection: maximal symmetric difference.
        let (mut s1, mut s2, mut worst) = (0, 1, 0);
        for i in 0..entries.len() {
            for j in i + 1..entries.len() {
                let d = entries[i].key.difference(&entries[j].key)
                    + entries[j].key.difference(&entries[i].key);
                if d > worst {
                    (s1, s2, worst) = (i, j, d);
                }
            }
        }

        let mut g1: Vec<Entry> = Vec::with_capacity(entries.len());
        let mut g2: Vec<Entry> = Vec::with_capacity(entries.len());
        let mut k1 = entries[s1].key.clone();
        let mut k2 = entries[s2].key.clone();
        let mut rest: Vec<Entry> = Vec::with_capacity(entries.len() - 2);
        for (i, e) in entries.into_iter().enumerate() {
            if i == s1 {
                g1.push(e);
            } else if i == s2 {
                g2.push(e);
            } else {
                rest.push(e);
            }
        }
        let total = rest.len() + 2;
        for e in rest {
            let remaining = total - g1.len() - g2.len();
            // Forced assignment to honour the minimum fill.
            if g1.len() + remaining <= min_fill {
                k1.union_assign(&e.key);
                g1.push(e);
                continue;
            }
            if g2.len() + remaining <= min_fill {
                k2.union_assign(&e.key);
                g2.push(e);
                continue;
            }
            let d1 = e.key.difference(&k1);
            let d2 = e.key.difference(&k2);
            let to_first = match d1.cmp(&d2) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => g1.len() <= g2.len(),
            };
            if to_first {
                k1.union_assign(&e.key);
                g1.push(e);
            } else {
                k2.union_assign(&e.key);
                g2.push(e);
            }
        }

        self.nodes[idx].entries = g1;
        let sibling = self.push_node(Node { leaf, entries: g2 });
        Entry {
            key: k2,
            child: sibling,
            confidence: 0.0,
        }
    }

    /// Checks structural invariants; test/debug helper.
    ///
    /// Verified: uniform leaf depth equal to `height`, internal entry
    /// keys equal to the union of their subtree, node occupancy within
    /// bounds, and `len` matching the number of leaf entries.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return if self.len == 0 && self.height == 0 {
                Ok(())
            } else {
                Err("empty arena but non-zero len/height".into())
            };
        }
        let mut leaf_entries = 0usize;
        self.validate_node(self.root, 1, &mut leaf_entries)?;
        if leaf_entries != self.len {
            return Err(format!(
                "len {} != counted leaf entries {leaf_entries}",
                self.len
            ));
        }
        Ok(())
    }

    fn validate_node(
        &self,
        node: u32,
        depth: usize,
        leaf_entries: &mut usize,
    ) -> Result<(), String> {
        let n = &self.nodes[node as usize];
        if n.entries.is_empty() {
            return Err(format!("node {node} has no entries"));
        }
        if n.entries.len() > self.config.max_entries {
            return Err(format!("node {node} overflows"));
        }
        // No occupancy floor: bulk-loaded trees may carry one short
        // tail node per level; only empty nodes are rejected above.
        if n.leaf {
            if depth != self.height {
                return Err(format!(
                    "leaf {node} at depth {depth}, expected {}",
                    self.height
                ));
            }
            *leaf_entries += n.entries.len();
            return Ok(());
        }
        for e in &n.entries {
            let child_union = self.nodes[e.child as usize].union_key();
            if e.key != child_union {
                return Err(format!(
                    "internal entry key of node {node} -> {} is not the subtree union",
                    e.child
                ));
            }
            self.validate_node(e.child, depth + 1, leaf_entries)?;
        }
        Ok(())
    }
}

/// Algorithm 1 (ChooseLeaf) subtree selection among `entries` for a
/// key `pk`:
///
/// 1. among entries whose key *contains* `pk`, the smallest key (no
///    enlargement needed);
/// 2. otherwise among entries *intersecting* `pk` on both parts, the
///    smallest `Difference(pk, e)` (ties to the smallest key) — keeps
///    Intersect-searchable keys together;
/// 3. otherwise the smallest `Difference(pk, e)`, ties to the smallest
///    key.
fn choose_subtree(entries: &[Entry], pk: &PatternKey) -> usize {
    let mut best_contain: Option<(usize, usize)> = None; // (size, idx)
    let mut best_intersect: Option<(usize, usize, usize)> = None; // (diff, size, idx)
    let mut best_any: Option<(usize, usize, usize)> = None;
    for (i, e) in entries.iter().enumerate() {
        let size = e.key.size();
        if e.key.contains(pk) {
            if best_contain.is_none_or(|(s, _)| size < s) {
                best_contain = Some((size, i));
            }
            continue;
        }
        let diff = pk.difference(&e.key);
        let cand = (diff, size, i);
        if e.key.intersects(pk) && best_intersect.is_none_or(|b| (diff, size) < (b.0, b.1)) {
            best_intersect = Some(cand);
        }
        if best_any.is_none_or(|b| (diff, size) < (b.0, b.1)) {
            best_any = Some(cand);
        }
    }
    if let Some((_, i)) = best_contain {
        return i;
    }
    if let Some((_, _, i)) = best_intersect {
        return i;
    }
    best_any.expect("non-empty node").2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{fig3_patterns, fig3_regions};
    use crate::{Bitmap, BruteForce, KeyTable, PatternIndex};
    use hpm_patterns::RegionId;

    fn fig3_tree(config: TptConfig) -> (KeyTable, Tpt) {
        let regions = fig3_regions();
        let patterns = fig3_patterns();
        let table = KeyTable::build(&regions, patterns.iter().map(|p| p.consequence));
        let mut tree = Tpt::new(config);
        for (i, p) in patterns.iter().enumerate() {
            tree.insert(table.encode_pattern(p, &regions), p.confidence, i as u32);
        }
        (table, tree)
    }

    /// Sorted pattern ids `index` returns for `q`.
    fn ids(index: &impl PatternIndex, q: &PatternKey) -> Vec<u32> {
        let mut found: Vec<u32> = index.search(q).iter().map(|m| m.pattern).collect();
        found.sort_unstable();
        found
    }

    #[test]
    fn fig4_query_finds_shadow_entries() {
        // §VI.B's worked example: query 1000011 matches P2 and P3.
        let (table, tree) = fig3_tree(TptConfig::new(4));
        tree.validate().unwrap();
        let q = table.fqp_query([RegionId(0), RegionId(1)], 2);
        assert_eq!(ids(&tree.compact(), &q), vec![2, 3]);
    }

    #[test]
    fn non_matching_consequence_prunes() {
        let (table, tree) = fig3_tree(TptConfig::new(4));
        // tq = 1 matches P0 and P1 only (consequence offset 1).
        let q = table.fqp_query([RegionId(0)], 1);
        assert_eq!(ids(&tree.compact(), &q), vec![0, 1]);
    }

    #[test]
    fn empty_tree_is_valid() {
        let tree = Tpt::new(TptConfig::default());
        tree.validate().unwrap();
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.node_count(), 0);
    }

    /// Deterministic pseudo-random keys for structural tests.
    fn synth_keys(n: usize, ck_len: usize, rk_len: usize) -> Vec<(PatternKey, f64, u32)> {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|i| {
                let mut ck = Bitmap::zeros(ck_len);
                ck.set((next() % ck_len as u64) as usize);
                let mut rk = Bitmap::zeros(rk_len);
                for _ in 0..1 + next() % 3 {
                    rk.set((next() % rk_len as u64) as usize);
                }
                (
                    PatternKey {
                        consequence: ck,
                        premise: rk,
                    },
                    (1 + next() % 100) as f64 / 100.0,
                    i as u32,
                )
            })
            .collect()
    }

    #[test]
    fn insert_many_stays_valid_and_matches_brute_force() {
        let keys = synth_keys(500, 8, 60);
        let mut tree = Tpt::new(TptConfig::new(8));
        for (k, c, p) in &keys {
            tree.insert(k.clone(), *c, *p);
        }
        tree.validate().unwrap();
        assert_eq!(tree.len(), 500);
        assert!(tree.height() >= 2);
        let (packed, brute) = (tree.compact(), BruteForce::from_entries(keys));
        for (q, _, _) in synth_keys(50, 8, 60) {
            assert_eq!(ids(&packed, &q), ids(&brute, &q));
        }
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let keys = synth_keys(1000, 8, 60);
        let tree = Tpt::bulk_load(TptConfig::default(), keys.clone());
        tree.validate().unwrap();
        assert_eq!(tree.len(), 1000);
        let (packed, brute) = (tree.compact(), BruteForce::from_entries(keys));
        for (q, _, _) in synth_keys(50, 8, 60) {
            assert_eq!(ids(&packed, &q), ids(&brute, &q));
        }
    }

    #[test]
    fn selective_query_prunes_subtrees() {
        // A selective query should check far fewer entries than a full
        // scan would.
        let keys = synth_keys(2000, 16, 200);
        let packed = Tpt::bulk_load(TptConfig::default(), keys).compact();
        let (q, _, _) = &synth_keys(1, 16, 200)[0];
        let (_, stats) = packed.search_with_stats(q);
        assert!(stats.nodes_visited >= 1);
        assert!(
            stats.entries_checked < 2000,
            "checked {} of 2000",
            stats.entries_checked
        );
    }

    #[test]
    fn storage_grows_with_patterns() {
        let storage = |n, rk_len| {
            Tpt::bulk_load(TptConfig::default(), synth_keys(n, 8, rk_len))
                .compact()
                .storage_bytes()
        };
        assert!(storage(1000, 80) > storage(100, 80));
        // Wider premise keys also cost more.
        assert!(storage(1000, 800) > storage(1000, 80));
    }

    #[test]
    fn duplicate_keys_supported() {
        // Table III: pattern key 0100001 represents two patterns.
        let (table, tree) = fig3_tree(TptConfig::new(4));
        let q = table.fqp_query([RegionId(0)], 1);
        let found = tree.compact().search(&q);
        assert_eq!(found.len(), 2);
        let confs: Vec<f64> = found.iter().map(|m| m.confidence).collect();
        assert!(confs.contains(&0.9) && confs.contains(&0.8));
    }

    #[test]
    fn bulk_load_empty() {
        let tree = Tpt::bulk_load(TptConfig::default(), Vec::new());
        tree.validate().unwrap();
        assert!(tree.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_fanout_rejected() {
        TptConfig::new(3);
    }

    #[test]
    fn height_grows_logarithmically() {
        let tree = Tpt::bulk_load(TptConfig::new(4), synth_keys(200, 8, 40));
        // fill = 3; 200 leaves entries -> ~67 leaves -> 23 -> 8 -> 3 -> 1.
        assert!(tree.height() >= 4, "height {}", tree.height());
        assert!(tree.height() <= 7, "height {}", tree.height());
        tree.validate().unwrap();
    }
}
