//! Exact support counting — the miner.
//!
//! The paper's §IV second component is an Apriori pass over the
//! per-sub-trajectory visit sequences. Its two rule-level prunings
//! decide which itemsets can carry a rule at all: regions strictly
//! ascending in time with the consequence last (time monotonicity),
//! one region as consequence (Theorem 1), plus the two structural
//! bounds of [`MiningParams`]. That universe is bounded by the region
//! vocabulary, not by the history, so [`SupportCounts`] counts all of
//! it exactly instead of generating and pruning candidates level by
//! level: every structurally valid itemset instance is counted once, at
//! the moment its time-wise **last** element is appended
//! ([`SupportCounts::record_tail`]), at a cost proportional to the
//! premise window. Apriori's downward-closure pruning is unnecessary
//! rather than skipped — an infrequent itemset is simply not read at
//! [`derive`](SupportCounts::derive) time, and a frequent one has
//! frequent prefixes because its prefixes are counted in every
//! transaction it is.
//!
//! A growing trajectory only ever *appends* region visits — at the tail
//! of the newest sub-trajectory's sequence, in ascending offset order —
//! so the same counts serve a full training pass
//! ([`rebuild`](SupportCounts::rebuild): every visit of every distinct
//! sequence in turn, weighted by the sequence's repeats) and a delta
//! retrain (the new tails only), and the two close the same itemsets at
//! each visit. Two facts make the counts the supports of Definition 1,
//! both held by `tests/props.rs` against a direct enumeration of every
//! sequence's subsets, for the grown and the rebuilt counts alike:
//!
//! * a region occurs at most once per sequence (it is bound to one
//!   offset, sampled once per sub-trajectory), so instance counts are
//!   transaction supports;
//! * every prefix of a valid itemset is valid (see
//!   [`MiningParams`]), so a rule's premise is always counted.
//!
//! The counts live in a prefix trie: an itemset's premise is counted
//! before the itemset is (the premise's last visit was itself a tail
//! once), so a node is its premise's node plus one region id, counting
//! an already-tracked instance touches no allocator, and a rule's
//! premise support is its parent's count. A node is found through an
//! open-addressing table that stores nothing but node indices — the
//! key `(parent, id)` is read back from the node itself — so an
//! itemset costs its 12-byte node plus about 5 bytes of table.

use crate::{MiningParams, PatternTable, RegionId, Visit, VisitTable};
use hpm_geo::mem::vec_cap_bytes;
use hpm_trajectory::TimeOffset;

/// Parent of the single-region itemsets.
const ROOT: u32 = u32::MAX;

/// A free slot of [`SupportCounts::slots`].
const EMPTY: u32 = u32::MAX;

/// Slots a growing table has at least.
const MIN_SLOTS: usize = 256;

/// The home slot of `(parent, id)` in a table of `len` slots: the top
/// bits of a multiplicative hash of the key, scaled to the length.
#[inline]
fn home(parent: u32, id: RegionId, len: usize) -> usize {
    let key = (u64::from(parent) << 32) | u64::from(id.0);
    let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    ((hash * len as u64) >> 32) as usize
}

/// One counted itemset: its prefix (`parent`, the rule's premise) plus
/// its time-wise last region `id`.
#[derive(Debug, Clone, Copy)]
struct Node {
    count: u32,
    parent: u32,
    id: RegionId,
}

/// Persistent exact support counts over the structurally valid itemset
/// universe (sizes `1..=max_premise_len + 1`), kept as a prefix trie:
/// every counted itemset's premise is itself counted (see
/// [`MiningParams`]), so an itemset is its premise's node plus one
/// region id and no itemset is ever spelled out as a key.
#[derive(Debug, Clone)]
pub struct SupportCounts {
    params: MiningParams,
    /// The trie, in the order itemsets were first counted; singles hang
    /// off [`ROOT`].
    nodes: Vec<Node>,
    /// `(parent node, region id) → node` as a linear-probing table of
    /// node indices ([`EMPTY`] when free), kept under 7/8 full.
    slots: Box<[u32]>,
}

impl SupportCounts {
    /// Empty counts.
    ///
    /// # Panics
    /// Panics when `params` are inconsistent (see [`MiningParams`]).
    pub fn new(params: MiningParams) -> Self {
        params.validate();
        SupportCounts {
            params,
            nodes: Vec::new(),
            slots: Box::default(),
        }
    }

    /// The mining parameters these counts were built under.
    #[inline]
    pub fn params(&self) -> &MiningParams {
        &self.params
    }

    /// Number of distinct itemsets currently tracked (bounded by the
    /// region vocabulary, not by history length).
    #[inline]
    pub fn tracked_itemsets(&self) -> usize {
        self.nodes.len()
    }

    /// The slot holding the node of `parent + [id]`, or the free slot
    /// where it would go: linear probing from its [`home`].
    fn probe(&self, parent: u32, id: RegionId) -> usize {
        let len = self.slots.len();
        let mut slot = home(parent, id, len);
        loop {
            let node = self.slots[slot];
            if node == EMPTY {
                return slot;
            }
            let at = &self.nodes[node as usize];
            if at.parent == parent && at.id == id {
                return slot;
            }
            slot = if slot + 1 == len { 0 } else { slot + 1 };
        }
    }

    /// Re-files every node into a table of `len` slots. The keys are
    /// distinct, so each takes the first free slot from its home
    /// without reading any other node.
    fn rehash(&mut self, len: usize) {
        let mut slots = vec![EMPTY; len].into_boxed_slice();
        for (node, at) in (0..).zip(&self.nodes) {
            let mut slot = home(at.parent, at.id, len);
            while slots[slot] != EMPTY {
                slot = if slot + 1 == len { 0 } else { slot + 1 };
            }
            slots[slot] = node;
        }
        self.slots = slots;
    }

    /// Counts `instances` more instances of the itemset `parent + [id]`,
    /// starting to track it on its first. Returns its node.
    fn bump(&mut self, parent: u32, id: RegionId, instances: u32) -> u32 {
        // Room for one more itemset first: the probe then always ends.
        if (self.nodes.len() + 1) * 8 > self.slots.len() * 7 {
            self.rehash((self.slots.len() * 2).max(MIN_SLOTS));
        }
        let slot = self.probe(parent, id);
        if self.slots[slot] == EMPTY {
            self.slots[slot] = self.nodes.len() as u32;
            self.nodes.push(Node {
                count: 0,
                parent,
                id,
            });
        }
        let node = self.slots[slot];
        self.nodes[node as usize].count += instances;
        node
    }

    /// The node of `parent + [id]`, a premise chain: counted when its
    /// own last visit was the tail.
    fn child(&self, parent: u32, id: RegionId) -> u32 {
        let node = self.slots[self.probe(parent, id)];
        assert_ne!(
            node, EMPTY,
            "premise of a counted itemset is itself counted"
        );
        node
    }

    /// Counts every structurally valid itemset whose **final** element
    /// is the last visit of `tx` — call exactly once right after
    /// appending a visit to its sequence. Offsets in `tx` must be
    /// strictly ascending (one region per offset per sub-trajectory).
    /// Allocates only when an itemset is seen for the first time.
    pub fn record_tail(&mut self, tx: &[Visit]) {
        let j = tx.len() - 1;
        let (last_id, last_off) = tx[j];
        debug_assert!(j == 0 || tx[j - 1].1 < last_off, "offsets must ascend");
        self.bump(ROOT, last_id, 1);
        // Premise chains drawn from the window [anchor, j): consecutive
        // premise gaps ≤ max_premise_gap; the final element (the new
        // visit) is bound only by max_span from the anchor.
        for anchor in 0..j {
            let (aid, aoff) = tx[anchor];
            if last_off - aoff > self.params.max_span {
                continue;
            }
            let chain = self.child(ROOT, aid);
            self.extend_chain(tx, anchor, j, chain, 1);
        }
    }

    /// Counts `chain + [tx[j]]` and grows the premise chain — `len`
    /// regions ending at position `last` — towards `j`.
    fn extend_chain(&mut self, tx: &[Visit], last: usize, j: usize, chain: u32, len: usize) {
        self.bump(chain, tx[j].0, 1);
        if len == self.params.max_premise_len {
            return;
        }
        let last_off = tx[last].1;
        for next in last + 1..j {
            let (id, off) = tx[next];
            debug_assert!(off > last_off, "offsets must ascend");
            if off - last_off > self.params.max_premise_gap {
                continue;
            }
            let grown = self.child(chain, id);
            self.extend_chain(tx, next, j, grown, len + 1);
        }
    }

    /// Recounts from scratch over complete visit sequences — a full
    /// training pass. Counts what replaying
    /// [`SupportCounts::record_tail`] for every visit in arrival order
    /// counts, with two shortcuts. Equal sequences hold equal itemsets,
    /// so each distinct sequence is counted once, weighted by how often
    /// it occurs. And a premise chain is an itemset that ended at an
    /// earlier visit of the same sequence, so its node is kept from that
    /// visit and an instance costs one probe. The node list is then
    /// sized to the itemsets found, and the table to about 3/4 full.
    pub fn rebuild(&mut self, visits: &VisitTable) {
        let _span = hpm_obs::span!(crate::metrics::ITEMSETS_SPAN);
        let mut sequences: Vec<&[Visit]> = visits.iter().collect();
        sequences.sort_unstable();
        let distinct: Vec<(&[Visit], u32)> = (sequences.chunk_by(|a, b| a == b))
            .map(|run| (run[0], run.len() as u32))
            .collect();
        self.nodes.clear();
        self.slots = Box::default();
        let (span, gap) = (self.params.max_span, self.params.max_premise_gap);
        // The current sequence's premise chains, in the order they
        // ended: `(node, anchor offset, length, last offset)`.
        let mut chains: Vec<(u32, TimeOffset, usize, TimeOffset)> = Vec::new();
        for &(tx, weight) in &distinct {
            chains.clear();
            let mut live = 0;
            for &(id, t) in tx {
                // A chain that ended more than `max_span` ago is anchored
                // earlier still, and chains end in time order.
                while chains.get(live).is_some_and(|c| t - c.3 > span) {
                    live += 1;
                }
                for c in live..chains.len() {
                    let (chain, anchor, len, last) = chains[c];
                    if t - anchor > span {
                        continue;
                    }
                    let node = self.bump(chain, id, weight);
                    if len < self.params.max_premise_len && t - last <= gap {
                        chains.push((node, anchor, len + 1, t));
                    }
                }
                let single = self.bump(ROOT, id, weight);
                chains.push((single, t, 1, t));
            }
        }
        self.nodes.shrink_to_fit();
        let n = self.nodes.len();
        self.rehash(n + n / 3 + 1);
    }

    /// Appends the regions of `node`'s itemset to `out`, in time order.
    fn spell(&self, node: &Node, out: &mut Vec<RegionId>) {
        let start = out.len();
        let mut at = node;
        loop {
            out.push(at.id);
            if at.parent == ROOT {
                break;
            }
            at = &self.nodes[at.parent as usize];
        }
        out[start..].reverse();
    }

    /// Every frequent itemset of two or more regions, spelled out,
    /// with its support (for the pruning-effect statistics).
    pub(crate) fn frequent_sets(&self) -> impl Iterator<Item = (Vec<RegionId>, u32)> + '_ {
        let frequent = |n: &&Node| n.parent != ROOT && n.count >= self.params.min_support;
        self.nodes.iter().filter(frequent).map(|node| {
            let mut set = Vec::new();
            self.spell(node, &mut set);
            (set, node.count)
        })
    }

    /// Derives the canonical pattern list: one rule per frequent
    /// itemset of size ≥ 2 — premise = all but the time-wise last
    /// region, consequence = the last, confidence = support over the
    /// premise's support — that meets the confidence bar, ordered by
    /// `(itemset size, region ids)`, as an exact-size table. A pure
    /// function of the counts: however they were reached (rebuilt,
    /// grown visit by visit), equal counts give an equal table.
    ///
    /// Region ids ascend along every trie path, so that order is the
    /// trie's level order with each level ranked by `(parent's rank,
    /// id)`: per level, the nodes are sorted by that pair packed into
    /// one `u64`. Only frequent nodes are ranked (a premise is at least
    /// as frequent as its rules), and nothing is allocated per rule.
    pub fn derive(&self) -> PatternTable {
        let _span = hpm_obs::span!(crate::metrics::RULES_SPAN);
        let nodes = &self.nodes;
        // Per node: its itemset's size (a parent precedes its
        // children), then its rank within its level.
        let mut size: Vec<u32> = Vec::with_capacity(nodes.len());
        for n in nodes {
            size.push(match n.parent {
                ROOT => 1,
                parent => size[parent as usize] + 1,
            });
        }
        let mut rank = vec![0u32; nodes.len()];
        // One level's `((parent's rank, id), node)`.
        let mut level: Vec<(u64, u32)> = Vec::with_capacity(nodes.len());
        let (mut rules, mut premise_ids) = (Vec::with_capacity(nodes.len()), 0);
        for len in 1..=self.params.max_premise_len as u32 + 1 {
            level.clear();
            for (node, n) in (0u32..).zip(nodes) {
                if size[node as usize] == len && n.count >= self.params.min_support {
                    let parent_rank = match n.parent {
                        ROOT => 0,
                        parent => rank[parent as usize],
                    };
                    level.push(((u64::from(parent_rank) << 32) | u64::from(n.id.0), node));
                }
            }
            level.sort_unstable();
            for (r, &(_, node)) in (0..).zip(&level) {
                rank[node as usize] = r;
                let n = &nodes[node as usize];
                if len > 1 && self.confidence(n) >= self.params.min_confidence {
                    rules.push(node);
                    premise_ids += len as usize - 1;
                }
            }
        }
        // A premise spelled forward: its `k`th region is `len - 1 - k`
        // steps up from its last.
        let up = |mut node: u32, steps: usize| {
            for _ in 0..steps {
                node = nodes[node as usize].parent;
            }
            nodes[node as usize].id
        };
        PatternTable::from_rows(
            rules.len(),
            premise_ids,
            rules.iter().map(|&node| {
                let n = &nodes[node as usize];
                let len = size[n.parent as usize] as usize;
                let premise = (0..len).map(move |k| up(n.parent, len - 1 - k));
                (premise, n.id, self.confidence(n), n.count)
            }),
        )
    }

    /// A counted itemset's confidence as a rule: its support over its
    /// premise's.
    fn confidence(&self, n: &Node) -> f64 {
        n.count as f64 / self.nodes[n.parent as usize].count as f64
    }
}

impl hpm_geo::MemUse for SupportCounts {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of_val::<[u32]>(&self.slots)
            + vec_cap_bytes(&self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MiningParams {
        MiningParams {
            min_support: 2,
            min_confidence: 0.3,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 4,
        }
    }

    #[test]
    fn span_and_gap_constraints_enforced() {
        // Gap 0 -> 3 exceeds max_premise_gap = 2 for a premise pair,
        // but the final element is bound only by max_span = 4.
        let mut c = SupportCounts::new(params());
        let mut txs = VisitTable::default();
        for (id, offset) in [(1, 0), (2, 3), (3, 4)] {
            txs.record(0, RegionId(id), offset);
        }
        c.rebuild(&txs);
        let pats = c.derive();
        // min_support = 2 filters everything here.
        assert!(pats.is_empty());
        let mut c2 = SupportCounts::new(MiningParams {
            min_support: 1,
            ..params()
        });
        c2.rebuild(&txs);
        let pats = c2.derive();
        // [1,2] valid (1->2 as final is span-bound), [1,3] valid,
        // [2,3] valid, [1,2,3] needs premise gap 0->3 > 2: absent.
        assert!(pats
            .iter()
            .all(|p| !(p.premise.len() == 2 && p.premise[0] == RegionId(1))));
        assert!(pats
            .iter()
            .any(|p| p.premise == vec![RegionId(1)] && p.consequence == RegionId(2)));
    }
}
