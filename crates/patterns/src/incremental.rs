//! Incremental Apriori support counting: the persistent-state form of
//! [`mine`](crate::mine) used by the delta-retraining pipeline.
//!
//! [`mine`](crate::mine) recounts every transaction on every call. But a growing
//! trajectory only ever *appends* region visits — at the tail of the
//! newest sub-trajectory's transaction, in ascending offset order — so
//! support counts can be maintained as persistent state instead: every
//! structurally valid itemset instance is counted exactly once, at the
//! moment its time-wise **last** element is appended
//! ([`SupportCounts::record_tail`]), at a cost proportional to the
//! premise window, not to history length.
//!
//! [`SupportCounts::derive`] then replays [`mine`](crate::mine)'s rule generation
//! verbatim — same `(level, itemset)` emission order, same confidence
//! arithmetic over the same integer supports — so the derived pattern
//! list is *identical* (ids included) to a fresh batch mine over the
//! full visit table. The equivalence hinges on three structural facts,
//! property-tested in `tests/incremental.rs`:
//!
//! * a region occurs at most once per transaction (it is bound to one
//!   offset, sampled once per sub-trajectory), so instance counts are
//!   transaction supports;
//! * [`mine`](crate::mine)'s Apriori pruning and frequent-singles transaction
//!   filtering never change the counts of *frequent* itemsets (every
//!   prefix of a valid frequent itemset is valid and frequent);
//! * this module counts the *unpruned* itemset universe (bounded by
//!   the region vocabulary, not by history), so infrequent itemsets
//!   simply fall out at derive time.
//!
//! The counts live in a prefix trie: an itemset's premise is counted
//! before the itemset is (the premise's last visit was itself a tail
//! once), so a node is its premise's node plus one region id, counting
//! an already-tracked instance touches no allocator, and a rule's
//! premise support is its parent's count.

use crate::{FxBuildHasher, MiningParams, PatternTable, RegionId};
use hpm_geo::mem::{hashmap_bytes, vec_cap_bytes};
use hpm_trajectory::TimeOffset;
use std::collections::HashMap;

/// One transaction: the `(region id, offset)` visit sequence of one
/// sub-trajectory, strictly ascending in offset.
pub type Transaction = Vec<(u32, TimeOffset)>;

/// Parent of the single-region itemsets.
const ROOT: u32 = u32::MAX;

/// One counted itemset: its prefix (`parent`, the rule's premise) plus
/// its time-wise last region `id`.
#[derive(Debug, Clone, Copy)]
struct Node {
    count: u32,
    parent: u32,
    id: u32,
}

/// Persistent exact support counts over the structurally valid itemset
/// universe (sizes `1..=max_premise_len + 1`), kept as a prefix trie:
/// every counted itemset's premise is itself counted (see
/// [`MiningParams`]), so an itemset is its premise's node plus one
/// region id and no itemset is ever spelled out as a key.
#[derive(Debug, Clone)]
pub struct SupportCounts {
    params: MiningParams,
    /// `(parent node, region id) → node`; singles hang off [`ROOT`].
    children: HashMap<(u32, u32), u32, FxBuildHasher>,
    nodes: Vec<Node>,
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
            children: HashMap::default(),
            nodes: Vec::new(),
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

    /// Counts one more instance of the itemset `parent + [id]`,
    /// starting to track it on its first. Returns its node.
    fn bump(&mut self, parent: u32, id: u32) -> u32 {
        let next = self.nodes.len() as u32;
        let node = *self.children.entry((parent, id)).or_insert(next);
        if node == next {
            self.nodes.push(Node {
                count: 0,
                parent,
                id,
            });
        }
        self.nodes[node as usize].count += 1;
        node
    }

    /// The node of `parent + [id]`, a premise chain: counted when its
    /// own last visit was the tail.
    fn child(&self, parent: u32, id: u32) -> u32 {
        *self
            .children
            .get(&(parent, id))
            .expect("premise of a counted itemset is itself counted")
    }

    /// Counts every structurally valid itemset whose **final** element
    /// is the last visit of `tx` — call exactly once right after
    /// appending a visit to its transaction. Offsets in `tx` must be
    /// strictly ascending (one region per offset per sub-trajectory).
    /// Allocates only when an itemset is seen for the first time.
    pub fn record_tail(&mut self, tx: &[(u32, TimeOffset)]) {
        let j = tx.len() - 1;
        let (last_id, last_off) = tx[j];
        debug_assert!(j == 0 || tx[j - 1].1 < last_off, "offsets must ascend");
        self.bump(ROOT, last_id);
        // Premise chains drawn from the window [anchor, j): consecutive
        // premise gaps ≤ max_premise_gap; the final element (the new
        // visit) is bound only by max_span from the anchor — the same
        // constraints `mine`'s level-wise `extend` applies.
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
    fn extend_chain(
        &mut self,
        tx: &[(u32, TimeOffset)],
        last: usize,
        j: usize,
        chain: u32,
        len: usize,
    ) {
        self.bump(chain, tx[j].0);
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

    /// Rebuilds the counts from scratch over complete transactions —
    /// the seeding path after a full retrain. Equivalent to replaying
    /// [`SupportCounts::record_tail`] for every visit in arrival
    /// order.
    pub fn rebuild(&mut self, txs: &[Transaction]) {
        self.children.clear();
        self.nodes.clear();
        for tx in txs {
            for end in 1..=tx.len() {
                self.record_tail(&tx[..end]);
            }
        }
    }

    /// Derives the canonical pattern list: exactly what
    /// [`mine`](crate::mine) returns over the same visits — same
    /// patterns, same order, bit-identical confidences — as an
    /// exact-size table.
    pub fn derive(&self) -> PatternTable {
        // One rule per frequent itemset of size ≥ 2 that meets the
        // confidence bar; its premise support is the parent's count.
        // `ids` holds the itemsets back to back, `rules` their
        // `(start, end, support, confidence)`.
        let mut ids: Vec<u32> = Vec::new();
        let mut rules: Vec<(usize, usize, u32, f64)> = Vec::new();
        for node in &self.nodes {
            if node.parent == ROOT || node.count < self.params.min_support {
                continue;
            }
            let premise_support = self.nodes[node.parent as usize].count;
            debug_assert!(premise_support >= node.count);
            let confidence = node.count as f64 / premise_support as f64;
            if confidence < self.params.min_confidence {
                continue;
            }
            let start = ids.len();
            let mut at = node;
            loop {
                ids.push(at.id);
                if at.parent == ROOT {
                    break;
                }
                at = &self.nodes[at.parent as usize];
            }
            ids[start..].reverse();
            rules.push((start, ids.len(), node.count, confidence));
        }
        // `mine` emits level by level, each level in itemset order.
        rules.sort_unstable_by(|a, b| {
            let (a, b) = (&ids[a.0..a.1], &ids[b.0..b.1]);
            a.len().cmp(&b.len()).then_with(|| a.cmp(b))
        });
        PatternTable::from_rows(
            rules.len(),
            ids.len() - rules.len(),
            rules.iter().map(|&(start, end, support, confidence)| {
                let premise = ids[start..end - 1].iter().map(|&id| RegionId(id));
                (premise, RegionId(ids[end - 1]), confidence, support)
            }),
        )
    }
}

impl hpm_geo::MemUse for SupportCounts {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + hashmap_bytes(&self.children) + vec_cap_bytes(&self.nodes)
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
    fn tail_counting_equals_rebuild() {
        let txs: Vec<Transaction> = vec![
            vec![(0, 0), (2, 1), (5, 3)],
            vec![(0, 0), (5, 3)],
            vec![(2, 1), (5, 3)],
        ];
        let mut grown = SupportCounts::new(params());
        for tx in &txs {
            for end in 1..=tx.len() {
                grown.record_tail(&tx[..end]);
            }
        }
        let mut rebuilt = SupportCounts::new(params());
        rebuilt.rebuild(&txs);
        assert_eq!(grown.derive(), rebuilt.derive());
        assert_eq!(grown.tracked_itemsets(), rebuilt.tracked_itemsets());
    }

    #[test]
    fn span_and_gap_constraints_enforced() {
        // Gap 0 -> 3 exceeds max_premise_gap = 2 for a premise pair,
        // but the final element is bound only by max_span = 4.
        let mut c = SupportCounts::new(params());
        let tx: Transaction = vec![(1, 0), (2, 3), (3, 4)];
        for end in 1..=tx.len() {
            c.record_tail(&tx[..end]);
        }
        let pats = c.derive();
        // min_support = 2 filters everything here.
        assert!(pats.is_empty());
        let mut c2 = SupportCounts::new(MiningParams {
            min_support: 1,
            ..params()
        });
        c2.rebuild(&[tx]);
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
