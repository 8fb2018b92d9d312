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
//! premise support is its parent's count. The 12-byte nodes are all
//! that is stored, in *derive order* (itemset size, parent position,
//! region id): a node's children are one run sorted by id, which starts
//! where the node says and ends where the next node's starts, and a
//! child is found by a binary search of that run. A first-seen itemset
//! is inserted into its parent's run, shifting every later position by
//! one; a steady-state fold inserts none.

use crate::{MiningParams, PatternTable, RegionId, Visit, VisitTable};
use hpm_geo::mem::vec_cap_bytes;
use hpm_trajectory::TimeOffset;
use std::ops::Range;

/// Parent of the single-region itemsets.
const ROOT: u32 = u32::MAX;

/// One counted itemset: its time-wise last region `id`, appended to
/// the itemset of the node whose child run holds it (its premise).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    count: u32,
    id: RegionId,
    /// Where this node's child run starts in [`SupportCounts::nodes`].
    first_child: u32,
}

/// Persistent exact support counts over the structurally valid itemset
/// universe (sizes `1..=max_premise_len + 1`), kept as a prefix trie:
/// every counted itemset's premise is itself counted (see
/// [`MiningParams`]), so an itemset is its premise's node plus one
/// region id and no itemset is ever spelled out as a key. The layout
/// is a pure function of the counted itemsets: counts grown visit by
/// visit equal counts rebuilt over the same sequences, node for node.
#[derive(Debug, Clone, PartialEq)]
pub struct SupportCounts {
    params: MiningParams,
    /// The trie in derive order: the singles first (the child run of
    /// [`ROOT`]), then each size's nodes by `(parent, id)`.
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

    /// Where the child run of the node at `i` starts (past the last: the end).
    fn run_start(&self, i: usize) -> usize {
        (self.nodes.get(i)).map_or(self.nodes.len(), |n| n.first_child as usize)
    }

    /// The positions of `parent`'s children: from where its run starts
    /// to where the next node's does ([`ROOT`]'s run starts at 0 and
    /// ends where the first node's starts).
    fn run(&self, parent: u32) -> Range<usize> {
        match parent {
            ROOT => 0..self.run_start(0),
            p => self.run_start(p as usize)..self.run_start(p as usize + 1),
        }
    }

    /// The node of `parent + [id]`, or the position in `parent`'s run
    /// where it would go.
    fn find(&self, parent: u32, id: RegionId) -> Result<usize, usize> {
        let run = self.run(parent);
        let at = |i| run.start + i;
        (self.nodes[run.clone()].binary_search_by_key(&id, |n| n.id))
            .map(at)
            .map_err(at)
    }

    /// Counts `instances` more instances of the itemset `parent + [id]`,
    /// starting to track it on its first. Returns its node.
    fn bump(&mut self, parent: u32, id: RegionId, instances: u32) -> u32 {
        let node = self.find(parent, id).unwrap_or_else(|at| {
            // Every node past `parent` has its run past the new node,
            // which takes an empty run where its successor's starts (at
            // the end when it is the last).
            for n in &mut self.nodes[parent.wrapping_add(1) as usize..] {
                n.first_child += 1;
            }
            let first_child = self.run_start(at) + usize::from(at == self.nodes.len());
            self.nodes.insert(
                at,
                Node {
                    count: 0,
                    id,
                    first_child: first_child as u32,
                },
            );
            at
        });
        self.nodes[node].count += instances;
        node as u32
    }

    /// The node of `parent + [id]`, a premise chain: counted when its
    /// own last visit was the tail.
    fn child(&self, parent: u32, id: RegionId) -> u32 {
        self.find(parent, id)
            .expect("premise of a counted itemset is itself counted") as u32
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
        // visit) is bound only by max_span from the anchor. A node
        // keeps its position while its descendants are inserted: they
        // all sit after it.
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
    /// counts, one itemset size at a time, each distinct sequence once,
    /// weighted by its repeats. A size's instances extend the premise
    /// chains of the size before, which come in node order, so they
    /// arrive one parent at a time and are merged sorted by id: the
    /// nodes are appended in derive order and none ever moves.
    pub fn rebuild(&mut self, visits: &VisitTable) {
        let _span = hpm_obs::span!(crate::metrics::ITEMSETS_SPAN);
        let mut sequences: Vec<&[Visit]> = visits.iter().collect();
        sequences.sort_unstable();
        let distinct: Vec<(&[Visit], u32)> = (sequences.chunk_by(|a, b| a == b))
            .map(|run| (run[0], run.len() as u32))
            .collect();
        self.nodes.clear();
        let mut instances: Vec<Instance> = Vec::new();
        for (seq, &(tx, _)) in (0..).zip(&distinct) {
            instances.extend((0..).zip(tx).map(|(pos, &(id, t))| (id, seq, pos, Some(t))));
        }
        // One size's premise chains, in node order.
        let (mut chains, mut next) = (Vec::new(), Vec::new());
        self.merge(&mut instances, &distinct, &mut chains);
        let (mut level, mut len) = (0..self.nodes.len(), 1);
        while !level.is_empty() {
            let mut from = chains.iter().peekable();
            for parent in level.clone() {
                self.nodes[parent].first_child = self.nodes.len() as u32;
                while let Some(&(_, seq, last, anchor)) = from.next_if(|c| c.0 == parent as u32) {
                    let tx = distinct[seq as usize].0;
                    let last_off = tx[last as usize].1;
                    for (pos, &(id, t)) in (last + 1..).zip(&tx[last as usize + 1..]) {
                        if t - anchor > self.params.max_span {
                            break;
                        }
                        let extends = len < self.params.max_premise_len
                            && t - last_off <= self.params.max_premise_gap;
                        instances.push((id, seq, pos, extends.then_some(anchor)));
                    }
                }
                self.merge(&mut instances, &distinct, &mut next);
            }
            level = level.end..self.nodes.len();
            len += 1;
            std::mem::swap(&mut chains, &mut next);
            next.clear();
        }
        self.nodes.shrink_to_fit();
    }

    /// Each node's parent ([`ROOT`] for a single) and itemset size,
    /// read off the child runs in one pass.
    fn parents(&self) -> Vec<(u32, usize)> {
        let mut parents = Vec::with_capacity(self.nodes.len());
        parents.resize(self.run(ROOT).end, (ROOT, 1));
        for p in 0..self.nodes.len() {
            let size = parents[p].1 + 1;
            parents.resize(self.run(p as u32).end, (p as u32, size));
        }
        parents
    }

    /// The regions of `node`'s itemset in time order: its `k`th of
    /// `size` is `size - k` steps up from its last.
    fn itemset<'a>(
        &'a self,
        parents: &'a [(u32, usize)],
        node: u32,
    ) -> impl Iterator<Item = RegionId> + 'a {
        let size = parents[node as usize].1;
        (1..=size).map(move |k| {
            let mut at = node;
            for _ in k..size {
                at = parents[at as usize].0;
            }
            self.nodes[at as usize].id
        })
    }

    /// Every frequent itemset of two or more regions, spelled out,
    /// with its support (for the pruning-effect statistics).
    pub(crate) fn frequent_sets(&self) -> impl Iterator<Item = (Vec<RegionId>, u32)> + '_ {
        let parents = self.parents();
        (self.run(ROOT).end..self.nodes.len())
            .filter(|&node| self.nodes[node].count >= self.params.min_support)
            .map(move |node| {
                let set = self.itemset(&parents, node as u32).collect();
                (set, self.nodes[node].count)
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
    /// nodes' stored order (a frequent node's parent is frequent too):
    /// the rules are read off in one pass, nothing allocated per rule.
    pub fn derive(&self) -> PatternTable {
        let _span = hpm_obs::span!(crate::metrics::RULES_SPAN);
        let (nodes, parents) = (&self.nodes, self.parents());
        let (mut rules, mut premise_ids) = (Vec::with_capacity(nodes.len()), 0);
        for node in self.run(ROOT).end..nodes.len() {
            let (n, (parent, size)) = (&nodes[node], parents[node]);
            // Its support over its premise's.
            let confidence = n.count as f64 / nodes[parent as usize].count as f64;
            if n.count >= self.params.min_support && confidence >= self.params.min_confidence {
                rules.push((node, confidence));
                premise_ids += size - 1;
            }
        }
        PatternTable::from_rows(
            rules.len(),
            premise_ids,
            rules.iter().map(|&(node, confidence)| {
                let premise = self.itemset(&parents, parents[node].0);
                (premise, nodes[node].id, confidence, nodes[node].count)
            }),
        )
    }

    /// Appends one run of nodes: its instances sorted by id and merged,
    /// each node weighing them by their sequences' repeats in `txs`. The
    /// instances that are premise chains go on to `out` with their node.
    fn merge(&mut self, run: &mut Vec<Instance>, txs: &[(&[Visit], u32)], out: &mut Vec<Chain>) {
        run.sort_unstable_by_key(|i| i.0);
        for same in run.chunk_by(|a, b| a.0 == b.0) {
            let node = self.nodes.len() as u32;
            self.nodes.push(Node {
                count: same.iter().map(|i| txs[i.1 as usize].1).sum(),
                id: same[0].0,
                first_child: 0,
            });
            let chain = |&(_, seq, pos, anchor): &Instance| Some((node, seq, pos, anchor?));
            out.extend(same.iter().filter_map(chain));
        }
        run.clear();
    }

    /// Panics unless the trie is laid out in derive order: every child
    /// run starts after its parent and where the one before it ends,
    /// the nodes ascend by `(size, parent, id)`, sizes stop at
    /// `max_premise_len + 1`, and every count is positive and at most
    /// its parent's.
    #[doc(hidden)]
    pub fn validate(&self) {
        for c in 0..self.nodes.len() {
            let run = self.run(c as u32);
            assert!(c < run.start && run.start <= run.end, "{c}: {run:?}");
        }
        let mut last = None;
        for (c, (at, &(parent, size))) in self.nodes.iter().zip(&self.parents()).enumerate() {
            let cap = (self.nodes.get(parent as usize)).map_or(u32::MAX, |p| p.count);
            let key = Some((size, parent.wrapping_add(1), at.id));
            let fits = size <= self.params.max_premise_len + 1 && (1..=cap).contains(&at.count);
            assert!(fits && last < key, "node {c} misplaced");
            last = key;
        }
    }
}

/// An itemset instance [`rebuild`](SupportCounts::rebuild) counts:
/// `(id, sequence, position, anchor offset if it is a premise chain)`.
type Instance = (RegionId, u32, u32, Option<TimeOffset>);

/// A premise chain: `(node, sequence, last position, anchor offset)`.
type Chain = (u32, u32, u32, TimeOffset);

impl hpm_geo::MemUse for SupportCounts {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + vec_cap_bytes(&self.nodes)
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
