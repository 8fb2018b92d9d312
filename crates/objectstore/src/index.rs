//! The cross-object **predictive index**: prunes fleet-wide predictive
//! queries (`predict_range` / `predict_nearest`) down to the objects
//! whose predicted position *can* matter, instead of re-predicting the
//! whole store per query.
//!
//! # How pruning stays exact
//!
//! Every possible answer of [`HybridPredictor::predict`] for an object
//! — its location *and* the uncertainty region it claims — is one of:
//!
//! * a frequent-region **centroid** (the FQP/BQP pattern paths),
//!   claiming at most that region's bounding box — a finite,
//!   query-independent set bounded by
//!   [`HybridPredictor::region_envelope`], the union of every region's
//!   bbox, or
//! * the **motion-function fallback** at prediction length
//!   `tq − tc` — deterministic in the object's frozen recent window,
//!   so its rollout over lengths `1..=horizon` is precomputable and
//!   bounded by [`HybridPredictor::fallback_envelope`]; its error
//!   ellipse widens with √steps, so padding that box by the
//!   half-axes at the horizon
//!   ([`Uncertainty::ellipse_half_axes`] of the window's residual
//!   sigma) covers the ellipse at every earlier step too.
//!
//! The union of the region box and the padded rollout box is the
//! object's **envelope** (`MovingObjectStore::compute_envelope`): for
//! any query time within `horizon` steps of the object's current time,
//! the answer and its claimed region provably lie inside it. Query
//! times *beyond* the horizon are unprunable (recursive-motion
//! rollouts have no closed-form bound), so the index keeps an expiry
//! structure and treats those objects as unconditional candidates.
//! Either way the surviving candidates run the ordinary predict path,
//! so results are bit-identical to the full scan — the index only
//! decides who is *skipped*, never what is *answered*.
//!
//! # Partitioning
//!
//! Each shard keeps one dense slot per indexed object — id, `tc`,
//! envelope box — filed by the grid cell of the envelope's centre
//! **and a velocity class** (the envelope's extent relative to the
//! cell size — objects that cover more ground per horizon step land in
//! coarser classes, the velocity-partitioning idea of Nguyen et al.'s
//! "Boosting Moving Object Indexing through Velocity Partitioning").
//! A cell is one map entry naming the first slot of a chain linked
//! through the slots, so it allocates nothing of its own. Range
//! queries probe, per class, the cells the class can reach into the
//! query box. k-nearest queries sweep square rings of cells outward
//! from the focus, per class ([`RingSweep`]), and stop a class as soon
//! as its next ring provably cannot beat the current k-th best
//! distance.
//!
//! # Maintenance
//!
//! Mutations (`report*`, retrains, `remove`) only *mark the object
//! dirty* — an O(1) set insert on the ingest hot path. The envelope
//! refit (motion-model fit + rollout) is deferred to the next
//! fleet-wide query, which flushes dirty objects first; an object
//! reported a thousand times between queries is refitted once, not a
//! thousand times. A flush with enough dirty objects runs the shards on
//! the store's worker pool ([`PARALLEL_FLUSH_FLOOR`]).
//!
//! [`HybridPredictor::predict`]: hpm_core::HybridPredictor::predict
//! [`HybridPredictor::region_envelope`]: hpm_core::HybridPredictor::region_envelope
//! [`Uncertainty::ellipse_half_axes`]: hpm_core::Uncertainty::ellipse_half_axes
//! [`HybridPredictor::fallback_envelope`]: hpm_core::HybridPredictor::fallback_envelope

use hpm_geo::{grid, BoundingBox, Point};
use hpm_trajectory::Timestamp;
use std::cmp::Ordering::Greater;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

/// Tuning knobs of the predictive index (see `index.rs`'s module
/// docs for how the index partitions and prunes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexConfig {
    /// Prediction horizon, in timestamps: queries up to this many
    /// steps past an object's current time are answered through
    /// envelope pruning; queries further out fall back to examining
    /// that object unconditionally. `0` = auto (twice the discovery
    /// period — one full period of "tomorrow" plus slack).
    pub horizon: u32,
    /// Grid cell size of the index cells, in map units. `0.0` =
    /// auto (16 × the discovery `Eps`, a few frequent regions per
    /// cell).
    pub cell: f64,
}

impl Default for IndexConfig {
    /// Auto-derive both knobs from the discovery parameters.
    fn default() -> Self {
        IndexConfig {
            horizon: 0,
            cell: 0.0,
        }
    }
}

impl IndexConfig {
    pub(crate) fn validate(&self) {
        assert!(
            self.cell >= 0.0 && self.cell.is_finite(),
            "index cell size must be finite and non-negative"
        );
    }

    /// Resolves the auto (`0`) knobs against the discovery parameters.
    pub(crate) fn resolve(&self, period: u32, eps: f64) -> (u32, f64) {
        let horizon = if self.horizon == 0 {
            (period * 2).max(1)
        } else {
            self.horizon
        };
        let cell = if self.cell == 0.0 {
            (eps * 16.0).max(f64::MIN_POSITIVE)
        } else {
            self.cell
        };
        (horizon, cell)
    }
}

/// One object's index entry as the store computes it: where its
/// predicted position can be from just after `tc` until `tc + horizon`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Envelope {
    /// The object's current time `tc` (timestamp of its last report);
    /// query times at or before it answer nothing for this object.
    /// The envelope covers query times in `(tc, tc + horizon]`; beyond
    /// that the object is an unconditional candidate.
    pub tc: Timestamp,
    /// Box containing every answer `predict` can give for query times
    /// the envelope covers.
    pub bbox: BoundingBox,
}

/// Estimated B-tree node bytes per entry of the class and expiry maps.
const BTREE_ENTRY_BYTES: usize = 64;

/// End of a slot chain.
const NIL: u32 = u32::MAX;

/// The velocity class whose extent bound does not hold: every kNN
/// sweep enumerates its cells.
const SATURATED: u8 = u8::MAX;

/// One indexed object: its id, envelope, and its links in the chain
/// of slots sharing its cell. The cell is not stored; it is recomputed
/// from the box ([`cell_key`]) when the slot leaves it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u64,
    envelope: Envelope,
    next: u32,
    prev: u32,
}

/// The per-shard index proper: a dense slot array, cells that
/// reference its slots, and expiry groups of slot numbers. All lookups
/// go through the shard's `RwLock`, mirroring the store's
/// shard-granular locking.
#[derive(Debug, Default)]
struct ShardIndex {
    slots: Vec<Slot>,
    /// Slots freed by removals, reused before the array grows.
    vacant: Vec<u32>,
    ids: HashMap<u64, u32>,
    /// Per velocity class, grid cell → first slot of the cell's chain.
    classes: BTreeMap<u8, HashMap<(i64, i64), u32>>,
    /// `tc + horizon` → slots whose envelope stops covering after it;
    /// a range scan below the query time enumerates exactly the
    /// beyond-horizon objects.
    expiry: BTreeMap<Timestamp, Vec<u32>>,
}

impl ShardIndex {
    fn insert(&mut self, id: u64, envelope: Envelope, cell: f64, horizon: u32) {
        // A re-insert gets its own slot back from `vacant`.
        self.remove(id, cell, horizon);
        let fresh = || u32::try_from(self.slots.len()).expect("under u32::MAX slots");
        let s = self.vacant.pop().unwrap_or_else(fresh);
        self.ids.insert(id, s);
        let (x, y, class) = cell_key(&envelope.bbox, cell);
        let cells = self.classes.entry(class).or_default();
        let next = std::mem::replace(cells.entry((x, y)).or_insert(NIL), s);
        if let Some(head) = self.slots.get_mut(next as usize) {
            head.prev = s;
        }
        let slot = Slot {
            id,
            envelope,
            next,
            prev: NIL,
        };
        match self.slots.get_mut(s as usize) {
            Some(vacant) => *vacant = slot,
            None => self.slots.push(slot),
        }
        let until = envelope.tc.saturating_add(u64::from(horizon));
        self.expiry.entry(until).or_default().push(s);
    }

    fn remove(&mut self, id: u64, cell: f64, horizon: u32) {
        if let Some(s) = self.ids.remove(&id) {
            self.unlink(s, cell, horizon);
            self.vacant.push(s);
        }
    }

    /// Takes slot `s` out of its cell chain and its expiry group.
    fn unlink(&mut self, s: u32, cell: f64, horizon: u32) {
        let Slot {
            envelope,
            next,
            prev,
            ..
        } = self.slots[s as usize];
        if let Some(after) = self.slots.get_mut(next as usize) {
            after.prev = prev;
        }
        if let Some(before) = self.slots.get_mut(prev as usize) {
            before.next = next;
        } else {
            let (x, y, class) = cell_key(&envelope.bbox, cell);
            let cells = self.classes.get_mut(&class).expect("a linked slot's class");
            if next != NIL {
                cells.insert((x, y), next);
            } else if cells.remove(&(x, y)).is_some() && cells.is_empty() {
                self.classes.remove(&class);
            }
        }
        let until = envelope.tc.saturating_add(u64::from(horizon));
        let group = self.expiry.get_mut(&until).expect("a linked slot's expiry");
        group.retain(|&m| m != s);
        if group.is_empty() {
            self.expiry.remove(&until);
        }
    }

    /// The slots of the cell chain starting at `head`.
    fn chain(&self, head: u32) -> impl Iterator<Item = &Slot> {
        std::iter::successors(self.slots.get(head as usize), |s| {
            self.slots.get(s.next as usize)
        })
    }

    /// Ids whose envelope no longer covers `t` (beyond-horizon):
    /// unconditional candidates.
    fn expired_into(&self, t: Timestamp, out: &mut Vec<u64>) {
        for group in self.expiry.range(..t).map(|(_, group)| group) {
            out.extend(group.iter().map(|&s| self.slots[s as usize].id));
        }
    }

    /// Heap bytes, capacity-based (the B-trees are estimated per
    /// entry since their node layout is not observable).
    fn mem_bytes(&self) -> usize {
        use hpm_geo::mem::{hashmap_bytes, vec_cap_bytes};
        let cells: usize = self.classes.values().map(hashmap_bytes).sum();
        let expiry: usize = self.expiry.values().map(vec_cap_bytes).sum();
        let nodes = (self.classes.len() + self.expiry.len()) * BTREE_ENTRY_BYTES;
        vec_cap_bytes(&self.slots)
            + vec_cap_bytes(&self.vacant)
            + hashmap_bytes(&self.ids)
            + cells
            + expiry
            + nodes
    }
}

/// Whether the envelope answers for query time `t`: after its `tc`,
/// within the horizon.
fn covers(e: &Envelope, t: Timestamp, horizon: u32) -> bool {
    e.tc < t && t <= e.tc.saturating_add(u64::from(horizon))
}

/// How far a class-`class` envelope can reach beyond its key cell:
/// envelope centres lie inside the cell and the class bounds the
/// extent by `cell · 2^class`, so half of that on each side.
fn class_reach(cell: f64, class: u8) -> f64 {
    if class == SATURATED {
        // The saturated class: its extent bound does not hold, so its
        // reach is unbounded — the infinite span forces enumeration,
        // never a missed cell.
        return f64::INFINITY;
    }
    cell * f64::from(class as i32 - 1).exp2()
}

/// Lower bound on the distance from a focus to any class-`class`
/// envelope centred in ring `ring` or beyond around the focus cell:
/// those cells lie at least `(ring - 1) · cell` away, and the envelope
/// reaches at most [`class_reach`] out of its cell.
fn ring_bound(ring: u64, cell: f64, class: u8) -> f64 {
    (ring as f64 - 1.0) * cell - class_reach(cell, class)
}

/// Inclusive cell-index span covering `[lo, hi]`.
fn cell_span(lo: f64, hi: f64, cell: f64) -> [i64; 2] {
    [grid::cell_index(lo, cell), grid::cell_index(hi, cell)]
}

/// Number of cells in an inclusive span, saturating (spans from
/// enormous or non-finite query boxes just force enumeration).
fn span_len(span: [i64; 2]) -> u128 {
    span[1].saturating_sub(span[0]).max(0) as u128 + 1
}

/// The envelope's cell: centre cell plus velocity class.
fn cell_key(bbox: &BoundingBox, cell: f64) -> (i64, i64, u8) {
    let (cx, cy) = grid::cell_of(&bbox.center(), cell);
    let extent = bbox.width().max(bbox.height());
    let class = if extent <= cell {
        0
    } else {
        // log2 of the extent-over-cell ratio, saturating: each class
        // doubles the envelope size the cell admits.
        ((extent / cell).log2().ceil() as i64).clamp(1, SATURATED as i64) as u8
    };
    (cx, cy, class)
}

/// Dirty objects at or above which [`MovingObjectStore`]'s flush runs
/// its shards on the worker pool. A refit costs ~0.85 µs (a
/// 100,000-object cold flush took 0.085 s inline) and a scoped run of
/// two workers 38–49 µs on a 2-core host, so below ~100 objects the
/// spawn costs more than the second worker saves; the floor keeps a 5×
/// margin for shards that flush unevenly. `mixed_live`'s ~120 dirty
/// objects per query stay inline.
///
/// [`MovingObjectStore`]: crate::MovingObjectStore
pub(crate) const PARALLEL_FLUSH_FLOOR: usize = 512;

/// The store-wide index: one [`ShardIndex`] per store shard, plus the
/// per-shard dirty sets mutations push into.
#[derive(Debug)]
pub(crate) struct PredictiveIndex {
    shards: Box<[ShardCell]>,
    /// Resolved prediction horizon (timestamps).
    pub(crate) horizon: u32,
    /// Resolved cell size (map units).
    cell: f64,
}

#[derive(Debug, Default)]
struct ShardCell {
    dirty: Mutex<HashSet<u64>>,
    /// Serializes flushes of this shard. Without it two concurrent
    /// flushers can interleave as take(A) → mutate+mark → take(B) →
    /// install fresh(B) → install stale(A): a stale envelope installed
    /// *after* the mark that would have fixed it was consumed — an
    /// unsound entry with no dirty bit left. And a query whose flush
    /// finds the set already taken must wait for that flush to
    /// install. Under the gate any install stale w.r.t. a mutation
    /// implies that mutation's mark is still in `dirty`.
    flush_gate: Mutex<()>,
    index: RwLock<ShardIndex>,
}

impl ShardCell {
    fn read(&self) -> RwLockReadGuard<'_, ShardIndex> {
        self.index.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn dirty(&self) -> MutexGuard<'_, HashSet<u64>> {
        self.dirty.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl PredictiveIndex {
    pub(crate) fn new(shards: usize, horizon: u32, cell: f64) -> Self {
        PredictiveIndex {
            shards: (0..shards).map(|_| ShardCell::default()).collect(),
            horizon,
            cell,
        }
    }

    /// O(1) hot-path hook: records that `id`'s envelope is stale. The
    /// refit is deferred to the next fleet-wide query's flush.
    pub(crate) fn mark_dirty(&self, shard: usize, id: u64) {
        self.shards[shard].dirty().insert(id);
    }

    /// Objects marked dirty across every shard.
    pub(crate) fn dirty_count(&self) -> usize {
        self.shards.iter().map(|s| s.dirty().len()).sum()
    }

    /// Brings the shard's entries up to date: takes the dirty set,
    /// asks `refit` for each stale object's new envelope (`None` =
    /// object gone or history-less → entry removed), and installs them
    /// all under one write lock. Returns whether any entry changed.
    /// Flushes of one shard are serialized (see
    /// [`ShardCell::flush_gate`]); `refit` is called with no index
    /// lock held, so it may freely take object locks.
    pub(crate) fn flush_shard(
        &self,
        shard: usize,
        refit: impl Fn(u64) -> Option<Envelope>,
    ) -> bool {
        let cell = &self.shards[shard];
        let _gate = cell
            .flush_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let stale = std::mem::take(&mut *cell.dirty());
        if stale.is_empty() {
            return false;
        }
        let mut fresh: Vec<_> = stale.into_iter().map(|id| (id, refit(id))).collect();
        // In cell order, so a bulk load puts neighbouring cells' objects
        // in neighbouring slots, and a probe's cells share cache lines.
        fresh.sort_by_cached_key(|(_, e)| e.map(|e| cell_key(&e.bbox, self.cell)));
        let mut index = cell.index.write().unwrap_or_else(PoisonError::into_inner);
        if index.slots.is_empty() {
            index.slots.reserve_exact(fresh.len());
        }
        for (id, envelope) in fresh {
            match envelope {
                Some(e) => index.insert(id, e, self.cell, self.horizon),
                None => index.remove(id, self.cell, self.horizon),
            }
        }
        true
    }

    /// Approximate total bytes held by the index across every shard
    /// (structures + dirty sets), capacity-based.
    pub(crate) fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .shards
                .iter()
                .map(|s| {
                    let dirty_bytes = s.dirty().capacity() * (std::mem::size_of::<u64>() + 1);
                    std::mem::size_of::<ShardCell>() + dirty_bytes + s.read().mem_bytes()
                })
                .sum::<usize>()
    }

    /// Indexed objects across all shards (the `index.entries` gauge).
    pub(crate) fn entry_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().ids.len()).sum()
    }

    /// Collects the shard's candidates for a range query at `t`:
    /// beyond-horizon ids plus the objects whose envelope covers `t`
    /// and intersects `query`. Returns `(cells_pruned, cells_total)`,
    /// a cell counting as pruned when none of its objects is a
    /// candidate.
    ///
    /// Cell selection is sublinear when the query is small: a class
    /// `c` envelope lies within `cell · 2^(c-1)` of its key cell
    /// (envelope centres are in the cell, extents bounded by the
    /// class), so probing the cells of the query box expanded by that
    /// reach finds every intersecting envelope of the class by key
    /// lookup. Where the expanded query covers more cells than the
    /// class holds, enumerating the class is cheaper and exactly as
    /// correct.
    pub(crate) fn range_candidates(
        &self,
        shard: usize,
        query: &BoundingBox,
        t: Timestamp,
        out: &mut Vec<u64>,
    ) -> (u64, u64) {
        let index = self.shards[shard].read();
        index.expired_into(t, out);
        let (mut total, mut examined) = (0u64, 0u64);
        let mut visit = |head: u32, out: &mut Vec<u64>| {
            let before = out.len();
            out.extend(index.chain(head).filter_map(|slot| {
                let e = &slot.envelope;
                (covers(e, t, self.horizon) && e.bbox.intersects(query)).then_some(slot.id)
            }));
            examined += u64::from(out.len() > before);
        };
        for (&class, cells) in &index.classes {
            total += cells.len() as u64;
            let reach = class_reach(self.cell, class);
            let xs = cell_span(query.min.x - reach, query.max.x + reach, self.cell);
            let ys = cell_span(query.min.y - reach, query.max.y + reach, self.cell);
            if span_len(xs).saturating_mul(span_len(ys)) <= cells.len() as u128 {
                for cx in xs[0]..=xs[1] {
                    for cy in ys[0]..=ys[1] {
                        if let Some(&head) = cells.get(&(cx, cy)) {
                            visit(head, out);
                        }
                    }
                }
            } else {
                for &head in cells.values() {
                    visit(head, out);
                }
            }
        }
        (total - examined, total)
    }

    /// Beyond-horizon ids of one shard (unconditional kNN candidates).
    pub(crate) fn expired_ids(&self, shard: usize, t: Timestamp, out: &mut Vec<u64>) {
        self.shards[shard].read().expired_into(t, out);
    }

    /// Starts a kNN sweep around `focus` at query time `t` over every
    /// (shard, velocity class) live now.
    pub(crate) fn ring_sweep(&self, focus: &Point, t: Timestamp) -> RingSweep<'_> {
        let mut live = Vec::new();
        let mut cells = 0;
        for (shard, cell) in self.shards.iter().enumerate() {
            for (&class, members) in &cell.read().classes {
                live.push((shard, class));
                cells += members.len() as u64;
            }
        }
        RingSweep {
            index: self,
            focus: *focus,
            t,
            ring: 0,
            live,
            pending: Vec::new(),
            probed: 0,
            visited: 0,
            cells,
        }
    }
}

/// One kNN query's sweep: per live (shard, class), square rings of
/// cells outward from the focus cell, probed by key lookup; the
/// objects found come out in ascending envelope distance.
///
/// Ring `r`'s cells are at least `(r - 1) · cell` from the focus, and
/// a class-`c` envelope reaches at most [`class_reach`] beyond its
/// cell, so nothing of class `c` in ring `r` or beyond lies nearer
/// than `(r - 1) · cell - class_reach(c)`. A class stops once that
/// bound exceeds the caller's `k`-th best; it is enumerated instead,
/// once, where its rings so far would probe more cells than it holds —
/// the saturated class, whose reach is unbounded, at once.
#[derive(Debug)]
pub(crate) struct RingSweep<'a> {
    index: &'a PredictiveIndex,
    focus: Point,
    t: Timestamp,
    /// The next ring to probe.
    ring: u64,
    /// (shard, class) pairs whose unprobed rings may hold a candidate.
    live: Vec<(usize, u8)>,
    /// `(envelope distance, id)` found but not handed out, farthest
    /// first.
    pending: Vec<(f64, u64)>,
    /// Cells probed by key or enumerated (`buckets_per_query.knn`).
    pub(crate) probed: u64,
    /// Cells probed that held objects.
    pub(crate) visited: u64,
    /// Cells the index held when the sweep started.
    pub(crate) cells: u64,
}

impl RingSweep<'_> {
    /// The next candidate id, in ascending envelope distance, whose
    /// envelope distance does not exceed `kth` (the current `k`-th best
    /// score, infinite while fewer than `k` are held; a candidate tied
    /// with it can still win on id). `None` once no object left can.
    pub(crate) fn next(&mut self, kth: f64) -> Option<u64> {
        loop {
            let (cell, ring) = (self.index.cell, self.ring);
            let frontier = self
                .live
                .iter()
                .map(|&(_, c)| ring_bound(ring, cell, c))
                .fold(f64::INFINITY, f64::min);
            // Only a comparison that holds stops or withholds: with a
            // NaN distance (a non-finite focus) every object comes out,
            // as the scan would predict every object.
            if let Some(&(d, id)) = self.pending.last() {
                if d > kth {
                    self.pending.clear();
                } else if d.partial_cmp(&frontier) != Some(Greater) {
                    self.pending.pop();
                    return Some(id);
                }
            }
            self.live
                .retain(|&(_, c)| ring_bound(ring, cell, c).partial_cmp(&kth) != Some(Greater));
            if self.live.is_empty() {
                // Nothing left to probe: hand out what is pending.
                self.pending.last()?;
                continue;
            }
            self.probe_ring();
            self.ring += 1;
            self.pending.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        }
    }

    /// Probes the next ring of every live class, or enumerates the
    /// class's cells past the rings already probed.
    fn probe_ring(&mut self) {
        let (index, r) = (self.index, self.ring);
        let (hx, hy) = grid::cell_of(&self.focus, index.cell);
        let mut i = 0;
        while i < self.live.len() {
            let (shard, class) = self.live[i];
            let shard = index.shards[shard].read();
            let Some(cells) = shard.classes.get(&class) else {
                self.live.swap_remove(i);
                continue;
            };
            let mut visit = |head: u32| {
                self.visited += 1;
                let (t, focus) = (self.t, &self.focus);
                self.pending.extend(shard.chain(head).filter_map(|slot| {
                    let e = &slot.envelope;
                    covers(e, t, index.horizon).then(|| (e.bbox.distance_to(focus), slot.id))
                }));
            };
            let side = 2 * u128::from(r) + 1;
            if class == SATURATED || side * side > cells.len() as u128 {
                let mut probed = 0;
                for (&(x, y), &head) in cells {
                    if x.abs_diff(hx).max(y.abs_diff(hy)) >= r {
                        probed += 1;
                        visit(head);
                    }
                }
                self.probed += probed;
                self.live.swap_remove(i);
                continue;
            }
            // The ring's four sides, each from a corner, or the focus
            // cell alone.
            let r = r as i64;
            let sides = (-r..r).flat_map(|d| [(d, -r), (r, d), (-d, r), (-r, -d)]);
            for (dx, dy) in sides.chain((r == 0).then_some((0, 0))) {
                let key = hx.checked_add(dx).zip(hy.checked_add(dy));
                if let Some(&head) = key.and_then(|key| cells.get(&key)) {
                    visit(head);
                }
            }
            self.probed += (8 * r).max(1) as u64;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PredictiveIndex {
        /// Installs one envelope directly (tests drive the index without a
        /// store around it).
        fn install(&self, shard: usize, id: u64, envelope: Option<Envelope>) {
            let mut index = self.shards[shard]
                .index
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            match envelope {
                Some(e) => index.insert(id, e, self.cell, self.horizon),
                None => index.remove(id, self.cell, self.horizon),
            }
        }
    }

    fn envelope(tc: Timestamp, min: (f64, f64), max: (f64, f64)) -> Envelope {
        Envelope {
            tc,
            bbox: BoundingBox {
                min: Point::new(min.0, min.1),
                max: Point::new(max.0, max.1),
            },
        }
    }

    #[test]
    fn slot_is_an_id_an_envelope_and_two_links() {
        assert_eq!(std::mem::size_of::<Slot>(), 56);
    }

    #[test]
    fn insert_remove_roundtrip_unlinks_the_cell() {
        let idx = PredictiveIndex::new(1, 8, 10.0);
        idx.install(0, 1, Some(envelope(0, (0.0, 0.0), (1.0, 1.0))));
        idx.install(0, 2, Some(envelope(0, (4.0, 4.0), (5.0, 5.0))));
        idx.install(0, 3, Some(envelope(0, (3.0, 3.0), (5.0, 5.0))));
        assert_eq!(idx.entry_count(), 3);
        // All three share one cell; the far members leave it.
        idx.install(0, 2, None);
        idx.install(0, 3, None);
        let query = BoundingBox {
            min: Point::new(3.0, 3.0),
            max: Point::new(9.0, 9.0),
        };
        let mut out = Vec::new();
        let (pruned, total) = idx.range_candidates(0, &query, 4, &mut out);
        assert_eq!(out, Vec::<u64>::new(), "the near member alone must prune");
        assert_eq!((pruned, total), (1, 1));
        // Vacated slots are reused before the array grows.
        idx.install(0, 4, Some(envelope(0, (4.0, 4.0), (5.0, 5.0))));
        idx.install(0, 1, Some(envelope(1, (40.0, 4.0), (41.0, 5.0))));
        let index = idx.shards[0].index.read().unwrap();
        assert_eq!((index.slots.len(), index.vacant.len()), (3, 1));
        assert_eq!(index.expiry.len(), 2, "the moved object's expiry moved");
    }

    #[test]
    fn time_validity_gates_candidates() {
        let idx = PredictiveIndex::new(1, 8, 10.0);
        idx.install(0, 7, Some(envelope(10, (0.0, 0.0), (1.0, 1.0))));
        let everywhere = BoundingBox {
            min: Point::new(-1e9, -1e9),
            max: Point::new(1e9, 1e9),
        };
        let mut out = Vec::new();
        // t <= tc: the object answers nothing; prunable.
        idx.range_candidates(0, &everywhere, 10, &mut out);
        assert!(out.is_empty());
        // Within horizon: envelope applies.
        idx.range_candidates(0, &everywhere, 15, &mut out);
        assert_eq!(out, vec![7]);
        out.clear();
        // Beyond horizon: unconditional candidate.
        idx.range_candidates(0, &everywhere, 19, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn probes_reach_cells_centred_past_the_query() {
        let idx = PredictiveIndex::new(1, 8, 10.0);
        // Far-off fillers: more cells per class than the queries below
        // probe, so both classes take the per-cell path.
        for i in 0..30u32 {
            let x = f64::from(i) * 10.0;
            idx.install(
                0,
                100 + u64::from(i),
                Some(envelope(0, (x, 5e3), (x + 1.0, 5e3))),
            );
            idx.install(
                0,
                200 + u64::from(i),
                Some(envelope(0, (x, 6e3), (x + 12.0, 6e3))),
            );
        }
        // Both centred in cell column 6, reaching left into column 5:
        // one of class 0, one of class 1 (reach 10).
        idx.install(0, 1, Some(envelope(0, (58.0, 0.0), (62.1, 1.0))));
        idx.install(0, 2, Some(envelope(0, (52.0, 0.0), (70.0, 1.0))));
        for (max_x, want) in [(59.0, vec![1, 2]), (52.0, vec![2])] {
            let query = BoundingBox {
                min: Point::new(40.0, 0.0),
                max: Point::new(max_x, 1.0),
            };
            let mut out = Vec::new();
            idx.range_candidates(0, &query, 4, &mut out);
            out.sort_unstable();
            assert_eq!(out, want, "query up to x = {max_x}");
        }
    }

    #[test]
    fn velocity_classes_split_cells() {
        let idx = PredictiveIndex::new(1, 8, 10.0);
        // Same centre cell, wildly different extents: distinct cells.
        idx.install(0, 1, Some(envelope(0, (4.0, 4.0), (5.0, 5.0))));
        idx.install(0, 2, Some(envelope(0, (-100.0, -100.0), (110.0, 110.0))));
        let sweep = idx.ring_sweep(&Point::new(4.5, 4.5), 4);
        assert_eq!(sweep.cells, 2, "fast mover must not share the slow cell");
    }

    /// A kNN over the sweep alone: each object's score is its envelope
    /// distance plus a fixed per-object excess, the collector the
    /// store's, so the answer must equal ranking every covering object.
    fn sweep_knn(
        idx: &PredictiveIndex,
        focus: &Point,
        t: Timestamp,
        k: usize,
        excess: &dyn Fn(u64) -> f64,
        envelopes: &HashMap<u64, Envelope>,
    ) -> Vec<(f64, u64)> {
        let mut hits: Vec<(f64, u64)> = Vec::new();
        let mut sweep = idx.ring_sweep(focus, t);
        loop {
            let kth = hits.get(k - 1).map_or(f64::INFINITY, |hit| hit.0);
            let Some(id) = sweep.next(kth) else { break };
            let s = envelopes[&id].bbox.distance_to(focus) + excess(id);
            let pos =
                hits.partition_point(|e| e.0.total_cmp(&s).then_with(|| e.1.cmp(&id)).is_lt());
            if pos < k && hits.iter().all(|e| e.1 != id) {
                hits.insert(pos, (s, id));
                hits.truncate(k);
            }
        }
        hits
    }

    #[test]
    fn ring_sweep_equals_brute_force() {
        use hpm_rand::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for case in 0..200u64 {
            let shards = 1 + (case % 3) as usize;
            let idx = PredictiveIndex::new(shards, 8, 10.0);
            let mut envelopes = HashMap::new();
            // Odd cases pack the objects into a few dozen cells, so a
            // class holds enough cells to be swept ring by ring.
            let w = [300.0, 30.0][case as usize % 2];
            let objects = rng.gen_range(0..60u64);
            for id in 0..objects {
                let (cx, cy) = (rng.gen_range(-w..w), rng.gen_range(-w..w));
                // Mostly small, some spanning many cells, a few
                // saturated (non-finite extent); a third not yet
                // covering the query time.
                let half = match rng.gen_range(0..10u32) {
                    0..=5 => rng.gen_range(0.0..6.0),
                    6..=8 => rng.gen_range(0.0..400.0),
                    _ => f64::INFINITY,
                };
                let e = envelope(
                    rng.gen_range(0..6u64),
                    (cx - half, cy - half),
                    (cx + half, cy + half),
                );
                idx.install(id as usize % shards, id, Some(e));
                envelopes.insert(id, e);
            }
            let excess = |id: u64| (id.wrapping_mul(0x9E37_79B9) % 17) as f64;
            let t = 4;
            for focus in [
                Point::new(rng.gen_range(-w..w), rng.gen_range(-w..w)),
                Point::new(1e7, -3e6),
            ] {
                for k in [1, 3, 10, 100] {
                    let mut brute: Vec<(f64, u64)> = envelopes
                        .iter()
                        .filter(|(_, e)| covers(e, t, 8))
                        .map(|(&id, e)| (e.bbox.distance_to(&focus) + excess(id), id))
                        .collect();
                    brute.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    brute.truncate(k);
                    let got = sweep_knn(&idx, &focus, t, k, &excess, &envelopes);
                    assert_eq!(got, brute, "case {case}, focus {focus:?}, k {k}");
                }
            }
        }
    }

    #[test]
    fn a_flush_waits_for_the_flush_that_took_the_dirty_set() {
        let idx = PredictiveIndex::new(1, 8, 10.0);
        idx.mark_dirty(0, 5);
        let (entered, refitting) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                idx.flush_shard(0, |_| {
                    entered.send(()).unwrap();
                    // Only widens the window a flush that does not wait
                    // would return in; behind the gate the outcome does
                    // not depend on it.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    Some(envelope(0, (0.0, 0.0), (1.0, 1.0)))
                })
            });
            refitting.recv().unwrap();
            // The set is taken; this flush has nothing to refit, but a
            // query behind it must see the install in flight.
            assert!(!idx.flush_shard(0, |_| None));
            assert_eq!(idx.entry_count(), 1);
        });
    }

    #[test]
    fn dirty_set_flushes_each_object_once() {
        let idx = PredictiveIndex::new(2, 8, 10.0);
        idx.mark_dirty(0, 5);
        idx.mark_dirty(0, 5);
        idx.mark_dirty(1, 6);
        assert_eq!(idx.dirty_count(), 2);
        let refits = Mutex::new(Vec::new());
        assert!(idx.flush_shard(0, |id| {
            refits.lock().unwrap().push(id);
            Some(envelope(0, (0.0, 0.0), (1.0, 1.0)))
        }));
        assert_eq!(
            *refits.lock().unwrap(),
            vec![5],
            "duplicate marks collapse to one refit"
        );
        assert!(!idx.flush_shard(0, |_| None), "clean shard flushes no-op");
        assert!(idx.flush_shard(1, |id| {
            assert_eq!(id, 6);
            None
        }));
        assert_eq!(idx.entry_count(), 1, "refit returning None uninstalls");
        assert_eq!(idx.dirty_count(), 0);
    }
}
