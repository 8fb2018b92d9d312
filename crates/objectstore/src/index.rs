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
//! Envelopes are bucketed by the grid cell of their centre **and a
//! velocity class** (the envelope's extent relative to the cell size —
//! objects that cover more ground per horizon step land in coarser
//! classes, the velocity-partitioning idea of Nguyen et al.'s
//! "Boosting Moving Object Indexing through Velocity Partitioning").
//! Fast movers therefore never inflate the union box of a
//! slow-neighbourhood bucket, and a whole bucket is pruned with one
//! box test. k-nearest queries sweep buckets in ascending
//! distance-to-focus order — an expanding ring — and stop as soon as
//! the next ring provably cannot beat the current k-th best distance.
//!
//! # Maintenance
//!
//! Mutations (`report*`, retrains, `remove`) only *mark the object
//! dirty* — an O(1) set insert on the ingest hot path. The envelope
//! refit (motion-model fit + rollout) is deferred to the next
//! fleet-wide query, which flushes dirty objects first; an object
//! reported a thousand times between queries is refitted once, not a
//! thousand times.
//!
//! [`HybridPredictor::predict`]: hpm_core::HybridPredictor::predict
//! [`HybridPredictor::region_envelope`]: hpm_core::HybridPredictor::region_envelope
//! [`Uncertainty::ellipse_half_axes`]: hpm_core::Uncertainty::ellipse_half_axes
//! [`HybridPredictor::fallback_envelope`]: hpm_core::HybridPredictor::fallback_envelope

use hpm_geo::{grid, BoundingBox, Point};
use hpm_trajectory::Timestamp;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Mutex, PoisonError, RwLock};

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
    /// Grid cell size of the envelope buckets, in map units. `0.0` =
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

/// Key of one envelope bucket: grid cell of the envelope centre plus
/// the envelope's velocity class (power-of-two extent-over-cell-size
/// bucket).
type BucketKey = (i64, i64, u8);

/// One object's index entry: where its predicted position can be, and
/// for how long that claim holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Envelope {
    /// The object's current time `tc` (timestamp of its last report);
    /// query times at or before it answer nothing for this object.
    pub tc: Timestamp,
    /// Last query time the envelope covers (`tc + horizon`); beyond
    /// it the object is an unconditional candidate.
    pub until: Timestamp,
    /// Box containing every answer `predict` can give for query times
    /// in `(tc, until]`.
    pub bbox: BoundingBox,
}

#[derive(Debug)]
struct Entry {
    envelope: Envelope,
    bucket: BucketKey,
}

/// A velocity-partitioned grid bucket: member ids plus the union box
/// of their envelopes (the one test that prunes them all).
#[derive(Debug)]
struct Bucket {
    bbox: BoundingBox,
    members: Vec<u64>,
}

/// The per-shard index proper. All lookups go through the shard's
/// `RwLock`, mirroring the store's shard-granular locking.
#[derive(Debug, Default)]
struct ShardIndex {
    entries: HashMap<u64, Entry>,
    buckets: HashMap<BucketKey, Bucket>,
    /// Bucket count per live velocity class. Range queries use it to
    /// enumerate only the grid cells a class's buckets can reach into
    /// the query — O(query area), not O(fleet) — falling back to full
    /// bucket iteration when the query is too large for that to win.
    classes: HashMap<u8, usize>,
    /// `until` → ids expiring at that time; a range scan below the
    /// query time enumerates exactly the beyond-horizon objects.
    expiry: BTreeMap<Timestamp, Vec<u64>>,
}

impl ShardIndex {
    fn insert(&mut self, id: u64, envelope: Envelope, cell: f64) {
        self.remove(id);
        let bucket = bucket_key(&envelope.bbox, cell);
        if !self.buckets.contains_key(&bucket) {
            *self.classes.entry(bucket.2).or_insert(0) += 1;
        }
        self.buckets
            .entry(bucket)
            .and_modify(|b| {
                b.bbox = b.bbox.union(&envelope.bbox);
                b.members.push(id);
            })
            .or_insert_with(|| Bucket {
                bbox: envelope.bbox,
                members: vec![id],
            });
        self.expiry.entry(envelope.until).or_default().push(id);
        self.entries.insert(id, Entry { envelope, bucket });
    }

    fn remove(&mut self, id: u64) {
        let Some(entry) = self.entries.remove(&id) else {
            return;
        };
        if let Some(b) = self.buckets.get_mut(&entry.bucket) {
            if let Some(pos) = b.members.iter().position(|&m| m == id) {
                b.members.swap_remove(pos);
            }
            if b.members.is_empty() {
                self.buckets.remove(&entry.bucket);
                if let Some(n) = self.classes.get_mut(&entry.bucket.2) {
                    *n -= 1;
                    if *n == 0 {
                        self.classes.remove(&entry.bucket.2);
                    }
                }
            } else {
                // Re-tighten the union box; a loose box would stay
                // sound but degrade pruning as members churn.
                let mut bbox: Option<BoundingBox> = None;
                for m in &b.members {
                    let e = &self.entries[m].envelope.bbox;
                    bbox = Some(bbox.map_or(*e, |bb| bb.union(e)));
                }
                b.bbox = bbox.expect("non-empty bucket");
            }
        }
        if let Some(ids) = self.expiry.get_mut(&entry.envelope.until) {
            ids.retain(|&m| m != id);
            if ids.is_empty() {
                self.expiry.remove(&entry.envelope.until);
            }
        }
    }

    /// Ids whose envelope no longer covers `t` (beyond-horizon):
    /// unconditional candidates.
    fn expired_into(&self, t: Timestamp, out: &mut Vec<u64>) {
        for ids in self.expiry.range(..t).map(|(_, ids)| ids) {
            out.extend_from_slice(ids);
        }
    }

    /// Approximate heap bytes (capacity-based for the hash maps and
    /// member vectors; the B-tree is estimated per entry since its
    /// node layout is not observable).
    fn mem_bytes(&self) -> usize {
        use hpm_geo::mem::{hashmap_bytes, vec_cap_bytes};
        let buckets_inner: usize = self
            .buckets
            .values()
            .map(|b| vec_cap_bytes(&b.members))
            .sum();
        let expiry: usize = self
            .expiry
            .values()
            .map(|ids| std::mem::size_of::<(Timestamp, Vec<u64>)>() + 16 + vec_cap_bytes(ids))
            .sum();
        hashmap_bytes(&self.entries)
            + hashmap_bytes(&self.buckets)
            + buckets_inner
            + hashmap_bytes(&self.classes)
            + expiry
    }
}

/// How far a class-`class` bucket's box can reach beyond its key
/// cell: envelope centres lie inside the cell and the class bounds
/// the extent by `cell · 2^class`, so half of that on each side.
fn class_reach(cell: f64, class: u8) -> f64 {
    if class == u8::MAX {
        // The saturated class: its extent bound does not hold, so its
        // reach is unbounded — the infinite span forces the
        // full-iteration fallback, never a missed bucket.
        return f64::INFINITY;
    }
    cell * f64::from(class as i32 - 1).exp2()
}

/// Inclusive cell-index span covering `[lo, hi]`.
fn cell_span(lo: f64, hi: f64, cell: f64) -> [i64; 2] {
    [grid::cell_index(lo, cell), grid::cell_index(hi, cell)]
}

/// Number of cells in an inclusive span, saturating (spans from
/// enormous or non-finite query boxes just force the fallback path).
fn span_len(span: [i64; 2]) -> u128 {
    span[1].saturating_sub(span[0]).max(0) as u128 + 1
}

/// The envelope's bucket: centre cell plus velocity class.
fn bucket_key(bbox: &BoundingBox, cell: f64) -> BucketKey {
    let (cx, cy) = grid::cell_of(&bbox.center(), cell);
    let extent = bbox.width().max(bbox.height());
    let class = if extent <= cell {
        0
    } else {
        // log2 of the extent-over-cell ratio, saturating: each class
        // doubles the envelope size the bucket admits.
        ((extent / cell).log2().ceil() as i64).clamp(1, u8::MAX as i64) as u8
    };
    (cx, cy, class)
}

/// The store-wide index: one [`ShardIndex`] per store shard, plus the
/// per-shard dirty sets mutations push into.
#[derive(Debug)]
pub(crate) struct PredictiveIndex {
    shards: Box<[ShardCell]>,
    /// Resolved prediction horizon (timestamps).
    pub(crate) horizon: u32,
    /// Resolved bucket cell size (map units).
    cell: f64,
}

#[derive(Debug, Default)]
struct ShardCell {
    dirty: Mutex<HashSet<u64>>,
    /// Serializes flushes of this shard. Without it two concurrent
    /// flushers can interleave as drain(A) → mutate+mark → drain(B) →
    /// install fresh(B) → install stale(A): a stale envelope installed
    /// *after* the mark that would have fixed it was consumed — an
    /// unsound entry with no dirty bit left. Under the gate any
    /// install stale w.r.t. a mutation implies that mutation's mark is
    /// still in `dirty`.
    flush_gate: Mutex<()>,
    index: RwLock<ShardIndex>,
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
        self.shards[shard]
            .dirty
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id);
    }

    /// Brings the shard's entries up to date: drains the dirty set and
    /// asks `refit` for each stale object's new envelope (`None` =
    /// object gone or history-less → entry removed). Returns whether
    /// any entry changed. Flushes of one shard are serialized (see
    /// [`ShardCell::flush_gate`]); `refit` is called with no index
    /// lock held, so it may freely take object locks.
    pub(crate) fn flush_shard(
        &self,
        shard: usize,
        mut refit: impl FnMut(u64) -> Option<Envelope>,
    ) -> bool {
        let cell = &self.shards[shard];
        let _gate = cell
            .flush_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let stale: Vec<u64> = {
            let mut dirty = cell.dirty.lock().unwrap_or_else(PoisonError::into_inner);
            if dirty.is_empty() {
                return false;
            }
            dirty.drain().collect()
        };
        for id in stale {
            let envelope = refit(id);
            let mut index = cell.index.write().unwrap_or_else(PoisonError::into_inner);
            match envelope {
                Some(e) => index.insert(id, e, self.cell),
                None => index.remove(id),
            }
        }
        true
    }

    /// Installs one envelope directly (tests drive the index without a
    /// store around it).
    #[cfg(test)]
    fn install(&self, shard: usize, id: u64, envelope: Option<Envelope>) {
        let mut index = self.shards[shard]
            .index
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        match envelope {
            Some(e) => index.insert(id, e, self.cell),
            None => index.remove(id),
        }
    }

    /// Approximate total bytes held by the index across every shard
    /// (structures + dirty sets), capacity-based.
    pub(crate) fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .shards
                .iter()
                .map(|s| {
                    let dirty = s.dirty.lock().unwrap_or_else(PoisonError::into_inner);
                    let dirty_bytes = dirty.capacity() * (std::mem::size_of::<u64>() + 1);
                    drop(dirty);
                    let index = s.index.read().unwrap_or_else(PoisonError::into_inner);
                    std::mem::size_of::<ShardCell>() + dirty_bytes + index.mem_bytes()
                })
                .sum::<usize>()
    }

    /// Indexed objects across all shards (the `index.entries` gauge).
    pub(crate) fn entry_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.index
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// Collects the shard's candidates for a range query at `t`:
    /// beyond-horizon ids plus members of buckets whose union box
    /// intersects `query` (member envelopes re-checked individually).
    /// Returns `(buckets_pruned, buckets_total)`.
    ///
    /// Bucket selection is sublinear when the query is small: a class
    /// `c` bucket's box lies within `cell · 2^(c-1)` of its key cell
    /// (envelope centres are in the cell, extents bounded by the
    /// class), so probing the cells of the query box expanded by that
    /// reach — per live class — finds every intersecting bucket by
    /// hash lookup. When the expanded query covers more cells than
    /// the shard has buckets, plain iteration is cheaper and exactly
    /// as correct.
    pub(crate) fn range_candidates(
        &self,
        shard: usize,
        query: &BoundingBox,
        t: Timestamp,
        out: &mut Vec<u64>,
    ) -> (u64, u64) {
        let index = self.shards[shard]
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        index.expired_into(t, out);
        let total = index.buckets.len() as u64;
        let mut examined = 0u64;
        let push_bucket = |bucket: &Bucket, out: &mut Vec<u64>| {
            for &id in &bucket.members {
                let e = &index.entries[&id].envelope;
                if e.tc < t && t <= e.until && e.bbox.intersects(query) {
                    out.push(id);
                }
            }
        };
        // Cell ranges per class, and their total probe count.
        let mut probes: Vec<(u8, [i64; 2], [i64; 2])> = Vec::new();
        let mut probe_cells: u128 = 0;
        for &class in index.classes.keys() {
            let reach = class_reach(self.cell, class);
            let xs = cell_span(query.min.x - reach, query.max.x + reach, self.cell);
            let ys = cell_span(query.min.y - reach, query.max.y + reach, self.cell);
            probe_cells = probe_cells.saturating_add(span_len(xs).saturating_mul(span_len(ys)));
            probes.push((class, xs, ys));
        }
        if probe_cells <= index.buckets.len() as u128 {
            for (class, xs, ys) in probes {
                for cx in xs[0]..=xs[1] {
                    for cy in ys[0]..=ys[1] {
                        if let Some(bucket) = index.buckets.get(&(cx, cy, class)) {
                            if bucket.bbox.intersects(query) {
                                examined += 1;
                                push_bucket(bucket, out);
                            }
                        }
                    }
                }
            }
        } else {
            for bucket in index.buckets.values() {
                if bucket.bbox.intersects(query) {
                    examined += 1;
                    push_bucket(bucket, out);
                }
            }
        }
        (total - examined, total)
    }

    /// Beyond-horizon ids of one shard (unconditional kNN candidates).
    pub(crate) fn expired_ids(&self, shard: usize, t: Timestamp, out: &mut Vec<u64>) {
        self.shards[shard]
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .expired_into(t, out);
    }

    /// Pushes `(min distance to focus, shard, bucket key)` for every
    /// bucket of the shard — the ring order of the kNN sweep. O(number
    /// of buckets), not objects.
    pub(crate) fn bucket_ring(
        &self,
        shard: usize,
        focus: &Point,
        out: &mut Vec<(f64, usize, BucketKey)>,
    ) {
        let index = self.shards[shard]
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        out.extend(
            index
                .buckets
                .iter()
                .map(|(key, b)| (b.bbox.distance_to(focus), shard, *key)),
        );
    }

    /// Members of one bucket valid at `t`, as `(id, min distance from
    /// focus to the member's envelope)` — the per-member lower bound
    /// the sweep compares against the current k-th best. Buckets are
    /// re-locked per ring step so predictions never run under an index
    /// lock.
    pub(crate) fn bucket_members(
        &self,
        shard: usize,
        key: BucketKey,
        t: Timestamp,
        focus: &Point,
        out: &mut Vec<(u64, f64)>,
    ) {
        let index = self.shards[shard]
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let Some(bucket) = index.buckets.get(&key) else {
            return;
        };
        for &id in &bucket.members {
            let e = &index.entries[&id].envelope;
            if e.tc < t && t <= e.until {
                out.push((id, e.bbox.distance_to(focus)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(tc: Timestamp, until: Timestamp, min: (f64, f64), max: (f64, f64)) -> Envelope {
        Envelope {
            tc,
            until,
            bbox: BoundingBox {
                min: Point::new(min.0, min.1),
                max: Point::new(max.0, max.1),
            },
        }
    }

    #[test]
    fn insert_remove_roundtrip_tightens_buckets() {
        let idx = PredictiveIndex::new(1, 8, 10.0);
        idx.install(0, 1, Some(envelope(0, 8, (0.0, 0.0), (1.0, 1.0))));
        idx.install(0, 2, Some(envelope(0, 8, (4.0, 4.0), (5.0, 5.0))));
        assert_eq!(idx.entry_count(), 2);
        // Both in one bucket; removing the far member re-tightens it.
        idx.install(0, 2, None);
        let query = BoundingBox {
            min: Point::new(3.0, 3.0),
            max: Point::new(9.0, 9.0),
        };
        let mut out = Vec::new();
        let (pruned, total) = idx.range_candidates(0, &query, 4, &mut out);
        assert_eq!(out, Vec::<u64>::new(), "tightened bucket box must prune");
        assert_eq!((pruned, total), (1, 1));
    }

    #[test]
    fn time_validity_gates_candidates() {
        let idx = PredictiveIndex::new(1, 8, 10.0);
        idx.install(0, 7, Some(envelope(10, 18, (0.0, 0.0), (1.0, 1.0))));
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
    fn probes_reach_buckets_centred_past_the_query() {
        let idx = PredictiveIndex::new(1, 8, 10.0);
        // Far-off fillers: more buckets than the queries below probe,
        // so they take the per-cell path.
        for i in 0..30u32 {
            let x = f64::from(i) * 10.0;
            idx.install(
                0,
                100 + u64::from(i),
                Some(envelope(0, 8, (x, 5e3), (x + 1.0, 5e3))),
            );
        }
        // Both centred in cell column 6, reaching left into column 5:
        // one of class 0, one of class 1 (reach 10).
        idx.install(0, 1, Some(envelope(0, 8, (58.0, 0.0), (62.1, 1.0))));
        idx.install(0, 2, Some(envelope(0, 8, (52.0, 0.0), (70.0, 1.0))));
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
    fn velocity_classes_split_buckets() {
        let idx = PredictiveIndex::new(1, 8, 10.0);
        // Same centre cell, wildly different extents: distinct buckets.
        idx.install(0, 1, Some(envelope(0, 8, (4.0, 4.0), (5.0, 5.0))));
        idx.install(0, 2, Some(envelope(0, 8, (-100.0, -100.0), (110.0, 110.0))));
        let mut ring = Vec::new();
        idx.bucket_ring(0, &Point::new(4.5, 4.5), &mut ring);
        assert_eq!(ring.len(), 2, "fast mover must not share the slow bucket");
    }

    #[test]
    fn dirty_set_flushes_each_object_once() {
        let idx = PredictiveIndex::new(2, 8, 10.0);
        idx.mark_dirty(0, 5);
        idx.mark_dirty(0, 5);
        idx.mark_dirty(1, 6);
        let mut refits = Vec::new();
        assert!(idx.flush_shard(0, |id| {
            refits.push(id);
            Some(envelope(0, 8, (0.0, 0.0), (1.0, 1.0)))
        }));
        assert_eq!(refits, vec![5], "duplicate marks collapse to one refit");
        assert!(!idx.flush_shard(0, |_| None), "clean shard flushes no-op");
        assert!(idx.flush_shard(1, |id| {
            assert_eq!(id, 6);
            None
        }));
        assert_eq!(idx.entry_count(), 1, "refit returning None uninstalls");
    }
}
