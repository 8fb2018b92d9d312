//! The training pipeline: one trainer, seeded from a history or
//! folded forward over its deltas, behind one verb.
//!
//! [`TrainerState`] is the §III–§IV pipeline as long-lived state, and
//! holds only what a fold writes to:
//!
//! * the per-offset clusterings ([`OffsetClusters`]: one
//!   [`IncrementalDbscan`](hpm_clustering::IncrementalDbscan) over every
//!   offset of the period — per offset its samples held once, point,
//!   `|N_Eps|` count and assignment, grouped by `Eps`-cell, and where
//!   its runs of one shared cell table (12 bytes per occupied cell) and
//!   of the region ids end — plus one parameter set and one running
//!   coordinate sum per region. A region's support and box are not
//!   copied here: they are the live predictor's, which a fold extends);
//! * the visit sequence of the open sub-trajectory only — samples
//!   arrive in time order, so a fold appends to nothing older, and the
//!   sequence is cleared when a sample opens the next sub-trajectory
//!   (the full [`VisitTable`](hpm_patterns::VisitTable) exists only
//!   while a seed counts it);
//! * the persistent support counts ([`SupportCounts`]: a prefix trie of
//!   12-byte nodes in derive order, a child found in its parent's run).
//!
//! [`TrainerState::retrain`] is the one way to train: given the trainer
//! slot, the live predictor and a history, it either **folds** the
//! samples reported since the last pass into the trainer or **seeds** a
//! new one from the whole history — the batch pipeline — and then
//! derives the pattern list and assembles the predictor.
//! [`HybridPredictor::build`] is that verb called with nothing.
//!
//! A pass runs three phases, each under its own span:
//!
//! 1. *discover* — a fold copies the live predictor's regions, streams
//!    the new samples, places each one (§III, [`Placement`]) and inserts
//!    it into its offset's density structure; a safe insertion that
//!    lands in a region extends that region's sum, support, box and
//!    centroid, is appended to the open visit sequence, and the support
//!    counts absorb the itemsets it ends; anything structural is drift
//!    and the pass seeds instead. A seed clusters every offset group in
//!    one sweep ([`cluster_offsets`]), which returns the regions, rebuilds
//!    the support counts from the visit table it returns and keeps that
//!    table's newest sequence open.
//! 2. *mine* — the full pattern list is derived from the counts.
//! 3. *tpt* — the derived regions + pattern table replace the live
//!    ones: confidences are patched into the index image when the rule
//!    list and key vocabulary did not move, otherwise the image is
//!    rebuilt from the table; with no live predictor, it is assembled
//!    from parts.
//!
//! The state is *derived*: a seed re-derives all of it from a history,
//! and a state seeded from a history equals one folded up to it. So
//! nothing persists it — an object restored from a snapshot has no
//! trainer, and its next retrain seeds one. The verb takes any
//! [`History`] — a raw `Trajectory` or the store's compressed
//! `ChunkedHistory`.
//!
//! **Equivalence guarantee**: after a fold the resulting predictor
//! answers every query exactly like `HybridPredictor::build` — a fresh
//! seed — over the full history would: same regions, same patterns (ids
//! included), same ranked answers. Drift is detected conservatively, so
//! the guarantee holds *because* every case that could perturb a fresh
//! seed's output falls back to one (property-tested in
//! `tests/train_props.rs`).

use crate::metrics::{RETRAIN_DISCOVER_SPAN, RETRAIN_MINE_SPAN, RETRAIN_TPT_SPAN};
use crate::{HpmConfig, HybridPredictor};
use hpm_clustering::DriftKind;
use hpm_geo::mem::vec_cap_bytes;
use hpm_geo::MemUse;
use hpm_patterns::{
    cluster_offsets, DiscoveryOutput, DiscoveryParams, MiningParams, OffsetClusters, PatternTable,
    RegionSet, SupportCounts, Visit,
};
use hpm_trajectory::{History, Placement};
use std::borrow::BorrowMut;
use std::cell::RefCell;

/// What one [`TrainerState::retrain`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainPass {
    /// Folded the samples reported since the last pass into the
    /// trainer.
    Folded,
    /// Seeded a trainer from the whole history: there was no trainer,
    /// no live predictor to update, or a live predictor whose regions
    /// the trainer did not number.
    Seeded,
    /// The fold hit structure drift, so a trainer was seeded instead.
    Drifted,
}

/// Persistent incremental-training state of one object: per-offset
/// density structures — one point per sample folded in, so they also
/// count the samples consumed — with each region's coordinate sum, the
/// open sub-trajectory's visits and support counts, all grown in
/// lock-step with the history.
#[derive(Debug, Clone)]
pub struct TrainerState {
    /// One clustering state per time offset (`Gₜ` of §III), region ids
    /// frozen until the next seed.
    clusters: OffsetClusters,
    /// The visit sequence so far of the sub-trajectory the last folded
    /// sample belongs to.
    open: Vec<Visit>,
    counts: SupportCounts,
}

impl TrainerState {
    /// Trains over `hist` — the one training verb. With a trainer in
    /// `slot` and a `live` predictor it folds the samples reported since
    /// the last pass into a copy of `live`'s regions; with either
    /// missing, when `live`'s regions are not numbered offset by offset
    /// as the trainer's are, or when the fold drifts, it seeds a trainer
    /// from all of `hist` into `slot`. It then derives the pattern list
    /// and returns the predictor — `live` updated when there is one (it
    /// keeps its own configuration), else assembled under `config` —
    /// with what the pass did.
    ///
    /// A trainer keeps only each region's coordinate sum: a fold reads
    /// every other part of a region — support, box, centroid — from
    /// `live`. So `live` must be the predictor the last pass over
    /// `slot` returned (or one with equal regions), as every caller
    /// passes it; one whose per-offset region counts differ is caught
    /// and seeded over, anything else yields regions that are not a
    /// seed's.
    ///
    /// The slot holds the trainer itself or any owner of one: a store
    /// holds it boxed, so each of its many empty slots — untrained
    /// objects, and those it keeps no trainer for — costs a pointer,
    /// and a held trainer stays in its box from one pass to the next.
    ///
    /// # Panics
    /// Panics when `discovery.period == 0`, `mining` or `config` is
    /// inconsistent, or `hist` holds fewer samples than the trainer
    /// already folded in (a caller that shrinks a history must empty
    /// `slot` first).
    pub fn retrain<S: BorrowMut<TrainerState> + From<TrainerState>>(
        slot: &mut Option<S>,
        live: Option<&HybridPredictor>,
        hist: &impl History,
        discovery: &DiscoveryParams,
        mining: &MiningParams,
        config: HpmConfig,
    ) -> (HybridPredictor, TrainPass) {
        let (pass, folded) = match (slot.as_mut().map(S::borrow_mut), live) {
            (Some(trainer), Some(live)) if trainer.clusters.numbers(live.regions()) => {
                let _s = hpm_obs::span!(RETRAIN_DISCOVER_SPAN);
                let mut regions = live.regions().clone();
                match trainer.fold(hist, &mut regions) {
                    Ok(()) => (TrainPass::Folded, Some(regions)),
                    Err(_) => (TrainPass::Drifted, None),
                }
            }
            _ => (TrainPass::Seeded, None),
        };
        let (trainer, regions) = match (slot, folded) {
            (Some(trainer), Some(regions)) => (trainer, regions),
            (slot, _) => {
                let _s = hpm_obs::span!(RETRAIN_DISCOVER_SPAN);
                let (trainer, regions) = Self::seed(hist, discovery, mining);
                (slot.insert(trainer.into()), regions)
            }
        };
        let trainer: &mut TrainerState = trainer.borrow_mut();
        let patterns = {
            let _s = hpm_obs::span!(RETRAIN_MINE_SPAN);
            trainer.counts.derive()
        };
        let _s = hpm_obs::span!(RETRAIN_TPT_SPAN);
        let predictor = match live {
            Some(live) => live.apply_update(regions, patterns).0,
            None => HybridPredictor::from_parts(regions, patterns, config),
        };
        (predictor, pass)
    }

    /// Derives a trainer from the full history — the batch pipeline —
    /// and returns it with the regions it numbered. The samples are
    /// streamed, so a compressed history decodes on the fly.
    fn seed(
        hist: &impl History,
        discovery: &DiscoveryParams,
        mining: &MiningParams,
    ) -> (Self, RegionSet) {
        let mut counts = SupportCounts::new(*mining);
        let (clusters, DiscoveryOutput { regions, visits }) = cluster_offsets(hist, discovery);
        counts.rebuild(&visits);
        let trainer = TrainerState {
            clusters,
            open: visits.into_last(),
            counts,
        };
        (trainer, regions)
    }

    /// Samples of the history already folded into this state.
    pub fn consumed(&self) -> usize {
        self.clusters.samples()
    }

    /// Folds the samples reported since the last pass in, in time
    /// order: each is placed, inserted into its offset's density
    /// structure, and — when the insertion is safe and lands in a
    /// region — folded into that region of `regions`, appended to the
    /// open visit sequence, whose new itemsets are counted on the spot.
    /// Structural change aborts with the observed drift, poisoning the
    /// state.
    fn fold(&mut self, hist: &impl History, regions: &mut RegionSet) -> Result<(), DriftKind> {
        // The neighbour list of the sample being inserted: one per
        // thread, like `predict`'s scratch, so no trainer carries one.
        thread_local! {
            static NEIGHBORS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
        }
        let consumed = self.consumed();
        assert!(hist.len() >= consumed, "history shrank");
        let place = Placement::new(hist.start(), self.clusters.period());
        NEIGHBORS.with_borrow_mut(|neighbors| {
            for (i, p) in (consumed..).zip(hist.iter_from(consumed)) {
                let t = place.place(i).1;
                // Offset 0 opens the next sub-trajectory.
                if t == 0 {
                    self.open.clear();
                }
                if let Some(region) = self.clusters.insert(t, p, regions, neighbors)? {
                    debug_assert!(self.open.last().is_none_or(|v| v.1 < t));
                    self.open.push((region, t));
                    self.counts.record_tail(&self.open);
                }
            }
            Ok(())
        })
    }

    /// Resident bytes by part — the clusterings, the open visit
    /// sequence, the support counts — each with its inline size; they
    /// sum to [`mem_bytes`](MemUse::mem_bytes).
    pub fn mem_shares(&self) -> [usize; 3] {
        [
            self.clusters.mem_bytes(),
            std::mem::size_of::<Vec<Visit>>() + vec_cap_bytes(&self.open),
            self.counts.mem_bytes(),
        ]
    }
}

impl MemUse for TrainerState {
    fn mem_bytes(&self) -> usize {
        self.mem_shares().iter().sum()
    }
}

/// How [`HybridPredictor::apply_update`] absorbed a retrain result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UpdateTier {
    /// Pattern keys unchanged: the index image is reused untouched
    /// (it holds no confidence; the scorers read `c` from the pattern
    /// table).
    ImageKept,
    /// Pattern set or key vocabulary changed: the index image was
    /// rebuilt from the pattern list (no re-discovery, no re-mining).
    Rebuild,
}

impl HybridPredictor {
    /// Applies a retrain result — fresh regions and the full derived
    /// pattern list — producing a predictor **equal** to
    /// [`from_parts`](Self::from_parts) over the same inputs, index
    /// image included:
    ///
    /// * same `(premise, consequence)` list over an unchanged key
    ///   vocabulary (region count, period, every consequence's time
    ///   offset) → pattern ids and keys are unchanged, so the image is
    ///   too and is reused as it is ([`UpdateTier::ImageKept`]);
    /// * anything else — patterns added or removed, regions or
    ///   consequence offsets changed — → the predictor is re-assembled
    ///   with [`from_parts`](Self::from_parts)
    ///   ([`UpdateTier::Rebuild`]).
    ///
    /// # Panics
    /// Panics when a pattern fails validation against `regions` (only
    /// reachable on the rebuild outcome; a kept image reuses validated
    /// keys).
    fn apply_update(
        &self,
        regions: RegionSet,
        patterns: impl Into<PatternTable>,
    ) -> (HybridPredictor, UpdateTier) {
        let _span = hpm_obs::span!(crate::metrics::APPLY_UPDATE_SPAN);
        // In the order `from_parts` stores, so the rule lists compare
        // row by row.
        let patterns = patterns.into().into_key_order(&regions);
        let same_keys = regions.len() == self.regions.len()
            && regions.period() == self.period
            && patterns.same_rules(&self.patterns)
            && patterns
                .consequences()
                .iter()
                .all(|&c| regions.get(c).offset == self.regions.get(c).offset);
        if !same_keys {
            let rebuilt = Self::from_parts(regions, patterns, self.config);
            return (rebuilt, UpdateTier::Rebuild);
        }
        let out = HybridPredictor {
            regions,
            patterns,
            packed: self.packed.clone(),
            key_table: self.key_table.clone(),
            weight_table: self.weight_table.clone(),
            config: self.config,
            period: self.period,
        };
        (out, UpdateTier::ImageKept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{commuter_config, commuter_days, COMMUTER_PERIOD};
    use crate::PredictiveQuery;
    use hpm_geo::Point;
    use hpm_trajectory::{Timestamp, Trajectory};

    fn discovery() -> DiscoveryParams {
        DiscoveryParams {
            period: COMMUTER_PERIOD,
            eps: 2.0,
            min_pts: 3,
        }
    }

    fn mining() -> MiningParams {
        MiningParams {
            min_support: 3,
            min_confidence: 0.2,
            max_premise_len: 2,
            max_premise_gap: 2,
            max_span: 3,
        }
    }

    /// One pass of the verb over `traj` with the fixture's parameters.
    fn retrain(
        slot: &mut Option<TrainerState>,
        live: Option<&HybridPredictor>,
        traj: &Trajectory,
    ) -> (HybridPredictor, TrainPass) {
        let mut cfg = commuter_config();
        cfg.k = 2;
        TrainerState::retrain(slot, live, traj, &discovery(), &mining(), cfg)
    }

    /// Asserts the full-equivalence contract between an incrementally
    /// maintained predictor and a batch build over the same history.
    fn assert_equivalent(incremental: &HybridPredictor, traj: &Trajectory) {
        let batch = HybridPredictor::build(traj, &discovery(), &mining(), *incremental.config());
        assert_eq!(incremental.regions().all(), batch.regions().all());
        assert_eq!(incremental.patterns(), batch.patterns());
        assert_eq!(*incremental.packed_tpt(), *batch.packed_tpt());
        let day =
            (traj.len() as Timestamp / COMMUTER_PERIOD as Timestamp) * COMMUTER_PERIOD as Timestamp;
        for (recent, len) in [
            (vec![Point::new(0.0, 0.0)], 1),
            (vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)], 1),
            (vec![Point::new(0.1, 0.0)], 3),
            (vec![Point::new(700.0, 700.0)], 2),
        ] {
            let q = PredictiveQuery {
                recent: &recent,
                current_time: day + recent.len() as Timestamp - 1,
                query_time: day + recent.len() as Timestamp - 1 + len,
            };
            assert_eq!(incremental.predict(&q), batch.predict(&q), "query {q:?}");
        }
    }

    #[test]
    fn incremental_pass_tracks_batch_build() {
        let full = commuter_days(60);
        // Start from 40 days, feed the rest day by day.
        let warm = Trajectory::from_points(full.points()[..40 * COMMUTER_PERIOD as usize].to_vec());
        let mut slot = None;
        let (mut predictor, pass) = retrain(&mut slot, None, &warm);
        assert_eq!(pass, TrainPass::Seeded);
        for day in 41..=60 {
            let traj =
                Trajectory::from_points(full.points()[..day * COMMUTER_PERIOD as usize].to_vec());
            let (next, pass) = retrain(&mut slot, Some(&predictor), &traj);
            assert_eq!(pass, TrainPass::Folded, "day {day}");
            predictor = next;
            assert_equivalent(&predictor, &traj);
        }
        assert!(!predictor.patterns().is_empty());
    }

    /// Regression: seeding on a history shorter than one period (or
    /// starting unaligned) must still produce one clustering state per
    /// offset. The sparse seeding it replaced left `offsets` and the
    /// region ids shorter than `period`, so the next fold panicked (or
    /// silently clustered against the wrong offset's state).
    #[test]
    fn seed_on_sub_period_history_stays_aligned() {
        let full = commuter_days(41);
        // Seed mid-period: offsets >= 3 have no samples yet.
        let warm = Trajectory::from_points(full.points()[..3].to_vec());
        let mut slot = None;
        let (mut predictor, _) = retrain(&mut slot, None, &warm);
        assert_eq!(predictor.regions().period(), COMMUTER_PERIOD);
        // Grow past the period boundary and beyond — previously an
        // index-out-of-bounds panic in the fold.
        for len in [
            COMMUTER_PERIOD as usize + 2,
            10 * COMMUTER_PERIOD as usize,
            40 * COMMUTER_PERIOD as usize,
        ] {
            let traj = Trajectory::from_points(full.points()[..len].to_vec());
            predictor = retrain(&mut slot, Some(&predictor), &traj).0;
            assert_equivalent(&predictor, &traj);
        }
        assert!(!predictor.patterns().is_empty());
    }

    /// Same hazard, unaligned flavour: a trajectory whose start
    /// timestamp is not a multiple of the period leaves early offsets
    /// uncovered; the seeded state must still index by absolute offset.
    #[test]
    fn seed_on_unaligned_history_stays_aligned() {
        let full = commuter_days(41);
        let start: Timestamp = 2; // offsets 0..2 of the first sub empty
        let warm = Trajectory::new(start, full.points()[2..COMMUTER_PERIOD as usize].to_vec());
        let mut slot = None;
        let (mut predictor, _) = retrain(&mut slot, None, &warm);
        for days in [2usize, 10, 40] {
            let traj = Trajectory::new(
                start,
                full.points()[2..days * COMMUTER_PERIOD as usize].to_vec(),
            );
            predictor = retrain(&mut slot, Some(&predictor), &traj).0;
            let batch = HybridPredictor::build(&traj, &discovery(), &mining(), *predictor.config());
            assert_eq!(predictor.regions().all(), batch.regions().all());
            assert_eq!(predictor.patterns(), batch.patterns());
        }
    }

    #[test]
    fn wild_day_drifts_and_reseeds() {
        let mut pts = commuter_days(40).points().to_vec();
        let mut slot = None;
        let (predictor, _) = retrain(&mut slot, None, &Trajectory::from_points(pts.clone()));
        // A brand-new dense hotspot must eventually register as drift
        // (promotion/new-cluster), never silently change structure.
        for _ in 0..4 {
            for t in 0..COMMUTER_PERIOD {
                pts.push(Point::new(400.0 + t as f64 * 0.1, 400.0));
            }
        }
        let traj = Trajectory::from_points(pts);
        let (next, pass) = retrain(&mut slot, Some(&predictor), &traj);
        assert_eq!(pass, TrainPass::Drifted);
        // The re-seeded trainer is caught up, and the predictor equals
        // a batch build going forward.
        assert_eq!(slot.as_ref().map(TrainerState::consumed), Some(traj.len()));
        assert_equivalent(&next, &traj);
        assert_eq!(retrain(&mut slot, Some(&next), &traj).1, TrainPass::Folded);
    }

    /// A trainer folds into the live predictor's regions, so a live
    /// predictor whose per-offset region counts are not the trainer's —
    /// one the trainer did not produce — gets a seeded pass, and the
    /// pass after it folds again.
    #[test]
    fn a_live_predictor_the_trainer_did_not_number_is_seeded_over() {
        let full = commuter_days(42);
        let days = |n: usize| {
            Trajectory::from_points(full.points()[..n * COMMUTER_PERIOD as usize].to_vec())
        };
        let mut slot = None;
        let (own, _) = retrain(&mut slot, None, &days(40));
        // A live predictor trained elsewhere: wide enough an `Eps` to
        // merge pub and gym, so offset 3 holds one region, not two.
        let wide = DiscoveryParams {
            eps: 150.0,
            ..discovery()
        };
        let (_, regions) = TrainerState::seed(&days(40), &wide, &mining());
        assert_eq!(regions.len() + 1, own.regions().len());
        let foreign = HybridPredictor::from_parts(regions, Vec::new(), commuter_config());
        let (next, pass) = retrain(&mut slot, Some(&foreign), &days(41));
        assert_eq!(pass, TrainPass::Seeded);
        assert_equivalent(&next, &days(41));
        let (last, pass) = retrain(&mut slot, Some(&next), &days(42));
        assert_eq!(pass, TrainPass::Folded);
        assert_equivalent(&last, &days(42));
    }

    /// Histories only grow: a fold over fewer samples than the trainer
    /// consumed is a caller bug, not a silent rewind.
    #[test]
    #[should_panic(expected = "history shrank")]
    fn a_fold_over_a_shrunk_history_panics() {
        let mut slot = None;
        let (live, _) = retrain(&mut slot, None, &commuter_days(10));
        retrain(&mut slot, Some(&live), &commuter_days(9));
    }

    /// A held trainer's header stays within 168 bytes (the heap block
    /// its slot's box points to), and its three parts are all of it,
    /// so `mem_shares` sums to `mem_bytes`.
    #[test]
    fn the_inline_trainer_is_its_three_parts_in_168_bytes() {
        use std::mem::size_of;
        let parts = size_of::<OffsetClusters>() + size_of::<Vec<Visit>>();
        assert_eq!(
            size_of::<TrainerState>(),
            parts + size_of::<SupportCounts>()
        );
        assert!(size_of::<Option<TrainerState>>() <= 168);
    }

    #[test]
    fn no_live_predictor_seeds_even_with_a_trainer() {
        let traj = commuter_days(30);
        let mut slot = None;
        retrain(&mut slot, None, &traj);
        let (p, pass) = retrain(&mut slot, None, &commuter_days(31));
        assert_eq!(pass, TrainPass::Seeded);
        assert_equivalent(&p, &commuter_days(31));
    }

    #[test]
    fn apply_update_same_inputs_is_identity_tier() {
        let traj = commuter_days(30);
        let p = HybridPredictor::build(&traj, &discovery(), &mining(), commuter_config());
        let (q, tier) = p.apply_update(p.regions().clone(), p.patterns().to_vec());
        assert_eq!(tier, UpdateTier::ImageKept);
        assert_eq!(q.patterns(), p.patterns());
    }

    /// Every derived field of `got` equals a fresh assembly of its own
    /// regions and patterns: index image, key table, and a weight
    /// table covering the widest premise.
    fn assert_equals_from_parts(got: &HybridPredictor) {
        let fresh = HybridPredictor::from_parts(
            got.regions().clone(),
            got.patterns().clone(),
            *got.config(),
        );
        assert_eq!(*got.packed_tpt(), *fresh.packed_tpt());
        assert_eq!(
            got.key_table.consequence_offsets(),
            fresh.key_table.consequence_offsets()
        );
        assert_eq!(got.weight_table.max_ones(), fresh.weight_table.max_ones());
    }

    #[test]
    fn apply_update_added_patterns_rebuild() {
        let traj = commuter_days(30);
        let full = HybridPredictor::build(&traj, &discovery(), &mining(), commuter_config());
        // Start from the single-region premises only; the update adds
        // the two-region ones, so ids shift and the weight table grows.
        let short: Vec<_> = full
            .patterns()
            .iter()
            .filter(|p| p.premise.len() == 1)
            .collect();
        assert!(!short.is_empty() && short.len() < full.patterns().len());
        let base = HybridPredictor::from_parts(full.regions().clone(), short, commuter_config());
        assert_eq!(base.weight_table.max_ones(), 1);
        let (q, tier) = base.apply_update(full.regions().clone(), full.patterns().to_vec());
        assert_eq!(tier, UpdateTier::Rebuild);
        assert_eq!(q.patterns(), full.patterns());
        assert_equals_from_parts(&q);
        assert_eq!(*q.packed_tpt(), *full.packed_tpt());
    }

    #[test]
    fn apply_update_removed_pattern_rebuilds() {
        let traj = commuter_days(30);
        let full = HybridPredictor::build(&traj, &discovery(), &mining(), commuter_config());
        // Drop one pattern from the middle: every later id shifts down.
        let mut fewer = full.patterns().to_vec();
        fewer.remove(fewer.len() / 2);
        let (q, tier) = full.apply_update(full.regions().clone(), fewer.clone());
        assert_eq!(tier, UpdateTier::Rebuild);
        assert_eq!(q.patterns(), fewer.as_slice());
        assert_eq!(q.packed_tpt().len(), fewer.len());
        assert_equals_from_parts(&q);
    }

    #[test]
    fn apply_update_vocabulary_growth_rebuilds() {
        let traj = commuter_days(30);
        let p = HybridPredictor::build(&traj, &discovery(), &mining(), commuter_config());
        let wider = DiscoveryParams {
            eps: 2.5,
            ..discovery()
        };
        let (_, regions) = TrainerState::seed(&traj, &wider, &mining());
        // Different eps can change the region vocabulary; force the
        // mismatch by dropping a region from the trainer's view.
        let shrunk = RegionSet::new(
            regions.all()[..p.regions().len() - 1].to_vec(),
            COMMUTER_PERIOD,
        );
        let keep: Vec<_> = p
            .patterns()
            .iter()
            .filter(|pat| {
                pat.consequence.index() < shrunk.len()
                    && pat.premise.iter().all(|r| r.index() < shrunk.len())
            })
            .collect();
        let (q, tier) = p.apply_update(shrunk.clone(), keep.clone());
        assert_eq!(tier, UpdateTier::Rebuild);
        assert_eq!(q.patterns(), keep.as_slice());
        assert_eq!(q.regions().len(), shrunk.len());
    }
}
