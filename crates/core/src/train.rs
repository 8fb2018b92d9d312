//! The training pipeline: one trainer, seeded from a history or
//! folded forward over its deltas.
//!
//! [`TrainerState`] is the §III–§IV pipeline as long-lived state:
//! per-offset clustering states
//! ([`IncrementalDbscan`](hpm_clustering::IncrementalDbscan)), the visit
//! sequences and persistent support counts ([`SupportCounts`]).
//! [`seed`](TrainerState::seed) derives all of it from a complete
//! history — that is the batch pipeline, and
//! [`HybridPredictor::build`] is exactly "seed a trainer, derive,
//! assemble". A trainer that is kept afterwards remembers where its
//! last pass stopped and folds only the samples reported since then
//! into the same structures.
//!
//! The fold's stages mirror the seeding pipeline one-to-one so callers
//! can time them individually:
//!
//! 1. [`stage_decompose`](TrainerState::stage_decompose) — the
//!    [`DecomposeCursor`] yields the samples appended since the last
//!    pass, already placed as `(sub, offset, point)` (§III).
//! 2. [`stage_cluster`](TrainerState::stage_cluster) — each sample is
//!    inserted into its offset's density structure; safe insertions
//!    become region visits, anything structural reports
//!    [`DriftKind`] and the caller falls back to a re-seed.
//! 3. [`stage_mine`](TrainerState::stage_mine) — new visits extend
//!    their sub-trajectory's sequence, support counts absorb the
//!    tails, and the full pattern list is re-derived from counts.
//! 4. [`HybridPredictor::apply_update`] — the derived regions +
//!    pattern table replace the live ones: confidences are patched
//!    into the index image when the rule list and key vocabulary did
//!    not move, otherwise the image is rebuilt from the table.
//!
//! The state is *derived*: [`seed`](TrainerState::seed) re-derives all
//! of it from a history, and a state seeded from a history equals one
//! folded up to it. So nothing persists it — an object restored from a
//! snapshot has no trainer, and its next retrain seeds one. Every verb
//! that reads samples (`seed`, `stage_decompose`) takes any
//! [`History`] — a raw `Trajectory` or the store's compressed
//! `ChunkedHistory` — through one entry point.
//!
//! **Equivalence guarantee**: after a successful incremental pass the
//! resulting predictor answers every query exactly like
//! `HybridPredictor::build` — a fresh seed — over the full history
//! would: same regions, same patterns (ids included), same ranked
//! answers. Drift is detected conservatively, so the guarantee holds
//! *because* every case that could perturb a fresh seed's output falls
//! back to one (property-tested in `tests/train_props.rs`).

use crate::HybridPredictor;
use hpm_clustering::{DriftKind, InsertOutcome};
use hpm_geo::mem::{heap_bytes, vec_cap_bytes};
use hpm_geo::MemUse;
use hpm_patterns::{
    cluster_offsets, region_set, DiscoveryParams, MiningParams, OffsetClusters, PatternTable,
    RegionId, RegionSet, SupportCounts,
};
use hpm_trajectory::{DecomposeCursor, DeltaSample, History, TimeOffset};

/// One region visit produced by the clustering stage: sub-trajectory
/// `sub` passed through region `region` at time offset `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewVisit {
    /// Sub-trajectory index (cursor numbering).
    pub sub: usize,
    /// The frequent region visited.
    pub region: RegionId,
    /// Its time offset.
    pub offset: TimeOffset,
}

/// Persistent incremental-training state of one object: the cursor
/// into its history plus per-offset density structures and support
/// counts, all grown in lock-step with the trajectory.
#[derive(Debug, Clone)]
pub struct TrainerState {
    cursor: DecomposeCursor,
    /// One clustering state per time offset (`Gₜ` of §III), the region
    /// id of each offset's first cluster — frozen until the next seed:
    /// the safe insertion path never creates, merges, or renumbers
    /// clusters — and the per-sub-trajectory visit sequences.
    clusters: OffsetClusters,
    counts: SupportCounts,
}

impl TrainerState {
    /// Derives a trainer from the full history — the batch pipeline,
    /// taken on first training, after structure drift, and by the first
    /// retrain after a restart (a recovered object carries no trainer).
    /// The samples are streamed, so a compressed history decodes on the
    /// fly; the cursor is caught up to the end of `hist`.
    ///
    /// # Panics
    /// Panics when `discovery.period == 0` or `mining` is inconsistent.
    pub fn seed(hist: &impl History, discovery: &DiscoveryParams, mining: &MiningParams) -> Self {
        let mut counts = SupportCounts::new(*mining);
        let clusters = cluster_offsets(hist, discovery);
        counts.rebuild(&clusters.visits);
        let mut cursor = DecomposeCursor::new(discovery.period);
        cursor.catch_up(hist);
        TrainerState {
            cursor,
            clusters,
            counts,
        }
    }

    /// Samples of the history already folded into this state.
    #[inline]
    pub fn consumed(&self) -> usize {
        self.cursor.consumed()
    }

    /// Stage 1 — §III decomposition delta: the samples appended to
    /// `hist` since the last pass (only those are streamed), placed
    /// into `(sub, offset)` slots.
    ///
    /// # Panics
    /// Panics when `hist` shrank below the consumed watermark (the
    /// caller must [`seed`](Self::seed) a fresh state instead).
    pub fn stage_decompose(&mut self, hist: &impl History) -> Vec<DeltaSample> {
        self.cursor.advance(hist)
    }

    /// Stage 2 — incremental region discovery: inserts each delta
    /// sample into its offset's density structure. Safe insertions
    /// that land in a cluster become [`NewVisit`]s; any structural
    /// change aborts with the observed [`DriftKind`], poisoning the
    /// state — the caller must fall back to a full rebuild and
    /// [`seed`](Self::seed) a fresh one.
    pub fn stage_cluster(&mut self, samples: &[DeltaSample]) -> Result<Vec<NewVisit>, DriftKind> {
        let mut visits = Vec::new();
        for s in samples {
            let t = s.offset as usize;
            match self.clusters.offsets[t].insert(s.point) {
                InsertOutcome::Noise => {}
                InsertOutcome::Member(c) => visits.push(NewVisit {
                    sub: s.sub,
                    region: RegionId(self.clusters.first_ids[t] + c),
                    offset: s.offset,
                }),
                InsertOutcome::Drift(kind) => return Err(kind),
            }
        }
        Ok(visits)
    }

    /// Stage 3 — incremental mining: extends the visited
    /// sub-trajectories' sequences, folds the new tails into the
    /// support counts, and derives the full canonical pattern list
    /// (identical to what a fresh seed over the whole history derives).
    pub fn stage_mine(&mut self, visits: &[NewVisit]) -> PatternTable {
        for v in visits {
            let tx = self.clusters.visits.record(v.sub, v.region, v.offset);
            self.counts.record_tail(tx);
        }
        self.counts.derive()
    }

    /// The current frequent regions, read off the per-offset cluster
    /// summaries — bit-identical to what a fresh seed over the full
    /// consumed history produces.
    pub fn regions(&self) -> RegionSet {
        let regions = region_set(&self.clusters.offsets);
        let counts = (self.clusters.offsets.iter()).map(|s| s.cluster_count() as u32);
        debug_assert!(
            (counts.zip(&self.clusters.first_ids))
                .try_fold(0, |first, (n, &id)| (id == first).then_some(first + n))
                == Some(regions.len() as u32),
            "cluster structure changed without drift"
        );
        regions
    }
}

impl MemUse for TrainerState {
    fn mem_bytes(&self) -> usize {
        let clusters = &self.clusters;
        std::mem::size_of::<Self>()
            + heap_bytes(&clusters.offsets)
            + vec_cap_bytes(&clusters.first_ids)
            + heap_bytes(&clusters.visits)
            + heap_bytes(&self.counts)
    }
}

/// How [`HybridPredictor::apply_update`] absorbed a retrain result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateTier {
    /// Pattern keys unchanged: confidences patched into the index
    /// image in place.
    Confidences,
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
    ///   offset) → pattern ids and keys are unchanged, so only leaf
    ///   confidences can differ and they are patched in place
    ///   ([`UpdateTier::Confidences`]);
    /// * anything else — patterns added or removed, regions or
    ///   consequence offsets changed — → the predictor is re-assembled
    ///   with [`from_parts`](Self::from_parts)
    ///   ([`UpdateTier::Rebuild`]).
    ///
    /// # Panics
    /// Panics when a pattern fails validation against `regions` (only
    /// reachable on the rebuild outcome; a confidence patch reuses
    /// validated keys).
    pub fn apply_update(
        &self,
        regions: RegionSet,
        patterns: impl Into<PatternTable>,
    ) -> (HybridPredictor, UpdateTier) {
        let _span = hpm_obs::span!(crate::metrics::APPLY_UPDATE_SPAN);
        let patterns = patterns.into();
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
        let mut packed = self.packed.clone();
        packed.patch_confidences(|id| {
            let n = patterns.confidence(id as usize);
            (n != self.patterns.confidence(id as usize)).then_some(n)
        });
        let out = HybridPredictor {
            regions,
            patterns,
            packed,
            key_table: self.key_table.clone(),
            weight_table: self.weight_table.clone(),
            config: self.config,
            period: self.period,
        };
        (out, UpdateTier::Confidences)
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

    /// Asserts the full-equivalence contract between an incrementally
    /// maintained predictor and a batch build over the same history.
    fn assert_equivalent(incremental: &HybridPredictor, traj: &Trajectory) {
        let batch = HybridPredictor::build(traj, &discovery(), &mining(), *incremental.config());
        assert_eq!(incremental.regions().all(), batch.regions().all());
        assert_eq!(incremental.patterns(), batch.patterns());
        assert_eq!(incremental.packed_tpt(), batch.packed_tpt());
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

    /// Runs one incremental retrain pass, falling back to seed+rebuild
    /// on drift (the store's retrain logic, inlined).
    fn retrain(
        trainer: &mut TrainerState,
        predictor: &HybridPredictor,
        traj: &Trajectory,
    ) -> HybridPredictor {
        let delta = trainer.stage_decompose(traj);
        match trainer.stage_cluster(&delta) {
            Ok(visits) => {
                let patterns = trainer.stage_mine(&visits);
                predictor.apply_update(trainer.regions(), patterns).0
            }
            Err(_) => {
                *trainer = TrainerState::seed(traj, &discovery(), &mining());
                HybridPredictor::build(traj, &discovery(), &mining(), *predictor.config())
            }
        }
    }

    #[test]
    fn incremental_pass_tracks_batch_build() {
        let full = commuter_days(60);
        let mut cfg = commuter_config();
        cfg.k = 2;
        // Start from 40 days, feed the rest day by day.
        let warm = Trajectory::from_points(full.points()[..40 * COMMUTER_PERIOD as usize].to_vec());
        let mut trainer = TrainerState::seed(&warm, &discovery(), &mining());
        let mut predictor = HybridPredictor::build(&warm, &discovery(), &mining(), cfg);
        for day in 41..=60 {
            let traj =
                Trajectory::from_points(full.points()[..day * COMMUTER_PERIOD as usize].to_vec());
            predictor = retrain(&mut trainer, &predictor, &traj);
            assert_equivalent(&predictor, &traj);
        }
        assert!(!predictor.patterns().is_empty());
    }

    /// Regression: seeding on a history shorter than one period (or
    /// starting unaligned) must still produce one clustering state per
    /// offset. The sparse seeding it replaced left `offsets` and the
    /// region ids shorter than `period`, so the next delta pass
    /// panicked in `stage_cluster` (or silently clustered against the
    /// wrong offset's state).
    #[test]
    fn seed_on_sub_period_history_stays_aligned() {
        let full = commuter_days(41);
        let mut cfg = commuter_config();
        cfg.k = 2;
        // Seed mid-period: offsets >= 3 have no samples yet.
        let warm = Trajectory::from_points(full.points()[..3].to_vec());
        let mut trainer = TrainerState::seed(&warm, &discovery(), &mining());
        assert_eq!(trainer.regions().period(), COMMUTER_PERIOD);
        let mut predictor = HybridPredictor::build(&warm, &discovery(), &mining(), cfg);
        // Grow past the period boundary and beyond — previously an
        // index-out-of-bounds panic in stage_cluster.
        for len in [
            COMMUTER_PERIOD as usize + 2,
            10 * COMMUTER_PERIOD as usize,
            40 * COMMUTER_PERIOD as usize,
        ] {
            let traj = Trajectory::from_points(full.points()[..len].to_vec());
            predictor = retrain(&mut trainer, &predictor, &traj);
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
        let mut trainer = TrainerState::seed(&warm, &discovery(), &mining());
        let mut predictor =
            HybridPredictor::build(&warm, &discovery(), &mining(), commuter_config());
        for days in [2usize, 10, 40] {
            let traj = Trajectory::new(
                start,
                full.points()[2..days * COMMUTER_PERIOD as usize].to_vec(),
            );
            predictor = retrain(&mut trainer, &predictor, &traj);
            let batch = HybridPredictor::build(&traj, &discovery(), &mining(), *predictor.config());
            assert_eq!(predictor.regions().all(), batch.regions().all());
            assert_eq!(predictor.patterns(), batch.patterns());
        }
    }

    #[test]
    fn wild_day_drifts_and_reseeds() {
        let mut pts = commuter_days(40).points().to_vec();
        let warm = Trajectory::from_points(pts.clone());
        let trainer = TrainerState::seed(&warm, &discovery(), &mining());
        let predictor = HybridPredictor::build(&warm, &discovery(), &mining(), commuter_config());
        // A brand-new dense hotspot must eventually register as drift
        // (promotion/new-cluster), never silently change structure.
        for _ in 0..4 {
            for t in 0..COMMUTER_PERIOD {
                pts.push(Point::new(400.0 + t as f64 * 0.1, 400.0));
            }
        }
        let traj = Trajectory::from_points(pts);
        let mut drifted = trainer.clone();
        let delta = drifted.stage_decompose(&traj);
        assert!(drifted.stage_cluster(&delta).is_err(), "expected drift");
        // Recovery: seed + batch build is again equivalent going
        // forward.
        let mut drifted = TrainerState::seed(&traj, &discovery(), &mining());
        assert_eq!(drifted.consumed(), traj.len());
        let rebuilt = HybridPredictor::build(&traj, &discovery(), &mining(), *predictor.config());
        let (next, tier) = rebuilt.apply_update(drifted.regions(), drifted.stage_mine(&[]));
        assert_eq!(tier, UpdateTier::Confidences);
        assert_eq!(next.patterns(), rebuilt.patterns());
    }

    #[test]
    fn apply_update_same_inputs_is_identity_tier() {
        let traj = commuter_days(30);
        let p = HybridPredictor::build(&traj, &discovery(), &mining(), commuter_config());
        let (q, tier) = p.apply_update(p.regions().clone(), p.patterns().to_vec());
        assert_eq!(tier, UpdateTier::Confidences);
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
        assert_eq!(got.packed_tpt(), fresh.packed_tpt());
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
        assert_eq!(q.packed_tpt(), full.packed_tpt());
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
        let trainer = TrainerState::seed(&traj, &wider, &mining());
        // Different eps can change the region vocabulary; force the
        // mismatch by dropping a region from the trainer's view.
        let shrunk = RegionSet::new(
            trainer.regions().all()[..p.regions().len() - 1].to_vec(),
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
