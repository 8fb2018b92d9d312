//! The Hybrid Prediction Model itself (§VI): pattern store + TPT +
//! motion-function fallback behind one `predict` call.
//!
//! A predictor holds exactly one index — the packed TPT image — and
//! that image is a pure function of `(regions, patterns)`:
//! however a predictor came to hold a pattern list (batch build,
//! incremental retrain, reopened store), equal inputs give equal
//! images.

use crate::scratch::PredictScratch;
use crate::train::TrainerState;
use crate::{
    bqp, fqp, HpmConfig, Prediction, PredictionSource, PredictiveQuery, RankedAnswer, Uncertainty,
    WeightTable, TPT_FANOUT,
};
use hpm_geo::{BoundingBox, Point};
use hpm_motion::{LinearMotion, MotionModel, Rmf};
use hpm_patterns::{DiscoveryParams, MiningParams, PatternTable, RegionId, RegionSet};
use hpm_tpt::{KeyTable, LeafKeys, PackedTpt, TptView};
use hpm_trajectory::{TimeOffset, Timestamp, Trajectory};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::ops::Range;

/// A built Hybrid Prediction Model: discovered frequent regions, mined
/// trajectory patterns, their TPT index, and the query processors.
///
/// Each rule is held once: as a row of `patterns`, what a query is
/// matched against (its key, §V.A, read from the row as a [`LeafKeys`]
/// source), scored and answered from, its confidence included. The
/// rows are stored in key order and are `packed`'s leaf level: leaf `j`
/// is rows `[j·fill, (j+1)·fill)`.
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    pub(crate) regions: RegionSet,
    pub(crate) patterns: PatternTable,
    pub(crate) key_table: KeyTable,
    /// The index: the arena-packed TPT image of the patterns' keys,
    /// bulk-loaded over the rows, its leaves, and never mutated.
    pub(crate) packed: PackedTpt,
    /// Precomputed Eq. 1 weight rows for every premise length among
    /// `patterns` (keyed to `config.weight_fn`).
    pub(crate) weight_table: WeightTable,
    pub(crate) config: HpmConfig,
    pub(crate) period: u32,
}

/// Whether bit `i` is set in `words`.
#[inline(always)]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

impl LeafKeys for &HybridPredictor {
    /// The query as rows are tested against it: the id run of the
    /// regions at its consequence offsets, from the first to the last
    /// whose time-id bit it sets; its consequence words when it leaves
    /// a time id between those unset (the run then also covers that
    /// offset's regions); and its premise words.
    type Query<'q> = (Range<u32>, Option<&'q [u64]>, &'q [u64]);

    fn shape(&self) -> (usize, usize, usize) {
        let (rows, keys) = (self.patterns.len(), &self.key_table);
        (rows, keys.consequence_count(), keys.region_count())
    }

    fn resolve<'q>(&self, consequence: &'q [u64], premise: &'q [u64]) -> Self::Query<'q> {
        let set = |w: &u64| *w != 0;
        let (Some(lo), Some(hi)) = (
            consequence.iter().position(set),
            consequence.iter().rposition(set),
        ) else {
            return (0..0, None, premise);
        };
        let first = lo * 64 + consequence[lo].trailing_zeros() as usize;
        let last = hi * 64 + 63 - consequence[hi].leading_zeros() as usize;
        let offsets = self.key_table.consequence_offsets();
        let ids = self.regions.id_range(offsets[first]..offsets[last] + 1);
        let ones: u32 = consequence.iter().map(|w| w.count_ones()).sum();
        let gaps = (ones as usize != last - first + 1).then_some(consequence);
        (ids, gaps, premise)
    }

    /// Row `p`'s key without its words — the bits `or_into` sets:
    /// the consequence region lies in the query's run (and, across a
    /// gap, its time-id bit is set), and some premise region's bit is
    /// set in the query's premise. Only the row's consequence and
    /// premise ids are read.
    #[inline]
    fn intersects(&self, p: u32, (ids, gaps, premise): &Self::Query<'_>) -> bool {
        let (p, c) = (p as usize, self.patterns.consequence(p as usize));
        ids.contains(&c.0)
            && gaps.is_none_or(|consequence| bit(consequence, self.time_id(c)))
            && (self.patterns.premise(p).iter()).any(|r| bit(premise, r.index()))
    }

    fn or_into(&self, p: u32, consequence: &mut [u64], premise: &mut [u64]) {
        let p = p as usize;
        for r in self.patterns.premise(p) {
            premise[r.index() / 64] |= 1 << (r.index() % 64);
        }
        let t = self.time_id(self.patterns.consequence(p));
        consequence[t / 64] |= 1 << (t % 64);
    }
}

impl hpm_geo::MemUse for HybridPredictor {
    /// Everything the trained index keeps resident: regions, the
    /// pattern table, the key table, the packed search image and the
    /// weight table. (The per-thread [`PredictScratch`] is
    /// thread-local, not per-predictor, and is not charged here.)
    fn mem_bytes(&self) -> usize {
        use hpm_geo::mem::heap_bytes;
        std::mem::size_of::<Self>()
            + heap_bytes(&self.regions)
            + heap_bytes(&self.patterns)
            + heap_bytes(&self.key_table)
            + heap_bytes(&self.packed)
            + heap_bytes(&self.weight_table)
    }
}

impl HybridPredictor {
    /// Runs the full offline pipeline over a movement history:
    /// periodic decomposition → DBSCAN frequent regions → pattern
    /// mining → TPT bulk load. It is [`TrainerState::retrain`] with no
    /// trainer and no live predictor — the path a store's first
    /// training takes — and the seeded trainer is dropped once the
    /// predictor is assembled.
    pub fn build(
        history: &Trajectory,
        discovery: &DiscoveryParams,
        mining: &MiningParams,
        config: HpmConfig,
    ) -> Self {
        let mut slot: Option<TrainerState> = None;
        TrainerState::retrain(&mut slot, None, history, discovery, mining, config).0
    }

    /// Assembles a predictor from already-discovered regions and
    /// patterns (custom pipelines, persisted pattern sets) — a
    /// [`PatternTable`] (what [`mine`](hpm_patterns::mine) returns) or
    /// anything that converts into one, such as a `Vec` of rules. The
    /// rows are stored in [key order](PatternTable::into_key_order),
    /// whatever order they come in, so pattern ids, the image and every
    /// answer are a function of the rule set alone.
    ///
    /// # Panics
    /// Panics when `config` is inconsistent or any pattern fails
    /// [`PatternTable::validate`] against `regions`.
    pub fn from_parts(
        regions: RegionSet,
        patterns: impl Into<PatternTable>,
        config: HpmConfig,
    ) -> Self {
        config.validate();
        let patterns = patterns.into();
        if let Err(e) = patterns.validate(&regions) {
            panic!("{e}");
        }
        let patterns = patterns.into_key_order(&regions);
        let key_table = KeyTable::build(&regions, patterns.consequences().iter().copied());
        let weight_table = WeightTable::build(config.weight_fn, patterns.max_premise_len());
        let mut predictor = HybridPredictor {
            period: regions.period(),
            regions,
            patterns,
            key_table,
            packed: PackedTpt::default(),
            weight_table,
            config,
        };
        // The rows are the leaves (§V.B): each row's key — its premise's
        // region bits and its consequence offset's time-id bit — is
        // read once, to pack the level above them.
        predictor.packed = PackedTpt::bulk_load(TPT_FANOUT, &predictor);
        predictor
    }

    /// Returns the same pattern store under a different query-time
    /// configuration — `k`, thresholds, weight function, and matching
    /// margin are all query-time knobs, so sweeps over them need no
    /// re-discovery or re-mining. A new `weight_fn` rebuilds the
    /// weight table it is keyed to.
    ///
    /// # Panics
    /// Panics when `config` is inconsistent.
    pub fn with_config(mut self, config: HpmConfig) -> Self {
        config.validate();
        if config.weight_fn != self.config.weight_fn {
            self.weight_table =
                WeightTable::build(config.weight_fn, self.patterns.max_premise_len());
        }
        self.config = config;
        self
    }

    /// The discovered frequent regions.
    #[inline]
    pub fn regions(&self) -> &RegionSet {
        &self.regions
    }

    /// The indexed trajectory patterns, in key order; row `i` is
    /// pattern id `i`.
    #[inline]
    pub fn patterns(&self) -> &PatternTable {
        &self.patterns
    }

    /// The pattern index: the arena-packed TPT image queries run
    /// against, reading its leaf keys from this predictor's rows.
    #[inline]
    pub fn packed_tpt(&self) -> TptView<'_, &Self> {
        self.packed.with_leaves(self)
    }

    /// The key tables (region + consequence).
    #[inline]
    pub fn key_table(&self) -> &KeyTable {
        &self.key_table
    }

    /// The consequence time id of region `c`, a rule's consequence.
    fn time_id(&self, c: RegionId) -> usize {
        let offset = self.regions.get(c).offset;
        (self.key_table.time_id(offset)).expect("a consequence offset has a time id")
    }

    /// The configuration in use.
    #[inline]
    pub fn config(&self) -> &HpmConfig {
        &self.config
    }

    /// The period `T` the patterns were discovered with.
    #[inline]
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Answers a predictive query (§VI): FQP for prediction lengths
    /// below the distant-time threshold `d`, BQP at or beyond it, and
    /// the motion function whenever no pattern qualifies.
    ///
    /// # Panics
    /// Panics when `query.query_time <= query.current_time` or
    /// `query.recent` is empty.
    pub fn predict(&self, query: &PredictiveQuery<'_>) -> Prediction {
        thread_local! {
            static SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::new());
        }
        let mut out = Prediction::default();
        SCRATCH.with(|scratch| {
            self.predict_with(query, &mut scratch.borrow_mut(), &mut out);
        });
        out
    }

    /// [`predict`](Self::predict) into caller-owned scratch and output
    /// — the allocation-free hot path: after one warmup query has grown
    /// the scratch buffers, the FQP/BQP pattern paths perform zero heap
    /// allocations (the motion-function fallback still allocates inside
    /// its least-squares fit; it is only taken when no pattern
    /// qualifies). `out` is fully overwritten.
    ///
    /// # Panics
    /// Panics when `query.query_time <= query.current_time` or
    /// `query.recent` is empty.
    pub fn predict_with(
        &self,
        query: &PredictiveQuery<'_>,
        scratch: &mut PredictScratch,
        out: &mut Prediction,
    ) {
        assert!(!query.recent.is_empty(), "query needs recent movements");
        let _span = hpm_obs::span!(crate::metrics::PREDICT_SPAN);
        hpm_obs::counter!(crate::metrics::PREDICT_CALLS).add(1);
        let length = query.prediction_length();
        let PredictScratch { recent_ids, search } = scratch;
        self.recent_regions_into(query.recent, query.current_time, recent_ids);
        let found = if length < self.config.distant_threshold {
            hpm_obs::counter!(crate::metrics::FQP_DISPATCH).add(1);
            fqp::run(self, recent_ids, query, search, out)
                .then_some(PredictionSource::ForwardPatterns)
        } else {
            hpm_obs::counter!(crate::metrics::BQP_DISPATCH).add(1);
            bqp::run(self, recent_ids, query, search, out)
                .then_some(PredictionSource::BackwardPatterns)
        };
        match found {
            Some(source) => out.source = source,
            None => {
                hpm_obs::counter!(crate::metrics::RMF_FALLBACK).add(1);
                self.motion_fallback(query, out);
            }
        }
    }

    /// The frequent regions the object's recent movements fall in,
    /// deduplicated and in region-id order — the query premise of
    /// §V.C.
    pub fn recent_regions(&self, recent: &[Point], current_time: Timestamp) -> Vec<RegionId> {
        let mut ids = Vec::new();
        self.recent_regions_into(recent, current_time, &mut ids);
        ids
    }

    /// [`recent_regions`](Self::recent_regions) into a reusable buffer.
    pub fn recent_regions_into(
        &self,
        recent: &[Point],
        current_time: Timestamp,
        out: &mut Vec<RegionId>,
    ) {
        let n = recent.len();
        out.clear();
        out.extend(recent.iter().enumerate().filter_map(|(i, p)| {
            let back = (n - 1 - i) as Timestamp;
            let ts = current_time.checked_sub(back)?;
            let offset = (ts % self.period as Timestamp) as TimeOffset;
            self.regions.region_at(offset, p, self.config.match_margin)
        }));
        out.sort_unstable();
        out.dedup();
    }

    /// Motion-function answer (Algorithm 2/3 fallback): RMF over the
    /// recent window, degrading to a linear fit and finally to the last
    /// known position when the window is too short to fit anything.
    ///
    /// The answer carries a residual-calibrated error ellipse
    /// ([`Uncertainty::ellipse`]) sized from the one-step-ahead replay
    /// residuals of the recent window and widened per rollout step; a
    /// frozen answer (nothing fits) is a certain point claim.
    fn motion_fallback(&self, query: &PredictiveQuery<'_>, out: &mut Prediction) {
        let steps = query.prediction_length();
        let (location, uncertainty) = match self.fitted_motion(query.recent) {
            Some(m) => {
                let location = m.predict(steps);
                let sigma = self.fallback_residual_sigma(query.recent);
                (location, Uncertainty::ellipse(location, sigma, steps))
            }
            None => {
                let last = *query.recent.last().expect("non-empty recent");
                (last, Uncertainty::point_claim(last))
            }
        };
        out.answers.clear();
        out.answers.push(RankedAnswer {
            location,
            score: 0.0,
            pattern: None,
            uncertainty,
        });
        out.source = PredictionSource::MotionFunction;
    }

    /// Per-axis RMS one-step-ahead residual of the fallback motion
    /// chain over `recent`: for every proper prefix that fits a model,
    /// the fitted model's 1-step prediction is replayed against the
    /// sample that actually followed. Zero (a certain claim) when no
    /// prefix fits — the window is too short to measure anything.
    ///
    /// This is the calibration source for the fallback error ellipse:
    /// [`Rmf`]/[`LinearMotion`] expose no residuals, so they are
    /// re-measured by prefix refits, which are deterministic in
    /// `recent` exactly like the fallback's own fit.
    pub fn fallback_residual_sigma(&self, recent: &[Point]) -> Point {
        let mut sum = Point::ORIGIN;
        let mut n = 0u32;
        for t in 1..recent.len() {
            let Some(m) = self.fitted_motion(&recent[..t]) else {
                continue;
            };
            let err = recent[t] - m.predict(1);
            sum.x += err.x * err.x;
            sum.y += err.y * err.y;
            n += 1;
        }
        if n == 0 {
            Point::ORIGIN
        } else {
            Point::new((sum.x / f64::from(n)).sqrt(), (sum.y / f64::from(n)).sqrt())
        }
    }

    /// The motion model [`motion_fallback`](Self::motion_fallback) (and
    /// therefore [`predict`](Self::predict), whenever no pattern
    /// qualifies) answers from: RMF, degrading to a linear fit. `None`
    /// when the window is too short to fit either — the fallback then
    /// freezes at the last known position.
    ///
    /// Fitting is deterministic in `recent`, so a model fitted once at
    /// report time answers exactly like the per-query fit.
    fn fitted_motion(&self, recent: &[Point]) -> Option<FittedMotion> {
        Rmf::fit(recent, self.config.rmf_retrospect)
            .map(FittedMotion::Rmf)
            .or_else(|| LinearMotion::fit(recent).map(FittedMotion::Linear))
    }

    /// Bounding box of every frequent region's full extent: every
    /// location the **pattern** paths (FQP/BQP) can answer with — a
    /// region centroid — and the whole uncertainty region such an
    /// answer can claim, since pattern answers carry the supporting
    /// consequence region's bbox. `None` when no regions were
    /// discovered (an untrained or pattern-free predictor always
    /// answers from the motion function).
    ///
    /// Together with [`fallback_envelope`](Self::fallback_envelope)
    /// this bounds every possible [`predict`](Self::predict) answer,
    /// which is what lets `hpm-objectstore`'s predictive index prune
    /// objects without re-predicting them.
    pub fn region_envelope(&self) -> Option<BoundingBox> {
        let mut all = self.regions.all().iter();
        let first = all.next()?;
        let mut bb = first.bbox;
        for r in all {
            bb = bb.union(&r.bbox);
        }
        Some(bb)
    }

    /// Bounding box of the motion-function fallback's answers for every
    /// prediction length `1..=horizon` over this recent window —
    /// exactly the locations [`predict`](Self::predict) returns when no
    /// pattern qualifies, for query times up to `horizon` steps past
    /// `current_time`.
    ///
    /// The box is computed by fitting the fallback's motion-model chain
    /// once (deterministic, so identical to the per-query fit) and
    /// rolling it forward once, up to `horizon` steps, expanding the
    /// box at each (a rollout that freezes stops early: every later
    /// length predicts its last position); RMF rollouts are recursive,
    /// so no closed-form bound exists and beyond-`horizon` query times
    /// are **not** covered — an index built on this envelope must treat
    /// them as unprunable.
    ///
    /// # Panics
    /// Panics when `recent` is empty or `horizon == 0`.
    pub fn fallback_envelope(&self, recent: &[Point], horizon: u32) -> BoundingBox {
        assert!(horizon >= 1, "horizon must be at least 1");
        let last = *recent.last().expect("non-empty recent");
        let Some(model) = self.fitted_motion(recent) else {
            return BoundingBox::from_point(last);
        };
        let mut bb: Option<BoundingBox> = None;
        model.rollout(horizon, |p| match &mut bb {
            Some(bb) => bb.expand(p),
            None => bb = Some(BoundingBox::from_point(p)),
        });
        bb.expect("a rollout of at least one step")
    }
}

/// A fitted fallback motion model (the RMF-else-linear chain of
/// [`HybridPredictor::motion_fallback`]).
enum FittedMotion {
    Rmf(Rmf),
    Linear(LinearMotion),
}

impl FittedMotion {
    fn predict(&self, steps: u32) -> Point {
        match self {
            FittedMotion::Rmf(m) => m.predict(steps),
            FittedMotion::Linear(m) => m.predict(steps),
        }
    }

    /// Hands `each` the predictions for `1..=horizon` steps in order,
    /// rolling an RMF forward once; an RMF that diverges stops after
    /// the step where it does, and every later prediction repeats the
    /// last one handed out.
    fn rollout(&self, horizon: u32, each: impl FnMut(Point)) {
        match self {
            FittedMotion::Rmf(m) => m.rollout(horizon, each),
            FittedMotion::Linear(m) => (1..=horizon).map(|s| m.predict(s)).for_each(each),
        }
    }
}

/// Ranks pattern candidates by score (descending; equal scores by the
/// rule — premise length, premise ids, consequence id, the order
/// `SupportCounts::derive` emits rules in — then by pattern id) and
/// materialises consequence-centre answers for the top `k` *distinct
/// consequence regions*. Shared by FQP and BQP.
///
/// Many patterns can share one consequence (Table III's duplicate
/// keys); returning the same centre `k` times would waste the caller's
/// answer budget, so each region appears once, represented by its
/// best-scored supporting pattern.
pub(crate) fn rank_answers_into(
    predictor: &HybridPredictor,
    scored: &mut [(u32, f64)],
    k: usize,
    seen: &mut Vec<RegionId>,
    out: &mut Vec<RankedAnswer>,
) {
    let _span = hpm_obs::span!(crate::metrics::RANK_SPAN);
    // Eq. 2 and Eq. 5 add and multiply non-negative terms (confidences
    // are in (0, 1]), and non-negative floats order like their bit
    // patterns: one integer key sorts exactly as the float comparison
    // would, at a fraction of the cost.
    debug_assert!(
        scored.iter().all(|&(_, s)| s >= 0.0),
        "scores are non-negative"
    );
    scored.sort_unstable_by_key(|&(id, s)| (Reverse(s.to_bits()), id));
    seen.clear();
    out.clear();
    // Within a run of equal scores, answers go in the order of their
    // rules — premise length, premise ids, consequence id — each the
    // first, by rule, of the run's candidates whose consequence no
    // answer has yet: rows are read for the runs an answer comes from
    // only.
    let cons = |id: u32| predictor.patterns.consequence(id as usize);
    let rule = |id: u32| {
        let premise = predictor.patterns.premise(id as usize);
        (premise.len(), premise, cons(id))
    };
    let by_rule = |a: &&(u32, f64), b: &&(u32, f64)| rule(a.0).cmp(&rule(b.0));
    'runs: for run in scored.chunk_by(|a, b| a.1.to_bits() == b.1.to_bits()) {
        loop {
            let fresh = |c: &&(u32, f64)| !seen.contains(&cons(c.0));
            let Some(&(pattern, score)) = run.iter().filter(fresh).min_by(by_rule) else {
                break;
            };
            let consequence = cons(pattern);
            seen.push(consequence);
            let region = predictor.regions.get(consequence);
            out.push(RankedAnswer {
                location: region.centroid,
                score,
                pattern: Some(pattern),
                // Mass is normalised over the emitted set below, once
                // the total of the surviving scores is known.
                uncertainty: Uncertainty {
                    region: region.bbox,
                    mass: 0.0,
                },
            });
            if out.len() == k {
                break 'runs;
            }
        }
    }
    // Normalise the ranked scores into probability masses: each
    // answer's share of the emitted total (uniform when all scores
    // are zero). Pure arithmetic over `out` — the hot path stays
    // allocation-free.
    let total: f64 = out.iter().map(|a| a.score).sum();
    let n = out.len();
    for a in out.iter_mut() {
        a.uncertainty.mass = if total > 0.0 {
            a.score / total
        } else {
            1.0 / n as f64
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{commuter_predictor, COMMUTER_PERIOD};

    #[test]
    fn build_pipeline_produces_patterns() {
        let p = commuter_predictor();
        assert!(!p.patterns().is_empty());
        assert!(!p.regions().is_empty());
        assert_eq!(p.packed_tpt().len(), p.patterns().len());
        assert_eq!(p.period(), COMMUTER_PERIOD);
    }

    #[test]
    fn near_query_uses_forward_patterns() {
        let p = commuter_predictor();
        // The object is at "home" (offset 0) and "road" (offset 1) of
        // day 50; ask about offset 2 (length 1 < d = 3 -> FQP).
        let recent = [Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
        let day = 50 * COMMUTER_PERIOD as Timestamp;
        let q = PredictiveQuery {
            recent: &recent,
            current_time: day + 1,
            query_time: day + 2,
        };
        let pred = p.predict(&q);
        assert_eq!(pred.source, PredictionSource::ForwardPatterns);
        // Offset 2 is "work" at x = 100: the answer must be its centre.
        assert!(
            pred.best().distance(&Point::new(100.0, 0.0)) < 2.0,
            "predicted {}",
            pred.best()
        );
    }

    #[test]
    fn distant_query_uses_backward_patterns() {
        let p = commuter_predictor();
        let recent = [Point::new(0.0, 0.0)];
        let day = 50 * COMMUTER_PERIOD as Timestamp;
        // Distant threshold in the fixture config is 2.
        let q = PredictiveQuery {
            recent: &recent,
            current_time: day,
            query_time: day + 3,
        };
        let pred = p.predict(&q);
        assert_eq!(pred.source, PredictionSource::BackwardPatterns);
    }

    #[test]
    fn unknown_movements_fall_back_to_motion() {
        let p = commuter_predictor();
        // Recent movements nowhere near any frequent region, at offsets
        // with no matching premise -> no pattern qualifies for FQP.
        let recent = [Point::new(900.0, 900.0), Point::new(905.0, 900.0)];
        let day = 50 * COMMUTER_PERIOD as Timestamp;
        let q = PredictiveQuery {
            recent: &recent,
            current_time: day + 1,
            query_time: day + 2,
        };
        let pred = p.predict(&q);
        assert_eq!(pred.source, PredictionSource::MotionFunction);
        assert!(pred.best().is_finite());
        assert_eq!(pred.answers[0].pattern, None);
    }

    #[test]
    fn recent_regions_dedupes_and_sorts() {
        let p = commuter_predictor();
        // Samples at offsets 0 and 1 near home and road.
        let recent = [Point::new(0.1, 0.0), Point::new(50.1, 0.0)];
        let day = 10 * COMMUTER_PERIOD as Timestamp;
        let ids = p.recent_regions(&recent, day + 1);
        assert!(!ids.is_empty());
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn top_k_returns_distinct_regions() {
        let mut cfg = crate::test_fixtures::commuter_config();
        cfg.k = 3;
        let p = crate::test_fixtures::commuter_predictor_with(cfg);
        // Query offset 3 splits between "pub" and "gym": two distinct
        // consequence regions exist there.
        let recent = [Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
        let day = 50 * COMMUTER_PERIOD as Timestamp;
        let q = PredictiveQuery {
            recent: &recent,
            current_time: day + 1,
            query_time: day + 3,
        };
        let pred = p.predict(&q);
        assert_eq!(pred.answers.len(), 2, "answers: {:?}", pred.answers);
        // Distinct locations, descending scores.
        assert_ne!(pred.answers[0].location, pred.answers[1].location);
        assert!(pred.answers[0].score >= pred.answers[1].score);
    }

    #[test]
    fn pattern_answers_carry_normalised_mass_and_region_extent() {
        let mut cfg = crate::test_fixtures::commuter_config();
        cfg.k = 3;
        let p = crate::test_fixtures::commuter_predictor_with(cfg);
        let recent = [Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
        let day = 50 * COMMUTER_PERIOD as Timestamp;
        let q = PredictiveQuery {
            recent: &recent,
            current_time: day + 1,
            query_time: day + 3,
        };
        let pred = p.predict(&q);
        assert!(pred.from_patterns());
        assert!(pred.answers.len() >= 2);
        let total: f64 = pred.answers.iter().map(|a| a.uncertainty.mass).sum();
        assert!((total - 1.0).abs() < 1e-12, "masses sum to {total}");
        for a in &pred.answers {
            // Each answer's region is its consequence region's bbox,
            // containing the centroid the point answer reports.
            assert!(a.uncertainty.region.contains(&a.location));
            assert!(a.uncertainty.mass > 0.0);
        }
        // Masses follow the ranking: best answer claims the most.
        assert!(pred.answers[0].uncertainty.mass >= pred.answers[1].uncertainty.mass);
    }

    #[test]
    fn fallback_answer_carries_residual_ellipse() {
        let p = commuter_predictor();
        // Noisy drift far from any pattern: the fit has residuals.
        let recent = [
            Point::new(900.0, 900.0),
            Point::new(905.0, 901.0),
            Point::new(909.0, 899.5),
            Point::new(915.0, 900.5),
        ];
        let day = 50 * COMMUTER_PERIOD as Timestamp;
        let near = p.predict(&PredictiveQuery {
            recent: &recent,
            current_time: day + 1,
            query_time: day + 2,
        });
        assert_eq!(near.source, PredictionSource::MotionFunction);
        let sigma = p.fallback_residual_sigma(&recent);
        assert!(sigma.x > 0.0, "jittered drift must leave x residuals");
        let u = near.answers[0].uncertainty;
        assert!(u.region.contains(&near.best()));
        assert!(u.region.width() > 0.0);
        assert!(u.mass > 0.0 && u.mass <= 1.0);
        // Another step out widens the ellipse (√steps growth).
        let far = p.predict(&PredictiveQuery {
            recent: &recent,
            current_time: day + 1,
            query_time: day + 3,
        });
        if far.source == PredictionSource::MotionFunction {
            assert!(far.answers[0].uncertainty.region.width() > u.region.width());
        }
    }

    #[test]
    fn frozen_fallback_is_certain_point_claim() {
        let p = commuter_predictor();
        // A single sample fits nothing: the fallback freezes.
        let recent = [Point::new(900.0, 900.0)];
        let day = 50 * COMMUTER_PERIOD as Timestamp;
        let pred = p.predict(&PredictiveQuery {
            recent: &recent,
            current_time: day + 1,
            query_time: day + 2,
        });
        assert_eq!(pred.source, PredictionSource::MotionFunction);
        assert_eq!(
            pred.answers[0].uncertainty,
            Uncertainty::point_claim(recent[0])
        );
        assert_eq!(p.fallback_residual_sigma(&recent), Point::ORIGIN);
    }

    #[test]
    fn region_envelope_covers_every_centroid_and_bbox() {
        let p = commuter_predictor();
        let regions = p.region_envelope().unwrap();
        for r in p.regions().all() {
            assert!(regions.contains(&r.centroid));
            assert!(regions.union(&r.bbox) == regions);
        }
    }

    #[test]
    #[should_panic(expected = "recent movements")]
    fn empty_recent_rejected() {
        let p = commuter_predictor();
        let q = PredictiveQuery {
            recent: &[],
            current_time: 0,
            query_time: 1,
        };
        p.predict(&q);
    }
}
