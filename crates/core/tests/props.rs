//! Property-based invariants for similarity measures and the hybrid
//! predictor.

use hpm_check::prelude::*;
use hpm_core::{
    consequence_similarity, premise_similarity, premise_similarity_ids, premise_similarity_with,
    HpmConfig, HybridPredictor, PredictiveQuery, WeightFunction, TPT_FANOUT,
};
use hpm_geo::{BoundingBox, Point};
use hpm_patterns::{FrequentRegion, RegionId, RegionSet, TrajectoryPattern};
use hpm_rand::{Rng, SmallRng};
use hpm_tpt::{
    Bitmap, KeyTable, LeafEntries, LeafKeys, PackedTpt, PatternKey, SearchCursor, SearchStats,
    TptView,
};

const LEN: usize = 40;

fn arb_bits() -> Gen<Bitmap> {
    vec(int(0usize..LEN), 0..8).map(|ones| Bitmap::from_indices(LEN, &ones))
}

fn arb_wf() -> Gen<WeightFunction> {
    choice(vec![
        WeightFunction::Linear,
        WeightFunction::Quadratic,
        WeightFunction::Exponential,
        WeightFunction::Factorial,
    ])
}

/// A random but always-valid pattern world over `period` offsets with
/// one region per offset, plus patterns of 1–2 premise regions.
fn arb_world() -> Gen<(RegionSet, Vec<TrajectoryPattern>)> {
    tuple((int(4u32..12), int(1usize..30), int(0u64..500))).map(|(period, n_patterns, seed)| {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let regions: Vec<FrequentRegion> = (0..period)
            .map(|t| {
                let c = Point::new(t as f64 * 100.0, (next() % 100) as f64);
                FrequentRegion {
                    id: RegionId(t),
                    offset: t,
                    local_index: 0,
                    centroid: c,
                    bbox: BoundingBox {
                        min: c - Point::new(5.0, 5.0),
                        max: c + Point::new(5.0, 5.0),
                    },
                    support: 5 + (next() % 20) as u32,
                }
            })
            .collect();
        let set = RegionSet::new(regions, period);
        let patterns: Vec<TrajectoryPattern> = (0..n_patterns)
            .map(|_| {
                let a = (next() % (period as u64 - 1)) as u32;
                let two = a + 2 < period && next() % 2 == 0;
                let (premise, cons) = if two {
                    (vec![RegionId(a), RegionId(a + 1)], RegionId(a + 2))
                } else {
                    (vec![RegionId(a)], RegionId(a + 1))
                };
                TrajectoryPattern {
                    premise,
                    consequence: cons,
                    confidence: 0.05 + (next() % 95) as f64 / 100.0,
                    support: 1 + (next() % 30) as u32,
                }
            })
            .collect();
        (set, patterns)
    })
}

/// A region set with one to three regions per offset and rules whose
/// premises take one region from each of one to four ascending
/// offsets — ids and offsets disagree, so Property 1 carries weight.
fn arb_branching_world() -> Gen<(RegionSet, Vec<TrajectoryPattern>)> {
    tuple((
        vec(int(1u32..4), 3..10),
        vec(tuple((vec(int(0u64..1000), 2..6), int(0u64..1000))), 1..25),
    ))
    .map(|(per_offset, raw_rules)| {
        let period = per_offset.len() as u32;
        let mut regions = Vec::new();
        let mut first_id = Vec::new();
        for (t, &n) in per_offset.iter().enumerate() {
            first_id.push(regions.len() as u32);
            for j in 0..n {
                let c = Point::new(t as f64 * 100.0, f64::from(j) * 40.0);
                regions.push(FrequentRegion {
                    id: RegionId(regions.len() as u32),
                    offset: t as u32,
                    local_index: j,
                    centroid: c,
                    bbox: BoundingBox::from_point(c),
                    support: 5,
                });
            }
        }
        let patterns = raw_rules
            .into_iter()
            .map(|(picks, salt)| {
                // Distinct ascending offsets, one region at each; the
                // last is the consequence.
                let mut offsets: Vec<u32> = picks
                    .iter()
                    .map(|p| (p % u64::from(period)) as u32)
                    .collect();
                offsets.sort_unstable();
                offsets.dedup();
                if offsets.len() < 2 {
                    offsets = vec![0, period - 1];
                }
                let mut ids: Vec<RegionId> = offsets
                    .iter()
                    .map(|&t| {
                        let j = (salt.wrapping_mul(31) + u64::from(t))
                            % u64::from(per_offset[t as usize]);
                        RegionId(first_id[t as usize] + j as u32)
                    })
                    .collect();
                let consequence = ids.pop().expect("two or more offsets");
                TrajectoryPattern {
                    premise: ids,
                    consequence,
                    confidence: 0.05 + (salt % 95) as f64 / 100.0,
                    support: 1 + (salt % 30) as u32,
                }
            })
            .collect();
        (RegionSet::new(regions, period), patterns)
    })
}

/// A world past one signature word on both key parts: 66 to 139
/// offsets of one to three regions each, and at every offset after the
/// first one to three rules whose consequence sits there, each premise
/// taking one region from each of up to three earlier offsets.
fn arb_wide_world() -> Gen<(RegionSet, Vec<TrajectoryPattern>)> {
    tuple((int(66u32..140), int(0u64..10_000))).map(|(period, seed)| {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move |below: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(below)) as u32
        };
        let (mut regions, mut first_id, mut per_offset) = (Vec::new(), Vec::new(), Vec::new());
        for t in 0..period {
            let n = 1 + next(3);
            first_id.push(regions.len() as u32);
            per_offset.push(n);
            for j in 0..n {
                let c = Point::new(f64::from(t) * 100.0, f64::from(j) * 40.0);
                regions.push(FrequentRegion {
                    id: RegionId(regions.len() as u32),
                    offset: t,
                    local_index: j,
                    centroid: c,
                    bbox: BoundingBox::from_point(c),
                    support: 5,
                });
            }
        }
        let pick = |t: u32, next: &mut dyn FnMut(u32) -> u32| {
            RegionId(first_id[t as usize] + next(per_offset[t as usize]))
        };
        let mut patterns = Vec::new();
        for t in 1..period {
            for _ in 0..1 + next(3) {
                let mut offsets: Vec<u32> = (0..1 + next(3)).map(|_| next(t)).collect();
                offsets.sort_unstable();
                offsets.dedup();
                let salt = next(1000);
                patterns.push(TrajectoryPattern {
                    premise: offsets.iter().map(|&o| pick(o, &mut next)).collect(),
                    consequence: pick(t, &mut next),
                    confidence: 0.05 + f64::from(salt % 95) / 100.0,
                    support: 1 + salt % 30,
                });
            }
        }
        (RegionSet::new(regions, period), patterns)
    })
}

/// A recent window of 1–20 samples on an outward spiral that grows by
/// a factor of 1 to 10⁶ per sample: the fallback's fits of the steep
/// ones diverge, and overflow inside a 70-step horizon.
fn arb_recent() -> Gen<Vec<Point>> {
    let spiral = tuple((float(0.0..6.0), float(-3.0..3.0), float(-50.0..50.0)));
    tuple((spiral, int(1usize..21))).map(|((growth, turn, x0), n)| {
        (0..n)
            .map(|i| {
                let (r, a) = (10f64.powf(growth * i as f64), turn * i as f64);
                Point::new(x0 + r * a.cos(), r * a.sin())
            })
            .collect()
    })
}

props! {
    /// `from_parts` writes every rule's signature words straight into
    /// the index; past 64 regions and 64 consequence offsets — across
    /// the word boundary of both key parts — its image is the one a bulk
    /// load of the rules' `KeyTable`-encoded pattern keys, sorted, builds
    /// (the table's key order is the keys' `Ord`), every bottom internal
    /// entry is the OR of the row keys beneath it, each row reads back
    /// its encoded key, and a search reading the rows finds what one
    /// reading the encoded keys finds, in the same order with the same
    /// stats — for a row's own key, and for the union of two rows' keys,
    /// whose consequence bits may leave time ids unset between them.
    fn image_equals_a_load_of_encoded_keys(world in arb_wide_world()) {
        let (set, patterns) = world;
        let table = KeyTable::build(&set, patterns.iter().map(|p| p.consequence));
        require!(table.region_count() > 64 && table.consequence_count() > 64);
        let mut encoded: Vec<PatternKey> =
            patterns.iter().map(|p| table.encode_pattern(p, &set)).collect();
        encoded.sort();
        let keys: LeafEntries = encoded.iter().collect();
        let image = PackedTpt::bulk_load(TPT_FANOUT, &keys);
        let predictor = HybridPredictor::from_parts(set, patterns, HpmConfig::default());
        require_eq!(&*predictor.packed_tpt(), &image);
        predictor.packed_tpt().validate(TPT_FANOUT, &predictor).map_err(CaseError::Fail)?;
        let cw = table.consequence_count().div_ceil(64);
        let stride = cw + table.region_count().div_ceil(64);
        fn key(leaves: impl LeafKeys, p: u32, cw: usize, stride: usize) -> Vec<u64> {
            let mut words = vec![0u64; stride];
            let (consequence, premise) = words.split_at_mut(cw);
            leaves.or_into(p, consequence, premise);
            words
        }
        for p in 0..image.len() as u32 {
            require_eq!(key(&predictor, p, cw, stride), key(&keys, p, cw, stride), "row {p}");
        }
        require_eq!(predictor.key_table().consequence_offsets(), table.consequence_offsets());
        let union = |a: &Bitmap, b: &Bitmap| {
            Bitmap::from_indices(a.len(), &a.iter_ones().chain(b.iter_ones()).collect::<Vec<_>>())
        };
        fn search(tpt: TptView<'_, impl LeafKeys>, q: &PatternKey) -> (Vec<u32>, SearchStats) {
            let mut cursor = SearchCursor::new();
            (cursor.search_packed(tpt, q).to_vec(), cursor.stats())
        }
        for (i, own) in encoded.iter().enumerate().take(40) {
            let other = &encoded[(i * 7 + 3) % encoded.len()];
            let joined = PatternKey {
                consequence: union(&own.consequence, &other.consequence),
                premise: union(&own.premise, &other.premise),
            };
            for q in [own, &joined] {
                let from_rows = search(predictor.packed_tpt(), q);
                require_eq!(from_rows, search(image.with_leaves(&keys), q), "query {q:?}");
            }
        }
    }

    /// `fallback_envelope` rolls the fallback model out once; its box is
    /// bit for bit the one the per-length loop builds from the answer
    /// `predict` gives at every length — rollouts that turn non-finite
    /// and freeze, and windows too short to fit, included.
    fn fallback_envelope_equals_the_per_length_loop(
        recent in arb_recent(),
        retrospect in int(1usize..4),
        horizon in int(1u32..71),
    ) {
        let config = HpmConfig { rmf_retrospect: retrospect, ..HpmConfig::default() };
        let none: Vec<TrajectoryPattern> = Vec::new();
        let predictor = HybridPredictor::from_parts(RegionSet::new(Vec::new(), 8), none, config);
        let tc = 1_000;
        let at = |steps: u32| {
            let query = PredictiveQuery {
                recent: &recent,
                current_time: tc,
                query_time: tc + u64::from(steps),
            };
            predictor.predict(&query).answers[0].location
        };
        let mut expect = BoundingBox::from_point(at(1));
        for steps in 2..=horizon {
            expect.expand(at(steps));
        }
        let bits = |b: BoundingBox| [b.min.x, b.min.y, b.max.x, b.max.y].map(f64::to_bits);
        require_eq!(bits(predictor.fallback_envelope(&recent, horizon)), bits(expect));
    }

    /// Eq. 1 bounds and identities, for every weight function.
    fn premise_similarity_bounds(rk in arb_bits(), rkq in arb_bits(), wf in arb_wf()) {
        let s = premise_similarity(&rk, &rkq, wf);
        require!((0.0..=1.0 + 1e-12).contains(&s), "S_r = {s}");
        if !rk.is_zero() {
            require!((premise_similarity(&rk, &rk, wf) - 1.0).abs() < 1e-9);
        }
        require_eq!(premise_similarity(&rk, &Bitmap::zeros(LEN), wf), 0.0);
        // Full containment of rk in rkq maximises similarity.
        if rk.iter_ones().all(|i| rkq.get(i)) && !rk.is_zero() {
            require!((s - 1.0).abs() < 1e-9);
        }
    }

    /// Adding a matched bit to the query never decreases similarity.
    fn premise_similarity_monotone(
        rk in arb_bits(),
        rkq in arb_bits(),
        wf in arb_wf(),
        extra in int(0usize..LEN),
    ) {
        let base = premise_similarity(&rk, &rkq, wf);
        let mut grown = rkq.clone();
        grown.set(extra);
        require!(premise_similarity(&rk, &grown, wf) >= base - 1e-12);
    }

    /// Eq. 1 read off a pattern's premise ids is Eq. 1 over its pattern
    /// key, to the bit: Property 1 makes the i-th premise id the i-th
    /// one of the key. The key-based form is the oracle; the scorers
    /// hold no keys.
    fn id_similarity_equals_key_similarity(
        world in arb_branching_world(),
        recent in vec(int(0usize..1000), 0..8),
        wf in arb_wf(),
    ) {
        let (regions, patterns) = world;
        let table = KeyTable::build(&regions, patterns.iter().map(|p| p.consequence));
        let mut rkq = Bitmap::default();
        table.premise_key_into(recent.iter().map(|r| RegionId((r % regions.len()) as u32)), &mut rkq);
        for p in &patterns {
            require_eq!(p.validate(&regions), Ok(()));
            let weights = wf.weights(p.premise.len());
            let key = table.encode_pattern(p, &regions);
            let by_key = premise_similarity_with(&key.premise, &rkq, &weights);
            let by_ids = premise_similarity_ids(&p.premise, &rkq, &weights);
            require_eq!(by_ids.to_bits(), by_key.to_bits(), "pattern {p:?} against {rkq:?}");
        }
    }

    /// Eq. 3 bounds and symmetry around the query time.
    fn consequence_similarity_shape(
        tq in int(-1000i64..1000),
        dt in int(0i64..50),
        t_eps in int(1u32..8),
    ) {
        let s_plus = consequence_similarity(tq, tq + dt, t_eps);
        let s_minus = consequence_similarity(tq, tq - dt, t_eps);
        require!((s_plus - s_minus).abs() < 1e-12, "not symmetric");
        require!((0.0..=1.0).contains(&s_plus));
        require_eq!(consequence_similarity(tq, tq, t_eps), 1.0);
        // Monotone non-increasing in temporal distance.
        let further = consequence_similarity(tq, tq + dt + 1, t_eps);
        require!(further <= s_plus + 1e-12);
    }

    /// The predictor always answers: at least one finite answer, at
    /// most k, scores descending, pattern ids valid.
    fn predictor_total_and_sane(
        world in arb_world(),
        k in int(1usize..4),
        distant in int(1u32..6),
        recent_spot in int(0u32..12),
        length in int(1u64..10),
    ) {
        let (set, patterns) = world;
        let period = set.period();
        let predictor = HybridPredictor::from_parts(
            set,
            patterns,
            HpmConfig {
                k,
                distant_threshold: distant,
                time_relaxation: 1,
                match_margin: 1.0,
                rmf_retrospect: 2,
                ..HpmConfig::default()
            },
        );
        let spot = recent_spot % period;
        let p0 = predictor.regions().get(RegionId(spot)).centroid;
        let recent = [p0 - Point::new(1.0, 0.0), p0];
        let current_time = (10 * period + spot) as u64;
        let query = PredictiveQuery {
            recent: &recent,
            current_time,
            query_time: current_time + length,
        };
        let pred = predictor.predict(&query);
        require!(!pred.answers.is_empty());
        require!(pred.answers.len() <= k);
        require!(pred.answers.iter().all(|a| a.location.is_finite()));
        require!(pred.answers.windows(2).all(|w| w[0].score >= w[1].score));
        for a in &pred.answers {
            if let Some(pid) = a.pattern {
                let pattern = predictor.patterns().get(pid as usize);
                // The answer is that pattern's consequence centre.
                require_eq!(
                    a.location,
                    predictor.regions().get(pattern.consequence).centroid
                );
                // FQP answers must sit at the query's time offset.
                if pred.source == hpm_core::PredictionSource::ForwardPatterns {
                    let tq_off = (query.query_time % period as u64) as u32;
                    require_eq!(
                        pattern.consequence_offset(predictor.regions()),
                        tq_off
                    );
                }
            } else {
                require_eq!(pred.source, hpm_core::PredictionSource::MotionFunction);
            }
        }
    }

    /// The stored order is a function of the rule set alone: one rule
    /// set, given in derive order (premise length, premise ids,
    /// consequence id) and shuffled, builds equal tables, images and
    /// answers, pattern ids included.
    fn rule_order_is_a_function_of_the_rule_set(
        world in arb_branching_world(),
        shuffle in int(0u64..u64::MAX),
        k in int(1usize..4),
    ) {
        let (set, mut rules) = world;
        let rule = |p: &TrajectoryPattern| (p.premise.len(), p.premise.clone(), p.consequence);
        rules.sort_by_key(rule);
        rules.dedup_by_key(|p| rule(p));
        let mut shuffled = rules.clone();
        let mut rng = SmallRng::seed_from_u64(shuffle);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        let config = HpmConfig {
            k,
            distant_threshold: 2,
            time_relaxation: 1,
            match_margin: 1.0,
            rmf_retrospect: 2,
            ..HpmConfig::default()
        };
        let [a, b] = [rules, shuffled].map(|r| HybridPredictor::from_parts(set.clone(), r, config));
        require_eq!(a.patterns(), b.patterns());
        require_eq!(&*a.packed_tpt(), &*b.packed_tpt());
        a.packed_tpt().validate(TPT_FANOUT, &a).map_err(CaseError::Fail)?;
        for r in set.all() {
            let recent = [r.centroid];
            let current_time = u64::from(10 * set.period() + r.offset);
            for length in 1..=4 {
                let q = PredictiveQuery {
                    recent: &recent,
                    current_time,
                    query_time: current_time + length,
                };
                require_eq!(a.predict(&q), b.predict(&q), "query {q:?}");
            }
        }
    }

    /// Distinct consequence regions in the answer list (no duplicate
    /// locations wasting the k budget).
    fn answers_are_distinct_regions(world in arb_world(), spot in int(0u32..12)) {
        let (set, patterns) = world;
        let period = set.period();
        let predictor = HybridPredictor::from_parts(
            set,
            patterns,
            HpmConfig {
                k: 5,
                distant_threshold: 2,
                time_relaxation: 1,
                match_margin: 1.0,
                rmf_retrospect: 2,
                ..HpmConfig::default()
            },
        );
        let spot = spot % period;
        let p0 = predictor.regions().get(RegionId(spot)).centroid;
        let recent = [p0];
        let ct = (7 * period + spot) as u64;
        let pred = predictor.predict(&PredictiveQuery {
            recent: &recent,
            current_time: ct,
            query_time: ct + 3,
        });
        let mut locs: Vec<_> = pred
            .answers
            .iter()
            .filter(|a| a.pattern.is_some())
            .map(|a| (a.location.x.to_bits(), a.location.y.to_bits()))
            .collect();
        let before = locs.len();
        locs.sort_unstable();
        locs.dedup();
        require_eq!(locs.len(), before, "duplicate answer locations");
    }
}
