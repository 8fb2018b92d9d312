//! The periodic trajectory generator.
//!
//! Mirrors the paper's modified periodic data generator: each generated
//! sub-trajectory is, with probability `f` (`similarity_prob`),
//! *similar* to one of a small set of seed routes — the seed resampled
//! to `T` positions plus a rigid per-period offset and per-point
//! Gaussian jitter — and otherwise a patternless random wander across
//! the extent. Concatenating `num_subs` such periods yields the final
//! trajectory.

use hpm_geo::{resample_uniform, Point};
use hpm_rand::{NormalSampler, Rng, SmallRng};
use hpm_trajectory::Trajectory;

/// A seed route the object habitually follows, with a selection
/// weight. Weights need not sum to 1; they are normalised internally.
///
/// Branching behaviour (the paper's Fig. 3: Home→City→Work vs
/// Home→Mall→Beach) is modelled by archetypes sharing waypoint
/// prefixes.
#[derive(Debug, Clone)]
pub struct Archetype {
    /// Sparse waypoints; resampled to `T` positions per period.
    pub waypoints: Vec<Point>,
    /// Relative selection frequency among pattern-following periods.
    pub weight: f64,
}

impl Archetype {
    /// Convenience constructor.
    pub fn new(waypoints: Vec<Point>, weight: f64) -> Self {
        assert!(waypoints.len() >= 2, "an archetype needs >= 2 waypoints");
        assert!(weight > 0.0, "weight must be positive");
        Archetype { waypoints, weight }
    }
}

/// Knobs of the generator (defaults follow §VII: `T = 300`,
/// 200 sub-trajectories, extent `[0, 10000]²`).
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Positions per period (`T`).
    pub period: u32,
    /// Number of sub-trajectories (periods) to generate.
    pub num_subs: usize,
    /// Probability `f` that a period follows a seed route.
    pub similarity_prob: f64,
    /// Std-dev of iid per-point jitter around the route.
    pub point_noise: f64,
    /// Std-dev of the rigid per-period route offset (route variance
    /// between days).
    pub route_noise: f64,
    /// Data extent: coordinates clamped to `[0, extent]²`.
    pub extent: f64,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            period: 300,
            num_subs: 200,
            similarity_prob: 0.8,
            point_noise: 8.0,
            route_noise: 12.0,
            extent: 10_000.0,
            seed: 0xD1CE,
        }
    }
}

/// The generator: a set of archetype routes plus a config.
#[derive(Debug, Clone)]
pub struct PeriodicGenerator {
    config: GeneratorConfig,
    archetypes: Vec<Archetype>,
    /// Pre-resampled archetype routes (`period` points each).
    resampled: Vec<Vec<Point>>,
    cumulative_weights: Vec<f64>,
}

impl PeriodicGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics when `archetypes` is empty, `period == 0`,
    /// `num_subs == 0`, or `similarity_prob` is outside `[0, 1]`.
    pub fn new(config: GeneratorConfig, archetypes: Vec<Archetype>) -> Self {
        assert!(!archetypes.is_empty(), "need at least one archetype");
        assert!(config.period > 0, "period must be positive");
        assert!(config.num_subs > 0, "num_subs must be positive");
        assert!(
            (0.0..=1.0).contains(&config.similarity_prob),
            "similarity_prob must be in [0, 1]"
        );
        let resampled = archetypes
            .iter()
            .map(|a| {
                resample_uniform(&a.waypoints, config.period as usize).expect("non-empty archetype")
            })
            .collect();
        let mut acc = 0.0;
        let cumulative_weights = archetypes
            .iter()
            .map(|a| {
                acc += a.weight;
                acc
            })
            .collect();
        PeriodicGenerator {
            config,
            archetypes,
            resampled,
            cumulative_weights,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Adds independent Gaussian GPS sensor jitter of std-dev `sigma`
    /// on top of the scenario's intrinsic per-point noise.
    ///
    /// Both noises are iid per point, so they combine in quadrature:
    /// the effective std-dev becomes `sqrt(point_noise² + sigma²)`.
    ///
    /// # Panics
    /// Panics when `sigma` is negative or non-finite.
    #[must_use]
    pub fn with_gps_noise(mut self, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "gps noise must be finite and non-negative"
        );
        self.config.point_noise = self.config.point_noise.hypot(sigma);
        self
    }

    /// The archetype routes.
    pub fn archetypes(&self) -> &[Archetype] {
        &self.archetypes
    }

    /// Generates the full trajectory (`num_subs × period` samples,
    /// starting at timestamp 0).
    pub fn generate(&self) -> Trajectory {
        self.generate_subs(self.config.num_subs)
    }

    /// Generates a trajectory with an explicit number of periods
    /// (used by the sub-trajectory-count sweeps of Fig. 6/10).
    pub fn generate_subs(&self, num_subs: usize) -> Trajectory {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut normal = NormalSampler::new();
        let t = self.config.period as usize;
        let mut points = Vec::with_capacity(num_subs * t);
        for _ in 0..num_subs {
            if rng.gen_f64() < self.config.similarity_prob {
                self.push_pattern_period(&mut rng, &mut normal, &mut points);
            } else {
                self.push_wander_period(&mut rng, &mut normal, &mut points);
            }
        }
        Trajectory::from_points(points)
    }

    /// One period following a weighted-random archetype.
    fn push_pattern_period(
        &self,
        rng: &mut SmallRng,
        normal: &mut NormalSampler,
        out: &mut Vec<Point>,
    ) {
        let route = &self.resampled[self.pick_archetype(rng)];
        let offset = Point::new(
            normal.sample(rng, self.config.route_noise),
            normal.sample(rng, self.config.route_noise),
        );
        for p in route {
            let jitter = Point::new(
                normal.sample(rng, self.config.point_noise),
                normal.sample(rng, self.config.point_noise),
            );
            out.push((*p + offset + jitter).clamp(0.0, self.config.extent));
        }
    }

    /// One patternless period: a smooth wander through random
    /// waypoints of the extent.
    fn push_wander_period(
        &self,
        rng: &mut SmallRng,
        normal: &mut NormalSampler,
        out: &mut Vec<Point>,
    ) {
        let n_way = rng.gen_range(4..9);
        let waypoints: Vec<Point> = (0..n_way)
            .map(|_| {
                Point::new(
                    rng.gen_range(0.0..self.config.extent),
                    rng.gen_range(0.0..self.config.extent),
                )
            })
            .collect();
        let route = resample_uniform(&waypoints, self.config.period as usize)
            .expect("non-empty wander route");
        for p in route {
            let jitter = Point::new(
                normal.sample(rng, self.config.point_noise),
                normal.sample(rng, self.config.point_noise),
            );
            out.push((p + jitter).clamp(0.0, self.config.extent));
        }
    }

    fn pick_archetype(&self, rng: &mut SmallRng) -> usize {
        let total = *self
            .cumulative_weights
            .last()
            .expect("non-empty archetypes");
        let x = rng.gen_f64() * total;
        self.cumulative_weights
            .iter()
            .position(|&w| x < w)
            .unwrap_or(self.archetypes.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight() -> Vec<Archetype> {
        vec![Archetype::new(
            vec![Point::new(0.0, 5000.0), Point::new(10_000.0, 5000.0)],
            1.0,
        )]
    }

    fn small_cfg() -> GeneratorConfig {
        GeneratorConfig {
            period: 50,
            num_subs: 10,
            similarity_prob: 1.0,
            point_noise: 1.0,
            route_noise: 1.0,
            extent: 10_000.0,
            seed: 1,
        }
    }

    #[test]
    fn output_shape() {
        let g = PeriodicGenerator::new(small_cfg(), straight());
        let t = g.generate();
        assert_eq!(t.len(), 500);
        assert_eq!(t.start(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = PeriodicGenerator::new(small_cfg(), straight());
        assert_eq!(g.generate(), g.generate());
    }

    #[test]
    fn different_seed_differs() {
        let mut c2 = small_cfg();
        c2.seed = 2;
        let a = PeriodicGenerator::new(small_cfg(), straight()).generate();
        let b = PeriodicGenerator::new(c2, straight()).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn stays_in_extent() {
        let mut cfg = small_cfg();
        cfg.similarity_prob = 0.5;
        cfg.point_noise = 500.0;
        let g = PeriodicGenerator::new(cfg, straight());
        for p in g.generate().points() {
            assert!(p.x >= 0.0 && p.x <= 10_000.0);
            assert!(p.y >= 0.0 && p.y <= 10_000.0);
        }
    }

    #[test]
    fn pattern_periods_track_route() {
        // With f = 1 and tiny noise, every period's midpoint is near
        // the route midpoint.
        let g = PeriodicGenerator::new(small_cfg(), straight());
        let t = g.generate();
        for k in 0..10 {
            let mid = t.points()[k * 50 + 25];
            assert!((mid.y - 5000.0).abs() < 20.0, "period {k} strays: {mid}");
        }
    }

    #[test]
    fn zero_similarity_is_patternless() {
        let mut cfg = small_cfg();
        cfg.similarity_prob = 0.0;
        let g = PeriodicGenerator::new(cfg, straight());
        let t = g.generate();
        // Wander periods almost surely leave the horizontal corridor.
        let off_route = t
            .points()
            .iter()
            .filter(|p| (p.y - 5000.0).abs() > 100.0)
            .count();
        assert!(off_route > t.len() / 2);
    }

    #[test]
    fn weighted_archetype_selection() {
        // 9:1 weights -> first route dominates.
        let arch = vec![
            Archetype::new(
                vec![Point::new(0.0, 1000.0), Point::new(10_000.0, 1000.0)],
                9.0,
            ),
            Archetype::new(
                vec![Point::new(0.0, 9000.0), Point::new(10_000.0, 9000.0)],
                1.0,
            ),
        ];
        let mut cfg = small_cfg();
        cfg.num_subs = 200;
        let g = PeriodicGenerator::new(cfg, arch);
        let t = g.generate();
        let low = (0..200)
            .filter(|k| (t.points()[k * 50 + 25].y - 1000.0).abs() < 100.0)
            .count();
        assert!(low > 150, "low-route periods: {low}");
    }

    #[test]
    fn generate_subs_overrides_count() {
        let g = PeriodicGenerator::new(small_cfg(), straight());
        assert_eq!(g.generate_subs(3).len(), 150);
    }

    #[test]
    #[should_panic(expected = "at least one archetype")]
    fn empty_archetypes_panic() {
        PeriodicGenerator::new(small_cfg(), vec![]);
    }

    #[test]
    fn gps_noise_adds_in_quadrature() {
        let g = PeriodicGenerator::new(small_cfg(), straight());
        let base = g.config().point_noise;
        let noisy = g.with_gps_noise(3.0);
        assert_eq!(noisy.config().point_noise, base.hypot(3.0));
        // Zero jitter is the identity.
        let g2 = PeriodicGenerator::new(small_cfg(), straight()).with_gps_noise(0.0);
        assert_eq!(g2.config().point_noise, base);
    }

    #[test]
    fn gps_noise_spreads_points() {
        let quiet = PeriodicGenerator::new(small_cfg(), straight()).generate();
        let noisy = PeriodicGenerator::new(small_cfg(), straight())
            .with_gps_noise(200.0)
            .generate();
        let spread = |t: &Trajectory| {
            t.points().iter().map(|p| (p.y - 5000.0).abs()).sum::<f64>() / t.len() as f64
        };
        assert!(spread(&noisy) > 10.0 * spread(&quiet));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_gps_noise_panics() {
        let _ = PeriodicGenerator::new(small_cfg(), straight()).with_gps_noise(-1.0);
    }
}
