//! Query and answer value types of the Hybrid Prediction Model.

use hpm_geo::{BoundingBox, Point};
use hpm_trajectory::Timestamp;

/// How many residual standard deviations the fallback error ellipse
/// spans per axis. Two sigmas keep ~95% of a Gaussian residual per
/// axis, so a well-calibrated ellipse claims `erf(√2)² ≈ 0.911` mass.
pub const ELLIPSE_SIGMAS: f64 = 2.0;

/// Abramowitz & Stegun 7.1.26 rational approximation of the error
/// function (|error| ≤ 1.5e-7); `std` has no `erf`.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = ((((1.061_405_429 * t - 1.453_152_027) * t + 1.421_413_741) * t - 0.284_496_736)
        * t
        + 0.254_829_592)
        * t;
    sign * (1.0 - poly * (-x * x).exp())
}

/// The spatial claim attached to one ranked answer: "with probability
/// `mass`, the object is inside `region` at the query time".
///
/// Pattern answers use the supporting consequence region's extent with
/// the answer's share of the normalised ranking scores; fallback
/// answers use a residual-calibrated error ellipse (its bounding box)
/// widened per rollout step. Mass is treated as uniform over the
/// region by [`mass_within`](Uncertainty::mass_within).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uncertainty {
    /// Where the claimed probability mass lives.
    pub region: BoundingBox,
    /// How much probability the claim carries, in `[0, 1]`.
    pub mass: f64,
}

impl Uncertainty {
    /// A degenerate certain claim: all mass at exactly `location`.
    pub fn point_claim(location: Point) -> Self {
        Uncertainty {
            region: BoundingBox::from_point(location),
            mass: 1.0,
        }
    }

    /// Half-axes of the error ellipse for a fit with per-axis residual
    /// deviation `sigma`, `steps` rollout steps out: random-walk
    /// widening `ELLIPSE_SIGMAS · σ · √steps`.
    pub fn ellipse_half_axes(sigma: Point, steps: u32) -> (f64, f64) {
        let scale = ELLIPSE_SIGMAS * f64::from(steps).sqrt();
        (sigma.x.abs() * scale, sigma.y.abs() * scale)
    }

    /// Residual-calibrated error ellipse around `center` (stored as
    /// its bounding box). A collapsed axis (zero residuals) claims
    /// full per-axis coverage; a fully collapsed ellipse degenerates
    /// to [`point_claim`](Uncertainty::point_claim).
    pub fn ellipse(center: Point, sigma: Point, steps: u32) -> Self {
        let (hx, hy) = Self::ellipse_half_axes(sigma, steps);
        let axis_mass = |half: f64| {
            if half > 0.0 {
                erf(ELLIPSE_SIGMAS / std::f64::consts::SQRT_2)
            } else {
                1.0
            }
        };
        Uncertainty {
            region: BoundingBox::from_point(center).padded(hx, hy),
            mass: axis_mass(hx) * axis_mass(hy),
        }
    }

    /// Mass claimed inside `query`, under a uniform density over
    /// `region`: the per-axis overlap fractions multiplied by `mass`.
    /// Degenerate axes contribute an inclusion indicator instead.
    pub fn mass_within(&self, query: &BoundingBox) -> f64 {
        let axis = |r_min: f64, r_max: f64, q_min: f64, q_max: f64| {
            let width = r_max - r_min;
            if width > 0.0 {
                (r_max.min(q_max) - r_min.max(q_min)).max(0.0) / width
            } else if r_min >= q_min && r_min <= q_max {
                1.0
            } else {
                0.0
            }
        };
        let fx = axis(
            self.region.min.x,
            self.region.max.x,
            query.min.x,
            query.max.x,
        );
        let fy = axis(
            self.region.min.y,
            self.region.max.y,
            query.min.y,
            query.max.y,
        );
        self.mass * fx * fy
    }
}

/// A spatio-temporal predictive query: "given these recent movements
/// and the current time `tc`, where will the object be at `tq`?"
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictiveQuery<'a> {
    /// The object's recent movements `m_q`, oldest first; the last
    /// sample is the object's position *now*.
    pub recent: &'a [Point],
    /// Timestamp `tc` of the last recent sample.
    pub current_time: Timestamp,
    /// The future timestamp `tq > tc` being asked about.
    pub query_time: Timestamp,
}

impl PredictiveQuery<'_> {
    /// Prediction length `tq − tc`.
    ///
    /// # Panics
    /// Panics when `query_time <= current_time` (Definition 2 requires
    /// a future query time) or when `tq − tc > u32::MAX`.
    pub fn prediction_length(&self) -> u32 {
        assert!(
            self.query_time > self.current_time,
            "query time must be after the current time"
        );
        u32::try_from(self.query_time - self.current_time)
            .expect("prediction length must fit a u32")
    }
}

/// How a prediction was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictionSource {
    /// Forward Query Processing found matching patterns (Algorithm 2).
    ForwardPatterns,
    /// Backward Query Processing found patterns near the query time
    /// (Algorithm 3).
    BackwardPatterns,
    /// No pattern qualified; the motion function answered.
    MotionFunction,
}

/// One ranked answer: a predicted location with its pattern weight
/// `S_p` (Eq. 2 / Eq. 5), highest first in [`Prediction::answers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedAnswer {
    /// The predicted location (a consequence-region centre, or the
    /// motion function's extrapolation).
    pub location: Point,
    /// Ranking score; 0 for motion-function answers.
    pub score: f64,
    /// Index of the supporting trajectory pattern, if any.
    pub pattern: Option<u32>,
    /// The spatial distribution behind the point answer.
    pub uncertainty: Uncertainty,
}

/// The result of a predictive query: the top-`k` answers (at least
/// one), best first.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Ranked answers, best first; never empty.
    pub answers: Vec<RankedAnswer>,
    /// Which processing path produced them.
    pub source: PredictionSource,
}

impl Default for Prediction {
    /// An empty placeholder for out-parameter APIs
    /// ([`HybridPredictor::predict_with`] overwrites both fields): no
    /// answers, motion-function source. Calling [`best`] on it panics.
    ///
    /// [`HybridPredictor::predict_with`]: crate::HybridPredictor::predict_with
    /// [`best`]: Prediction::best
    fn default() -> Self {
        Prediction {
            answers: Vec::new(),
            source: PredictionSource::MotionFunction,
        }
    }
}

impl Prediction {
    /// The highest-ranked predicted location.
    ///
    /// # Panics
    /// Panics on an empty answer set (only the [`Default`] placeholder
    /// is ever empty); use [`try_best`](Prediction::try_best) where a
    /// placeholder can leak.
    pub fn best(&self) -> Point {
        self.answers[0].location
    }

    /// The highest-ranked predicted location, or `None` for the empty
    /// [`Default`] placeholder.
    pub fn try_best(&self) -> Option<Point> {
        self.answers.first().map(|a| a.location)
    }

    /// Whether a trajectory pattern (rather than the motion-function
    /// fallback) produced the answer.
    pub fn from_patterns(&self) -> bool {
        self.source != PredictionSource::MotionFunction
    }

    /// Total probability mass this prediction claims inside `region`:
    /// the sum of each answer's [`Uncertainty::mass_within`]. Ranked
    /// answers are disjoint consequence regions (or a single fallback
    /// ellipse), so the sum never exceeds the claimed total by more
    /// than region-overlap slack.
    pub fn probability_in(&self, region: &BoundingBox) -> f64 {
        self.answers
            .iter()
            .map(|a| a.uncertainty.mass_within(region))
            .sum()
    }

    /// Whether any answer's uncertainty region touches `region`
    /// (inclusive, like [`BoundingBox::intersects`]).
    pub fn possibly_in(&self, region: &BoundingBox) -> bool {
        self.answers
            .iter()
            .any(|a| a.uncertainty.region.intersects(region))
    }

    /// Smallest radius around `focus` that contains at least `tau`
    /// of the claimed probability mass: answers are consumed in order
    /// of the far distance of their uncertainty regions, and the
    /// radius at which the cumulative mass first reaches `tau` is
    /// returned. `INFINITY` when the claimed mass never reaches `tau`
    /// (including NaN `tau`).
    pub fn confidence_distance(&self, focus: &Point, tau: f64) -> f64 {
        let mut cum = 0.0;
        let mut last = f64::NEG_INFINITY;
        loop {
            let mut next = f64::INFINITY;
            for a in &self.answers {
                let d = a.uncertainty.region.far_distance_to(focus);
                if d > last && d < next {
                    next = d;
                }
            }
            if !next.is_finite() {
                return f64::INFINITY;
            }
            for a in &self.answers {
                if a.uncertainty.region.far_distance_to(focus) == next {
                    cum += a.uncertainty.mass;
                }
            }
            if cum >= tau {
                return next;
            }
            last = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_length_is_difference() {
        let recent = [Point::ORIGIN];
        let q = PredictiveQuery {
            recent: &recent,
            current_time: 100,
            query_time: 140,
        };
        assert_eq!(q.prediction_length(), 40);
    }

    #[test]
    #[should_panic(expected = "after the current time")]
    fn past_query_time_panics() {
        let recent = [Point::ORIGIN];
        PredictiveQuery {
            recent: &recent,
            current_time: 100,
            query_time: 100,
        }
        .prediction_length();
    }

    #[test]
    #[should_panic(expected = "must fit a u32")]
    fn horizon_past_u32_panics() {
        let recent = [Point::ORIGIN];
        PredictiveQuery {
            recent: &recent,
            current_time: 100,
            query_time: 100 + (1 << 32) + 3,
        }
        .prediction_length();
    }

    fn boxed(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> BoundingBox {
        BoundingBox {
            min: Point::new(min_x, min_y),
            max: Point::new(max_x, max_y),
        }
    }

    #[test]
    fn best_and_source() {
        let p = Prediction {
            answers: vec![
                RankedAnswer {
                    location: Point::new(1.0, 2.0),
                    score: 0.9,
                    pattern: Some(3),
                    uncertainty: Uncertainty {
                        region: boxed(0.0, 1.0, 2.0, 3.0),
                        mass: 0.7,
                    },
                },
                RankedAnswer {
                    location: Point::new(5.0, 5.0),
                    score: 0.4,
                    pattern: Some(7),
                    uncertainty: Uncertainty {
                        region: boxed(4.0, 4.0, 6.0, 6.0),
                        mass: 0.3,
                    },
                },
            ],
            source: PredictionSource::ForwardPatterns,
        };
        assert_eq!(p.best(), Point::new(1.0, 2.0));
        assert_eq!(p.try_best(), Some(Point::new(1.0, 2.0)));
        assert!(p.from_patterns());
        let m = Prediction {
            answers: vec![RankedAnswer {
                location: Point::ORIGIN,
                score: 0.0,
                pattern: None,
                uncertainty: Uncertainty::point_claim(Point::ORIGIN),
            }],
            source: PredictionSource::MotionFunction,
        };
        assert!(!m.from_patterns());
    }

    #[test]
    fn default_placeholder_has_no_best() {
        assert_eq!(Prediction::default().try_best(), None);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(std::f64::consts::SQRT_2) - 0.954_499_74).abs() < 1e-6);
        assert!(erf(5.0) > 0.999_999);
    }

    #[test]
    fn point_claim_is_certain() {
        let u = Uncertainty::point_claim(Point::new(3.0, 4.0));
        assert_eq!(u.mass, 1.0);
        assert_eq!(u.region, BoundingBox::from_point(Point::new(3.0, 4.0)));
        // Degenerate axes use inclusion indicators.
        assert_eq!(u.mass_within(&boxed(0.0, 0.0, 10.0, 10.0)), 1.0);
        assert_eq!(u.mass_within(&boxed(0.0, 0.0, 2.0, 10.0)), 0.0);
    }

    #[test]
    fn ellipse_widens_with_steps_and_calibrates_mass() {
        let sigma = Point::new(2.0, 1.0);
        let one = Uncertainty::ellipse(Point::ORIGIN, sigma, 1);
        let four = Uncertainty::ellipse(Point::ORIGIN, sigma, 4);
        // √steps widening: 4 steps doubles each half-axis.
        assert!((one.region.max.x - ELLIPSE_SIGMAS * 2.0).abs() < 1e-12);
        assert!((four.region.max.x - 2.0 * ELLIPSE_SIGMAS * 2.0).abs() < 1e-12);
        assert!((four.region.max.y - 2.0 * ELLIPSE_SIGMAS * 1.0).abs() < 1e-12);
        // Two-sigma per-axis coverage: erf(√2)² ≈ 0.911.
        assert!((one.mass - 0.911_070).abs() < 1e-4);
        assert_eq!(one.mass, four.mass);
        // Zero residuals collapse to a certain point claim.
        let frozen = Uncertainty::ellipse(Point::new(1.0, 1.0), Point::ORIGIN, 7);
        assert_eq!(frozen, Uncertainty::point_claim(Point::new(1.0, 1.0)));
        // One collapsed axis claims full coverage on that axis only.
        let flat = Uncertainty::ellipse(Point::ORIGIN, Point::new(1.0, 0.0), 1);
        assert!((flat.mass - 0.954_500).abs() < 1e-4);
    }

    #[test]
    fn mass_within_is_overlap_fraction() {
        let u = Uncertainty {
            region: boxed(0.0, 0.0, 10.0, 10.0),
            mass: 0.8,
        };
        // Full containment claims everything.
        assert!((u.mass_within(&boxed(-1.0, -1.0, 11.0, 11.0)) - 0.8).abs() < 1e-12);
        // Half the width, full height: half the mass.
        assert!((u.mass_within(&boxed(0.0, 0.0, 5.0, 10.0)) - 0.4).abs() < 1e-12);
        // Disjoint: nothing.
        assert_eq!(u.mass_within(&boxed(20.0, 20.0, 30.0, 30.0)), 0.0);
    }

    #[test]
    fn probability_in_sums_answers() {
        let p = Prediction {
            answers: vec![
                RankedAnswer {
                    location: Point::new(5.0, 5.0),
                    score: 0.6,
                    pattern: Some(0),
                    uncertainty: Uncertainty {
                        region: boxed(0.0, 0.0, 10.0, 10.0),
                        mass: 0.6,
                    },
                },
                RankedAnswer {
                    location: Point::new(50.0, 50.0),
                    score: 0.4,
                    pattern: Some(1),
                    uncertainty: Uncertainty {
                        region: boxed(40.0, 40.0, 60.0, 60.0),
                        mass: 0.4,
                    },
                },
            ],
            source: PredictionSource::ForwardPatterns,
        };
        let everywhere = boxed(-100.0, -100.0, 100.0, 100.0);
        assert!((p.probability_in(&everywhere) - 1.0).abs() < 1e-12);
        assert!((p.probability_in(&boxed(0.0, 0.0, 10.0, 10.0)) - 0.6).abs() < 1e-12);
        assert!(p.possibly_in(&boxed(9.0, 9.0, 12.0, 12.0)));
        assert!(!p.possibly_in(&boxed(20.0, 20.0, 30.0, 30.0)));
        // Touching edges count as possible (closed-set semantics).
        assert!(p.possibly_in(&boxed(10.0, 10.0, 12.0, 12.0)));
    }

    #[test]
    fn confidence_distance_consumes_mass_outward() {
        let p = Prediction {
            answers: vec![
                RankedAnswer {
                    location: Point::new(1.0, 0.0),
                    score: 0.5,
                    pattern: Some(0),
                    uncertainty: Uncertainty {
                        region: boxed(0.0, 0.0, 2.0, 0.0),
                        mass: 0.5,
                    },
                },
                RankedAnswer {
                    location: Point::new(10.0, 0.0),
                    score: 0.3,
                    pattern: Some(1),
                    uncertainty: Uncertainty {
                        region: boxed(9.0, 0.0, 11.0, 0.0),
                        mass: 0.3,
                    },
                },
            ],
            source: PredictionSource::ForwardPatterns,
        };
        let focus = Point::ORIGIN;
        // 0.5 mass is fully inside radius 2; 0.8 needs radius 11.
        assert_eq!(p.confidence_distance(&focus, 0.5), 2.0);
        assert_eq!(p.confidence_distance(&focus, 0.8), 11.0);
        // More mass than claimed is unreachable.
        assert_eq!(p.confidence_distance(&focus, 0.9), f64::INFINITY);
        assert_eq!(p.confidence_distance(&focus, f64::NAN), f64::INFINITY);
        // τ = 0 still pays for the nearest answer region.
        assert_eq!(p.confidence_distance(&focus, 0.0), 2.0);
        // The empty placeholder claims nothing anywhere.
        assert_eq!(
            Prediction::default().confidence_distance(&focus, 0.1),
            f64::INFINITY
        );
    }
}
