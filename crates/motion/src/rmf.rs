//! The Recursive Motion Function (Tao, Faloutsos, Papadias, Liu —
//! SIGMOD 2004), the paper's comparison baseline and the Hybrid
//! Prediction Model's fallback.
//!
//! RMF models the location at time `t` as a linear recurrence over the
//! `f` most recent locations: `lₜ = Σᵢ₌₁..f Cᵢ · lₜ₋ᵢ`, with constant
//! 2×2 matrices `Cᵢ` and *retrospect* `f`. The matrices are fitted by
//! least squares over a sliding window of the object's recent samples —
//! the SVD-backed solve is the `n³` cost §VII.C attributes to RMF —
//! and prediction rolls the recurrence forward recursively, which is
//! what lets RMF capture non-linear (e.g. circular or accelerating)
//! motion that defeats constant-velocity models.

use crate::MotionModel;
use hpm_geo::Point;
use hpm_linalg::{lstsq, Matrix};

/// A fitted Recursive Motion Function.
#[derive(Debug, Clone)]
pub struct Rmf {
    /// Retrospect `f`.
    retrospect: usize,
    /// The `2f × 2` stacked coefficient matrix `X`: row block `i`
    /// holds `Cᵢ₊₁ᵀ`, so `lₜᵀ = [lₜ₋₁ᵀ … lₜ₋fᵀ] · X`.
    coeffs: Matrix,
    /// The last `f` fitted samples, most recent last.
    tail: Vec<Point>,
}

impl Rmf {
    /// Fits an RMF of the given retrospect over `window` (oldest
    /// first; the last sample is "now").
    ///
    /// Builds one training equation per timestamp that has `f`
    /// predecessors in the window and solves the stacked least-squares
    /// system via SVD. Returns `None` when `retrospect == 0` or the
    /// window has fewer than `retrospect + 1` samples (no equation can
    /// be formed).
    pub fn fit(window: &[Point], retrospect: usize) -> Option<Self> {
        let f = retrospect;
        let n = window.len();
        if f == 0 || n < f + 1 {
            return None;
        }
        let rows = n - f;
        let a = Matrix::from_fn(rows, 2 * f, |r, c| {
            // Row r trains timestamp t = f + r; column block i holds
            // l_{t-1-i}.
            let (i, coord) = (c / 2, c % 2);
            let p = window[f + r - 1 - i];
            if coord == 0 {
                p.x
            } else {
                p.y
            }
        });
        let b = Matrix::from_fn(rows, 2, |r, c| {
            let p = window[f + r];
            if c == 0 {
                p.x
            } else {
                p.y
            }
        });
        let coeffs = lstsq(&a, &b);
        Some(Rmf {
            retrospect: f,
            coeffs,
            tail: window[n - f..].to_vec(),
        })
    }

    /// The retrospect `f`.
    #[inline]
    pub fn retrospect(&self) -> usize {
        self.retrospect
    }

    /// The spectral radius of the fitted recurrence's companion
    /// matrix: predictions stay bounded on long horizons iff this is
    /// ≤ 1 (within numerical tolerance). Fig. 5's steep RMF error
    /// growth is, mechanically, fitted radii drifting above 1.
    pub fn spectral_radius(&self) -> f64 {
        // Companion form over the stacked state (lₜ₋₁, …, lₜ₋f) of
        // 2f scalars: the top 2 rows apply the fitted blocks, the rest
        // shift the state down.
        let f = self.retrospect;
        let n = 2 * f;
        let companion = Matrix::from_fn(n, n, |r, c| {
            if r < 2 {
                // lₜ row `r` (x or y): coefficient of state scalar `c`.
                self.coeffs[(c, r)]
            } else if c == r - 2 {
                1.0
            } else {
                0.0
            }
        });
        hpm_linalg::spectral_radius(&companion, 300)
    }

    /// Whether long-horizon rollouts stay bounded (spectral radius at
    /// most `1 + tol` with a small default tolerance for the marginal
    /// constant-velocity case, whose radius is exactly 1).
    pub fn is_stable(&self) -> bool {
        self.spectral_radius() <= 1.0 + 1e-6
    }

    /// Applies the recurrence once to the given recent points (most
    /// recent last).
    fn step(&self, recent: &[Point]) -> Point {
        let f = self.retrospect;
        debug_assert_eq!(recent.len(), f);
        let mut x = 0.0;
        let mut y = 0.0;
        for i in 0..f {
            // Block i corresponds to l_{t-1-i}: the (f-1-i)-th element
            // of `recent` (which is oldest-first).
            let p = recent[f - 1 - i];
            x += p.x * self.coeffs[(2 * i, 0)] + p.y * self.coeffs[(2 * i + 1, 0)];
            y += p.x * self.coeffs[(2 * i, 1)] + p.y * self.coeffs[(2 * i + 1, 1)];
        }
        Point::new(x, y)
    }
}

impl MotionModel for Rmf {
    /// The last position [`rollout`](Rmf::rollout)`(steps, ..)` hands
    /// out; the last fitted sample when `steps` is 0.
    fn predict(&self, steps: u32) -> Point {
        let mut last = *self.tail.last().expect("fit keeps f >= 1 samples");
        self.rollout(steps, |p| last = p);
        last
    }
}

impl Rmf {
    /// Rolls the recurrence forward once, `steps` timestamps past the
    /// last fitted sample, handing `each` the position after every
    /// step: the `s`th is [`predict`](MotionModel::predict)`(s)`, so a
    /// caller that needs every horizon up to `steps` pays `steps`
    /// recurrence steps, not one replay from the tail per horizon.
    ///
    /// Unstable recurrences can diverge on long horizons (this is the
    /// behaviour Fig. 5 punishes); once an iterate stops being finite
    /// the rollout freezes at the last finite position: it hands that
    /// position out once more, for the step that diverged, and stops —
    /// every later horizon's prediction is that same position.
    pub fn rollout(&self, steps: u32, mut each: impl FnMut(Point)) {
        let f = self.retrospect;
        let mut recent = self.tail.clone();
        let mut last = *recent.last().expect("fit keeps f >= 1 samples");
        for _ in 0..steps {
            let next = self.step(&recent);
            if !next.is_finite() {
                each(last);
                return;
            }
            last = next;
            recent.rotate_left(1);
            recent[f - 1] = next;
            each(last);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_motion_exactly() {
        // l_t = 2 l_{t-1} - l_{t-2} reproduces any constant velocity.
        let pts: Vec<Point> = (0..12)
            .map(|i| Point::new(3.0 * i as f64, 100.0 - 2.0 * i as f64))
            .collect();
        let rmf = Rmf::fit(&pts, 2).unwrap();
        for s in [1u32, 5, 50] {
            let expect = Point::new(3.0 * (11 + s) as f64, 100.0 - 2.0 * (11 + s) as f64);
            assert!(
                rmf.predict(s).distance(&expect) < 1e-6,
                "step {s}: {} vs {expect}",
                rmf.predict(s)
            );
        }
    }

    #[test]
    fn fits_circular_motion() {
        // Rotation about the origin is l_t = R(θ) l_{t-1}: retrospect 1
        // suffices and the prediction stays on the circle.
        let r = 50.0;
        let theta = 0.12;
        let pts: Vec<Point> = (0..20)
            .map(|i| {
                let a = theta * i as f64;
                Point::new(r * a.cos(), r * a.sin())
            })
            .collect();
        let rmf = Rmf::fit(&pts, 2).unwrap();
        for s in [1u32, 10, 30] {
            let a = theta * (19 + s) as f64;
            let expect = Point::new(r * a.cos(), r * a.sin());
            assert!(
                rmf.predict(s).distance(&expect) < 1e-3,
                "step {s}: {} vs {expect}",
                rmf.predict(s)
            );
        }
    }

    #[test]
    fn sudden_turn_defeats_rmf() {
        // §II.A: RMF "cannot capture sudden changes of the object's
        // velocities (e.g. a car's left-turn)". Fit on an eastbound
        // leg; the object turns north right after the window.
        let mut pts: Vec<Point> = (0..15).map(|i| Point::new(10.0 * i as f64, 0.0)).collect();
        let rmf = Rmf::fit(&pts, 3).unwrap();
        // Ground truth after the turn.
        for i in 0..10 {
            pts.push(Point::new(140.0, 10.0 * (i + 1) as f64));
        }
        let truth = pts.last().unwrap();
        let err = rmf.predict(10).distance(truth);
        assert!(err > 100.0, "turn error only {err}");
    }

    #[test]
    fn stationary_object_stays_put() {
        let pts = vec![Point::new(7.0, 9.0); 10];
        let rmf = Rmf::fit(&pts, 2).unwrap();
        assert!(rmf.predict(100).distance(&Point::new(7.0, 9.0)) < 1e-6);
    }

    #[test]
    fn too_small_windows_rejected() {
        let pts: Vec<Point> = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
        assert!(Rmf::fit(&pts, 3).is_none()); // needs f + 1 = 4
        assert!(Rmf::fit(&pts, 2).is_some());
        assert!(Rmf::fit(&pts, 0).is_none());
        assert!(Rmf::fit(&[], 1).is_none());
    }

    #[test]
    fn zero_steps_returns_last_sample() {
        let pts: Vec<Point> = (0..8).map(|i| Point::new(i as f64, i as f64)).collect();
        let rmf = Rmf::fit(&pts, 2).unwrap();
        assert_eq!(rmf.predict(0), Point::new(7.0, 7.0));
    }

    #[test]
    fn divergence_freezes_at_last_finite() {
        // A geometric blow-up: l_t = 3 l_{t-1} fits exactly, and long
        // rollouts overflow; predict must still return a finite point.
        let pts: Vec<Point> = (0..12).map(|i| Point::new(3.0_f64.powi(i), 0.0)).collect();
        let rmf = Rmf::fit(&pts, 1).unwrap();
        let p = rmf.predict(10_000);
        assert!(p.is_finite());
    }

    #[test]
    fn retrospect_accessor() {
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_eq!(Rmf::fit(&pts, 4).unwrap().retrospect(), 4);
    }

    #[test]
    fn stability_classification() {
        // Constant velocity: marginally stable (radius exactly 1).
        let line: Vec<Point> = (0..12).map(|i| Point::new(2.0 * i as f64, 0.0)).collect();
        let rmf = Rmf::fit(&line, 2).unwrap();
        let r = rmf.spectral_radius();
        assert!((r - 1.0).abs() < 0.05, "linear radius {r}");
        assert!(rmf.is_stable() || r < 1.05);

        // Geometric blow-up l_t = 3 l_{t-1}: radius 3, unstable.
        let geo: Vec<Point> = (0..10).map(|i| Point::new(3f64.powi(i), 0.0)).collect();
        let rmf = Rmf::fit(&geo, 1).unwrap();
        assert!((rmf.spectral_radius() - 3.0).abs() < 1e-6);
        assert!(!rmf.is_stable());

        // Decaying spiral: stable.
        let spiral: Vec<Point> = (0..20)
            .map(|i| {
                let a = 0.3 * i as f64;
                let r = 100.0 * 0.9f64.powi(i);
                Point::new(r * a.cos(), r * a.sin())
            })
            .collect();
        let rmf = Rmf::fit(&spiral, 1).unwrap();
        let rad = rmf.spectral_radius();
        assert!((rad - 0.9).abs() < 1e-3, "spiral radius {rad}");
        assert!(rmf.is_stable());
    }

    #[test]
    fn circle_is_marginally_stable() {
        let pts: Vec<Point> = (0..24)
            .map(|i| {
                let a = 0.25 * i as f64;
                Point::new(40.0 * a.cos(), 40.0 * a.sin())
            })
            .collect();
        let rmf = Rmf::fit(&pts, 1).unwrap();
        let r = rmf.spectral_radius();
        assert!((r - 1.0).abs() < 1e-6, "circle radius {r}");
    }
}
