//! The linear motion function (§II.A):
//! `l(tq) = l₀ + v₀ · (tq − t₀)`.

use crate::MotionModel;
use hpm_geo::Point;

/// A constant-velocity motion model.
///
/// `predict(s)` returns the position `s` timestamps after the last
/// fitted sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearMotion {
    /// Position at the last fitted timestamp.
    pub origin: Point,
    /// Displacement per timestamp.
    pub velocity: Point,
}

impl LinearMotion {
    /// Least-squares line fit over the whole window: more robust to
    /// sampling noise than the last two samples' difference.
    ///
    /// Fits `l(t) = a + b·t` per coordinate for `t = 0..n`, then
    /// re-anchors at the final timestamp. Returns `None` with fewer
    /// than 2 samples.
    pub fn fit(window: &[Point]) -> Option<Self> {
        let n = window.len();
        if n < 2 {
            return None;
        }
        // Closed-form simple linear regression with t = 0..n-1.
        let nf = n as f64;
        let t_mean = (nf - 1.0) / 2.0;
        let mut p_mean = Point::ORIGIN;
        for p in window {
            p_mean += *p;
        }
        p_mean = p_mean / nf;
        let mut cov = Point::ORIGIN; // Σ (t - t̄)(p - p̄), per coordinate
        let mut var = 0.0; // Σ (t - t̄)²
        for (t, p) in window.iter().enumerate() {
            let dt = t as f64 - t_mean;
            cov += (*p - p_mean) * dt;
            var += dt * dt;
        }
        let velocity = cov / var;
        let origin = p_mean + velocity * (nf - 1.0 - t_mean);
        Some(LinearMotion { origin, velocity })
    }
}

impl MotionModel for LinearMotion {
    fn predict(&self, steps: u32) -> Point {
        self.origin + self.velocity * steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, vx: f64, vy: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(10.0 + vx * i as f64, -3.0 + vy * i as f64))
            .collect()
    }

    #[test]
    fn fit_recovers_exact_line() {
        let m = LinearMotion::fit(&line(10, 1.5, 0.5)).unwrap();
        let expect = Point::new(10.0 + 1.5 * 12.0, -3.0 + 0.5 * 12.0);
        assert!(m.predict(3).distance(&expect) < 1e-9);
    }

    #[test]
    fn fit_averages_noise() {
        // Alternating ±1 noise around a flat path: fitted velocity ~ 0.
        let pts: Vec<Point> = (0..20)
            .map(|i| Point::new(i as f64, if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let m = LinearMotion::fit(&pts).unwrap();
        assert!((m.velocity.x - 1.0).abs() < 1e-9);
        assert!(m.velocity.y.abs() < 0.05);
    }

    #[test]
    fn too_few_samples() {
        assert!(LinearMotion::fit(&[]).is_none());
        assert!(LinearMotion::fit(&[Point::ORIGIN]).is_none());
    }
}
