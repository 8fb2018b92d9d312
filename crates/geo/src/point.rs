use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A location in the plane.
///
/// Used both for absolute positions and for displacement/velocity
/// vectors (the paper's motion functions treat locations as
/// d-dimensional vectors, here d = 2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    ///
    /// This is the paper's prediction-error metric: "A prediction error
    /// is measured as the distance between a predicted location and its
    /// actual location" (§VII.A).
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the `sqrt` in hot comparison
    /// loops such as DBSCAN neighbourhood tests).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector length when the point is used as a displacement.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Dot product with `other`.
    #[inline]
    pub fn dot(&self, other: &Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Linear interpolation: returns `self` at `t = 0` and `other` at
    /// `t = 1`; `t` outside `[0, 1]` extrapolates.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: &Point) -> Point {
        Point {
            x: self.x.min(other.x),
            y: self.y.min(other.y),
        }
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: &Point) -> Point {
        Point {
            x: self.x.max(other.x),
            y: self.y.max(other.y),
        }
    }

    /// True when both coordinates are finite (no NaN/∞). Workload
    /// generators and solvers assert this on their outputs.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Clamps both coordinates into `[lo, hi]` — used to keep synthetic
    /// trajectories inside the normalised data extent.
    #[inline]
    pub fn clamp(&self, lo: f64, hi: f64) -> Point {
        Point {
            x: self.x.clamp(lo, hi),
            y: self.y.clamp(lo, hi),
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Point) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Point) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, s: f64) -> Point {
        Point::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, s: f64) -> Point {
        Point::new(self.x / s, self.y / s)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.5, -2.0);
        let b = Point::new(-7.0, 0.25);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(5.0, 10.0));
    }

    #[test]
    fn clamp_keeps_extent() {
        let p = Point::new(-5.0, 11_000.0);
        assert_eq!(p.clamp(0.0, 10_000.0), Point::new(0.0, 10_000.0));
    }

    #[test]
    fn dot_and_norm() {
        let a = Point::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dot(&Point::new(1.0, 0.0)), 3.0);
    }

    #[test]
    fn finite_check_rejects_nan() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
