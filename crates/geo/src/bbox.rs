use crate::Point;

/// An axis-aligned bounding rectangle.
///
/// Frequent regions `Rtʲ` discovered by DBSCAN are summarised by their
/// bounding box plus centroid; the box is what the paper draws in
/// Fig. 2(b) and what region-membership tests use when a query's recent
/// movement is matched against discovered regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    pub min: Point,
    pub max: Point,
}

impl BoundingBox {
    /// A degenerate box containing exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        BoundingBox { min: p, max: p }
    }

    /// Tight box around a non-empty point set; `None` when empty.
    pub fn from_points(points: &[Point]) -> Option<Self> {
        let (first, rest) = points.split_first()?;
        let mut bb = BoundingBox::from_point(*first);
        for p in rest {
            bb.expand(*p);
        }
        Some(bb)
    }

    /// Grows the box to cover `p`.
    #[inline]
    pub fn expand(&mut self, p: Point) {
        self.min = self.min.min(&p);
        self.max = self.max.max(&p);
    }

    /// Grows the box to cover all of `other`.
    #[inline]
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Whether `p` lies inside (inclusive of the boundary).
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether `p` lies within `margin` of the box (inflated-inclusion
    /// test; used to match noisy query positions to frequent regions).
    #[inline]
    pub fn contains_within(&self, p: &Point, margin: f64) -> bool {
        p.x >= self.min.x - margin
            && p.x <= self.max.x + margin
            && p.y >= self.min.y - margin
            && p.y <= self.max.y + margin
    }

    /// Geometric centre of the box.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.lerp(&self.max, 0.5)
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Whether two boxes overlap (inclusive of touching edges).
    #[inline]
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// Minimum distance from `p` to the box (0 when inside).
    pub fn distance_to(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum distance from `p` to any point of the box — the radius
    /// of the smallest disk around `p` containing the whole box.
    pub fn far_distance_to(&self, p: &Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// This box grown by `dx` along x and `dy` along y on *each* side.
    ///
    /// # Panics
    /// Panics when either pad is negative or non-finite (a shrink can
    /// invert the box).
    pub fn padded(&self, dx: f64, dy: f64) -> BoundingBox {
        assert!(dx >= 0.0 && dy >= 0.0, "pads must be non-negative");
        BoundingBox {
            min: Point::new(self.min.x - dx, self.min.y - dy),
            max: Point::new(self.max.x + dx, self.max.y + dy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> BoundingBox {
        BoundingBox {
            min: Point::new(0.0, 0.0),
            max: Point::new(1.0, 1.0),
        }
    }

    #[test]
    fn from_points_is_tight() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(0.0, 7.0),
        ];
        let bb = BoundingBox::from_points(&pts).unwrap();
        assert_eq!(bb.min, Point::new(-2.0, 3.0));
        assert_eq!(bb.max, Point::new(1.0, 7.0));
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(BoundingBox::from_points(&[]).is_none());
    }

    #[test]
    fn contains_boundary_inclusive() {
        let bb = unit_box();
        assert!(bb.contains(&Point::new(0.0, 0.0)));
        assert!(bb.contains(&Point::new(1.0, 1.0)));
        assert!(bb.contains(&Point::new(0.5, 0.5)));
        assert!(!bb.contains(&Point::new(1.01, 0.5)));
    }

    #[test]
    fn contains_within_margin() {
        let bb = unit_box();
        assert!(bb.contains_within(&Point::new(1.05, 0.5), 0.1));
        assert!(!bb.contains_within(&Point::new(1.25, 0.5), 0.1));
    }

    #[test]
    fn union_covers_both() {
        let a = unit_box();
        let b = BoundingBox {
            min: Point::new(2.0, 2.0),
            max: Point::new(3.0, 3.0),
        };
        let u = a.union(&b);
        assert!(u.contains(&Point::new(0.0, 0.0)));
        assert!(u.contains(&Point::new(3.0, 3.0)));
        assert_eq!((u.width(), u.height()), (3.0, 3.0));
    }

    #[test]
    fn center_and_dims() {
        let bb = BoundingBox {
            min: Point::new(0.0, 0.0),
            max: Point::new(4.0, 2.0),
        };
        assert_eq!(bb.center(), Point::new(2.0, 1.0));
        assert_eq!(bb.width(), 4.0);
        assert_eq!(bb.height(), 2.0);
    }

    #[test]
    fn intersects_touching_edges() {
        let a = unit_box();
        let b = BoundingBox {
            min: Point::new(1.0, 0.0),
            max: Point::new(2.0, 1.0),
        };
        assert!(a.intersects(&b));
        let c = BoundingBox {
            min: Point::new(1.5, 0.0),
            max: Point::new(2.0, 1.0),
        };
        assert!(!a.intersects(&c));
    }

    #[test]
    fn distance_to_point() {
        let bb = unit_box();
        assert_eq!(bb.distance_to(&Point::new(0.5, 0.5)), 0.0);
        assert_eq!(bb.distance_to(&Point::new(2.0, 0.5)), 1.0);
        let d = bb.distance_to(&Point::new(2.0, 2.0));
        assert!((d - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn far_distance_covers_whole_box() {
        let bb = unit_box();
        // From the centre the farthest corner is at distance sqrt(0.5).
        let d = bb.far_distance_to(&Point::new(0.5, 0.5));
        assert!((d - 0.5_f64.hypot(0.5)).abs() < 1e-12);
        // From outside, the far corner is (0, 0) seen from (2, 2).
        let d = bb.far_distance_to(&Point::new(2.0, 2.0));
        assert!((d - 2.0_f64.hypot(2.0)).abs() < 1e-12);
        // Degenerate box: far distance equals plain distance.
        let dot = BoundingBox::from_point(Point::new(3.0, 4.0));
        assert_eq!(dot.far_distance_to(&Point::new(0.0, 0.0)), 5.0);
    }

    #[test]
    fn padded_grows_every_side() {
        let bb = unit_box().padded(2.0, 0.5);
        assert_eq!(bb.min, Point::new(-2.0, -0.5));
        assert_eq!(bb.max, Point::new(3.0, 1.5));
        assert_eq!(unit_box().padded(0.0, 0.0), unit_box());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn padded_rejects_negative() {
        let _ = unit_box().padded(-1.0, 0.0);
    }

    #[test]
    fn expand_grows_monotonically() {
        let mut bb = BoundingBox::from_point(Point::new(0.0, 0.0));
        bb.expand(Point::new(-1.0, 2.0));
        assert!(bb.contains(&Point::new(-1.0, 2.0)));
        assert!(bb.contains(&Point::new(0.0, 0.0)));
    }
}
