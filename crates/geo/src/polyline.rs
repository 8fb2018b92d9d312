//! Polyline helpers used by the synthetic workload generators.
//!
//! Seed routes (a commuter's road path, a flight leg between airports)
//! are authored as sparse waypoint polylines; the generator resamples
//! them into `T` evenly spaced positions — one per time offset — so
//! every generated sub-trajectory has exactly the paper's layout
//! (`T = 300` positions per period).

use crate::Point;

/// Total length of the polyline through `points`.
fn path_length(points: &[Point]) -> f64 {
    points.windows(2).map(|w| w[0].distance(&w[1])).sum()
}

/// The position reached after travelling `dist` along the polyline.
///
/// Clamps to the endpoints: negative distances return the first vertex,
/// distances past the end return the last vertex.
fn walk_along(points: &[Point], dist: f64) -> Option<Point> {
    let (first, _) = points.split_first()?;
    if dist <= 0.0 {
        return Some(*first);
    }
    let mut remaining = dist;
    for w in points.windows(2) {
        let seg = w[0].distance(&w[1]);
        if remaining <= seg {
            if seg == 0.0 {
                return Some(w[0]);
            }
            return Some(w[0].lerp(&w[1], remaining / seg));
        }
        remaining -= seg;
    }
    points.last().copied()
}

/// Resamples the polyline into exactly `n` points at uniform arc-length
/// spacing (endpoints included). Returns `None` for an empty polyline
/// or `n == 0`; a single-vertex polyline repeats that vertex.
pub fn resample_uniform(points: &[Point], n: usize) -> Option<Vec<Point>> {
    if points.is_empty() || n == 0 {
        return None;
    }
    let total = path_length(points);
    if total == 0.0 || n == 1 {
        return Some(vec![points[0]; n]);
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let d = total * i as f64 / (n - 1) as f64;
        // `walk_along` cannot fail here: `points` is non-empty.
        out.push(walk_along(points, d).expect("non-empty polyline"));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ]
    }

    #[test]
    fn length_of_l_shape() {
        assert_eq!(path_length(&l_shape()), 7.0);
    }

    #[test]
    fn length_of_single_point_is_zero() {
        assert_eq!(path_length(&[Point::new(1.0, 1.0)]), 0.0);
    }

    #[test]
    fn walk_along_segments() {
        let p = l_shape();
        assert_eq!(walk_along(&p, 0.0), Some(Point::new(0.0, 0.0)));
        assert_eq!(walk_along(&p, 1.5), Some(Point::new(1.5, 0.0)));
        assert_eq!(walk_along(&p, 3.0), Some(Point::new(3.0, 0.0)));
        assert_eq!(walk_along(&p, 5.0), Some(Point::new(3.0, 2.0)));
        // Past the end clamps to the last vertex.
        assert_eq!(walk_along(&p, 100.0), Some(Point::new(3.0, 4.0)));
        // Negative clamps to the start.
        assert_eq!(walk_along(&p, -1.0), Some(Point::new(0.0, 0.0)));
    }

    #[test]
    fn walk_along_empty_is_none() {
        assert_eq!(walk_along(&[], 1.0), None);
    }

    #[test]
    fn resample_endpoints_preserved() {
        let p = l_shape();
        let r = resample_uniform(&p, 8).unwrap();
        assert_eq!(r.len(), 8);
        assert_eq!(r[0], p[0]);
        assert_eq!(*r.last().unwrap(), *p.last().unwrap());
    }

    #[test]
    fn resample_spacing_is_uniform() {
        let p = l_shape();
        let r = resample_uniform(&p, 15).unwrap();
        let gaps: Vec<f64> = r.windows(2).map(|w| w[0].distance(&w[1])).collect();
        let expected = 7.0 / 14.0;
        for g in gaps {
            assert!((g - expected).abs() < 1e-9, "gap {g} != {expected}");
        }
    }

    #[test]
    fn resample_degenerate_cases() {
        assert!(resample_uniform(&[], 5).is_none());
        assert!(resample_uniform(&l_shape(), 0).is_none());
        let single = resample_uniform(&[Point::new(2.0, 2.0)], 4).unwrap();
        assert_eq!(single, vec![Point::new(2.0, 2.0); 4]);
    }
}
