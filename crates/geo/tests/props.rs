//! Property-based invariants for the geometry substrate.

use hpm_check::prelude::*;
use hpm_geo::{resample_uniform, BoundingBox, Point};

fn arb_point() -> Gen<Point> {
    tuple((float(-1.0e4..1.0e4), float(-1.0e4..1.0e4))).map(|(x, y)| Point::new(x, y))
}

fn arb_points(max: usize) -> Gen<Vec<Point>> {
    vec(arb_point(), 1..max)
}

fn path_length(points: &[Point]) -> f64 {
    points.windows(2).map(|w| w[0].distance(&w[1])).sum()
}

props! {
    fn distance_triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        require!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
    }

    fn distance_symmetry_and_identity(a in arb_point(), b in arb_point()) {
        require!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        require_eq!(a.distance(&a), 0.0);
    }

    fn bbox_contains_all_inputs(pts in arb_points(64)) {
        let bb = BoundingBox::from_points(&pts).unwrap();
        for p in &pts {
            require!(bb.contains(p));
        }
    }

    fn bbox_center_inside(pts in arb_points(64)) {
        let bb = BoundingBox::from_points(&pts).unwrap();
        require!(bb.contains(&bb.center()));
    }

    fn bbox_union_is_superset(p1 in arb_points(16), p2 in arb_points(16)) {
        let a = BoundingBox::from_points(&p1).unwrap();
        let b = BoundingBox::from_points(&p2).unwrap();
        let u = a.union(&b);
        for p in p1.iter().chain(p2.iter()) {
            require!(u.contains(p));
        }
    }

    fn resample_stays_on_path_extent(pts in arb_points(16), n in int(1usize..128)) {
        let bb = BoundingBox::from_points(&pts).unwrap();
        // Any interpolated point lies inside the waypoint bounding box.
        for p in resample_uniform(&pts, n).unwrap() {
            require!(bb.contains_within(&p, 1e-9));
        }
    }

    fn resample_preserves_endpoints(pts in arb_points(16), n in int(2usize..128)) {
        let r = resample_uniform(&pts, n).unwrap();
        require_eq!(r.len(), n);
        require!(r[0].distance(&pts[0]) < 1e-9);
        require!(r[n - 1].distance(pts.last().unwrap()) < 1e-9);
    }

    fn resample_length_close_to_original(pts in arb_points(8)) {
        // A dense resampling's polyline length never exceeds the
        // original (shortcuts only) and converges towards it.
        let r = resample_uniform(&pts, 512).unwrap();
        let orig = path_length(&pts);
        let res = path_length(&r);
        require!(res <= orig + 1e-6);
    }
}
