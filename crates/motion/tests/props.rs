//! Property-based invariants for the motion functions.

use hpm_check::prelude::*;
use hpm_geo::Point;
use hpm_motion::{LinearMotion, MotionModel, Rmf};

fn arb_linear_track() -> Gen<(Vec<Point>, Point, Point)> {
    tuple((
        float(-100.0..100.0),
        float(-100.0..100.0),
        float(-5.0..5.0),
        float(-5.0..5.0),
        int(4usize..40),
    ))
    .map(|(x, y, vx, vy, n)| {
        let origin = Point::new(x, y);
        let v = Point::new(vx, vy);
        let pts = (0..n).map(|i| origin + v * i as f64).collect();
        (pts, origin, v)
    })
}

props! {
    /// Both motion models recover exact constant-velocity motion.
    fn linear_motion_is_exact(track in arb_linear_track(), steps in int(0u32..100)) {
        let (pts, _, v) = track;
        let last = *pts.last().unwrap();
        let expect = last + v * steps as f64;
        let lin = LinearMotion::fit(&pts).unwrap();
        require!(lin.predict(steps).distance(&expect) < 1e-6 * (1.0 + expect.norm()));
        if pts.len() >= 3 {
            let rmf = Rmf::fit(&pts, 2).unwrap();
            require!(
                rmf.predict(steps.min(20)).distance(&(last + v * steps.min(20) as f64))
                    < 1e-4 * (1.0 + expect.norm()),
                "rmf {} vs {}", rmf.predict(steps.min(20)), last + v * steps.min(20) as f64
            );
        }
    }

    /// Predictions are always finite, whatever the (finite) window.
    fn predictions_always_finite(
        pts in vec(
            tuple((float(-1e4..1e4), float(-1e4..1e4))).map(|(x, y)| Point::new(x, y)),
            5..30,
        ),
        retrospect in int(1usize..4),
        steps in int(0u32..500),
    ) {
        let rmf = Rmf::fit(&pts, retrospect).unwrap();
        require!(rmf.predict(steps).is_finite());
        let lin = LinearMotion::fit(&pts).unwrap();
        require!(lin.predict(steps).is_finite());
    }

    /// Zero steps returns the last sample (both models anchor "now").
    fn zero_steps_is_identity(
        pts in vec(
            tuple((float(-100.0..100.0), float(-100.0..100.0))).map(|(x, y)| Point::new(x, y)),
            4..20,
        ),
    ) {
        let last = *pts.last().unwrap();
        require_eq!(Rmf::fit(&pts, 2).unwrap().predict(0), last);
        // The least-squares line is anchored at the *fitted* final
        // position, which smooths noise — so only check the recursive
        // model for exact identity.
    }

    /// Fitting is invariant to rigid translation: predicting from a
    /// shifted window shifts the prediction (RMF is affine in the
    /// window for full-rank fits; verified on smooth tracks).
    fn linear_fit_translation_equivariant(
        track in arb_linear_track(),
        dx in float(-50.0..50.0),
        dy in float(-50.0..50.0),
        steps in int(0u32..50),
    ) {
        let (pts, _, _) = track;
        let d = Point::new(dx, dy);
        let shifted: Vec<Point> = pts.iter().map(|p| *p + d).collect();
        let a = LinearMotion::fit(&pts).unwrap().predict(steps);
        let b = LinearMotion::fit(&shifted).unwrap().predict(steps);
        require!((b - d).distance(&a) < 1e-6 * (1.0 + a.norm()));
    }
}

/// A recurrence that overflows freezes at its last finite position:
/// ×10⁶ per sample overflows in about 50 steps; the rollout hands that
/// position out once more, for the step that diverged, and stops, and
/// `predict` answers it at every later horizon — `u32::MAX` included,
/// without stepping that far.
#[test]
fn an_overflowing_rollout_freezes() {
    let pts: Vec<Point> = (0..6)
        .map(|i| Point::new(1e6f64.powi(i), -(1e6f64.powi(i))))
        .collect();
    let rmf = Rmf::fit(&pts, 1).unwrap();
    let mut rolled = Vec::new();
    rmf.rollout(300, |p| rolled.push(p));
    let n = rolled.len();
    assert!(
        (2..100).contains(&n) && rolled.iter().all(|p| p.is_finite()),
        "{n}"
    );
    assert_eq!(rolled[n - 1], rolled[n - 2]);
    assert!(rolled[..n - 1].windows(2).all(|w| w[0] != w[1]));
    assert_eq!(rmf.predict(300), rolled[n - 1]);
    let start = std::time::Instant::now();
    assert_eq!(rmf.predict(u32::MAX), rolled[n - 1]);
    assert!(start.elapsed() < std::time::Duration::from_secs(1));
}
