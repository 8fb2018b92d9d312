//! RMF fitting cost across retrospect and window size (the paper's
//! n³-SVD cost claim), plus prediction rollout.

use hpm_bench::Bench;
use hpm_geo::Point;
use hpm_motion::{LinearMotion, MotionModel, Rmf};

fn wave(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.15;
            Point::new(40.0 * t, 300.0 * (t * 0.4).sin())
        })
        .collect()
}

fn bench_fit(bench: &mut Bench) {
    for &window in &[20usize, 60, 150] {
        let pts = wave(window);
        for retrospect in [2usize, 3, 5] {
            bench.run(&format!("rmf_fit/w{window}/{retrospect}"), None, || {
                Rmf::fit(&pts, retrospect).unwrap()
            });
        }
    }
}

fn bench_predict(bench: &mut Bench) {
    let pts = wave(60);
    let rmf = Rmf::fit(&pts, 3).unwrap();
    let lin = LinearMotion::fit(&pts).unwrap();
    bench.run("motion_predict_200/rmf", None, || rmf.predict(200));
    bench.run("motion_predict_200/linear", None, || lin.predict(200));
}

fn bench_lstsq(bench: &mut Bench) {
    use hpm_linalg::{lstsq, Matrix};
    // RMF-shaped systems: (window - f) rows x 2f cols, 2 rhs columns.
    for &(rows, cols) in &[(17usize, 6usize), (57, 6), (147, 10)] {
        let a = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.0);
        let b = Matrix::from_fn(rows, 2, |i, j| ((i * 13 + j * 7) % 19) as f64 - 9.0);
        bench.run(&format!("lstsq/svd_{rows}x{cols}"), None, || lstsq(&a, &b));
    }
}

fn main() {
    let mut bench = Bench::from_args();
    bench_fit(&mut bench);
    bench_predict(&mut bench);
    bench_lstsq(&mut bench);
    bench.summary();
}
