//! RMF fitting cost across retrospect and window size (the paper's
//! n³-SVD cost claim), plus prediction rollout.

use hpm_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("rmf_fit");
    for &window in &[20usize, 60, 150] {
        let pts = wave(window);
        for retrospect in [2usize, 3, 5] {
            group.bench_with_input(
                BenchmarkId::new(format!("w{window}"), retrospect),
                &retrospect,
                |b, &f| b.iter(|| std::hint::black_box(Rmf::fit(&pts, f).unwrap())),
            );
        }
    }
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let pts = wave(60);
    let rmf = Rmf::fit(&pts, 3).unwrap();
    let lin = LinearMotion::fit(&pts).unwrap();
    let mut group = c.benchmark_group("motion_predict_200");
    group.bench_function("rmf", |b| b.iter(|| std::hint::black_box(rmf.predict(200))));
    group.bench_function("linear", |b| {
        b.iter(|| std::hint::black_box(lin.predict(200)))
    });
    group.finish();
}

fn bench_lstsq(c: &mut Criterion) {
    use hpm_linalg::{lstsq, Matrix};
    // RMF-shaped systems: (window - f) rows x 2f cols, 2 rhs columns.
    let mut group = c.benchmark_group("lstsq");
    for &(rows, cols) in &[(17usize, 6usize), (57, 6), (147, 10)] {
        let a = Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.0);
        let b = Matrix::from_fn(rows, 2, |i, j| ((i * 13 + j * 7) % 19) as f64 - 9.0);
        group.bench_function(format!("svd_{rows}x{cols}"), |bch| {
            bch.iter(|| std::hint::black_box(lstsq(&a, &b)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fit, bench_predict, bench_lstsq);
criterion_main!(benches);
