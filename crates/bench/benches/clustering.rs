//! Seeding grid-indexed DBSCAN over blobs plus background noise.

use hpm_bench::Bench;
use hpm_clustering::{DbscanParams, IncrementalDbscan, SeedScratch};
use hpm_geo::Point;

/// Deterministic mixture of dense blobs plus background noise.
fn points(n: usize) -> Vec<Point> {
    let mut out = Vec::with_capacity(n);
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let centers = [(2_000.0, 2_000.0), (8_000.0, 3_000.0), (5_000.0, 8_000.0)];
    for i in 0..n {
        if i % 4 == 3 {
            out.push(Point::new(next() * 10_000.0, next() * 10_000.0));
        } else {
            let (cx, cy) = centers[i % 3];
            out.push(Point::new(cx + next() * 400.0, cy + next() * 400.0));
        }
    }
    out
}

fn main() {
    let mut bench = Bench::from_args();
    for &n in &[200usize, 1_000, 4_000] {
        let pts = points(n);
        let params = DbscanParams::new(30.0, 4);
        let mut scratch = SeedScratch::default();
        bench.run(&format!("dbscan/grid/{n}"), None, || {
            IncrementalDbscan::seed(std::slice::from_ref(&pts), params, &mut scratch, |_, _| {})
        });
    }
    bench.summary();
}
