//! Diagnostic: RMF accuracy across retrospect and window length, the
//! tuning the paper performs before using RMF as its comparator
//! ("RMF parameters are set for the best performance").
//!
//! Run with `--nocapture` to see the table:
//! `cargo test -p hpm-bench --release rmf_tuning -- --nocapture`

use hpm_bench::setup::Experiment;
use hpm_core::eval::{mean, point_errors, rmf_or_last};
use hpm_datagen::{PaperDataset, EXTENT};

#[test]
fn rmf_tuning_sweep() {
    let exp = Experiment::paper(PaperDataset::Bike);
    println!("window retrospect error@20");
    let mut best = f64::INFINITY;
    for window in [10usize, 20, 40] {
        for retrospect in [2usize, 3, 5] {
            let queries = exp.workload_with_recent(20, window, 30);
            let err = mean(&point_errors(
                |q| rmf_or_last(q, retrospect),
                &queries,
                EXTENT,
            ));
            println!("{window:>6} {retrospect:>10} {err:>9.1}");
            best = best.min(err);
        }
    }
    // Whatever the tuning, RMF must do something sensible at a short
    // horizon on the smooth bike route.
    assert!(best < 2_000.0, "best RMF error {best}");
}
