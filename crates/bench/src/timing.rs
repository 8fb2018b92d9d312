//! The in-tree timing harness: one [`Bench`] per bench binary and one
//! [`best_of`] loop for everything timed as whole passes.
//!
//! [`Bench::from_args`] is the only reader of the harness flags:
//!
//! - `--bench` (what `cargo bench` passes): measure — warm up, pick an
//!   iteration count that fills the per-sample budget, take 20
//!   samples, and report median/min/max ns per iteration plus derived
//!   throughput.
//! - `--test` or no `--bench` (what `cargo test` does with
//!   `harness = false` targets): run every benchmark body exactly once
//!   as a smoke test and print nothing but a pass line. This keeps
//!   tier-1 `cargo test` fast.
//! - any other bare argument filters benchmarks by substring.

use std::time::{Duration, Instant};

/// Timed samples per measured benchmark.
const SAMPLES: usize = 20;

/// Units for derived per-second rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// The harness root; one per bench binary.
#[derive(Debug, Default)]
pub struct Bench {
    measure: bool,
    filter: Option<String>,
    ran: usize,
}

impl Bench {
    /// Builds a harness from the process CLI arguments (see the module
    /// docs for the flag protocol).
    pub fn from_args() -> Self {
        let mut bench = Bench::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--bench" => bench.measure = true,
                "--test" => bench.measure = false,
                a if a.starts_with('-') => {} // ignore libtest-style flags
                a => bench.filter = Some(a.to_string()),
            }
        }
        // HPM_OBS=1 benches the instrumented path (and the closing
        // summary prints the metrics snapshot); the default bench run
        // measures the disabled path the acceptance budget refers to.
        if std::env::var("HPM_OBS").is_ok_and(|v| v == "1") {
            hpm_obs::enable();
        }
        bench
    }

    /// Whether this run measures (`cargo bench`) rather than smokes
    /// (`cargo test`).
    pub fn measuring(&self) -> bool {
        self.measure
    }

    /// Runs one benchmark: once under smoke, in a timed loop under
    /// measure. The body's return value is passed through `black_box`
    /// so the computation is not optimised away.
    pub fn run<R>(
        &mut self,
        label: &str,
        throughput: Option<Throughput>,
        mut body: impl FnMut() -> R,
    ) {
        if self.filter.as_ref().is_some_and(|f| !label.contains(f)) {
            return;
        }
        self.ran += 1;
        if !self.measure {
            std::hint::black_box(body());
            println!("smoke {label} ... ok");
            return;
        }
        // Warm-up and per-iteration cost estimate: run doubling batches
        // until the batch takes >= 20 ms or we have spent ~300 ms.
        let warmup_start = Instant::now();
        let mut batch = 1u32;
        let per_iter = loop {
            let took = time(batch, &mut body);
            if took >= Duration::from_millis(20)
                || warmup_start.elapsed() >= Duration::from_millis(300)
            {
                break took.max(Duration::from_nanos(1)) / batch;
            }
            batch = batch.saturating_mul(2);
        };
        // Size each sample to ~40 ms of work, at least one iteration.
        let iters = (Duration::from_millis(40).as_nanos() / per_iter.as_nanos().max(1)).max(1);
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| time(iters as u32, &mut body).as_nanos() as f64 / iters as f64)
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[SAMPLES / 2];
        let rate = throughput.map(|t| match t {
            Throughput::Bytes(n) => format!("  {:>10.1} MiB/s", n as f64 / median / 1.048576e3),
            Throughput::Elements(n) => format!("  {:>10.0} elem/s", n as f64 / median * 1e9),
        });
        println!(
            "{label:<50} median {} (min {}, max {}){}",
            fmt_ns(median),
            fmt_ns(samples[0]),
            fmt_ns(samples[SAMPLES - 1]),
            rate.unwrap_or_default()
        );
    }

    /// Prints the closing line.
    pub fn summary(&self) {
        if self.measure {
            println!("{} benchmarks measured", self.ran);
        } else {
            println!("{} benchmark smoke tests passed", self.ran);
        }
        if hpm_obs::enabled() {
            println!("\n-- metrics (HPM_OBS=1) --");
            print!("{}", hpm_obs::snapshot());
        }
    }
}

/// Wall clock of `iters` back-to-back calls of `body`.
fn time<R>(iters: u32, body: &mut impl FnMut() -> R) -> Duration {
    let started = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(body());
    }
    started.elapsed()
}

/// The fastest of `reps` timed calls of `pass` — the least
/// noise-polluted estimate of a cost with no data-dependent variance.
/// What a pass returns is dropped after its clock stops.
pub fn best_of<R>(reps: usize, mut pass: impl FnMut() -> R) -> Duration {
    let timed = (0..reps).map(|_| {
        let started = Instant::now();
        let out = std::hint::black_box(pass());
        let took = started.elapsed();
        drop(out);
        took
    });
    timed.min().expect("at least one rep")
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_body_once() {
        let mut bench = Bench::default();
        let mut calls = 0u32;
        bench.run("one_pass", None, || calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(bench.ran, 1);
    }

    #[test]
    fn measure_mode_collects_samples() {
        let mut bench = Bench {
            measure: true,
            ..Bench::default()
        };
        let mut calls = 0u64;
        bench.run("g/sum/64", Some(Throughput::Elements(64)), || {
            calls += 1;
            (0..64u64).sum::<u64>()
        });
        assert!(calls > SAMPLES as u64);
        assert_eq!(bench.ran, 1);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut bench = Bench {
            filter: Some("wanted".to_string()),
            ..Bench::default()
        };
        let mut calls = 0u32;
        bench.run("unrelated", None, || calls += 1);
        bench.run("the_wanted_one", None, || calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(bench.ran, 1);
    }

    #[test]
    fn best_of_times_every_rep_and_keeps_the_fastest() {
        let mut reps = 0u32;
        let started = Instant::now();
        let best = best_of(3, || reps += 1);
        assert_eq!(reps, 3);
        assert!(best <= started.elapsed());
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(512.0), "512 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(999_000.0), "999.00 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.00 ms");
    }
}
