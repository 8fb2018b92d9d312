//! The statistics the benchmark owns: exact percentiles over raw
//! samples, medians of equal-count windows, the sample-count guard, and
//! the quartile spread the A/A study judges repeatability by.
//!
//! Nothing here goes through `hpm-obs` histograms: their power-of-two
//! buckets report a p50 as a bucket ceiling (`2^21 − 1`), which is what
//! made earlier numbers unrepeatable.

use std::fmt;

/// Fewest samples a phase needs before a p95 (or anything above it)
/// may be reported: 50 samples lie beyond a p95 of 1,000.
pub const MIN_TAIL_SAMPLES: usize = 1_000;

/// Windows a timed phase is cut into for a median-of-windows rate.
pub const WINDOWS: usize = 5;

/// A tail percentile was asked of a phase that is too short to have one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples the phase collected.
    pub have: usize,
    /// Samples the percentile needs.
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} samples, {} needed", self.have, self.need)
    }
}

/// Latency samples of one op kind in one phase, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Takes ownership of raw samples (any order).
    pub fn new(mut raw: Vec<u64>) -> Self {
        raw.sort_unstable();
        Samples { sorted: raw }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `p` percent of the samples at or below it. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.sorted[rank.clamp(1, n) - 1])
    }

    /// The median, in milliseconds. `None` when empty.
    pub fn p50_ms(&self) -> Option<f64> {
        self.percentile(50.0).map(ns_to_ms)
    }

    /// A tail percentile (`p >= 95`), in milliseconds, refused unless
    /// the phase holds [`MIN_TAIL_SAMPLES`].
    pub fn tail_ms(&self, p: f64) -> Result<f64, TooFewSamples> {
        if self.sorted.len() < MIN_TAIL_SAMPLES {
            return Err(TooFewSamples {
                have: self.sorted.len(),
                need: MIN_TAIL_SAMPLES,
            });
        }
        Ok(ns_to_ms(self.percentile(p).expect("non-empty")))
    }
}

/// Nanoseconds as fractional milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The median of `values` (mean of the middle two when even). `None`
/// when empty or when any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Splits `n` items into `windows` contiguous index ranges of equal
/// count (the remainder is dropped from the end, so every window holds
/// the same amount of work). Empty when `n < windows`.
pub fn equal_windows(n: usize, windows: usize) -> Vec<std::ops::Range<usize>> {
    let per = n / windows;
    if per == 0 {
        return Vec::new();
    }
    (0..windows).map(|w| w * per..(w + 1) * per).collect()
}

/// Closed-loop throughput as the median over equal-count windows:
/// `done_ns[i]` is when item `i` completed (phase-relative, ascending)
/// and each item carries `units` of work. A window's rate is its units
/// over the time from the previous window's last completion to its own
/// (the first window starts at 0). Robust to a stall that lands in one
/// window, which total/elapsed is not.
pub fn median_window_rate(done_ns: &[u64], units: u64) -> Option<f64> {
    let rates: Vec<f64> = equal_windows(done_ns.len(), WINDOWS)
        .into_iter()
        .map(|w| {
            let from = if w.start == 0 {
                0
            } else {
                done_ns[w.start - 1]
            };
            let elapsed = done_ns[w.end - 1].saturating_sub(from).max(1);
            (w.len() as u64 * units) as f64 / (elapsed as f64 / 1e9)
        })
        .collect();
    median(&rates)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([at(1), at(2), at(3)])
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark's contract bounds. `None` when undefined.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        // 1..=100: nearest rank p-th percentile is p itself.
        let s = Samples::new((1..=100u64).rev().collect());
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.percentile(95.0), Some(95));
        assert_eq!(s.percentile(99.0), Some(99));
        assert_eq!(s.percentile(100.0), Some(100));
        assert_eq!(s.percentile(0.0), Some(1));
        // Five samples: p50 is the 3rd, p95 the 5th (ceil(4.75)).
        let s = Samples::new(vec![50, 10, 40, 20, 30]);
        assert_eq!(s.percentile(50.0), Some(30));
        assert_eq!(s.percentile(95.0), Some(50));
        assert_eq!(s.percentile(20.0), Some(10));
        assert_eq!(s.percentile(20.1), Some(20));
    }

    #[test]
    fn percentile_is_a_sample_not_a_bucket_ceiling() {
        // The value an hpm-obs histogram would report for this sample
        // set is 2^21 − 1; the exact percentile is the sample itself.
        let s = Samples::new(vec![1_500_000; 1_001]);
        assert_eq!(s.percentile(50.0), Some(1_500_000));
        assert_eq!(s.p50_ms(), Some(1.5));
        assert_ne!(s.percentile(50.0), Some((1 << 21) - 1));
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        let s = Samples::new(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.p50_ms(), None);
    }

    #[test]
    fn tail_is_refused_below_a_thousand_samples() {
        let short = Samples::new((0..999).collect());
        assert_eq!(
            short.tail_ms(95.0),
            Err(TooFewSamples {
                have: 999,
                need: 1_000
            })
        );
        assert!(short.p50_ms().is_some(), "the median has no such guard");
        let enough = Samples::new((1..=1_000).map(|i| i * 1_000_000).collect());
        assert_eq!(enough.tail_ms(95.0), Ok(950.0));
        assert_eq!(enough.tail_ms(99.0), Ok(990.0));
    }

    #[test]
    fn median_handles_odd_even_and_nan() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn windows_hold_equal_counts_and_drop_the_remainder() {
        let w = equal_windows(23, WINDOWS);
        assert_eq!(w.len(), WINDOWS);
        assert!(w.iter().all(|r| r.len() == 4));
        assert_eq!(w.last().unwrap().end, 20);
        assert!(equal_windows(4, WINDOWS).is_empty());
    }

    #[test]
    fn window_median_ignores_a_stall_that_total_over_elapsed_does_not() {
        // Ten items per window, one item per millisecond, except that
        // the third window stalls for a whole second.
        let mut done = Vec::new();
        let mut t = 0u64;
        for i in 0..50 {
            t += 1_000_000;
            if i == 25 {
                t += 1_000_000_000;
            }
            done.push(t);
        }
        let rate = median_window_rate(&done, 1).unwrap();
        assert!((rate - 1_000.0).abs() < 1e-6, "median window rate {rate}");
        let naive = 50.0 / (t as f64 / 1e9);
        assert!(naive < 50.0, "total/elapsed is dragged to {naive}");
        // Units scale the rate.
        let scaled = median_window_rate(&done, 64).unwrap();
        assert!((scaled - 64_000.0).abs() < 1e-3);
        assert_eq!(median_window_rate(&done[..3], 1), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!((q[0] - 2.75).abs() < 1e-12);
        assert!((q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let q = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert_eq!(q, [1.0, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!(q, [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[1.0]), None);
        let spread = iqr_share(&v).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }
}
