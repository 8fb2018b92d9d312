//! Timed spans.
//!
//! A span is opened by the [`crate::span!`] macro and closed by its
//! guard's drop: the elapsed monotonic time lands in the span's
//! latency histogram as one sample. That sample is all a span leaves
//! behind, so a test or an operator counts spans by histogram deltas.

use crate::metrics::Histogram;
use std::time::Instant;

/// RAII guard of one open span; created by [`crate::span!`] only while
/// instrumentation is enabled.
#[derive(Debug)]
pub struct SpanGuard {
    hist: &'static Histogram,
    start: Instant,
}

impl SpanGuard {
    /// Opens the span. Callers go through [`crate::span!`], which
    /// resolves the latency histogram once per call site and skips
    /// this entirely in disabled mode.
    pub fn enter(hist: &'static Histogram) -> Self {
        SpanGuard {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let duration_ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        // The enabled check happened at entry; record unconditionally
        // so a span straddling a disable() still closes its histogram.
        self.hist.record_always(duration_ns);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn spans_feed_latency_histograms() {
        let _guard = crate::serial();
        crate::enable();
        {
            let _s = crate::span!("obs.test.latency");
        }
        let h = crate::registry().histogram("obs.test.latency", crate::Unit::Nanos);
        assert!(h.snapshot().count >= 1);
        crate::disable();
        h.reset();
    }

    #[test]
    fn nested_and_sibling_spans_each_record_one_sample() {
        let _guard = crate::serial();
        crate::enable();
        {
            let _outer = crate::span!("obs.test.outer");
            let _a = crate::span!("obs.test.inner");
            let _b = crate::span!("obs.test.inner");
        }
        crate::disable();
        let count = |name| crate::snapshot().histogram(name).map_or(0, |h| h.count);
        assert_eq!((count("obs.test.outer"), count("obs.test.inner")), (1, 2));
        crate::reset();
    }
}
