//! The metric primitives and the process-wide registry.
//!
//! All three primitives are lock-free on the update path (plain atomic
//! ops with relaxed ordering) and gate on [`crate::enabled`] so the
//! disabled path costs one load and branch. Registration — the only
//! locking operation — happens once per call site via the macros in
//! the crate root.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Relaxed everywhere: metrics are diagnostics, not synchronisation.
const ORD: Ordering = Ordering::Relaxed;

/// Number of histogram buckets: powers of two from `[0, 2)` up to an
/// open-ended `[2^39, ∞)` overflow bucket — 2^39 ns ≈ 9 minutes, far
/// beyond any per-query stage, and comfortably past any candidate-set
/// or byte count this system produces.
pub const BUCKETS: usize = 40;

/// What a histogram's samples measure; fixes how renders label them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless sizes (candidate counts, node visits).
    Count,
    /// Monotonic-clock durations in nanoseconds (span latencies).
    Nanos,
    /// Payload sizes in bytes.
    Bytes,
}

impl Unit {
    /// Stable lowercase label used by both renders.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Nanos => "ns",
            Unit::Bytes => "bytes",
        }
    }
}

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The metric's name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events; a no-op while instrumentation is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, ORD);
        }
    }

    /// The current total.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value.load(ORD)
    }

    /// Zeroes the counter (see [`crate::reset`]).
    pub fn reset(&self) {
        self.value.store(0, ORD);
    }
}

/// A value that can move both ways (live object counts, index sizes).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
}

impl Gauge {
    fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicI64::new(0),
        }
    }

    /// The metric's name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the gauge; a no-op while instrumentation is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, ORD);
        }
    }

    /// Moves the gauge by `delta` (negative to decrease); a no-op
    /// while instrumentation is disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            self.value.fetch_add(delta, ORD);
        }
    }

    /// The current value.
    #[inline]
    pub fn value(&self) -> i64 {
        self.value.load(ORD)
    }

    /// Zeroes the gauge (see [`crate::reset`]).
    pub fn reset(&self) {
        self.value.store(0, ORD);
    }
}

/// A fixed-bucket power-of-two histogram.
///
/// Bucket `i` counts samples `v` with `floor(log2(max(v, 1))) == i`,
/// clamped into the last bucket — i.e. `[0, 2)`, `[2, 4)`, `[4, 8)`, …
/// with an open-ended overflow bucket. Two buckets per octave would
/// halve the error but double the footprint; one per octave is enough
/// to tell a 2 µs stage from a 200 µs one, which is what per-stage
/// latency attribution needs.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    unit: Unit,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Wrapping sum of all samples (2^64 ns ≈ 584 years: wrap is
    /// theoretical, and wrapping keeps snapshot merge associative).
    sum: AtomicU64,
    /// `u64::MAX` sentinel while empty.
    min: AtomicU64,
    max: AtomicU64,
}

/// The bucket a value lands in.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (63 - v.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` as rendered (`u64::MAX` for the
/// overflow bucket).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh, unregistered histogram. Library code should go through
    /// the [`crate::histogram!`] / [`crate::span!`] macros; this is
    /// public for tests and custom collectors.
    pub fn new(name: &'static str, unit: Unit) -> Self {
        Histogram {
            name,
            unit,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The metric's name.
    #[inline]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// What the samples measure.
    #[inline]
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Records one sample; a no-op while instrumentation is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.record_always(v);
        }
    }

    /// Records one sample regardless of the global flag (span guards
    /// check the flag once at entry and must not lose their exit).
    #[inline]
    pub(crate) fn record_always(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, ORD);
        self.count.fetch_add(1, ORD);
        self.sum.fetch_add(v, ORD);
        self.min.fetch_min(v, ORD);
        self.max.fetch_max(v, ORD);
    }

    /// A coherent-enough copy of the current state (buckets are read
    /// one by one; concurrent recorders may straddle the read).
    pub fn snapshot(&self) -> crate::HistogramSnapshot {
        crate::HistogramSnapshot {
            name: self.name.to_string(),
            unit: self.unit,
            count: self.count.load(ORD),
            sum: self.sum.load(ORD),
            min: self.min.load(ORD),
            max: self.max.load(ORD),
            buckets: std::array::from_fn(|i| self.buckets[i].load(ORD)),
        }
    }

    /// Zeroes the histogram (see [`crate::reset`]).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, ORD);
        }
        self.count.store(0, ORD);
        self.sum.store(0, ORD);
        self.min.store(u64::MAX, ORD);
        self.max.store(0, ORD);
    }
}

/// The process-wide metric registry: name → leaked `&'static` metric.
///
/// Metrics live for the process lifetime (they are deliberately
/// leaked), so handles can be cached in call-site statics and updated
/// without any locking.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    gauges: Mutex<Vec<&'static Gauge>>,
    histograms: Mutex<Vec<&'static Histogram>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut v = lock(&self.counters);
        if let Some(c) = v.iter().find(|c| c.name == name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new(name)));
        v.push(c);
        c
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut v = lock(&self.gauges);
        if let Some(g) = v.iter().find(|g| g.name == name) {
            return g;
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge::new(name)));
        v.push(g);
        g
    }

    /// The histogram registered under `name`, creating it (with
    /// `unit`) on first use.
    ///
    /// # Panics
    /// Panics when the name is already registered under a different
    /// unit — one name must mean one thing in every render.
    pub fn histogram(&self, name: &'static str, unit: Unit) -> &'static Histogram {
        let mut v = lock(&self.histograms);
        if let Some(h) = v.iter().find(|h| h.name == name) {
            assert!(
                h.unit == unit,
                "histogram `{name}` registered under two units ({:?} vs {unit:?})",
                h.unit
            );
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new(name, unit)));
        v.push(h);
        h
    }

    pub(crate) fn visit(
        &self,
        mut counters: impl FnMut(&'static Counter),
        mut gauges: impl FnMut(&'static Gauge),
        mut histograms: impl FnMut(&'static Histogram),
    ) {
        for c in lock(&self.counters).iter() {
            counters(c);
        }
        for g in lock(&self.gauges).iter() {
            gauges(g);
        }
        for h in lock(&self.histograms).iter() {
            histograms(h);
        }
    }

    pub(crate) fn reset(&self) {
        self.visit(Counter::reset, Gauge::reset, Histogram::reset);
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// How a catalogued metric registers. A span is a
/// `Histogram(Unit::Nanos)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram(Unit),
}

/// One row of a crate's metric catalogue (see [`crate::catalog!`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The `crate.module.op` name.
    pub name: &'static str,
    /// Which primitive carries it.
    pub kind: Kind,
}

impl MetricDef {
    /// Registers the metric, so snapshots list it (zero-valued) before
    /// its first update.
    pub fn register(&self) {
        match self.kind {
            Kind::Counter => drop(registry().counter(self.name)),
            Kind::Gauge => drop(registry().gauge(self.name)),
            Kind::Histogram(unit) => drop(registry().histogram(self.name, unit)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_their_index() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i);
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
        }
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_records_and_resets() {
        let _guard = crate::serial();
        crate::enable();
        let h = Histogram::new("obs.test.hist", Unit::Count);
        for v in [0, 1, 5, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1011);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
        h.reset();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        crate::disable();
    }

    #[test]
    fn gauge_moves_both_ways() {
        let _guard = crate::serial();
        crate::enable();
        let g = registry().gauge("obs.test.gauge");
        g.reset();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
        g.reset();
        crate::disable();
    }

    #[test]
    fn registry_dedupes_by_name() {
        let a = registry().counter("obs.test.dedupe");
        let b = registry().counter("obs.test.dedupe");
        assert!(std::ptr::eq(a, b));
        let h1 = registry().histogram("obs.test.dedupe_h", Unit::Bytes);
        let h2 = registry().histogram("obs.test.dedupe_h", Unit::Bytes);
        assert!(std::ptr::eq(h1, h2));
    }

    #[test]
    #[should_panic(expected = "two units")]
    fn unit_conflict_rejected() {
        registry().histogram("obs.test.unit_conflict", Unit::Bytes);
        registry().histogram("obs.test.unit_conflict", Unit::Nanos);
    }
}
