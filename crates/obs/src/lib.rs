//! Observability for the serving path (extension beyond the paper):
//! spans timed on the monotonic clock, atomic counters/gauges, and
//! fixed-bucket latency/value histograms behind a near-zero-cost
//! disabled path.
//!
//! The paper motivates its index with per-stage cost breakdowns
//! (Fig. 10's query response time, Fig. 11b's nodes-visited search
//! cost); this crate makes those breakdowns available *in production*
//! rather than only in the bench harness. No registry crates exist on
//! the offline dependency list (no `tracing`, no `metrics`), so
//! everything here is `std`-only.
//!
//! Instrumentation is **off by default** and globally switched by one
//! atomic flag: while disabled, a counter update is a single relaxed
//! load and branch, and a span neither reads the clock nor creates a
//! guard. Call [`enable`] (the CLI's `--metrics` flags
//! and `HPM_OBS=1` in the bench harness do) and the same call sites
//! start recording.
//!
//! ```
//! use hpm_obs as obs;
//!
//! obs::enable();
//! {
//!     let _span = obs::span!("doc.example.op");
//!     obs::counter!("doc.example.hits").add(1);
//!     obs::histogram!("doc.example.batch").record(17);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("doc.example.hits"), Some(1));
//! assert!(snap.to_json().contains("doc.example.op"));
//! obs::disable();
//! ```
//!
//! Naming convention: `crate.module.op`, lowercase, dot-separated (see
//! `docs/OBSERVABILITY.md` for the full catalogue and
//! `CONTRIBUTING.md` for when to add a counter vs a histogram).

#![forbid(unsafe_code)]

pub mod json;
mod metrics;
mod snapshot;
mod span;

pub use metrics::{registry, Counter, Gauge, Histogram, Kind, MetricDef, Registry, Unit, BUCKETS};
pub use snapshot::{snapshot, HistogramSnapshot, MetricsSnapshot};
pub use span::SpanGuard;

use std::sync::atomic::{AtomicBool, Ordering};

/// The global instrumentation switch. Relaxed is enough: metrics are
/// monotone diagnostics, not synchronisation.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns instrumentation on process-wide.
#[inline]
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns instrumentation off process-wide. Already-recorded values
/// stay in the registry (use [`reset`] to zero them).
#[inline]
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether instrumentation is currently on. This is the only cost the
/// disabled path pays at every call site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every registered counter, gauge, and histogram (the metrics
/// stay registered). Intended for test harnesses and long-lived
/// servers emitting per-interval deltas; concurrent recorders may land
/// updates on either side of the sweep.
pub fn reset() {
    registry().reset();
}

/// Serialises callers that toggle the process-wide switch or read
/// registry deltas: the test harness runs tests on parallel threads,
/// and a delta is exact only while no other instrumented work runs
/// beside it.
pub fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// An updatable handle to the named [`Counter`], registered on first
/// use and cached in a per-call-site static thereafter.
///
/// The name must be a `&'static str` (conventionally a literal or a
/// `pub const`, so the catalogue in `docs/OBSERVABILITY.md` stays
/// greppable).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// An updatable handle to the named [`Gauge`]; see [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// An updatable handle to the named value [`Histogram`] (unit
/// [`Unit::Count`] unless one is given); see [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {
        $crate::histogram!($name, $crate::Unit::Count)
    };
    ($name:expr, $unit:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::registry().histogram($name, $unit))
    }};
}

/// Opens a timed span over the rest of the enclosing block: binds a
/// guard whose drop records the elapsed nanoseconds into the span's
/// latency histogram (unit [`Unit::Nanos`]) as one sample.
///
/// Disabled mode neither reads the clock nor creates a guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        if $crate::enabled() {
            Some($crate::SpanGuard::enter(*SLOT.get_or_init(|| {
                $crate::registry().histogram($name, $crate::Unit::Nanos)
            })))
        } else {
            None
        }
    }};
}

/// Declares a crate's metrics once. Each entry is a doc comment and
/// `counter | gauge | histogram[Unit] | span NAME = "crate.module.op";`
/// and the block expands to the `pub const NAME: &str` the call sites
/// use, a `pub const CATALOG: &[MetricDef]` of every entry, and a
/// `pub fn register()` that registers them all — after calling each
/// function a leading `#![extends(path::to::register, …)]` names.
///
/// ```
/// mod metrics {
///     hpm_obs::catalog! {
///         /// Requests served.
///         counter REQUESTS = "doc.catalog.requests";
///         /// Payload sizes.
///         histogram[Bytes] PAYLOAD = "doc.catalog.payload";
///         /// Latency span around one request.
///         span REQUEST_SPAN = "doc.catalog.request";
///     }
/// }
/// metrics::register();
/// assert_eq!(metrics::CATALOG.len(), 3);
/// assert_eq!(hpm_obs::snapshot().counter(metrics::REQUESTS), Some(0));
/// ```
#[macro_export]
macro_rules! catalog {
    (@kind counter) => { $crate::Kind::Counter };
    (@kind gauge) => { $crate::Kind::Gauge };
    (@kind span) => { $crate::Kind::Histogram($crate::Unit::Nanos) };
    (@kind histogram $unit:ident) => { $crate::Kind::Histogram($crate::Unit::$unit) };
    (
        $(#![extends($($dep:path),+)])?
        $($(#[$doc:meta])* $kind:ident $([$unit:ident])? $name:ident = $value:literal;)*
    ) => {
        $($(#[$doc])* pub const $name: &str = $value;)*

        /// Every metric declared above, as registered.
        pub const CATALOG: &[$crate::MetricDef] = &[$($crate::MetricDef {
            name: $name,
            kind: $crate::catalog!(@kind $kind $($unit)?),
        }),*];

        /// Registers the whole catalogue so snapshots cover it even
        /// before the first update (zero-valued metrics are still
        /// listed).
        pub fn register() {
            $($($dep();)+)?
            CATALOG.iter().for_each($crate::MetricDef::register);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggleable() {
        let _guard = crate::serial();
        disable();
        assert!(!enabled());
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
    }

    #[test]
    fn disabled_counter_does_not_record() {
        let _guard = crate::serial();
        disable();
        let c = counter!("obs.test.disabled_counter");
        c.add(7);
        assert_eq!(c.value(), 0);
        enable();
        c.add(7);
        assert_eq!(c.value(), 7);
        disable();
        c.reset();
    }

    #[test]
    fn disabled_span_is_noop() {
        let _guard = crate::serial();
        disable();
        let span = span!("obs.test.disabled_span");
        assert!(span.is_none());
        assert!(snapshot().histogram("obs.test.disabled_span").is_none());
    }

    #[test]
    fn macro_handles_are_cached_per_call_site() {
        let _guard = crate::serial();
        let a = counter!("obs.test.cached");
        let b = counter!("obs.test.cached");
        // Two call sites, one underlying metric.
        assert!(std::ptr::eq(a, b));
    }
}
