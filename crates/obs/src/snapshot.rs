//! Point-in-time copies of the registry with stable text and JSON
//! renders — the operator surface documented in
//! `docs/OBSERVABILITY.md`.

use crate::json::escape;
use crate::metrics::{bucket_upper_bound, registry, Unit, BUCKETS};
use std::fmt;

/// A copied histogram: plain integers, safe to merge and serialise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The metric's name.
    pub name: String,
    /// What the samples measure.
    pub unit: Unit,
    /// Samples recorded.
    pub count: u64,
    /// Wrapping sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` sentinel while empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Power-of-two buckets; bucket `i` counts samples with
    /// `floor(log2(max(v, 1))) == i`, clamped into the last bucket.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// An empty snapshot (the merge identity).
    pub fn empty(name: impl Into<String>, unit: Unit) -> Self {
        HistogramSnapshot {
            name: name.into(),
            unit,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Combines two snapshots of the same metric (shards, intervals,
    /// processes). Counts and sums add (the sum wraps, which keeps the
    /// operation associative), extrema widen. The left-hand name/unit
    /// win; merging different metrics is a caller bug but not UB.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.name.clone(),
            unit: self.unit,
            count: self.count.wrapping_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            buckets: std::array::from_fn(|i| self.buckets[i].wrapping_add(other.buckets[i])),
        }
    }

    /// Upper-bound estimate of the `q`-quantile (0 ≤ q ≤ 1): the
    /// inclusive upper bound of the first bucket whose cumulative
    /// count reaches `q · count` (so the true quantile is at most one
    /// power of two below). 0 while empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // The max is a tighter bound than the last bucket's lid.
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn render_json(&self, out: &mut String) {
        use std::fmt::Write;
        let min = if self.count == 0 { 0 } else { self.min };
        write!(
            out,
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"count\":{},\"sum\":{},\"min\":{min},\"max\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
            escape(&self.name),
            self.unit.as_str(),
            self.count,
            self.sum,
            self.max,
            self.quantile(0.5),
            self.quantile(0.99),
        )
        .expect("write to String");
        let mut first = true;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            write!(out, "[{},{b}]", bucket_upper_bound(i)).expect("write to String");
        }
        out.push_str("]}");
    }
}

/// Everything the registry held at one instant, name-sorted so renders
/// are stable across runs and diffable across builds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(String, i64)>,
    /// Every registered histogram — value histograms (unit `count` /
    /// `bytes`) and span latency histograms (unit `ns`) alike.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's total, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// A gauge's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A histogram's snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The stable JSON render (schema documented in
    /// `docs/OBSERVABILITY.md`; shape-checked by `hpm-cli`'s e2e
    /// suite).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256 + 128 * self.histograms.len());
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":{v}", escape(name)).expect("write to String");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{}\":{v}", escape(name)).expect("write to String");
        }
        out.push_str("},\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            h.render_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    /// The stable text render: one line per metric, sections in
    /// counter/gauge/histogram order, names sorted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter    {name:<40} {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "gauge      {name:<40} {v}")?;
        }
        for h in &self.histograms {
            writeln!(
                f,
                "histogram  {:<40} unit={} count={} mean={:.1} p50<={} p99<={} max={}",
                h.name,
                h.unit.as_str(),
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max,
            )?;
        }
        Ok(())
    }
}

/// Copies every registered metric out of the process-wide registry.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    registry().visit(
        |c| snap.counters.push((c.name().to_string(), c.value())),
        |g| snap.gauges.push((g.name().to_string(), g.value())),
        |h| snap.histograms.push(h.snapshot()),
    );
    snap.counters.sort();
    snap.gauges.sort();
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::empty("h", Unit::Count);
        for &v in values {
            h.buckets[crate::metrics::bucket_index(v)] += 1;
            h.count += 1;
            h.sum = h.sum.wrapping_add(v);
            h.min = h.min.min(v);
            h.max = h.max.max(v);
        }
        h
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let h = sample(&[1, 2, 3, 100]);
        assert!(h.quantile(0.5) >= 2 && h.quantile(0.5) <= 3);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(HistogramSnapshot::empty("e", Unit::Nanos).quantile(0.5), 0);
    }

    #[test]
    fn merge_is_commutative_here() {
        let a = sample(&[1, 2]);
        let b = sample(&[1000]);
        assert_eq!(a.merge(&b).count, 3);
        let (ab, ba) = (a.merge(&b), b.merge(&a));
        assert_eq!(ab.buckets, ba.buckets);
        assert_eq!(ab.sum, ba.sum);
        assert_eq!((ab.min, ab.max), (1, 1000));
    }

    #[test]
    fn snapshot_renders_stable_json_and_text() {
        let _guard = crate::serial();
        crate::enable();
        crate::counter!("obs.test.snap_counter").add(3);
        crate::gauge!("obs.test.snap_gauge").set(-2);
        crate::histogram!("obs.test.snap_hist").record(9);
        let snap = snapshot();
        crate::disable();

        assert_eq!(snap.counter("obs.test.snap_counter"), Some(3));
        assert_eq!(snap.gauge("obs.test.snap_gauge"), Some(-2));
        assert_eq!(snap.histogram("obs.test.snap_hist").unwrap().count, 1);
        assert!(snap.counter("missing").is_none());

        let text = snap.to_string();
        assert!(text.contains("counter    obs.test.snap_counter"));
        assert!(text.contains("gauge      obs.test.snap_gauge"));

        // The JSON render parses back and carries the same values.
        let json = crate::json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("obs.test.snap_counter"))
                .and_then(crate::json::Json::as_f64),
            Some(3.0)
        );
        let hists = json
            .get("histograms")
            .and_then(crate::json::Json::as_array)
            .unwrap();
        assert!(hists.iter().any(
            |h| h.get("name").and_then(crate::json::Json::as_str) == Some("obs.test.snap_hist")
        ));

        // Names come out sorted.
        let names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        crate::reset();
    }
}
