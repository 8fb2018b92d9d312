//! Every metric the benchmark reports, by name: the end-to-end metrics
//! (`--trace 0`; every workload measures every one, and `BENCHMARK.json`
//! bounds them) and the per-layer set of the traced run (`--trace 1`).
//! A unit test holds `BENCHMARK.json` to these tables.

use crate::ops::Kind;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The bound a time-derived metric would carry: a tenth, the most the
/// benchmark allows itself. A metric that does not repeat within it is
/// reported per layer, not given a wider bound.
pub const TIME_BOUND: f64 = 0.10;

/// An end-to-end metric: bounded by the driver when it is in
/// [`END_TO_END`], reported with the per-layer metrics when it is in
/// [`DEMOTED`].
#[derive(Debug, Clone, Copy)]
pub struct Gated {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the reference median by which it may worsen.
    pub bound: f64,
    /// What it is.
    pub definition: &'static str,
}

const fn lower(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    definition: &'static str,
) -> Gated {
    Gated {
        name,
        unit,
        better: Better::Lower,
        bound,
        definition,
    }
}

const fn higher(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    definition: &'static str,
) -> Gated {
    Gated {
        better: Better::Higher,
        ..lower(name, unit, bound, definition)
    }
}

/// The end-to-end metrics the driver bounds. Every workload measures
/// every one of them on its own fleet, and none is a time except the
/// one the driver's contract requires: on the sandbox the benchmark was
/// defined on no time repeats within a tenth (see [`DEMOTED`]).
pub const END_TO_END: [Gated; 4] = [
    // The contract asks for set-up time among the bounded metrics, with
    // the largest bound: the one time here, and the one bound above a
    // tenth.
    lower(
        "setup_s",
        "s",
        0.25,
        "one complete set-up — fleet generation, durable bulk load, training, serving, first \
         indexed query answered — median of 3 from-scratch set-ups",
    ),
    lower(
        "disk_bytes_per_report",
        "B",
        0.005,
        "bytes in the data dir (WAL + snapshot) / reports acknowledged; exact",
    ),
    // A fleet's bytes are mostly its commuters' models, whose sizes
    // follow the seed: ten seeds spread up to 0.84% between quartiles.
    lower(
        "mem_bytes_per_object",
        "B",
        0.03,
        "store.mem.bytes_per_object pulled over the Metrics verb once the store is quiescent",
    ),
    // Exact for a seed; the driver takes its ten runs with ten seeds,
    // and ten fleets' mean errors spread 1-4% between their quartiles.
    lower(
        "predict_err_mean",
        "units",
        0.10,
        "the paper's error: mean Euclidean distance from the top-1 answer to the generator's \
         held-out true position, fixed 65,536-query sample asked at rest; exact for a seed",
    ),
];

/// The end-to-end metrics of the issue that the driver does not bound
/// (rule 7: demotion, not widening). Each is measured by the workloads
/// whose own traffic measures it, printed by every run, reported with
/// the per-layer metrics (0 from a workload that does not measure it),
/// and judged by `sysbench --aa` against the bound it would carry. Why:
/// on the defining sandbox ten runs of one binary spread every one of
/// them more than that bound between their quartiles whenever the host
/// is busy (README, "What repeats"), and the contract lists one metric
/// set for all workloads while only its own workload's traffic
/// measures each.
pub const DEMOTED: [Gated; 12] = [
    higher(
        "ingest_reports_per_s",
        "1/s",
        TIME_BOUND,
        "closed-loop report_many rate (frames of 1,024, 4 in flight); median of 5 equal-count \
         windows of the timed feed",
    ),
    lower(
        "recover_s",
        "s",
        TIME_BOUND,
        "MovingObjectStore::open on the directory left behind; median of 3 reopens, each on \
         its own copy (one reopen where the feed is not the workload's own)",
    ),
    higher(
        "predict_qps",
        "1/s",
        TIME_BOUND,
        "pipelined predict_batch queries/s (frames of 64, 8 in flight); median of 5 \
         equal-count windows",
    ),
    lower(
        "range_p50_ms",
        "ms",
        TIME_BOUND,
        "one predict_range round trip, one in flight, median",
    ),
    lower(
        "range_p95_ms",
        "ms",
        TIME_BOUND,
        "one predict_range round trip, one in flight, p95",
    ),
    lower(
        "knn_p50_ms",
        "ms",
        TIME_BOUND,
        "one predict_nearest (k = 10) round trip, one in flight, median",
    ),
    lower(
        "knn_p95_ms",
        "ms",
        TIME_BOUND,
        "one predict_nearest (k = 10) round trip, one in flight, p95",
    ),
    lower(
        "within_p50_ms",
        "ms",
        TIME_BOUND,
        "one predict_within (tau = 0.5) round trip, one in flight, median",
    ),
    lower(
        "index_first_flush_s",
        "s",
        TIME_BOUND,
        "round trip of the first indexed query after a bulk load (it refits every envelope); \
         median of 3 fresh loads",
    ),
    lower(
        "live_predict_p95_ms",
        "ms",
        TIME_BOUND,
        "predict_batch(16) latency from its due time at the fixed rate, p95",
    ),
    lower(
        "live_range_p95_ms",
        "ms",
        TIME_BOUND,
        "predict_range latency from its due time while reports keep dirtying envelopes, p95",
    ),
    lower(
        "live_ingest_ack_p95_ms",
        "ms",
        TIME_BOUND,
        "report_many(200) ack latency from its due time (inline retrains and WAL group \
         commits included), p95",
    ),
];

/// A metric of a single layer: reported, never bounded.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The per-layer metrics, in print order: the demoted end-to-end
/// metrics, then the layers. Every workload reports all of them; one
/// it does not measure, or a layer it never enters, reports 0.
pub fn per_layer() -> Vec<Layer> {
    let lower = |name: &str, unit| Layer {
        name: name.to_string(),
        unit,
        better: Better::Lower,
    };
    let mut out: Vec<Layer> = DEMOTED
        .iter()
        .map(|m| Layer {
            name: m.name.to_string(),
            unit: m.unit,
            better: m.better,
        })
        .collect();
    for kind in Kind::ALL {
        for rung in ["wire", "server.proto", "objectstore", "server.transport"] {
            out.push(lower(&format!("{rung}.{}.ns", kind.name()), "ns"));
        }
    }
    for source in ["fqp", "bqp", "fallback"] {
        out.push(lower(&format!("core.predict.{source}.ns"), "ns"));
    }
    for source in ["fqp", "bqp", "fallback"] {
        out.push(Layer {
            name: format!("core.predict.{source}.share"),
            unit: "share",
            // More pattern answers and fewer fallbacks is the point of
            // the hybrid.
            better: if source == "fallback" {
                Better::Lower
            } else {
                Better::Higher
            },
        });
    }
    for (name, unit) in [
        ("tpt.search.ns", "ns"),
        ("tpt.search.nodes_per_query", "count"),
        ("objectstore.predict.overhead.ns", "ns"),
        ("store.wal.append.ns", "ns"),
        ("store.wal.bytes_per_record", "B"),
        ("trajectory.append.ns", "ns"),
        ("core.train.full.ns", "ns"),
        ("core.train.incremental.ns", "ns"),
        ("objectstore.retrains.per_kreport", "count"),
        ("store.wal.scan.ns", "ns"),
        ("store.snapshot.decode.ns", "ns"),
        ("store.snapshot.encode.ns", "ns"),
        ("objectstore.open.rebuild.ns", "ns"),
        ("objectstore.index.flush.ns_per_object", "ns"),
        ("objectstore.index.candidates_per_result.range", "count"),
        ("objectstore.index.candidates_per_result.knn", "count"),
        ("objectstore.index.candidates_per_result.within", "count"),
    ] {
        out.push(lower(name, unit));
    }
    out.push(Layer {
        name: "objectstore.index.pruned_share".to_string(),
        unit: "share",
        better: Better::Higher,
    });
    for (name, unit) in [
        ("objectstore.index.dirty_per_query", "count"),
        ("gen.late_p95_ms", "ms"),
        ("gen.backlog_max", "count"),
        ("live.over_limit_share", "share"),
        ("ingest_frame_p99_ms", "ms"),
        ("predict_frame_p99_ms", "ms"),
        ("range_p99_ms", "ms"),
        ("knn_p99_ms", "ms"),
        ("within_p99_ms", "ms"),
        ("live_predict_p99_ms", "ms"),
        ("live_range_p99_ms", "ms"),
        ("live_ingest_ack_p99_ms", "ms"),
        ("obs.overhead.share", "share"),
    ] {
        out.push(lower(name, unit));
    }
    out
}

/// `--seconds` the driver passes: the length every workload's own
/// phase is sized for.
pub const RUN_SECONDS: u64 = 10;

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_obs::json::{parse, Json};
    use std::collections::BTreeSet;

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(on_disk.len() <= 64 * 1024);
        let json = parse(&on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&String> = json.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let rows = |key: &str| json.get(key).and_then(Json::as_array).unwrap().to_vec();
        let listed: Vec<(String, String, String, Option<f64>)> = rows("end_to_end")
            .iter()
            .map(|r| {
                (
                    field(r, "name").to_string(),
                    field(r, "unit").to_string(),
                    field(r, "better").to_string(),
                    r.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.word().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(listed, expected);
        let listed: Vec<(String, String, String)> = rows("per_layer")
            .iter()
            .map(|r| {
                (
                    field(r, "name").to_string(),
                    field(r, "unit").to_string(),
                    field(r, "better").to_string(),
                )
            })
            .collect();
        let expected: Vec<_> = per_layer()
            .into_iter()
            .map(|l| (l.name, l.unit.to_string(), l.better.word().to_string()))
            .collect();
        assert_eq!(listed, expected);
        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (field(w, "name").to_string(), field(w, "why").to_string()))
            .collect();
        let expected: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(listed, expected);
    }

    #[test]
    fn names_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let all = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .chain(layers.iter().map(|l| (l.name.clone(), l.unit)));
        for (name, unit) in all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(seen.insert(name.clone()), "{name} is listed twice");
        }
        for m in END_TO_END {
            // The contract asks for set-up time, with the largest bound.
            let ceiling = if m.name == "setup_s" {
                0.25
            } else {
                TIME_BOUND
            };
            assert!(m.bound <= ceiling, "{}: bound above {ceiling}", m.name);
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        // The issue's sixteen end-to-end metrics, gated or demoted.
        assert_eq!(END_TO_END.len() + DEMOTED.len(), 16);
    }
}
