//! TPT search vs brute-force scan (Fig. 11b), plus the node-fanout
//! ablation called out in DESIGN.md, plus the Fig. 11 region-scale
//! sweep. Every search group runs against the packed image — the index
//! that serves queries; the build group times its bulk load.
//!
//! The criterion-shim groups run in both modes as before. The sweep at
//! the end uses its own harness (best-of-reps wall clock, JSON report,
//! same shape as `benches/throughput.rs`): `cargo test` runs it as a
//! tiny smoke check; `cargo bench --bench tpt_search` measures 80/400/
//! 800 frequent regions single-threaded and writes
//! `BENCH_tpt_search.json` (override with `HPM_TPT_SEARCH_OUT`).

use hpm_bench::synthetic_patterns;
use hpm_bench::{criterion_group, BenchmarkId, Criterion};
use hpm_tpt::{BruteForce, KeyTable, PackedTpt, PatternKey, SearchCursor, SearchStats};
use std::time::Instant;

/// The fanout the system runs with.
fn default_fanout() -> usize {
    hpm_core::HpmConfig::default().tpt_fanout
}

fn queries(table: &KeyTable, n: usize, regions: usize) -> Vec<PatternKey> {
    (0..n)
        .map(|i| {
            let seed = i * 7919 + 17;
            let recent =
                (0..1 + i % 3).map(|j| hpm_patterns::RegionId(((seed + j * 131) % regions) as u32));
            let offsets = table.consequence_offsets();
            table.fqp_query(recent, offsets[seed % offsets.len()])
        })
        .collect()
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("tpt_vs_brute");
    for &n in &[1_000usize, 10_000, 100_000] {
        let (set, patterns) = synthetic_patterns(n, 800, 13);
        let table = KeyTable::build(&set, patterns.iter().map(|p| p.consequence));
        let entries: Vec<_> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (table.encode_pattern(p, &set), p.confidence, i as u32))
            .collect();
        let tpt = PackedTpt::bulk_load(default_fanout(), entries.clone());
        let brute = BruteForce::from_entries(entries);
        let qs = queries(&table, 20, set.len());
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("tpt", n), &n, |b, _| {
            b.iter(|| {
                for q in &qs {
                    out.clear();
                    tpt.search_into(std::hint::black_box(q), &mut out);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("brute", n), &n, |b, _| {
            b.iter(|| {
                for q in &qs {
                    out.clear();
                    brute.search_into(std::hint::black_box(q), &mut out);
                }
            })
        });
    }
    group.finish();
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("tpt_fanout");
    let (set, patterns) = synthetic_patterns(20_000, 400, 29);
    let table = KeyTable::build(&set, patterns.iter().map(|p| p.consequence));
    let entries: Vec<_> = patterns
        .iter()
        .enumerate()
        .map(|(i, p)| (table.encode_pattern(p, &set), p.confidence, i as u32))
        .collect();
    let qs = queries(&table, 20, set.len());
    for &fanout in &[8usize, 32, 128] {
        let tpt = PackedTpt::bulk_load(fanout, entries.clone());
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::from_parameter(fanout), &fanout, |b, _| {
            b.iter(|| {
                for q in &qs {
                    out.clear();
                    tpt.search_into(std::hint::black_box(q), &mut out);
                }
            })
        });
    }
    group.finish();
}

fn bench_bulk_load(c: &mut Criterion) {
    let (set, patterns) = synthetic_patterns(5_000, 400, 31);
    let table = KeyTable::build(&set, patterns.iter().map(|p| p.consequence));
    let entries: Vec<_> = patterns
        .iter()
        .enumerate()
        .map(|(i, p)| (table.encode_pattern(p, &set), p.confidence, i as u32))
        .collect();
    c.bench_function("tpt_bulk_load_5k", |b| {
        b.iter(|| {
            std::hint::black_box(PackedTpt::bulk_load(default_fanout(), entries.clone()).len())
        })
    });
}

criterion_group!(benches, bench_search, bench_fanout, bench_bulk_load);

/// Best-of-`reps` wall-clock ns/query for one full pass over the
/// query set (single thread; one untimed warmup pass first).
fn best_ns_per_query(reps: usize, n_queries: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warmup: faults code in, grows scratch buffers
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        pass();
        best = best.min(started.elapsed().as_nanos() as f64);
    }
    best / n_queries as f64
}

/// Fig. 11 region-scale sweep: the packed TPT image vs the brute-force
/// scan over the same entries and queries, asserting equal result sets
/// before timing.
fn fig11_sweep(
    patterns_n: usize,
    n_queries: usize,
    reps: usize,
    scales: &[usize],
    report: Option<&str>,
) {
    let mut rows = Vec::new();
    for &regions in scales {
        let (set, patterns) = synthetic_patterns(patterns_n, regions, 13);
        let table = KeyTable::build(&set, patterns.iter().map(|p| p.consequence));
        let entries: Vec<_> = patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (table.encode_pattern(p, &set), p.confidence, i as u32))
            .collect();
        let packed = PackedTpt::bulk_load(default_fanout(), entries.clone());
        let brute = BruteForce::from_entries(entries);
        let qs = queries(&table, n_queries, set.len());

        // Untimed equivalence + instrumentation pass: the tree search
        // must return exactly the scan's result set.
        let mut agg = SearchStats::default();
        let mut matches_total = 0usize;
        for q in &qs {
            let (mut pm, ps) = packed.search_with_stats(q);
            pm.sort_by_key(|m| m.pattern);
            assert_eq!(pm, brute.search(q), "packed result set differs from scan");
            agg.nodes_visited += ps.nodes_visited;
            agg.entries_checked += ps.entries_checked;
            agg.false_hits += ps.false_hits;
            matches_total += pm.len();
        }
        let false_hit_rate = agg.false_hits as f64 / agg.entries_checked.max(1) as f64;

        let mut cursor = SearchCursor::new();
        let packed_ns = best_ns_per_query(reps, qs.len(), || {
            for q in &qs {
                cursor.search_packed(&packed, std::hint::black_box(q));
            }
        });
        let mut out = Vec::new();
        let brute_ns = best_ns_per_query(reps, qs.len(), || {
            for q in &qs {
                out.clear();
                brute.search_into(std::hint::black_box(q), &mut out);
            }
        });
        let speedup = brute_ns / packed_ns;
        println!(
            "  {regions:>4} regions: packed {packed_ns:>9.1} ns/q, brute {brute_ns:>11.1} ns/q \
             ({speedup:.1}x), false-hit rate {false_hit_rate:.4}"
        );
        rows.push(format!(
            "    {{\"regions\": {regions}, \"packed_ns_per_query\": {packed_ns:.1}, \
             \"brute_ns_per_query\": {brute_ns:.1}, \"speedup\": {speedup:.3}, \
             \"matches\": {matches_total}, \"nodes_visited\": {}, \
             \"entries_checked\": {}, \"false_hits\": {}, \
             \"false_hit_rate\": {false_hit_rate:.5}}}",
            agg.nodes_visited, agg.entries_checked, agg.false_hits
        ));
    }

    if let Some(path) = report {
        // Hand-built JSON: the workspace is hermetic (no serde).
        let json = format!(
            "{{\n  \"bench\": \"tpt_search_fig11\",\n  \"patterns\": {patterns_n},\n  \
             \"queries\": {n_queries},\n  \"reps\": {reps},\n  \
             \"methodology\": \"single thread; the packed TPT image (bulk load) \
             and the brute-force scan hold identical entries; per scale the full query set \
             runs once untimed asserting the packed result set equal to the scan's and \
             aggregating SearchStats, then each index is timed as best-of-{reps} wall-clock \
             passes over the set after one warmup pass; ns/query = best pass / query count; \
             speedup = brute / packed; false-hit rate = false_hits / entries_checked \
             aggregated over the set\",\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        std::fs::write(path, json).expect("write tpt_search report");
        println!("wrote {path}");
    }
}

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    c.final_summary();
    let measure_mode = std::env::args().any(|a| a == "--bench");
    if !measure_mode {
        // Smoke (cargo test): prove the sweep path works, no report.
        fig11_sweep(500, 16, 1, &[80], None);
        println!("fig11 sweep smoke test passed");
        return;
    }
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tpt_search.json");
    let out = std::env::var("HPM_TPT_SEARCH_OUT").unwrap_or_else(|_| default_out.into());
    fig11_sweep(20_000, 64, 5, &[80, 400, 800], Some(&out));
}
