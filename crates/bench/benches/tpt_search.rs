//! TPT search vs brute-force scan (Fig. 11b), plus the node-fanout
//! ablation called out in DESIGN.md, plus the Fig. 11 region-scale
//! sweep. Every search group runs against the packed image — the index
//! that serves queries; the build group times its bulk load.
//!
//! The labelled groups run through [`Bench::run`] in both modes. The
//! sweep at the end times whole passes with [`best_of`] and reports
//! JSON: `cargo test` runs it as a tiny smoke check (report rendered
//! and parsed, not written); `cargo bench --bench tpt_search` measures
//! 80/400/800 frequent regions single-threaded and writes
//! `BENCH_tpt_search.json` (`HPM_BENCH_OUT` overrides the directory).

use hpm_bench::report::{num, obj, write_json};
use hpm_bench::{best_of, synthetic_index, Bench};
use hpm_core::TPT_FANOUT;
use hpm_obs::json::Json;
use hpm_tpt::{scan, KeyTable, LeafEntries, PackedTpt, PatternKey, SearchCursor, SearchStats};

fn queries(table: &KeyTable, n: usize, regions: usize) -> Vec<PatternKey> {
    (0..n)
        .map(|i| {
            let seed = i * 7919 + 17;
            let recent =
                (0..1 + i % 3).map(|j| hpm_patterns::RegionId(((seed + j * 131) % regions) as u32));
            let offsets = table.consequence_offsets();
            let mut query = PatternKey::default();
            table.fqp_query_into(recent, offsets[seed % offsets.len()], &mut query);
            query
        })
        .collect()
}

fn bench_search(bench: &mut Bench) {
    for &n in &[1_000usize, 10_000, 100_000] {
        let (table, regions, keys) = synthetic_index(n, 800, 13);
        let leaves: LeafEntries = keys.iter().collect();
        let image = PackedTpt::bulk_load(TPT_FANOUT, &leaves);
        let tpt = image.with_leaves(&leaves);
        let qs = queries(&table, 20, regions);
        let mut cursor = SearchCursor::new();
        bench.run(&format!("tpt_vs_brute/tpt/{n}"), None, || {
            for q in &qs {
                cursor.search_packed(tpt, std::hint::black_box(q));
            }
        });
        let mut out = Vec::new();
        bench.run(&format!("tpt_vs_brute/brute/{n}"), None, || {
            for q in &qs {
                out.clear();
                out.extend(scan(&keys, std::hint::black_box(q)));
            }
        });
    }
}

fn bench_fanout(bench: &mut Bench) {
    let (table, regions, keys) = synthetic_index(20_000, 400, 29);
    let qs = queries(&table, 20, regions);
    let leaves: LeafEntries = keys.iter().collect();
    for &fanout in &[8usize, 32, 128] {
        let image = PackedTpt::bulk_load(fanout, &leaves);
        let tpt = image.with_leaves(&leaves);
        let mut cursor = SearchCursor::new();
        bench.run(&format!("tpt_fanout/{fanout}"), None, || {
            for q in &qs {
                cursor.search_packed(tpt, std::hint::black_box(q));
            }
        });
    }
}

fn bench_bulk_load(bench: &mut Bench) {
    let (_, _, keys) = synthetic_index(5_000, 400, 31);
    let leaves: LeafEntries = keys.iter().collect();
    bench.run("tpt_bulk_load_5k", None, || {
        PackedTpt::bulk_load(TPT_FANOUT, &leaves).len()
    });
}

/// ns/query of the fastest of `reps` full passes over `n_queries`
/// queries, after one untimed warm-up pass (faults code in, grows
/// scratch buffers).
fn ns_per_query(reps: usize, n_queries: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    best_of(reps, pass).as_nanos() as f64 / n_queries as f64
}

/// Fig. 11 region-scale sweep: the packed TPT image vs the brute-force
/// scan over the same entries and queries, asserting equal result sets
/// before timing.
fn fig11_sweep(bench: &Bench, patterns_n: usize, n_queries: usize, reps: usize, scales: &[usize]) {
    let mut rows = Vec::new();
    for &regions in scales {
        let (table, region_count, keys) = synthetic_index(patterns_n, regions, 13);
        let leaves: LeafEntries = keys.iter().collect();
        let image = PackedTpt::bulk_load(TPT_FANOUT, &leaves);
        let packed = image.with_leaves(&leaves);
        let qs = queries(&table, n_queries, region_count);

        // Untimed equivalence + instrumentation pass: the tree search
        // must return exactly the scan's result set.
        let mut agg = SearchStats::default();
        let mut matches_total = 0usize;
        let mut cursor = SearchCursor::new();
        for q in &qs {
            let mut pm = cursor.search_packed(packed, q).to_vec();
            let ps = cursor.stats();
            pm.sort_unstable();
            let scanned: Vec<u32> = scan(&keys, q).collect();
            assert_eq!(pm, scanned, "packed result set differs from scan");
            agg.nodes_visited += ps.nodes_visited;
            agg.entries_checked += ps.entries_checked;
            agg.false_hits += ps.false_hits;
            matches_total += pm.len();
        }
        let false_hit_rate = agg.false_hits as f64 / agg.entries_checked.max(1) as f64;

        let packed_ns = ns_per_query(reps, qs.len(), || {
            for q in &qs {
                cursor.search_packed(packed, std::hint::black_box(q));
            }
        });
        let mut out = Vec::new();
        let brute_ns = ns_per_query(reps, qs.len(), || {
            for q in &qs {
                out.clear();
                out.extend(scan(&keys, std::hint::black_box(q)));
            }
        });
        let speedup = brute_ns / packed_ns;
        println!(
            "  {regions:>4} regions: packed {packed_ns:>9.1} ns/q, brute {brute_ns:>11.1} ns/q \
             ({speedup:.1}x), false-hit rate {false_hit_rate:.4}"
        );
        rows.push(obj([
            ("regions", num(regions as f64, 0)),
            ("packed_ns_per_query", num(packed_ns, 1)),
            ("brute_ns_per_query", num(brute_ns, 1)),
            ("speedup", num(speedup, 3)),
            ("matches", num(matches_total as f64, 0)),
            ("nodes_visited", num(agg.nodes_visited as f64, 0)),
            ("entries_checked", num(agg.entries_checked as f64, 0)),
            ("false_hits", num(agg.false_hits as f64, 0)),
            ("false_hit_rate", num(false_hit_rate, 5)),
        ]));
    }
    let methodology = format!(
        "single thread; the packed TPT image (bulk load) and the brute-force scan cover \
         identical keys; the image keeps internal signatures only, and its leaves are runs of \
         adjacent rows of the LeafEntries it was loaded from (keys in key order, as a \
         predictor stores its rows); the scan (hpm_tpt::scan) tests Intersect against \
         every PatternKey in row order, each key's two parts in heap-allocated words of \
         their own; per scale the full query set runs once untimed asserting the \
         packed result set equal to the scan's and aggregating SearchStats, then each index \
         is timed as best-of-{reps} wall-clock passes over the set after one warmup pass; \
         ns/query = best pass / query count; speedup = brute / packed; false-hit rate = \
         false_hits / entries_checked aggregated over the set"
    );
    let fields = [
        ("patterns", num(patterns_n as f64, 0)),
        ("queries", num(n_queries as f64, 0)),
        ("reps", num(reps as f64, 0)),
        ("results", Json::Array(rows)),
    ];
    write_json(bench, "tpt_search", &methodology, &fields);
}

fn main() {
    let mut bench = Bench::from_args();
    bench_search(&mut bench);
    bench_fanout(&mut bench);
    bench_bulk_load(&mut bench);
    bench.summary();
    if bench.measuring() {
        fig11_sweep(&bench, 20_000, 64, 5, &[80, 400, 800]);
    } else {
        // Smoke (cargo test): prove the sweep path works and the
        // report parses.
        fig11_sweep(&bench, 500, 16, 1, &[80]);
        println!("fig11 sweep smoke test passed");
    }
}
