//! Incremental vs full retraining latency at growing history sizes,
//! emitting `BENCH_retrain.json`.
//!
//! Custom harness (no criterion shim): each measurement is one whole
//! retrain pass timed with `Instant`, and the run writes a JSON report.
//! `cargo test` invokes this target in smoke mode (tiny workload, no
//! report); `cargo bench --bench retrain` measures.
//! `HPM_RETRAIN_OUT` overrides the report path (default:
//! `BENCH_retrain.json` at the workspace root).
//!
//! Methodology: a steady-state commuter (period 4, three-day jitter
//! cycle) whose every new day lands inside mature clusters — the
//! incremental path absorbs it without structure drift, which is the
//! regime the delta pipeline exists for. At each history size H the
//! incremental figure is the best-of-N wall clock of one daily pass
//! (cursor delta → DBSCAN insertions → support-count tails + derive →
//! `apply_update`) while the history keeps growing day by day; the
//! full figure is the best-of-N `HybridPredictor::build` over the same
//! H days. Best-of is deliberate: retrain cost has no data-dependent
//! variance here, so the minimum is the least noise-polluted estimate.

use hpm_core::{HpmConfig, HybridPredictor, TrainerState};
use hpm_geo::Point;
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_trajectory::Trajectory;
use std::time::Instant;

const PERIOD: u32 = 4;

fn discovery() -> DiscoveryParams {
    DiscoveryParams {
        period: PERIOD,
        eps: 2.0,
        min_pts: 3,
    }
}

fn mining() -> MiningParams {
    MiningParams {
        min_support: 2,
        min_confidence: 0.3,
        max_premise_len: 2,
        max_premise_gap: 2,
        max_span: 3,
    }
}

fn config() -> HpmConfig {
    HpmConfig {
        distant_threshold: 3,
        time_relaxation: 1,
        match_margin: 5.0,
        rmf_retrospect: 2,
        ..HpmConfig::default()
    }
}

/// `days` commuter days: home → road → work → {pub | gym}.
fn commuter(days: usize) -> Vec<Point> {
    let mut pts = Vec::with_capacity(days * PERIOD as usize);
    for day in 0..days {
        let j = (day % 3) as f64 * 0.2;
        pts.push(Point::new(j, 0.0));
        pts.push(Point::new(50.0 + j, 0.0));
        pts.push(Point::new(100.0 + j, 0.0));
        if day % 2 == 0 {
            pts.push(Point::new(100.0 + j, 50.0));
        } else {
            pts.push(Point::new(j, 50.0));
        }
    }
    pts
}

struct Row {
    history_subs: usize,
    incremental_ns: u128,
    full_ns: u128,
    speedup: f64,
}

/// Measures one history size: best-of-`reps` incremental daily pass vs
/// best-of-`reps` full rebuild over the same history.
fn measure(history_subs: usize, reps: usize) -> Row {
    let all = commuter(history_subs + reps);
    let warm = Trajectory::from_points(all[..history_subs * PERIOD as usize].to_vec());

    // Full pipeline over exactly H days.
    let mut full_ns = u128::MAX;
    for _ in 0..reps {
        let started = Instant::now();
        let built = HybridPredictor::build(&warm, &discovery(), &mining(), config());
        full_ns = full_ns.min(started.elapsed().as_nanos());
        std::hint::black_box(built);
    }

    // Incremental: seed at H days, then time each steady-state daily
    // pass while the history grows from H to H + reps days.
    let mut trainer = TrainerState::new(discovery(), mining());
    trainer.seed(&warm);
    let mut predictor = HybridPredictor::build(&warm, &discovery(), &mining(), config());
    let mut incremental_ns = u128::MAX;
    for day in history_subs + 1..=history_subs + reps {
        let traj = Trajectory::from_points(all[..day * PERIOD as usize].to_vec());
        let started = Instant::now();
        let delta = trainer.stage_decompose(&traj);
        let visits = trainer
            .stage_cluster(&delta)
            .expect("steady-state commuter days never drift");
        let patterns = trainer.stage_mine(&visits);
        predictor = predictor.apply_update(trainer.regions(), patterns).0;
        incremental_ns = incremental_ns.min(started.elapsed().as_nanos());
    }

    // The pass being fast is worthless unless it is also right.
    let final_traj = Trajectory::from_points(all);
    let rebuilt = HybridPredictor::build(&final_traj, &discovery(), &mining(), config());
    assert_eq!(
        predictor.patterns(),
        rebuilt.patterns(),
        "equivalence broken"
    );
    assert_eq!(predictor.regions().all(), rebuilt.regions().all());

    Row {
        history_subs,
        incremental_ns,
        full_ns,
        speedup: full_ns as f64 / incremental_ns as f64,
    }
}

fn run(sizes: &[usize], reps: usize, report: Option<&str>) {
    let mut rows = Vec::new();
    for &h in sizes {
        let row = measure(h, reps);
        println!(
            "  {h:>4} subs: incremental {:>10} ns, full {:>10} ns  ({:.1}x)",
            row.incremental_ns, row.full_ns, row.speedup
        );
        rows.push(row);
    }
    if let Some(path) = report {
        let speedup_at_max = rows.last().map_or(0.0, |r| r.speedup);
        // Hand-built JSON: the workspace is hermetic (no serde).
        let results = rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"history_subs\": {}, \"incremental_ns\": {}, \"full_ns\": {}, \"speedup\": {:.2}}}",
                    r.history_subs, r.incremental_ns, r.full_ns, r.speedup
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let json = format!(
            "{{\n  \"bench\": \"retrain\",\n  \"period\": {PERIOD},\n  \"reps\": {reps},\n  \"methodology\": \"steady-state commuter (period 4, 3-day jitter cycle); per size H: best-of-{reps} wall clock of one incremental daily pass (cursor delta -> IncDBSCAN insertions -> support-count tails + derive -> apply_update) while history grows H..H+{reps} days, vs best-of-{reps} HybridPredictor::build over H days; end state asserted pattern- and region-identical to a full rebuild; speedup = full_ns / incremental_ns is a ratio of two costs, not a score: a faster batch DBSCAN lowers full_ns and with it the ratio (the one-grid sweep did exactly that), so read the two ns columns first\",\n  \"speedup_at_largest\": {speedup_at_max:.2},\n  \"results\": [\n{results}\n  ]\n}}\n"
        );
        std::fs::write(path, json).expect("write retrain report");
        println!("wrote {path}");
    }
}

fn main() {
    let measure_mode = std::env::args().any(|a| a == "--bench");
    if !measure_mode {
        // Smoke (cargo test): prove the path works, skip the report.
        run(&[10], 3, None);
        println!("retrain benchmark smoke test passed");
        return;
    }
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_retrain.json");
    let out = std::env::var("HPM_RETRAIN_OUT").unwrap_or_else(|_| default_out.into());
    run(&[10, 50, 200], 20, Some(&out));
}
