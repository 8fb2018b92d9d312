//! Incremental vs full retraining latency at growing history sizes,
//! emitting `BENCH_retrain.json`.
//!
//! Each measurement is one whole retrain pass under
//! [`hpm_bench::best_of`]. `cargo test` invokes this target in smoke
//! mode (tiny workload, the report rendered and parsed but not
//! written); `cargo bench --bench retrain` measures and writes the
//! report (`HPM_BENCH_OUT` overrides the directory, default: the
//! workspace root).
//!
//! Methodology: a steady-state commuter (period 4, three-day jitter
//! cycle) whose every new day lands inside mature clusters — the
//! incremental path absorbs it without structure drift, which is the
//! regime the delta pipeline exists for. At each history size H the
//! incremental figure is the best-of-N wall clock of one daily pass of
//! `TrainerState::retrain` (a fold: DBSCAN insertions → support-count
//! tails + derive → index update) while the history keeps growing day
//! by day — every timed pass is asserted to have folded, so a silent
//! drift cannot turn it into a seed timing; the full figure is the
//! best-of-N `HybridPredictor::build` over the same H days — the verb
//! with no trainer, a seed plus the index bulk load, what a store's
//! first training and every re-seed cost. Best-of is deliberate:
//! retrain cost has no data-dependent variance here, so the minimum is
//! the least noise-polluted estimate.

use hpm_bench::report::{num, obj, write_json};
use hpm_bench::{best_of, Bench};
use hpm_core::{HpmConfig, HybridPredictor, TrainPass, TrainerState};
use hpm_geo::Point;
use hpm_obs::json::Json;
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_trajectory::Trajectory;

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
    let full_ns = best_of(reps, || {
        HybridPredictor::build(&warm, &discovery(), &mining(), config())
    })
    .as_nanos();

    // Incremental: seed at H days, then time each steady-state daily
    // pass while the history grows from H to H + reps days (the grown
    // histories are assembled before the clock starts).
    let (disc, mine) = (discovery(), mining());
    let mut trainer = None;
    let (mut predictor, _) =
        TrainerState::retrain(&mut trainer, None, &warm, &disc, &mine, config());
    let grown: Vec<Trajectory> = (history_subs + 1..=history_subs + reps)
        .map(|day| Trajectory::from_points(all[..day * PERIOD as usize].to_vec()))
        .collect();
    let mut days = grown.iter();
    let incremental_ns = best_of(reps, || {
        let traj = days.next().expect("one grown history per rep");
        let (next, pass) =
            TrainerState::retrain(&mut trainer, Some(&predictor), traj, &disc, &mine, config());
        assert_eq!(pass, TrainPass::Folded, "a steady-state day drifted");
        predictor = next;
    })
    .as_nanos();

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

fn run(bench: &Bench, sizes: &[usize], reps: usize) {
    let mut rows = Vec::new();
    for &h in sizes {
        let row = measure(h, reps);
        println!(
            "  {h:>4} subs: incremental {:>10} ns, full {:>10} ns  ({:.1}x)",
            row.incremental_ns, row.full_ns, row.speedup
        );
        rows.push(row);
    }
    let methodology = format!(
        "steady-state commuter (period 4, 3-day jitter cycle); per size H: best-of-{reps} wall \
         clock of one daily TrainerState::retrain pass, every timed pass asserted to fold \
         (IncDBSCAN insertions -> support-count tails + derive -> index update) while history \
         grows H..H+{reps} days, vs best-of-{reps} HybridPredictor::build over H days (the verb \
         with no trainer: a seed + the index bulk load, a store's first-training path); end \
         state asserted pattern- and region-identical to a full rebuild; speedup = full_ns / \
         incremental_ns is a ratio of two costs, not a score: a faster seed sweep lowers \
         full_ns and with it the ratio (the one-grid sweep did exactly that), so read the two \
         ns columns first"
    );
    let results = rows
        .iter()
        .map(|r| {
            obj([
                ("history_subs", num(r.history_subs as f64, 0)),
                ("incremental_ns", num(r.incremental_ns as f64, 0)),
                ("full_ns", num(r.full_ns as f64, 0)),
                ("speedup", num(r.speedup, 2)),
            ])
        })
        .collect();
    let fields = [
        ("period", num(PERIOD as f64, 0)),
        ("reps", num(reps as f64, 0)),
        (
            "speedup_at_largest",
            num(rows.last().map_or(0.0, |r| r.speedup), 2),
        ),
        ("results", Json::Array(results)),
    ];
    write_json(bench, "retrain", &methodology, &fields);
}

fn main() {
    let bench = Bench::from_args();
    if bench.measuring() {
        run(&bench, &[10, 50, 200], 20);
    } else {
        // Smoke (cargo test): prove the path works and the report parses.
        run(&bench, &[10], 3);
        println!("retrain benchmark smoke test passed");
    }
}
