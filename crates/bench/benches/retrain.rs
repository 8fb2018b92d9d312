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
//!
//! The `seed` row attributes one seed's cost to its phases — the
//! §III clustering sweep (`cluster_offsets`), the §IV support counts
//! (`SupportCounts::rebuild`), the rule list (`derive`) and the §V.B
//! predictor assembly (`HybridPredictor::from_parts`) — per commuter of
//! a fleet of forked commuters in sysbench's `predict_point` shape
//! (period 32, 12 periods). Each phase is timed best-of-N on its own,
//! from inputs the previous phases built before the clock started, and
//! the four are asserted to assemble the predictor a whole seed does.

use hpm_bench::report::{num, obj, write_json};
use hpm_bench::{best_of, forked_commuter, forked_params, Bench};
use hpm_core::{HpmConfig, HybridPredictor, TrainPass, TrainerState};
use hpm_geo::Point;
use hpm_obs::json::Json;
use hpm_patterns::{
    cluster_offsets, DiscoveryOutput, DiscoveryParams, MiningParams, SupportCounts,
};
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
    let mut trainer: Option<TrainerState> = None;
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

/// Per-commuter cost of one seed's phases, in ns.
struct SeedRow {
    commuters: u64,
    rules_per_commuter: usize,
    /// `cluster_offsets`, `rebuild`, `derive`, `from_parts`.
    phases: [u128; 4],
}

/// The report keys of [`SeedRow::phases`].
const SEED_PHASES: [&str; 4] = [
    "cluster_offsets_ns",
    "rebuild_ns",
    "derive_ns",
    "from_parts_ns",
];

/// Times each phase of a seed of `commuters` forked commuters, best of
/// `reps` per commuter and phase, and sums the minima.
fn measure_seed(commuters: u64, reps: usize) -> SeedRow {
    let (discovery, mining) = forked_params();
    let config = HpmConfig::default();
    let (mut phases, mut rules) = ([0u128; 4], 0);
    for id in 0..commuters {
        let path = forked_commuter(id);
        phases[0] += best_of(reps, || cluster_offsets(&path, &discovery)).as_nanos();
        let (_, DiscoveryOutput { regions, visits }) = cluster_offsets(&path, &discovery);
        let rebuild = || {
            let mut counts = SupportCounts::new(mining);
            counts.rebuild(&visits);
            counts
        };
        phases[1] += best_of(reps, rebuild).as_nanos();
        let counts = rebuild();
        phases[2] += best_of(reps, || counts.derive()).as_nanos();
        let patterns = counts.derive();
        let mut parts: Vec<_> = (0..reps)
            .map(|_| (regions.clone(), patterns.clone()))
            .collect();
        phases[3] += best_of(reps, || {
            let (regions, patterns) = parts.pop().expect("one input per rep");
            HybridPredictor::from_parts(regions, patterns, config)
        })
        .as_nanos();
        // The phases are the seed: same predictor as the verb's.
        let mut slot: Option<TrainerState> = None;
        let (seeded, pass) =
            TrainerState::retrain(&mut slot, None, &path, &discovery, &mining, config);
        assert_eq!(pass, TrainPass::Seeded);
        let assembled = HybridPredictor::from_parts(regions, patterns, config);
        assert_eq!(seeded.patterns(), assembled.patterns());
        assert_eq!(*seeded.packed_tpt(), *assembled.packed_tpt());
        rules += assembled.patterns().len();
    }
    SeedRow {
        commuters,
        rules_per_commuter: rules / commuters as usize,
        phases: phases.map(|ns| ns / u128::from(commuters)),
    }
}

fn run(bench: &Bench, sizes: &[usize], reps: usize, seed_commuters: u64) {
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
    let seed = measure_seed(seed_commuters, reps);
    let total: u128 = seed.phases.iter().sum();
    println!(
        "  seed, {} commuters x {} rules: {total} ns/commuter ({})",
        seed.commuters,
        seed.rules_per_commuter,
        SEED_PHASES
            .iter()
            .zip(seed.phases)
            .map(|(name, ns)| format!("{name} {ns}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let seed_methodology = format!(
        "{} forked commuters in sysbench's predict_point shape (period 32, 12 periods, two \
         routes sharing a first leg; Eps 2 / MinPts 3, min_support 3, premises of up to 2 \
         regions, span 8); per commuter and phase, best-of-{reps} wall clock of the phase alone \
         on inputs built before the clock started: cluster_offsets (the §III sweep), \
         SupportCounts::new + rebuild (§IV counts), derive (the rule list), \
         HybridPredictor::from_parts (key table, §V.B image, weight table); per-commuter ns = \
         the sum of the minima over the fleet / commuters; total_ns = the four phases' sum; \
         the phases are asserted to assemble the predictor TrainerState::retrain seeds",
        seed.commuters
    );
    let mut seed_fields = vec![
        ("methodology", Json::String(seed_methodology)),
        ("commuters", num(seed.commuters as f64, 0)),
        ("rules_per_commuter", num(seed.rules_per_commuter as f64, 0)),
    ];
    seed_fields.extend(
        SEED_PHASES
            .into_iter()
            .zip(seed.phases.map(|ns| num(ns as f64, 0))),
    );
    seed_fields.push(("total_ns", num(total as f64, 0)));
    let fields = [
        ("period", num(PERIOD as f64, 0)),
        ("reps", num(reps as f64, 0)),
        (
            "speedup_at_largest",
            num(rows.last().map_or(0.0, |r| r.speedup), 2),
        ),
        ("results", Json::Array(results)),
        ("seed", obj(seed_fields)),
    ];
    write_json(bench, "retrain", &methodology, &fields);
}

fn main() {
    let bench = Bench::from_args();
    if bench.measuring() {
        run(&bench, &[10, 50, 200], 20, 256);
    } else {
        // Smoke (cargo test): prove the path works and the report parses.
        run(&bench, &[10], 3, 4);
        println!("retrain benchmark smoke test passed");
    }
}
