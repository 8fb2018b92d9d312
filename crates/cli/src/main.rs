//! `hpm` — command-line front end for the Hybrid Prediction Model.
//!
//! ```text
//! hpm generate --dataset bike --subs 80 --seed 42 --output traj.csv
//! hpm train    --input traj.csv --period 300 --output model.hpm
//! hpm info     --model model.hpm
//! hpm predict  --model model.hpm --input traj.csv --at 18050 [--k 3]
//! hpm predict  --model model.hpm --input traj.csv --batch times.txt --threads 4
//! hpm eval     --input traj.csv --period 300 --train-subs 60 --length 50
//! ```
//!
//! Trajectories are `t,x,y` CSV files (consecutive timestamps); models
//! are `hpm-store` binary blobs.

#![forbid(unsafe_code)]

mod args;
mod csv;

use args::Args;
use hpm_core::eval::{
    linear_or_last, make_workload, point_errors, rmf_or_last, training_slice, ErrorStats, Record,
    WorkloadParams,
};
use hpm_core::{HpmConfig, HybridPredictor, PredictiveQuery};
use hpm_datagen::{paper_dataset, PaperDataset};
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_store::format::MAX_PERIOD;
use hpm_store::{load_model, save_model};
use hpm_trajectory::{despike, from_sparse_samples, Trajectory};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print!("{HELP}");
        return;
    }
    let result = Args::parse(&argv).and_then(|args| match args.command() {
        "generate" => cmd_generate(&args),
        "train" => cmd_train(&args),
        "info" => cmd_info(&args),
        "predict" => cmd_predict(&args),
        "ingest" => cmd_ingest(&args),
        "serve" => cmd_serve(&args),
        "stats" => cmd_stats(&args),
        "eval" => cmd_eval(&args),
        other => Err(format!("unknown subcommand `{other}`; try `hpm help`")),
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

const HELP: &str = "\
hpm - Hybrid Prediction Model for moving objects (ICDE 2008)

USAGE: hpm <subcommand> [--flag value]...

SUBCOMMANDS
  generate  synthesize a periodic trajectory CSV
            --dataset bike|cow|car|airplane|noisy-sensor  --output FILE
            [--subs 80] [--seed 42] [--gps-noise SIGMA]
            (--gps-noise adds Gaussian sensor jitter in quadrature)
  train     discover frequent regions, mine patterns, save the model
            --input traj.csv  --period N  --output model.hpm
            [--eps 30] [--min-pts 4] [--min-conf 0.3]
            [--min-support 4] [--max-premise 2] [--max-gap 8] [--max-span 64]
            [--fill-gaps true] [--despike MAX_STEP]
  info      summarise a saved model
            --model model.hpm  [--top 10] [--map true]
  predict   answer predictive queries from a model + recent movements
            --model model.hpm  --input traj.csv  (--at T | --batch FILE)
            [--threads N]  (batch mode: one query time per line,
            `#` comments allowed; N=0 sizes from the core count)
            [--recent 20] [--k 1] [--distant 60] [--teps 2] [--margin 30]
            [--fill-gaps true] [--despike MAX_STEP] [--prob true]
            [--metrics true] [--metrics-json FILE|-]  (FILE `-` = stdout)
            (--prob prints each answer's uncertainty region + mass)
  ingest    stream a trajectory CSV into a durable store directory
            (per-shard WAL + snapshots; re-run after a crash to resume)
            --input traj.csv  --data-dir DIR  --period N
            [--eps 2] [--min-pts 3] [--min-conf 0.3] [--min-support 4]
            [--max-premise 2] [--max-gap 8] [--max-span 64]
            [--min-train 3] [--retrain-every 1] [--k 1] [--margin 30]
            [--group-commit 1] [--fsync always|never] [--snapshot-every 0]
            [--resume true] [--predict-at T1,T2,...]
  serve     expose a store over TCP (hpm-server wire protocol);
            prints `LISTENING ADDR` then blocks until a client sends
            the shutdown verb
            --addr HOST:PORT  --period N  [--data-dir DIR]
            [--eps 2] [--min-pts 3] [--min-conf 0.3] [--min-support 4]
            [--max-premise 2] [--max-gap 8] [--max-span 64]
            [--min-train 3] [--retrain-every 1] [--k 1] [--margin 30]
            [--recent 2] [--shards 4] [--threads 0]
            [--group-commit 1] [--fsync always|never] [--snapshot-every 0]
            [--max-frame BYTES]
  stats     query a running server for one object's stats (samples,
            training watermarks, model size, approximate resident
            bytes) and the fleet-wide store memory gauges (total, per
            object, history / predictor / trainer / index shares)
            --addr HOST:PORT  --id N  [--mem true] [--shutdown false]
  eval      compare HPM / RMF / linear accuracy on held-out data
            --input traj.csv  --period N  --train-subs N  --length N
            [--queries 50] [--recent 20] [--extent 10000]
            [--eps 30] [--min-pts 4] [--min-conf 0.3]
            [--fill-gaps true] [--despike MAX_STEP]
            [--calibration true] [--tolerance GAP]
            (--calibration reports claimed mass vs empirical hit rate;
            --tolerance exits non-zero when |gap| exceeds it)

  Input CSVs are `t,x,y` rows. --fill-gaps interpolates missing
  timestamps; --despike repairs isolated jumps larger than MAX_STEP.
";

fn cmd_generate(args: &Args) -> Result<(), String> {
    args.expect_only(&["dataset", "output", "subs", "seed", "gps-noise"])?;
    let output = args.required("output")?;
    let subs = args.get_valid("subs", Some(80), &format!("at most {MAX_SUBS}"), |&s| {
        s <= MAX_SUBS
    })?;
    let seed: u64 = args.get_or("seed", 42)?;
    let generator = match args.required("dataset")? {
        "bike" => paper_dataset(PaperDataset::Bike, seed),
        "cow" => paper_dataset(PaperDataset::Cow, seed),
        "car" => paper_dataset(PaperDataset::Car, seed),
        "airplane" => paper_dataset(PaperDataset::Airplane, seed),
        "noisy-sensor" => hpm_datagen::noisy_sensor(seed),
        other => return Err(format!("unknown dataset `{other}`")),
    };
    let gps_noise: f64 = args.get_or("gps-noise", 0.0)?;
    if !(gps_noise.is_finite() && gps_noise >= 0.0) {
        return Err(format!("--gps-noise must be non-negative, got {gps_noise}"));
    }
    let traj = generator.with_gps_noise(gps_noise).generate_subs(subs);
    csv::write_trajectory(output, &traj).map_err(|e| e.to_string())?;
    println!(
        "wrote {} samples ({subs} sub-trajectories of period {}) to {output}",
        traj.len(),
        hpm_datagen::PERIOD
    );
    Ok(())
}

/// Loads an input trajectory honouring `--fill-gaps` / `--despike`.
fn load_input(args: &Args) -> Result<Trajectory, String> {
    let path = args.required("input")?;
    let fill: bool = args.get_or("fill-gaps", false)?;
    let mut traj = if fill {
        let samples = csv::read_samples(path)?;
        let (traj, filled) = from_sparse_samples(samples).map_err(|e| e.to_string())?;
        if filled > 0 {
            eprintln!("note: interpolated {filled} missing samples");
        }
        traj
    } else {
        csv::read_trajectory(path)?
    };
    if let Some(raw) = args.optional("despike") {
        let max_step: f64 = raw
            .parse()
            .map_err(|_| format!("--despike: cannot parse `{raw}`"))?;
        let (fixed, n) = despike(&traj, max_step);
        if n > 0 {
            eprintln!("note: repaired {n} spike samples");
        }
        traj = fixed;
    }
    Ok(traj)
}

/// The most sub-trajectories `generate` writes. It holds the whole
/// trajectory before writing it, 300 samples of 16 B per sub-trajectory:
/// 480 MB at the cap, where a value a few digits longer asks the
/// allocator for hundreds of GB and aborts.
const MAX_SUBS: usize = 100_000;

/// Refuses a query time unless it is after `current_time` by at most
/// `u32::MAX` steps: a prediction's length is a `u32`, the bound the
/// store's `QueryError::HorizonOutOfRange` states too.
fn askable(what: &str, t: u64, current_time: u64) -> Result<(), String> {
    let last = format!("the trajectory's last timestamp {current_time}");
    match t.checked_sub(current_time) {
        Some(0) | None => Err(format!("{what} {t} is not after {last}")),
        Some(d) if d > u64::from(u32::MAX) => Err(format!(
            "{what} {t} is more than {} steps after {last}",
            u32::MAX
        )),
        Some(_) => Ok(()),
    }
}

/// The ranges the libraries assert on, for [`Args::get_valid`].
fn positive<T: PartialOrd + Default>(v: &T) -> bool {
    *v > T::default()
}

fn finite_positive(v: &f64) -> bool {
    v.is_finite() && *v > 0.0
}

fn finite_non_negative(v: &f64) -> bool {
    v.is_finite() && *v >= 0.0
}

/// `--period`, `--eps` and `--min-pts`, the last two defaulting to
/// `eps` and `min_pts`. The period is bounded by what a model or
/// snapshot may hold, so nothing is trained that cannot be reopened.
fn discovery_from(args: &Args, eps: f64, min_pts: usize) -> Result<DiscoveryParams, String> {
    Ok(DiscoveryParams {
        period: args.get_valid("period", None, &format!("in 1..={MAX_PERIOD}"), |p| {
            (1..=MAX_PERIOD).contains(p)
        })?,
        eps: args.get_valid("eps", Some(eps), "finite and positive", finite_positive)?,
        min_pts: args.get_valid("min-pts", Some(min_pts), "positive", positive)?,
    })
}

fn mining_from(args: &Args) -> Result<MiningParams, String> {
    let mining = MiningParams {
        min_support: args.get_valid("min-support", Some(4), "positive", positive)?,
        min_confidence: args.get_valid("min-conf", Some(0.3), "in [0, 1]", |c| {
            (0.0..=1.0).contains(c)
        })?,
        max_premise_len: args.get_valid("max-premise", Some(2), "positive", positive)?,
        max_premise_gap: args.get_or("max-gap", 8)?,
        max_span: args.get_valid("max-span", Some(64), "positive", positive)?,
    };
    let premise_span =
        ((mining.max_premise_len - 1) as u64).saturating_mul(u64::from(mining.max_premise_gap));
    if premise_span > u64::from(mining.max_span) {
        return Err(format!(
            "--max-span {} is shorter than (--max-premise - 1) * --max-gap = {premise_span}",
            mining.max_span
        ));
    }
    Ok(mining)
}

fn cmd_train(args: &Args) -> Result<(), String> {
    args.expect_only(&[
        "input",
        "period",
        "output",
        "eps",
        "min-pts",
        "min-conf",
        "min-support",
        "max-premise",
        "max-gap",
        "max-span",
        "fill-gaps",
        "despike",
    ])?;
    let traj = load_input(args)?;
    let discovery = discovery_from(args, 30.0, 4)?;
    let mining = mining_from(args)?;
    let started = std::time::Instant::now();
    let model = HybridPredictor::build(&traj, &discovery, &mining, HpmConfig::default());
    let output = args.required("output")?;
    save_model(output, model.regions(), model.patterns()).map_err(|e| e.to_string())?;
    println!(
        "trained in {:.1}s: {} frequent regions, {} patterns -> {output}",
        started.elapsed().as_secs_f64(),
        model.regions().len(),
        model.patterns().len(),
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    args.expect_only(&["model", "top", "map"])?;
    let model = load_model(args.required("model")?)
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;
    let top: usize = args.get_or("top", 10)?;
    println!(
        "period {} | {} frequent regions | {} patterns",
        model.regions.period(),
        model.regions.len(),
        model.patterns.len()
    );
    if args.get_or("map", false)? {
        print!("{}", region_map(&model.regions, 64, 24));
    }
    let mut by_conf: Vec<_> = model.patterns.iter().collect();
    by_conf.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("finite confidences")
            .then(b.support.cmp(&a.support))
    });
    println!("top {} patterns by confidence:", top.min(by_conf.len()));
    for p in by_conf.iter().take(top) {
        println!("  {} (support {})", p.display(&model.regions), p.support);
    }
    Ok(())
}

/// ASCII density map of frequent-region centroids (support-weighted).
fn region_map(regions: &hpm_patterns::RegionSet, cols: usize, rows: usize) -> String {
    let all = regions.all();
    let Some(bbox) =
        hpm_geo::BoundingBox::from_points(&all.iter().map(|r| r.centroid).collect::<Vec<_>>())
    else {
        return "(no regions)\n".into();
    };
    let w = bbox.width().max(1e-9);
    let h = bbox.height().max(1e-9);
    let mut grid = vec![0u64; cols * rows];
    for r in all {
        let cx = (((r.centroid.x - bbox.min.x) / w) * (cols - 1) as f64).round() as usize;
        // Flip y: terminal rows grow downward.
        let cy = (((bbox.max.y - r.centroid.y) / h) * (rows - 1) as f64).round() as usize;
        grid[cy.min(rows - 1) * cols + cx.min(cols - 1)] += u64::from(r.support);
    }
    let max = grid.iter().copied().max().unwrap_or(0).max(1);
    const SHADES: &[u8] = b" .:-=+*#%@";
    let mut out = String::with_capacity((cols + 3) * (rows + 3));
    out.push_str(&format!(
        "region density map [{:.0},{:.0}]..[{:.0},{:.0}]\n",
        bbox.min.x, bbox.min.y, bbox.max.x, bbox.max.y
    ));
    out.push('+');
    out.push_str(&"-".repeat(cols));
    out.push_str("+\n");
    for row in 0..rows {
        out.push('|');
        for col in 0..cols {
            let v = grid[row * cols + col];
            let idx = if v == 0 {
                0
            } else {
                1 + ((v * (SHADES.len() as u64 - 2)) / max) as usize
            };
            out.push(SHADES[idx.min(SHADES.len() - 1)] as char);
        }
        out.push_str("|\n");
    }
    out.push('+');
    out.push_str(&"-".repeat(cols));
    out.push_str("+\n");
    out
}

/// Reads a batch-query file: one query time per line; blank lines and
/// `#` comments are skipped.
fn read_batch_times(path: &str) -> Result<Vec<u64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read --batch {path}: {e}"))?;
    let mut times = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let t: u64 = line
            .parse()
            .map_err(|_| format!("{path}:{}: cannot parse query time `{line}`", lineno + 1))?;
        times.push(t);
    }
    if times.is_empty() {
        return Err(format!("--batch {path} holds no query times"));
    }
    Ok(times)
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    args.expect_only(&[
        "model",
        "input",
        "at",
        "batch",
        "threads",
        "recent",
        "k",
        "distant",
        "teps",
        "margin",
        "fill-gaps",
        "despike",
        "metrics",
        "metrics-json",
        "prob",
    ])?;
    let prob: bool = args.get_or("prob", false)?;
    let metrics_text: bool = args.get_or("metrics", false)?;
    let metrics_json = args.optional("metrics-json");
    if metrics_text || metrics_json.is_some() {
        // Register the full catalogue up front so the snapshot lists
        // every hot-path metric, including the zero-valued ones (a
        // single query only fires one of the FQP/BQP dispatch arms).
        hpm_core::metrics::register();
        hpm_patterns::metrics::register();
        hpm_store::metrics::register();
        hpm_obs::enable();
    }
    let model = load_model(args.required("model")?)
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;
    let traj = load_input(args)?;
    let config = HpmConfig {
        k: args.get_valid("k", Some(1), "positive", positive)?,
        distant_threshold: args.get_valid("distant", Some(60), "positive", positive)?,
        time_relaxation: args.get_valid("teps", Some(2), "positive", positive)?,
        match_margin: margin(args)?,
        ..HpmConfig::default()
    };
    let predictor = HybridPredictor::from_parts(model.regions, model.patterns, config);
    let recent_len: usize = args.get_valid("recent", Some(20), "positive", positive)?;
    let (recent, _) = traj.recent_window(recent_len);
    let current_time = traj.end() - 1;
    if let Some(batch) = args.optional("batch") {
        if args.optional("at").is_some() {
            return Err("--at and --batch are mutually exclusive".into());
        }
        let times = read_batch_times(batch)?;
        for &t in &times {
            askable(&format!("--batch {batch}: query time"), t, current_time)?;
        }
        let pool = hpm_objectstore::WorkerPool::sized(args.get_or("threads", 0)?);
        let preds = pool.run(times.len(), |i| {
            predictor.predict(&PredictiveQuery {
                recent,
                current_time,
                query_time: times[i],
            })
        });
        println!(
            "object now at {} (t={current_time}); {} batch queries on {} threads:",
            recent.last().expect("non-empty trajectory"),
            times.len(),
            pool.threads()
        );
        for (t, pred) in times.iter().zip(&preds) {
            let score = pred.answers.first().map_or(0.0, |a| a.score);
            println!(
                "  t={t}: {} via {:?} (score {score:.3})",
                pred.best(),
                pred.source
            );
            if prob {
                for a in &pred.answers {
                    println!(
                        "      mass {:.3} in [{}..{}]",
                        a.uncertainty.mass, a.uncertainty.region.min, a.uncertainty.region.max
                    );
                }
            }
        }
    } else {
        let query_time: u64 = args.get("at")?;
        askable("--at", query_time, current_time)?;
        let pred = predictor.predict(&PredictiveQuery {
            recent,
            current_time,
            query_time,
        });
        println!(
            "object now at {} (t={current_time}); at t={query_time} predicted via {:?}:",
            recent.last().expect("non-empty trajectory"),
            pred.source
        );
        for (rank, a) in pred.answers.iter().enumerate() {
            println!("  #{} {} (score {:.3})", rank + 1, a.location, a.score);
            if prob {
                println!(
                    "     mass {:.3} in [{}..{}]",
                    a.uncertainty.mass, a.uncertainty.region.min, a.uncertainty.region.max
                );
            }
        }
    }
    if metrics_text || metrics_json.is_some() {
        let snap = hpm_obs::snapshot();
        if metrics_text {
            println!("\n-- metrics --");
            print!("{snap}");
        }
        if let Some(path) = metrics_json {
            if path == "-" {
                println!("{}", snap.to_json());
            } else {
                std::fs::write(path, snap.to_json())
                    .map_err(|e| format!("cannot write --metrics-json {path}: {e}"))?;
            }
        }
    }
    Ok(())
}

/// The store flags `ingest` and `serve` share ([`store_config`]).
const STORE_FLAGS: &[&str] = &[
    "data-dir",
    "period",
    "eps",
    "min-pts",
    "min-conf",
    "min-support",
    "max-premise",
    "max-gap",
    "max-span",
    "min-train",
    "retrain-every",
    "k",
    "margin",
];

/// The durability flags `ingest` and `serve` share ([`durability`]).
const DURABILITY_FLAGS: &[&str] = &["group-commit", "fsync", "snapshot-every"];

/// The store configuration [`STORE_FLAGS`] describe; the caller
/// supplies the sizing its subcommand exposes (or fixes).
fn store_config(
    args: &Args,
    recent_len: usize,
    shards: usize,
    threads: usize,
) -> Result<hpm_objectstore::StoreConfig, String> {
    Ok(hpm_objectstore::StoreConfig {
        discovery: discovery_from(args, 2.0, 3)?,
        mining: mining_from(args)?,
        hpm: HpmConfig {
            k: args.get_valid("k", Some(1), "positive", positive)?,
            match_margin: margin(args)?,
            ..HpmConfig::default()
        },
        min_train_subs: args.get_valid("min-train", Some(3), "positive", positive)?,
        retrain_every_subs: args.get_valid("retrain-every", Some(1), "positive", positive)?,
        recent_len,
        shards,
        threads,
        index: hpm_objectstore::IndexConfig::default(),
    })
}

/// `--margin`, the query-matching margin around a region's box.
fn margin(args: &Args) -> Result<f64, String> {
    args.get_valid(
        "margin",
        Some(30.0),
        "finite and non-negative",
        finite_non_negative,
    )
}

/// The durability policy [`DURABILITY_FLAGS`] describe, over `dir`.
fn durability(args: &Args, dir: &str) -> Result<hpm_objectstore::DurabilityConfig, String> {
    use hpm_objectstore::FsyncPolicy;
    Ok(hpm_objectstore::DurabilityConfig {
        dir: dir.into(),
        group_commit: args.get_or("group-commit", 1)?,
        fsync: match args.get_or("fsync", "always".to_string())?.as_str() {
            "always" => FsyncPolicy::Always,
            "never" => FsyncPolicy::Never,
            other => return Err(format!("--fsync must be always|never, got `{other}`")),
        },
        snapshot_every: args.get_or("snapshot-every", 0)?,
    })
}

/// Streams a trajectory CSV into a durable
/// [`MovingObjectStore`](hpm_objectstore::MovingObjectStore) on
/// `--data-dir`, recovering whatever an earlier (possibly crashed)
/// run persisted there. With `--resume` (the default) reports that
/// are already durable are skipped, so re-running the same command
/// after a crash completes the ingest instead of failing on the
/// overlap. `--predict-at` answers queries from the ingested store;
/// the `PREDICT`/`STATS` lines print floats with `{:?}` so two runs
/// can be diffed byte-for-byte.
fn cmd_ingest(args: &Args) -> Result<(), String> {
    use hpm_objectstore::{IngestError, MovingObjectStore, ObjectId};

    let own = ["resume", "predict-at", "fill-gaps", "despike"];
    args.expect_only(&[&["input"], STORE_FLAGS, DURABILITY_FLAGS, &own].concat())?;
    let traj = load_input(args)?;
    let config = store_config(args, 2, 1, 1)?;
    let durable = durability(args, args.required("data-dir")?)?;
    let resume: bool = args.get_or("resume", true)?;

    let store = MovingObjectStore::open(config, durable).map_err(|e| e.to_string())?;
    let id = ObjectId(1);
    let (mut ingested, mut skipped) = (0u64, 0u64);
    for (i, p) in traj.points().iter().enumerate() {
        let t = traj.start() + i as hpm_trajectory::Timestamp;
        match store.report(id, t, *p) {
            Ok(()) => ingested += 1,
            // Already durable from a previous run: the store is ahead
            // of this sample, not diverged.
            Err(IngestError::NonContiguous { expected, got }) if resume && got < expected => {
                skipped += 1;
            }
            Err(e) => return Err(format!("report at t={t} failed: {e}")),
        }
    }
    store.flush_wal().map_err(|e| e.to_string())?;
    println!("INGESTED {ingested} skipped {skipped}");
    let s = store.stats(id).map_err(|e| e.to_string())?;
    println!(
        "STATS samples={} full_periods={} trained_periods={} regions={} patterns={}",
        s.samples, s.full_periods, s.trained_periods, s.regions, s.patterns
    );
    // Off the STATS line on purpose: resident bytes differ between a
    // store that grew online and one that recovered from disk, and
    // crash smoke scripts diff STATS byte-for-byte.
    println!("MEM approx_bytes={}", s.approx_bytes);
    if let Some(list) = args.optional("predict-at") {
        for raw in list.split(',') {
            let t: u64 = raw
                .trim()
                .parse()
                .map_err(|_| format!("--predict-at: cannot parse `{raw}`"))?;
            match store.predict(id, t) {
                Ok(pred) => {
                    let best = pred.best();
                    println!(
                        "PREDICT t={t} x={:?} y={:?} source={:?}",
                        best.x, best.y, pred.source
                    );
                }
                Err(e) => println!("PREDICT t={t} error={e}"),
            }
        }
    }
    Ok(())
}

/// Queries a running server for one object's stats (the Stats verb)
/// and the fleet-wide memory gauges the Metrics verb refreshes.
///
/// `approx_bytes` goes on its own `MEM` line, not the `STATS` line:
/// crash-recovery smoke scripts diff `STATS` byte-for-byte between
/// runs, and resident bytes legitimately differ between a store that
/// grew its capacities online and one that recovered them from disk.
fn cmd_stats(args: &Args) -> Result<(), String> {
    use hpm_objectstore::ObjectId;
    use hpm_server::Client;

    args.expect_only(&["addr", "id", "mem", "shutdown"])?;
    let addr = args.required("addr")?;
    let id = ObjectId(args.get("id")?);
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let s = client
        .stats(id)
        .map_err(|e| format!("stats request failed: {e}"))?
        .map_err(|e| format!("server rejected stats: {e}"))?;
    println!(
        "STATS samples={} full_periods={} trained_periods={} regions={} patterns={}",
        s.samples, s.full_periods, s.trained_periods, s.regions, s.patterns
    );
    println!("MEM approx_bytes={}", s.approx_bytes);
    if args.get_or("mem", true)? {
        let json = client
            .metrics_json()
            .map_err(|e| format!("metrics request failed: {e}"))?;
        let doc = hpm_obs::json::parse(&json).map_err(|e| format!("metrics JSON: {e}"))?;
        let gauge = |name: &str| Some(doc.get("gauges")?.get(name)?.as_f64()? as i64);
        if let (Some(total), Some(per_obj)) = (
            gauge("store.mem.bytes"),
            gauge("store.mem.bytes_per_object"),
        ) {
            let share = |part: &str| gauge(&format!("store.mem.{part}_bytes")).unwrap_or(0);
            println!(
                "MEM store_bytes={total} bytes_per_object={per_obj} history_bytes={} \
                 predictor_bytes={} trainer_bytes={} index_bytes={}",
                share("history"),
                share("predictor"),
                share("trainer"),
                share("index")
            );
        }
    }
    // Admin convenience for scripted smoke tests: probe, then stop the
    // server in the same invocation.
    if args.get_or("shutdown", false)? {
        client
            .shutdown()
            .map_err(|e| format!("shutdown verb failed: {e}"))?;
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    use hpm_objectstore::MovingObjectStore;
    use hpm_server::{Server, ServerConfig};
    use std::io::Write as _;
    use std::sync::Arc;

    let sizing = ["recent", "shards", "threads"];
    let known = [
        &["addr"],
        STORE_FLAGS,
        &sizing,
        DURABILITY_FLAGS,
        &["max-frame"],
    ];
    args.expect_only(&known.concat())?;
    let addr = args.required("addr")?;
    let config = store_config(
        args,
        args.get_valid("recent", Some(2), "positive", positive)?,
        args.get_valid("shards", Some(4), "positive", positive)?,
        args.get_or("threads", 0)?,
    )?;
    // The served registry should catalogue every layer's metrics even
    // before traffic touches them: the server's `register` chains down
    // through the store's to the predictor's.
    hpm_server::metrics::register();
    hpm_obs::enable();
    let store = match args.optional("data-dir") {
        Some(dir) => {
            MovingObjectStore::open(config, durability(args, dir)?).map_err(|e| e.to_string())?
        }
        None => MovingObjectStore::new(config),
    };
    let server_config = ServerConfig {
        max_frame: args.get_or("max-frame", ServerConfig::default().max_frame)?,
        ..ServerConfig::default()
    };
    let server = Server::bind(Arc::new(store), addr, server_config).map_err(|e| e.to_string())?;
    // The bound address goes out immediately (and flushed) so scripts
    // using --addr HOST:0 can parse the picked port before connecting.
    println!("LISTENING {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.serve().map_err(|e| e.to_string())?;
    println!("SHUTDOWN clean");
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    args.expect_only(&[
        "input",
        "period",
        "train-subs",
        "length",
        "queries",
        "recent",
        "extent",
        "eps",
        "min-pts",
        "min-conf",
        "fill-gaps",
        "despike",
        "calibration",
        "tolerance",
    ])?;
    let traj = load_input(args)?;
    let discovery = discovery_from(args, 30.0, 4)?;
    let period = discovery.period;
    let full_periods = traj.len() / period as usize;
    let train_subs: usize = args.get_valid(
        "train-subs",
        None,
        &format!("below the input's {full_periods} full periods"),
        |&n| n < full_periods,
    )?;
    let recent_len = args.get_valid("recent", Some(20), "positive", positive)?;
    let room = (period as usize).saturating_sub(recent_len);
    let length: u32 = args.get_valid(
        "length",
        None,
        &format!("positive and below {room} (--period {period} less --recent {recent_len})"),
        |&n| n > 0 && (n as usize) < room,
    )?;
    // `eval` exposes `--min-conf` alone: the rest are the paper's
    // defaults, which are `mining_from`'s.
    let mining = mining_from(args)?;
    let extent = args.get_valid(
        "extent",
        Some(10_000.0),
        "finite and non-negative",
        finite_non_negative,
    )?;
    let train = training_slice(&traj, period, train_subs);
    let predictor = HybridPredictor::build(&train, &discovery, &mining, HpmConfig::default());
    let queries = make_workload(
        &traj,
        period,
        &WorkloadParams {
            train_subs,
            recent_len,
            prediction_length: length,
            num_queries: args.get_valid("queries", Some(50), "positive", positive)?,
        },
    );
    println!(
        "{} patterns over {} regions; {} queries at prediction length {length}",
        predictor.patterns().len(),
        predictor.regions().len(),
        queries.len()
    );
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>9}",
        "", "mean", "median", "p95", "max"
    );
    let record = Record::of(&predictor, &queries, extent);
    for (name, errors) in [
        ("HPM", record.errors()),
        ("RMF", point_errors(|q| rmf_or_last(q, 3), &queries, extent)),
        ("linear", point_errors(linear_or_last, &queries, extent)),
    ] {
        let s = ErrorStats::of(&errors);
        println!(
            "{name:<8} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            s.mean, s.median, s.p95, s.max
        );
    }
    let [fqp, bqp, motion] = record.sources();
    println!(
        "HPM paths: FQP {}q (err {:.1}) | BQP {}q (err {:.1}) | motion fallback {}q (err {:.1})",
        fqp.0, fqp.1, bqp.0, bqp.1, motion.0, motion.1
    );
    if args.get_or("calibration", false)? {
        let c = record.calibration();
        println!(
            "CALIBRATION predicted_mass={:.3} hit_rate={:.3} gap={:.3}",
            c.predicted_mass,
            c.hit_rate,
            c.gap()
        );
        if let Some(raw) = args.optional("tolerance") {
            let tolerance: f64 = raw
                .parse()
                .map_err(|_| format!("--tolerance: cannot parse `{raw}`"))?;
            if tolerance.is_nan() || tolerance < 0.0 {
                return Err(format!("--tolerance must be non-negative, got {tolerance}"));
            }
            if c.gap().abs() > tolerance {
                return Err(format!(
                    "calibration gap {:.3} exceeds tolerance {tolerance}",
                    c.gap()
                ));
            }
        }
    } else if args.optional("tolerance").is_some() {
        return Err("--tolerance requires --calibration true".into());
    }
    Ok(())
}
