//! `sysbench` — one repeatable system benchmark for the moving-objects
//! stack.
//!
//! ```text
//! sysbench                                   the four workloads, full size
//! sysbench --workload NAME --seed N          one workload
//!          [--seconds S] [--trace 0|1]       (--traced = --trace 1)
//! sysbench --smoke [--workload NAME]         1/50 size, checks on, timings not judged
//! sysbench --aa [N] [--aa-raw PATH]          A/A study: two alternating sets of N runs
//! ```
//!
//! A single-workload run prints its table and then, as the last line,
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. It
//! exits 0 when every check passed, 1 when one failed, 2 when it could
//! not run.

use std::process::ExitCode;
use sysbench::aa;
use sysbench::report::{self, Section};
use sysbench::run::{Outcome, RunError, Scale};
use sysbench::workloads::Workload;
use sysbench::{pipeline, traced};

const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: sysbench [--workload NAME] [--seed N] [--seconds S] \
    [--trace 0|1 | --traced] [--smoke] | --aa [N] [--aa-raw PATH]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    aa: Option<usize>,
    aa_raw: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: sysbench::catalog::RUN_SECONDS,
        traced: false,
        smoke: false,
        aa: None,
        aa_raw: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    format!(
                        "unknown workload {name}; one of {}",
                        Workload::ALL.map(Workload::name).join(", ")
                    )
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--aa" => {
                let runs = match argv.peek().and_then(|v| v.parse().ok()) {
                    Some(n) => {
                        argv.next();
                        n
                    }
                    None => 5,
                };
                args.aa = Some(runs);
            }
            "--aa-raw" => args.aa_raw = Some(value("a path")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Runs one workload, timed or traced, and prints its table.
fn run_one(workload: Workload, seed: u64, scale: Scale, traced: bool) -> Result<Outcome, RunError> {
    let out = if traced {
        traced::run(workload, seed, scale)?
    } else {
        pipeline::run(workload, seed, scale)?
    };
    print!("{}", report::human(workload.name(), seed, &out));
    Ok(out)
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let fail = |e: RunError| e.to_string();

    if let Some(runs) = args.aa {
        let study = aa::Study {
            runs,
            seconds: args.seconds,
            seed: args.seed,
        };
        let (markdown, csv, ok) = aa::run(study).map_err(fail)?;
        let raw = args.aa_raw.map_or_else(
            || sysbench::host::out_dir().join("aa-runs.csv"),
            std::path::PathBuf::from,
        );
        if let Some(dir) = raw.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&raw, csv).map_err(|e| format!("{}: {e}", raw.display()))?;
        print!("{markdown}");
        println!("\nRaw per-run values: `{}`.", raw.display());
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let scale = Scale {
        seconds: args.seconds,
        shrink: if args.smoke { Scale::SMOKE_SHRINK } else { 1 },
    };
    let Some(workload) = args.workload else {
        // The suite: every workload in turn. Timings are printed; only
        // correctness decides the exit code.
        let mut all_correct = true;
        for workload in Workload::ALL {
            let out = run_one(workload, args.seed, scale, args.traced).map_err(fail)?;
            all_correct &= out.correct();
        }
        println!(
            "{}: {}",
            if args.smoke { "smoke" } else { "suite" },
            if all_correct {
                "every check passed"
            } else {
                "CHECKS FAILED"
            }
        );
        return Ok(if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    };

    let out = run_one(workload, args.seed, scale, args.traced).map_err(fail)?;
    let section = if args.traced {
        Section::PerLayer
    } else {
        Section::EndToEnd
    };
    let line = report::result_line(&out, section).map_err(|m| m.0)?;
    println!("{line}");
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sysbench: {message}");
            ExitCode::from(2)
        }
    }
}
