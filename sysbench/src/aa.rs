//! The A/A study: the whole suite as two alternating sets of runs of
//! the same binary, which must agree within the benchmark's own
//! bounds — the benchmark's proof that a difference it reports between
//! two commits is not its own noise. The end-to-end metrics the driver
//! does not bound are judged the same way, against the bound they
//! would carry: that is the evidence rule 7 demoted them on.

use crate::catalog::{self, Gated};
use crate::pipeline;
use crate::run::{RunError, Scale};
use crate::stats;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// Runs per set.
    pub runs: usize,
    /// `--seconds` of every run.
    pub seconds: u64,
    /// Seed of every run of both sets: with one seed, whatever differs
    /// between two runs is the machine, and the exact metrics must not
    /// differ at all.
    pub seed: u64,
}

/// The study's verdict on one workload/metric pair.
#[derive(Debug, Clone)]
pub struct Pair {
    pub workload: &'static str,
    pub metric: Gated,
    /// Whether the driver bounds the metric.
    pub gated: bool,
    pub median_a: f64,
    pub median_b: f64,
    /// `|median_b − median_a| / median_a`.
    pub difference: f64,
    /// Quartile spread of all runs of both sets, as a share of their median.
    pub spread: f64,
    /// Whether every run of both sets produced the same value to the bit.
    pub identical: bool,
}

impl Pair {
    /// The two sets disagree by more than the metric's bound: the
    /// benchmark cannot tell a regression from its own noise.
    pub fn fails(&self) -> bool {
        self.difference > self.metric.bound
    }

    /// Rule 7: a metric whose two medians differ by more than half its
    /// bound does not belong among the bounded metrics — and nor does
    /// one whose runs spread wider than the bound between their
    /// quartiles, which is the driver's own test.
    pub fn must_demote(&self) -> bool {
        self.difference > self.metric.bound / 2.0 || self.spread > self.metric.bound
    }
}

/// Judges one pair from its two sets of values.
pub fn judge(
    workload: &'static str,
    metric: Gated,
    gated: bool,
    a: &[f64],
    b: &[f64],
) -> Option<Pair> {
    let median_a = stats::median(a)?;
    let median_b = stats::median(b)?;
    let all: Vec<f64> = a.iter().chain(b).copied().collect();
    Some(Pair {
        workload,
        metric,
        gated,
        median_a,
        median_b,
        difference: (median_b - median_a).abs() / median_a.abs(),
        spread: stats::iqr_share(&all).unwrap_or(0.0),
        identical: all.iter().all(|v| v.to_bits() == all[0].to_bits()),
    })
}

/// Metrics that are exact: a seed determines them to the last bit.
const EXACT: [&str; 2] = ["disk_bytes_per_report", "predict_err_mean"];

/// Runs the study. Returns the report (markdown), the raw values
/// (CSV) and whether every bounded pair stayed within its bound.
pub fn run(study: Study) -> Result<(String, String, bool), RunError> {
    let scale = Scale {
        seconds: study.seconds,
        shrink: 1,
    };
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(usize, String), [Vec<f64>; 2]> = BTreeMap::new();
    let mut csv = String::from("workload,set,run,seed,metric,value\n");
    let mut clean = true;
    for i in 0..study.runs {
        // Alternate which set goes first so drift lands on both alike.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                eprintln!(
                    "aa: set {} run {} {}",
                    ["A", "B"][set],
                    i + 1,
                    workload.name()
                );
                let out = pipeline::run(workload, study.seed, scale)?;
                clean &= out.correct();
                for (name, value) in out.metrics {
                    writeln!(
                        csv,
                        "{},{},{},{},{name},{}",
                        workload.name(),
                        ["A", "B"][set],
                        i + 1,
                        study.seed,
                        value.value
                    )
                    .expect("write to String");
                    values.entry((w, name)).or_default()[set].push(value.value);
                }
            }
        }
    }

    let mut pairs = Vec::new();
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for metric in catalog::END_TO_END {
            let Some([a, b]) = values.get(&(w, metric.name.to_string())) else {
                return Err(RunError(format!(
                    "{} never reported {}",
                    workload.name(),
                    metric.name
                )));
            };
            pairs.extend(judge(workload.name(), metric, true, a, b));
        }
        // A demoted metric is judged where the workload's own traffic
        // measures it.
        for metric in catalog::DEMOTED {
            if let Some([a, b]) = values.get(&(w, metric.name.to_string())) {
                pairs.extend(judge(workload.name(), metric, false, a, b));
            }
        }
    }

    let mut md = String::new();
    writeln!(
        md,
        "# A/A study: two sets of {} runs of one binary\n\n\
         `sysbench --aa {} --seconds {} --seed {}`; every run uses that one seed, and the \
         sets alternate which goes first. **bounded** metrics are the ones `BENCHMARK.json` \
         lists: such a pair **fails** (and the command exits non-zero) when its two medians \
         differ by more than the metric's bound. The others are the end-to-end metrics rule 7 \
         moved to the per-layer section, judged against the bound they would carry: **demote** \
         marks a pair whose medians differ by more than half the bound or whose {} runs spread \
         wider than the bound between their quartiles (`spread`, the driver's own test).\n",
        study.runs,
        study.runs,
        study.seconds,
        study.seed,
        2 * study.runs
    )
    .expect("write to String");
    md.push_str("| workload | metric | unit | bounded | median A | median B | difference | bound | spread | verdict |\n");
    md.push_str("|---|---|---|---|---:|---:|---:|---:|---:|---|\n");
    let mut ok = clean;
    for p in &pairs {
        let exact = EXACT.contains(&p.metric.name);
        let verdict = if p.fails() {
            "**FAILS**"
        } else if p.must_demote() {
            "**demote**"
        } else if exact && !p.identical {
            "**not exact**"
        } else if exact {
            "ok, identical"
        } else {
            "ok"
        };
        if p.gated {
            ok &= !p.fails() && (!exact || p.identical);
        }
        writeln!(
            md,
            "| {} | `{}` | {} | {} | {:.6} | {:.6} | {:.2}% | {:.1}% | {:.2}% | {verdict} |",
            p.workload,
            p.metric.name,
            p.metric.unit,
            if p.gated { "yes" } else { "no" },
            p.median_a,
            p.median_b,
            100.0 * p.difference,
            100.0 * p.metric.bound,
            100.0 * p.spread,
        )
        .expect("write to String");
    }
    let list = |gated: bool| {
        let names: Vec<String> = pairs
            .iter()
            .filter(|p| p.gated == gated && p.must_demote())
            .map(|p| format!("`{}/{}`", p.workload, p.metric.name))
            .collect();
        if names.is_empty() {
            "none".to_string()
        } else {
            names.join(", ")
        }
    };
    writeln!(
        md,
        "\n{} pairs; every run correct with no failed operation: **{}**. Bounded pairs rule 7 \
         would demote: {}. Unbounded pairs this study would keep demoted: {}.",
        pairs.len(),
        if clean { "yes" } else { "NO" },
        list(true),
        list(false),
    )
    .expect("write to String");
    Ok((md, csv, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judging_applies_the_bound_the_half_bound_and_the_spread() {
        let metric = catalog::Gated {
            bound: 0.10,
            ..catalog::DEMOTED[0]
        };
        let a = [10.0, 10.0, 10.0];
        let within = judge("w", metric, true, &a, &[10.2, 10.4, 10.3]).unwrap();
        assert!((within.difference - 0.03).abs() < 1e-12);
        assert!(!within.fails() && !within.must_demote());
        let half = judge("w", metric, true, &a, &[10.6, 10.6, 10.6]).unwrap();
        assert!(!half.fails() && half.must_demote());
        let over = judge("w", metric, true, &a, &[11.2, 11.2, 11.2]).unwrap();
        assert!(over.fails());
        // Medians that agree do not save a metric whose runs scatter.
        let wide = judge("w", metric, true, &[8.0, 10.0, 12.0], &[8.0, 10.0, 12.0]).unwrap();
        assert!(!wide.fails() && wide.must_demote());
        assert!(judge("w", metric, true, &a, &a).unwrap().identical);
        assert!(
            !judge("w", metric, true, &a, &[10.0, 10.0, 10.000001])
                .unwrap()
                .identical
        );
        assert!(judge("w", metric, true, &[], &[]).is_none());
    }
}
