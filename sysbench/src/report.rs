//! Printing: the per-workload table a person reads, and the one-line
//! JSON object the driver's contract reads.

use crate::catalog::{self, Gated};
use crate::run::Outcome;
use std::fmt::Write;

/// Which metrics the result line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The end-to-end metrics (`--trace 0`).
    EndToEnd,
    /// The per-layer metrics (`--trace 1`).
    PerLayer,
}

/// The run cannot be reported: a metric the contract requires was not
/// measured, or nothing was attempted.
#[derive(Debug, PartialEq, Eq)]
pub struct Missing(pub String);

/// A JSON number with all its digits; JSON has no NaN or infinity.
fn number(v: f64) -> Result<String, Missing> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(Missing(format!("non-finite value {v}")))
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// of `section`, each with its value and unit. Fails when a metric the
/// section must carry is absent.
pub fn result_line(out: &Outcome, section: Section) -> Result<String, Missing> {
    let names: Vec<String> = match section {
        Section::EndToEnd => catalog::END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .collect(),
        Section::PerLayer => catalog::per_layer().into_iter().map(|l| l.name).collect(),
    };
    if out.tally.attempted == 0 {
        return Err(Missing("no operation was attempted".into()));
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.tally.attempted,
        out.tally.failed
    );
    for (i, name) in names.iter().enumerate() {
        let value = out
            .metrics
            .get(name)
            .ok_or_else(|| Missing(format!("{name} was not measured")))?;
        if i > 0 {
            line.push_str(", ");
        }
        write!(
            line,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            number(value.value)?,
            value.unit
        )
        .expect("write to String");
    }
    line.push_str("}}");
    Ok(line)
}

fn bound_text(m: &Gated) -> String {
    format!(
        "{} is better, bound {:.1}%",
        m.better.word(),
        100.0 * m.bound
    )
}

/// The table a person reads: the bounded end-to-end metrics, the
/// end-to-end metrics that are not bounded, everything else the run
/// measured, then context and any failed checks.
pub fn human(workload: &str, seed: u64, out: &Outcome) -> String {
    let mut text = String::new();
    let mut line = |s: String| {
        text.push_str(&s);
        text.push('\n');
    };
    line(format!("== {workload}  seed {seed}"));
    let mut shown = std::collections::BTreeSet::new();
    let row = |name: &str, note: String| -> Option<String> {
        let v = out.metrics.get(name)?;
        let samples = v.samples.map_or(String::new(), |n| format!("  n={n}"));
        Some(format!(
            "  {name:<48} {:>18.6} {:<6}{samples}{note}",
            v.value, v.unit
        ))
    };
    for m in catalog::END_TO_END.iter() {
        if let Some(r) = row(m.name, format!("  [{}]", bound_text(m))) {
            shown.insert(m.name.to_string());
            line(r);
        }
    }
    for m in catalog::DEMOTED.iter() {
        let note = format!("  [{} is better, not bounded]", m.better.word());
        if let Some(r) = row(m.name, note) {
            shown.insert(m.name.to_string());
            line(r);
        }
    }
    for name in out.metrics.keys().filter(|n| !shown.contains(*n)) {
        if let Some(r) = row(name, String::new()) {
            line(r);
        }
    }
    for note in &out.notes {
        line(format!("  · {note}"));
    }
    line(format!(
        "  operations: {} attempted, {} failed; checks: {}",
        out.tally.attempted,
        out.tally.failed,
        if out.problems.is_empty() {
            "all passed".to_string()
        } else {
            format!("{} FAILED", out.problems.len())
        }
    ));
    for problem in &out.problems {
        line(format!("  ! {problem}"));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut out = Outcome::default();
        out.tally.add(1_000, 0);
        for m in catalog::END_TO_END {
            out.put(m.name, 1.25, m.unit);
        }
        out.put("knn_p99_ms", 4.8368, "ms");
        out
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(&outcome(), Section::EndToEnd).unwrap();
        let json = hpm_obs::json::parse(&line).unwrap();
        let keys: Vec<&String> = json.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = json.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(
            metrics.len(),
            catalog::END_TO_END.len(),
            "exactly the gated metrics"
        );
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(json.get("attempted").unwrap().as_f64(), Some(1_000.0));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_refused() {
        let mut out = outcome();
        out.metrics.remove("predict_err_mean");
        assert!(result_line(&out, Section::EndToEnd).is_err());
        let mut out = outcome();
        out.put("setup_s", f64::NAN, "s");
        assert!(result_line(&out, Section::EndToEnd).is_err());
        // The traced section needs every per-layer metric.
        assert!(result_line(&outcome(), Section::PerLayer).is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut out = outcome();
        out.tally.add(10, 1);
        let line = result_line(&out, Section::EndToEnd).unwrap();
        assert!(line.starts_with("{\"correct\": false"));
        let mut out = outcome();
        out.problem("index != scan");
        assert!(result_line(&out, Section::EndToEnd)
            .unwrap()
            .starts_with("{\"correct\": false"));
        // A run that attempted nothing has nothing to report.
        let mut out = outcome();
        out.tally = Default::default();
        assert!(result_line(&out, Section::EndToEnd).is_err());
    }
}
