//! Reporting: every experiment prints a table to stdout and writes
//! the same rows to `experiments_output/<id>.tsv` for EXPERIMENTS.md;
//! every report bench writes its `BENCH_<name>.json` through
//! [`write_json`].

use crate::timing::Bench;
use hpm_obs::json::{self, Json};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The workspace root, where `experiments_output/` and the committed
/// `BENCH_*.json` live — not the process CWD, which is the crate
/// directory under `cargo test` and anywhere at all under `cargo run`.
const WORKSPACE_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// A simple two-target table writer (stdout + TSV file).
pub struct Report {
    file: BufWriter<fs::File>,
}

impl Report {
    /// Opens `experiments_output/<name>.tsv` at the workspace root and
    /// prints a header line.
    pub fn new(name: &str, columns: &[&str]) -> std::io::Result<Self> {
        Self::in_dir(
            &Path::new(WORKSPACE_ROOT).join("experiments_output"),
            name,
            columns,
        )
    }

    /// Opens `<dir>/<name>.tsv` (creating the directory) and prints a
    /// header line.
    pub fn in_dir(dir: &Path, name: &str, columns: &[&str]) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let file = fs::File::create(dir.join(format!("{name}.tsv")))?;
        let mut report = Report {
            file: BufWriter::new(file),
        };
        println!("\n== {name} ==");
        report.row(columns)?;
        Ok(report)
    }

    /// Writes one row to both targets.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> std::io::Result<()> {
        let line = cells
            .iter()
            .map(AsRef::as_ref)
            .collect::<Vec<_>>()
            .join("\t");
        println!("{line}");
        writeln!(self.file, "{line}")?;
        Ok(())
    }
}

/// Formats a float with 1 decimal (error distances, microseconds).
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float with 3 decimals (similarities, confidences).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// A JSON number rounded to `decimals` places, so a report reads
/// `88.37`, not seventeen digits.
pub fn num(v: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Number((v * scale).round() / scale)
}

/// A JSON object from `(key, value)` pairs.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Renders one bench report: the envelope every `BENCH_*.json` shares
/// (`bench`, `methodology`, `host`) followed by the bench's own
/// `fields` in the order given, one key per line and one array element
/// per line.
fn render_json(name: &str, methodology: &str, fields: &[(&str, Json)]) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let envelope = [
        ("bench", Json::String(name.into())),
        ("methodology", Json::String(methodology.into())),
        (
            "host",
            obj([
                ("os", Json::String(std::env::consts::OS.into())),
                ("arch", Json::String(std::env::consts::ARCH.into())),
                ("cpus", Json::Number(cpus as f64)),
            ]),
        ),
    ];
    let lines: Vec<String> = envelope
        .iter()
        .chain(fields)
        .map(|(key, value)| match value {
            Json::Array(items) if !items.is_empty() => {
                let items: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
                format!("  \"{}\": [\n{}\n  ]", json::escape(key), items.join(",\n"))
            }
            value => format!("  \"{}\": {value}", json::escape(key)),
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// The only writer of a `BENCH_<name>.json`: renders the report and
/// holds it to [`json::parse`] in every mode, so a malformed report
/// (a NaN ratio, say) fails the `cargo test` smoke run rather than the
/// next regeneration; a measuring run then writes it into the
/// `HPM_BENCH_OUT` directory (default: the workspace root).
///
/// # Panics
/// Panics when the render is not valid JSON or the file cannot be
/// written.
pub fn write_json(bench: &Bench, name: &str, methodology: &str, fields: &[(&str, Json)]) {
    let text = render_json(name, methodology, fields);
    if let Err(e) = json::parse(&text) {
        panic!("BENCH_{name}.json would be malformed: {e}\n{text}");
    }
    if bench.measuring() {
        let dir = std::env::var_os("HPM_BENCH_OUT").map_or(WORKSPACE_ROOT.into(), PathBuf::from);
        let path = dir.join(format!("BENCH_{name}.json"));
        fs::write(&path, text).expect("write bench report");
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(f1(1234.567), "1234.6");
        assert_eq!(f3(0.123456), "0.123");
        assert_eq!(num(88.3651, 2), Json::Number(88.37));
        assert_eq!(num(2095.0, 0).to_string(), "2095");
    }

    #[test]
    fn report_writes_tsv_where_it_is_told() {
        let dir = std::env::temp_dir().join(format!("hpm-bench-report-{}", std::process::id()));
        let mut r = Report::in_dir(&dir, "selftest", &["a", "b"]).unwrap();
        r.row(&["1", "2"]).unwrap();
        drop(r);
        let content = fs::read_to_string(dir.join("selftest.tsv")).unwrap();
        assert_eq!(content, "a\tb\n1\t2\n");
        fs::remove_dir_all(&dir).unwrap();
        // Regression: `Report::new` used to resolve against the CWD,
        // which under `cargo test` is this crate's directory.
        let stray = Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments_output");
        assert!(!stray.exists(), "{} left behind", stray.display());
    }

    #[test]
    fn rendered_report_parses_with_its_envelope() {
        let rows = vec![obj([("n", num(1.0, 0)), ("speedup", num(6.2849, 2))])];
        let fields = [("reps", num(3.0, 0)), ("results", Json::Array(rows))];
        let text = render_json("selftest", "say \"how\"", &fields);
        let doc = json::parse(&text).expect("valid");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("selftest"));
        assert_eq!(
            doc.get("methodology").and_then(Json::as_str),
            Some("say \"how\"")
        );
        assert!(doc.get("host").and_then(|h| h.get("cpus")).is_some());
        assert_eq!(doc.get("results").unwrap().as_array().unwrap().len(), 1);
        // A smoke-mode harness validates and writes nothing.
        write_json(&Bench::default(), "selftest", "m", &fields);
    }

    #[test]
    #[should_panic(expected = "BENCH_selftest.json would be malformed")]
    fn a_broken_field_fails_the_smoke_run() {
        let fields = [("speedup", Json::Number(1.0 / 0.0))];
        write_json(&Bench::default(), "selftest", "m", &fields);
    }
}
