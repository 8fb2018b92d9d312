//! End-to-end tests driving the `hpm` binary itself.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hpm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpm"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A directory of the calling test's own: tests run on parallel threads
/// and each removes its directory when done.
fn tmpdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpm_e2e_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_subcommands() {
    let out = hpm(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    // Each verb heads a two-space-indented line of the SUBCOMMANDS block.
    let verbs: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "SUBCOMMANDS")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let expected = [
        "generate", "train", "info", "predict", "ingest", "serve", "stats", "eval",
    ];
    assert_eq!(verbs, expected, "{text}");
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    for verb in ["frobnicate", "staypoints", "simplify"] {
        let out = hpm(&[verb]);
        assert_eq!(out.status.code(), Some(1), "{verb}");
        assert!(stderr(&out).contains("unknown subcommand"), "{verb}");
    }
}

#[test]
fn unknown_flag_fails_cleanly() {
    let out = hpm(&[
        "generate",
        "--dataset",
        "bike",
        "--output",
        "/dev/null",
        "--bogus",
        "1",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--bogus"));

    // `serve` has no response queue to size: the retired flag is an
    // unknown flag like any other, rejected before anything binds.
    let out = hpm(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--period",
        "60",
        "--queue-depth",
        "64",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown flag --queue-depth"));
}

#[test]
fn full_workflow() {
    let dir = tmpdir("full_workflow");
    let csv = dir.join("bike.csv");
    let model = dir.join("bike.hpm");
    let csv_s = csv.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    // generate
    let out = hpm(&[
        "generate",
        "--dataset",
        "bike",
        "--subs",
        "45",
        "--seed",
        "3",
        "--output",
        csv_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("13500 samples"));

    // train
    let out = hpm(&[
        "train", "--input", csv_s, "--period", "300", "--output", model_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("patterns ->"));

    // info (+map)
    let out = hpm(&["info", "--model", model_s, "--top", "3", "--map", "true"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("frequent regions"));
    assert!(text.contains("density map"));
    assert!(text.contains("-->"));

    // predict (mid-period query so patterns can apply)
    let out = hpm(&[
        "predict", "--model", model_s, "--input", csv_s, "--at", "13540", "--k", "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("predicted via"));

    // eval
    let out = hpm(&[
        "eval",
        "--input",
        csv_s,
        "--period",
        "300",
        "--train-subs",
        "35",
        "--length",
        "40",
        "--queries",
        "20",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("HPM"));
    assert!(text.contains("median"));
    assert!(text.contains("HPM paths"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A flag value a library asserts on is refused where the flag is
/// read: exit 1 with an `error:` line naming the flag, never a panic
/// (exit 101).
#[test]
fn out_of_range_flags_exit_1_naming_the_flag() {
    let dir = tmpdir("flag_ranges");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (csv, small, model) = (path("bike.csv"), path("small.csv"), path("bike.hpm"));
    let generate = ["generate", "--dataset", "bike", "--seed", "3", "--subs"];
    for (subs, out) in [("20", &csv), ("3", &small)] {
        let out = hpm(&[&generate[..], &[subs, "--output", out]].concat());
        assert!(out.status.success(), "{}", stderr(&out));
    }
    let out = hpm(&[
        "train", "--input", &small, "--period", "300", "--output", &model,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let predict = [
        "predict", "--model", &model, "--input", &csv, "--at", "6100",
    ];
    let eval = ["eval", "--input", &csv, "--period", "300"];
    let train = ["train", "--input", &csv, "--output", &path("never.hpm")];
    let store = path("store");
    let ingest = ["ingest", "--input", &csv, "--data-dir", &store];
    // 99999999999 is more than u32::MAX steps past the input's last
    // timestamp, 5999.
    let far = path("far.txt");
    std::fs::write(&far, "6100\n99999999999\n").unwrap();
    let (batch, never) = (format!("--batch {far}"), path("never.csv"));
    let subs = format!("--output {never} --subs 100000000");
    // Each case gets one value wrong, in its last flag.
    let cases: [(&[&str], &str); 17] = [
        (&predict, "--recent 0"),
        (&predict, "--k 0"),
        (&predict, "--margin -1"),
        (&eval, "--train-subs 10 --length 0"),
        (&eval, "--train-subs 10 --length 9 --queries 0"),
        (&eval, "--length 9 --train-subs 40"),
        (&eval, "--train-subs 10 --length 290"),
        (&train, "--period 0"),
        (&train, "--period 300 --eps 0"),
        (&train, "--period 300 --min-support 0"),
        (&ingest, "--period 300 --min-train 0"),
        (&ingest, "--period 0"),
        (&train, "--period 2000000"),
        (&ingest, "--period 2000000"),
        (&predict[..5], "--at 99999999999"),
        (&predict[..5], &batch),
        (&generate[..5], &subs),
    ];
    for (command, flags) in cases {
        let flags: Vec<&str> = flags.split(' ').collect();
        let args = [command, &flags].concat();
        let out = hpm(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        let flag = flags[flags.len() - 2];
        assert!(
            err.starts_with("error: ") && err.contains(flag),
            "{args:?}: {err}"
        );
    }
    let made = ["never.hpm", "store", "never.csv"].map(|name| dir.join(name).exists());
    assert_eq!(made, [false; 3]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A 22-byte model file with a valid checksum that claims 50,000,000
/// regions (`HPMMODEL`, version 1, period 1, the count, the trailer).
/// Sized by its claim, the region table asks for 3.2 GB and the process
/// aborts under a 1 GB address-space limit; bounded by the bytes behind
/// the count, `hpm info` exits 1 with the typed decode error.
#[test]
fn info_refuses_a_count_its_bytes_cannot_hold_under_a_memory_limit() {
    use hpm_store::wire::{fnv1a, put_varint};
    let dir = tmpdir("count_bound");
    let model = dir.join("claims-50m-regions.hpm");
    let mut blob = hpm_store::format::MAGIC.to_vec();
    for v in [1, 1, 50_000_000] {
        put_varint(&mut blob, v);
    }
    let checksum = fnv1a(&blob);
    blob.extend_from_slice(&checksum.to_le_bytes());
    assert_eq!(blob.len(), 22);
    std::fs::write(&model, &blob).unwrap();

    let script = r#"ulimit -v 1000000; exec "$0" info --model "$1""#;
    let out = Command::new("sh")
        .args(["-c", script, env!("CARGO_BIN_EXE_hpm")])
        .arg(&model)
        .output()
        .expect("sh runs");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert_eq!(
        stderr(&out),
        "error: count 50000000 exceeds limit 0\n",
        "the typed CountOutOfRange, not an allocation failure"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The documented snapshot schema (`docs/OBSERVABILITY.md`):
/// `counters` and `gauges` are objects of numbers; `histograms` is an
/// array of objects carrying name, unit, count, sum, min, max, p50,
/// p99 and `[upper_bound, count]` buckets that sum to the count.
fn assert_snapshot_shape(doc: &hpm_obs::json::Json) {
    use hpm_obs::json::Json;
    for section in ["counters", "gauges"] {
        let map = doc.get(section).and_then(Json::as_object);
        let map = map.unwrap_or_else(|| panic!("missing object field {section:?}"));
        for (name, v) in map {
            assert!(v.as_f64().is_some(), "{section}[{name:?}] is not a number");
        }
    }
    let hists = doc.get("histograms").and_then(Json::as_array);
    for h in hists.expect("missing array field \"histograms\"") {
        let name = h
            .get("name")
            .and_then(Json::as_str)
            .expect("histogram name");
        let unit = h.get("unit").and_then(Json::as_str);
        assert!(
            matches!(unit, Some("count" | "ns" | "bytes")),
            "{name}: unit {unit:?}"
        );
        let number = |field: &str| {
            let v = h.get(field).and_then(Json::as_f64);
            v.unwrap_or_else(|| panic!("{name}: missing number {field:?}"))
        };
        for field in ["sum", "min", "max", "p50", "p99"] {
            number(field);
        }
        let buckets = h.get("buckets").and_then(Json::as_array);
        let total: f64 = buckets
            .unwrap_or_else(|| panic!("{name}: missing array \"buckets\""))
            .iter()
            .map(|b| match b.as_array() {
                Some([upper, count]) if upper.as_f64().is_some() => count.as_f64(),
                _ => None,
            })
            .map(|count| count.unwrap_or_else(|| panic!("{name}: bucket is not [upper, count]")))
            .sum();
        assert_eq!(
            total,
            number("count"),
            "{name}: buckets do not sum to count"
        );
    }
}

#[test]
fn predict_metrics_json_covers_hot_path() {
    let dir = tmpdir("metrics_json");
    let csv = dir.join("bike.csv");
    let model = dir.join("bike.hpm");
    let csv_s = csv.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    let out = hpm(&[
        "generate",
        "--dataset",
        "bike",
        "--subs",
        "45",
        "--seed",
        "3",
        "--output",
        csv_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = hpm(&[
        "train", "--input", csv_s, "--period", "300", "--output", model_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // --metrics-json - appends the snapshot JSON to stdout; --metrics
    // true adds the text table.
    let out = hpm(&[
        "predict",
        "--model",
        model_s,
        "--input",
        csv_s,
        "--at",
        "13540",
        "--metrics",
        "true",
        "--metrics-json",
        "-",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("predicted via"));
    assert!(text.contains("-- metrics --"));
    let json_line = text
        .lines()
        .find(|l| l.starts_with("{\"counters\""))
        .expect("snapshot JSON on stdout");
    let doc = hpm_obs::json::parse(json_line).expect("valid snapshot JSON");
    assert_snapshot_shape(&doc);
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(hpm_obs::json::Json::as_f64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    // One query was answered and dispatched to exactly one arm.
    assert_eq!(counter("core.predict.calls"), 1.0);
    assert_eq!(
        counter("core.predict.fqp_dispatch") + counter("core.predict.bqp_dispatch"),
        1.0
    );
    // The model was decoded and, if a pattern path ran, the TPT was
    // searched; either way the names exist because the CLI registers
    // the full catalogue.
    assert!(counter("store.model.bytes_read") > 0.0);
    let hists = doc
        .get("histograms")
        .and_then(hpm_obs::json::Json::as_array)
        .expect("histograms array");
    let hist_count = |name: &str| {
        hists
            .iter()
            .find(|h| h.get("name").and_then(hpm_obs::json::Json::as_str) == Some(name))
            .and_then(|h| h.get("count"))
            .and_then(hpm_obs::json::Json::as_f64)
            .unwrap_or_else(|| panic!("histogram {name} missing"))
    };
    // Per-stage latency histograms fired along the executed path.
    assert_eq!(hist_count("core.predict"), 1.0);
    assert!(hist_count("store.model.decode") >= 1.0);

    // File output matches the documented shape too.
    let json_file = dir.join("metrics.json");
    let out = hpm(&[
        "predict",
        "--model",
        model_s,
        "--input",
        csv_s,
        "--at",
        "13540",
        "--metrics-json",
        json_file.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = hpm_obs::json::parse(&std::fs::read_to_string(&json_file).unwrap())
        .expect("valid snapshot JSON file");
    assert_snapshot_shape(&doc);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_batch_mode_parallel_matches_sequential() {
    let dir = tmpdir("batch_predict");
    let csv = dir.join("bike.csv");
    let model = dir.join("bike.hpm");
    let csv_s = csv.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    let out = hpm(&[
        "generate",
        "--dataset",
        "bike",
        "--subs",
        "45",
        "--seed",
        "3",
        "--output",
        csv_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = hpm(&[
        "train", "--input", csv_s, "--period", "300", "--output", model_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Query-time file: comments and blank lines tolerated, answers in
    // file order.
    let batch = dir.join("times.txt");
    std::fs::write(
        &batch,
        "# predictive query times\n13540\n\n13600\n13700\n13800\n",
    )
    .unwrap();
    let batch_s = batch.to_str().unwrap();

    let run = |threads: &str| {
        let out = hpm(&[
            "predict",
            "--model",
            model_s,
            "--input",
            csv_s,
            "--batch",
            batch_s,
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    let seq = run("1");
    assert!(seq.contains("4 batch queries on 1 threads"), "{seq}");
    for t in ["t=13540:", "t=13600:", "t=13700:", "t=13800:"] {
        assert!(seq.contains(t), "{seq}");
    }
    // Input order is preserved.
    assert!(seq.find("t=13540:").unwrap() < seq.find("t=13800:").unwrap());

    // 4 threads: identical answers, only the reported width differs.
    let par = run("4");
    assert_eq!(
        seq.replace("on 1 threads", "on N threads"),
        par.replace("on 4 threads", "on N threads")
    );

    // --at and --batch together is an error.
    let out = hpm(&[
        "predict", "--model", model_s, "--input", csv_s, "--batch", batch_s, "--at", "13540",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("mutually exclusive"));

    // A past query time anywhere in the file is rejected.
    std::fs::write(&batch, "13540\n5\n").unwrap();
    let out = hpm(&[
        "predict", "--model", model_s, "--input", csv_s, "--batch", batch_s,
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not after"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_rejects_past_query_time() {
    let dir = tmpdir("predict_rejects_past_query_time");
    let csv = dir.join("tiny.csv");
    std::fs::write(&csv, "t,x,y\n0,1,1\n1,2,2\n2,3,3\n").unwrap();
    let model = dir.join("tiny.hpm");
    let out = hpm(&[
        "train",
        "--input",
        csv.to_str().unwrap(),
        "--period",
        "3",
        "--output",
        model.to_str().unwrap(),
        "--min-pts",
        "1",
        "--min-support",
        "1",
        "--max-gap",
        "1",
        "--max-span",
        "2",
        "--eps",
        "5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = hpm(&[
        "predict",
        "--model",
        model.to_str().unwrap(),
        "--input",
        csv.to_str().unwrap(),
        "--at",
        "1",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("not after"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_reports_gap_errors_without_fill() {
    let dir = tmpdir("train_reports_gap_errors_without_fill");
    let csv = dir.join("gappy.csv");
    std::fs::write(&csv, "t,x,y\n0,1,1\n2,2,2\n").unwrap();
    let out = hpm(&[
        "train",
        "--input",
        csv.to_str().unwrap(),
        "--period",
        "2",
        "--output",
        dir.join("x.hpm").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("fill-gaps"));
    std::fs::remove_dir_all(&dir).ok();
}
