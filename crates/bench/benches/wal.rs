//! WAL overhead benchmark: what does durability cost per report?
//!
//! Compares a memory-only `MovingObjectStore::new` against durable
//! stores at group-commit sizes 1, 32 and 256 — the knob that trades
//! commit latency for ingest throughput — under both fsync policies,
//! in time and in bytes on disk per report (one frame per commit, so
//! the bytes fall as the batches grow).
//! Each mode ingests the same contiguous single-object stream through
//! `report()`, draining the group-commit buffer with `flush_wal()`
//! before the clock stops; `min_train_subs` is set far out of reach so
//! timing measures the ingest + logging path, never a retrain.
//!
//! The `Never` rows isolate what the WAL itself costs (encode + group
//! buffer + one `write` syscall per batch; durability = page cache,
//! which is exactly the process-crash model the recovery tests
//! exercise). The `Always` rows add an `fdatasync` per batch, so they
//! measure the storage device as much as the WAL — group commit's job
//! is amortizing that device round-trip, visible in the 1 -> 32 ->
//! 256 progression.
//!
//! Run with `cargo bench --bench wal`; writes `BENCH_wal.json` at the
//! workspace root (`HPM_BENCH_OUT` overrides the directory). Under
//! `cargo test` it runs a small smoke pass, renders and parses the
//! report, and writes nothing.
//!
//! Caveat: numbers come from the machine's temp filesystem inside a
//! container. The in-memory baseline is a few tens of nanoseconds, so
//! even one amortized syscall registers as a multiple; and fdatasync
//! latency here is container-fs latency, not a datacenter disk's. The
//! portable signals are the orderings (off <= gc256 <= gc32 <= gc1,
//! Never <= Always) and the shrinking fsync penalty as batches grow.
//! Bytes per report do not depend on the host at all.

use hpm_bench::report::{num, obj, write_json};
use hpm_bench::{best_of, Bench};
use hpm_core::HpmConfig;
use hpm_geo::Point;
use hpm_objectstore::{DurabilityConfig, MovingObjectStore, ObjectId, StoreConfig};
use hpm_obs::json::Json;
use hpm_patterns::{DiscoveryParams, MiningParams};
use hpm_store::wal::FsyncPolicy;
use std::sync::atomic::{AtomicU64, Ordering};

const PERIOD: u32 = 300;

fn config() -> StoreConfig {
    StoreConfig {
        discovery: DiscoveryParams {
            period: PERIOD,
            eps: 30.0,
            min_pts: 4,
        },
        mining: MiningParams::paper_defaults(),
        hpm: HpmConfig::default(),
        // Far beyond the stream length: the bench times ingest +
        // logging, never a retrain.
        min_train_subs: 1_000_000,
        retrain_every_subs: 1,
        recent_len: 2,
        shards: 1,
        threads: 1,
        index: hpm_objectstore::IndexConfig::default(),
    }
}

fn tmp_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hpm-bench-wal-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One benchmark mode: memory-only, or durable at a group-commit size
/// and fsync policy.
struct Mode {
    name: &'static str,
    group_commit: Option<usize>,
    fsync: FsyncPolicy,
}

const MODES: [Mode; 7] = [
    Mode {
        name: "wal-off",
        group_commit: None,
        fsync: FsyncPolicy::Never,
    },
    Mode {
        name: "gc1",
        group_commit: Some(1),
        fsync: FsyncPolicy::Never,
    },
    Mode {
        name: "gc32",
        group_commit: Some(32),
        fsync: FsyncPolicy::Never,
    },
    Mode {
        name: "gc256",
        group_commit: Some(256),
        fsync: FsyncPolicy::Never,
    },
    Mode {
        name: "gc1+fsync",
        group_commit: Some(1),
        fsync: FsyncPolicy::Always,
    },
    Mode {
        name: "gc32+fsync",
        group_commit: Some(32),
        fsync: FsyncPolicy::Always,
    },
    Mode {
        name: "gc256+fsync",
        group_commit: Some(256),
        fsync: FsyncPolicy::Always,
    },
];

struct Row {
    name: &'static str,
    group_commit: usize,
    fsync: &'static str,
    ns_per_report: u64,
    /// Slowdown relative to the wal-off row (1.0 for wal-off itself).
    vs_off: f64,
    /// Data-directory bytes per report (0 for wal-off).
    bytes_per_report: f64,
}

/// Reports `reports` contiguous samples of object 1: a daily loop
/// along x, drifting north a little every period.
fn ingest(store: &MovingObjectStore, reports: usize) {
    for t in 0..reports as u64 {
        let w = (t % PERIOD as u64) as f64;
        let p = Point::new(w * 3.0, (t / PERIOD as u64) as f64 * 0.01);
        std::hint::black_box(store.report(ObjectId(1), t, std::hint::black_box(p))).unwrap();
    }
}

/// The bytes a durable store's data directory holds per report after
/// ingesting `reports` samples at `group_commit` and draining the
/// buffer. Untimed; the fsync policy does not change the bytes, so
/// every durable row is sized over the same stream.
fn bytes_per_report(group_commit: usize, reports: usize) -> f64 {
    let dir = tmp_dir();
    let durability = DurabilityConfig {
        dir: dir.clone(),
        group_commit,
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
    };
    let store = MovingObjectStore::open(config(), durability).expect("open durable store");
    ingest(&store, reports);
    store.flush_wal().expect("drain group-commit buffer");
    drop(store);
    let bytes: u64 = std::fs::read_dir(&dir)
        .expect("list bench dir")
        .map(|e| e.and_then(|e| e.metadata()).expect("stat bench file").len())
        .sum();
    std::fs::remove_dir_all(&dir).expect("clean bench dir");
    bytes as f64 / reports as f64
}

/// Ingests `reports` contiguous samples and returns the wall-clock
/// nanoseconds per report, best of `reps` fresh runs. Every rep's
/// store is opened before the clock starts and checked after it stops.
fn measure(mode: &Mode, reports: usize, reps: usize) -> u64 {
    let id = ObjectId(1);
    let fresh: Vec<_> = (0..reps)
        .map(|_| match mode.group_commit {
            Some(group_commit) => {
                let dir = tmp_dir();
                let durability = DurabilityConfig {
                    dir: dir.clone(),
                    group_commit,
                    fsync: mode.fsync,
                    snapshot_every: 0,
                };
                let store = MovingObjectStore::open(config(), durability);
                (store.expect("open durable store"), Some(dir))
            }
            None => (MovingObjectStore::new(config()), None),
        })
        .collect();
    let mut stores = fresh.iter();
    let best = best_of(reps, || {
        let (store, _) = stores.next().expect("one fresh store per rep");
        ingest(store, reports);
        store.flush_wal().expect("drain group-commit buffer");
    });
    for (store, dir) in fresh {
        // Durability must not change what was ingested: every sample
        // survives a reopen (replayed from the WAL segments).
        assert_eq!(store.stats(id).unwrap().samples, reports);
        if let Some(dir) = dir {
            drop(store);
            let back =
                MovingObjectStore::open(config(), DurabilityConfig::new(&dir)).expect("reopen");
            assert_eq!(back.stats(id).unwrap().samples, reports, "lost samples");
            drop(back);
            std::fs::remove_dir_all(&dir).expect("clean bench dir");
        }
    }
    best.as_nanos() as u64 / reports as u64
}

/// Snapshot write cost: the format writes each history's parts as the
/// store holds them — sealed chunks and the open chunk verbatim, the
/// raw window — with no recompress on the snapshot path. Encode timed
/// (encode + buffer build, no fsync — matching the `never` rows'
/// durability model), best of `reps`. The retired raw-points v1 format's last figures on
/// this fleet are in `docs/BENCHMARKS.md`.
struct SnapCost {
    objects: usize,
    samples_per_object: usize,
    bytes: usize,
    encode_ms: f64,
}

fn snapshot_cost(objects: usize, samples_per_object: usize, reps: usize) -> SnapCost {
    use hpm_store::{encode_snapshot, HistorySnapshot, ObjectSnapshot};
    use hpm_trajectory::{ChunkParams, ChunkedHistory};

    let snaps: Vec<ObjectSnapshot> = (0..objects as u64)
        .map(|id| {
            let mut h = ChunkedHistory::new(0, ChunkParams::default());
            let (mut x, mut y) = (5000.0 + id as f64 * 7.0, 5000.0 - id as f64);
            for i in 0..samples_per_object as u64 {
                x += ((i % 7) as f64 - 3.0) * 0.5;
                y += (((i + id) % 5) as f64 - 2.0) * 0.5;
                h.push(Point::new(x, y));
            }
            ObjectSnapshot {
                id,
                start: 0,
                history: HistorySnapshot::of(&h),
                trained_subs: 0,
                model: None,
            }
        })
        .collect();

    let mut bytes = 0;
    let encode = best_of(reps, || {
        let blob = encode_snapshot(&snaps);
        bytes = blob.len();
        blob
    });
    SnapCost {
        objects,
        samples_per_object,
        bytes,
        encode_ms: encode.as_secs_f64() * 1e3,
    }
}

fn run(bench: &Bench, reports: usize, reps: usize) {
    let mut rows: Vec<Row> = Vec::new();
    for mode in &MODES {
        let bytes_per_report = mode
            .group_commit
            .map_or(0.0, |group_commit| bytes_per_report(group_commit, reports));
        // fsync rows cost microseconds per report (the device round
        // trip dwarfs any scheduler noise); spend the measurement
        // budget where nanoseconds matter instead.
        let (reports, reps) = match mode.fsync {
            FsyncPolicy::Always => (reports / 4, reps.div_ceil(2)),
            FsyncPolicy::Never => (reports, reps),
        };
        let ns = measure(mode, reports, reps);
        let off_ns = rows.first().map_or(ns, |r: &Row| r.ns_per_report);
        let row = Row {
            name: mode.name,
            group_commit: mode.group_commit.unwrap_or(0),
            fsync: match mode.fsync {
                FsyncPolicy::Always => "always",
                FsyncPolicy::Never => "never",
            },
            ns_per_report: ns,
            vs_off: ns as f64 / off_ns as f64,
            bytes_per_report,
        };
        println!(
            "  {:>11}: {:>7} ns/report  ({:.2}x vs wal-off)  {:>5.2} B/report",
            row.name, row.ns_per_report, row.vs_off, row.bytes_per_report
        );
        rows.push(row);
    }
    // Snapshot write cost: also taken in smoke mode so `cargo test`
    // exercises the encoder.
    let snap = if bench.measuring() {
        snapshot_cost(64, 4096, 3)
    } else {
        snapshot_cost(4, 600, 1)
    };
    println!(
        "  snapshot {} objs x {} samples: {} B, encode {:.1} ms",
        snap.objects, snap.samples_per_object, snap.bytes, snap.encode_ms
    );
    let overhead_at_256 = rows
        .iter()
        .find(|r| r.group_commit == 256 && r.fsync == "never")
        .map_or(0.0, |r| r.vs_off);
    let results = rows
        .iter()
        .map(|r| {
            obj([
                ("mode", Json::String(r.name.into())),
                ("group_commit", num(r.group_commit as f64, 0)),
                ("fsync", Json::String(r.fsync.into())),
                ("ns_per_report", num(r.ns_per_report as f64, 0)),
                ("vs_off", num(r.vs_off, 2)),
                ("bytes_per_report", num(r.bytes_per_report, 2)),
            ])
        })
        .collect();
    let methodology = format!(
        "single object, {reports} contiguous report() calls per rep, best-of-{reps} fresh runs \
         per fsync=never mode (fsync=always modes run a quarter of the reports, half the reps: \
         device latency dwarfs scheduler noise there); min_train_subs out of reach so no \
         retrain pollutes timing; durable modes open a fresh data dir before the clock starts \
         and drain the group-commit buffer via flush_wal() inside it; each durable rep is \
         reopened afterwards and must replay to the same sample count. fsync=never rows \
         isolate WAL cost under the process-crash durability model (page cache survives, \
         matching the recovery tests); fsync=always rows add one fdatasync per batch and so \
         measure the device as much as the WAL — group commit amortizes that round-trip. \
         bytes_per_report is a separate untimed ingest of the full stream per durable mode: \
         the data directory (WAL segment, header included) over the reports logged, exact \
         and host-independent, equal under both fsync policies. Container caveat: temp-fs fdatasync latency is container-fs latency, not a \
         datacenter disk's, and the few-tens-of-ns in-memory baseline makes any syscall \
         register as a multiple; the portable signals are the orderings (off <= gc256 <= \
         gc32 <= gc1, never <= always), not the absolute ratios"
    );
    let snapshot = obj([
        ("objects", num(snap.objects as f64, 0)),
        ("samples_per_object", num(snap.samples_per_object as f64, 0)),
        ("bytes", num(snap.bytes as f64, 0)),
        ("encode_ms", num(snap.encode_ms, 2)),
        (
            "note",
            Json::String(
                "sealed chunks and the open chunk are written verbatim (no recompress), the \
                 window raw; raw size is 16 B per sample"
                    .into(),
            ),
        ),
    ]);
    let fields = [
        ("period", num(PERIOD as f64, 0)),
        ("reports_per_rep", num(reports as f64, 0)),
        ("reps", num(reps as f64, 0)),
        ("wal_on_overhead_at_gc256", num(overhead_at_256, 2)),
        ("snapshot", snapshot),
        ("results", Json::Array(results)),
    ];
    write_json(bench, "wal", &methodology, &fields);
}

fn main() {
    let bench = Bench::from_args();
    if bench.measuring() {
        run(&bench, 50_000, 9);
    } else {
        // Smoke (cargo test): prove every mode ingests and reopens.
        run(&bench, 512, 1);
        println!("wal benchmark smoke test passed");
    }
}
