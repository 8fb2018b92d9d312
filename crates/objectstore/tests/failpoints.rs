//! Failpoint-driven crash tests: a child process ingests a known
//! stream with `HPM_FAILPOINT` armed, dies mid-WAL-write (exit code
//! 86), and the parent recovers its data directory — asserting the
//! recovered store equals a reference fed exactly the records that
//! survived on disk. Two in-process tests cover the actions a process
//! lives through: `short` (a lying disk — the write "succeeds" but the
//! bytes never land) and `error` (a full disk — the write lands in
//! part, then fails).

mod common;

use common::{config, PERIOD};
use hpm_geo::Point;
use hpm_objectstore::{DurabilityConfig, FsyncPolicy, MovingObjectStore, ObjectId};
use hpm_store::wal::{scan_wal, WalRecord};
use hpm_trajectory::Timestamp;

const DAYS: usize = 6;

/// Failpoints are process-global; tests that append WAL records
/// in-process take this lock so an armed failpoint never bleeds into
/// a neighbour's writes.
static WAL_WRITERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn durable(dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        group_commit: 1,
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
    }
}

/// The deterministic stream both parent and child compute: two
/// commuter objects, one briefly wild, one mid-stream remove.
fn stream() -> Vec<(u64, Timestamp, Option<Point>)> {
    let mut ops = Vec::new();
    for d in 0..DAYS {
        let start = (d * PERIOD as usize) as Timestamp;
        for o in [1u64, 2] {
            if o == 2 && d == 3 {
                ops.push((2, start, None)); // remove
            }
            for t in 0..PERIOD {
                let p = if o == 1 && d == 4 {
                    Point::new(400.0 + t as f64 * 0.3, 400.0)
                } else {
                    Point::new(t as f64 * 40.0 + d as f64 * 0.1, o as f64)
                };
                ops.push((o, start + t as Timestamp, Some(p)));
            }
        }
    }
    ops
}

fn apply_ops(store: &MovingObjectStore, ops: &[(u64, Timestamp, Option<Point>)]) {
    for &(o, t, p) in ops {
        match p {
            Some(p) => store.report(ObjectId(o), t, p).unwrap(),
            None => {
                store.remove(ObjectId(o));
            }
        }
    }
}

/// A cumulative byte threshold that is guaranteed to land *inside*
/// the frame after `whole` complete frames. The frame ends come from a
/// clean, failpoint-free run of the same stream; with `group_commit`
/// 1 every record is a frame of its own and the failpoint's byte
/// counter advances one frame per commit, from the end of the 8-byte
/// header — so the `whole`-th frame end, less the header, plus 3
/// tears the next frame.
fn mid_frame_threshold(whole: usize) -> u64 {
    let _writers = WAL_WRITERS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("hpm-fp-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = MovingObjectStore::open(config(), durable(&dir)).unwrap();
    apply_ops(&store, &stream());
    drop(store);
    let scan = scan_wal(&std::fs::read(dir.join("wal-0-0.log")).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(scan.records.len(), stream().len(), "one frame per record");
    (scan.offsets[whole - 1] - 8 + 3) as u64
}

fn feed_records(store: &MovingObjectStore, records: &[WalRecord]) {
    for r in records {
        match *r {
            WalRecord::Report {
                object,
                timestamp,
                x,
                y,
            } => store
                .report(ObjectId(object), timestamp, Point::new(x, y))
                .unwrap(),
            WalRecord::Remove { object } => {
                store.remove(ObjectId(object));
            }
        }
    }
}

/// Recovers `dir`, rebuilds the reference from the surviving records,
/// and asserts equivalence; returns the survivor count.
fn recover_and_check(dir: &std::path::Path, ctx: &str) -> usize {
    let bytes = std::fs::read(dir.join("wal-0-0.log")).unwrap();
    let scan = scan_wal(&bytes);
    let recovered = MovingObjectStore::open(config(), durable(dir)).unwrap();
    let reference = MovingObjectStore::new(config());
    feed_records(&reference, &scan.records);
    assert_eq!(
        recovered.object_count(),
        reference.object_count(),
        "population ({ctx})"
    );
    let mut last: std::collections::BTreeMap<u64, Timestamp> = Default::default();
    for r in &scan.records {
        match *r {
            WalRecord::Report {
                object, timestamp, ..
            } => {
                last.insert(object, timestamp);
            }
            WalRecord::Remove { object } => {
                last.remove(&object);
            }
        }
    }
    for (&o, &t) in &last {
        let id = ObjectId(o);
        assert_eq!(
            recovered.stats(id).unwrap(),
            reference.stats(id).unwrap(),
            "stats of {o} ({ctx})"
        );
        for dt in 1..=PERIOD as Timestamp {
            assert_eq!(
                recovered.predict(id, t + dt),
                reference.predict(id, t + dt),
                "answers of {o} at +{dt} ({ctx})"
            );
        }
    }
    scan.records.len()
}

/// Runs this test binary again as a crashing child: `child_ingest`
/// below does the ingesting with the given failpoint armed.
fn spawn_crashing_child(dir: &std::path::Path, failpoint: &str) {
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args(["child_ingest", "--exact", "--test-threads=1"])
        .env("HPM_FP_CHILD_DIR", dir)
        .env("HPM_FAILPOINT", failpoint)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert_eq!(
        status.code(),
        Some(hpm_check::fail::EXIT_CODE),
        "child should crash at the failpoint, got {status:?}"
    );
}

/// Not a test of its own: the crashing-child entry point. Runs only
/// when re-invoked by `spawn_crashing_child` with the env set; the
/// armed failpoint kills the process mid-stream via
/// `std::process::exit(86)` inside a WAL write.
#[test]
fn child_ingest() {
    let Ok(dir) = std::env::var("HPM_FP_CHILD_DIR") else {
        return;
    };
    let store = MovingObjectStore::open(config(), durable(dir.as_ref())).unwrap();
    apply_ops(&store, &stream());
    // Reaching here means the failpoint never fired; the parent
    // asserts on our exit code, so make that loud.
    std::process::exit(3);
}

/// `torn@N`: the child dies after a *partial* record write. The file
/// ends mid-frame; recovery keeps every whole record before the tear.
#[test]
fn torn_write_crash_recovers_valid_prefix() {
    let threshold = mid_frame_threshold(20);
    let dir = std::env::temp_dir().join(format!("hpm-fp-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    spawn_crashing_child(&dir, &format!("wal.append=torn@{threshold}"));

    let bytes = std::fs::read(dir.join("wal-0-0.log")).unwrap();
    let scan = scan_wal(&bytes);
    assert!(scan.torn.is_some(), "torn action must leave a torn tail");
    assert!(scan.valid_len < bytes.len());
    let total = stream().len();
    let survivors = recover_and_check(&dir, "torn child");
    assert!(survivors > 0 && survivors < total);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `exit@N`: the child dies at a record boundary (the crossing write
/// never lands). The file is a clean prefix — shorter, but untorn.
#[test]
fn boundary_crash_recovers_clean_prefix() {
    let _writers = WAL_WRITERS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("hpm-fp-exit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    spawn_crashing_child(&dir, "wal.append=exit@700");

    let bytes = std::fs::read(dir.join("wal-0-0.log")).unwrap();
    let scan = scan_wal(&bytes);
    assert!(scan.torn.is_none(), "exit action crashes between records");
    assert_eq!(scan.valid_len, bytes.len());
    let total = stream().len();
    let survivors = recover_and_check(&dir, "boundary child");
    assert!(survivors > 0 && survivors < total);

    // Recovery is durable in turn: keep ingesting on the recovered
    // store, snapshot, and bounce it once more.
    let recovered = MovingObjectStore::open(config(), durable(&dir)).unwrap();
    let tail: Vec<Point> = (0..PERIOD)
        .map(|t| Point::new(t as f64 * 40.0, 9.0))
        .collect();
    recovered.report_batch(ObjectId(7), 0, &tail).unwrap();
    assert!(recovered.snapshot().unwrap());
    drop(recovered);
    let bounced = MovingObjectStore::open(config(), durable(&dir)).unwrap();
    assert_eq!(bounced.stats(ObjectId(7)).unwrap().samples, PERIOD as usize);
    drop(bounced);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `short@N` (in-process): the write claims success but only a prefix
/// reaches the file — a lying disk. Later appends land after the hole,
/// so scanning stops at the mangled frame and recovery keeps exactly
/// the records from before it.
#[test]
fn short_write_loses_suffix_but_recovers_prefix() {
    let threshold = mid_frame_threshold(10);
    let _writers = WAL_WRITERS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("hpm-fp-short-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    hpm_check::fail::install(&format!("wal.append=short@{threshold}")).unwrap();
    let store = MovingObjectStore::open(config(), durable(&dir)).unwrap();
    apply_ops(&store, &stream()); // every report "succeeds"
    store.flush_wal().unwrap();
    drop(store);
    hpm_check::fail::clear();

    let bytes = std::fs::read(dir.join("wal-0-0.log")).unwrap();
    let scan = scan_wal(&bytes);
    assert!(scan.torn.is_some(), "the shorted frame must stop the scan");
    let total = stream().len();
    let survivors = recover_and_check(&dir, "short write");
    assert!(survivors > 0 && survivors < total);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `error@N` (in-process): a full disk. The write crossing byte N lands
/// in part and then fails, so that report is refused and not applied;
/// the ingest retries it and carries on. The log must hold exactly what
/// the live store holds — no byte of the failed write, nothing of the
/// refused report but its retry, every acknowledged record before and
/// after it — so the reopened store answers like the live one.
#[test]
fn failed_write_is_cut_off_and_a_retried_report_lands_once() {
    let _writers = WAL_WRITERS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("hpm-fp-error-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let batched = DurabilityConfig {
        group_commit: 3,
        ..durable(&dir)
    };

    hpm_check::fail::install("wal.append=error@300").unwrap();
    let live = MovingObjectStore::open(config(), batched.clone()).unwrap();
    let mut refused = 0;
    for &(o, t, p) in &stream() {
        let Some(p) = p else {
            live.remove(ObjectId(o));
            continue;
        };
        if let Err(e) = live.report(ObjectId(o), t, p) {
            assert_eq!(
                e,
                hpm_objectstore::IngestError::Durability(std::io::ErrorKind::StorageFull)
            );
            refused += 1;
            live.report(ObjectId(o), t, p).unwrap();
        }
    }
    hpm_check::fail::clear();
    assert_eq!(refused, 1, "the failpoint fires once");
    live.flush_wal().unwrap();

    let scan = scan_wal(&std::fs::read(dir.join("wal-0-0.log")).unwrap());
    assert_eq!(scan.torn, None, "bytes of the failed write survived");
    assert_eq!(scan.records.len(), stream().len(), "each op logged once");
    let reopened = MovingObjectStore::open(config(), batched).unwrap();
    // Resident bytes are capacity-based; the logical state must match.
    let logical = |store: &MovingObjectStore, id| hpm_objectstore::ObjectStats {
        approx_bytes: 0,
        ..store.stats(id).unwrap()
    };
    let last = (DAYS * PERIOD as usize - 1) as Timestamp;
    for id in [ObjectId(1), ObjectId(2)] {
        assert_eq!(logical(&reopened, id), logical(&live, id), "stats of {id}");
        for dt in 1..=PERIOD as Timestamp {
            assert_eq!(
                reopened.predict(id, last + dt),
                live.predict(id, last + dt),
                "answers of {id} at +{dt}"
            );
        }
    }
    drop((live, reopened));
    std::fs::remove_dir_all(&dir).unwrap();
}
