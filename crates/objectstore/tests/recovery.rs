//! Recovery cases the op-trace model (`tests/model.rs`) does not
//! state: a failed snapshot rotation, corruption and version refusals,
//! what `open` trains, the committed snapshot fixture, and the bytes
//! each send path logs. A WAL cut at any byte of any segment (frame
//! boundaries and mid-frame tears), snapshots with torn tails,
//! multi-shard crashes, reshards and automatic snapshots are the
//! model's `Crash` and `Reopen` ops.

mod common;

use common::PERIOD;
use hpm_geo::Point;
use hpm_objectstore::{
    DurabilityConfig, FsyncPolicy, MovingObjectStore, ObjectId, RecoverError, StoreConfig,
};
use hpm_store::wal::{scan_wal, WalRecord};
use hpm_store::wire::{fnv1a, put_varint};
use hpm_store::{DecodeError, HistorySnapshot, ObjectSnapshot};
use hpm_trajectory::Timestamp;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

fn config(shards: usize) -> StoreConfig {
    StoreConfig {
        shards,
        ..common::config()
    }
}

/// `open_installs_without_training` reads process-global `hpm_obs`
/// counters exactly, so it holds this lock exclusively while it has
/// instrumentation switched on; every other test — its retrains would
/// be counted too — holds it shared.
static OBS: RwLock<()> = RwLock::new(());

fn obs_shared() -> RwLockReadGuard<'static, ()> {
    OBS.read().unwrap_or_else(PoisonError::into_inner)
}

/// A unique scratch data directory (not yet created).
fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hpm-recovery-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tests run with fsync off: the suite models process crashes (the
/// page cache survives those), and `FsyncPolicy::Always` would make
/// every-prefix iteration disk-bound for no extra coverage.
fn durable(dir: &std::path::Path, group_commit: usize) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        group_commit,
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
    }
}

/// Objects alive at the end of a record stream, with their last
/// reported timestamp.
fn live_objects(records: &[WalRecord]) -> Vec<(u64, Timestamp)> {
    let mut live: BTreeMap<u64, Timestamp> = BTreeMap::new();
    for r in records {
        match *r {
            WalRecord::Report {
                object, timestamp, ..
            } => {
                live.insert(object, timestamp);
            }
            WalRecord::Remove { object } => {
                live.remove(&object);
            }
        }
    }
    live.into_iter().collect()
}

/// `approx_bytes` is capacity-based (allocator growth history) and
/// counts a trainer a restored object does not have until it next
/// retrains, so equal logical state may legitimately report different
/// bytes after recovery — zero it before comparing.
fn logical(mut s: hpm_objectstore::ObjectStats) -> hpm_objectstore::ObjectStats {
    s.approx_bytes = 0;
    s
}

/// The recovery contract: same population, same per-object stats,
/// same ranked answers (or the same typed refusal) at future query
/// times.
fn assert_equivalent(
    recovered: &MovingObjectStore,
    reference: &MovingObjectStore,
    records: &[WalRecord],
    ctx: &str,
) {
    assert_eq!(
        recovered.object_count(),
        reference.object_count(),
        "object count ({ctx})"
    );
    for (raw, last) in live_objects(records) {
        let id = ObjectId(raw);
        assert_eq!(
            logical(recovered.stats(id).unwrap()),
            logical(reference.stats(id).unwrap()),
            "stats of object {raw} ({ctx})"
        );
        for dt in [1, 2, PERIOD as Timestamp] {
            assert_eq!(
                recovered.predict(id, last + dt),
                reference.predict(id, last + dt),
                "prediction of object {raw} at +{dt} ({ctx})"
            );
        }
    }
}

/// A snapshot whose WAL rotation fails part-way has spent its epoch: the
/// shards that rotated log to it, so a retry must rotate past it (reusing
/// it truncated their segments, losing acknowledged reports). It has
/// spent its cadence too: while the fault lasts, automatic snapshots
/// retry once per `snapshot_every` records, not on every ingest call.
#[test]
fn a_failed_rotation_spends_its_epoch_and_its_cadence() {
    let _shared = obs_shared();
    let dir = tmp_dir("rotate");
    let wal = |epoch: u64, shard: usize| dir.join(format!("wal-{epoch}-{shard}.log"));
    let mut cfg = durable(&dir, 1);
    cfg.snapshot_every = 4;
    let (store, id) = (
        MovingObjectStore::open(config(3), cfg.clone()).unwrap(),
        ObjectId(3),
    );
    // Directories squatting on shard 2's segments: each rotation moves
    // shards 0 and 1 (object 3's) to a new epoch, then fails.
    for epoch in 1..=16 {
        std::fs::create_dir(wal(epoch, 2)).unwrap();
    }
    for t in 0..16 {
        store.report(id, t, Point::new(t as f64, 0.0)).unwrap();
    }
    // One attempt per 4 reports: epochs 1 to 4.
    assert!(wal(4, 0).exists() && !wal(5, 0).exists());
    drop(store);
    for epoch in 1..=16 {
        std::fs::remove_dir(wal(epoch, 2)).unwrap();
    }
    let reopened = MovingObjectStore::open(config(3), cfg).unwrap();
    assert_eq!(reopened.stats(id).unwrap().samples, 16);
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A snapshot that fails its checksum is bit rot, and the WAL tail
/// alone cannot reconstruct what it held — opening must refuse
/// loudly, never silently lose data.
#[test]
fn corrupt_snapshot_refuses_to_open() {
    let _shared = obs_shared();
    let mut bytes = include_bytes!("../../store/tests/fixtures/snapshot_v3.bin").to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    match refusal("snap-1.snap", &bytes) {
        RecoverError::CorruptSnapshot(_) => {}
        e => panic!("expected CorruptSnapshot, got {e:?}"),
    }
}

/// A well-sealed snapshot whose nested model is 22 well-sealed bytes
/// claiming 50,000,000 regions: the model decoder bounds the count by
/// the bytes behind it, so the open refuses with `CorruptSnapshot`
/// instead of sizing a region table by the claim.
#[test]
fn a_nested_model_claiming_more_regions_than_its_bytes_refuses_to_open() {
    let _shared = obs_shared();
    let mut model = hpm_store::format::MAGIC.to_vec();
    for v in [1, 1, 50_000_000] {
        put_varint(&mut model, v);
    }
    model.extend_from_slice(&fnv1a(&model).to_le_bytes());
    assert_eq!(model.len(), 22);
    let object = ObjectSnapshot {
        id: 1,
        start: 0,
        history: HistorySnapshot {
            chunks: Vec::new(),
            open: Default::default(),
            window: vec![Point::new(0.0, 0.0); PERIOD as usize],
        },
        trained_subs: 1,
        model: Some(model),
    };
    match refusal("snap-0.snap", &hpm_store::encode_snapshot(&[object])) {
        RecoverError::CorruptSnapshot(DecodeError::CountOutOfRange {
            got: 50_000_000,
            limit: 0,
        }) => {}
        e => panic!("expected CorruptSnapshot(CountOutOfRange), got {e:?}"),
    }
}

/// The file names in a data directory, sorted.
fn dir_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Opens a directory holding only `bytes`, as `name`, and returns the
/// refusal, which must leave the directory untouched.
fn refusal(name: &str, bytes: &[u8]) -> RecoverError {
    let dir = tmp_dir("refused");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), bytes).unwrap();
    let err = match MovingObjectStore::open(config(1), durable(&dir, 1)) {
        Err(e) => e,
        Ok(_) => panic!("{name}: the store opened"),
    };
    assert_eq!(dir_names(&dir), [name], "{name}: the refusal wrote files");
    std::fs::remove_dir_all(&dir).unwrap();
    err
}

/// A version-1 WAL segment the open must replay is refused with a typed
/// error naming it: skipping it as an empty log would drop its records.
#[test]
fn a_v1_wal_segment_refuses_to_open() {
    let _shared = obs_shared();
    let fixture = include_bytes!("../../store/tests/fixtures/wal_v1.bin");
    match refusal("wal-0-0.log", fixture) {
        RecoverError::UnsupportedVersion { path, version: 1 } => {
            assert!(path.ends_with("wal-0-0.log"), "{path:?}");
        }
        e => panic!("expected UnsupportedVersion(1), got {e:?}"),
    }
}

/// A version-1 or version-2 snapshot is refused by version, not
/// reported as bit rot and not misread. A version-1 segment *below* a
/// readable snapshot's epoch is never read at all: the snapshot already
/// holds its effects.
#[test]
fn a_v1_snapshot_refuses_to_open() {
    let _shared = obs_shared();
    let v1: &[u8] = include_bytes!("../../store/tests/fixtures/snapshot_v1.bin");
    let v2: &[u8] = include_bytes!("../../store/tests/fixtures/snapshot_v2.bin");
    for (fixture, want) in [(v1, 1), (v2, 2)] {
        match refusal("snap-0.snap", fixture) {
            RecoverError::UnsupportedVersion { path, version } if version == want => {
                assert!(path.ends_with("snap-0.snap"), "{path:?}");
            }
            e => panic!("expected UnsupportedVersion({want}), got {e:?}"),
        }
    }

    let dir = tmp_dir("v1-below");
    std::fs::create_dir_all(&dir).unwrap();
    let v1_wal = include_bytes!("../../store/tests/fixtures/wal_v1.bin");
    std::fs::write(dir.join("wal-0-0.log"), v1_wal).unwrap();
    let snapshot = include_bytes!("../../store/tests/fixtures/snapshot_v3.bin");
    std::fs::write(dir.join("snap-1.snap"), snapshot).unwrap();
    let store = MovingObjectStore::open(config(1), durable(&dir, 1)).unwrap();
    assert_eq!(store.object_count(), 4);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One period of answers past `last`, with the logical stats.
fn answers(
    store: &MovingObjectStore,
    id: ObjectId,
    last: Timestamp,
) -> (hpm_objectstore::ObjectStats, Vec<hpm_core::Prediction>) {
    let period = (1..=PERIOD as Timestamp).map(|dt| store.predict(id, last + dt).unwrap());
    (logical(store.stats(id).unwrap()), period.collect())
}

/// `open` installs state, it does not train: reopening on a snapshot
/// with an empty WAL tail retrains nothing yet answers like the store
/// that was dropped, and the trainer the snapshot does not carry is
/// re-seeded by the object's next retrain — one full pass, after which
/// the reopened store folds (and falls back on drift) exactly like a
/// twin that never restarted.
#[test]
fn open_installs_without_training() {
    let _alone = OBS.write().unwrap_or_else(PoisonError::into_inner);
    hpm_obs::enable();
    let count = |name| hpm_obs::registry().counter(name).value();
    let day = |d: usize, wild: bool| -> Vec<Point> {
        let j = (d % 3) as f64 * 0.2;
        let wild_at = |t: f64| Point::new(400.0 + t * 0.3 + j, 400.0);
        let quiet_at = |t: f64| Point::new(t * 40.0 + j, j);
        let hours = (0..PERIOD).map(f64::from);
        if wild {
            hours.map(wild_at).collect()
        } else {
            hours.map(quiet_at).collect()
        }
    };
    let dir = tmp_dir("install");
    let id = ObjectId(11);
    let twin = MovingObjectStore::new(config(1));
    let live = MovingObjectStore::open(config(1), durable(&dir, 1)).unwrap();
    // Two of the six days are wild: a third one completes a cluster.
    for d in 0..6 {
        let pts = day(d, d == 2 || d == 4);
        let start = (d * PERIOD as usize) as Timestamp;
        live.report_batch(id, start, &pts).unwrap();
        twin.report_batch(id, start, &pts).unwrap();
    }
    let mut last = 6 * PERIOD as Timestamp - 1;
    assert!(live.snapshot().unwrap());
    let pre_drop = answers(&live, id, last);
    assert_eq!(pre_drop.0.trained_periods, 6);
    drop(live);

    let before = count("objectstore.retrains");
    let reopened = MovingObjectStore::open(config(1), durable(&dir, 1)).unwrap();
    assert_eq!(count("objectstore.retrains"), before, "open trained");
    assert_eq!(answers(&reopened, id, last), pre_drop);

    // First crossing, an ordinary day: the absent trainer is re-seeded
    // (the twin folds). Second, a third wild day: both fold, drift,
    // and fall back to a full pass.
    for (d, wild, fallbacks) in [(6, false, 0), (7, true, 1)] {
        let pts = day(d, wild);
        let (total, full, drift) = (
            count("objectstore.retrains"),
            count("objectstore.retrains.full"),
            count("objectstore.retrains.drift_fallback"),
        );
        reopened.report_batch(id, last + 1, &pts).unwrap();
        assert_eq!(count("objectstore.retrains") - total, 1, "day {d}");
        assert_eq!(count("objectstore.retrains.full") - full, 1, "day {d}");
        assert_eq!(
            count("objectstore.retrains.drift_fallback") - drift,
            fallbacks,
            "day {d}"
        );
        twin.report_batch(id, last + 1, &pts).unwrap();
        last += PERIOD as Timestamp;
        assert_eq!(
            answers(&reopened, id, last),
            answers(&twin, id, last),
            "day {d}"
        );
    }
    hpm_obs::disable();
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replay trains once: an object whose replayed WAL tail crosses three
/// retrain cadences is retrained by `open` exactly once, to the last
/// crossing, and answers — and goes on training — like its
/// never-dropped twin; so does one first trained inside the tail, at
/// a cadence of two periods, and one whose tail crosses none is not
/// trained at all.
#[test]
fn replay_retrains_each_crossed_object_once() {
    let _alone = OBS.write().unwrap_or_else(PoisonError::into_inner);
    hpm_obs::enable();
    let count = |name| hpm_obs::registry().counter(name).value();
    let cfg = StoreConfig {
        retrain_every_subs: 2,
        ..config(1)
    };
    let dir = tmp_dir("replay-once");
    let twin = MovingObjectStore::new(cfg.clone());
    let live = MovingObjectStore::open(cfg.clone(), durable(&dir, 1)).unwrap();
    // (object, days before the snapshot, days after it, periods
    // trained on at the end): 11 crosses periods 7, 9 and 11 in the
    // tail, 12 trains first at 3 and then at 5, 13 crosses nothing.
    let plan = [(11u64, 6, 6, 11), (12, 0, 6, 5), (13, 3, 1, 3)];
    let feed = |store: &MovingObjectStore, id: u64, days: std::ops::Range<usize>| {
        for d in days {
            let start = (d * PERIOD as usize) as Timestamp;
            store
                .report_batch(ObjectId(id), start, &common::day(d))
                .unwrap();
        }
    };
    for (id, before, _, _) in plan {
        feed(&live, id, 0..before);
        feed(&twin, id, 0..before);
    }
    assert!(live.snapshot().unwrap());
    for (id, before, after, _) in plan {
        feed(&live, id, before..before + after);
        feed(&twin, id, before..before + after);
    }
    drop(live);

    let (retrains, opened) = (
        count("objectstore.retrains"),
        count("objectstore.open.retrains"),
    );
    let reopened = MovingObjectStore::open(cfg, durable(&dir, 1)).unwrap();
    assert_eq!(count("objectstore.open.retrains") - opened, 2);
    assert_eq!(count("objectstore.retrains") - retrains, 2);
    for (id, before, after, trained) in plan {
        let last = ((before + after) * PERIOD as usize) as Timestamp - 1;
        let got = answers(&reopened, ObjectId(id), last);
        assert_eq!(got, answers(&twin, ObjectId(id), last), "object {id}");
        assert_eq!(got.0.trained_periods, trained, "object {id}");
    }
    // Two more days: the trainer the one retrain left folds on.
    feed(&reopened, 11, 12..14);
    feed(&twin, 11, 12..14);
    let last = 14 * PERIOD as Timestamp - 1;
    let id = ObjectId(11);
    assert_eq!(answers(&reopened, id, last), answers(&twin, id, last));
    hpm_obs::disable();
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The reports frozen into `store/tests/fixtures/snapshot_v3.bin`, in
/// feed order: a trained commuter (id 1, five days), an untrained
/// newcomer (id 2, three samples), a long-lived commuter whose history
/// has sealed a chunk (id 3, 300 samples from an unaligned start) and a
/// drifter whose open chunk holds encoded samples (id 4, 60 samples).
fn v3_fixture_reports() -> Vec<(ObjectId, Timestamp, Point)> {
    let commute = |i: u64, y: f64| {
        let j = (i * 37 % 100) as f64 / 100.0;
        Point::new((i % u64::from(PERIOD)) as f64 * 40.0 + j, y + j)
    };
    let mut reports = Vec::new();
    reports.extend((0..20).map(|i| (ObjectId(1), i, commute(i, 0.0))));
    reports.extend((0..3).map(|i| (ObjectId(2), 100 + i, Point::new(i as f64 * 1.5, -7.25))));
    reports.extend((6..306).map(|i| (ObjectId(3), i, commute(i, 50.0))));
    reports.extend((0..60).map(|i| (ObjectId(4), 500 + i, Point::new(i as f64 * 6.5, 3.0))));
    reports
}

/// The committed v3 snapshot — cut from a store fed
/// [`v3_fixture_reports`] — restores into a store that answers, and
/// keeps training, like one fed the same reports; and that store's own
/// snapshot is the committed file, byte for byte.
#[test]
fn committed_v3_snapshot_restores_like_a_store_fed_the_same_reports() {
    let _shared = obs_shared();
    let golden: &[u8] = include_bytes!("../../store/tests/fixtures/snapshot_v3.bin");
    let dir = tmp_dir("v3-fixture");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("snap-1.snap"), golden).unwrap();
    let restored = MovingObjectStore::open(config(1), durable(&dir, 1)).unwrap();

    let fed_dir = tmp_dir("v3-fed");
    let fed = MovingObjectStore::open(config(1), durable(&fed_dir, 1)).unwrap();
    let mut records = Vec::new();
    for (id, timestamp, p) in v3_fixture_reports() {
        fed.report(id, timestamp, p).unwrap();
        records.push(WalRecord::Report {
            object: id.0,
            timestamp,
            x: p.x,
            y: p.y,
        });
    }
    assert_equivalent(&restored, &fed, &records, "v3 fixture");
    assert!(fed.snapshot().unwrap());
    assert_eq!(std::fs::read(fed_dir.join("snap-1.snap")).unwrap(), golden);

    // One more day each: the trained objects retrain (the restored
    // ones by re-seeding), the newcomer does not.
    for (raw, last) in live_objects(&records) {
        for k in 1..=PERIOD as Timestamp {
            let p = Point::new(k as f64 * 40.0, raw as f64);
            restored.report(ObjectId(raw), last + k, p).unwrap();
            fed.report(ObjectId(raw), last + k, p).unwrap();
            records.push(WalRecord::Report {
                object: raw,
                timestamp: last + k,
                x: p.x,
                y: p.y,
            });
        }
    }
    assert_equivalent(&restored, &fed, &records, "v3 fixture + one day");
    drop((restored, fed));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&fed_dir).unwrap();
}

/// The log records reports, not the way they were sent: the same
/// reports through `report`, `report_batch`, or `report_many` on a
/// pool of 1 or 4 threads leave byte-identical segments. And a run
/// is logged under one hold of its shard's WAL lock, so batches sent
/// concurrently for two objects of one shard each lie whole in that
/// shard's segment.
#[test]
fn send_path_and_pool_width_leave_identical_segments() {
    let _shared = obs_shared();
    const SHARDS: usize = 4;
    let objects = [4u64, 5, 6, 7];
    let days = 6 * PERIOD as usize;
    let at = |o: u64, t: usize| {
        let w = (t % PERIOD as usize) as f64;
        Point::new(
            w * 40.0 + o as f64 * 0.01,
            (t / PERIOD as usize) as f64 * 0.1,
        )
    };
    let segments = |threads, group, send: &dyn Fn(&MovingObjectStore)| -> Vec<Vec<u8>> {
        let dir = tmp_dir("paths");
        let mut cfg = config(SHARDS);
        cfg.threads = threads;
        let store = MovingObjectStore::open(cfg, durable(&dir, group)).unwrap();
        send(&store);
        store.flush_wal().unwrap();
        drop(store);
        let bytes = (0..SHARDS)
            .map(|s| std::fs::read(dir.join(format!("wal-0-{s}.log"))).unwrap())
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    };
    let one_at_a_time = segments(2, 8, &|store| {
        for t in 0..days {
            for o in objects {
                store.report(ObjectId(o), t as Timestamp, at(o, t)).unwrap();
            }
        }
    });
    let batched = segments(2, 8, &|store| {
        for o in objects {
            let pts: Vec<Point> = (0..days).map(|t| at(o, t)).collect();
            store.report_batch(ObjectId(o), 0, &pts).unwrap();
        }
    });
    assert_eq!(batched, one_at_a_time, "report_batch vs report");
    for threads in [1, 4] {
        let many = segments(threads, 8, &|store| {
            let reports: Vec<_> = (0..days)
                .flat_map(|t| objects.map(|o| (ObjectId(o), t as Timestamp, at(o, t))))
                .collect();
            assert!(store.report_many(&reports).iter().all(Result::is_ok));
        });
        assert_eq!(many, one_at_a_time, "report_many on {threads} threads");
    }

    // Objects 1 and 5 share shard 1. One long batch of 1 races single
    // reports of 5, both released by one barrier; training is off and
    // every record is a frame of its own, so the segment shows the
    // append order. Object 1's run must lie whole in it.
    let dir = tmp_dir("race");
    let mut cfg = config(SHARDS);
    cfg.min_train_subs = usize::MAX;
    let store = MovingObjectStore::open(cfg, durable(&dir, 1)).unwrap();
    let long: Vec<Point> = (0..days * 1000).map(|t| at(1, t)).collect();
    let go = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            go.wait();
            store.report_batch(ObjectId(1), 0, &long).unwrap();
        });
        s.spawn(|| {
            go.wait();
            for t in 0..long.len() {
                store.report(ObjectId(5), t as Timestamp, at(5, t)).unwrap();
            }
        });
    });
    store.flush_wal().unwrap();
    drop(store);
    let records = scan_wal(&std::fs::read(dir.join("wal-0-1.log")).unwrap()).records;
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(records.len(), 2 * long.len());
    let ones: Vec<usize> = (0..records.len())
        .filter(|&i| matches!(records[i], WalRecord::Report { object: 1, .. }))
        .collect();
    assert_eq!(ones.len(), long.len());
    assert_eq!(
        ones[ones.len() - 1] - ones[0] + 1,
        long.len(),
        "the batch was split"
    );
}
