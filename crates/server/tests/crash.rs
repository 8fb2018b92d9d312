//! Crash recovery across the socket boundary: a durable server killed
//! mid-`report_many` by a WAL failpoint (exit 86), restarted on the
//! same data directory, must answer **bit-identically** to a twin
//! that never crashed — the PR-6 durability harness extended over the
//! wire.
//!
//! The child process is this same test binary re-executed with
//! `child_serve --exact`: it opens a durable store, binds a loopback
//! port, publishes the address through a file in the data directory,
//! and serves until shut down (or until the armed failpoint kills it
//! mid-write).

mod common;

use common::{config, fleet_horizon, fleet_reports};
use hpm_objectstore::{DurabilityConfig, FsyncPolicy, IngestError, MovingObjectStore, ObjectId};
use hpm_server::{Client, RequestBody, ResponseBody, Server, ServerConfig};
use hpm_trajectory::Timestamp;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_OBJECTS: u64 = 12;
/// Reports per wire frame during the crash ingest.
const CHUNK: usize = 32;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpm-server-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Launches this test binary as a serving child on `dir`, optionally
/// with a WAL failpoint armed.
fn spawn_child(dir: &Path, failpoint: Option<&str>) -> Child {
    let exe = std::env::current_exe().expect("current test binary");
    let mut cmd = Command::new(exe);
    cmd.args(["child_serve", "--exact", "--test-threads=1", "--nocapture"])
        .env("HPM_SERVER_CHILD_DIR", dir)
        .env_remove("HPM_FAILPOINT")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if let Some(spec) = failpoint {
        cmd.env("HPM_FAILPOINT", spec);
    }
    cmd.spawn().expect("spawn serving child")
}

/// Polls the child's published address file.
fn wait_for_addr(dir: &Path, child: &mut Child) -> String {
    let port_file = dir.join("port.txt");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        if let Some(status) = child.try_wait().expect("child status") {
            panic!("child exited before publishing its address: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "child never published an address"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The serving child. Inert unless re-executed by the parent with
/// `HPM_SERVER_CHILD_DIR` set.
#[test]
fn child_serve() {
    let Ok(dir) = std::env::var("HPM_SERVER_CHILD_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let durability = DurabilityConfig {
        dir: dir.clone(),
        group_commit: 1,
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
    };
    let store = MovingObjectStore::open(config(), durability).expect("open durable store");
    let server =
        Server::bind(Arc::new(store), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    // Publish the picked port atomically: write-then-rename, so the
    // parent never reads a half-written address.
    let tmp = dir.join("port.txt.tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).expect("write port file");
    std::fs::rename(&tmp, dir.join("port.txt")).expect("publish port file");
    server.serve().expect("serve until shutdown");
}

/// Streams the full fleet over the wire in fixed frames until the
/// connection dies (crash run) or the stream ends (recovery run). On
/// the recovery run, already-durable reports answer `NonContiguous`
/// with `got < expected` — the resume contract — and anything else is
/// a corruption.
fn stream_fleet(
    client: &mut Client,
    reports: &[(ObjectId, Timestamp, hpm_geo::Point)],
    tolerate_replay: bool,
) -> bool {
    for chunk in reports.chunks(CHUNK) {
        let results = match client.report_many(chunk) {
            Ok(results) => results,
            Err(_) if !tolerate_replay => return false, // the crash
            Err(e) => panic!("recovery ingest must not die: {e}"),
        };
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(()) => {}
                Err(IngestError::NonContiguous { expected, got })
                    if tolerate_replay && got < expected => {}
                Err(e) => panic!("report {i} of a chunk failed: {e}"),
            }
        }
    }
    true
}

#[test]
fn crash_mid_wire_ingest_recovers_bit_identically_to_twin() {
    let reports = fleet_reports(23, N_OBJECTS);
    let horizon = fleet_horizon(&reports);

    // The twin ingests the same stream, same frame boundaries, never
    // crashing — the oracle every recovered answer is held against.
    let twin = MovingObjectStore::new(config());
    for chunk in reports.chunks(CHUNK) {
        for r in twin.report_many(chunk) {
            r.expect("twin ingests cleanly");
        }
    }

    // Tear the WAL at a few different cumulative byte offsets so the
    // crash lands in different objects' streams.
    for (run, tear) in [600u64, 2048, 4500].into_iter().enumerate() {
        let dir = tmp_dir(&format!("run{run}"));

        // --- crash run -------------------------------------------------
        let mut crashing = spawn_child(&dir, Some(&format!("wal.append=torn@{tear}")));
        let addr = wait_for_addr(&dir, &mut crashing);
        let mut client = Client::connect(&addr).expect("connect to crashing child");
        let finished = stream_fleet(&mut client, &reports, false);
        assert!(
            !finished,
            "run {run}: failpoint at byte {tear} never fired — raise the fleet size"
        );
        let status = crashing.wait().expect("crashing child status");
        assert_eq!(
            status.code(),
            Some(hpm_check::fail::EXIT_CODE),
            "run {run}: child must die through the failpoint, got {status}"
        );

        // --- recovery run ----------------------------------------------
        std::fs::remove_file(dir.join("port.txt")).expect("stale port file");
        let mut recovered = spawn_child(&dir, None);
        let addr = wait_for_addr(&dir, &mut recovered);
        let mut client = Client::connect(&addr).expect("connect to recovered child");
        // Resume: replay the whole stream; the durable prefix answers
        // NonContiguous(got < expected), the lost tail lands fresh.
        assert!(stream_fleet(&mut client, &reports, true));

        // --- equivalence -----------------------------------------------
        for id in (0..N_OBJECTS).map(ObjectId) {
            assert_eq!(
                client.stats(id).expect("wire stats"),
                twin.stats(id),
                "run {run}: stats diverge for {id}"
            );
        }
        let probes: Vec<(ObjectId, Timestamp)> = (0..N_OBJECTS)
            .flat_map(|id| (1..4).map(move |dt| (ObjectId(id), horizon + dt)))
            .collect();
        assert_eq!(
            client.predict_batch(&probes).expect("wire predictions"),
            twin.predict_batch(&probes),
            "run {run}: predictions diverge after recovery"
        );
        let region = hpm_geo::BoundingBox {
            min: hpm_geo::Point::new(-5.0, -5.0),
            max: hpm_geo::Point::new(160.0, 10.0),
        };
        let range = RequestBody::PredictRange {
            region,
            query_time: horizon + 2,
        };
        assert_eq!(
            client.call(range).expect("wire range"),
            ResponseBody::Range(twin.predict_range(&region, horizon + 2)),
            "run {run}: range diverges after recovery"
        );

        // --- clean shutdown over the wire -------------------------------
        client.shutdown().expect("shutdown verb");
        let status = recovered.wait().expect("recovered child status");
        assert!(
            status.success(),
            "run {run}: recovered child must exit cleanly, got {status}"
        );
        std::fs::remove_dir_all(&dir).expect("clean test dir");
    }
}
