//! Per-shard write-ahead log for the moving-objects store.
//!
//! One WAL file is an 8-byte magic header followed by self-delimiting
//! frames, each carrying one ingest operation:
//!
//! ```text
//! header  magic b"HPMWAL01"                    8 bytes
//! frame   payload_len  varint                  (≤ MAX_WAL_PAYLOAD)
//!         payload      tag u8 + fields
//!         checksum     fnv1a(payload)          8 bytes little-endian
//!
//! payload tag 1 (Report)  object varint, timestamp varint,
//!                         x f64, y f64
//!         tag 2 (Remove)  object varint
//! ```
//!
//! Frames are append-only and individually checksummed, so a crash
//! mid-write leaves a file whose longest valid prefix is exactly the
//! operations that were durably logged: [`scan_wal`] stops at the
//! first frame that fails to parse and reports how many bytes were
//! valid. Writers never append after a torn tail — recovery rotates to
//! a fresh file instead — so "first invalid frame" and "crash point"
//! coincide.
//!
//! [`WalWriter`] batches appends in memory and writes them out every
//! `group_commit` records (and on [`flush`](WalWriter::flush)),
//! fsyncing per [`FsyncPolicy`]. Physical writes are routed through
//! the `hpm-check` failpoint hook (`wal.append`), which is how the
//! crash-recovery suites tear this file at chosen byte offsets.

use crate::metrics;
use crate::wire::{
    get_count, get_f64, get_u8, get_varint, put_f64, put_varint, seal, strip_magic, take, unseal,
};
use crate::DecodeError;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"HPMWAL01";

/// Sanity limit on a frame payload (a report is ≤ 37 bytes; anything
/// larger is corruption, not a record).
pub const MAX_WAL_PAYLOAD: usize = 64;
// `encode_wal_record` fills a frame's length in as one varint byte.
const _: () = assert!(MAX_WAL_PAYLOAD < 0x80);

/// Failpoint name the writer's physical writes are routed through.
pub const WAL_APPEND_FAILPOINT: &str = "wal.append";

/// One durably logged ingest operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalRecord {
    /// A location report accepted by the store.
    Report {
        /// Raw object id.
        object: u64,
        /// Sample timestamp.
        timestamp: u64,
        /// Position x.
        x: f64,
        /// Position y.
        y: f64,
    },
    /// An object dropped from the store.
    Remove {
        /// Raw object id.
        object: u64,
    },
}

const TAG_REPORT: u8 = 1;
const TAG_REMOVE: u8 = 2;

/// Appends one framed record (length, payload, checksum) to `out` —
/// the writer's group-commit buffer. The payload is written straight
/// into place and its length filled in behind it: this runs once per
/// accepted report, so the frame is neither staged nor copied.
pub fn encode_wal_record(out: &mut Vec<u8>, record: &WalRecord) {
    let len_at = out.len();
    out.push(0);
    match *record {
        WalRecord::Report {
            object,
            timestamp,
            x,
            y,
        } => {
            out.push(TAG_REPORT);
            put_varint(out, object);
            put_varint(out, timestamp);
            put_f64(out, x);
            put_f64(out, y);
        }
        WalRecord::Remove { object } => {
            out.push(TAG_REMOVE);
            put_varint(out, object);
        }
    }
    let payload_len = out.len() - len_at - 1;
    debug_assert!(payload_len <= MAX_WAL_PAYLOAD);
    out[len_at] = payload_len as u8;
    seal(out, len_at + 1);
}

/// Parses the frame at the head of `rest` and steps past it.
fn next_record(rest: &mut &[u8]) -> Result<WalRecord, DecodeError> {
    let mut cursor = *rest;
    let payload_len = get_count(&mut cursor, MAX_WAL_PAYLOAD)?;
    let mut payload = unseal(take(&mut cursor, payload_len + 8)?)?;
    let buf = &mut payload;
    let record = match get_u8(buf)? {
        TAG_REPORT => WalRecord::Report {
            object: get_varint(buf)?,
            timestamp: get_varint(buf)?,
            x: get_f64(buf)?,
            y: get_f64(buf)?,
        },
        TAG_REMOVE => WalRecord::Remove {
            object: get_varint(buf)?,
        },
        other => return Err(DecodeError::Invalid(format!("unknown WAL tag {other}"))),
    };
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes(buf.len()));
    }
    *rest = cursor;
    Ok(record)
}

/// Result of scanning a WAL file's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Every record of the longest valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset one past each record's frame — `offsets[i]` is the
    /// file length at which exactly `i + 1` records survive.
    pub offsets: Vec<usize>,
    /// Bytes of the valid prefix (header included).
    pub valid_len: usize,
    /// Why the scan stopped before the end of the input, if it did —
    /// a torn tail (crash) or corruption. `None` means the whole file
    /// parsed.
    pub torn: Option<DecodeError>,
}

/// Parses the longest valid prefix of a WAL file's bytes. Never fails:
/// a file without even a whole magic header is an empty log with a
/// torn tail.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan {
        records: Vec::new(),
        offsets: Vec::new(),
        valid_len: 0,
        torn: None,
    };
    if bytes.is_empty() {
        return scan;
    }
    let mut rest = match strip_magic(bytes, WAL_MAGIC) {
        Ok(frames) => frames,
        Err(e) => {
            scan.torn = Some(e);
            return scan;
        }
    };
    scan.valid_len = bytes.len() - rest.len();
    while !rest.is_empty() {
        match next_record(&mut rest) {
            Ok(record) => {
                scan.valid_len = bytes.len() - rest.len();
                scan.records.push(record);
                scan.offsets.push(scan.valid_len);
            }
            Err(e) => {
                scan.torn = Some(e);
                break;
            }
        }
    }
    scan
}

/// Reads and scans a WAL file. A missing file is an empty log (crash
/// windows exist where a rotated file was never created).
pub fn scan_wal_file(path: &Path) -> io::Result<WalScan> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(scan_wal(&bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(scan_wal(&[])),
        Err(e) => Err(e),
    }
}

/// When the writer fsyncs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every physical write (group-commit batch).
    /// Survives power loss up to the last committed batch.
    Always,
    /// Never fsync; durability is up to the OS page cache. Survives
    /// process crashes (the cache outlives the process) but not power
    /// loss — the right trade for tests and replaceable data.
    Never,
}

/// Writer knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Records buffered per physical write. 1 = write-through.
    pub group_commit: usize,
    /// Fsync cadence.
    pub fsync: FsyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            group_commit: 1,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Append-only WAL writer with group commit.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    pending: Vec<u8>,
    pending_records: usize,
    opts: WalOptions,
}

impl WalWriter {
    /// Creates a fresh WAL file (truncating any previous content) and
    /// durably writes its header.
    pub fn create(path: impl Into<PathBuf>, opts: WalOptions) -> io::Result<Self> {
        let path = path.into();
        let opts = WalOptions {
            group_commit: opts.group_commit.max(1),
            ..opts
        };
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(WAL_MAGIC)?;
        if opts.fsync == FsyncPolicy::Always {
            file.sync_data()?;
        }
        Ok(WalWriter {
            file,
            path,
            pending: Vec::new(),
            pending_records: 0,
            opts,
        })
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logs one record; performs a physical write every `group_commit`
    /// records. An error means the record (and any batched
    /// predecessors) may not be durable — the caller must not apply
    /// the operation it logs.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let _span = hpm_obs::span!(metrics::WAL_APPEND_SPAN);
        encode_wal_record(&mut self.pending, record);
        self.pending_records += 1;
        hpm_obs::counter!(metrics::WAL_RECORDS).add(1);
        if self.pending_records >= self.opts.group_commit {
            self.commit()?;
        }
        Ok(())
    }

    /// Writes out any batched records (a partial group) and fsyncs per
    /// policy.
    pub fn flush(&mut self) -> io::Result<()> {
        self.commit()
    }

    fn commit(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        match hpm_check::fail::on_write(WAL_APPEND_FAILPOINT, self.pending.len()) {
            hpm_check::fail::WriteOutcome::Full => self.file.write_all(&self.pending)?,
            hpm_check::fail::WriteOutcome::Short(n) => self.file.write_all(&self.pending[..n])?,
            hpm_check::fail::WriteOutcome::TornExit(n) => {
                let _ = self.file.write_all(&self.pending[..n]);
                let _ = self.file.flush();
                eprintln!("hpm-check failpoint: torn {WAL_APPEND_FAILPOINT}, exiting");
                std::process::exit(hpm_check::fail::EXIT_CODE);
            }
            hpm_check::fail::WriteOutcome::ExitNow => {
                eprintln!("hpm-check failpoint: exit at {WAL_APPEND_FAILPOINT}");
                std::process::exit(hpm_check::fail::EXIT_CODE);
            }
        }
        hpm_obs::counter!(metrics::WAL_BYTES).add(self.pending.len() as u64);
        self.pending.clear();
        self.pending_records = 0;
        if self.opts.fsync == FsyncPolicy::Always {
            let _span = hpm_obs::span!(metrics::WAL_FSYNC_SPAN);
            self.file.sync_data()?;
        }
        Ok(())
    }
}

impl Drop for WalWriter {
    /// Best-effort flush of a partial group on drop; clean shutdowns
    /// should call [`flush`](Self::flush) and check the error.
    fn drop(&mut self) {
        let _ = self.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Report {
                object: 7,
                timestamp: 0,
                x: 1.5,
                y: -2.25,
            },
            WalRecord::Report {
                object: u64::MAX,
                timestamp: 12_345,
                x: f64::MIN_POSITIVE,
                y: 0.0,
            },
            WalRecord::Remove { object: 7 },
            WalRecord::Report {
                object: 7,
                timestamp: 500,
                x: -0.0,
                y: 3.0,
            },
        ]
    }

    fn encoded(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for r in records {
            encode_wal_record(&mut bytes, r);
        }
        bytes
    }

    #[test]
    fn records_roundtrip() {
        let records = sample_records();
        let scan = scan_wal(&encoded(&records));
        assert_eq!(scan.records, records);
        assert_eq!(scan.torn, None);
        assert_eq!(scan.offsets.len(), records.len());
        assert_eq!(scan.valid_len, encoded(&records).len());
    }

    #[test]
    fn every_truncation_point_yields_a_valid_prefix() {
        let records = sample_records();
        let bytes = encoded(&records);
        hpm_check::mutate::every_cut(&bytes, |cut, prefix| {
            let scan = scan_wal(prefix);
            let survivors = scan.offsets.iter().filter(|&&o| o <= cut).count();
            assert_eq!(scan.records.len(), survivors, "cut at {cut}");
            assert_eq!(scan.records, records[..survivors], "cut at {cut}");
            if scan.valid_len != cut {
                assert!(scan.torn.is_some(), "cut at {cut} dropped bytes silently");
            }
        });
    }

    #[test]
    fn corrupt_byte_stops_scan_at_previous_record() {
        let records = sample_records();
        let bytes = encoded(&records);
        // Flip one byte inside the second frame's payload.
        let mut corrupt = bytes.clone();
        let second_frame_start = scan_wal(&bytes).offsets[0];
        corrupt[second_frame_start + 2] ^= 0x40;
        let scan = scan_wal(&corrupt);
        assert_eq!(scan.records, records[..1]);
        assert!(scan.torn.is_some());
        assert_eq!(scan.valid_len, second_frame_start);
    }

    #[test]
    fn bad_magic_is_an_empty_log() {
        let scan = scan_wal(b"NOTAWAL!rest");
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn, Some(DecodeError::BadMagic));
        // Sub-header files are a torn header, not corruption.
        let scan = scan_wal(&WAL_MAGIC[..5]);
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn, Some(DecodeError::Truncated));
        assert_eq!(scan_wal(&[]).torn, None);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = WAL_MAGIC.to_vec();
        put_varint(&mut bytes, 10_000);
        bytes.extend_from_slice(&[0u8; 64]);
        let scan = scan_wal(&bytes);
        assert!(scan.records.is_empty());
        assert!(matches!(
            scan.torn,
            Some(DecodeError::CountOutOfRange { got: 10_000, .. })
        ));
    }

    #[test]
    fn writer_groups_commits() {
        let dir = std::env::temp_dir().join(format!("hpm-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group.log");
        let records = sample_records();
        {
            let mut w = WalWriter::create(
                &path,
                WalOptions {
                    group_commit: 3,
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
            for r in &records[..2] {
                w.append(r).unwrap();
            }
            // Two records batched, none physically written yet.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 8);
            w.append(&records[2]).unwrap();
            assert!(std::fs::metadata(&path).unwrap().len() > 8);
            w.append(&records[3]).unwrap();
            w.flush().unwrap();
        }
        let scan = scan_wal_file(&path).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.torn, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_scans_empty() {
        let scan = scan_wal_file(Path::new("/nonexistent/hpm-wal")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn, None);
    }
}
