//! Per-shard write-ahead log for the moving-objects store.
//!
//! One WAL file is an 8-byte magic header followed by self-delimiting,
//! individually checksummed frames. [`WalWriter`] writes version 2: one
//! frame per group-commit batch, holding the batch as *runs* —
//! consecutive reports of one object share one header, and their
//! coordinates are XOR-coded by the history chunk codec:
//!
//! ```text
//! header  magic b"HPMWAL02"                    8 bytes
//! frame   payload_len  varint                  (≤ WAL_FRAME_CAP)
//!         payload      run+
//!         checksum     fnv1a(payload)          8 bytes little-endian
//!
//! run     count        varint                  0 = a Remove
//!         object       zigzag varint           delta to the previous
//!                                              run's object (0 at
//!                                              frame start)
//!         first        zigzag varint           reports only: delta to
//!                                              the previous report
//!                                              run's first timestamp
//!                                              (0 at frame start)
//!         coordinates  chunk bit stream,       reports only: `count`
//!                      zero-padded to a byte   samples at first,
//!                                              first + 1, …
//! ```
//!
//! The coordinates are `hpm_trajectory::encode_xor_bytes`: a one-report
//! run carries its 16 raw bytes, every later report its two XOR deltas.
//! The writer lays a batch's runs out in object order — each object's
//! own records stay in append order, which is all replay needs, since
//! objects are independent — so the id deltas are small gaps whichever
//! thread logged its run first.
//! Version 2 is the only version read: a header naming another
//! (`b"HPMWAL01"`, one frame per record, included) is refused as
//! [`DecodeError::UnsupportedVersion`], never misread.
//!
//! Frames are append-only and individually checksummed, so a crash
//! mid-write leaves a file whose longest valid prefix is exactly the
//! batches that were durably logged: [`scan_wal`] decodes each frame
//! whole before handing on any of its records, stops at the first
//! frame that fails to parse, and reports how many bytes were valid. A
//! torn write therefore loses the whole frames past the cut. Writers
//! never append after a torn tail — recovery rotates to a fresh file,
//! and a write that fails is cut back off before the next — so "first
//! invalid frame" and "crash point" coincide.
//!
//! [`WalWriter`] buffers appends as runs in memory and encodes and
//! writes them every `group_commit` records (and on
//! [`flush`](WalWriter::flush)), fsyncing per [`FsyncPolicy`].
//! Physical writes are routed through the `hpm-check` failpoint hook
//! (`wal.append`), which is how the crash-recovery suites tear this
//! file at chosen byte offsets.

use crate::metrics;
use crate::wire::{
    fnv1a_extend, get_count, get_varint, put_varint, strip_magic, take, unseal, FNV1A_EMPTY,
};
use crate::DecodeError;
use hpm_geo::Point;
use hpm_trajectory::{decode_xor_bytes, encode_xor_bytes};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file [`WalWriter`] writes.
pub const WAL_MAGIC: &[u8; 8] = b"HPMWAL02";

/// Largest frame payload in bytes. The writer cuts a batch into frames
/// under it, splitting a run if it must; the scanner refuses a longer
/// length before reading the frame.
const WAL_FRAME_CAP: usize = 1 << 16;

/// Most bytes a run header takes: three ten-byte varints.
const RUN_HEAD_MAX: usize = 30;

/// Most bits a report after a run's first costs: `'11'`, two 6-bit
/// fields and 64 meaningful bits, per axis.
const POINT_BITS_MAX: usize = 2 * (2 + 6 + 6 + 64);

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

/// One run of a scanned WAL: `points.len()` consecutive reports of
/// `object`, the first at timestamp `first` — or, when `points` is
/// empty, a remove of `object` (and `first` means nothing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalRun<'a> {
    /// Raw object id.
    pub object: u64,
    /// Timestamp of `points[0]`.
    pub first: u64,
    /// One position per timestamp from `first`.
    pub points: &'a [Point],
}

/// A run as the log holds it: its positions are `points[at..at +
/// len]` of its [`Runs`]; `len` 0 is a remove.
#[derive(Debug, Clone, Copy)]
struct RunHead {
    object: u64,
    first: u64,
    at: usize,
    len: usize,
}

/// Runs with their positions back to back: a writer's pending batch
/// in append order, or one decoded frame in log order.
#[derive(Debug, Default)]
struct Runs {
    heads: Vec<RunHead>,
    points: Vec<Point>,
}

impl Runs {
    /// Adds a record, extending the last run when the record is that
    /// object's next report.
    fn push(&mut self, record: &WalRecord) {
        match *record {
            WalRecord::Report {
                object,
                timestamp,
                x,
                y,
            } => {
                match self.heads.last_mut() {
                    Some(run)
                        if run.len > 0
                            && run.object == object
                            && run.first.checked_add(run.len as u64) == Some(timestamp) =>
                    {
                        run.len += 1;
                    }
                    _ => self.heads.push(RunHead {
                        object,
                        first: timestamp,
                        at: self.points.len(),
                        len: 1,
                    }),
                }
                self.points.push(Point::new(x, y));
            }
            WalRecord::Remove { object } => self.heads.push(RunHead {
                object,
                first: 0,
                at: self.points.len(),
                len: 0,
            }),
        }
    }

    /// Drops the record [`push`](Self::push) added last.
    fn pop(&mut self) {
        if let Some(run) = self.heads.last_mut() {
            if run.len > 0 {
                run.len -= 1;
                self.points.pop();
            }
            if run.len == 0 {
                self.heads.pop();
            }
        }
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.points.clear();
    }

    fn points_of(&self, run: &RunHead) -> &[Point] {
        &self.points[run.at..run.at + run.len]
    }

    /// Appends the runs to `out` as frames, cutting a frame wherever
    /// the next run (or the rest of one) might not fit under
    /// [`WAL_FRAME_CAP`]. The runs go out in object order: an object's
    /// runs keep theirs, and across objects the log order is free — id
    /// order keeps the id deltas small gaps whichever thread's run
    /// took the shard's lock first.
    fn encode(&self, out: &mut Vec<u8>, frame: &mut Frame) {
        frame.order.clear();
        frame.order.extend_from_slice(&self.heads);
        frame.order.sort_by_key(|run| run.object);
        for i in 0..frame.order.len() {
            let run = frame.order[i];
            let (mut first, mut points) = (run.first, self.points_of(&run));
            loop {
                if points_within(frame.room()) == 0 {
                    frame.end(out);
                }
                let n = points.len().min(points_within(frame.room()));
                frame.put_run(run.object, first, &points[..n]);
                points = &points[n..];
                if points.is_empty() {
                    break;
                }
                first += n as u64;
                frame.end(out);
            }
        }
        if !frame.payload.is_empty() {
            frame.end(out);
        }
    }

    /// Decodes the frame at the head of `rest` into `self` (whole, or
    /// not at all) and steps past it.
    fn decode_frame(&mut self, rest: &mut &[u8]) -> Result<(), DecodeError> {
        self.clear();
        let len = get_count(rest, WAL_FRAME_CAP)?;
        let mut payload = unseal(take(rest, len + 8)?)?;
        if payload.is_empty() {
            return Err(DecodeError::Invalid("empty WAL frame".into()));
        }
        let (mut object, mut first) = (0, 0);
        while !payload.is_empty() {
            // A report after a run's first costs at least two bits.
            let len = get_count(&mut payload, WAL_FRAME_CAP * 4)?;
            object = get_delta(&mut payload, object)?;
            let at = self.points.len();
            if len > 0 {
                first = get_delta(&mut payload, first)?;
                // The history it extends ends at `first + len`, one
                // past the run's last timestamp.
                if first.checked_add(len as u64).is_none() {
                    return Err(DecodeError::Invalid(
                        "WAL run passes the last timestamp".into(),
                    ));
                }
                let used = decode_xor_bytes(payload, len, &mut self.points)
                    .map_err(|e| DecodeError::Invalid(format!("corrupt WAL run: {e}")))?;
                payload = &payload[used..];
            }
            self.heads.push(RunHead {
                object,
                first,
                at,
                len,
            });
        }
        Ok(())
    }
}

/// Reports a run may carry within `room` bytes of frame payload, by
/// the worst case of each header field and each XOR delta (0 when not
/// even a header and one raw report fit).
fn points_within(room: usize) -> usize {
    room.checked_sub(RUN_HEAD_MAX + 16)
        .map_or(0, |spare| 1 + spare * 8 / POINT_BITS_MAX)
}

/// Writes `to` as a zigzag varint delta from `from`.
fn put_delta(buf: &mut Vec<u8>, from: u64, to: u64) {
    let d = to.wrapping_sub(from) as i64;
    put_varint(buf, ((d << 1) ^ (d >> 63)) as u64);
}

/// Reads what [`put_delta`] wrote against the same `from`.
fn get_delta(buf: &mut &[u8], from: u64) -> Result<u64, DecodeError> {
    let z = get_varint(buf)?;
    Ok(from.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg()))
}

/// A commit's encoder state: the frame being built — its payload so
/// far and the bases its next run's deltas are taken against — and
/// the batch's runs in encoding order.
#[derive(Debug)]
struct Frame {
    /// The batch's runs in the order they are encoded.
    order: Vec<RunHead>,
    payload: Vec<u8>,
    /// FNV-1a of `payload`, run by run: checksumming each run as it is
    /// encoded lets the checksum's serial multiply chain overlap the
    /// next run's encoding.
    checksum: u64,
    object: u64,
    first: u64,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            order: Vec::new(),
            payload: Vec::new(),
            checksum: FNV1A_EMPTY,
            object: 0,
            first: 0,
        }
    }
}

impl Frame {
    fn room(&self) -> usize {
        WAL_FRAME_CAP - self.payload.len()
    }

    fn put_run(&mut self, object: u64, first: u64, points: &[Point]) {
        let from = self.payload.len();
        put_varint(&mut self.payload, points.len() as u64);
        put_delta(&mut self.payload, self.object, object);
        self.object = object;
        if !points.is_empty() {
            put_delta(&mut self.payload, self.first, first);
            self.first = first;
            encode_xor_bytes(&mut self.payload, points);
        }
        self.checksum = fnv1a_extend(self.checksum, &self.payload[from..]);
    }

    /// Appends the frame to `out` — length, payload, checksum — and
    /// starts the next one.
    fn end(&mut self, out: &mut Vec<u8>) {
        debug_assert!(self.payload.len() <= WAL_FRAME_CAP);
        put_varint(out, self.payload.len() as u64);
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&self.checksum.to_le_bytes());
        self.payload.clear();
        self.checksum = FNV1A_EMPTY;
        self.object = 0;
        self.first = 0;
    }
}

/// Result of scanning a WAL file's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Every record of the longest valid prefix, in log order: frame by
    /// frame, a frame's records in object order, and each object's
    /// records in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset one past each record's frame — `offsets[i]` is the
    /// file length at which record `i` survives (with every record
    /// before it, and the rest of its frame).
    pub offsets: Vec<usize>,
    /// Bytes of the valid prefix (header included).
    pub valid_len: usize,
    /// Why the scan stopped before the end of the input, if it did —
    /// a torn tail (crash) or corruption. `None` means the whole file
    /// parsed.
    pub torn: Option<DecodeError>,
}

/// Hands every run of the longest valid frame prefix of a WAL file's
/// bytes to `visit`, in log order, with the offset its frame ends at;
/// returns the prefix length (header included) and why the scan
/// stopped short of the end, if it did. Each frame is decoded whole
/// before its first run is visited. Never fails: a file without even a
/// whole magic header is an empty log with a torn tail, and a header
/// naming another version of the format (`HPMWAL` and two digits) is an
/// empty log that stopped at [`DecodeError::UnsupportedVersion`] —
/// which recovery must refuse rather than skip.
pub fn scan_wal_runs(
    bytes: &[u8],
    mut visit: impl FnMut(WalRun<'_>, usize),
) -> (usize, Option<DecodeError>) {
    if bytes.is_empty() {
        return (0, None);
    }
    let mut rest = match strip_magic(bytes, WAL_MAGIC) {
        Ok(frames) => frames,
        Err(e) => return (0, Some(other_version(bytes).unwrap_or(e))),
    };
    let mut frame = Runs::default();
    loop {
        let valid_len = bytes.len() - rest.len();
        if rest.is_empty() {
            return (valid_len, None);
        }
        let mut cursor = rest;
        if let Err(e) = frame.decode_frame(&mut cursor) {
            return (valid_len, Some(e));
        }
        rest = cursor;
        let end = bytes.len() - rest.len();
        for run in &frame.heads {
            let (object, first, points) = (run.object, run.first, frame.points_of(run));
            visit(
                WalRun {
                    object,
                    first,
                    points,
                },
                end,
            );
        }
    }
}

/// The refusal for a WAL header that names a version other than
/// [`WAL_MAGIC`]'s: `HPMWAL` followed by the version's two digits.
fn other_version(bytes: &[u8]) -> Option<DecodeError> {
    match *bytes.get(..WAL_MAGIC.len())? {
        [b'H', b'P', b'M', b'W', b'A', b'L', hi @ b'0'..=b'9', lo @ b'0'..=b'9'] => Some(
            DecodeError::UnsupportedVersion(u32::from(hi - b'0') * 10 + u32::from(lo - b'0')),
        ),
        _ => None,
    }
}

/// Parses the longest valid prefix of a WAL file's bytes into records
/// (see [`scan_wal_runs`]).
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let (valid_len, torn) = scan_wal_runs(bytes, |run, end| {
        let object = run.object;
        if run.points.is_empty() {
            records.push(WalRecord::Remove { object });
        }
        for (i, p) in run.points.iter().enumerate() {
            records.push(WalRecord::Report {
                object,
                timestamp: run.first + i as u64,
                x: p.x,
                y: p.y,
            });
        }
        offsets.resize(records.len(), end);
    });
    WalScan {
        records,
        offsets,
        valid_len,
        torn,
    }
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
///
/// Failed writes keep the log equal to what callers were told: an
/// [`append`](Self::append) that returns `Err` leaves no trace in the
/// file, the appends before it that returned `Ok` are still written
/// (by the next commit), and nothing is ever written after a partial
/// frame — a failed write is cut back off the file, and a writer that
/// cannot cut it refuses every later write.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// File length up to the last frame written whole: where a failed
    /// write is cut back to.
    len: u64,
    /// A failed write could not be cut back off the file.
    broken: bool,
    /// Appended records not yet written, and how many there are.
    pending: Runs,
    records: usize,
    /// Commit scratch: one batch's encoded frames, and the frame being
    /// built.
    out: Vec<u8>,
    frame: Frame,
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
            len: WAL_MAGIC.len() as u64,
            broken: false,
            pending: Runs::default(),
            records: 0,
            out: Vec::new(),
            frame: Frame::default(),
            opts,
        })
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logs one record: buffers it (a report extends the open run when
    /// it is the same object's next one) and, every `group_commit`
    /// records, encodes and writes the batch. An error means the
    /// record is not in the log — the caller must not apply the
    /// operation it logs — while the batch before it stays buffered
    /// for the next commit.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let _span = hpm_obs::span!(metrics::WAL_APPEND_SPAN);
        if self.broken {
            return Err(broken());
        }
        self.pending.push(record);
        self.records += 1;
        if self.records >= self.opts.group_commit {
            if let Err(e) = self.commit() {
                self.pending.pop();
                self.records -= 1;
                return Err(e);
            }
        }
        hpm_obs::counter!(metrics::WAL_RECORDS).add(1);
        Ok(())
    }

    /// Writes out any batched records (a partial group) and fsyncs per
    /// policy. On error they stay buffered.
    pub fn flush(&mut self) -> io::Result<()> {
        self.commit()
    }

    fn commit(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(broken());
        }
        if self.pending.heads.is_empty() {
            return Ok(());
        }
        self.out.clear();
        self.pending.encode(&mut self.out, &mut self.frame);
        match self.write_out() {
            Ok(written) => {
                hpm_obs::counter!(metrics::WAL_BYTES).add(written);
                self.len += written;
                self.pending.clear();
                self.records = 0;
                Ok(())
            }
            Err(e) => {
                let len = self.len;
                let cut = self.file.set_len(len);
                self.broken = cut
                    .and_then(|()| self.file.seek(SeekFrom::Start(len)))
                    .is_err();
                Err(e)
            }
        }
    }

    /// One batch's physical write, through the failpoint hook, then the
    /// fsync the policy asks for. Returns the bytes that reached the
    /// file.
    fn write_out(&mut self) -> io::Result<u64> {
        use hpm_check::fail::{on_write, WriteOutcome, EXIT_CODE};
        let bytes = &self.out[..];
        let written = match on_write(WAL_APPEND_FAILPOINT, bytes.len()) {
            WriteOutcome::Full => bytes.len(),
            WriteOutcome::Short(n) => n,
            WriteOutcome::Error(n) => {
                self.file.write_all(&bytes[..n])?;
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("hpm-check failpoint: error at {WAL_APPEND_FAILPOINT}"),
                ));
            }
            WriteOutcome::TornExit(n) => {
                let _ = self.file.write_all(&bytes[..n]);
                let _ = self.file.flush();
                eprintln!("hpm-check failpoint: torn {WAL_APPEND_FAILPOINT}, exiting");
                std::process::exit(EXIT_CODE);
            }
            WriteOutcome::ExitNow => {
                eprintln!("hpm-check failpoint: exit at {WAL_APPEND_FAILPOINT}");
                std::process::exit(EXIT_CODE);
            }
        };
        self.file.write_all(&bytes[..written])?;
        if self.opts.fsync == FsyncPolicy::Always {
            let _span = hpm_obs::span!(metrics::WAL_FSYNC_SPAN);
            self.file.sync_data()?;
        }
        Ok(written as u64)
    }
}

fn broken() -> io::Error {
    io::Error::other("WAL segment ends in a failed write that could not be cut off")
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
    use crate::wire::seal;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Failpoints are process-global: tests that write through the
    /// writer hold this lock so an armed failpoint never meets another
    /// test's writes.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn report(object: u64, timestamp: u64, x: f64, y: f64) -> WalRecord {
        WalRecord::Report {
            object,
            timestamp,
            x,
            y,
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            report(7, 0, 1.5, -2.25),
            report(7, 1, 1.75, -2.25),
            report(u64::MAX, 12_345, f64::MIN_POSITIVE, 0.0),
            WalRecord::Remove { object: 7 },
            report(7, 500, -0.0, 3.0),
            report(7, 501, -0.5, 3.0),
            report(7, 502, -1.0, 3.5),
        ]
    }

    /// The bytes a writer committing every `group` records leaves.
    /// The order a writer committing every `group` records logs
    /// `records` in: batch by batch, each batch in object order.
    fn logged(records: &[WalRecord], group: usize) -> Vec<WalRecord> {
        let object = |r: &WalRecord| match *r {
            WalRecord::Report { object, .. } | WalRecord::Remove { object } => object,
        };
        let mut order = Vec::new();
        for batch in records.chunks(group) {
            let start = order.len();
            order.extend_from_slice(batch);
            order[start..].sort_by_key(object);
        }
        order
    }

    fn encoded(records: &[WalRecord], group: usize) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        let (mut runs, mut frame) = (Runs::default(), Frame::default());
        for batch in records.chunks(group) {
            runs.clear();
            batch.iter().for_each(|r| runs.push(r));
            runs.encode(&mut bytes, &mut frame);
        }
        bytes
    }

    #[test]
    fn records_roundtrip_at_every_group_size() {
        let records = sample_records();
        for group in 1..=records.len() {
            let bytes = encoded(&records, group);
            let scan = scan_wal(&bytes);
            assert_eq!(scan.records, logged(&records, group), "group {group}");
            assert_eq!(scan.torn, None);
            assert_eq!(scan.offsets.len(), records.len());
            assert_eq!(scan.valid_len, bytes.len());
            // A record's offset is its batch's frame end.
            for (i, &end) in scan.offsets.iter().enumerate() {
                let last_of_batch = (i / group + 1) * group - 1;
                assert_eq!(end, scan.offsets[last_of_batch.min(records.len() - 1)]);
            }
        }
    }

    #[test]
    fn one_frame_per_batch_and_runs_share_a_header() {
        let records = sample_records();
        // One batch: three report runs and a remove in one frame.
        let whole = encoded(&records, records.len());
        let mut frames = scan_wal(&whole).offsets;
        frames.dedup();
        assert_eq!(frames, [whole.len()]);
        // Framing costs a batch one length and one checksum, and a
        // second report of a run costs less than a lone report.
        let lone = encoded(&records[..1], 1).len() - 8;
        let pair = encoded(&records[..2], 2).len() - 8;
        assert!(pair - lone < 16, "lone {lone} B, pair {pair} B");
        assert!(whole.len() < encoded(&records, 1).len());
    }

    #[test]
    fn a_run_longer_than_a_frame_is_split() {
        // Incompressible coordinates: every delta takes its worst case.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut bits = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f64::from_bits(state)
        };
        let records: Vec<WalRecord> = (0..8_000)
            .map(|t| report(3, u64::MAX - 8_000 + t, bits(), bits()))
            .collect();
        let bytes = encoded(&records, records.len());
        let scan = scan_wal(&bytes);
        assert_eq!(scan.torn, None);
        assert_eq!(scan.records.len(), records.len());
        for (got, want) in scan.records.iter().zip(&records) {
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
        let mut ends = scan.offsets.clone();
        ends.dedup();
        assert!(ends.len() > 2, "{} frames", ends.len());
        let mut start = WAL_MAGIC.len();
        for end in ends {
            assert!(end - start <= WAL_FRAME_CAP + 3 + 8);
            start = end;
        }
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
        // Another version of the format is refused by number, with
        // nothing read past its header.
        for (header, version) in [(b"HPMWAL01", 1), (b"HPMWAL13", 13)] {
            let scan = scan_wal(header);
            assert!(scan.records.is_empty());
            assert_eq!(scan.valid_len, 0);
            assert_eq!(scan.torn, Some(DecodeError::UnsupportedVersion(version)));
        }
        assert_eq!(scan_wal(b"HPMWAL0x").torn, Some(DecodeError::BadMagic));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = WAL_MAGIC.to_vec();
        put_varint(&mut bytes, WAL_FRAME_CAP as u64 + 1);
        bytes.extend_from_slice(&[0u8; 64]);
        let scan = scan_wal(&bytes);
        assert!(scan.records.is_empty());
        assert!(matches!(
            scan.torn,
            Some(DecodeError::CountOutOfRange { got, .. }) if got == WAL_FRAME_CAP as u64 + 1
        ));
    }

    /// Sealed frames whose payload no writer produces are refused, not
    /// trusted: empty, a run past `u64::MAX`, a stream that overruns.
    #[test]
    fn well_sealed_nonsense_is_refused() {
        let frame = |payload: &[u8]| {
            let mut bytes = WAL_MAGIC.to_vec();
            put_varint(&mut bytes, payload.len() as u64);
            let from = bytes.len();
            bytes.extend_from_slice(payload);
            seal(&mut bytes, from);
            scan_wal(&bytes)
        };
        assert!(matches!(frame(&[]).torn, Some(DecodeError::Invalid(_))));
        // Two reports of object 0 from u64::MAX (zigzag -1 = 1).
        let mut past_max = vec![2, 0, 1];
        past_max.extend_from_slice(&[0; 17]);
        assert!(matches!(
            frame(&past_max).torn,
            Some(DecodeError::Invalid(_))
        ));
        // One report whose 16 raw bytes are cut short.
        assert!(matches!(
            frame(&[1, 0, 0, 9, 9]).torn,
            Some(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn writer_groups_commits() {
        let _serial = serial();
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
            for r in &records[3..] {
                w.append(r).unwrap();
            }
            w.flush().unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), encoded(&records, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A write that fails part-way is cut back off: the record whose
    /// append failed is gone, the batch before it is written by the
    /// next commit, and no byte of the failed write survives.
    #[test]
    fn a_failed_write_leaves_no_trace() {
        let _serial = serial();
        let dir = std::env::temp_dir().join(format!("hpm-wal-error-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("error.log");
        let records = sample_records();
        let opts = WalOptions {
            group_commit: 2,
            fsync: FsyncPolicy::Never,
        };
        let mut w = WalWriter::create(&path, opts).unwrap();
        w.append(&records[0]).unwrap();
        w.append(&records[1]).unwrap();
        let whole = std::fs::metadata(&path).unwrap().len();
        hpm_check::fail::install("wal.append=error@5").unwrap();
        w.append(&records[2]).unwrap();
        let failed = w.append(&records[3]).unwrap_err();
        hpm_check::fail::clear();
        assert_eq!(failed.kind(), io::ErrorKind::StorageFull);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), whole);
        for r in &records[3..] {
            w.append(r).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(scan_wal(&bytes).records, logged(&records, 2));
        assert_eq!(scan_wal(&bytes).torn, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_scans_empty() {
        let scan = scan_wal_file(Path::new("/nonexistent/hpm-wal")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn, None);
    }
}
