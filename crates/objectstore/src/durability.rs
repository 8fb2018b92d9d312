//! Durability plumbing: on-disk layout, configuration, and the shared
//! writer state [`crate::MovingObjectStore`] carries when opened on a
//! data directory.
//!
//! # Layout
//!
//! A data directory holds files of three kinds, all named by a
//! monotonically increasing **epoch**:
//!
//! ```text
//! wal-<epoch>-<shard>.log   per-shard write-ahead log segments
//! snap-<epoch>.snap         full-store snapshot (atomic: written to
//!                           snap-<epoch>.tmp, fsynced, renamed — by
//!                           `hpm_store::write_atomic`)
//! snap-<epoch>.tmp          in-flight snapshot; ignored by recovery
//! ```
//!
//! Every `open()` and every snapshot **rotates**: it bumps the epoch
//! and starts fresh WAL segments, so no writer ever appends after a
//! torn tail and a file's valid prefix always equals its crash point.
//!
//! # Recovery invariants
//!
//! A snapshot at epoch `e` is cut *after* rotating the WAL to epoch
//! `e`, so it contains every effect of segments with epoch `< e`, and
//! no effect of segments with epoch `≥ e` beyond what replay
//! re-applies. Recovery therefore loads the highest decodable
//! snapshot `b` and replays all segments of epochs `b..=max` in epoch
//! order — every segment on disk, whatever shard count wrote it. An
//! epoch's segments were written by one process with one shard count,
//! so an object's records of that epoch live in exactly one of them:
//! per-object order is total, and the segments of one epoch replay in
//! parallel. Replay runs through the same ingest path as live traffic
//! with logging disabled; the contiguity check makes re-applied
//! reports idempotent and a logged `Remove` resets the object exactly
//! as it did live.

use hpm_store::wal::{FsyncPolicy, WalOptions, WalWriter};
use hpm_store::DecodeError;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

/// How a store persists itself. Passed to
/// [`crate::MovingObjectStore::open`] next to the in-memory
/// [`crate::StoreConfig`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Data directory (created if missing).
    pub dir: PathBuf,
    /// WAL records buffered per physical write (group commit);
    /// 1 = write-through. Clamped to ≥ 1.
    pub group_commit: usize,
    /// WAL fsync cadence.
    pub fsync: FsyncPolicy,
    /// Take an automatic snapshot after this many WAL records;
    /// 0 = only on explicit [`crate::MovingObjectStore::snapshot`]
    /// calls.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Write-through, always-fsync defaults for a directory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            group_commit: 1,
            fsync: FsyncPolicy::Always,
            snapshot_every: 0,
        }
    }

    pub(crate) fn wal_options(&self) -> WalOptions {
        WalOptions {
            group_commit: self.group_commit.max(1),
            fsync: self.fsync,
        }
    }
}

/// Why a store could not be opened from a data directory.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem trouble (directory creation, reads, WAL creation).
    Io(io::Error),
    /// Every snapshot in the directory failed to decode — the WAL tail
    /// alone cannot reconstruct state that predates the oldest
    /// surviving segment, so opening would silently lose data.
    CorruptSnapshot(DecodeError),
    /// The newest snapshot, or a WAL segment recovery must replay, is
    /// in a format version this build does not read (version-1 files
    /// included): skipping it would lose its records, so opening
    /// refuses.
    UnsupportedVersion {
        /// The refused file.
        path: PathBuf,
        /// The version its header names.
        version: u32,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery I/O error: {e}"),
            RecoverError::CorruptSnapshot(e) => {
                write!(f, "no decodable snapshot in data dir: {e}")
            }
            RecoverError::UnsupportedVersion { path, version } => write!(
                f,
                "{}: format version {version} is not read by this build",
                path.display()
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// Shared writer-side state of a durable store.
pub(crate) struct DurabilityState {
    pub(crate) config: DurabilityConfig,
    /// Current epoch: the one live WAL segments are named with.
    pub(crate) epoch: AtomicU64,
    /// One WAL writer per shard, locked independently; always taken
    /// *after* any object lock and never held across one.
    pub(crate) wals: Box<[Mutex<WalWriter>]>,
    /// WAL records since the last snapshot (drives `snapshot_every`).
    pub(crate) since_snapshot: AtomicU64,
    /// Serializes snapshots (rotation + serialization + GC).
    pub(crate) snapshot_gate: Mutex<()>,
}

pub(crate) fn wal_path(dir: &Path, epoch: u64, shard: usize) -> PathBuf {
    dir.join(format!("wal-{epoch}-{shard}.log"))
}

pub(crate) fn snap_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snap-{epoch}.snap"))
}

/// Everything durable in a data directory, by epoch.
#[derive(Debug, Default)]
pub(crate) struct DirListing {
    /// Every WAL segment as `(epoch, shard)`, ascending.
    pub(crate) wal_segments: Vec<(u64, usize)>,
    /// Epochs having a snapshot file, ascending.
    pub(crate) snap_epochs: Vec<u64>,
}

impl DirListing {
    pub(crate) fn max_epoch(&self) -> Option<u64> {
        let wal = self.wal_segments.last().map(|&(epoch, _)| epoch);
        wal.max(self.snap_epochs.last().copied())
    }
}

pub(crate) fn list_dir(dir: &Path) -> io::Result<DirListing> {
    let mut listing = DirListing::default();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
        {
            if let Some((epoch, shard)) = rest.split_once('-') {
                if let (Ok(epoch), Ok(shard)) = (epoch.parse(), shard.parse()) {
                    listing.wal_segments.push((epoch, shard));
                }
            }
        } else if let Some(rest) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(".snap"))
        {
            if let Ok(epoch) = rest.parse::<u64>() {
                listing.snap_epochs.push(epoch);
            }
        }
    }
    listing.wal_segments.sort_unstable();
    listing.snap_epochs.sort_unstable();
    listing.snap_epochs.dedup();
    Ok(listing)
}

/// Deletes WAL segments and snapshots of epochs strictly below
/// `keep_from`. Best-effort: a file that refuses to die only wastes
/// disk and is retried at the next snapshot.
pub(crate) fn gc_below(dir: &Path, keep_from: u64) {
    let Ok(listing) = list_dir(dir) else {
        return;
    };
    let wals = listing.wal_segments.into_iter();
    for (epoch, shard) in wals.filter(|&(epoch, _)| epoch < keep_from) {
        let _ = fs::remove_file(wal_path(dir, epoch, shard));
    }
    for epoch in listing.snap_epochs.into_iter().filter(|&e| e < keep_from) {
        let _ = fs::remove_file(snap_path(dir, epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_parses_and_sorts_epochs() {
        let dir = std::env::temp_dir().join(format!("hpm-dur-list-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for name in [
            "wal-3-0.log",
            "wal-3-1.log",
            "wal-3-7.log",
            "wal-10-0.log",
            "wal-10-x.log",
            "snap-3.snap",
            "snap-2.snap",
            "snap-4.tmp",
            "garbage.txt",
            "wal-x-0.log",
        ] {
            fs::write(dir.join(name), b"").unwrap();
        }
        let listing = list_dir(&dir).unwrap();
        assert_eq!(listing.wal_segments, [(3, 0), (3, 1), (3, 7), (10, 0)]);
        assert_eq!(listing.snap_epochs, vec![2, 3]);
        assert_eq!(listing.max_epoch(), Some(10));
        gc_below(&dir, 4);
        let listing = list_dir(&dir).unwrap();
        assert_eq!(listing.wal_segments, [(10, 0)]);
        assert!(listing.snap_epochs.is_empty());
        // tmp and unrelated files untouched by GC.
        assert!(dir.join("snap-4.tmp").exists());
        assert!(dir.join("garbage.txt").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_write_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("hpm-dur-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        hpm_store::write_atomic(&snap_path(&dir, 5), b"payload").unwrap();
        assert_eq!(fs::read(snap_path(&dir, 5)).unwrap(), b"payload");
        // The in-flight name the layout documents, gone after rename.
        assert!(!dir.join("snap-5.tmp").exists());
        assert_eq!(list_dir(&dir).unwrap().snap_epochs, vec![5]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
