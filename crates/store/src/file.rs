//! The one way this workspace replaces a file whose old content must
//! survive a failed write: model files and store snapshots.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Durably replaces the file at `path` with `bytes`: they are written
/// to a sibling with the extension `tmp`, fsynced, renamed over
/// `path`, and the directory is fsynced. A crash or an error at any
/// step leaves `path` holding its old content or the new one, never a
/// mix (a stray `.tmp` may remain; readers ignore it).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => sync_dir(dir),
        _ => sync_dir(Path::new(".")),
    }
}

/// Fsyncs a directory so the renames and creates within it are
/// durable. Best-effort on platforms where a directory cannot be
/// opened.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir).map_or(Ok(()), |d| d.sync_all())
}
