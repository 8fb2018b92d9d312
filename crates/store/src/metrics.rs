//! Metric names this crate emits, and their registration.
//!
//! Names follow the workspace `crate.module.op` convention; the full
//! catalogue lives in `docs/OBSERVABILITY.md`.

hpm_obs::catalog! {
    /// Latency span around in-memory model encoding.
    span ENCODE_SPAN = "store.model.encode";
    /// Latency span around in-memory model decoding (checksum included).
    span DECODE_SPAN = "store.model.decode";
    /// Latency span around encode + file write.
    span SAVE_SPAN = "store.model.save";
    /// Latency span around file read + decode.
    span LOAD_SPAN = "store.model.load";

    /// Model bytes produced by encoding, summed over calls.
    counter BYTES_WRITTEN = "store.model.bytes_written";
    /// Model bytes consumed by decoding (valid or not), summed over calls.
    counter BYTES_READ = "store.model.bytes_read";
    /// Decode attempts rejected (bad magic, version, checksum, bounds).
    counter DECODE_ERRORS = "store.model.decode_errors";

    /// Latency span around one WAL record append (the batch's encode
    /// and write included when the record fills it).
    span WAL_APPEND_SPAN = "store.wal.append";
    /// Latency span around one WAL fsync (`FsyncPolicy::Always` only).
    span WAL_FSYNC_SPAN = "store.wal.fsync";
    /// WAL records appended successfully.
    counter WAL_RECORDS = "store.wal.records";
    /// WAL frame bytes physically written (headers excluded).
    counter WAL_BYTES = "store.wal.bytes";
}
