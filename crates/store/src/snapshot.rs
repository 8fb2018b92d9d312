//! Store-snapshot codec: the full per-object state of a moving-objects
//! store at a point in time, each history written as the store holds
//! it. Version 3 is the only version read: a version-1 file (raw
//! samples only) or version-2 file (everything after the sealed chunks
//! raw) is refused as [`DecodeError::UnsupportedVersion`], never
//! misread.
//!
//! ```text
//! header   magic  b"HPMSNAP1"                8 bytes
//!          version varint                    3
//! payload  object_count varint
//!          objects: per object, ids strictly ascending —
//!              id            varint
//!              start         varint          (first sample timestamp)
//!              history                       (see below)
//!              trained_subs  varint          (0 = untrained)
//!              model flag    u8 0|1
//!              model         varint length + model-codec blob
//!                                            (present when flag = 1)
//! trailer  fnv1a over header + payload       8 bytes little-endian
//!
//! history:
//!          kind          u8                  1 = chunked (0, raw
//!                                             samples, was never
//!                                             written by a store and
//!                                             is refused)
//!          chunk_count   varint
//!          per chunk     stream              (samples ≥ 1)
//!          open chunk    stream              (samples ≥ 0; 0 is the
//!                                             empty stream: 0 bits,
//!                                             no words)
//!          window_count  varint, then f64 x, f64 y each
//!
//! stream:
//!          samples       varint
//!          bits          varint              (valid bits in stream)
//!          word_count    varint              (must equal ⌈bits/64⌉)
//!          words         u64 LE × word_count (verbatim — never
//!                                             recompressed)
//! ```
//!
//! Chunk payloads are the `hpm_trajectory` bit streams written
//! word-for-word — the sealed chunks and the open chunk being written
//! after them — then the raw window: snapshotting a compressed store is
//! a memcpy per history, not a decompress/recompress cycle, and
//! restoring one installs the same parts. On decode every stream is
//! revalidated by [`SealedChunk::from_raw_parts`] or
//! [`OpenChunk::from_raw_parts`] — the full stream must decode to
//! exactly the declared sample count with clean padding — so a corrupt
//! stream that somehow survived the whole-file checksum still refuses
//! to open with a typed error instead of yielding garbage points.
//!
//! The trained predictor rides along as a nested model-codec blob
//! (`encode_model`'s format, checksum included), so model-level
//! corruption is detected even if the outer trailer were somehow
//! forged. The incremental `TrainerState` is *not* serialized, and
//! nothing about it is: it is derived state, and a store that opens a
//! snapshot installs no trainer — the object's next retrain re-seeds
//! one from its full history, which by the workspace training
//! contract is bit-identical to the trainer a never-restarted store
//! would have folded up to the same sample.
//!
//! Snapshot files are written with [`crate::write_atomic`]; a decode
//! failure therefore means corruption (or a torn tmp file that was
//! never renamed), never a mid-write state.

use crate::wire::{
    begin_sealed, get_len, get_point, get_seq, get_u64, get_u8, get_varint, open_sealed, put_point,
    put_u64, put_varint, seal, take,
};
use crate::DecodeError;
use hpm_geo::Point;
use hpm_trajectory::{ChunkError, ChunkedHistory, OpenChunk, SealedChunk};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HPMSNAP1";

/// The snapshot format version, the only one written or read.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The history kind byte: sealed chunks, the open chunk, the window.
const HISTORY_CHUNKED: u8 = 1;

/// An object's serialized position history: the parts of a
/// [`ChunkedHistory`], oldest samples first.
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySnapshot {
    /// Sealed compressed runs, written/read verbatim.
    pub chunks: Vec<SealedChunk>,
    /// The chunk being written after them, written/read verbatim.
    pub open: OpenChunk,
    /// The newest samples, uncompressed.
    pub window: Vec<Point>,
}

impl HistorySnapshot {
    /// A copy of `history`'s parts.
    pub fn of(history: &ChunkedHistory) -> Self {
        HistorySnapshot {
            chunks: history.chunks().to_vec(),
            open: history.open_chunk().clone(),
            window: history.window().to_vec(),
        }
    }
}

/// One object's durable state. `history` holds the samples in
/// timestamp order starting at `start`; `model` is an `encode_model`
/// blob of the trained predictor, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSnapshot {
    /// Raw object id.
    pub id: u64,
    /// Timestamp of the first sample.
    pub start: u64,
    /// Every sample: the history's parts.
    pub history: HistorySnapshot,
    /// Full periods the predictor was trained on (0 = untrained).
    pub trained_subs: u64,
    /// The trained model, encoded with the model codec.
    pub model: Option<Vec<u8>>,
}

fn put_stream(buf: &mut Vec<u8>, samples: usize, bits: u64, words: &[u64]) {
    put_varint(buf, samples as u64);
    put_varint(buf, bits);
    put_varint(buf, words.len() as u64);
    for &w in words {
        put_u64(buf, w);
    }
}

/// Encodes a snapshot of every given object, which the caller lists in
/// ascending id order (the decoder refuses any other). Chunk streams
/// are written verbatim — no recompression.
pub fn encode_snapshot(objects: &[ObjectSnapshot]) -> Vec<u8> {
    let mut buf = begin_sealed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 64 + objects.len() * 64);
    put_varint(&mut buf, objects.len() as u64);
    for o in objects {
        put_varint(&mut buf, o.id);
        put_varint(&mut buf, o.start);
        let h = &o.history;
        buf.push(HISTORY_CHUNKED);
        put_varint(&mut buf, h.chunks.len() as u64);
        for c in &h.chunks {
            put_stream(&mut buf, c.samples(), c.bits(), c.words());
        }
        put_stream(&mut buf, h.open.samples(), h.open.bits(), h.open.words());
        put_varint(&mut buf, h.window.len() as u64);
        for p in &h.window {
            put_point(&mut buf, p);
        }
        put_varint(&mut buf, o.trained_subs);
        match &o.model {
            Some(blob) => {
                buf.push(1);
                put_varint(&mut buf, blob.len() as u64);
                buf.extend_from_slice(blob);
            }
            None => buf.push(0),
        }
    }
    seal(&mut buf, 0);
    buf
}

/// Reads one stream's parts and hands them to `parts`, the validating
/// constructor of a sealed or an open chunk.
fn get_stream<T>(
    buf: &mut &[u8],
    id: u64,
    what: &str,
    parts: fn(u32, u64, Vec<u64>) -> Result<T, ChunkError>,
) -> Result<T, DecodeError> {
    let samples = get_varint(buf)?;
    let bits = get_varint(buf)?;
    let words = get_seq(buf, 8, get_u64)?;
    let samples = u32::try_from(samples).map_err(|_| DecodeError::CountOutOfRange {
        got: samples,
        limit: u64::from(u32::MAX),
    })?;
    parts(samples, bits, words)
        .map_err(|e| DecodeError::Invalid(format!("object {id}: corrupt {what}: {e}")))
}

fn get_history(buf: &mut &[u8], id: u64) -> Result<HistorySnapshot, DecodeError> {
    let kind = get_u8(buf)?;
    if kind != HISTORY_CHUNKED {
        return Err(DecodeError::Invalid(format!(
            "object {id}: history kind {kind} is not {HISTORY_CHUNKED}"
        )));
    }
    // A chunk is at least 11 bytes: three one-byte varints and the one
    // packed word a non-empty stream needs; a word is 8, a point 16.
    let chunks = get_seq(buf, 11, |buf| {
        get_stream(buf, id, "chunk", SealedChunk::from_raw_parts)
    })?;
    let open = get_stream(buf, id, "open chunk", OpenChunk::from_raw_parts)?;
    let window = get_seq(buf, 16, get_point)?;
    Ok(HistorySnapshot {
        chunks,
        open,
        window,
    })
}

/// Decodes a snapshot, validating the trailer checksum first and every
/// structural bound after — including ascending object ids and a full
/// decode validation of every compressed stream. Nested model blobs
/// are *not* decoded here — the caller hands them to `decode_model`,
/// which re-validates them.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<ObjectSnapshot>, DecodeError> {
    let (version, mut buf) = open_sealed(bytes, SNAPSHOT_MAGIC)?;
    let buf = &mut buf;
    if version != SNAPSHOT_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    // An object is at least 10 bytes: eight one-byte varints and two u8.
    let mut prev: Option<u64> = None;
    let objects = get_seq(buf, 10, |buf| {
        let id = get_varint(buf)?;
        // The writer lists objects in id order; a repeated id would
        // silently replace the object restored before it.
        if let Some(prev) = prev.filter(|&prev| prev >= id) {
            return Err(DecodeError::Invalid(format!(
                "object {id} does not ascend past object {prev}"
            )));
        }
        prev = Some(id);
        let start = get_varint(buf)?;
        let history = get_history(buf, id)?;
        let sealed: usize = history.chunks.iter().map(SealedChunk::samples).sum();
        let samples = sealed + history.open.samples() + history.window.len();
        if start.checked_add(samples as u64).is_none() {
            return Err(DecodeError::Invalid(format!(
                "object {id}: history ends past the last timestamp"
            )));
        }
        let trained_subs = get_varint(buf)?;
        let model = match get_u8(buf)? {
            0 => None,
            1 => {
                let len = get_len(buf, 1)?;
                Some(take(buf, len)?.to_vec())
            }
            other => {
                return Err(DecodeError::Invalid(format!(
                    "object {id}: model flag {other} is not 0/1"
                )))
            }
        };
        Ok(ObjectSnapshot {
            id,
            start,
            history,
            trained_subs,
            model,
        })
    })?;
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes(buf.len()));
    }
    Ok(objects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_trajectory::ChunkParams;

    /// A small geometry, so every part shows in a short history: 16
    /// samples a chunk, a window of 4 to 6.
    const PARAMS: ChunkParams = ChunkParams {
        seal_len: 16,
        min_tail: 4,
    };

    /// The parts of a history of `n` samples of a walk from `seed`.
    fn parts(n: usize, seed: f64) -> HistorySnapshot {
        let mut h = ChunkedHistory::new(0, PARAMS);
        for i in 0..n {
            h.push(Point::new(seed + i as f64 * 0.25, seed - i as f64 * 0.5));
        }
        HistorySnapshot::of(&h)
    }

    /// Objects in ascending id order, as the store writes them.
    fn sample() -> Vec<ObjectSnapshot> {
        vec![
            ObjectSnapshot {
                id: 7,
                start: 50,
                history: parts(30, 1.0),
                trained_subs: 2,
                model: None,
            },
            ObjectSnapshot {
                id: 42,
                start: 1000,
                history: parts(3, -2.0),
                trained_subs: 1,
                model: Some(vec![1, 2, 3, 4]),
            },
            ObjectSnapshot {
                id: u64::MAX,
                start: 0,
                history: parts(0, 0.0),
                trained_subs: 0,
                model: None,
            },
        ]
    }

    #[test]
    fn roundtrips() {
        let objects = sample();
        let h = &objects[0].history;
        assert_eq!(
            (h.chunks.len(), h.open.samples(), h.window.len()),
            (1, 8, 6)
        );
        let blob = encode_snapshot(&objects);
        assert_eq!(decode_snapshot(&blob).unwrap(), objects);
        assert_eq!(decode_snapshot(&encode_snapshot(&[])).unwrap(), Vec::new());
    }

    /// The parts come back as they were — snapshotting is a copy, never
    /// a recompress — and install as the history they came from, which
    /// goes on to encode what that history does.
    #[test]
    fn parts_round_trip_verbatim() {
        let mut live = ChunkedHistory::new(50, PARAMS);
        let walk = |i: usize| Point::new(i as f64 * 0.75, -(i as f64) * 0.125);
        (0..30).for_each(|i| live.push(walk(i)));
        let object = ObjectSnapshot {
            id: 7,
            start: 50,
            history: HistorySnapshot::of(&live),
            trained_subs: 0,
            model: None,
        };
        let decoded = decode_snapshot(&encode_snapshot(&[object])).unwrap();
        let h = &decoded[0].history;
        assert_eq!(h.chunks, live.chunks());
        assert_eq!(&h.open, live.open_chunk());
        assert_eq!(h.window, live.window());
        let (chunks, open, window) = (h.chunks.clone(), h.open.clone(), h.window.clone());
        let mut restored = ChunkedHistory::from_parts(50, PARAMS, chunks, open, window);
        assert_eq!(restored, live);
        for i in 30..60 {
            restored.push(walk(i));
            live.push(walk(i));
        }
        assert_eq!(restored, live);
    }

    #[test]
    fn checksum_guards_every_byte() {
        let blob = encode_snapshot(&sample());
        hpm_check::mutate::every_bit_flip(&blob, |i, bad| {
            assert!(decode_snapshot(bad).is_err(), "flip at byte {i} accepted");
        });
    }

    #[test]
    fn truncations_rejected() {
        let blob = encode_snapshot(&sample());
        hpm_check::mutate::every_cut(&blob, |cut, prefix| {
            assert!(decode_snapshot(prefix).is_err(), "cut at {cut}");
        });
    }

    #[test]
    fn corrupt_streams_refused_with_typed_error() {
        // Re-seal the checksum after flipping a packed word so only the
        // stream-level validation can catch it.
        let objects = vec![ObjectSnapshot {
            id: 3,
            start: 0,
            history: parts(30, 2.0),
            trained_subs: 0,
            model: None,
        }];
        let blob = encode_snapshot(&objects);
        // Flip every bit past the 14-byte header in turn (re-sealing the
        // checksum each time so only structural validation can object)
        // and require flips landing in the sealed and in the open
        // chunk's words to surface their typed Invalid.
        let payload_len = blob.len() - 8;
        let (mut sealed, mut open) = (false, false);
        hpm_check::mutate::every_bit_flip(&blob[..payload_len], |i, flipped| {
            if i < 14 {
                return;
            }
            let mut bad = flipped.to_vec();
            seal(&mut bad, 0);
            match decode_snapshot(&bad) {
                Ok(decoded) => {
                    // A flip in the window or trained fields can
                    // legitimately decode; structure must survive.
                    assert_eq!(decoded.len(), 1, "flip at {i} changed object count");
                }
                Err(DecodeError::Invalid(msg)) if msg.contains("corrupt chunk") => sealed = true,
                Err(DecodeError::Invalid(msg)) if msg.contains("corrupt open chunk") => open = true,
                Err(_) => {}
            }
        });
        assert!(
            sealed && open,
            "typed refusals: sealed {sealed}, open {open}"
        );
    }

    /// The bytes of one object are its fields in the order the grammar
    /// above lists them.
    #[test]
    fn layout_follows_the_grammar() {
        let o = ObjectSnapshot {
            id: 9,
            start: 5,
            history: parts(9, 1.0),
            trained_subs: 1,
            model: Some(vec![0xAB]),
        };
        let h = &o.history;
        assert_eq!(
            (h.chunks.len(), h.open.samples(), h.window.len()),
            (0, 4, 5)
        );
        let mut want = begin_sealed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0);
        for v in [1, 9, 5] {
            put_varint(&mut want, v);
        }
        want.extend([HISTORY_CHUNKED, 0]);
        put_varint(&mut want, 4);
        put_varint(&mut want, h.open.bits());
        put_varint(&mut want, h.open.words().len() as u64);
        h.open.words().iter().for_each(|&w| put_u64(&mut want, w));
        put_varint(&mut want, 5);
        h.window.iter().for_each(|p| put_point(&mut want, p));
        want.extend([1, 1, 1, 0xAB]); // trained_subs, flag, length, blob
        seal(&mut want, 0);
        assert_eq!(encode_snapshot(&[o]), want);
    }

    #[test]
    fn model_flags_other_than_0_or_1_are_refused() {
        let o = ObjectSnapshot {
            id: 3,
            start: 0,
            history: parts(1, 1.0),
            trained_subs: 0,
            model: None,
        };
        // An object without a model ends the payload with its flag.
        let blob = encode_snapshot(&[o]);
        let flag = blob.len() - 9;
        assert_eq!(blob[flag], 0);
        for other in [2, 255] {
            let mut bad = blob[..blob.len() - 8].to_vec();
            bad[flag] = other;
            seal(&mut bad, 0);
            assert!(
                matches!(decode_snapshot(&bad), Err(DecodeError::Invalid(m)) if m.contains("model flag")),
                "flag {other} accepted"
            );
        }
    }

    #[test]
    fn other_versions_rejected() {
        for version in [1, 2, 4] {
            let mut blob = begin_sealed(SNAPSHOT_MAGIC, version, 0);
            put_varint(&mut blob, 0);
            seal(&mut blob, 0);
            assert_eq!(
                decode_snapshot(&blob),
                Err(DecodeError::UnsupportedVersion(version))
            );
        }
    }
}
