//! Store-snapshot codec: the full per-object state of a moving-objects
//! store at a point in time, with compressed history chunks written
//! verbatim. Version 2 is the only version read: a version-1 file (raw
//! samples only) is refused as [`DecodeError::UnsupportedVersion`],
//! never misread.
//!
//! ```text
//! header   magic  b"HPMSNAP1"                8 bytes
//!          version varint                    2
//! payload  object_count varint
//!          objects: per object, ids strictly ascending —
//!              id            varint
//!              start         varint          (first sample timestamp)
//!              history                       (see below)
//!              trained_subs  varint          (0 = untrained)
//!              reserved      varint          (written 0; read and
//!                                             discarded — older files
//!                                             hold trained_len here,
//!                                             the samples their last
//!                                             retrain covered)
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
//!          per chunk —
//!              samples    varint             (≥ 1)
//!              bits       varint             (valid bits in stream)
//!              word_count varint             (must equal ⌈bits/64⌉)
//!              words      u64 LE × word_count (verbatim — never
//!                                             recompressed)
//!          tail_count    varint, then f64 x, f64 y each
//! ```
//!
//! Chunk payloads are the sealed `hpm_trajectory::SealedChunk` bit
//! streams written word-for-word: snapshotting a compressed store is a
//! memcpy per chunk, not a decompress/recompress cycle. On decode each
//! chunk is revalidated by [`SealedChunk::from_raw_parts`] — the full
//! stream must decode to exactly the declared sample count with clean
//! padding — so a corrupt chunk that somehow survived the whole-file
//! checksum still refuses to open with a typed error instead of
//! yielding garbage points.
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
use hpm_trajectory::SealedChunk;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HPMSNAP1";

/// The snapshot format version, the only one written or read.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The history kind byte: sealed chunks plus a raw tail.
const HISTORY_CHUNKED: u8 = 1;

/// An object's serialized position history: its sealed compressed
/// chunks (oldest first) followed by every later sample, raw.
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySnapshot {
    /// Compressed runs, written/read verbatim.
    pub chunks: Vec<SealedChunk>,
    /// The samples after the last chunk, uncompressed
    /// (`ChunkedHistory::unsealed`).
    pub tail: Vec<Point>,
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
    /// Every sample, chunk-compressed then raw.
    pub history: HistorySnapshot,
    /// Full periods the predictor was trained on (0 = untrained).
    pub trained_subs: u64,
    /// The trained model, encoded with the model codec.
    pub model: Option<Vec<u8>>,
}

/// Encodes a snapshot of every given object, which the caller lists in
/// ascending id order (the decoder refuses any other). Chunks are
/// written verbatim — no recompression.
pub fn encode_snapshot(objects: &[ObjectSnapshot]) -> Vec<u8> {
    let mut buf = begin_sealed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 64 + objects.len() * 64);
    put_varint(&mut buf, objects.len() as u64);
    for o in objects {
        put_varint(&mut buf, o.id);
        put_varint(&mut buf, o.start);
        buf.push(HISTORY_CHUNKED);
        put_varint(&mut buf, o.history.chunks.len() as u64);
        for c in &o.history.chunks {
            put_varint(&mut buf, c.samples() as u64);
            put_varint(&mut buf, c.bits());
            put_varint(&mut buf, c.words().len() as u64);
            for &w in c.words() {
                put_u64(&mut buf, w);
            }
        }
        put_varint(&mut buf, o.history.tail.len() as u64);
        for p in &o.history.tail {
            put_point(&mut buf, p);
        }
        put_varint(&mut buf, o.trained_subs);
        put_varint(&mut buf, 0); // reserved (see the layout above)
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
        let samples = get_varint(buf)?;
        let bits = get_varint(buf)?;
        let words = get_seq(buf, 8, get_u64)?;
        let samples = u32::try_from(samples).map_err(|_| DecodeError::CountOutOfRange {
            got: samples,
            limit: u64::from(u32::MAX),
        })?;
        SealedChunk::from_raw_parts(samples, bits, words)
            .map_err(|e| DecodeError::Invalid(format!("object {id}: corrupt chunk: {e}")))
    })?;
    let tail = get_seq(buf, 16, get_point)?;
    Ok(HistorySnapshot { chunks, tail })
}

/// Decodes a snapshot, validating the trailer checksum first and every
/// structural bound after — including ascending object ids and a full
/// decode validation of every compressed chunk. Nested model blobs are
/// *not* decoded here — the caller hands them to `decode_model`, which
/// re-validates them.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<ObjectSnapshot>, DecodeError> {
    let (version, mut buf) = open_sealed(bytes, SNAPSHOT_MAGIC)?;
    let buf = &mut buf;
    if version != SNAPSHOT_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    // An object is at least 8 bytes: six one-byte varints and two u8.
    let mut prev: Option<u64> = None;
    let objects = get_seq(buf, 8, |buf| {
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
        let chunked: usize = history.chunks.iter().map(SealedChunk::samples).sum();
        let samples = (chunked + history.tail.len()) as u64;
        if start.checked_add(samples).is_none() {
            return Err(DecodeError::Invalid(format!(
                "object {id}: history ends past the last timestamp"
            )));
        }
        let trained_subs = get_varint(buf)?;
        get_varint(buf)?; // reserved (see the layout above)
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

    fn chunk(n: usize, seed: f64) -> SealedChunk {
        let points: Vec<Point> = (0..n)
            .map(|i| Point::new(seed + i as f64 * 0.25, seed - i as f64 * 0.5))
            .collect();
        SealedChunk::seal(&points)
    }

    fn history(chunks: Vec<SealedChunk>, tail: Vec<Point>) -> HistorySnapshot {
        HistorySnapshot { chunks, tail }
    }

    /// Objects in ascending id order, as the store writes them.
    fn sample() -> Vec<ObjectSnapshot> {
        vec![
            ObjectSnapshot {
                id: 7,
                start: 50,
                history: history(
                    vec![chunk(20, 1.0), chunk(8, -3.5)],
                    vec![Point::new(9.0, 9.5), Point::new(10.0, 10.5)],
                ),
                trained_subs: 2,
                model: None,
            },
            ObjectSnapshot {
                id: 42,
                start: 1000,
                history: history(
                    Vec::new(),
                    vec![
                        Point::new(0.0, 0.5),
                        Point::new(-1.25, 2.0),
                        Point::new(3.0, -0.0),
                    ],
                ),
                trained_subs: 1,
                model: Some(vec![1, 2, 3, 4]),
            },
            ObjectSnapshot {
                id: u64::MAX,
                start: 0,
                history: history(Vec::new(), Vec::new()),
                trained_subs: 0,
                model: None,
            },
        ]
    }

    #[test]
    fn roundtrips() {
        let objects = sample();
        let blob = encode_snapshot(&objects);
        assert_eq!(decode_snapshot(&blob).unwrap(), objects);
        assert_eq!(decode_snapshot(&encode_snapshot(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn chunks_round_trip_verbatim() {
        // The encoded words must come back identical — snapshotting is
        // a copy, never a recompress.
        let objects = sample();
        let decoded = decode_snapshot(&encode_snapshot(&objects)).unwrap();
        let (d, o) = (&decoded[0].history.chunks, &objects[0].history.chunks);
        assert_eq!(d.len(), o.len());
        for (dc, oc) in d.iter().zip(o) {
            assert_eq!(dc.bits(), oc.bits());
            assert_eq!(dc.words(), oc.words());
        }
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
    fn corrupt_chunk_refused_with_typed_error() {
        // Re-seal the checksum after flipping a packed word so only the
        // chunk-level validation can catch it.
        let objects = vec![ObjectSnapshot {
            id: 3,
            start: 0,
            history: history(vec![chunk(30, 2.0)], vec![Point::new(1.0, 1.0)]),
            trained_subs: 0,
            model: None,
        }];
        let blob = encode_snapshot(&objects);
        // Flip every bit past the 14-byte header in turn (re-sealing the
        // checksum each time so only structural validation can object)
        // and require at least one flip — landing in the packed words,
        // which dominate this blob — to surface the typed corrupt-chunk
        // Invalid.
        let payload_len = blob.len() - 8;
        let mut saw_chunk_invalid = false;
        hpm_check::mutate::every_bit_flip(&blob[..payload_len], |i, flipped| {
            if i < 14 {
                return;
            }
            let mut bad = flipped.to_vec();
            seal(&mut bad, 0);
            match decode_snapshot(&bad) {
                Ok(decoded) => {
                    // A flip in the raw tail or trained fields can
                    // legitimately decode; structure must survive.
                    assert_eq!(decoded.len(), 1, "flip at {i} changed object count");
                }
                Err(DecodeError::Invalid(msg)) if msg.contains("corrupt chunk") => {
                    saw_chunk_invalid = true;
                }
                Err(_) => {}
            }
        });
        assert!(
            saw_chunk_invalid,
            "no flip produced a typed corrupt-chunk error"
        );
    }

    #[test]
    fn reserved_slot_is_written_zero_and_read_blind() {
        // An older file's slot holds a sample count; it may be any
        // varint, of any width, and decodes to the same object.
        let points = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let o = ObjectSnapshot {
            id: 9,
            start: 5,
            history: history(Vec::new(), points.clone()),
            trained_subs: 1,
            model: None,
        };
        let with_slot = |slot: u64| {
            let mut buf = begin_sealed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0);
            put_varint(&mut buf, 1);
            put_varint(&mut buf, o.id);
            put_varint(&mut buf, o.start);
            buf.push(HISTORY_CHUNKED);
            put_varint(&mut buf, 0);
            put_varint(&mut buf, points.len() as u64);
            points.iter().for_each(|p| put_point(&mut buf, p));
            put_varint(&mut buf, o.trained_subs);
            put_varint(&mut buf, slot);
            buf.push(0);
            seal(&mut buf, 0);
            buf
        };
        for slot in [0, 2, 300, u64::MAX] {
            assert_eq!(
                decode_snapshot(&with_slot(slot)).unwrap(),
                std::slice::from_ref(&o)
            );
        }
        assert_eq!(encode_snapshot(std::slice::from_ref(&o)), with_slot(0));
    }

    #[test]
    fn model_flags_other_than_0_or_1_are_refused() {
        let o = ObjectSnapshot {
            id: 3,
            start: 0,
            history: history(Vec::new(), vec![Point::new(1.0, 2.0)]),
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
        for version in [1, 3] {
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
