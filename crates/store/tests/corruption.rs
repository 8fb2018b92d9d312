//! Corruption resilience of the on-disk codecs: a damaged model or
//! snapshot blob must decode to a typed error — never a panic, never
//! a silently wrong model — and every failed decode must bump the
//! `store.model.decode_errors` counter so operators see bit rot. A
//! damaged WAL segment keeps exactly the whole frames before the
//! damage.

use hpm_check::mutate::{every_bit_flip, every_cut};
use hpm_check::prelude::*;
use hpm_geo::{BoundingBox, Point};
use hpm_patterns::{FrequentRegion, PatternTable, RegionId, RegionSet, TrajectoryPattern};
// `fnv1a` lets tests re-seal tampered payloads and exercise validation
// *past* the whole-file checksum.
use hpm_store::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use hpm_store::wal::{scan_wal, FsyncPolicy, WalOptions, WalRecord, WalWriter};
use hpm_store::wire::{fnv1a, put_f64, put_varint};
use hpm_store::{
    decode_model, decode_snapshot, encode_model, encode_snapshot, DecodeError, HistorySnapshot,
    ObjectSnapshot,
};
use hpm_trajectory::{ChunkParams, ChunkedHistory, SealedChunk};

/// A small real model (three offsets, two chained patterns).
fn model() -> (RegionSet, PatternTable) {
    let regions: Vec<FrequentRegion> = (0..3u32)
        .map(|t| {
            let c = Point::new(t as f64 * 50.0, 7.0);
            FrequentRegion {
                id: RegionId(t),
                offset: t,
                local_index: 0,
                centroid: c,
                bbox: BoundingBox {
                    min: c - Point::new(2.0, 2.0),
                    max: c + Point::new(2.0, 2.0),
                },
                support: 5,
            }
        })
        .collect();
    let patterns = vec![
        TrajectoryPattern {
            premise: vec![RegionId(0)],
            consequence: RegionId(1),
            confidence: 0.8,
            support: 5,
        },
        TrajectoryPattern {
            premise: vec![RegionId(0), RegionId(1)],
            consequence: RegionId(2),
            confidence: 0.6,
            support: 4,
        },
    ];
    (RegionSet::new(regions, 3), patterns.into())
}

/// A sealed chunk over a deterministic smooth walk.
fn walk_chunk(n: usize, seed: f64) -> SealedChunk {
    let points: Vec<Point> = (0..n)
        .map(|i| Point::new(seed + i as f64 * 0.75, seed * 0.5 - i as f64 * 0.25))
        .collect();
    SealedChunk::seal(&points)
}

/// Sealed chunks, an empty open chunk, then `window`.
fn history(chunks: Vec<SealedChunk>, window: Vec<Point>) -> HistorySnapshot {
    HistorySnapshot {
        chunks,
        open: Default::default(),
        window,
    }
}

/// The parts of a history of `n` walk samples, 24 to a chunk.
fn walk_history(n: usize, seed: f64) -> HistorySnapshot {
    let params = ChunkParams {
        seal_len: 24,
        min_tail: 2,
    };
    let mut h = ChunkedHistory::new(0, params);
    walk_chunk(n, seed).decoder().for_each(|p| h.push(p));
    HistorySnapshot::of(&h)
}

fn snapshot_objects() -> Vec<ObjectSnapshot> {
    let (regions, patterns) = model();
    vec![
        ObjectSnapshot {
            id: 1,
            start: 0,
            history: history(
                Vec::new(),
                (0..9).map(|t| Point::new(t as f64 * 10.0, 1.0)).collect(),
            ),
            trained_subs: 3,
            model: Some(encode_model(&regions, &patterns)),
        },
        ObjectSnapshot {
            id: 17,
            start: 30,
            history: walk_history(60, 4.0),
            trained_subs: 1,
            model: None,
        },
        ObjectSnapshot {
            id: 44,
            start: 120,
            history: history(Vec::new(), vec![Point::new(3.5, -1.25)]),
            trained_subs: 0,
            model: None,
        },
    ]
}

props! {
    /// Trailing garbage after a valid model blob is detected (the
    /// checksum trailer must be the last eight bytes).
    fn model_trailing_garbage_detected(extra in vec(int(0u8..=255), 1..40)) {
        let (regions, patterns) = model();
        let mut blob = encode_model(&regions, &patterns);
        blob.extend_from_slice(&extra);
        require!(decode_model(&blob).is_err(), "trailing garbage accepted");
    }

    /// decode_snapshot is total on arbitrary bytes: error, not panic.
    fn snapshot_decode_total_on_garbage(bytes in vec(int(0u8..=255), 0..600)) {
        let _ = decode_snapshot(&bytes);
    }
}

/// The committed version-1 snapshot (raw samples only, written before
/// histories were chunked) is refused by version — a well-sealed file
/// of another format version is never misread.
#[test]
fn committed_v1_fixture_is_refused() {
    let blob: &[u8] = include_bytes!("fixtures/snapshot_v1.bin");
    assert_eq!(
        decode_snapshot(blob),
        Err(DecodeError::UnsupportedVersion(1))
    );
}

/// The committed version-2 snapshot (everything after the sealed
/// chunks raw) is refused by version too.
#[test]
fn committed_v2_fixture_is_refused() {
    let blob: &[u8] = include_bytes!("fixtures/snapshot_v2.bin");
    assert_eq!(
        decode_snapshot(blob),
        Err(DecodeError::UnsupportedVersion(2))
    );
}

/// The committed v3 snapshot — cut from a live store (a trained
/// commuter, a three-sample newcomer, a 300-sample history with a
/// sealed chunk, a 60-sample history with an open chunk) — decodes,
/// and re-encoding what it decodes to gives the file back byte for
/// byte.
#[test]
fn committed_v3_fixture_reencodes_identically() {
    let golden: &[u8] = include_bytes!("fixtures/snapshot_v3.bin");
    let objects = decode_snapshot(golden).expect("committed v3 fixture must decode");
    let shape: Vec<_> = objects
        .iter()
        .map(|o| {
            let h = &o.history;
            let parts = (h.chunks.len(), h.open.samples(), h.window.len());
            (o.id, o.start, parts, o.trained_subs)
        })
        .collect();
    assert_eq!(
        shape,
        [
            (1, 0, (0, 0, 20), 5),
            (2, 100, (0, 0, 3), 0),
            (3, 6, (1, 0, 44), 75),
            (4, 500, (0, 32, 28), 15)
        ]
    );
    for o in &objects {
        let model = o.model.as_ref().map(|blob| decode_model(blob).unwrap());
        assert_eq!(model.is_some(), o.trained_subs > 0, "object {}", o.id);
    }
    assert_eq!(encode_snapshot(&objects), golden);
}

/// `payload` under a fresh whole-file checksum: corruption the trailer
/// cannot catch.
fn resealed(payload: &[u8]) -> Vec<u8> {
    let mut blob = payload.to_vec();
    blob.extend_from_slice(&fnv1a(payload).to_le_bytes());
    blob
}

/// A flipped bit inside a chunk's packed words that is re-sealed
/// with a fresh whole-file checksum (simulating corruption the trailer
/// cannot catch) must refuse to open with the typed corrupt-chunk
/// error — and no flip anywhere in the payload may panic or change the
/// object count.
#[test]
fn corrupt_chunk_refuses_to_open() {
    let objects = vec![ObjectSnapshot {
        id: 5,
        start: 10,
        history: history(vec![walk_chunk(64, 1.0)], Vec::new()),
        trained_subs: 0,
        model: None,
    }];
    let blob = encode_snapshot(&objects);
    let payload = &blob[..blob.len() - 8];
    let mut typed_refusals = 0usize;
    every_bit_flip(payload, |i, flipped| {
        if i < 14 {
            return; // the header: magic, version, object count
        }
        match decode_snapshot(&resealed(flipped)) {
            Ok(decoded) => assert_eq!(decoded.len(), 1, "flip at {i} changed object count"),
            Err(DecodeError::Invalid(msg)) if msg.contains("corrupt chunk") => {
                typed_refusals += 1;
            }
            Err(_) => {}
        }
    });
    assert!(
        typed_refusals > 0,
        "no packed-word flip produced the typed corrupt-chunk error"
    );
}

/// History kind 0 (every sample raw) was never written by a store: a
/// well-sealed blob holding one is refused, not decoded.
#[test]
fn raw_history_kind_is_refused() {
    let mut payload = SNAPSHOT_MAGIC.to_vec();
    put_varint(&mut payload, u64::from(SNAPSHOT_VERSION));
    put_varint(&mut payload, 1); // objects
    put_varint(&mut payload, 5); // id
    put_varint(&mut payload, 0); // start
    payload.push(0); // history kind 0, then one raw sample
    put_varint(&mut payload, 1);
    put_f64(&mut payload, 1.5);
    put_f64(&mut payload, -2.0);
    put_varint(&mut payload, 0); // trained_subs
    payload.push(0); // no model
    assert!(matches!(
        decode_snapshot(&resealed(&payload)),
        Err(DecodeError::Invalid(msg)) if msg.contains("history kind 0")
    ));
}

/// Object ids strictly ascend — the one writer sorts them — so a
/// well-sealed blob that repeats or reverses one is refused: restoring
/// it would silently replace the first object.
#[test]
fn repeated_or_descending_object_ids_are_refused() {
    for ids in [[17, 17], [17, 1]] {
        let mut objects = snapshot_objects();
        objects.truncate(2);
        objects[0].id = ids[0];
        objects[1].id = ids[1];
        let blob = encode_snapshot(&objects);
        assert!(
            matches!(decode_snapshot(&blob), Err(DecodeError::Invalid(msg)) if msg.contains("ascend")),
            "ids {ids:?}"
        );
    }
}

/// A nested model blob is only as trustworthy as its own decoder: 24
/// well-sealed bytes announcing a period of `u32::MAX` ride through
/// the snapshot codec untouched (it does not look inside) and must then
/// be refused by `decode_model` — not sized by.
#[test]
fn absurd_period_nested_in_a_snapshot_is_refused() {
    let mut payload = hpm_store::format::MAGIC.to_vec();
    put_varint(&mut payload, u64::from(hpm_store::format::VERSION));
    put_varint(&mut payload, u64::from(u32::MAX)); // period
    put_varint(&mut payload, 0); // regions
    put_varint(&mut payload, 0); // patterns
    let crafted = resealed(&payload);
    assert_eq!(crafted.len(), 24);
    assert!(matches!(
        decode_model(&crafted),
        Err(DecodeError::Invalid(_))
    ));

    let mut objects = snapshot_objects();
    objects[0].model = Some(crafted.clone());
    let restored = decode_snapshot(&encode_snapshot(&objects)).expect("snapshot itself is sound");
    assert_eq!(restored[0].model.as_deref(), Some(&crafted[..]));
    let nested = restored[0].model.as_deref().unwrap();
    assert!(matches!(decode_model(nested), Err(DecodeError::Invalid(_))));
}

/// A well-sealed blob of the format `magic` opens, whose body is the
/// varints `fields` then `zeros` zero bytes.
fn counted(magic: &[u8; 8], fields: &[u64], zeros: usize) -> Vec<u8> {
    let mut payload = magic.to_vec();
    fields.iter().for_each(|&v| put_varint(&mut payload, v));
    payload.resize(payload.len() + zeros, 0);
    resealed(&payload)
}

/// A valid checksum proves nothing about a count. 22 bytes claiming
/// 50,000,000 regions are refused before a slot is allocated, and in
/// both codecs a count one past the bytes behind it (over the fewest
/// bytes one of its items encodes to) is out of range.
#[test]
fn counts_are_bounded_by_the_bytes_behind_them() {
    use hpm_store::format::{MAGIC, VERSION};
    let out_of_range = |got, limit| DecodeError::CountOutOfRange { got, limit };
    let blob = counted(MAGIC, &[VERSION.into(), 1, 50_000_000], 0);
    assert_eq!(blob.len(), 22);
    assert_eq!(
        decode_model(&blob).unwrap_err(),
        out_of_range(50_000_000, 0)
    );

    let model = |fields: &[u64], zeros| {
        let fields = [&[VERSION.into(), 3], fields].concat();
        decode_model(&counted(MAGIC, &fields, zeros)).unwrap_err()
    };
    // Regions: 51 bytes each. Two zeroed ones decode, and then the
    // pattern count is missing.
    assert_eq!(model(&[3], 102), out_of_range(3, 2));
    assert_eq!(model(&[2], 102), DecodeError::Truncated);
    // Patterns: 12 bytes each. Premise ids: a byte each.
    assert_eq!(model(&[0, 3], 24), out_of_range(3, 2));
    assert_eq!(model(&[0, 1, 21], 20), out_of_range(21, 20));

    // One object (id 0, start 0, chunked history) is `[1, 0, 0, 1]`.
    let snapshot = |fields: &[u64], zeros| {
        let fields = [&[SNAPSHOT_VERSION.into()], fields].concat();
        decode_snapshot(&counted(SNAPSHOT_MAGIC, &fields, zeros)).unwrap_err()
    };
    // Objects: 10 bytes each.
    assert_eq!(snapshot(&[3], 20), out_of_range(3, 2));
    // Chunks: 11 bytes each.
    assert_eq!(snapshot(&[1, 0, 0, 1, 3], 22), out_of_range(3, 2));
    // One chunk of one sample in 64 bits, then its words: 8 bytes each.
    assert_eq!(snapshot(&[1, 0, 0, 1, 1, 1, 64, 3], 16), out_of_range(3, 2));
    // No chunks, an open chunk of one sample, then its words.
    assert_eq!(snapshot(&[1, 0, 0, 1, 0, 1, 64, 3], 16), out_of_range(3, 2));
    // No chunks, an empty open chunk, then window points: 16 bytes each.
    assert_eq!(
        snapshot(&[1, 0, 0, 1, 0, 0, 0, 0, 3], 32),
        out_of_range(3, 2)
    );
}

/// A varint wider than its `u32` field is refused, not truncated: a
/// region offset of 2^32 would otherwise decode as offset 0.
#[test]
fn varints_wider_than_their_field_are_refused() {
    use hpm_store::format::{MAGIC, VERSION};
    let wide = 1u64 << 32;
    // Period 3, one region (offset, local index, support, six zero
    // doubles), no patterns.
    for region in [[wide, 0, 1], [0, wide, 1], [0, 0, wide]] {
        let fields = [&[VERSION.into(), 3, 1], &region[..]].concat();
        assert!(
            matches!(
                decode_model(&counted(MAGIC, &fields, 49)),
                Err(DecodeError::Invalid(_))
            ),
            "region {region:?}"
        );
    }
    // The last pattern's support is the payload's last varint.
    let (regions, patterns) = model();
    let blob = encode_model(&regions, &patterns);
    let with_support = |support: u64| {
        let mut payload = blob[..blob.len() - 9].to_vec();
        put_varint(&mut payload, support);
        decode_model(&resealed(&payload))
    };
    let widest = with_support(u32::MAX.into()).expect("u32::MAX fits");
    assert_eq!(widest.patterns.support(1), u32::MAX);
    assert!(matches!(with_support(wide), Err(DecodeError::Invalid(_))));
}

/// A well-sealed snapshot whose open chunk's stream is damaged is
/// refused with the typed corrupt-open-chunk error, never a panic: set
/// padding, `bits` past the words it comes with, or a sample count the
/// stream does not hold (one more runs it dry, one fewer leaves bits
/// over).
#[test]
fn corrupt_open_chunk_streams_are_refused() {
    let open = walk_history(60, 4.0).open;
    let (samples, bits, words) = (open.samples() as u64, open.bits(), open.words().to_vec());
    let pad = words.len() as u64 * 64 - bits;
    assert!(samples > 0 && pad > 0, "the stream ends mid-word");
    let blob = |samples: u64, bits: u64, words: &[u64]| {
        let mut payload = SNAPSHOT_MAGIC.to_vec();
        for v in [SNAPSHOT_VERSION.into(), 1, 5, 0] {
            put_varint(&mut payload, v); // version, objects, id, start
        }
        payload.extend([1, 0]); // chunked history, no sealed chunks
        for v in [samples, bits, words.len() as u64] {
            put_varint(&mut payload, v);
        }
        words
            .iter()
            .for_each(|w| payload.extend_from_slice(&w.to_le_bytes()));
        payload.extend([0, 0, 0]); // no window, untrained, no model
        decode_snapshot(&resealed(&payload))
    };
    assert!(blob(samples, bits, &words).is_ok());
    let mut dirty = words.clone();
    *dirty.last_mut().unwrap() |= 1 << (pad - 1);
    for (what, got) in [
        ("dirty padding", blob(samples, bits, &dirty)),
        ("bits past the words", blob(samples, bits + pad + 1, &words)),
        ("a sample more", blob(samples + 1, bits, &words)),
        ("a sample fewer", blob(samples - 1, bits, &words)),
    ] {
        assert!(
            matches!(&got, Err(DecodeError::Invalid(msg)) if msg.contains("corrupt open chunk")),
            "{what}: {got:?}"
        );
    }
}

/// decode is total on re-sealed tampered payloads: any single-bit
/// corruption past the checksum errs or decodes — it never panics and
/// never invents objects.
#[test]
fn resealed_tamper_never_panics() {
    let blob = encode_snapshot(&snapshot_objects());
    every_bit_flip(&blob[..blob.len() - 8], |i, flipped| {
        if let Ok(decoded) = decode_snapshot(&resealed(flipped)) {
            assert!(
                decoded.len() <= snapshot_objects().len(),
                "tamper at byte {i} invented objects"
            );
        }
    });
}

/// Every failed model decode — truncated, bit-flipped, or pure
/// garbage — bumps `store.model.decode_errors`; successes do not.
#[test]
fn failed_decodes_bump_the_error_counter() {
    hpm_obs::enable();
    let counter = hpm_obs::registry().counter("store.model.decode_errors");
    let (regions, patterns) = model();
    let blob = encode_model(&regions, &patterns);

    let before = counter.value();
    assert!(decode_model(&blob).is_ok());
    assert_eq!(counter.value(), before, "a clean decode counted as error");

    let mut failures = 0u64;
    every_cut(&blob, |_, prefix| {
        assert!(decode_model(prefix).is_err());
        failures += 1;
    });
    every_bit_flip(&blob, |_, bad| {
        assert!(decode_model(bad).is_err());
        failures += 1;
    });
    assert!(decode_model(b"not a model at all").is_err());
    failures += 1;
    assert!(
        counter.value() >= before + failures,
        "decode_errors went {} -> {}, expected at least +{failures}",
        before,
        counter.value()
    );
}

/// A multi-frame v2 segment as a writer committing every five records
/// leaves it — interleaved runs of three objects, two removes — with
/// its records in log order: batch by batch, each batch in object
/// order (an object's own records in append order).
fn wal_segment() -> (Vec<u8>, Vec<WalRecord>) {
    let mut records = Vec::new();
    for t in 0..12u64 {
        for object in [3u64, 40, 41] {
            if object == 40 && t == 7 {
                records.push(WalRecord::Remove { object });
            }
            let w = (t * object) as f64;
            records.push(WalRecord::Report {
                object,
                timestamp: 100 + t,
                x: 2.5 + w * 0.125,
                y: -w,
            });
        }
    }
    records.push(WalRecord::Remove { object: 3 });
    let bytes = written(&records, "segment");
    for batch in records.chunks_mut(5) {
        batch.sort_by_key(|r| match *r {
            WalRecord::Report { object, .. } | WalRecord::Remove { object } => object,
        });
    }
    (bytes, records)
}

/// The bytes of a segment a writer committing every five records
/// leaves for `records` (`name` keeps concurrent tests apart).
fn written(records: &[WalRecord], name: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("hpm-corrupt-wal-{name}-{}", std::process::id()));
    let options = WalOptions {
        group_commit: 5,
        fsync: FsyncPolicy::Never,
    };
    let mut writer = WalWriter::create(&path, options).unwrap();
    for r in records {
        writer.append(r).unwrap();
    }
    writer.flush().unwrap();
    drop(writer);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// A history ends one past its last timestamp, so that end must fit: a
/// snapshot object whose `start + samples` passes `u64::MAX` is refused
/// (it used to open, and the first predict overflowed), and so is a WAL
/// run reaching `u64::MAX`; one sample fewer decodes.
#[test]
fn histories_ending_past_the_last_timestamp_are_refused() {
    let tail: Vec<Point> = (0..4).map(|i| Point::new(i as f64, 2.0)).collect();
    for (past, chunks) in [(false, 0), (false, 1), (true, 0), (true, 1)] {
        let history = history(vec![walk_chunk(24, 1.0); chunks], tail.clone());
        let start = u64::MAX - 4 - 24 * chunks as u64 + u64::from(past);
        let object = ObjectSnapshot {
            id: 9,
            start,
            history,
            trained_subs: 0,
            model: None,
        };
        let want = match past {
            true => Err(DecodeError::Invalid(
                "object 9: history ends past the last timestamp".into(),
            )),
            false => Ok(vec![object.clone()]),
        };
        assert_eq!(
            decode_snapshot(&encode_snapshot(&[object])),
            want,
            "start {start}"
        );
    }
    for (first, fits) in [(u64::MAX - 2, true), (u64::MAX - 1, false)] {
        let report = |timestamp| WalRecord::Report {
            object: 3,
            timestamp,
            x: 1.5,
            y: -2.0,
        };
        let records = [report(first), report(first + 1)];
        let scan = scan_wal(&written(&records, "last"));
        let past = DecodeError::Invalid("WAL run passes the last timestamp".into());
        assert_eq!(
            (scan.records.len(), scan.torn),
            if fits { (2, None) } else { (0, Some(past)) }
        );
    }
}

/// How many records survive damage at byte `at`: those of the whole
/// frames ending at or before it.
fn survivors(frame_ends: &[usize], at: usize) -> usize {
    frame_ends.iter().filter(|&&end| end <= at).count()
}

/// Cutting a v2 segment anywhere keeps exactly the records of the
/// whole frames before the cut.
#[test]
fn wal_truncation_keeps_the_whole_frames_before_the_cut() {
    let (bytes, records) = wal_segment();
    let clean = scan_wal(&bytes);
    assert_eq!(clean.records, records);
    let frames = {
        let mut ends = clean.offsets.clone();
        ends.dedup();
        ends
    };
    assert!(frames.len() > 5, "{} frames", frames.len());
    every_cut(&bytes, |cut, prefix| {
        let scan = scan_wal(prefix);
        let n = survivors(&clean.offsets, cut);
        assert_eq!(scan.records, records[..n], "cut at {cut}");
        let header = if cut < 8 { 0 } else { 8 };
        let valid = clean.offsets[..n].last().copied().unwrap_or(header);
        assert_eq!(scan.valid_len, valid, "cut at {cut}");
    });
}

/// Flipping any bit of a v2 segment keeps exactly the records of the
/// whole frames before the damaged one; a damaged header keeps none.
#[test]
fn wal_bit_flip_keeps_the_whole_frames_before_the_damage() {
    let (bytes, records) = wal_segment();
    let clean = scan_wal(&bytes);
    every_bit_flip(&bytes, |i, bad| {
        let scan = scan_wal(bad);
        let n = if i < 8 {
            0
        } else {
            survivors(&clean.offsets, i)
        };
        assert_eq!(scan.records, records[..n], "flip in byte {i}");
        assert!(scan.torn.is_some(), "flip in byte {i} went unnoticed");
    });
}
