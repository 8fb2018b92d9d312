//! Encoding and decoding of the (regions, patterns) model pair: a
//! sealed container ([`crate::wire`]) whose body is laid out in
//! [`crate::format`]. Files are written through
//! [`crate::write_atomic`], so a failed `save_model` over an existing
//! model leaves the old one intact.

use crate::format::{MAGIC, MAX_PERIOD, VERSION};
use crate::wire::{
    begin_sealed, get_bbox, get_f64, get_point, get_seq, get_varint, open_sealed, put_bbox,
    put_f64, put_point, put_varint, seal,
};
use crate::DecodeError;
use hpm_patterns::{FrequentRegion, PatternTable, RegionId, RegionSet, TrajectoryPattern};
use hpm_trajectory::TimeOffset;
use std::path::Path;

/// A decoded model: everything needed to assemble a
/// `HybridPredictor` via `HybridPredictor::from_parts`.
#[derive(Debug, Clone)]
pub struct StoredModel {
    /// The frequent regions.
    pub regions: RegionSet,
    /// The mined trajectory patterns.
    pub patterns: PatternTable,
}

/// Encodes a model into the version-1 binary format.
pub fn encode_model(regions: &RegionSet, patterns: &PatternTable) -> Vec<u8> {
    let _span = hpm_obs::span!(crate::metrics::ENCODE_SPAN);
    // Rough pre-size: fixed 48 B per region, ~12 B per pattern.
    let mut buf = begin_sealed(
        MAGIC,
        VERSION,
        16 + regions.len() * 56 + patterns.len() * 16,
    );
    put_varint(&mut buf, u64::from(regions.period()));
    put_varint(&mut buf, regions.len() as u64);
    for r in regions.all() {
        put_varint(&mut buf, u64::from(r.offset));
        put_varint(&mut buf, u64::from(r.local_index));
        put_varint(&mut buf, u64::from(r.support));
        put_point(&mut buf, &r.centroid);
        put_bbox(&mut buf, &r.bbox);
    }

    put_varint(&mut buf, patterns.len() as u64);
    for p in 0..patterns.len() {
        let premise = patterns.premise(p);
        put_varint(&mut buf, premise.len() as u64);
        let mut prev = 0u64;
        for (i, id) in premise.iter().enumerate() {
            let raw = u64::from(id.0);
            if i == 0 {
                put_varint(&mut buf, raw);
            } else {
                put_varint(&mut buf, raw - prev);
            }
            prev = raw;
        }
        put_varint(&mut buf, u64::from(patterns.consequence(p).0));
        put_f64(&mut buf, patterns.confidence(p));
        put_varint(&mut buf, u64::from(patterns.support(p)));
    }

    seal(&mut buf, 0);
    hpm_obs::counter!(crate::metrics::BYTES_WRITTEN).add(buf.len() as u64);
    buf
}

/// Decodes a model blob, verifying magic, version, checksum, and all
/// structural invariants (each pattern is validated against the
/// decoded region set).
pub fn decode_model(bytes: &[u8]) -> Result<StoredModel, DecodeError> {
    let _span = hpm_obs::span!(crate::metrics::DECODE_SPAN);
    hpm_obs::counter!(crate::metrics::BYTES_READ).add(bytes.len() as u64);
    let result = decode_model_inner(bytes);
    if result.is_err() {
        hpm_obs::counter!(crate::metrics::DECODE_ERRORS).add(1);
    }
    result
}

fn decode_model_inner(bytes: &[u8]) -> Result<StoredModel, DecodeError> {
    let (version, mut buf) = open_sealed(bytes, MAGIC)?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }

    let period = u32::try_from(get_varint(&mut buf)?)
        .ok()
        .filter(|period| (1..=MAX_PERIOD).contains(period))
        .ok_or_else(|| DecodeError::Invalid(format!("period must be in 1..={MAX_PERIOD}")))?;
    // A region is at least 51 bytes: three one-byte varints, six f64.
    let mut next_id = 0u32;
    let regions = get_seq(&mut buf, 51, |buf| {
        let id = next_id;
        next_id += 1;
        let offset: TimeOffset = get_u32(buf, "region offset")?;
        let local_index = get_u32(buf, "region local index")?;
        let support = get_u32(buf, "region support")?;
        let centroid = get_point(buf)?;
        let bbox = get_bbox(buf)?;
        if offset >= period {
            return Err(DecodeError::Invalid(format!(
                "region {id}: offset {offset} >= period {period}"
            )));
        }
        if !(centroid.is_finite() && bbox.min.is_finite() && bbox.max.is_finite()) {
            return Err(DecodeError::Invalid(format!(
                "region {id}: non-finite geometry"
            )));
        }
        if bbox.min.x > bbox.max.x || bbox.min.y > bbox.max.y {
            return Err(DecodeError::Invalid(format!(
                "region {id}: inverted bounding box"
            )));
        }
        Ok(FrequentRegion {
            id: RegionId(id),
            offset,
            local_index,
            centroid,
            bbox,
            support,
        })
    })?;
    // RegionSet::new enforces the id/offset ordering invariants; map
    // its panic into a decode error via a pre-check.
    for w in regions.windows(2) {
        if w[1].offset < w[0].offset {
            return Err(DecodeError::Invalid(
                "regions not sorted by time offset".into(),
            ));
        }
    }
    let regions = RegionSet::new(regions, period);

    // A valid pattern is at least 12 bytes: the premise length, one
    // premise id, the consequence, the confidence f64 and the support.
    let mut next_index = 0usize;
    let patterns = get_seq(&mut buf, 12, |buf| {
        let i = next_index;
        next_index += 1;
        // A premise id is at least one varint byte: the first id, then
        // each one's gap from the previous.
        let mut prev = 0u32;
        let premise = get_seq(buf, 1, |buf| {
            let id = prev.checked_add(get_u32(buf, "premise id")?);
            prev = id.ok_or_else(|| {
                DecodeError::Invalid(format!("pattern {i}: premise id overflows u32"))
            })?;
            Ok(RegionId(prev))
        })?;
        let consequence = RegionId(get_u32(buf, "consequence id")?);
        let confidence = get_f64(buf)?;
        let support = get_u32(buf, "pattern support")?;
        let pattern = TrajectoryPattern {
            premise,
            consequence,
            confidence,
            support,
        };
        pattern
            .validate(&regions)
            .map_err(|e| DecodeError::Invalid(format!("pattern {i}: {e}")))?;
        Ok(pattern)
    })?;

    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes(buf.len()));
    }
    Ok(StoredModel {
        regions,
        patterns: patterns.into(),
    })
}

/// Reads a varint into a `u32` field: a wider one is refused, never
/// truncated into a smaller value.
fn get_u32(buf: &mut &[u8], field: &str) -> Result<u32, DecodeError> {
    u32::try_from(get_varint(buf)?)
        .map_err(|_| DecodeError::Invalid(format!("{field} overflows u32")))
}

/// Encodes a model and atomically replaces the file at `path` with it.
pub fn save_model(
    path: impl AsRef<Path>,
    regions: &RegionSet,
    patterns: &PatternTable,
) -> std::io::Result<()> {
    let _span = hpm_obs::span!(crate::metrics::SAVE_SPAN);
    crate::write_atomic(path.as_ref(), &encode_model(regions, patterns))
}

/// Reads and decodes a model file.
pub fn load_model(path: impl AsRef<Path>) -> std::io::Result<Result<StoredModel, DecodeError>> {
    let _span = hpm_obs::span!(crate::metrics::LOAD_SPAN);
    Ok(decode_model(&std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_geo::{BoundingBox, Point};

    fn sample() -> (RegionSet, PatternTable) {
        let mk = |id: u32, offset: TimeOffset, j: u32, cx: f64| {
            let c = Point::new(cx, cx * 0.5);
            FrequentRegion {
                id: RegionId(id),
                offset,
                local_index: j,
                centroid: c,
                bbox: BoundingBox {
                    min: c - Point::new(2.0, 2.0),
                    max: c + Point::new(2.0, 2.0),
                },
                support: 10 + id,
            }
        };
        let regions = RegionSet::new(
            vec![
                mk(0, 0, 0, 0.0),
                mk(1, 1, 0, 10.0),
                mk(2, 1, 1, 20.0),
                mk(3, 2, 0, 30.0),
            ],
            3,
        );
        let patterns = vec![
            TrajectoryPattern {
                premise: vec![RegionId(0)],
                consequence: RegionId(1),
                confidence: 0.9,
                support: 9,
            },
            TrajectoryPattern {
                premise: vec![RegionId(0), RegionId(2)],
                consequence: RegionId(3),
                confidence: 0.45,
                support: 5,
            },
        ];
        (regions, patterns.into())
    }

    /// Replaces a tampered blob's trailer with a fresh checksum.
    fn reseal(blob: &mut Vec<u8>) {
        blob.truncate(blob.len() - 8);
        seal(blob, 0);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (regions, patterns) = sample();
        let blob = encode_model(&regions, &patterns);
        let model = decode_model(&blob).unwrap();
        assert_eq!(model.regions.period(), 3);
        assert_eq!(model.regions.len(), regions.len());
        for (a, b) in regions.all().iter().zip(model.regions.all()) {
            assert_eq!(a, b);
        }
        assert_eq!(model.patterns, patterns);
    }

    #[test]
    fn empty_model_roundtrips() {
        let regions = RegionSet::new(Vec::new(), 5);
        let blob = encode_model(&regions, &PatternTable::default());
        let model = decode_model(&blob).unwrap();
        assert_eq!(model.regions.len(), 0);
        assert_eq!(model.regions.period(), 5);
        assert!(model.patterns.is_empty());
    }

    #[test]
    fn bitflip_detected_by_checksum() {
        let (regions, patterns) = sample();
        let blob = encode_model(&regions, &patterns);
        hpm_check::mutate::every_bit_flip(&blob, |i, bad| {
            assert!(
                decode_model(bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        });
    }

    #[test]
    fn truncation_detected() {
        let (regions, patterns) = sample();
        let blob = encode_model(&regions, &patterns);
        hpm_check::mutate::every_cut(&blob, |cut, prefix| {
            assert!(decode_model(prefix).is_err(), "cut at {cut}");
        });
    }

    #[test]
    fn bad_magic_rejected() {
        let (regions, patterns) = sample();
        let mut blob = encode_model(&regions, &patterns);
        blob[0] = b'X';
        // Fix up the checksum so the magic check itself is exercised.
        reseal(&mut blob);
        assert!(matches!(decode_model(&blob), Err(DecodeError::BadMagic)));
    }

    #[test]
    fn wrong_version_rejected() {
        let (regions, patterns) = sample();
        let mut blob = encode_model(&regions, &patterns);
        blob[8] = 2; // version varint
        reseal(&mut blob);
        assert!(matches!(
            decode_model(&blob),
            Err(DecodeError::UnsupportedVersion(2))
        ));
    }

    /// A period is a size — the region table holds one slot per offset
    /// — and a valid checksum proves nothing about who wrote the file:
    /// an absurd one is refused before anything is sized by it, and one
    /// past `u32` is refused, not wrapped into a small one.
    #[test]
    fn absurd_period_is_invalid_not_an_allocation() {
        for period in [
            u64::from(u32::MAX),
            (1 << 32) + 5,
            u64::from(MAX_PERIOD) + 1,
            0,
        ] {
            let mut blob = MAGIC.to_vec();
            put_varint(&mut blob, u64::from(VERSION));
            put_varint(&mut blob, period);
            put_varint(&mut blob, 0); // regions
            put_varint(&mut blob, 0); // patterns
            seal(&mut blob, 0);
            assert!(
                matches!(decode_model(&blob), Err(DecodeError::Invalid(_))),
                "period {period}"
            );
        }
        let widest = RegionSet::new(Vec::new(), MAX_PERIOD);
        let blob = encode_model(&widest, &PatternTable::default());
        assert_eq!(decode_model(&blob).unwrap().regions.period(), MAX_PERIOD);
    }

    #[test]
    fn invalid_regions_are_refused() {
        let (regions, patterns) = sample();
        let blob = encode_model(&regions, &patterns);
        // Magic, version, period and region count (one byte each
        // here), then 51 bytes a region: three one-byte varints, the
        // centroid, the box's min and max corners.
        let region = |r: usize| 8 + 3 + 51 * r;
        assert_eq!(blob[region(3)], 2, "region 3's offset");
        let tampered = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = blob.clone();
            edit(&mut bad);
            reseal(&mut bad);
            decode_model(&bad)
        };
        // The last region's offset raised to the period.
        let at_period = tampered(&|b| b[region(3)] = 3);
        assert!(
            matches!(&at_period, Err(DecodeError::Invalid(m)) if m.contains("offset")),
            "{at_period:?}"
        );
        // The first region's box inverted on x, then on y.
        for axis in 0..2 {
            let min = region(0) + 3 + 16 + 8 * axis;
            let inverted = tampered(&|b| (min..min + 8).for_each(|i| b.swap(i, i + 16)));
            assert!(
                matches!(&inverted, Err(DecodeError::Invalid(m)) if m.contains("inverted")),
                "axis {axis}: {inverted:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (regions, patterns) = sample();
        let mut blob = encode_model(&regions, &patterns);
        let trailer_at = blob.len() - 8;
        blob.insert(trailer_at, 0); // junk byte inside the payload
        reseal(&mut blob);
        assert!(matches!(
            decode_model(&blob),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn save_replaces_the_file_atomically() {
        let (regions, patterns) = sample();
        let dir = std::env::temp_dir().join(format!("hpm-store-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.hpm");
        save_model(&path, &regions, &patterns).unwrap();
        assert_eq!(load_model(&path).unwrap().unwrap().patterns, patterns);
        // Nothing but the model is left behind — no `*.tmp`.
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["model.hpm"]);

        // A write that fails (its tmp path is occupied by a directory)
        // returns the error and leaves the old model byte-identical.
        let old = std::fs::read(&path).unwrap();
        std::fs::create_dir(dir.join("model.tmp")).unwrap();
        assert!(save_model(&path, &regions, &PatternTable::default()).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), old);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_coding_is_compact() {
        // Premise ids 100, 101, 102: the two deltas are single bytes.
        let mk = |id: u32, offset: TimeOffset| FrequentRegion {
            id: RegionId(id),
            offset,
            local_index: 0,
            centroid: Point::ORIGIN,
            bbox: BoundingBox::from_point(Point::ORIGIN),
            support: 5,
        };
        let regions = RegionSet::new((0..200u32).map(|i| mk(i, i)).collect(), 200);
        let wide = TrajectoryPattern {
            premise: vec![RegionId(100), RegionId(101), RegionId(102)],
            consequence: RegionId(103),
            confidence: 0.5,
            support: 5,
        };
        let blob = encode_model(&regions, &std::slice::from_ref(&wide).into());
        let model = decode_model(&blob).unwrap();
        assert_eq!(model.patterns.get(0), wide);
    }
}
