//! The one byte layer every format in the workspace is built on —
//! model files, snapshot files, WAL frames and the server's wire
//! frames: LEB128 varints, little-endian IEEE-754 doubles, FNV-1a
//! checksums, and the sealed container (magic, version varint, body,
//! checksum trailer) model and snapshot files share. Encoders append
//! to a `Vec<u8>`; decoders consume a shrinking `&[u8]` and turn every
//! short read into [`DecodeError::Truncated`], never a panic.
//!
//! Every count a decoder reads is sized by one rule, [`get_len`]: a
//! count of items that each encode to at least `k` bytes may not exceed
//! the bytes left after it divided by `k`. So decoding `n` untrusted
//! bytes allocates at most `a·n + b`, whatever a well-sealed file or
//! frame claims; the only caps left ([`crate::format::MAX_PERIOD`] and
//! the WAL and wire frame caps) bound things that are not sequences.

use crate::DecodeError;
use hpm_geo::{BoundingBox, Point};

/// Writes an unsigned LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads an unsigned LEB128 varint (max 10 bytes), advancing the
/// slice.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = get_u8(buf)?;
        if shift == 63 && byte > 1 {
            break;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError::VarintOverflow)
}

/// Splits the next `n` bytes off the slice; a short input is
/// [`DecodeError::Truncated`].
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Reads one byte (a tag or flag).
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    Ok(take(buf, 1)?[0])
}

/// Writes an `f64` as little-endian bits.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads an `f64`, advancing the slice; rejects truncation only (bit
/// patterns are the caller's semantic concern).
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, DecodeError> {
    get_u64(buf).map(f64::from_bits)
}

/// Writes a `u64` little-endian (fixed 8 bytes — used for packed chunk
/// words, which are high-entropy and gain nothing from varints).
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u64`; rejects truncation.
pub(crate) fn get_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let bytes = take(buf, 8)?.try_into().expect("took 8 bytes");
    Ok(u64::from_le_bytes(bytes))
}

/// Writes a point as two `f64`s, x then y.
pub fn put_point(buf: &mut Vec<u8>, p: &Point) {
    put_f64(buf, p.x);
    put_f64(buf, p.y);
}

/// Reads a point [`put_point`] wrote.
pub fn get_point(buf: &mut &[u8]) -> Result<Point, DecodeError> {
    Ok(Point::new(get_f64(buf)?, get_f64(buf)?))
}

/// Writes a bounding box as its min then max corner.
pub fn put_bbox(buf: &mut Vec<u8>, b: &BoundingBox) {
    put_point(buf, &b.min);
    put_point(buf, &b.max);
}

/// Reads a bounding box [`put_bbox`] wrote (corner order unchecked).
pub fn get_bbox(buf: &mut &[u8]) -> Result<BoundingBox, DecodeError> {
    Ok(BoundingBox {
        min: get_point(buf)?,
        max: get_point(buf)?,
    })
}

/// Reads a count against a fixed cap — for the frame lengths the
/// writers obey too, not for sequences (those use [`get_len`]).
pub fn get_count(buf: &mut &[u8], limit: usize) -> Result<usize, DecodeError> {
    bounded(get_varint(buf)?, limit)
}

/// Reads the count of a sequence whose items each encode to at least
/// `min_item_bytes` (read off the format grammar): it may not exceed
/// the bytes left after the count's own varint divided by that floor,
/// else [`DecodeError::CountOutOfRange`].
pub fn get_len(buf: &mut &[u8], min_item_bytes: usize) -> Result<usize, DecodeError> {
    let n = get_varint(buf)?;
    bounded(n, buf.len() / min_item_bytes.max(1))
}

/// A counted sequence: the count is bounded by [`get_len`], exactly
/// that many slots are allocated, then `item` decodes each in order.
pub fn get_seq<T>(
    buf: &mut &[u8],
    min_item_bytes: usize,
    mut item: impl FnMut(&mut &[u8]) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let n = get_len(buf, min_item_bytes)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(item(buf)?);
    }
    Ok(items)
}

fn bounded(got: u64, limit: usize) -> Result<usize, DecodeError> {
    if got > limit as u64 {
        return Err(DecodeError::CountOutOfRange {
            got,
            limit: limit as u64,
        });
    }
    Ok(got as usize)
}

/// FNV-1a over a byte slice — the workspace checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_EMPTY, bytes)
}

/// FNV-1a of the empty slice: where an incremental checksum starts.
pub(crate) const FNV1A_EMPTY: u64 = 0xCBF2_9CE4_8422_2325;

/// Continues an FNV-1a checksum over more bytes:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`.
pub(crate) fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Appends the checksum trailer over `buf[from..]`: 8 bytes,
/// little-endian. A model or snapshot file seals its whole buffer. (A
/// WAL frame carries the same trailer, checksummed run by run with
/// [`fnv1a_extend`] as the writer encodes it.)
pub(crate) fn seal(buf: &mut Vec<u8>, from: usize) {
    let checksum = fnv1a(&buf[from..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
}

/// Splits the trailer [`seal`] wrote off `bytes` and verifies it — the
/// one checksum comparison in the crate.
pub(crate) fn unseal(bytes: &[u8]) -> Result<&[u8], DecodeError> {
    let at = bytes.len().checked_sub(8).ok_or(DecodeError::Truncated)?;
    let (payload, mut trailer) = bytes.split_at(at);
    let stored = get_u64(&mut trailer)?;
    let computed = fnv1a(payload);
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Strips a file's 8 magic bytes — the one magic check in the crate.
pub(crate) fn strip_magic<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> Result<&'a [u8], DecodeError> {
    let mut rest = bytes;
    if take(&mut rest, magic.len())? != magic {
        return Err(DecodeError::BadMagic);
    }
    Ok(rest)
}

/// Starts a sealed container: magic, then the version varint. The
/// caller appends the body and finishes with [`seal`]`(buf, 0)`.
pub(crate) fn begin_sealed(magic: &[u8; 8], version: u32, capacity: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(capacity);
    buf.extend_from_slice(magic);
    put_varint(&mut buf, u64::from(version));
    buf
}

/// Opens a sealed container, returning its version and body. Checks
/// run in a fixed order so every codec reports damage the same way:
/// too short for magic + trailer → `Truncated`; trailer ≠ checksum of
/// everything before it → `ChecksumMismatch`; wrong magic →
/// `BadMagic`. Only then is a field trusted. Whether the version is
/// one the caller reads is the caller's call (a version past `u32`
/// saturates, so it can never alias a supported one).
pub(crate) fn open_sealed<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
) -> Result<(u32, &'a [u8]), DecodeError> {
    if bytes.len() < magic.len() + 8 {
        return Err(DecodeError::Truncated);
    }
    let mut body = strip_magic(unseal(bytes)?, magic)?;
    let version = get_varint(&mut body)?;
    Ok((u32::try_from(version).unwrap_or(u32::MAX), body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        buf
    }

    #[test]
    fn varint_roundtrips_at_every_width() {
        // Both sides of every power of two — so every width — and the ends.
        let edges = (0..64).flat_map(|s| [(1u64 << s) - 1, 1 << s]);
        for v in edges.chain([u64::MAX]) {
            assert_eq!(get_varint(&mut &varint(v)[..]).unwrap(), v);
        }
        assert_eq!(varint(0).len(), 1);
        assert_eq!(varint(127).len(), 1);
        assert_eq!(varint(128).len(), 2);
        assert_eq!(varint(u64::MAX).len(), 10);
    }

    #[test]
    fn varint_truncation_and_overflow_rejected() {
        // Continuation bits with no terminator.
        assert_eq!(
            get_varint(&mut &[0x80u8, 0x80][..]),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            get_varint(&mut &[0xFFu8; 11][..]),
            Err(DecodeError::VarintOverflow)
        );
        // Ten bytes whose last carries more than the 64th bit.
        let mut wide = vec![0x80u8; 9];
        wide.push(2);
        assert_eq!(get_varint(&mut &wide[..]), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn reads_consume_exactly_what_was_written() {
        let mut buf = vec![0xAB];
        put_f64(&mut buf, -1.25);
        put_u64(&mut buf, u64::MAX - 1);
        let bbox = BoundingBox {
            min: Point::new(-1.0, 2.0),
            max: Point::new(3.5, 4.0),
        };
        put_bbox(&mut buf, &bbox);
        let mut cursor = &buf[..];
        assert_eq!(get_u8(&mut cursor), Ok(0xAB));
        assert_eq!(get_f64(&mut cursor), Ok(-1.25));
        assert_eq!(get_u64(&mut cursor), Ok(u64::MAX - 1));
        assert_eq!(get_bbox(&mut cursor), Ok(bbox));
        assert!(cursor.is_empty());
        // A short read is a typed error and consumes nothing.
        let mut short = &buf[..5];
        assert_eq!(get_u8(&mut short), Ok(0xAB));
        assert_eq!(get_f64(&mut short), Err(DecodeError::Truncated));
        assert_eq!(short.len(), 4);
        assert_eq!(get_u8(&mut &[][..]), Err(DecodeError::Truncated));
    }

    #[test]
    fn f64_bit_patterns_survive() {
        for v in [0.0, -0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, f64::NAN] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            assert_eq!(get_f64(&mut &buf[..]).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn count_limit_enforced() {
        assert!(matches!(
            get_count(&mut &varint(1000)[..], 999),
            Err(DecodeError::CountOutOfRange { got: 1000, .. })
        ));
        assert_eq!(get_count(&mut &varint(999)[..], 999).unwrap(), 999);
    }

    /// A sequence count is bounded by the bytes after its own varint:
    /// three 8-byte items fit in 24 bytes, a fourth does not, and a
    /// rejected count allocates nothing.
    #[test]
    fn sequence_count_is_bounded_by_the_bytes_behind_it() {
        let words = |n: u64| {
            let mut buf = varint(n);
            (0..3).for_each(|w| put_u64(&mut buf, w));
            buf
        };
        assert_eq!(get_seq(&mut &words(3)[..], 8, get_u64), Ok(vec![0, 1, 2]));
        assert_eq!(
            get_seq(&mut &words(4)[..], 8, get_u64),
            Err(DecodeError::CountOutOfRange { got: 4, limit: 3 })
        );
        assert_eq!(
            get_len(&mut &words(u64::MAX)[..], 8),
            Err(DecodeError::CountOutOfRange {
                got: u64::MAX,
                limit: 3
            })
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Reference value of FNV-1a("hello").
        assert_eq!(fnv1a(b"hello"), 0xA430_D846_80AA_BD0B);
        assert_ne!(fnv1a(b"hello"), fnv1a(b"hellp"));
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a_extend(fnv1a(b"he"), b"llo"), fnv1a(b"hello"));
    }

    #[test]
    fn sealed_container_reports_damage_in_a_fixed_order() {
        const MAGIC: &[u8; 8] = b"HPMTEST1";
        let mut blob = begin_sealed(MAGIC, 7, 0);
        blob.extend_from_slice(b"body");
        seal(&mut blob, 0);
        assert_eq!(open_sealed(&blob, MAGIC), Ok((7, &b"body"[..])));

        // Too short for magic + trailer, whatever the bytes say.
        hpm_check::mutate::every_cut(&blob[..16], |_, prefix| {
            assert_eq!(open_sealed(prefix, MAGIC), Err(DecodeError::Truncated));
        });
        // A damaged magic is a checksum failure until re-sealed.
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(matches!(
            open_sealed(&bad, MAGIC),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
        bad.truncate(bad.len() - 8);
        seal(&mut bad, 0);
        assert_eq!(open_sealed(&bad, MAGIC), Err(DecodeError::BadMagic));
        // A version past u32 saturates instead of aliasing a real one.
        let mut huge = MAGIC.to_vec();
        put_varint(&mut huge, (1 << 32) | 7);
        seal(&mut huge, 0);
        assert_eq!(open_sealed(&huge, MAGIC), Ok((u32::MAX, &[][..])));
    }

    #[test]
    fn seal_from_an_offset_covers_only_the_suffix() {
        let mut buf = b"prefix".to_vec();
        buf.extend_from_slice(b"payload");
        seal(&mut buf, 6);
        assert_eq!(unseal(&buf[6..]), Ok(&b"payload"[..]));
        assert_eq!(unseal(&buf[..7]), Err(DecodeError::Truncated));
    }
}
