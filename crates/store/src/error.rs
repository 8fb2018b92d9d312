//! Decoding errors.

use std::fmt;

/// Why a model, snapshot or WAL blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the structure was complete.
    Truncated,
    /// A varint used more than 64 bits.
    VarintOverflow,
    /// The magic bytes did not match the file kind being decoded.
    BadMagic,
    /// The file names a format version this library does not read
    /// (older versions are refused, never misread).
    UnsupportedVersion(u32),
    /// A count exceeded what the bytes behind it can hold, or a frame
    /// length its cap (corruption, or a writer that lies).
    CountOutOfRange {
        /// The decoded count.
        got: u64,
        /// The maximum this field allows.
        limit: u64,
    },
    /// The trailer checksum did not match the payload.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The decoded structures violate model invariants (e.g. a pattern
    /// referencing a missing region).
    Invalid(String),
    /// Trailing bytes after the trailer.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            DecodeError::BadMagic => write!(f, "bad magic bytes"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::CountOutOfRange { got, limit } => {
                write!(f, "count {got} exceeds limit {limit}")
            }
            DecodeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            DecodeError::Invalid(why) => write!(f, "invalid model: {why}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after trailer"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(DecodeError, &str)> = vec![
            (DecodeError::Truncated, "truncated"),
            (DecodeError::BadMagic, "magic"),
            (DecodeError::UnsupportedVersion(9), "version 9"),
            (DecodeError::CountOutOfRange { got: 5, limit: 4 }, "count 5"),
            (
                DecodeError::ChecksumMismatch {
                    stored: 1,
                    computed: 2,
                },
                "checksum",
            ),
            (DecodeError::Invalid("x".into()), "invalid"),
            (DecodeError::TrailingBytes(3), "3 trailing"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
        // Snapshot and WAL decoders return it too: it names no file kind.
        assert_eq!(DecodeError::BadMagic.to_string(), "bad magic bytes");
    }
}
