//! The on-disk model format, version 1.
//!
//! ```text
//! header   magic  b"HPMMODEL"            8 bytes
//!          version varint                (currently 1)
//! payload  period  varint
//!          region_count varint
//!          regions: per region, in id order —
//!              offset       varint
//!              local_index  varint
//!              support      varint
//!              centroid     f64 x, f64 y
//!              bbox         f64 min.x, min.y, max.x, max.y
//!          pattern_count varint
//!          patterns: per pattern —
//!              premise_len  varint
//!              premise ids  varint each (delta-coded, ascending)
//!              consequence  varint
//!              confidence   f64
//!              support      varint
//! trailer  fnv1a over header + payload   8 bytes little-endian
//! ```
//!
//! Region ids are implicit (dense, in order), so they are not stored.
//! Premise ids are delta-coded: the first id verbatim, each subsequent
//! id as the (positive) difference from its predecessor — patterns
//! reference nearby offsets, so deltas are small and usually one byte.

/// Magic bytes opening every model file.
pub const MAGIC: &[u8; 8] = b"HPMMODEL";

/// The current (and only) format version.
pub const VERSION: u32 = 1;

/// Sanity limit on the period: the decoded region table allocates one
/// slot per time offset, so the bound is checked before anything is
/// sized by it. A week of one-second samples (604,800) fits. (The
/// counts need no cap: each is bounded by the bytes behind it — see
/// [`crate::wire::get_len`].)
pub const MAX_PERIOD: u32 = 1 << 20;
