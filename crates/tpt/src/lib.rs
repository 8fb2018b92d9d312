//! Trajectory Pattern Tree (§V of the paper): signature bitmaps,
//! pattern keys, the TPT index, and a brute-force scan baseline.
//! §V.A's key operations appear as far as the index uses them:
//! `Intersect`, the OR of a signature and `Size`; `Contain` and
//! `Difference` drive only Algorithm 1's insertion, and nothing here
//! inserts.
//!
//! Mined trajectory patterns are encoded into [`PatternKey`]s — a
//! consequence-key bitmap over the distinct consequence time offsets
//! plus a premise-key bitmap over the frequent regions (Tables I–III)
//! — and indexed by the TPT, a balanced signature-tree variant whose
//! internal entries hold the OR of their subtree's keys. The tree has
//! one form, the arena-packed [`PackedTpt`] image, and one way in:
//! [`PackedTpt::bulk_load`] (§V.B) packs the complete rule list
//! straight into it. Nothing inserts into a resident index; a changed
//! rule list is loaded afresh. The rows, in key order, are the leaf
//! level: a key is a pure function of its rule, so the image keeps
//! internal signatures only, leaf `j` is rows `[j·fill, (j+1)·fill)`,
//! and a search reads each leaf key from the [`LeafKeys`] rows it runs
//! with — [`LeafEntries`] collected from keys, or the pattern store,
//! which derives the key from its row ([`PackedTpt::with_leaves`]
//! pairs the two into a [`TptView`]). Forward queries encode to keys
//! too ([`KeyTable::fqp_query_into`]) and retrieve, via a depth-first
//! `Intersect`-pruned traversal of the image, the row id of every
//! pattern sharing consequence *and* premise bits with the query; the
//! rule itself, confidence included, is read from that row of the
//! pattern store. Backward queries drop the premise constraint, so they
//! need no signature tree: `hpm-core` answers them from the pattern
//! table alone. [`scan`] answers the same searches by a linear pass over
//! the keys (Fig. 11b's baseline, and the test oracle).
//!
//! # Example
//!
//! ```
//! use hpm_tpt::{Bitmap, LeafEntries, PackedTpt, PatternKey, SearchCursor};
//!
//! // Keys over 2 consequence time ids and 5 regions (Fig. 3 sizes),
//! // each given by its set bits.
//! let key = |ck: &[usize], rk: &[usize]| PatternKey {
//!     consequence: Bitmap::from_indices(2, ck),
//!     premise: Bitmap::from_indices(5, rk),
//! };
//! // Fig. 3's patterns, in key order; row `i` is the `i`th.
//! let keys = [
//!     key(&[0], &[0]),    // P0: R0^0 -> R1^0
//!     key(&[0], &[0]),    // P1: R0^0 -> R1^1
//!     key(&[1], &[0, 1]), // P2: R0^0 ∧ R1^0 -> R2^0
//!     key(&[1], &[0, 2]), // P3: R0^0 ∧ R1^1 -> R2^1
//! ];
//! let leaves: LeafEntries = keys.iter().collect();
//! let image = PackedTpt::bulk_load(32, &leaves);
//!
//! // §VI.B's query: recent movements {R0^0, R1^0}, tq at time id 1.
//! let mut cursor = SearchCursor::new();
//! let ids = cursor.search_packed(image.with_leaves(&leaves), &key(&[1], &[0, 1]));
//! assert_eq!(ids, [2, 3]);
//! ```

#![forbid(unsafe_code)]

mod bitmap;
mod brute;
mod keys;
pub mod metrics;
mod packed;

pub use bitmap::Bitmap;
pub use brute::scan;
pub use keys::{KeyTable, PatternKey};
pub use packed::{LeafEntries, LeafKeys, PackedTpt, SearchCursor, SearchStats, TptView};
