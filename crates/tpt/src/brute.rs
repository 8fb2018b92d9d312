//! Brute-force pattern scan — Fig. 11b's baseline and the property
//! suite's oracle.
//!
//! Tests the paper's `Intersect` against every key in turn: the same
//! result set as a search of the [`PackedTpt`](crate::PackedTpt)
//! loaded from those keys, at linear cost, with nothing shared with
//! the image or its leaf sources.

use crate::PatternKey;

/// The id of every key in `keys` that intersects `query` on both parts,
/// ascending; a key's id is its position, as in
/// [`LeafEntries`](crate::LeafEntries).
pub fn scan<'a>(keys: &'a [PatternKey], query: &'a PatternKey) -> impl Iterator<Item = u32> + 'a {
    (0..)
        .zip(keys)
        .filter(|(_, k)| k.intersects(query))
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bitmap;

    fn key(ck: &[usize], rk: &[usize]) -> PatternKey {
        PatternKey {
            consequence: Bitmap::from_indices(4, ck),
            premise: Bitmap::from_indices(8, rk),
        }
    }

    fn ids(keys: &[PatternKey], q: &PatternKey) -> Vec<u32> {
        scan(keys, q).collect()
    }

    #[test]
    fn scan_applies_intersect_on_both_parts() {
        let keys = [key(&[0], &[0, 1]), key(&[1], &[0, 1]), key(&[0], &[5])];
        // 1 fails on consequence, 2 on premise.
        assert_eq!(ids(&keys, &key(&[0], &[1])), vec![0]);
    }

    #[test]
    fn empty_scan() {
        assert!(ids(&[], &key(&[0], &[0])).is_empty());
    }

    #[test]
    fn ids_are_positions_in_order() {
        let keys = [key(&[1], &[2]), key(&[0], &[0]), key(&[0], &[0, 3])];
        assert_eq!(ids(&keys, &key(&[0], &[0])), vec![1, 2]);
    }
}
