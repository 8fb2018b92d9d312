//! Brute-force pattern scan — Fig. 11b's baseline.
//!
//! Stores `<pk, p>` entries in a flat vector and answers searches by
//! testing the paper's `Intersect` against every entry. Same results as
//! the [`PackedTpt`](crate::PackedTpt) (it is the property suite's
//! oracle), linear cost.

use crate::PatternKey;

/// The linear-scan index.
#[derive(Debug, Clone, Default)]
pub struct BruteForce {
    entries: Vec<(PatternKey, u32)>,
}

impl BruteForce {
    /// An empty index.
    pub fn new() -> Self {
        BruteForce::default()
    }

    /// Builds from an entry iterator.
    pub fn from_entries(entries: impl IntoIterator<Item = (PatternKey, u32)>) -> Self {
        BruteForce {
            entries: entries.into_iter().collect(),
        }
    }

    /// Adds one entry.
    pub fn insert(&mut self, key: PatternKey, pattern: u32) {
        self.entries.push((key, pattern));
    }

    /// Resident bytes, for a like-for-like Fig. 11a comparison.
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .entries
                .iter()
                .map(|(k, _)| k.storage_bytes() + std::mem::size_of::<(PatternKey, u32)>())
                .sum::<usize>()
    }

    /// Appends the pattern id of every match of `query` to `out`, in
    /// entry order.
    pub fn search_into(&self, query: &PatternKey, out: &mut Vec<u32>) {
        for (key, pattern) in &self.entries {
            if key.intersects(query) {
                out.push(*pattern);
            }
        }
    }

    /// The pattern id of every match of `query`, in entry order, in a
    /// fresh vector.
    pub fn search(&self, query: &PatternKey) -> Vec<u32> {
        let mut out = Vec::new();
        self.search_into(query, &mut out);
        out
    }

    /// Number of indexed patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no patterns are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
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

    #[test]
    fn scan_applies_intersect_on_both_parts() {
        let mut idx = BruteForce::new();
        idx.insert(key(&[0], &[0, 1]), 0);
        idx.insert(key(&[1], &[0, 1]), 1);
        idx.insert(key(&[0], &[5]), 2);
        let q = key(&[0], &[1]);
        assert_eq!(idx.search(&q), vec![0]); // 1 fails on consequence, 2 on premise
        let mut appended = Vec::new();
        idx.search_into(&q, &mut appended);
        assert_eq!(appended, idx.search(&q));
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
    }

    #[test]
    fn empty_scan() {
        let idx = BruteForce::new();
        assert!(idx.search(&key(&[0], &[0])).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn from_entries_roundtrip() {
        let idx = BruteForce::from_entries(vec![(key(&[0], &[0]), 7)]);
        assert_eq!(idx.search(&key(&[0], &[0])), vec![7]);
    }

    #[test]
    fn storage_accounts_entries() {
        let mut idx = BruteForce::new();
        let empty = idx.storage_bytes();
        idx.insert(key(&[0], &[0]), 0);
        assert!(idx.storage_bytes() > empty);
    }
}
