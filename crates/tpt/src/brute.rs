//! Brute-force pattern scan — Fig. 11b's baseline.
//!
//! Stores `<pk, c, p>` entries in a flat vector and answers searches by
//! testing the paper's `Intersect` against every entry. Same results as
//! the [`PackedTpt`](crate::PackedTpt) (it is the property suite's
//! oracle), linear cost.

use crate::{Match, PatternKey};

/// The linear-scan index.
#[derive(Debug, Clone, Default)]
pub struct BruteForce {
    entries: Vec<(PatternKey, f64, u32)>,
}

impl BruteForce {
    /// An empty index.
    pub fn new() -> Self {
        BruteForce::default()
    }

    /// Builds from an entry iterator.
    pub fn from_entries(entries: impl IntoIterator<Item = (PatternKey, f64, u32)>) -> Self {
        BruteForce {
            entries: entries.into_iter().collect(),
        }
    }

    /// Adds one entry.
    pub fn insert(&mut self, key: PatternKey, confidence: f64, pattern: u32) {
        self.entries.push((key, confidence, pattern));
    }

    /// Resident bytes, for a like-for-like Fig. 11a comparison.
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .entries
                .iter()
                .map(|(k, _, _)| k.storage_bytes() + std::mem::size_of::<(PatternKey, f64, u32)>())
                .sum::<usize>()
    }

    /// Appends every match of `query` to `out`, in entry order.
    pub fn search_into(&self, query: &PatternKey, out: &mut Vec<Match>) {
        for (key, confidence, pattern) in &self.entries {
            if key.intersects(query) {
                out.push(Match {
                    pattern: *pattern,
                    confidence: *confidence,
                });
            }
        }
    }

    /// Every match of `query`, in entry order, in a fresh vector.
    pub fn search(&self, query: &PatternKey) -> Vec<Match> {
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
        idx.insert(key(&[0], &[0, 1]), 0.9, 0);
        idx.insert(key(&[1], &[0, 1]), 0.8, 1);
        idx.insert(key(&[0], &[5]), 0.7, 2);
        let q = key(&[0], &[1]);
        let found: Vec<u32> = idx.search(&q).iter().map(|m| m.pattern).collect();
        assert_eq!(found, vec![0]); // 1 fails on consequence, 2 on premise
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
        let idx = BruteForce::from_entries(vec![(key(&[0], &[0]), 0.5, 7)]);
        let m = idx.search(&key(&[0], &[0]));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].pattern, 7);
        assert_eq!(m[0].confidence, 0.5);
    }

    #[test]
    fn storage_accounts_entries() {
        let mut idx = BruteForce::new();
        let empty = idx.storage_bytes();
        idx.insert(key(&[0], &[0]), 0.5, 0);
        assert!(idx.storage_bytes() > empty);
    }
}
