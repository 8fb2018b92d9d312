//! Fixed-length bit vectors — the signature substrate of pattern keys.
//!
//! A discovery run can yield hundreds of frequent regions (Fig. 11
//! evaluates 80/400/800), so keys are dynamically sized bitsets rather
//! than machine words. All the §V.A key operations reduce to word-wise
//! logic here.
//!
//! Storage is hybrid: keys of up to [`INLINE_WORDS`]` * 64` bits live
//! in a fixed inline array (no heap allocation at all — this covers
//! the paper's 80-region scale and every consequence key), and only
//! longer keys spill to a heap `Vec<u64>`. [`Bitmap::reset`] recycles
//! an existing heap buffer when it is large enough, so hot-path query
//! keys reach a steady state where re-encoding a query allocates
//! nothing.

use hpm_geo::MemUse;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of 64-bit words stored inline before spilling to the heap.
///
/// Three words = 192 bits: enough for the paper's 80-region premise
/// keys and for every realistic consequence key (one bit per distinct
/// consequence time offset), while keeping `Bitmap` at four words
/// total — small enough to move around by value cheaply.
pub const INLINE_WORDS: usize = 3;

/// Word storage: small bitmaps inline, large ones on the heap.
///
/// Invariant: a `Heap` vector always has exactly `len.div_ceil(64)`
/// elements; an `Inline` array keeps every word at index
/// `>= len.div_ceil(64)` zero.
#[derive(Clone)]
enum WordStore {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A fixed-length bit vector.
///
/// Bit `i` corresponds to region id `i` (premise keys) or time id `i`
/// (consequence keys). Equality and hashing include the length, so keys
/// from different key tables never compare equal by accident.
#[derive(Clone)]
pub struct Bitmap {
    /// Number of valid bits.
    len: usize,
    /// Little-endian words; bits past `len` are kept zero.
    words: WordStore,
}

impl Bitmap {
    /// All-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        let wc = len.div_ceil(64);
        let words = if wc <= INLINE_WORDS {
            WordStore::Inline([0; INLINE_WORDS])
        } else {
            WordStore::Heap(vec![0; wc])
        };
        Bitmap { len, words }
    }

    /// Bitmap of `len` bits with exactly the given bits set.
    ///
    /// # Panics
    /// Panics when any index is out of range.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut b = Bitmap::zeros(len);
        for &i in indices {
            b.set(i);
        }
        b
    }

    /// Number of valid bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `len() == 0`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words, little-endian, exactly `len().div_ceil(64)`
    /// of them. This is the slice the packed TPT arena copies from.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            WordStore::Inline(a) => &a[..self.len.div_ceil(64)],
            WordStore::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            WordStore::Inline(a) => &mut a[..self.len.div_ceil(64)],
            WordStore::Heap(v) => v,
        }
    }

    /// Resizes to `len` bits, all zero, reusing existing storage when
    /// possible: a heap buffer with enough capacity is recycled
    /// (no allocation), and any `len` small enough for inline storage
    /// never allocates. Repeated resets to the same length therefore
    /// allocate at most once — the hot-path steady state.
    pub fn reset(&mut self, len: usize) {
        let wc = len.div_ceil(64);
        self.len = len;
        match &mut self.words {
            WordStore::Heap(v) if v.capacity() >= wc => {
                v.clear();
                v.resize(wc, 0);
            }
            _ if wc <= INLINE_WORDS => self.words = WordStore::Inline([0; INLINE_WORDS]),
            _ => self.words = WordStore::Heap(vec![0; wc]),
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words()[i / 64] & (1 << (i % 64)) != 0
    }

    /// The paper's `Size`: number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The paper's `Contain`: `self & other == other`.
    pub fn contains(&self, other: &Bitmap) -> bool {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & b == *b)
    }

    /// Whether any bit is set in both (`Size(self & other) > 0`).
    pub fn intersects(&self, other: &Bitmap) -> bool {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .any(|(a, b)| a & b != 0)
    }

    /// `Size(self & other)`: number of common set bits.
    pub fn and_count(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// The paper's `Difference(self, other)`:
    /// `Size(self ⊕ (self & other))` — bits set in `self` but not in
    /// `other`.
    pub fn difference(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Heap bytes used by the word storage (for Fig. 11a's storage
    /// accounting). Inline bitmaps report zero: their words live in
    /// the `Bitmap` itself.
    #[inline]
    pub fn storage_bytes(&self) -> usize {
        match &self.words {
            WordStore::Inline(_) => 0,
            WordStore::Heap(v) => v.len() * 8,
        }
    }
}

impl MemUse for Bitmap {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.words {
                WordStore::Inline(_) => 0,
                WordStore::Heap(v) => v.capacity() * 8,
            }
    }
}

impl Default for Bitmap {
    /// The zero-length bitmap (a scratch placeholder;
    /// [`reset`](Bitmap::reset) gives it a real geometry).
    fn default() -> Self {
        Bitmap::zeros(0)
    }
}

impl PartialEq for Bitmap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for Bitmap {}

impl Hash for Bitmap {
    /// Hashes length then words, so inline and heap bitmaps of equal
    /// content hash identically (required by `Eq`).
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for Bitmap {
    /// Renders like the paper's figures: most significant bit first,
    /// e.g. `00101`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.len).rev() {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) use tests::ones;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every bit of `0..len` set.
    pub(crate) fn ones(len: usize) -> Bitmap {
        Bitmap::from_indices(len, &(0..len).collect::<Vec<_>>())
    }

    #[test]
    fn zeros_and_ones() {
        for len in [0usize, 1, 63, 64, 65, 70, 192, 193, 500] {
            let z = Bitmap::zeros(len);
            assert!(z.is_zero() && z.len() == len);
            let o = ones(len);
            assert_eq!(o.count_ones(), len);
            // No stray bits past len.
            assert_eq!(o.and_count(&o), len);
        }
        assert!(ones(70).get(0) && ones(70).get(69));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::zeros(130);
        for i in [0usize, 63, 64, 65, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::zeros(10).set(10);
    }

    #[test]
    fn contains_semantics() {
        let a = Bitmap::from_indices(8, &[0, 1, 4]);
        let b = Bitmap::from_indices(8, &[0, 4]);
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(a.contains(&a));
        assert!(a.contains(&Bitmap::zeros(8)));
    }

    #[test]
    fn intersects_and_count() {
        let a = Bitmap::from_indices(80, &[0, 70]);
        let b = Bitmap::from_indices(80, &[70, 71]);
        let c = Bitmap::from_indices(80, &[1, 2]);
        assert!(a.intersects(&b));
        assert_eq!(a.and_count(&b), 1);
        assert!(!a.intersects(&c));
        assert_eq!(a.and_count(&c), 0);
    }

    #[test]
    fn difference_counts_exclusive_bits() {
        // Paper: Difference(pk1, pk2) = Size(pk1 ⊕ (pk1 & pk2)).
        let a = Bitmap::from_indices(8, &[0, 1, 2]);
        let b = Bitmap::from_indices(8, &[1, 5]);
        assert_eq!(a.difference(&b), 2); // bits 0, 2
        assert_eq!(b.difference(&a), 1); // bit 5
        assert_eq!(a.difference(&a), 0);
    }

    #[test]
    fn iter_ones_ascending() {
        let b = Bitmap::from_indices(130, &[129, 0, 64, 63]);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert_eq!(Bitmap::zeros(10).iter_ones().count(), 0);
    }

    #[test]
    fn debug_renders_msb_first() {
        let b = Bitmap::from_indices(5, &[0, 1]);
        assert_eq!(format!("{b:?}"), "00011");
        let c = Bitmap::from_indices(5, &[0, 2]);
        assert_eq!(format!("{c:?}"), "00101");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Bitmap::zeros(8).contains(&Bitmap::zeros(9));
    }

    #[test]
    fn eq_and_hash_include_len() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Bitmap::zeros(8));
        s.insert(Bitmap::zeros(9));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn zero_length_bitmap() {
        let b = Bitmap::zeros(0);
        assert!(b.is_empty());
        assert!(b.is_zero());
        assert_eq!(b.count_ones(), 0);
        assert!(b.contains(&Bitmap::zeros(0)));
        assert!(!b.intersects(&Bitmap::zeros(0)));
    }

    #[test]
    fn inline_below_heap_above_threshold() {
        // Up to INLINE_WORDS * 64 bits the words live inline (no heap
        // bytes); one bit more spills to the heap.
        let max_inline = INLINE_WORDS * 64;
        assert_eq!(Bitmap::zeros(max_inline).storage_bytes(), 0);
        let spilled = Bitmap::zeros(max_inline + 1);
        assert_eq!(spilled.storage_bytes(), (INLINE_WORDS + 1) * 8);
        // Same ops on both sides of the boundary.
        let a = Bitmap::from_indices(max_inline, &[0, 191]);
        let b = Bitmap::from_indices(max_inline + 1, &[0, 192]);
        assert_eq!(a.count_ones(), 2);
        assert_eq!(b.count_ones(), 2);
        assert!(b.get(192));
    }

    #[test]
    fn inline_and_heap_compare_and_hash_by_content() {
        use std::collections::hash_map::DefaultHasher;
        // Force a heap bitmap down to an inline-sized length via
        // reset-with-reuse, then compare against a natural inline one.
        let mut heap = Bitmap::zeros(1000);
        heap.reset(70);
        heap.set(3);
        assert!(heap.storage_bytes() > 0, "buffer was recycled, not freed");
        let inline = Bitmap::from_indices(70, &[3]);
        assert_eq!(inline.storage_bytes(), 0);
        assert_eq!(heap, inline);
        let h = |b: &Bitmap| {
            let mut s = DefaultHasher::new();
            b.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&heap), h(&inline));
    }

    #[test]
    fn reset_reuses_capacity_and_zeroes() {
        let mut b = ones(1000);
        b.reset(1000);
        assert!(b.is_zero());
        assert_eq!(b.len(), 1000);
        // Shrinking reuses the heap buffer; growing past it reallocates.
        b = ones(1000);
        b.reset(500);
        assert!(b.is_zero());
        assert_eq!(b.len(), 500);
        assert_eq!(b.words().len(), 8);
        // Inline-sized reset on an inline bitmap stays inline.
        let mut small = ones(64);
        small.reset(128);
        assert!(small.is_zero());
        assert_eq!(small.storage_bytes(), 0);
    }
}
