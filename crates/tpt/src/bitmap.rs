//! Fixed-length bit vectors — the signature substrate of pattern keys.
//!
//! A discovery run can yield hundreds of frequent regions (Fig. 11
//! evaluates 80/400/800), so keys are dynamically sized bitsets rather
//! than machine words. The §V.A key operations the TPT runs — `Size`
//! ([`Bitmap::count_ones`]), `Intersect` and the OR of a signature —
//! reduce to word-wise logic here; `Contain` and `Difference` serve
//! only Algorithm 1's insertion, which this crate does not implement.
//!
//! The words live in one `Vec<u64>`. [`Bitmap::reset`] keeps its
//! capacity, so hot-path query keys reach a steady state where
//! re-encoding a query allocates nothing.

use std::fmt;

/// A fixed-length bit vector.
///
/// Bit `i` corresponds to region id `i` (premise keys) or time id `i`
/// (consequence keys). Equality includes the length, so keys from
/// different key tables never compare equal by accident.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// Number of valid bits.
    len: usize,
    /// Little-endian words, exactly `len.div_ceil(64)` of them; bits
    /// past `len` are kept zero.
    words: Vec<u64>,
}

impl Ord for Bitmap {
    /// The bits read as a number (a longer bitmap with the same words
    /// sorts after): the order bulk loading sorts key parts in (§V.B).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.words.iter().rev())
            .cmp(other.words.iter().rev())
            .then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for Bitmap {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Bitmap {
    /// All-zero bitmap of `len` bits.
    pub fn zeros(len: usize) -> Self {
        let words = vec![0; len.div_ceil(64)];
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
        &self.words
    }

    /// Resizes to `len` bits, all zero, in the storage it already has
    /// when that is large enough: repeated resets to one length
    /// allocate at most once — the hot-path steady state.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The paper's `Size`: number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether any bit is set in both (`Size(self & other) > 0`).
    pub fn intersects(&self, other: &Bitmap) -> bool {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
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
            assert!(o.iter_ones().all(|i| i < len));
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
    fn intersects_needs_a_common_bit() {
        let a = Bitmap::from_indices(80, &[0, 70]);
        let b = Bitmap::from_indices(80, &[70, 71]);
        let c = Bitmap::from_indices(80, &[1, 2]);
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!a.intersects(&c));
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
        Bitmap::zeros(8).intersects(&Bitmap::zeros(9));
    }

    #[test]
    fn eq_includes_len() {
        assert_ne!(Bitmap::zeros(8), Bitmap::zeros(9));
        assert_eq!(Bitmap::default(), Bitmap::zeros(0));
    }

    #[test]
    fn zero_length_bitmap() {
        let b = Bitmap::zeros(0);
        assert!(b.is_empty());
        assert!(b.is_zero());
        assert_eq!(b.count_ones(), 0);
        assert!(!b.intersects(&Bitmap::zeros(0)));
    }

    #[test]
    fn reset_reuses_capacity_and_zeroes() {
        let mut b = ones(1000);
        let buffer = b.words.as_ptr();
        // Same length, shrink, regrow within the capacity: each reset
        // zeroes dirty words in the buffer it already has.
        for len in [1000, 500, 1000] {
            b.words.fill(!0);
            b.reset(len);
            assert!(b.is_zero());
            assert_eq!((b.len(), b.words().len()), (len, len.div_ceil(64)));
            assert_eq!(b.words.as_ptr(), buffer);
        }
        // Growing past the capacity reallocates, still zeroed.
        b.words.fill(!0);
        b.reset(5000);
        assert!(b.is_zero());
        assert_eq!(b.words().len(), 79);
    }
}
