//! Exhaustive single-fault mutation of an encoded byte string: the
//! driver every decoder's truncation and corruption test runs on, so
//! "every cut" and "every bit" mean the same thing in every suite.

/// Calls `check(cut, &bytes[..cut])` for every strict prefix of
/// `bytes`, the empty one included.
pub fn every_cut(bytes: &[u8], mut check: impl FnMut(usize, &[u8])) {
    for cut in 0..bytes.len() {
        check(cut, &bytes[..cut]);
    }
}

/// Calls `check(i, mutated)` once per bit of `bytes`, with that one
/// bit of byte `i` flipped.
pub fn every_bit_flip(bytes: &[u8], mut check: impl FnMut(usize, &[u8])) {
    let mut mutated = bytes.to_vec();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            mutated[i] ^= 1 << bit;
            check(i, &mutated);
            mutated[i] ^= 1 << bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cut_visits_each_strict_prefix_once() {
        let mut seen = Vec::new();
        every_cut(b"abc", |cut, prefix| seen.push((cut, prefix.to_vec())));
        assert_eq!(seen, [(0, vec![]), (1, b"a".to_vec()), (2, b"ab".to_vec())]);
    }

    #[test]
    fn every_bit_flip_visits_each_bit_once_and_restores_it() {
        let mut seen = Vec::new();
        every_bit_flip(&[0x00, 0xFF], |i, m| seen.push((i, m.to_vec())));
        assert_eq!(seen.len(), 16);
        assert_eq!(seen[0], (0, vec![0x01, 0xFF]));
        assert_eq!(seen[7], (0, vec![0x80, 0xFF]));
        assert_eq!(seen[15], (1, vec![0x00, 0x7F]));
    }
}
