//! The generator core: xoshiro256++ (Blackman & Vigna, 2018) seeded
//! through SplitMix64, the standard pairing — SplitMix64's avalanche
//! guarantees a well-mixed 256-bit state even from tiny seeds like 0
//! or 1.

use crate::Rng;

/// One SplitMix64 step: advances `state` and returns the mixed output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, seedable generator: xoshiro256++.
///
/// Not cryptographic. Period 2²⁵⁶ − 1, passes BigCrush; the same
/// algorithm `rand::rngs::SmallRng` used on 64-bit targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SmallRng { s }
    }
}

impl Rng for SmallRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector from the xoshiro256++ C implementation with
    /// state {1, 2, 3, 4}.
    #[test]
    fn matches_reference_vector() {
        let mut rng = SmallRng { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    /// SplitMix64 reference: seed 1234567 produces the published
    /// sequence head.
    #[test]
    fn splitmix_reference() {
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 6457827717110365317);
        assert_eq!(splitmix64(&mut s), 3203168211198807973);
    }
}
