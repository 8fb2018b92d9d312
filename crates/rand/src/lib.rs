//! Std-only pseudo-random numbers for the workspace.
//!
//! The offline build bakes in no registry crates, so this crate stands
//! in for the parts of `rand` the project actually uses: a small, fast,
//! seedable generator ([`SmallRng`], xoshiro256++ seeded through
//! SplitMix64), uniform sampling over integer and float ranges
//! ([`Rng::gen_range`]), and zero-mean Gaussian draws
//! ([`NormalSampler`], Box–Muller).
//!
//! Everything is deterministic given the seed; there is deliberately no
//! entropy-based constructor — reproducibility per PR is a project
//! invariant (see DESIGN.md).

#![forbid(unsafe_code)]

mod normal;
mod range;
mod xoshiro;

pub use normal::NormalSampler;
pub use range::SampleRange;
pub use xoshiro::{splitmix64, SmallRng};

/// The generator interface: raw 64-bit output plus the derived sampling
/// helpers. Mirrors the `rand::Rng` surface the workspace relied on.
pub trait Rng {
    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform sample from `range` (`a..b` or `a..=b`, integer or
    /// float).
    ///
    /// # Panics
    /// Panics when the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// A uniform `bool`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = SmallRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }
}
