//! Premise and consequence similarity measures (§VI.A, Eq. 1 and 3).

use hpm_geo::mem::vec_cap_bytes;
use hpm_geo::MemUse;
use hpm_patterns::RegionId;
use hpm_tpt::Bitmap;

/// The weight functions of §VI.A assigning importance `ωᵢ` to the `1`
/// at numbered position `i` of a premise key (positions count from the
/// right starting at 1, so by Property 1 a higher `i` is closer in time
/// to the consequence and weighs more).
///
/// All four normalise to `Σωᵢ = 1` over the key's `m = Size(rk)` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightFunction {
    /// `ωᵢ = i / Σj` — one of the two best performers in §VI.A, the
    /// default.
    #[default]
    Linear,
    /// `ωᵢ = i² / Σj²` — the other §VI.A best performer.
    Quadratic,
    /// `ωᵢ = 2ⁱ / Σ2ʲ`.
    Exponential,
    /// `ωᵢ = i! / Σj!`.
    Factorial,
}

impl WeightFunction {
    /// All four, for ablation sweeps.
    pub const ALL: [WeightFunction; 4] = [
        WeightFunction::Linear,
        WeightFunction::Quadratic,
        WeightFunction::Exponential,
        WeightFunction::Factorial,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            WeightFunction::Linear => "linear",
            WeightFunction::Quadratic => "quadratic",
            WeightFunction::Exponential => "exponential",
            WeightFunction::Factorial => "factorial",
        }
    }

    /// Normalised weights `ω₁..ω_m` for a premise key with `m` ones.
    ///
    /// The exponential and factorial families are computed relative to
    /// their largest term so arbitrarily large `m` stays finite.
    pub fn weights(&self, m: usize) -> Vec<f64> {
        if m == 0 {
            return Vec::new();
        }
        let mut raw: Vec<f64> = match self {
            WeightFunction::Linear => (1..=m).map(|i| i as f64).collect(),
            WeightFunction::Quadratic => (1..=m).map(|i| (i * i) as f64).collect(),
            WeightFunction::Exponential => {
                // 2^i / 2^m = 2^(i - m): largest term 1, no overflow.
                (1..=m).map(|i| 2f64.powi(i as i32 - m as i32)).collect()
            }
            WeightFunction::Factorial => {
                // i! / m! via the backward recurrence 1/(m(m-1)…(i+1)).
                let mut v = vec![0.0; m];
                let mut term = 1.0;
                for i in (0..m).rev() {
                    v[i] = term;
                    term /= (i + 1) as f64; // (i)!/m! = (i+1)!/m! / (i+1)
                }
                v
            }
        };
        let total: f64 = raw.iter().sum();
        for w in &mut raw {
            *w /= total;
        }
        raw
    }
}

/// Precomputed [`WeightFunction::weights`] rows for every premise size
/// `m` up to a maximum — the allocation-free path to Eq. 1 on the
/// predict hot loop: `weights(m)` is a slice read, not a fresh `Vec`.
///
/// A predictor builds one table sized to the longest premise among its
/// patterns (rebuilt when the weight function changes), and the
/// FQP/BQP scorers pass `table.weights(premise.len())` to
/// [`premise_similarity_ids`].
#[derive(Debug, Clone, Default)]
pub struct WeightTable {
    /// `rows[m]` = the normalised weights for a key with `m` ones.
    rows: Vec<Vec<f64>>,
}

impl MemUse for WeightTable {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.rows.capacity() * std::mem::size_of::<Vec<f64>>()
            + self.rows.iter().map(vec_cap_bytes).sum::<usize>()
    }
}

impl WeightTable {
    /// Builds rows for `m = 0..=max_ones` under `wf`.
    pub fn build(wf: WeightFunction, max_ones: usize) -> Self {
        WeightTable {
            rows: (0..=max_ones).map(|m| wf.weights(m)).collect(),
        }
    }

    /// The weight row for a premise key with `m` ones — identical to
    /// `wf.weights(m)` without the allocation.
    ///
    /// # Panics
    /// Panics when `m > max_ones`.
    #[inline]
    pub fn weights(&self, m: usize) -> &[f64] {
        &self.rows[m]
    }

    /// Largest `m` this table covers.
    pub fn max_ones(&self) -> usize {
        self.rows.len().saturating_sub(1)
    }
}

/// Premise similarity `S_r` (Eq. 1): the summed weights of the ones of
/// `rk` (a pattern's premise key) that are also set in `rkq` (the query
/// premise key). Weights are positional over `rk`'s own ones, so
/// `S_r(rk, rk) = 1` and `0 ≤ S_r ≤ 1`.
///
/// # Panics
/// Panics on key-length mismatch.
pub fn premise_similarity(rk: &Bitmap, rkq: &Bitmap, wf: WeightFunction) -> f64 {
    let weights = wf.weights(rk.count_ones());
    premise_similarity_with(rk, rkq, &weights)
}

/// [`premise_similarity`] against a precomputed weight row (from a
/// [`WeightTable`]): the caller supplies `wf.weights(rk.count_ones())`
/// and no allocation happens.
///
/// # Panics
/// Panics on key-length mismatch.
pub fn premise_similarity_with(rk: &Bitmap, rkq: &Bitmap, weights: &[f64]) -> f64 {
    assert_eq!(rk.len(), rkq.len(), "premise key length mismatch");
    rk.iter_ones()
        .zip(weights)
        .filter(|(bit, _)| rkq.get(*bit))
        .map(|(_, w)| w)
        .sum()
}

/// Eq. 1 read straight off a pattern's premise regions: by Property 1
/// the `i`-th one of a premise key is the `i`-th premise id (ids ascend
/// with time offset and a premise holds one region per offset), so this
/// sums the same weights in the same order as
/// [`premise_similarity_with`] over that pattern's key — without the
/// key. The caller supplies `wf.weights(premise.len())`.
///
/// # Panics
/// Panics when a premise id lies outside `rkq`.
pub fn premise_similarity_ids(premise: &[RegionId], rkq: &Bitmap, weights: &[f64]) -> f64 {
    premise
        .iter()
        .zip(weights)
        .filter(|(id, _)| rkq.get(id.index()))
        .map(|(_, w)| w)
        .sum()
}

/// Consequence similarity `S_c` (Eq. 3):
/// `1 − |tq − t| / (tε + 1)`, clamped at 0 for candidates found only
/// after BQP widened the interval beyond `tε`.
pub fn consequence_similarity(query_time: i64, consequence_time: i64, t_eps: u32) -> f64 {
    let sc = 1.0 - (query_time - consequence_time).abs() as f64 / (t_eps as f64 + 1.0);
    sc.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(len: usize, idx: &[usize]) -> Bitmap {
        Bitmap::from_indices(len, idx)
    }

    #[test]
    fn weights_normalise() {
        for wf in WeightFunction::ALL {
            for m in [1usize, 2, 5, 30, 200] {
                let w = wf.weights(m);
                assert_eq!(w.len(), m);
                let sum: f64 = w.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "{} m={m}: sum {sum}", wf.name());
                // Monotone non-decreasing: later ones matter more.
                assert!(w.windows(2).all(|p| p[0] <= p[1] + 1e-15));
            }
        }
    }

    #[test]
    fn paper_linear_example() {
        // §VI.A: for premise key 00011, position 2 weighs 2/3 and
        // position 1 weighs 1/3.
        let w = WeightFunction::Linear.weights(2);
        assert!((w[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((w[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn paper_similarity_examples() {
        // S_r(00011, 00011) = 1; S_r(00011, 00010) = 2/3.
        let rk = bits(5, &[0, 1]);
        assert!((premise_similarity(&rk, &rk, WeightFunction::Linear) - 1.0).abs() < 1e-12);
        let rkq = bits(5, &[1]);
        let s = premise_similarity(&rk, &rkq, WeightFunction::Linear);
        assert!((s - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn section_vi_b_worked_example() {
        // S_p(1000101, 1000011): premise keys 00101 vs 00011, shared
        // bit 0 has rank 1 of 2 -> S_r = 1/3 ~ the paper's 0.33.
        let rk = bits(5, &[0, 2]);
        let rkq = bits(5, &[0, 1]);
        let s = premise_similarity(&rk, &rkq, WeightFunction::Linear);
        assert!((s - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_bounds() {
        let rk = bits(8, &[1, 3, 5]);
        for wf in WeightFunction::ALL {
            assert_eq!(premise_similarity(&rk, &bits(8, &[]), wf), 0.0);
            let full = premise_similarity(&rk, &bits(8, &[1, 3, 5]), wf);
            assert!((full - 1.0).abs() < 1e-12);
            let part = premise_similarity(&rk, &bits(8, &[3]), wf);
            assert!(part > 0.0 && part < 1.0);
        }
    }

    #[test]
    fn empty_premise_is_zero() {
        let rk = bits(8, &[]);
        assert_eq!(
            premise_similarity(&rk, &bits(8, &[0]), WeightFunction::Linear),
            0.0
        );
    }

    #[test]
    fn later_positions_dominate() {
        // Matching only the most recent premise bit beats matching only
        // the oldest, under every weight function.
        let rk = bits(8, &[0, 4, 7]);
        for wf in WeightFunction::ALL {
            let recent = premise_similarity(&rk, &bits(8, &[7]), wf);
            let old = premise_similarity(&rk, &bits(8, &[0]), wf);
            assert!(recent > old, "{}", wf.name());
        }
    }

    #[test]
    fn factorial_weights_match_small_m() {
        // m = 3: 1!, 2!, 3! = 1, 2, 6 -> 1/9, 2/9, 6/9.
        let w = WeightFunction::Factorial.weights(3);
        assert!((w[0] - 1.0 / 9.0).abs() < 1e-12);
        assert!((w[1] - 2.0 / 9.0).abs() < 1e-12);
        assert!((w[2] - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_weights_match_small_m() {
        // m = 3: 2, 4, 8 -> 1/7, 2/7, 4/7.
        let w = WeightFunction::Exponential.weights(3);
        assert!((w[0] - 1.0 / 7.0).abs() < 1e-12);
        assert!((w[2] - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn consequence_similarity_eq3() {
        // tε = 2: exact hit 1.0, distance 1 -> 2/3, distance 3 -> 0.
        assert!((consequence_similarity(100, 100, 2) - 1.0).abs() < 1e-12);
        assert!((consequence_similarity(100, 99, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((consequence_similarity(100, 103, 2) - 0.0).abs() < 1e-12);
        // Widened-interval candidates clamp at 0 instead of going
        // negative.
        assert_eq!(consequence_similarity(100, 90, 2), 0.0);
    }

    #[test]
    fn weight_table_matches_direct_computation() {
        let rk = bits(12, &[0, 3, 7, 11]);
        let rkq = bits(12, &[3, 11]);
        for wf in WeightFunction::ALL {
            let table = WeightTable::build(wf, 8);
            assert_eq!(table.max_ones(), 8);
            for m in 0..=8 {
                assert_eq!(table.weights(m), wf.weights(m).as_slice());
            }
            // Bit-identical scores through the table path.
            let direct = premise_similarity(&rk, &rkq, wf);
            let via_table = premise_similarity_with(&rk, &rkq, table.weights(rk.count_ones()));
            assert_eq!(direct.to_bits(), via_table.to_bits(), "{}", wf.name());
        }
        let empty = WeightTable::build(WeightFunction::Linear, 0);
        assert_eq!(empty.max_ones(), 0);
        assert!(empty.weights(0).is_empty());
    }

    #[test]
    fn weight_function_names() {
        let names: Vec<_> = WeightFunction::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["linear", "quadratic", "exponential", "factorial"]);
        assert_eq!(WeightFunction::default(), WeightFunction::Linear);
    }
}
