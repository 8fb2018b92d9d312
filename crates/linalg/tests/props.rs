//! Property-based invariants for the linear-algebra substrate.

use hpm_check::prelude::*;
use hpm_linalg::{lstsq, Matrix, Svd};

/// Well-scaled random matrices (entries in [-10, 10]) with modest sizes
/// — the regime RMF actually exercises.
fn arb_matrix(max_dim: usize) -> Gen<Matrix> {
    tuple((int(1usize..=max_dim), int(1usize..=max_dim))).flat_map(|(r, c)| {
        vec(float(-10.0..10.0), r * c..r * c + 1).map(move |data| Matrix::from_rows(r, c, &data))
    })
}

props! {
    fn svd_reconstruction(a in arb_matrix(6)) {
        let svd = Svd::compute(&a);
        let recon = svd.reconstruct();
        let scale = a.frobenius_norm().max(1.0);
        require!(recon.max_abs_diff(&a).unwrap() < 1e-8 * scale);
    }

    fn svd_sigma_sorted_nonnegative(a in arb_matrix(6)) {
        let svd = Svd::compute(&a);
        require!(svd.sigma.iter().all(|&s| s >= 0.0));
        require!(svd.sigma.windows(2).all(|w| w[0] >= w[1]));
    }

    fn pinv_penrose_condition_one(a in arb_matrix(5)) {
        // A · A⁺ · A = A for every matrix.
        let p = a.pseudo_inverse();
        let apa = &(&a * &p) * &a;
        let scale = a.frobenius_norm().max(1.0);
        require!(apa.max_abs_diff(&a).unwrap() < 1e-7 * scale);
    }

    fn lstsq_consistent_system_exact(a in arb_matrix(5), seed in vec(float(-5.0..5.0), 1..6)) {
        // Build B = A · X₀ so the system is consistent: lstsq must
        // reproduce A·X = B exactly (X itself may differ when A is
        // rank-deficient).
        let cols = 1;
        let x0 = Matrix::from_fn(a.cols(), cols, |r, _| seed[r % seed.len()]);
        let b = &a * &x0;
        let x = lstsq(&a, &b);
        let b2 = &a * &x;
        let scale = b.frobenius_norm().max(1.0);
        require!(b2.max_abs_diff(&b).unwrap() < 1e-6 * scale);
    }

    fn transpose_preserves_frobenius(a in arb_matrix(6)) {
        require!((a.frobenius_norm() - a.transpose().frobenius_norm()).abs() < 1e-9);
    }
}
