//! One-sided Jacobi Singular Value Decomposition.
//!
//! RMF's coefficient fit is a least-squares solve of the *movement
//! matrix*; the original uses SVD (the paper quotes its `n³` cost when
//! comparing query times in §VII.C). The one-sided Jacobi method is the
//! simplest numerically robust SVD: it repeatedly applies plane
//! rotations that orthogonalise pairs of columns of `A`, accumulating
//! the rotations into `V`; on convergence the column norms of the
//! rotated matrix are the singular values and its normalised columns
//! form `U`.

// Indexed loops mirror the textbook formulations of these kernels.
#![allow(clippy::needless_range_loop)]

use crate::{Matrix, EPS};

/// The thin SVD `A = U · diag(σ) · Vᵀ` of an `m × n` matrix with
/// `m ≥ n` handled directly and `m < n` via the transpose.
#[derive(Debug, Clone)]
pub struct Svd {
    /// `m × n`, orthonormal columns (only for non-zero singular values;
    /// zero columns are left as zero vectors).
    pub u: Matrix,
    /// Singular values, non-increasing, length `n`.
    pub sigma: Vec<f64>,
    /// `n × n` orthogonal matrix of right singular vectors.
    pub v: Matrix,
    /// True when the decomposition was computed on `Aᵀ` and swapped
    /// back (implementation detail, exposed for tests).
    pub transposed: bool,
}

/// Maximum number of Jacobi sweeps before giving up on full
/// convergence (in practice small matrices converge in < 10 sweeps).
const MAX_SWEEPS: usize = 60;

impl Svd {
    /// Computes the SVD of `a`.
    pub fn compute(a: &Matrix) -> Svd {
        if a.rows() >= a.cols() {
            let (u, sigma, v) = jacobi_svd(a);
            Svd {
                u,
                sigma,
                v,
                transposed: false,
            }
        } else {
            // SVD(Aᵀ) = U Σ Vᵀ  ⇒  A = V Σ Uᵀ.
            let (u, sigma, v) = jacobi_svd(&a.transpose());
            Svd {
                u: v,
                sigma,
                v: u,
                transposed: true,
            }
        }
    }

    /// Numerical rank: number of singular values above
    /// `max(m, n) · σ_max · EPS`-style tolerance.
    pub fn rank(&self) -> usize {
        let tol = self.tolerance();
        self.sigma.iter().filter(|&&s| s > tol).count()
    }

    fn tolerance(&self) -> f64 {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let dim = self.u.rows().max(self.v.rows()) as f64;
        (smax * dim * f64::EPSILON).max(EPS)
    }

    /// Moore–Penrose pseudo-inverse `A⁺ = V · diag(σ⁺) · Uᵀ`.
    pub fn pseudo_inverse(&self) -> Matrix {
        let tol = self.tolerance();
        // V · Σ⁺ : scale columns of V by 1/σ (zero out tiny σ).
        let n = self.v.rows();
        let k = self.sigma.len();
        let mut vs = Matrix::zeros(n, k);
        for c in 0..k {
            let s = self.sigma[c];
            if s > tol {
                let inv = 1.0 / s;
                for r in 0..n {
                    vs[(r, c)] = self.v[(r, c)] * inv;
                }
            }
        }
        &vs * &self.u.transpose()
    }

    /// Reconstructs `U · diag(σ) · Vᵀ` (used by tests).
    pub fn reconstruct(&self) -> Matrix {
        let k = self.sigma.len();
        let mut us = Matrix::zeros(self.u.rows(), k);
        for c in 0..k {
            for r in 0..self.u.rows() {
                us[(r, c)] = self.u[(r, c)] * self.sigma[c];
            }
        }
        &us * &self.v.transpose()
    }
}

/// Core one-sided Jacobi iteration for `m ≥ n`.
fn jacobi_svd(a: &Matrix) -> (Matrix, Vec<f64>, Matrix) {
    let m = a.rows();
    let n = a.cols();
    // Column-major working copy of A for cache-friendly column ops.
    let mut cols: Vec<Vec<f64>> = (0..n)
        .map(|c| (0..m).map(|r| a[(r, c)]).collect())
        .collect();
    // V accumulated as columns too.
    let mut v: Vec<Vec<f64>> = (0..n)
        .map(|c| {
            let mut e = vec![0.0; n];
            e[c] = 1.0;
            e
        })
        .collect();

    let frob: f64 = cols
        .iter()
        .map(|col| col.iter().map(|x| x * x).sum::<f64>())
        .sum::<f64>()
        .sqrt();
    let conv_tol = (frob * f64::EPSILON * m as f64).max(EPS * EPS);

    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0_f64;
        for i in 0..n {
            for j in i + 1..n {
                let (mut alpha, mut beta, mut gamma) = (0.0, 0.0, 0.0);
                for r in 0..m {
                    alpha += cols[i][r] * cols[i][r];
                    beta += cols[j][r] * cols[j][r];
                    gamma += cols[i][r] * cols[j][r];
                }
                off = off.max(gamma.abs());
                if gamma.abs() <= conv_tol * (alpha.sqrt() * beta.sqrt()).max(EPS) {
                    continue;
                }
                // Classic Jacobi rotation zeroing the (i, j) inner product.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for r in 0..m {
                    let (ci, cj) = (cols[i][r], cols[j][r]);
                    cols[i][r] = c * ci - s * cj;
                    cols[j][r] = s * ci + c * cj;
                }
                for r in 0..n {
                    let (vi, vj) = (v[i][r], v[j][r]);
                    v[i][r] = c * vi - s * vj;
                    v[j][r] = s * vi + c * vj;
                }
            }
        }
        if off <= conv_tol {
            break;
        }
    }

    // Singular values are the column norms; sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = cols
        .iter()
        .map(|col| col.iter().map(|x| x * x).sum::<f64>().sqrt())
        .collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).expect("finite norms"));

    let mut u = Matrix::zeros(m, n);
    let mut vm = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (out_c, &src_c) in order.iter().enumerate() {
        let s = norms[src_c];
        sigma.push(s);
        if s > EPS {
            let inv = 1.0 / s;
            for r in 0..m {
                u[(r, out_c)] = cols[src_c][r] * inv;
            }
        }
        for r in 0..n {
            vm[(r, out_c)] = v[src_c][r];
        }
    }
    (u, sigma, vm)
}

/// Minimum-norm least-squares solution of `A · X = B` for a matrix
/// right-hand side: `X = A⁺ · B`.
///
/// `B` must have `a.rows()` rows; the result has `a.cols()` rows and
/// `B.cols()` columns. This is exactly the RMF coefficient fit: `A` is
/// the movement matrix, `B` stacks the successor locations.
pub fn lstsq(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "lstsq shape mismatch");
    &a.pseudo_inverse() * b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        let d = a.max_abs_diff(b).expect("same shape");
        assert!(d < tol, "matrices differ by {d}\n{a}\n{b}");
    }

    #[test]
    fn svd_reconstructs_square() {
        let a = Matrix::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let svd = Svd::compute(&a);
        assert_close(&svd.reconstruct(), &a, 1e-9);
    }

    #[test]
    fn svd_reconstructs_tall() {
        let a = Matrix::from_rows(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let svd = Svd::compute(&a);
        assert!(!svd.transposed);
        assert_close(&svd.reconstruct(), &a, 1e-9);
    }

    #[test]
    fn svd_reconstructs_wide() {
        let a = Matrix::from_rows(2, 4, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0, 0.0, 2.0]);
        let svd = Svd::compute(&a);
        assert!(svd.transposed);
        assert_close(&svd.reconstruct(), &a, 1e-9);
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let a = Matrix::from_rows(3, 3, &[2.0, 0.0, 1.0, -1.0, 3.0, 0.0, 0.0, 1.0, 1.0]);
        let svd = Svd::compute(&a);
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn known_singular_values_of_diagonal() {
        let a = Matrix::from_rows(2, 2, &[3.0, 0.0, 0.0, -4.0]);
        let svd = Svd::compute(&a);
        assert!((svd.sigma[0] - 4.0).abs() < 1e-10);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn rank_detects_deficiency() {
        // Second row is 2x the first: rank 1.
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(Svd::compute(&a).rank(), 1);
        // Third row is 2x the second less the first, up to rounding:
        // the noise singular value is not counted.
        let b = Matrix::from_rows(3, 3, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
        assert_eq!(Svd::compute(&b).rank(), 2);
        assert_eq!(Svd::compute(&Matrix::identity(3)).rank(), 3);
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let a = Matrix::from_rows(2, 2, &[4.0, 7.0, 2.0, 6.0]);
        let pinv = a.pseudo_inverse();
        assert_close(&(&a * &pinv), &Matrix::identity(2), 1e-9);
        assert_close(&(&pinv * &a), &Matrix::identity(2), 1e-9);
    }

    #[test]
    fn pinv_moore_penrose_conditions() {
        // Rank-deficient: verify A A⁺ A = A and A⁺ A A⁺ = A⁺.
        let a = Matrix::from_rows(3, 2, &[1.0, 2.0, 2.0, 4.0, 3.0, 6.0]);
        let p = a.pseudo_inverse();
        assert_close(&(&(&a * &p) * &a), &a, 1e-9);
        assert_close(&(&(&p * &a) * &p), &p, 1e-9);
    }

    #[test]
    fn lstsq_recovers_exact_solution() {
        // Overdetermined consistent system: y = 2x + 1 sampled 5 times.
        let a = Matrix::from_fn(5, 2, |r, c| if c == 0 { r as f64 } else { 1.0 });
        let b = Matrix::from_fn(5, 1, |r, _| 2.0 * r as f64 + 1.0);
        let x = lstsq(&a, &b);
        assert!((x[(0, 0)] - 2.0).abs() < 1e-9);
        assert!((x[(1, 0)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lstsq_minimises_residual() {
        // Inconsistent system: residual of lstsq solution must not
        // exceed the residual of nearby perturbed solutions.
        let a = Matrix::from_rows(3, 2, &[1.0, 1.0, 1.0, 2.0, 1.0, 3.0]);
        let b = Matrix::from_rows(3, 1, &[1.0, 2.0, 2.0]);
        let x = lstsq(&a, &b);
        let resid = |xs: &Matrix| (&(&a * xs) - &b).frobenius_norm();
        let base = resid(&x);
        for (dx, dy) in [(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01)] {
            let mut xp = x.clone();
            xp[(0, 0)] += dx;
            xp[(1, 0)] += dy;
            assert!(resid(&xp) >= base - 1e-12);
        }
    }

    #[test]
    fn zero_matrix_pinv_is_zero() {
        let a = Matrix::zeros(3, 2);
        let p = a.pseudo_inverse();
        assert_eq!(p.rows(), 2);
        assert_eq!(p.cols(), 3);
        assert!(p.as_slice().iter().all(|&x| x == 0.0));
    }
}
