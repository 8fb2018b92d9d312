//! Dense linear algebra substrate.
//!
//! The Recursive Motion Function (Tao et al., SIGMOD 2004) — both the
//! paper's comparison baseline and the Hybrid Prediction Model's
//! fallback — fits its coefficient matrices with a least-squares solve
//! over the object's recent *movement matrix*, classically done via
//! Singular Value Decomposition (the paper cites RMF's `n³` SVD cost in
//! §VII.C). None of the approved offline crates provide linear algebra,
//! so this crate implements the needed pieces from scratch:
//!
//! * [`Matrix`] — a small row-major dense matrix,
//! * [`Svd`] — one-sided Jacobi SVD, from which [`Matrix::pseudo_inverse`]
//!   and [`lstsq`] (minimum-norm least squares) are derived.

#![forbid(unsafe_code)]

mod eigen;
mod matrix;
mod svd;

pub use eigen::spectral_radius;
pub use matrix::Matrix;
pub use svd::{lstsq, Svd};

/// Numerical tolerance below which singular values are treated as zero.
pub const EPS: f64 = 1e-10;
