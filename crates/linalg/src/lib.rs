//! Dense and sparse linear algebra substrate for the CubeLSI reproduction.
//!
//! The CubeLSI paper (Bi, Lee, Kao, Cheng — ICDE 2011) depends on a stack of
//! numerical kernels that have no offline-approved crate equivalents, so this
//! crate implements them from scratch:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with register-tiled,
//!   optionally multi-threaded multiplication kernels.
//! * [`dispatch`] — the one runtime choice of vector width (AVX-512F, AVX2
//!   or the baseline) the build's dense kernels run at, bit for bit alike.
//! * [`CsrMatrix`] — compressed sparse row matrices for the very sparse
//!   tag-assignment data.
//! * [`qr`] — modified Gram–Schmidt orthonormalization.
//! * [`eigen`] — the one dense symmetric eigensolver, a direct top-`k`
//!   solve (Householder tridiagonalisation, implicit QL, inverse
//!   iteration): the spectral clustering affinity, the Rayleigh–Ritz
//!   matrices of subspace iteration, the Theorem-1 `Σ` and the Grams of
//!   HOOI's exact updates all go through it.
//! * [`subspace`] — block subspace iteration for the leading eigenpairs of
//!   large implicit symmetric operators (the workhorse behind the HOSVD and
//!   the LSI baseline's truncated SVD).
//! * [`svd`] — truncated singular value decomposition from a Gram: by
//!   subspace iteration on the Gram operator (the LSI baseline), or, for a
//!   dense matrix whose shape makes it cheaper, from the formed Gram of its
//!   smaller side by the direct eigensolver (Tucker ALS's HOOI updates).
//! * [`mod@kmeans`] — k-means++ seeding and Lloyd clustering.
//! * [`spectral`] — the Ng–Jordan–Weiss spectral clustering algorithm exactly
//!   as used for concept distillation in §V of the paper.
//!
//! All stochastic routines take explicit seeds so that every experiment in
//! the repository is reproducible bit-for-bit.

pub mod dispatch;
pub mod eigen;
pub mod error;
pub mod kmeans;
pub mod matrix;
pub mod parallel;
pub mod qr;
pub mod sparse;
pub mod spectral;
pub mod subspace;
pub mod svd;

pub use eigen::{top_eigenpairs, EigenDecomposition};
pub use error::LinAlgError;
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use matrix::Matrix;
pub use qr::orthonormalize_columns;
pub use sparse::CsrMatrix;
pub use spectral::{spectral_clustering, SpectralConfig, SpectralResult};
pub use subspace::{sym_eigs_topk, GramOp, SymOp};
pub use svd::{truncated_svd, LinOp, Svd};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinAlgError>;

/// Returns `true` when `a` and `b` differ by at most `tol` in absolute value.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }
}
