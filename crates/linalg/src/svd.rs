//! Truncated singular value decomposition.
//!
//! [`truncated_svd`] returns the top-`k` singular triplets of a large
//! (possibly sparse, possibly implicit) operator via subspace iteration on
//! the smaller Gram operator. Used by every HOOI factor update of Tucker
//! ALS (on the `Iₙ × ∏Jₘ` product matrices) and by the LSI baseline on the
//! tag×resource matrix. The tests take the exact singular values from the
//! dense eigensolver on `AᵀA`.

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;
use crate::subspace::{sym_eigs_topk, SubspaceOptions, SymOp};
use crate::Result;

/// A (possibly truncated) singular value decomposition `A ≈ U Σ Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, one per column (`m x k`).
    pub u: Matrix,
    /// Singular values in descending order (length `k`).
    pub singular_values: Vec<f64>,
    /// Right singular vectors, one per column (`n x k`).
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs `U Σ Vᵀ` densely (tests / tiny inputs only).
    pub fn reconstruct(&self) -> Result<Matrix> {
        let sigma = Matrix::from_diag(&self.singular_values);
        self.u.matmul(&sigma)?.matmul(&self.v.transpose())
    }

    /// Rank of the decomposition (number of retained singular values).
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }
}

/// A linear operator `A: R^n → R^m` that can be applied (and transposed-
/// applied) to dense blocks. Implemented by sparse and dense matrices.
pub trait LinOp {
    /// Output dimension `m`.
    fn out_dim(&self) -> usize;
    /// Input dimension `n`.
    fn in_dim(&self) -> usize;
    /// `A * X` where `X` is `n x b`.
    fn apply(&self, x: &Matrix) -> Matrix;
    /// `Aᵀ * Y` where `Y` is `m x b`.
    fn apply_t(&self, y: &Matrix) -> Matrix;
    /// [`Self::apply`] into a caller-owned buffer (resized + overwritten);
    /// override to skip the per-call allocation in iterative solvers.
    fn apply_into(&self, x: &Matrix, out: &mut Matrix) {
        *out = self.apply(x);
    }
    /// [`Self::apply_t`] into a caller-owned buffer (resized + overwritten).
    fn apply_t_into(&self, y: &Matrix, out: &mut Matrix) {
        *out = self.apply_t(y);
    }
}

impl LinOp for Matrix {
    fn out_dim(&self) -> usize {
        self.rows()
    }
    fn in_dim(&self) -> usize {
        self.cols()
    }
    fn apply(&self, x: &Matrix) -> Matrix {
        self.matmul(x).expect("LinOp apply: dimension mismatch")
    }
    fn apply_t(&self, y: &Matrix) -> Matrix {
        // Transpose-free kernel; bit-identical to materializing the
        // transpose and multiplying, without the per-call copy.
        self.matmul_tn(y)
            .expect("LinOp apply_t: dimension mismatch")
    }
    fn apply_into(&self, x: &Matrix, out: &mut Matrix) {
        self.matmul_into(x, out)
            .expect("LinOp apply: dimension mismatch")
    }
    fn apply_t_into(&self, y: &Matrix, out: &mut Matrix) {
        self.matmul_tn_into(y, out)
            .expect("LinOp apply_t: dimension mismatch")
    }
}

impl LinOp for CsrMatrix {
    fn out_dim(&self) -> usize {
        self.rows()
    }
    fn in_dim(&self) -> usize {
        self.cols()
    }
    fn apply(&self, x: &Matrix) -> Matrix {
        self.matmul_dense(x)
            .expect("LinOp apply: dimension mismatch")
    }
    fn apply_t(&self, y: &Matrix) -> Matrix {
        self.matmul_dense_t(y)
            .expect("LinOp apply_t: dimension mismatch")
    }
    fn apply_into(&self, x: &Matrix, out: &mut Matrix) {
        self.matmul_dense_into(x, out)
            .expect("LinOp apply: dimension mismatch")
    }
    fn apply_t_into(&self, y: &Matrix, out: &mut Matrix) {
        self.matmul_dense_t_into(y, out)
            .expect("LinOp apply_t: dimension mismatch")
    }
}

/// Top-`k` singular triplets of a large operator via subspace iteration on
/// the smaller of its two Gram operators.
pub fn truncated_svd(a: &dyn LinOp, k: usize, opts: &SubspaceOptions) -> Result<Svd> {
    let (m, n) = (a.out_dim(), a.in_dim());
    let k = k.min(m).min(n);
    if k == 0 {
        return Err(LinAlgError::InvalidArgument(
            "truncated_svd requires k >= 1 and a non-empty matrix".into(),
        ));
    }
    struct OpGram<'a> {
        op: &'a dyn LinOp,
        /// true → iterate on AᵀA (n x n), else on AAᵀ (m x m).
        inner: bool,
        /// Reused intermediate (`A X` or `Aᵀ Y`) across applies.
        scratch: std::cell::RefCell<Matrix>,
    }
    impl SymOp for OpGram<'_> {
        fn dim(&self) -> usize {
            if self.inner {
                self.op.in_dim()
            } else {
                self.op.out_dim()
            }
        }
        fn apply_block_into(&self, x: &Matrix, out: &mut Matrix) {
            let mut mid = self.scratch.borrow_mut();
            if self.inner {
                self.op.apply_into(x, &mut mid);
                self.op.apply_t_into(&mid, out);
            } else {
                self.op.apply_t_into(x, &mut mid);
                self.op.apply_into(&mid, out);
            }
        }
    }
    let inner = n <= m;
    let gram = OpGram {
        op: a,
        inner,
        scratch: std::cell::RefCell::new(Matrix::zeros(0, 0)),
    };
    let eigs = sym_eigs_topk(&gram, k, opts)?;
    let singular_values: Vec<f64> = eigs.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
    // Columns for (near-)zero singular values come out as zero vectors from
    // the Σ⁻¹ rescaling; rank-deficient inputs then need an orthonormal
    // completion so callers (HOOI factor updates) always receive a full
    // orthonormal basis.
    let needs_completion = singular_values
        .iter()
        .any(|&s| s <= 1e-10 * singular_values.first().copied().unwrap_or(1.0).max(1e-300));

    if inner {
        // Eigenvectors are V; recover U = A V Σ⁻¹.
        let v = eigs.vectors;
        let mut u = scale_cols_by_inverse(a.apply(&v), &singular_values);
        if needs_completion {
            crate::qr::orthonormalize_columns(&mut u);
        }
        Ok(Svd {
            u,
            singular_values,
            v,
        })
    } else {
        // Eigenvectors are U; recover V = Aᵀ U Σ⁻¹.
        let u = eigs.vectors;
        let mut v = scale_cols_by_inverse(a.apply_t(&u), &singular_values);
        if needs_completion {
            crate::qr::orthonormalize_columns(&mut v);
        }
        Ok(Svd {
            u,
            singular_values,
            v,
        })
    }
}

/// Divides each column by the corresponding singular value (columns with a
/// vanishing singular value are zeroed — they carry no energy), in place,
/// row by row.
fn scale_cols_by_inverse(mut m: Matrix, sigma: &[f64]) -> Matrix {
    let inv: Vec<f64> = sigma
        .iter()
        .map(|&s| if s > 1e-12 { 1.0 / s } else { 0.0 })
        .collect();
    let cols = m.cols();
    for row in m.as_mut_slice().chunks_exact_mut(cols.max(1)) {
        for (x, &inv) in row.iter_mut().zip(&inv) {
            *x *= inv;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::tests::jacobi_eigen_reference;
    use crate::subspace::GramOp;

    fn sample() -> Matrix {
        Matrix::from_rows(&[
            vec![3.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 3.0],
            vec![2.0, 0.0, -1.0],
        ])
        .unwrap()
    }

    /// Every singular value of `a`, descending: square roots of the
    /// Jacobi oracle's eigenvalues of `AᵀA`.
    fn jacobi_singular_values(a: &Matrix) -> Vec<f64> {
        jacobi_eigen_reference(&a.gram(), 1e-15)
            .values
            .iter()
            .map(|l| l.max(0.0).sqrt())
            .collect()
    }

    #[test]
    fn truncated_matches_jacobi_on_dense() {
        let a = sample();
        let full = jacobi_singular_values(&a);
        let trunc = truncated_svd(&a, 2, &SubspaceOptions::default()).unwrap();
        assert!((trunc.singular_values[0] - full[0]).abs() < 1e-6);
        assert!((trunc.singular_values[1] - full[1]).abs() < 1e-6);
        // Best rank-2 approximation error must equal the discarded σ₃.
        let recon = trunc.reconstruct().unwrap();
        let err = recon.sub(&a).unwrap().frobenius_norm();
        assert!((err - full[2]).abs() < 1e-5);
    }

    #[test]
    fn truncated_on_sparse_matches_dense() {
        let triples = [
            (0usize, 0usize, 1.0),
            (0, 3, 2.0),
            (1, 1, 3.0),
            (2, 2, -1.0),
            (3, 0, 0.5),
            (4, 3, 1.5),
        ];
        let sp = CsrMatrix::from_triples(5, 4, &triples).unwrap();
        let dense = sp.to_dense();
        let s1 = truncated_svd(&sp, 3, &SubspaceOptions::default()).unwrap();
        let s2 = jacobi_singular_values(&dense);
        assert_eq!(s1.singular_values.len(), 3);
        for (i, (a, b)) in s1.singular_values.iter().zip(&s2).enumerate() {
            assert!((a - b).abs() < 1e-6, "σ{i}: {a} vs {b}");
        }
    }

    #[test]
    fn truncated_rejects_k_zero() {
        let a = sample();
        assert!(truncated_svd(&a, 0, &SubspaceOptions::default()).is_err());
    }

    #[test]
    fn gram_op_is_reused_by_svd() {
        // Smoke test that the GramOp helpers stay consistent with LinOp SVD.
        let triples = [(0usize, 0usize, 2.0), (1, 1, 1.0), (2, 0, 1.0)];
        let sp = CsrMatrix::from_triples(3, 2, &triples).unwrap();
        let svd = truncated_svd(&sp, 2, &SubspaceOptions::default()).unwrap();
        let gram = GramOp::inner(&sp);
        let eig = sym_eigs_topk(&gram, 2, &SubspaceOptions::default()).unwrap();
        for i in 0..2 {
            assert!((svd.singular_values[i].powi(2) - eig.values[i]).abs() < 1e-6);
        }
    }
}
