//! Truncated singular value decomposition.
//!
//! Both routes take the top-`k` singular triplets from the Gram of the
//! matrix's smaller side, `AᵀA` or `AAᵀ`, and recover the other side as
//! `A V Σ⁻¹` (or `Aᵀ U Σ⁻¹`), completed to a full orthonormal basis where
//! `A` is rank-deficient:
//!
//! * [`truncated_svd`] iterates on the Gram *operator*, applied and never
//!   formed (subspace iteration). It serves operators that can only be
//!   applied — the LSI baseline's sparse tag×resource matrix — and is the
//!   fallback of the dense route.
//! * [`dense_truncated_svd`] serves a materialised dense matrix (Tucker
//!   ALS's HOOI products). When a rule on its shape says so it forms the
//!   Gram once with the tiled [`Matrix::matmul_tn`] and solves it exactly
//!   with [`top_eigenpairs`]: no iteration budget, no convergence test.
//!   Otherwise it runs [`truncated_svd`]. It reports which route ran.
//!
//! The tests take the exact singular values from the dense eigensolver on
//! `AᵀA`.

use crate::eigen::top_eigenpairs;
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
    Ok(iterative_svd(a, k, opts)?.0)
}

/// How [`dense_truncated_svd`] solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvdRoute {
    /// One Gram of the smaller side, solved by [`top_eigenpairs`].
    Gram,
    /// Subspace iteration on the Gram operator ([`truncated_svd`]), with
    /// the operator applies it ran.
    Iterative {
        /// Operator applies of the solve.
        applies: usize,
    },
}

/// The dense eigensolve's cost per `s³`, in multiply–adds of the Gram. The
/// tridiagonalisation's `(4/3)·s³` run as rank-2 updates and matrix–vector
/// products that stream the matrix, scalar, where the Gram's register tiles
/// run at the full vector width. Measured 2.4–4.4 for `s` from 200 to 447
/// on HOOI's products (AVX-512F, 2 threads).
const EIGEN_WEIGHT: u128 = 4;

/// An iterative solve's cost in Gram operator applies of `2·b·s·L`
/// multiply–adds each. An apply runs at about half the Gram's rate per
/// multiply–add (its block is `b` columns wide, and the orthonormalisation
/// and the projections ride along), and HOOI's solves ran 4–40 applies: 10
/// applies at twice the cost.
const ITERATIVE_WEIGHT: u128 = 20;

/// Whether the Gram route of [`dense_truncated_svd`] is cheaper than
/// subspace iteration for an `m × n` matrix and a block of `block = k +
/// oversample` columns. A function of the shape alone, so the route never
/// depends on the data, the thread count or the CPU.
///
/// With `s = min(m, n)`, `L = max(m, n)` and the block clamped to `s`:
///
/// * the Gram route costs `s²·L` multiply–adds to form the Gram plus
///   `EIGEN_WEIGHT·s³` for its eigensolve;
/// * the iterative route costs `ITERATIVE_WEIGHT` applies of the Gram
///   operator, `2·b·s·L` each (one product with `A`, one with `Aᵀ`).
///
/// The Gram's route wins ties. On the measured shapes this picks the faster
/// route: the Gram for `390 × 72`, `453 × 64`, `6 459 × 64`, `200 × 480`
/// (k = 8) and `447 × 2 116` (k = 46); iteration for `366 × 512` and
/// `236 × 512` (k = 8), whose eigensolve costs more than the applies it
/// saves, and for `300 × 480`, where the two are about even.
pub(crate) fn gram_is_cheaper(m: usize, n: usize, block: usize) -> bool {
    let (s, l) = (m.min(n) as u128, m.max(n) as u128);
    let b = (block as u128).min(s);
    s * s * l + EIGEN_WEIGHT * s * s * s <= ITERATIVE_WEIGHT * 2 * b * s * l
}

/// Top-`k` singular triplets of a dense matrix, and the route that found
/// them. When the shape rule `gram_is_cheaper` holds for `(m, n, k +
/// opts.oversample)`,
/// the Gram of the smaller side is formed with [`Matrix::matmul_tn`]
/// (exactly symmetric: both triangles sum the same products in the same
/// order) and its top `k` eigenpairs come from [`top_eigenpairs`];
/// otherwise this is [`truncated_svd`]. Either way the result is a function
/// of the arguments alone: the same bits at every thread count.
pub fn dense_truncated_svd(
    a: &Matrix,
    k: usize,
    opts: &SubspaceOptions,
) -> Result<(Svd, SvdRoute)> {
    let (m, n) = a.shape();
    if !gram_is_cheaper(m, n, k + opts.oversample) {
        let (svd, applies) = iterative_svd(a, k, opts)?;
        return Ok((svd, SvdRoute::Iterative { applies }));
    }
    let k = clamp_rank(k, m, n)?;
    let inner = n <= m;
    let gram = if inner {
        a.matmul_tn(a)?
    } else {
        let at = a.transpose();
        at.matmul_tn(&at)?
    };
    let eig = top_eigenpairs(gram, k)?;
    Ok((
        from_gram_eigenpairs(a, inner, &eig.values, eig.vectors),
        SvdRoute::Gram,
    ))
}

/// `k` clamped to the smaller side; an error when nothing is left.
fn clamp_rank(k: usize, m: usize, n: usize) -> Result<usize> {
    let k = k.min(m).min(n);
    if k == 0 {
        return Err(LinAlgError::InvalidArgument(
            "truncated_svd requires k >= 1 and a non-empty matrix".into(),
        ));
    }
    Ok(k)
}

/// [`truncated_svd`] with the operator applies its subspace iteration ran.
fn iterative_svd(a: &dyn LinOp, k: usize, opts: &SubspaceOptions) -> Result<(Svd, usize)> {
    let (m, n) = (a.out_dim(), a.in_dim());
    let k = clamp_rank(k, m, n)?;
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
    let svd = from_gram_eigenpairs(a, inner, &eigs.values, eigs.vectors);
    Ok((svd, eigs.iterations))
}

/// Smallest `σ_k / σ₁` whose recovered column is trusted to be orthogonal
/// to the others. Recovering a side through `Σ⁻¹` amplifies the Gram's
/// rounding: columns `i` and `j` are orthogonal only to about
/// `ε·σ₁² / (σᵢ σⱼ)`, which past a ratio of `10⁴` exceeds `ε·10⁸ ≈ 2e-8`.
const RECOVERY_RATIO: f64 = 1e-4;

/// `A ≈ U Σ Vᵀ` from the top eigenpairs of one of `A`'s Grams: of `AᵀA`
/// when `inner` (the eigenvectors are `V`), else of `AAᵀ` (they are `U`).
///
/// * **σ** is `√λ`. A Gram eigenvalue is known to about `ε·L·λ₁` (its
///   entries are sums of `L` products, `L` the larger side), so a
///   `σ ≤ σ₁·√(ε·L)` is indistinguishable from 0 and reads as 0.
/// * **The other side** is `A V Σ⁻¹` or `Aᵀ U Σ⁻¹`; a column whose σ is 0
///   carries no energy and is zeroed.
/// * **Completion.** When `σ_k < RECOVERY_RATIO·σ₁`, or `σ₁ = 0` (an
///   all-zero `A`), the recovered side is orthonormalised, which also fills
///   the zeroed columns, so callers (HOOI's factor updates) always receive
///   a full orthonormal basis.
fn from_gram_eigenpairs(a: &dyn LinOp, inner: bool, values: &[f64], vectors: Matrix) -> Svd {
    let top = values.first().map_or(0.0, |&l| l.max(0.0).sqrt());
    let zero_floor = top * (f64::EPSILON * a.out_dim().max(a.in_dim()) as f64).sqrt();
    let singular_values: Vec<f64> = values
        .iter()
        .map(|&l| l.max(0.0).sqrt())
        .map(|s| if s > zero_floor { s } else { 0.0 })
        .collect();
    let needs_completion = singular_values
        .last()
        .is_some_and(|&s| top == 0.0 || s < RECOVERY_RATIO * top);
    let recover = |other: Matrix| {
        let mut other = scale_cols_by_inverse(other, &singular_values);
        if needs_completion {
            crate::qr::orthonormalize_columns(&mut other);
        }
        other
    };
    let (u, v) = if inner {
        // The eigenvectors are V; recover U = A V Σ⁻¹.
        let u = recover(a.apply(&vectors));
        (u, vectors)
    } else {
        // The eigenvectors are U; recover V = Aᵀ U Σ⁻¹.
        let v = recover(a.apply_t(&vectors));
        (vectors, v)
    };
    Svd {
        u,
        singular_values,
        v,
    }
}

/// Divides each column by the corresponding singular value (columns with a
/// zero singular value are zeroed — they carry no energy), in place, row by
/// row.
fn scale_cols_by_inverse(mut m: Matrix, sigma: &[f64]) -> Matrix {
    let inv: Vec<f64> = sigma
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
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
    use crate::parallel::{set_num_threads, TEST_THREAD_LOCK};
    use crate::qr::orthonormality_error;
    use crate::subspace::GramOp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        // Smoke test that the GramOp helper stays consistent with LinOp SVD:
        // the outer Gram of Aᵀ is AᵀA, whose eigenvalues are the σ².
        let triples = [(0usize, 0usize, 2.0), (1, 1, 1.0), (2, 0, 1.0)];
        let sp = CsrMatrix::from_triples(3, 2, &triples).unwrap();
        let svd = truncated_svd(&sp, 2, &SubspaceOptions::default()).unwrap();
        let spt = sp.transpose();
        let gram = GramOp::outer(&spt);
        let eig = sym_eigs_topk(&gram, 2, &SubspaceOptions::default()).unwrap();
        for i in 0..2 {
            assert!((svd.singular_values[i].powi(2) - eig.values[i]).abs() < 1e-6);
        }
    }

    /// A seeded `m × n` matrix whose columns fall off geometrically, so its
    /// spectrum has distinct, well-separated leading values.
    fn graded(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(m, n, |_, j| {
            (rng.gen::<f64>() - 0.5) * 0.8f64.powi(j as i32)
        })
    }

    /// Sine of the largest principal angle between the column spaces of two
    /// orthonormal bases: `‖(I − A Aᵀ) B‖₂`.
    fn sin_largest_principal_angle(a: &Matrix, b: &Matrix) -> f64 {
        let resid = b.sub(&a.matmul(&a.matmul_tn(b).unwrap()).unwrap()).unwrap();
        top_eigenpairs(resid.gram(), 1).unwrap().values[0]
            .max(0.0)
            .sqrt()
    }

    /// Settings under which subspace iteration converges far past the
    /// precision the comparisons ask for.
    fn tight() -> SubspaceOptions {
        SubspaceOptions {
            tol: 1e-13,
            max_iters: 400,
            ..Default::default()
        }
    }

    #[test]
    fn gram_route_matches_subspace_iteration_on_both_sides() {
        // n ≤ m solves AᵀA and recovers U; m < n solves AAᵀ and recovers V.
        for (m, n) in [(90, 30), (30, 90)] {
            let a = graded(m, n, 11);
            let (gram, route) = dense_truncated_svd(&a, 6, &tight()).unwrap();
            assert_eq!(route, SvdRoute::Gram, "{m} × {n}");
            let iterative = truncated_svd(&a, 6, &tight()).unwrap();
            for (x, y) in gram.singular_values.iter().zip(&iterative.singular_values) {
                assert!((x - y).abs() <= 1e-10 * y, "{m} × {n}: σ {x} vs {y}");
            }
            for (side, p, q) in [("U", &gram.u, &iterative.u), ("V", &gram.v, &iterative.v)] {
                assert!(orthonormality_error(p) < 1e-10, "{m} × {n}: {side}");
                let sin = sin_largest_principal_angle(q, p);
                assert!(sin < 1e-8, "{m} × {n}: {side} principal angle {sin:e}");
            }
        }
    }

    #[test]
    fn gram_route_completes_a_rank_deficient_basis() {
        // Rank 3, six pairs asked: three directions carry no energy and
        // come back as an orthonormal completion, on either side.
        let rank3 = graded(70, 3, 5).matmul(&graded(3, 40, 6)).unwrap();
        for a in [rank3.clone(), rank3.transpose()] {
            let (svd, route) = dense_truncated_svd(&a, 6, &SubspaceOptions::default()).unwrap();
            assert_eq!(route, SvdRoute::Gram);
            assert_eq!(svd.u.shape(), (a.rows(), 6));
            assert_eq!(svd.v.shape(), (a.cols(), 6));
            assert!(orthonormality_error(&svd.u) < 1e-10);
            assert!(orthonormality_error(&svd.v) < 1e-10);
            let err = svd.reconstruct().unwrap().sub(&a).unwrap().frobenius_norm();
            assert!(
                err < 1e-10 * a.frobenius_norm(),
                "reconstruction error {err:e}"
            );
        }
    }

    #[test]
    fn zero_matrix_gets_an_orthonormal_basis() {
        // σ₁ = 0: every σ is 0, and the recovered side must still come back
        // as a full orthonormal completion, on either route, whichever side
        // is the smaller.
        let opts = SubspaceOptions::default();
        for (m, n) in [(5, 3), (3, 5), (40, 600), (600, 40)] {
            let a = Matrix::zeros(m, n);
            let (gram, route) = dense_truncated_svd(&a, 2, &opts).unwrap();
            assert_eq!(route, SvdRoute::Gram, "{m} × {n}");
            let iterative = truncated_svd(&a, 2, &opts).unwrap();
            for (name, svd) in [("Gram", &gram), ("iterative", &iterative)] {
                assert_eq!(svd.singular_values, [0.0; 2], "{name}, {m} × {n}");
                for (side, basis) in [("U", &svd.u), ("V", &svd.v)] {
                    let err = orthonormality_error(basis);
                    assert!(err < 1e-10, "{name}, {m} × {n}: {side} off by {err:e}");
                }
            }
        }
    }

    #[test]
    fn gram_route_is_bit_identical_at_any_thread_count() {
        // 600 × 90 puts the Gram's product above the banding threshold on
        // both sides.
        let cases = [graded(600, 90, 3), graded(90, 600, 4)];
        let _guard = TEST_THREAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let runs: Vec<Vec<Svd>> = [1, 2, 4]
            .iter()
            .map(|&threads| {
                set_num_threads(threads);
                cases
                    .iter()
                    .map(|a| {
                        let (svd, route) =
                            dense_truncated_svd(a, 8, &SubspaceOptions::default()).unwrap();
                        assert_eq!(route, SvdRoute::Gram);
                        svd
                    })
                    .collect()
            })
            .collect();
        set_num_threads(0);
        let bits = |svd: &Svd| -> Vec<u64> {
            let values = svd.u.as_slice().iter().chain(svd.v.as_slice());
            values
                .chain(&svd.singular_values)
                .map(|x| x.to_bits())
                .collect()
        };
        for run in &runs[1..] {
            for (i, (got, want)) in run.iter().zip(&runs[0]).enumerate() {
                assert!(bits(got) == bits(want), "case {i}");
            }
        }
    }

    #[test]
    fn route_rule_on_measured_shapes() {
        let block = |k: usize| k + SubspaceOptions::default().oversample;
        // The Gram: every update of the balanced benchmark build, the
        // resource mode of the Tucker-bound one, delicious at 0.02.
        for (m, n, k, gram) in [
            (390, 72, 8, true),
            (6_459, 64, 8, true),
            (447, 2_116, 46, true),
            // Subspace iteration: the Tucker-bound build's modes 1 and 2.
            (366, 512, 8, false),
            (236, 512, 8, false),
        ] {
            assert_eq!(gram_is_cheaper(m, n, block(k)), gram, "{m} × {n}, k = {k}");
            assert_eq!(gram_is_cheaper(n, m, block(k)), gram, "{n} × {m}, k = {k}");
        }
    }
}
