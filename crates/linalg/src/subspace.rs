//! Block subspace iteration for the leading eigenpairs of large symmetric
//! positive semi-definite operators.
//!
//! This is the eigensolver for operators that can only be applied. HOSVD
//! initialization, truncated SVD for the LSI baseline and the HOOI/ALS mode
//! updates whose Gram would cost more to form than to iterate on all
//! reduce to "top-k eigenvectors of a big symmetric operator that we can
//! only afford to apply, never materialize". (The spectral clustering
//! affinity is dense and already materialized, and so is the Gram of the
//! other HOOI updates; both are solved directly by
//! [`crate::eigen::top_eigenpairs`].)
//!
//! The operator abstraction [`SymOp`] takes a whole `n x b` block at a time,
//! which lets implementations amortize sparse traversals across the block.
//!
//! One loop serves both callers: orthonormalise the block, project
//! (Rayleigh–Ritz: `B = Qᵀ A Q`, all `b` eigenpairs of `B` by the dense
//! [`top_eigenpairs`], `Q ← A Q U`), stop when two consecutive projections
//! agree to `tol`. The callers differ in what advances the block *between*
//! two projections:
//!
//! * [`sym_eigs_topk`] — nothing: every apply is a projection (LSI, and
//!   the HOOI updates [`crate::svd::dense_truncated_svd`] iterates on, which
//!   converge in 4–40 applies).
//! * [`sym_eigs_filtered`] — a Chebyshev filter (HOSVD). A flat spectral
//!   tail (`λ_k / λ_{b+1}` a few percent above 1, what a folksonomy's mode-3
//!   unfolding has) makes a power step gain those few percent on the last
//!   wanted vector; `T_m` of the operator mapped so that the unwanted
//!   interval `[0, c]` lands on `[−1, 1]` stays bounded by 1 there and grows
//!   like `e^{m·acosh(2λ/c − 1)}` above it — per apply `e^{acosh(…)}`, about
//!   `1 + 2·√(λ/c − 1)` near the cut, instead of `λ/c`.
//!
//!   *The cut* `c` is the smallest Ritz value of the block at the last
//!   projection. The operator is PSD, so 0 is an exact lower edge, and the
//!   `b`-th Ritz value never exceeds `λ_b` (Cauchy interlacing), so the
//!   damped interval never reaches a direction the block is after, however
//!   rough the estimates are — no spectrum bound is estimated.
//!
//!   *The degree* is chosen each cycle from the same Ritz values: the largest
//!   `m ≤ CHEBYSHEV_MAX_DEGREE` with `T_m(x₁) / T_m(x_k) ≤ CHEBYSHEV_RANGE`,
//!   `x_j = 2θ_j/c − 1`. Every column carries some of
//!   the leading eigenvector, and the filter grows that part `T_m(x₁)/T_m(x_k)`
//!   times faster than what column `k` is there for; the Gram–Schmidt that
//!   follows subtracts it again and keeps `16 − log₁₀(ratio)` of column
//!   `k`'s digits. At 1e8 half of them survive a cycle that starts from a
//!   column with an `O(1)` share of `v₁` (the first ones do), which the
//!   next cycles then refine. The degree moves with the constant's
//!   logarithm, so the work barely depends on it: on the benchmark's mode-3
//!   unfolding 48 applies at 1e6, 46 at 1e8, 45 at 1e10, 42 at 1e12 (12, 8,
//!   7 and 6 projections), and 57 / 19 only at 1e4. Degree 1, a block as
//!   wide as the operator (nothing to damp), a non-positive cut (rank
//!   below the block width) and the first cycle from the random start (no
//!   Ritz values yet) run the plain power step.
//!
//!   The three-term recurrence needs the two previous iterates and the
//!   applied block: exactly the three `n × b` buffers the projection owns
//!   (block, applied block, Ritz-rotation target), so filtering allocates
//!   nothing.
//!
//! Those three blocks are all the solve holds at that size. Every
//! orthonormalisation runs in the storage of the rotation target, whose
//! contents are dead there ([`orthonormalize_columns_in`]), the closing
//! rotation writes into it, and [`GramOp`] applies through an
//! intermediate one column panel wide (at most 63 columns), not `b` wide.

use crate::dispatch;
use crate::eigen::{top_eigenpairs, EigenDecomposition};
use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::qr::{orthonormalize_columns_in, panel_scratch};
use crate::sparse::CsrMatrix;
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A symmetric linear operator applied block-wise.
pub trait SymOp {
    /// Dimension `n` of the operator.
    fn dim(&self) -> usize;
    /// Applies the operator to every column of the `n x b` block `x`,
    /// writing into `out` (resized and overwritten). Implementations must
    /// not read `out`'s previous contents, so callers can reuse one scratch
    /// buffer across iterations.
    fn apply_block_into(&self, x: &Matrix, out: &mut Matrix);
    /// Allocating convenience wrapper around [`Self::apply_block_into`].
    fn apply_block(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.dim(), x.cols());
        self.apply_block_into(x, &mut out);
        out
    }
}

/// The outer Gram operator `A Aᵀ` of a sparse matrix, applied implicitly
/// so the Gram matrix itself is never formed (the HOSVD's operator).
///
/// It keeps `Aᵀ` as a CSR matrix of its own and computes `A (Aᵀ X)` one
/// column panel of `X` at a time (32 columns, the last panel up to 63),
/// as two row-banded gathers through one reused `cols × panel` scratch
/// matrix (a row of `Aᵀ` lists `A`'s rows in ascending order;
/// [`CsrMatrix::gram_apply_into`]).
/// Every output element accumulates in exactly the order of the two
/// materialized sparse–dense products, so the result is **bit-identical**
/// to them at any thread count — the tests hold it there.
pub struct GramOp<'a> {
    matrix: &'a CsrMatrix,
    /// `Aᵀ`, stored.
    transpose: CsrMatrix,
    /// Reused intermediate: one column panel of `Aᵀ X`.
    scratch: std::cell::RefCell<Matrix>,
}

impl<'a> GramOp<'a> {
    /// Operator `A Aᵀ` over the row space of `a`.
    pub fn outer(a: &'a CsrMatrix) -> Self {
        GramOp {
            matrix: a,
            transpose: a.transpose(),
            scratch: std::cell::RefCell::new(Matrix::zeros(0, 0)),
        }
    }
}

impl SymOp for GramOp<'_> {
    fn dim(&self) -> usize {
        self.matrix.rows()
    }

    fn apply_block_into(&self, x: &Matrix, out: &mut Matrix) {
        self.matrix
            .gram_apply_into(&self.transpose, x, &mut self.scratch.borrow_mut(), out);
    }
}

/// Result of [`sym_eigs_topk`] and its siblings.
#[derive(Debug, Clone)]
pub struct TopkEigen {
    /// Leading eigenvalues in descending order (length `k`).
    pub values: Vec<f64>,
    /// `n x k` matrix of corresponding orthonormal eigenvectors.
    pub vectors: Matrix,
    /// Operator applies of the iteration (the closing Rayleigh–Ritz's one
    /// is not counted), projections and the steps between them alike.
    pub iterations: usize,
    /// How many of those applies were Rayleigh–Ritz projections.
    pub projections: usize,
    /// The Chebyshev degree run before each projection that had one, in
    /// order; empty unless the solve was [`sym_eigs_filtered`].
    pub degrees: Vec<usize>,
    /// `false` when the iteration ran into `max_iters` instead of meeting
    /// the stop rule; the pairs are then the best the budget bought.
    pub converged: bool,
    /// Where the solve's time went.
    pub times: SolveTimes,
}

/// Wall time of one subspace solve, split by the three things it does.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveTimes {
    /// Operator applies: the filter's (with the Chebyshev recurrence) and
    /// the projections', the closing one included.
    pub apply: Duration,
    /// Orthonormalising (and, between projections, normalising) the block.
    pub orth: Duration,
    /// Rayleigh–Ritz: `QᵀZ`, the small eigensolve and the rotation onto
    /// the Ritz vectors.
    pub project: Duration,
}

/// Runs `f`, adding its wall time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Options controlling [`sym_eigs_topk`].
#[derive(Debug, Clone)]
pub struct SubspaceOptions {
    /// Extra block width beyond `k` to accelerate convergence.
    pub oversample: usize,
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Relative change in the Ritz values below which iteration stops
    /// ([`sym_eigs_filtered`] measures it against at least `1e-6·|θ₁|`).
    pub tol: f64,
    /// Seed for the random starting block.
    pub seed: u64,
}

impl Default for SubspaceOptions {
    fn default() -> Self {
        SubspaceOptions {
            oversample: 8,
            max_iters: 200,
            tol: 1e-8,
            seed: 0x5eed_cafe,
        }
    }
}

/// Computes the `k` leading eigenpairs of a symmetric PSD operator using
/// block subspace iteration with a Rayleigh–Ritz projection.
///
/// The operator is applied once per iteration to an `n x (k + oversample)`
/// block; convergence is declared when the top-`k` Ritz values change by
/// less than `tol` relatively between iterations.
pub fn sym_eigs_topk(op: &dyn SymOp, k: usize, opts: &SubspaceOptions) -> Result<TopkEigen> {
    subspace_iterate(op, k, opts, false)
}

/// Block subspace iteration with a **Chebyshev filter** between projections
/// (module docs: the cut, the degree, the cases that fall back to the power
/// step). Same start block, tolerance and closing Rayleigh–Ritz as
/// [`sym_eigs_topk`], a fraction of its operator applies and projections
/// when the spectrum's tail is flat. The stop rule measures a Ritz value's
/// change against the value or `1e-6·|θ₁|` (θ₁ the leading one), whichever
/// is larger, so a rank below `k` converges instead of running out of
/// budget. For PSD operators only: the damped interval's lower edge is
/// taken to be 0.
pub fn sym_eigs_filtered(op: &dyn SymOp, k: usize, opts: &SubspaceOptions) -> Result<TopkEigen> {
    subspace_iterate(op, k, opts, true)
}

/// Largest Chebyshev degree a cycle takes. The range rule decides below it;
/// the cap bounds a cycle when the wanted values are well apart from the cut
/// and the ratio grows slowly. A degree is planned from one projection's
/// Ritz values and the first ones are rough (after the first projection the
/// cut is far below `λ_b` and the filter is little more than that many
/// power steps), so applies past 8 mostly go to a plan the next projection
/// would have corrected: at 12 the benchmark's mode 2 takes 26 applies for
/// 19, the 137 332-row mode 3 of README's hand run 42 for 38.
const CHEBYSHEV_MAX_DEGREE: usize = 8;

/// Largest `T_m(x₁) / T_m(x_k)` a cycle may reach (module docs: half of a
/// double's digits left for column `k` after the Gram–Schmidt).
const CHEBYSHEV_RANGE: f64 = 1e8;

/// Largest `ln T_m(x₁)`: the iterates grow by up to `T_m(x₁)` and
/// orthonormalisation squares them, so 1e100 keeps both finite.
const CHEBYSHEV_LN_GROWTH: f64 = 230.0;

/// Degree and cut of the next filter from all `block` Ritz values of a
/// projection (descending) — degree 1 stands for the plain power step and
/// is what every degenerate input comes out as: a zero or negative cut
/// (rank below the block width, to round-off) makes `acosh` infinite or NaN
/// and every comparison below false.
fn plan_filter(ritz: &[f64], k: usize) -> (usize, f64) {
    let cut = ritz[ritz.len() - 1];
    // ln T_m(x) = ln cosh(m·acosh x) for x ≥ 1, without forming cosh.
    let ln_t = |m: usize, acosh_x: f64| {
        let t = m as f64 * acosh_x;
        t + (-2.0 * t).exp().ln_1p() - std::f64::consts::LN_2
    };
    let a1 = (2.0 * ritz[0] / cut - 1.0).acosh();
    let ak = (2.0 * ritz[k - 1] / cut - 1.0).acosh();
    let mut degree = 1;
    while degree < CHEBYSHEV_MAX_DEGREE
        && ln_t(degree + 1, a1) - ln_t(degree + 1, ak) <= CHEBYSHEV_RANGE.ln()
        && ln_t(degree + 1, a1) <= CHEBYSHEV_LN_GROWTH
    {
        degree += 1;
    }
    (degree, cut)
}

/// `q ← T_m((2/c)·A − I) q`, `m = degree ≥ 2`, by the three-term recurrence
/// `Y₁ = L Y₀`, `Yⱼ₊₁ = 2 L Yⱼ − Yⱼ₋₁` with `L = (2/c)·A − I`. `z` receives
/// every applied block and `prev` holds `Yⱼ₋₁` (overwritten in place by
/// `Yⱼ₊₁`, then swapped with `q`); both are left with unspecified contents,
/// and `prev` need not have `q`'s shape on entry.
fn chebyshev_filter(
    op: &dyn SymOp,
    degree: usize,
    cut: f64,
    q: &mut Matrix,
    z: &mut Matrix,
    prev: &mut Matrix,
) {
    let s = 2.0 / cut;
    prev.resize_for_overwrite(q.rows(), q.cols());
    op.apply_block_into(q, z);
    for ((y1, &az), &y0) in prev
        .as_mut_slice()
        .iter_mut()
        .zip(z.as_slice())
        .zip(q.as_slice())
    {
        *y1 = s * az - y0;
    }
    std::mem::swap(q, prev);
    for _ in 1..degree {
        op.apply_block_into(q, z);
        for ((y, &az), &y1) in prev
            .as_mut_slice()
            .iter_mut()
            .zip(z.as_slice())
            .zip(q.as_slice())
        {
            *y = 2.0 * (s * az - y1) - *y;
        }
        std::mem::swap(q, prev);
    }
}

/// The one iteration behind [`sym_eigs_topk`] and [`sym_eigs_filtered`]:
/// they share the start block, the projection, the stop rule and the
/// closing Rayleigh–Ritz, and differ in whether a Chebyshev filter runs
/// between two projections.
fn subspace_iterate(
    op: &dyn SymOp,
    k: usize,
    opts: &SubspaceOptions,
    filtered: bool,
) -> Result<TopkEigen> {
    let n = op.dim();
    if k == 0 {
        return Err(LinAlgError::InvalidArgument("k must be > 0".into()));
    }
    if k > n {
        return Err(LinAlgError::InvalidArgument(format!(
            "requested {k} eigenpairs of a dimension-{n} operator"
        )));
    }
    let block = (k + opts.oversample).min(n);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut q = Matrix::from_fn(n, block, |_, _| rng.gen::<f64>() - 0.5);
    let mut times = SolveTimes::default();

    // The solve's three `n × block` blocks, reused across every iteration:
    // the iterate `q`, the applied block `z`, and `zu` — the Ritz rotation
    // target, between projections the filter's third block, and at every
    // orthonormalisation (where its contents are dead) Gram–Schmidt's
    // panel-major storage, which is why its capacity is rounded up to whole
    // panels. Plus the small projected matrix.
    let mut zu = panel_scratch(n, block);
    timed(&mut times.orth, || {
        orthonormalize_columns_in(&mut q, &mut zu)
    });
    let mut z = Matrix::zeros(n, block);
    let mut b = Matrix::zeros(block, block);

    let mut prev_ritz = vec![f64::INFINITY; k];
    let mut iterations = 0;
    let mut projections = 0;
    let mut degrees = Vec::new();
    let mut converged = false;
    // Applies to run before the next projection, and the cut they filter
    // below. The filter has no Ritz values to plan from until the first
    // projection, so its first cycle is that projection alone, and without
    // the filter every cycle is.
    let (mut steps, mut cut) = (0, 0.0);
    // Whether `q` currently has orthonormal columns. The steps between
    // projections only rescale column norms, and so does a projection that
    // such a step follows: the twice-applied Gram–Schmidt is paid once a
    // cycle, right before the projection that needs `B = Qᵀ A Q`. Basis
    // conditioning degrades at most by the filter's range constant across
    // a filter (λ₁/λ_b across a single power step), which that
    // Gram–Schmidt absorbs. With no steps in between every apply is a
    // projection and the block is re-orthonormalized after each.
    let mut q_orthonormal = true;
    while iterations < opts.max_iters {
        let run = steps.min(opts.max_iters - iterations);
        if run > 0 {
            degrees.push(run);
            timed(&mut times.apply, || {
                if run > 1 {
                    chebyshev_filter(op, run, cut, &mut q, &mut z, &mut zu);
                } else {
                    // A power step: advance the subspace, skip the projection.
                    op.apply_block_into(&q, &mut z);
                    std::mem::swap(&mut q, &mut z);
                }
            });
            timed(&mut times.orth, || normalize_columns(&mut q));
            q_orthonormal = false;
            iterations += run;
            if iterations == opts.max_iters {
                break;
            }
        }
        if !q_orthonormal {
            timed(&mut times.orth, || {
                orthonormalize_columns_in(&mut q, &mut zu)
            });
        }
        timed(&mut times.apply, || op.apply_block_into(&q, &mut z));
        // Rayleigh–Ritz on the current subspace: B = Qᵀ Z = Qᵀ A Q; rotate
        // the block onto the Ritz vectors and advance: Q ← Z U.
        let eig = timed(&mut times.project, || -> Result<EigenDecomposition> {
            q.matmul_tn_into(&z, &mut b)?;
            let eig = ritz_pairs(&b, block)?;
            z.matmul_into(&eig.vectors, &mut zu)?;
            Ok(eig)
        })?;
        std::mem::swap(&mut q, &mut zu);
        iterations += 1;
        projections += 1;

        let ritz: Vec<f64> = eig.values.iter().take(k).copied().collect();
        // The filtered (HOSVD) solve compares values below 1e-6·|θ₁| on
        // that floor, not on themselves: on a rank-deficient unfolding they
        // are rounding noise around zero, which never agrees with itself
        // relatively. The unfiltered solve (HOOI's iterative updates, LSI)
        // keeps the purely relative rule, and with it the bits of every
        // update that takes it.
        let floor = if filtered { 1e-6 * ritz[0].abs() } else { 0.0 }.max(1e-30);
        let agree = projections > 1
            && ritz.iter().zip(prev_ritz.iter()).all(|(&cur, &prev)| {
                let scale = cur.abs().max(prev.abs()).max(floor);
                (cur - prev).abs() <= opts.tol * scale
            });
        prev_ritz = ritz;
        converged = agree && iterations > 1;
        if filtered {
            // A block as wide as the operator has nothing below it to damp.
            (steps, cut) = if block == n {
                (1, 0.0)
            } else {
                plan_filter(&eig.values, k)
            };
        }
        q_orthonormal = converged || steps == 0;
        timed(&mut times.orth, || {
            if q_orthonormal {
                orthonormalize_columns_in(&mut q, &mut zu);
            } else {
                normalize_columns(&mut q);
            }
        });
        if converged {
            break;
        }
    }

    // Final Rayleigh–Ritz to extract clean eigenpairs from the converged
    // subspace, rotated into the dead `zu`.
    if !q_orthonormal {
        timed(&mut times.orth, || {
            orthonormalize_columns_in(&mut q, &mut zu)
        });
    }
    timed(&mut times.apply, || op.apply_block_into(&q, &mut z));
    let values = timed(&mut times.project, || -> Result<Vec<f64>> {
        q.matmul_tn_into(&z, &mut b)?;
        let eig = ritz_pairs(&b, k)?;
        q.matmul_into(&eig.vectors, &mut zu)?;
        Ok(eig.values)
    })?;
    // The result keeps `k` of the rounded-up capacity's columns; the other
    // two blocks go before it gives the rest back.
    drop((q, z));
    let mut vectors = zu;
    vectors.shrink_to_fit();
    Ok(TopkEigen {
        values,
        vectors,
        iterations,
        projections,
        degrees,
        converged,
        times,
    })
}

/// Rescales every column of `q` to unit Euclidean norm (zero columns are
/// left untouched). Cheap `O(n·b)` conditioning between Rayleigh–Ritz
/// projections.
fn normalize_columns(q: &mut Matrix) {
    let (n, b) = q.shape();
    let mut inv_norms = vec![0.0f64; b];
    debug_assert_eq!(q.as_slice().len(), n * b);
    dispatch::run(
        #[inline(always)]
        || {
            for row in q.as_slice().chunks_exact(b) {
                for (acc, &x) in inv_norms.iter_mut().zip(row.iter()) {
                    *acc += x * x;
                }
            }
            for v in inv_norms.iter_mut() {
                *v = if *v > 0.0 { 1.0 / v.sqrt() } else { 1.0 };
            }
            for row in q.as_mut_slice().chunks_exact_mut(b) {
                for (x, &inv) in row.iter_mut().zip(inv_norms.iter()) {
                    *x *= inv;
                }
            }
        },
    );
}

/// The `k` leading eigenpairs of the projected matrix `b = Qᵀ A Q`,
/// symmetrised first, `(b + bᵀ)/2`, to wash out round-off.
fn ritz_pairs(b: &Matrix, k: usize) -> Result<EigenDecomposition> {
    let n = b.rows();
    top_eigenpairs(
        Matrix::from_fn(n, n, |i, j| (b[(i, j)] + b[(j, i)]) * 0.5),
        k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::tests::jacobi_eigen_reference;
    use crate::qr::orthonormality_error;

    /// A dense symmetric matrix viewed as a [`SymOp`], so the solvers can
    /// be held against the Jacobi oracle on small known spectra.
    struct DenseSymOp<'a> {
        matrix: &'a Matrix,
    }

    impl<'a> DenseSymOp<'a> {
        fn new(matrix: &'a Matrix) -> Self {
            DenseSymOp { matrix }
        }
    }

    impl SymOp for DenseSymOp<'_> {
        fn dim(&self) -> usize {
            self.matrix.rows()
        }

        fn apply_block_into(&self, x: &Matrix, out: &mut Matrix) {
            self.matrix.matmul_into(x, out).unwrap()
        }
    }

    fn spd_matrix() -> Matrix {
        // B Bᵀ + small diagonal: SPD with a clear spectral gap.
        let b = Matrix::from_rows(&[
            vec![5.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0],
            vec![0.0, 0.0, 0.5],
            vec![1.0, 1.0, 0.1],
            vec![0.5, -1.0, 0.2],
        ])
        .unwrap();
        b.gram_t()
    }

    #[test]
    fn topk_matches_full_jacobi() {
        let a = spd_matrix();
        let full = jacobi_eigen_reference(&a, 1e-13);
        let op = DenseSymOp::new(&a);
        let top = sym_eigs_topk(&op, 3, &SubspaceOptions::default()).unwrap();
        for i in 0..3 {
            assert!(
                (top.values[i] - full.values[i]).abs() < 1e-6 * full.values[0].max(1.0),
                "eigenvalue {i}: {} vs {}",
                top.values[i],
                full.values[i]
            );
        }
        assert!(orthonormality_error(&top.vectors) < 1e-8);
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let a = spd_matrix();
        let op = DenseSymOp::new(&a);
        let top = sym_eigs_topk(&op, 2, &SubspaceOptions::default()).unwrap();
        // ‖A v − λ v‖ should be tiny for each returned pair.
        for j in 0..2 {
            let v = top.vectors.col(j);
            let av = a.matvec(&v).unwrap();
            let lambda = top.values[j];
            let residual: f64 = av
                .iter()
                .zip(v.iter())
                .map(|(a, b)| (a - lambda * b).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(residual < 1e-6 * lambda.max(1.0), "residual {residual}");
        }
    }

    #[test]
    fn gram_op_outer_matches_dense() {
        let a = CsrMatrix::from_triples(
            4,
            3,
            &[
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, -1.0),
                (3, 2, 0.5),
            ],
        )
        .unwrap();
        let dense_gram = a.to_dense().gram_t();
        let op = GramOp::outer(&a);
        assert_eq!(op.dim(), 4);
        let top = sym_eigs_topk(&op, 2, &SubspaceOptions::default()).unwrap();
        let full = jacobi_eigen_reference(&dense_gram, 1e-13);
        assert!((top.values[0] - full.values[0]).abs() < 1e-7);
        assert!((top.values[1] - full.values[1]).abs() < 1e-7);
    }

    /// Deterministic pseudo-random CSR matrix and a dense block as tall as
    /// it, for the Gram apply's equivalence tests.
    fn random_csr_and_block(
        rows: usize,
        cols: usize,
        nnz: usize,
        width: usize,
        seed: u64,
    ) -> (CsrMatrix, Matrix) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let triples: Vec<(usize, usize, f64)> = (0..nnz)
            .map(|_| {
                let r = next() as usize % rows;
                let c = next() as usize % cols;
                let v = ((next() >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                (r, c, v)
            })
            .collect();
        let a = CsrMatrix::from_triples(rows, cols, &triples).unwrap();
        let mut state2 = seed ^ 0xdead_beef;
        let x = Matrix::from_fn(rows, width, |_, _| {
            state2 = state2
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state2 >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        (a, x)
    }

    #[test]
    fn fused_gram_apply_bit_identical_to_materialized() {
        for (rows, cols, nnz, width, seed) in [
            (30, 20, 150, 7, 1u64),
            (8, 50, 90, 12, 2),
            (40, 40, 10, 3, 3),
        ] {
            let (a, x) = random_csr_and_block(rows, cols, nnz, width, seed);
            // AAᵀ over R^rows; applied twice to exercise scratch reuse.
            let outer = GramOp::outer(&a);
            let first = outer.apply_block(&x);
            let second = outer.apply_block(&x);
            let reference = a.matmul_dense(&a.matmul_dense_t(&x).unwrap()).unwrap();
            assert!(
                first.approx_eq(&reference, 0.0),
                "outer apply != materialized at {rows}x{cols}"
            );
            assert!(second.approx_eq(&first, 0.0), "outer scratch reuse drifted");
        }
    }

    #[test]
    fn banded_outer_gram_apply_bit_identical_to_materialized() {
        // Every 7th row and every 5th column of A empty; about 34 000
        // entries against a 48-column block put both gathers above the
        // banding threshold (2²⁰ multiply–adds).
        let (rows, cols, width) = (700, 900, 48);
        let (a, x) = random_csr_and_block(rows, cols, 50_000, width, 4);
        let kept: Vec<(usize, usize, f64)> = a
            .iter()
            .filter(|&(r, c, _)| r % 7 != 3 && c % 5 != 1)
            .collect();
        let a = CsrMatrix::from_triples(rows, cols, &kept).unwrap();
        assert!(a.nnz() * width >= 1 << 20);
        let _guard = crate::parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::parallel::set_num_threads(1);
        let reference = a.matmul_dense(&a.matmul_dense_t(&x).unwrap()).unwrap();
        for threads in [1, 4] {
            crate::parallel::set_num_threads(threads);
            let banded = GramOp::outer(&a).apply_block(&x);
            assert!(
                banded.approx_eq(&reference, 0.0),
                "outer gram apply at {threads} threads != materialized"
            );
        }
        crate::parallel::set_num_threads(0);
    }

    /// Records how far from orthonormal every block handed to the operator
    /// was.
    struct Watching<'a> {
        inner: DenseSymOp<'a>,
        worst: std::cell::Cell<f64>,
    }

    impl SymOp for Watching<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn apply_block_into(&self, x: &Matrix, out: &mut Matrix) {
            self.worst
                .set(self.worst.get().max(orthonormality_error(x)));
            self.inner.apply_block_into(x, out);
        }
    }

    #[test]
    fn orthonormalisation_is_lazy_only_between_projections() {
        let a = spd_matrix();
        type Solve = fn(&dyn SymOp, usize, &SubspaceOptions) -> Result<TopkEigen>;
        let watch = |solve: Solve| {
            let op = Watching {
                inner: DenseSymOp::new(&a),
                worst: std::cell::Cell::new(0.0),
            };
            let top = solve(&op, 2, &SubspaceOptions::default());
            assert!(orthonormality_error(&top.unwrap().vectors) < 1e-8);
            op.worst.get()
        };
        // Every apply of `sym_eigs_topk` projects, so every block is
        // orthonormal.
        assert!(watch(sym_eigs_topk) < 1e-10);
        // The filter's steps between projections (here single power steps:
        // the block spans the space) run on merely normalised columns.
        assert!(watch(sym_eigs_filtered) > 1e-3);
    }

    /// Symmetric matrix with exactly the given eigenvalues: `H D H` for a
    /// Householder reflector `H` (orthogonal and symmetric).
    fn with_spectrum(eigs: &[f64]) -> Matrix {
        let n = eigs.len();
        let v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect();
        let vv: f64 = v.iter().map(|x| x * x).sum();
        let h = Matrix::from_fn(n, n, |i, j| {
            (if i == j { 1.0 } else { 0.0 }) - 2.0 * v[i] * v[j] / vv
        });
        h.matmul(&Matrix::from_diag(eigs))
            .unwrap()
            .matmul(&h)
            .unwrap()
    }

    /// Runs the filtered solve and holds it against the dense eigensolve:
    /// converged, finite, orthonormal, the leading values to 1e-6 of λ₁.
    fn filtered_matches_jacobi(a: &Matrix, k: usize, oversample: usize) -> TopkEigen {
        let opts = SubspaceOptions {
            oversample,
            ..Default::default()
        };
        let top = sym_eigs_filtered(&DenseSymOp::new(a), k, &opts).unwrap();
        let full = jacobi_eigen_reference(a, 1e-13);
        assert!(top.converged, "stopped at {} iterations", top.iterations);
        assert!(top.vectors.as_slice().iter().all(|x| x.is_finite()));
        assert!(orthonormality_error(&top.vectors) < 1e-8);
        for i in 0..k {
            assert!(
                (top.values[i] - full.values[i]).abs() <= 1e-6 * full.values[0],
                "eigenvalue {i}: {} vs {}",
                top.values[i],
                full.values[i]
            );
        }
        assert_eq!(
            top.iterations,
            top.projections + top.degrees.iter().sum::<usize>()
        );
        top
    }

    #[test]
    fn filter_survives_rank_below_the_block_width() {
        // Rank 3 under a block of 11: the smallest Ritz value — the cut —
        // is zero to round-off, of either sign.
        let g = Matrix::from_fn(20, 3, |i, j| {
            ((i * i + 7 * j * j + i * j) as f64 * 0.37).sin()
        });
        let top = filtered_matches_jacobi(&g.gram_t(), 3, 8);
        assert!(top.values[2] > 1e-3);
    }

    #[test]
    fn filter_plan_degrades_to_the_power_step() {
        // Cuts a rank-deficient block can produce: zero, round-off of
        // either sign, NaN. Never a division by zero, never a NaN degree.
        for cut in [0.0, -1e-17, f64::NAN] {
            assert_eq!(plan_filter(&[4.0, 3.0, 2.0, cut], 3).0, 1, "cut {cut}");
        }
        // A tiny positive cut: the range rule alone would allow the cap
        // (x₁/x_k ≈ 2), the growth bound keeps T_m(x₁)² finite.
        let (degree, cut) = plan_filter(&[4.0, 3.0, 2.0, 1e-30], 3);
        assert!((2..CHEBYSHEV_MAX_DEGREE).contains(&degree), "{degree}");
        let growth = (degree as f64 * (8.0 / cut - 1.0).acosh()).exp();
        assert!((growth * growth).is_finite());
        // A well-separated block runs the cap.
        assert_eq!(
            plan_filter(&[4.0, 3.9, 3.8, 1.0], 3).0,
            CHEBYSHEV_MAX_DEGREE
        );
    }

    #[test]
    fn filter_degree_falls_to_one_on_a_steep_spectrum() {
        // λ₁/λ_b = 1e12 and λ₁/λ_k = 1e6: degree 2 would put 1e12 between
        // column 1 and column k, so every cycle is a power step.
        let mut eigs = vec![1e12, 1e6, 1e4, 1e2, 10.0, 1.0];
        eigs.extend((1..=18).map(|i| 0.5 / i as f64));
        let top = filtered_matches_jacobi(&with_spectrum(&eigs), 2, 4);
        assert!(top.degrees.iter().all(|&d| d == 1), "{:?}", top.degrees);
    }

    #[test]
    fn filter_has_nothing_to_damp_when_the_block_spans_the_space() {
        let top = filtered_matches_jacobi(&spd_matrix(), 2, 8);
        assert!(top.degrees.iter().all(|&d| d == 1), "{:?}", top.degrees);
    }

    #[test]
    fn filter_handles_a_flat_spectrum() {
        // Every eigenvalue equal: x₁ = x_k = 1, the filter is the identity.
        let top = filtered_matches_jacobi(&with_spectrum(&[3.0; 12]), 2, 4);
        assert!((top.values[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn filtered_solve_reports_an_exhausted_budget() {
        let mut eigs: Vec<f64> = (0..40).map(|i| 1.0 + 0.01 * (40 - i) as f64).collect();
        eigs[0] = 2.0;
        let a = with_spectrum(&eigs);
        let opts = SubspaceOptions {
            oversample: 2,
            max_iters: 7,
            ..Default::default()
        };
        let top = sym_eigs_filtered(&DenseSymOp::new(&a), 4, &opts).unwrap();
        assert!(!top.converged);
        assert_eq!(top.iterations, 7);
        assert!(orthonormality_error(&top.vectors) < 1e-8);
        assert!(
            sym_eigs_topk(
                &DenseSymOp::new(&spd_matrix()),
                2,
                &SubspaceOptions::default()
            )
            .unwrap()
            .converged
        );
    }

    #[test]
    fn rejects_bad_k() {
        let a = spd_matrix();
        let op = DenseSymOp::new(&a);
        assert!(sym_eigs_topk(&op, 0, &SubspaceOptions::default()).is_err());
        assert!(sym_eigs_topk(&op, 99, &SubspaceOptions::default()).is_err());
    }

    #[test]
    fn k_equals_n_works() {
        let a = spd_matrix();
        let op = DenseSymOp::new(&a);
        let top = sym_eigs_topk(&op, a.rows(), &SubspaceOptions::default()).unwrap();
        let full = jacobi_eigen_reference(&a, 1e-13);
        for i in 0..a.rows() {
            assert!((top.values[i] - full.values[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = spd_matrix();
        let op = DenseSymOp::new(&a);
        let opts = SubspaceOptions {
            seed: 42,
            ..Default::default()
        };
        let r1 = sym_eigs_topk(&op, 2, &opts).unwrap();
        let r2 = sym_eigs_topk(&op, 2, &opts).unwrap();
        assert_eq!(r1.values, r2.values);
        assert!(r1.vectors.approx_eq(&r2.vectors, 0.0));
    }

    /// The column normalisation at every level the host supports, against
    /// its scalar loop and the baseline level, bit for bit, on blocks whose
    /// width is off the vector widths; wider blocks have a zero column.
    #[test]
    fn normalisation_is_bit_identical_at_every_level() {
        use crate::dispatch::tests::for_each_level;
        use crate::dispatch::Level;
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut cases = Vec::new();
        for (case, &b) in [1usize, 3, 5, 9, 47, 49, 73].iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(case as u64);
            let mut q = Matrix::from_fn(301, b, |_, _| rng.gen::<f64>() - 0.5);
            if b > 3 {
                q.set_col(2, &[0.0; 301]);
            }
            // The loop the dispatched kernel replaced.
            let mut want = q.clone();
            let mut sums = vec![0.0f64; b];
            for row in want.as_slice().chunks_exact(b) {
                for (acc, &x) in sums.iter_mut().zip(row) {
                    *acc += x * x;
                }
            }
            for row in want.as_mut_slice().chunks_exact_mut(b) {
                for (x, &sum) in row.iter_mut().zip(&sums) {
                    *x *= if sum > 0.0 { 1.0 / sum.sqrt() } else { 1.0 };
                }
            }
            cases.push((q, want));
        }
        let _guard = crate::parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut baseline = Vec::new();
        for_each_level(|level| {
            for (i, (q, want)) in cases.iter().enumerate() {
                let mut got = q.clone();
                normalize_columns(&mut got);
                assert_eq!(bits(&got), bits(want), "case {i} at {level:?}");
                if level == Level::Baseline {
                    baseline.push(got);
                } else {
                    assert_eq!(bits(&got), bits(&baseline[i]), "case {i} at {level:?}");
                }
            }
        });
    }
}
