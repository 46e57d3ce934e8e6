//! Tucker decomposition via HOSVD initialization + HOOI/ALS iterations.
//!
//! Solves the trimmed Tucker problem of Definition 2 in the paper: given a
//! sparse `F ∈ R^{I₁×I₂×I₃}` and core dimensions `J₁, J₂, J₃` (usually set
//! through reduction ratios `cₙ = Iₙ/Jₙ`), find orthonormal factor matrices
//! `Y⁽ⁿ⁾ ∈ R^{Iₙ×Jₙ}` and the core `S ∈ R^{J₁×J₂×J₃}` minimizing
//! `‖F − S ×₁ Y⁽¹⁾ ×₂ Y⁽²⁾ ×₃ Y⁽³⁾‖`.
//!
//! Modes 2 and 3 are initialised by HOSVD — the leading eigenvectors of
//! `Aₙ Aₙᵀ` over the *compacted* mode-n unfolding (empty columns dropped, so
//! a step costs `O(nnz · block)` in time and memory however wide `∏Iₘ` is),
//! by [`sym_eigs_filtered`]: between two Rayleigh–Ritz projections the block
//! goes through a Chebyshev filter that damps everything below the block's
//! smallest Ritz value, at a degree the solver picks each cycle from those
//! Ritz values. The mode-3 unfolding of a folksonomy (resources ≫ users) has
//! a flat tail — neighbouring eigenvalues a few percent apart around the
//! cut — where projecting after every apply needs twice the operator
//! applies and ten times the projections. Mode 1 is not initialised: the
//! first HOOI update computes `Y⁽¹⁾` from the other two before anything
//! reads it.
//!
//! A HOOI update works on a dense product `W` (`Iₙ × ∏Jₘ`) and goes through
//! [`dense_truncated_svd`]. Where forming the Gram of `W`'s smaller side
//! costs less than subspace iteration would — a rule on the shape alone —
//! the update is an exact dense solve: one Gram, its top `Jₙ` eigenpairs by
//! `top_eigenpairs`, no iteration budget. Otherwise it iterates on the Gram
//! operator. The trace records which route each update took.
//!
//! Two properties the rest of the pipeline depends on:
//!
//! * the purified tensor `F̂` is **never materialized** — fit is tracked via
//!   the orthonormality identity `‖F − F̂‖² = ‖F‖² − ‖S‖²`;
//! * the mode-2 singular values `Λ₂` of the final ALS step are returned as
//!   a by-product, enabling the paper's Theorem 2 shortcut
//!   `Σ = ((Λ₂)₁:J₂,₁:J₂)²`.

use std::fmt;
use std::time::{Duration, Instant};

use cubelsi_linalg::subspace::{sym_eigs_filtered, SolveTimes, SubspaceOptions, SymOp, TopkEigen};
use cubelsi_linalg::svd::{dense_truncated_svd, SvdRoute};
use cubelsi_linalg::{GramOp, LinAlgError, Matrix};

use crate::dense::DenseTensor3;
use crate::sparse::SparseTensor3;

/// Configuration for [`tucker_als`].
#[derive(Debug, Clone)]
pub struct TuckerConfig {
    /// Target core dimensions `(J₁, J₂, J₃)`; clamped to the tensor dims.
    pub core_dims: (usize, usize, usize),
    /// Maximum HOOI iterations (each iteration updates all three modes);
    /// at least 1 — the first sweep is what gives mode 1 its factor.
    pub max_iters: usize,
    /// Stop when the fit improves by less than this between iterations.
    pub fit_tol: f64,
    /// Settings for the inner subspace-iteration eigensolver.
    pub subspace: SubspaceOptions,
}

impl TuckerConfig {
    /// Builds a configuration from the paper's reduction ratios
    /// `cₙ = Iₙ/Jₙ ≥ 1` (§IV-C): `Jₙ = max(1, round(Iₙ/cₙ))`.
    pub fn from_reduction_ratios(
        dims: (usize, usize, usize),
        c1: f64,
        c2: f64,
        c3: f64,
    ) -> Result<Self, LinAlgError> {
        for (name, c) in [("c1", c1), ("c2", c2), ("c3", c3)] {
            if c.is_nan() || c < 1.0 {
                return Err(LinAlgError::InvalidArgument(format!(
                    "reduction ratio {name} must be >= 1, got {c}"
                )));
            }
        }
        let j = |i: usize, c: f64| ((i as f64 / c).round() as usize).clamp(1, i.max(1));
        Ok(TuckerConfig {
            core_dims: (j(dims.0, c1), j(dims.1, c2), j(dims.2, c3)),
            ..Default::default()
        })
    }
}

impl Default for TuckerConfig {
    fn default() -> Self {
        TuckerConfig {
            core_dims: (8, 8, 8),
            max_iters: 12,
            fit_tol: 1e-5,
            subspace: SubspaceOptions::default(),
        }
    }
}

/// Output of [`tucker_als`]: `F ≈ S ×₁ Y⁽¹⁾ ×₂ Y⁽²⁾ ×₃ Y⁽³⁾`.
#[derive(Debug, Clone)]
pub struct TuckerDecomposition {
    /// Trimmed core tensor `S ∈ R^{J₁×J₂×J₃}`.
    pub core: DenseTensor3,
    /// Orthonormal factor matrices `[Y⁽¹⁾, Y⁽²⁾, Y⁽³⁾]`, `Y⁽ⁿ⁾ ∈ R^{Iₙ×Jₙ}`.
    pub factors: [Matrix; 3],
    /// Mode-2 singular values of the final ALS step (length `J₂`),
    /// the `Λ₂` by-product used by Theorem 2.
    pub lambda2: Vec<f64>,
    /// Final fit `1 − ‖F − F̂‖ / ‖F‖` (1 = exact).
    pub fit: f64,
    /// HOOI iterations executed.
    pub iterations: usize,
    /// Fit after each iteration, for convergence diagnostics.
    pub fit_history: Vec<f64>,
    /// Where the time and the iterations of this run went. Diagnostics
    /// only: an artifact keeps the work counts, not the times.
    pub trace: TuckerTrace,
}

/// Time and work counts of one [`tucker_als`] run.
#[derive(Debug, Clone, Default)]
pub struct TuckerTrace {
    /// HOSVD initialisation of modes 2 and 3, in that order.
    pub init: Vec<ModeInit>,
    /// Each HOOI sweep, in order.
    pub sweeps: Vec<SweepTrace>,
}

/// One HOOI sweep, as [`TuckerTrace`] records it.
#[derive(Debug, Clone, Copy)]
pub struct SweepTrace {
    /// Wall time: the three mode updates and the fit.
    pub time: Duration,
    /// How each mode's update solved, in mode order.
    pub updates: [SvdRoute; 3],
}

/// HOSVD initialisation of one mode, as [`TuckerTrace`] records it.
#[derive(Debug, Clone)]
pub struct ModeInit {
    /// The (1-based) mode.
    pub mode: usize,
    /// Unfolding, eigensolve and all.
    pub time: Duration,
    /// Operator applies the eigensolver ran.
    pub eig_iterations: usize,
    /// Rayleigh–Ritz projections among them.
    pub eig_projections: usize,
    /// Chebyshev degree of each filter between two projections, in order.
    pub eig_degrees: Vec<usize>,
    /// `false`: the eigensolver stopped at its iteration budget.
    pub eig_converged: bool,
    /// The eigensolve's time: applies, orthonormalisation, projections.
    pub eig_times: SolveTimes,
    /// Columns of the unfolding the solver worked on (the non-empty ones).
    pub compact_cols: usize,
    /// Columns of the full Kolda–Bader unfolding, `∏ₘ≠ₙ Iₘ`.
    pub full_cols: u64,
}

/// One line: `init mode2 31ms/12it/4rr deg 4,3,2 50898/2363994 cols (apply
/// 12ms / orth 9ms / rr 6ms) | … | 3 sweeps 11ms[GGG] 9.8ms[(14)GG]
/// 9.7ms[(12)GG]` — time / operator applies / projections, the filter
/// degrees between them, compacted-of-full columns, and the eigensolve's
/// time split into applies, orthonormalisation and Rayleigh–Ritz
/// projections; then each sweep's time and its three mode updates: `G`
/// solved on the Gram route, `(14)` by subspace iteration in 14 applies.
/// `200it!` marks an HOSVD solve that stopped at its iteration budget.
impl fmt::Display for TuckerTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.init {
            let budget_mark = if m.eig_converged { "" } else { "!" };
            write!(
                f,
                "init mode{} {:.1?}/{}it{budget_mark}/{}rr deg",
                m.mode, m.time, m.eig_iterations, m.eig_projections
            )?;
            for (i, d) in m.eig_degrees.iter().enumerate() {
                write!(f, "{}{d}", if i == 0 { ' ' } else { ',' })?;
            }
            let t = &m.eig_times;
            write!(
                f,
                " {}/{} cols (apply {:.1?} / orth {:.1?} / rr {:.1?}) | ",
                m.compact_cols, m.full_cols, t.apply, t.orth, t.project
            )?;
        }
        write!(f, "{} sweeps", self.sweeps.len())?;
        for sweep in &self.sweeps {
            write!(f, " {:.1?}[", sweep.time)?;
            for update in sweep.updates {
                match update {
                    SvdRoute::Gram => write!(f, "G")?,
                    SvdRoute::Iterative { applies } => write!(f, "({applies})")?,
                }
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

impl TuckerDecomposition {
    /// Materializes `F̂ = S ×₁ Y⁽¹⁾ ×₂ Y⁽²⁾ ×₃ Y⁽³⁾` densely.
    ///
    /// This is exactly what the paper proves you should *never* do at data
    /// scale (§IV-D); it exists for test-scale validation of Theorem 1.
    pub fn reconstruct(&self) -> Result<DenseTensor3, LinAlgError> {
        self.core
            .mode_product(1, &self.factors[0])?
            .mode_product(2, &self.factors[1])?
            .mode_product(3, &self.factors[2])
    }

    /// `Σ = S₍₂₎ S₍₂₎ᵀ` computed from the core tensor (the matrix named in
    /// Theorem 1: "a matrix that can be readily computed from the core
    /// tensor S"). Always exactly consistent with the factors.
    pub fn sigma_from_core(&self) -> Result<Matrix, LinAlgError> {
        let s2 = self.core.unfold(2);
        Ok(s2.gram_t())
    }
}

/// Runs HOSVD-initialized HOOI/ALS on a sparse third-order tensor.
///
/// Modes 2 and 3 start from their HOSVD factors; mode 1 gets none, because
/// the first sweep's first update computes `Y⁽¹⁾` from those two before
/// anything reads it. Each iteration updates the three factor matrices in
/// mode order; each update computes the fused TTM chain
/// `W = F ×ₘ≠ₙ Y⁽ᵐ⁾ᵀ` (cost `O(nnz·∏Jₘ)`) and takes the leading `Jₙ` left
/// singular vectors of its mode-n unfolding by [`dense_truncated_svd`]:
/// exactly, from the Gram of `W`'s smaller side, when the shape says that
/// is cheaper, else by subspace iteration. After convergence the mode-2
/// step is refreshed once so `Y⁽²⁾`/`Λ₂` are exactly the singular pairs of
/// the final product matrix, and the core is contracted from the final
/// factors (Eq. 16).
pub fn tucker_als(
    f: &SparseTensor3,
    config: &TuckerConfig,
) -> Result<TuckerDecomposition, LinAlgError> {
    tucker_als_with(f, config, sym_eigs_filtered)
}

/// The eigensolver of the HOSVD initialisation.
type HosvdSolve = fn(&dyn SymOp, usize, &SubspaceOptions) -> Result<TopkEigen, LinAlgError>;

/// [`tucker_als`] with the HOSVD eigensolver as a parameter, so the tests
/// can hold the filtered solve against the project-every-step one.
fn tucker_als_with(
    f: &SparseTensor3,
    config: &TuckerConfig,
    hosvd_solve: HosvdSolve,
) -> Result<TuckerDecomposition, LinAlgError> {
    let dims = f.dims();
    if dims.0 == 0 || dims.1 == 0 || dims.2 == 0 {
        return Err(LinAlgError::InvalidArgument(format!(
            "Tucker decomposition of an empty {}x{}x{} tensor",
            dims.0, dims.1, dims.2
        )));
    }
    let mut j1 = config.core_dims.0.clamp(1, dims.0);
    let mut j2 = config.core_dims.1.clamp(1, dims.1);
    let mut j3 = config.core_dims.2.clamp(1, dims.2);
    // A Tucker core rank can never exceed the product of the other two
    // (the mode-n unfolding of S has only ∏_{m≠n} Jₘ columns); clamp to a
    // feasible rank triple so every factor matrix gets its full width.
    loop {
        let (n1, n2, n3) = (j1.min(j2 * j3), j2.min(j1 * j3), j3.min(j1 * j2));
        if (n1, n2, n3) == (j1, j2, j3) {
            break;
        }
        (j1, j2, j3) = (n1, n2, n3);
    }
    if f.nnz() == 0 {
        return Err(LinAlgError::InvalidArgument(
            "cannot decompose an all-zero tensor".into(),
        ));
    }
    if config.max_iters == 0 {
        return Err(LinAlgError::InvalidArgument(
            "max_iters must be at least 1: the first sweep computes the mode-1 factor".into(),
        ));
    }

    // --- HOSVD initialization: Y⁽ⁿ⁾ ← top-Jₙ eigenvectors of Aₙ Aₙᵀ where
    // Aₙ is the sparse mode-n unfolding, for n = 2, 3. The mode-1 slot is
    // a placeholder until the first update below fills it.
    let mut trace = TuckerTrace::default();
    let mut factors: [Matrix; 3] = [
        Matrix::zeros(0, 0),
        hosvd_factor(f, 2, j2, config, hosvd_solve, &mut trace)?,
        hosvd_factor(f, 3, j3, config, hosvd_solve, &mut trace)?,
    ];

    let norm_f_sq = f.frobenius_norm_sq();
    let fit_terms = f.nnz() + j1 * j2 * j3;
    let mut fit_history = Vec::with_capacity(config.max_iters);
    let mut prev_fit = f64::NEG_INFINITY;
    let mut iterations = 0;

    // Per-sweep scratch, reused across all HOOI iterations: one W buffer
    // per mode plus the S₍₂₎ projection. Nothing in the sweep allocates a
    // fresh `Iₙ x ∏Jₘ` matrix after the first iteration.
    let mut w_scratch: [Matrix; 3] = [
        Matrix::zeros(0, 0),
        Matrix::zeros(0, 0),
        Matrix::zeros(0, 0),
    ];
    let mut s2_scratch = Matrix::zeros(0, 0);

    for it in 0..config.max_iters {
        iterations = it + 1;
        let sweep_start = Instant::now();
        let mut updates = [SvdRoute::Gram; 3];
        for mode in 1..=3usize {
            let jn = [j1, j2, j3][mode - 1];
            let (ai, bi) = match mode {
                1 => (1, 2),
                2 => (0, 2),
                3 => (0, 1),
                _ => unreachable!(),
            };
            let w = &mut w_scratch[mode - 1];
            f.ttm_except_unfolded_into(mode, &factors[ai], &factors[bi], w)?;
            let (svd, route) = dense_truncated_svd(w, jn, &config.subspace)?;
            updates[mode - 1] = route;
            factors[mode - 1] = svd.u;
        }
        // Fit via ‖F−F̂‖² = ‖F‖² − ‖S‖² (factors orthonormal). The core norm
        // comes from S₍₂₎ = Y⁽²⁾ᵀ W₍₂₎, with W₍₂₎ rebuilt from the final
        // Y⁽¹⁾ and Y⁽³⁾ of the sweep.
        f.ttm_except_unfolded_into(2, &factors[0], &factors[2], &mut w_scratch[1])?;
        factors[1].matmul_tn_into(&w_scratch[1], &mut s2_scratch)?;
        let core_norm_sq = DenseTensor3::fold(2, &s2_scratch, (j1, j2, j3))?.frobenius_norm_sq();
        // The difference is floored at the two sums' rounding (`fit_from`).
        let fit = fit_from(norm_f_sq, core_norm_sq, fit_terms);
        fit_history.push(fit);
        let converged = (fit - prev_fit).abs() < config.fit_tol;
        prev_fit = fit;
        trace.sweeps.push(SweepTrace {
            time: sweep_start.elapsed(),
            updates,
        });
        if converged {
            break;
        }
    }

    // --- Final mode-2 refresh: make Y⁽²⁾ and Λ₂ the exact singular pairs of
    // the final product matrix W₍₂₎, which the last sweep's fit left in the
    // scratch, so Theorem 2 holds as tightly as possible.
    let (svd2, _) = dense_truncated_svd(&w_scratch[1], j2, &config.subspace)?;
    factors[1] = svd2.u;
    let lambda2 = svd2.singular_values;

    // --- Core from the final factors (Eq. 16). S₍₂₎ = Y⁽²⁾ᵀ W₍₂₎ reuses W₍₂₎.
    factors[1].matmul_tn_into(&w_scratch[1], &mut s2_scratch)?;
    let core = DenseTensor3::fold(2, &s2_scratch, (j1, j2, j3))?;
    // As in the sweep: the residual is floored at the sums' rounding.
    let fit = fit_from(norm_f_sq, core.frobenius_norm_sq(), fit_terms);

    Ok(TuckerDecomposition {
        core,
        factors,
        lambda2,
        fit,
        iterations,
        fit_history,
        trace,
    })
}

/// The fit `1 − ‖F − F̂‖ / ‖F‖` from the orthonormality identity
/// `‖F − F̂‖² = ‖F‖² − ‖S‖²`, where `terms` counts the squares summed into
/// the two norms: `nnz(F)` and the core's `J₁J₂J₃` cells.
///
/// Each norm is a recursive sum of non-negative squares, so its rounding
/// error is at most about one `ε` per term times its total, and
/// `‖S‖ ≤ ‖F‖`: the difference is known only to `terms·ε·‖F‖²`. A residual
/// within that bound is indistinguishable from 0 and is read as 0. Without
/// the floor the square root turns the `ε·‖F‖²` of rounding an exact
/// decomposition leaves into a fit `√ε ≈ 1.5e-8` short of 1.
fn fit_from(norm_f_sq: f64, core_norm_sq: f64, terms: usize) -> f64 {
    let resid_sq = norm_f_sq - core_norm_sq;
    let resid_sq = if resid_sq <= terms as f64 * f64::EPSILON * norm_f_sq {
        0.0
    } else {
        resid_sq
    };
    1.0 - resid_sq.sqrt() / norm_f_sq.sqrt().max(f64::MIN_POSITIVE)
}

/// HOSVD factor for one mode: leading eigenvectors of the outer Gram
/// operator of the compacted unfolding, in `O(nnz · block)` time a step and
/// memory — nothing is as wide as the full unfolding.
fn hosvd_factor(
    f: &SparseTensor3,
    mode: usize,
    k: usize,
    config: &TuckerConfig,
    solve: HosvdSolve,
    trace: &mut TuckerTrace,
) -> Result<Matrix, LinAlgError> {
    let start = Instant::now();
    let unfolding = f.unfold_csr_compact(mode);
    let op = GramOp::outer(&unfolding);
    let eigs = solve(&op, k, &config.subspace)?;
    trace.init.push(ModeInit {
        mode,
        time: start.elapsed(),
        eig_iterations: eigs.iterations,
        eig_projections: eigs.projections,
        eig_degrees: eigs.degrees,
        eig_converged: eigs.converged,
        eig_times: eigs.times,
        compact_cols: unfolding.cols(),
        full_cols: f.unfold_width(mode),
    });
    Ok(eigs.vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubelsi_linalg::qr::orthonormality_error;
    use cubelsi_linalg::subspace::sym_eigs_topk;
    use cubelsi_linalg::top_eigenpairs;

    fn figure2_tensor() -> SparseTensor3 {
        let quads = [
            (0, 0, 0, 1.0),
            (0, 0, 1, 1.0),
            (1, 0, 1, 1.0),
            (2, 0, 1, 1.0),
            (0, 1, 0, 1.0),
            (1, 2, 2, 1.0),
            (2, 2, 2, 1.0),
        ];
        SparseTensor3::from_entries((3, 3, 3), &quads).unwrap()
    }

    fn default_config(dims: (usize, usize, usize)) -> TuckerConfig {
        TuckerConfig {
            core_dims: dims,
            max_iters: 30,
            fit_tol: 1e-10,
            subspace: SubspaceOptions::default(),
        }
    }

    #[test]
    fn full_rank_decomposition_is_exact() {
        let f = figure2_tensor();
        let config = default_config((3, 3, 3));
        let d = tucker_als(&f, &config).unwrap();
        assert!(
            d.fit > 1.0 - 1e-8,
            "full-rank fit should be ~1, got {}",
            d.fit
        );
        let recon = d.reconstruct().unwrap();
        assert!(recon.approx_eq(&f.to_dense(), 1e-7));
    }

    #[test]
    fn factors_are_orthonormal() {
        let f = figure2_tensor();
        let config = default_config((2, 3, 2));
        let d = tucker_als(&f, &config).unwrap();
        for (n, y) in d.factors.iter().enumerate() {
            assert!(
                orthonormality_error(y) < 1e-8,
                "factor {} not orthonormal",
                n + 1
            );
        }
    }

    #[test]
    fn paper_example_trimmed_decomposition() {
        // §IV-D uses J1 = J2 = 3, J3 = 2 on the Figure 2 tensor and reports
        // that F̂ stays close to F. Verify the shape of that claim.
        let f = figure2_tensor();
        let config = default_config((3, 3, 2));
        let d = tucker_als(&f, &config).unwrap();
        assert_eq!(d.core.dims(), (3, 3, 2));
        let recon = d.reconstruct().unwrap();
        let err = recon.sub(&f.to_dense()).unwrap().frobenius_norm();
        // The trimmed reconstruction must lose something but not much.
        assert!(err > 1e-9, "trimming J3 must be lossy here");
        assert!(err < f.frobenius_norm() * 0.5, "error {err} too large");
        // Residual identity: ‖F−F̂‖² = ‖F‖² − ‖S‖².
        let identity_err = (err * err - (f.frobenius_norm_sq() - d.core.frobenius_norm_sq())).abs();
        assert!(
            identity_err < 1e-8,
            "norm identity violated by {identity_err}"
        );
    }

    #[test]
    fn fit_matches_reconstruction_error() {
        let f = figure2_tensor();
        let config = default_config((2, 2, 2));
        let d = tucker_als(&f, &config).unwrap();
        let recon = d.reconstruct().unwrap();
        let err = recon.sub(&f.to_dense()).unwrap().frobenius_norm();
        let fit_direct = 1.0 - err / f.frobenius_norm();
        assert!((d.fit - fit_direct).abs() < 1e-8);
    }

    #[test]
    fn bigger_core_never_fits_worse() {
        let f = figure2_tensor();
        let small = tucker_als(&f, &default_config((1, 1, 1))).unwrap();
        let medium = tucker_als(&f, &default_config((2, 2, 2))).unwrap();
        let full = tucker_als(&f, &default_config((3, 3, 3))).unwrap();
        assert!(small.fit <= medium.fit + 1e-9);
        assert!(medium.fit <= full.fit + 1e-9);
    }

    #[test]
    fn lambda2_matches_core_row_norms() {
        // Theorem 2's engine: at the fixed point, S₍₂₎ has orthogonal rows
        // with norms λᵢ. After the final mode-2 refresh this holds exactly.
        let f = figure2_tensor();
        let d = tucker_als(&f, &default_config((3, 3, 2))).unwrap();
        let s2 = d.core.unfold(2);
        for (i, &l) in d.lambda2.iter().enumerate() {
            let row_norm: f64 = s2.row(i).iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!(
                (row_norm - l).abs() < 1e-8,
                "row {i}: ‖S₍₂₎ᵢ‖ = {row_norm} vs λ = {l}"
            );
        }
        // And the rows are mutually orthogonal.
        for i in 0..s2.rows() {
            for j in (i + 1)..s2.rows() {
                let dot: f64 = s2.row(i).iter().zip(s2.row(j)).map(|(a, b)| a * b).sum();
                assert!(dot.abs() < 1e-8, "rows {i},{j} not orthogonal: {dot}");
            }
        }
    }

    #[test]
    fn sigma_from_core_equals_sigma_from_lambda2_at_convergence() {
        let f = figure2_tensor();
        let d = tucker_als(&f, &default_config((3, 3, 2))).unwrap();
        let a = d.sigma_from_core().unwrap();
        let squares: Vec<f64> = d.lambda2.iter().map(|l| l * l).collect();
        let b = Matrix::from_diag(&squares);
        assert!(a.approx_eq(&b, 1e-7), "Theorem 2: Σ_core ≠ Σ_Λ₂");
    }

    #[test]
    fn reduction_ratio_config() {
        let cfg =
            TuckerConfig::from_reduction_ratios((3897, 3326, 2849), 50.0, 50.0, 50.0).unwrap();
        // The paper quotes 78 x 67 x 57 for Last.fm at c = 50.
        assert_eq!(cfg.core_dims, (78, 67, 57));
        assert!(TuckerConfig::from_reduction_ratios((10, 10, 10), 0.5, 1.0, 1.0).is_err());
        // Ratios can exceed the dimension: J clamps to 1.
        let tiny = TuckerConfig::from_reduction_ratios((3, 3, 3), 100.0, 100.0, 100.0).unwrap();
        assert_eq!(tiny.core_dims, (1, 1, 1));
    }

    /// Seeded resources ≫ users tensor (30 × 25 × 1 500, 6 000 draws): six
    /// planted (user group, tag group, resource group) blocks of falling
    /// weight and skewed popularity inside each give the leading spectrum
    /// its gaps, 10 % noise entries the flat tail of a folksonomy.
    fn long_tail_tensor() -> SparseTensor3 {
        let mut state = 0x5eed_2011u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let quads: Vec<_> = (0..6_000)
            .map(|n| {
                if n % 10 == 0 {
                    return (next(30), next(25), next(1_500), 1.0);
                }
                let g = next(6);
                let weight = 1.0 + (6 - g) as f64 * 0.5;
                (
                    g * 5 + next(5).min(next(5)),
                    g * 4 + next(4).min(next(4)),
                    g * 250 + next(250) * next(250) / 250,
                    weight,
                )
            })
            .collect();
        SparseTensor3::from_entries((30, 25, 1_500), &quads).unwrap()
    }

    #[test]
    fn hosvd_gram_apply_bit_identical_to_materialized() {
        // The HOSVD operator on every compacted unfolding, against the two
        // materialized sparse–dense products it fuses, applied twice so the
        // reused scratch is exercised.
        let f = long_tail_tensor();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for mode in 1..=3 {
            let unfolding = f.unfold_csr_compact(mode);
            let x = Matrix::from_fn(unfolding.rows(), 14, |_, _| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            });
            let reference = unfolding
                .matmul_dense(&unfolding.matmul_dense_t(&x).unwrap())
                .unwrap();
            let op = GramOp::outer(&unfolding);
            for pass in 0..2 {
                assert!(
                    op.apply_block(&x).approx_eq(&reference, 0.0),
                    "mode {mode}, pass {pass}"
                );
            }
        }
    }

    /// Sine of the largest principal angle between the column spaces of two
    /// orthonormal bases: `‖(I − A Aᵀ) B‖₂`.
    fn sin_largest_principal_angle(a: &Matrix, b: &Matrix) -> f64 {
        let proj = a.matmul(&a.matmul_tn(b).unwrap()).unwrap();
        let resid = b.sub(&proj).unwrap();
        top_eigenpairs(resid.gram(), 1).unwrap().values[0]
            .max(0.0)
            .sqrt()
    }

    #[test]
    fn amortised_hosvd_solve_spans_the_period_one_subspace() {
        let f = long_tail_tensor();
        let unfolding = f.unfold_csr_compact(3);
        assert!((unfolding.cols() as u64) < f.unfold_width(3));
        let op = GramOp::outer(&unfolding);
        // Converge well past the default tolerance: the two solves stop at
        // different iterations, and the comparison should see the filter,
        // not where each happened to stop.
        let opts = SubspaceOptions {
            tol: 1e-13,
            max_iters: 400,
            ..Default::default()
        };
        let every_step = sym_eigs_topk(&op, 6, &opts).unwrap();
        let amortised = sym_eigs_filtered(&op, 6, &opts).unwrap();
        assert!(every_step.converged && amortised.converged);
        assert!(orthonormality_error(&amortised.vectors) < 1e-10);
        let sin = sin_largest_principal_angle(&every_step.vectors, &amortised.vectors);
        assert!(sin < 1e-6, "largest principal angle {sin:e}");
        for (a, b) in every_step.values.iter().zip(&amortised.values) {
            assert!((a - b).abs() <= 1e-9 * a.abs(), "eigenvalue {a} vs {b}");
        }
    }

    #[test]
    fn filtered_hosvd_solve_halves_the_operator_applies() {
        // Counts, not times: both repeat exactly for the seeded tensor.
        // 24 pairs reach past the six planted blocks into the noise tail
        // (λ₂₂…λ₂₄ = 701, 676, 625), the spectrum the filter is there for.
        // Against projecting after every apply the filter takes about half
        // the applies (31 against 60) and a tenth of the projections (6
        // against 60).
        let f = long_tail_tensor();
        let unfolding = f.unfold_csr_compact(3);
        let op = GramOp::outer(&unfolding);
        let opts = SubspaceOptions {
            tol: 1e-13,
            max_iters: 400,
            ..Default::default()
        };
        let every_step = sym_eigs_topk(&op, 24, &opts).unwrap();
        let filtered = sym_eigs_filtered(&op, 24, &opts).unwrap();
        assert!(every_step.converged && filtered.converged);
        assert!(
            20 * filtered.iterations <= 11 * every_step.iterations,
            "{} filtered applies (degrees {:?}) vs {} unfiltered",
            filtered.iterations,
            filtered.degrees,
            every_step.iterations
        );
        assert!(
            8 * filtered.projections <= every_step.projections,
            "{} filtered projections vs {}",
            filtered.projections,
            every_step.projections
        );
        assert_eq!(
            filtered.iterations,
            filtered.projections + filtered.degrees.iter().sum::<usize>()
        );
    }

    #[test]
    fn amortised_hosvd_matches_period_one_end_to_end() {
        // Swept to the fixed point (11 sweeps either way), where what is
        // left of the difference is the initialisation's, not HOOI's.
        let f = long_tail_tensor();
        let config = TuckerConfig {
            core_dims: (6, 6, 6),
            max_iters: 30,
            fit_tol: 1e-9,
            ..Default::default()
        };
        let every_step = tucker_als_with(&f, &config, sym_eigs_topk).unwrap();
        let amortised = tucker_als(&f, &config).unwrap();
        for (n, y) in amortised.factors.iter().enumerate() {
            assert_eq!(y.shape(), (f.dim(n + 1), 6));
            assert!(
                orthonormality_error(y) < 1e-8,
                "factor {} not orthonormal",
                n + 1
            );
        }
        assert_eq!(amortised.iterations, every_step.iterations);
        assert!(
            (amortised.fit - every_step.fit).abs() < 1e-7,
            "fit {} vs {}",
            amortised.fit,
            every_step.fit
        );
        for (a, b) in amortised.lambda2.iter().zip(&every_step.lambda2) {
            assert!((a - b).abs() < 1e-6, "lambda2 {a} vs {b}");
        }
        // The trace says what ran: modes 2 and 3 initialised on compacted
        // unfoldings, mode 1 not at all, one timing per sweep.
        let modes: Vec<usize> = amortised.trace.init.iter().map(|m| m.mode).collect();
        assert_eq!(modes, [2, 3]);
        for m in &amortised.trace.init {
            assert!(m.compact_cols as u64 <= m.full_cols && m.compact_cols <= f.nnz());
            assert!(m.eig_converged && m.eig_projections > 0);
            assert_eq!(
                m.eig_iterations,
                m.eig_projections + m.eig_degrees.iter().sum::<usize>()
            );
        }
        assert_eq!(amortised.trace.sweeps.len(), amortised.iterations);
    }

    #[test]
    fn sweep_trace_records_each_update_route() {
        // Products of 30, 25 and 1 500 rows by 36 columns, 6 pairs each:
        // every update of every sweep takes the Gram route. The line lists
        // the three per sweep.
        let d = tucker_als(&long_tail_tensor(), &default_config((6, 6, 6))).unwrap();
        assert!(d.trace.sweeps.len() > 1);
        for sweep in &d.trace.sweeps {
            assert_eq!(sweep.updates, [SvdRoute::Gram; 3]);
        }
        let line = d.trace.to_string();
        assert!(line.contains(" sweeps "), "{line}");
        assert_eq!(
            line.matches("[GGG]").count(),
            d.trace.sweeps.len(),
            "{line}"
        );
    }

    /// Seeded 144 × 60 × 1 080 tensor, 4 500 draws: twelve planted
    /// blocks and 10 % noise, as in [`long_tail_tensor`]. Big enough that
    /// the unfoldings, the TTM products and the HOSVD's MGS2 split into
    /// bands at two threads.
    fn banded_tensor() -> SparseTensor3 {
        let mut state = 0x0dd_ba11u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let quads: Vec<_> = (0..4_500)
            .map(|n| {
                if n % 10 == 0 {
                    return (next(144), next(60), next(1_080), 1.0);
                }
                let g = next(12);
                (
                    g * 12 + next(12),
                    g * 5 + next(5).min(next(5)),
                    g * 90 + next(90) * next(90) / 90,
                    1.0 + (12 - g) as f64 * 0.25,
                )
            })
            .collect();
        SparseTensor3::from_entries((144, 60, 1_080), &quads).unwrap()
    }

    #[test]
    fn bit_identical_at_one_and_two_threads() {
        // Mode 1's product (144 × 144) iterates, modes 2 and 3 (60 × 48,
        // 1 080 × 48) take the Gram route. A budget of 12 applies keeps the
        // debug build near 2 s: the HOSVD solves stop at it (the bits are
        // under test here, not convergence), the mode-1 solves converge
        // inside it.
        let f = banded_tensor();
        assert!(f.nnz() >= 4096);
        let config = TuckerConfig {
            core_dims: (4, 12, 12),
            max_iters: 2,
            subspace: SubspaceOptions {
                max_iters: 12,
                ..Default::default()
            },
            ..Default::default()
        };
        let runs: Vec<TuckerDecomposition> = [1, 2]
            .iter()
            .map(|&threads| {
                cubelsi_linalg::parallel::set_num_threads(threads);
                tucker_als(&f, &config).unwrap()
            })
            .collect();
        cubelsi_linalg::parallel::set_num_threads(0);
        let bits = |d: &TuckerDecomposition| -> Vec<u64> {
            let factors = d.factors.iter().flat_map(|y| y.as_slice());
            factors
                .chain(d.core.as_slice())
                .chain(&d.lambda2)
                .chain(&d.fit_history)
                .chain([&d.fit])
                .map(|x| x.to_bits())
                .collect()
        };
        let (one, two) = (&runs[0], &runs[1]);
        assert!(
            bits(one) == bits(two),
            "the model depends on the thread count"
        );
        assert_eq!(one.iterations, two.iterations);
        for (a, b) in one.trace.sweeps.iter().zip(&two.trace.sweeps) {
            assert_eq!(a.updates, b.updates);
            assert!(
                matches!(
                    a.updates,
                    [SvdRoute::Iterative { .. }, SvdRoute::Gram, SvdRoute::Gram]
                ),
                "{}",
                one.trace
            );
        }
    }

    #[test]
    fn trace_line_marks_a_solve_out_of_budget() {
        let config = TuckerConfig {
            subspace: SubspaceOptions {
                max_iters: 2,
                ..Default::default()
            },
            ..default_config((6, 6, 6))
        };
        let d = tucker_als(&long_tail_tensor(), &config).unwrap();
        assert!(d.trace.init.iter().all(|m| !m.eig_converged));
        let line = d.trace.to_string();
        assert!(
            line.starts_with("init mode2 ") && line.contains("/2it!/1rr deg 1 "),
            "{line}"
        );
        // The default budget converges, and says so by saying nothing.
        let d = tucker_als(&long_tail_tensor(), &default_config((6, 6, 6))).unwrap();
        assert!(!d.trace.to_string().contains('!'));
    }

    #[test]
    fn zero_sweeps_rejected() {
        // Mode 1 has no HOSVD factor: without a sweep there is no Y⁽¹⁾.
        let config = TuckerConfig {
            max_iters: 0,
            ..default_config((2, 2, 2))
        };
        assert!(matches!(
            tucker_als(&figure2_tensor(), &config),
            Err(LinAlgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn unfolding_wider_than_u32_decomposes() {
        // 70 000 × 70 000 = 4.9e9 columns in the mode-2 unfolding: the
        // 32-bit column key used to wrap there.
        let f = SparseTensor3::from_entries(
            (70_000, 2, 70_000),
            &[
                (0, 0, 0, 1.0),
                (69_999, 1, 69_999, 2.0),
                (0, 0, 69_999, 3.0),
            ],
        )
        .unwrap();
        assert!(f.unfold_width(2) > u32::MAX as u64);
        assert!(matches!(
            f.unfold_csr(2),
            Err(LinAlgError::InvalidArgument(_))
        ));
        let d = tucker_als(&f, &default_config((2, 2, 2))).unwrap();
        assert!(d.fit > 1.0 - 1e-8, "rank-2 data, fit {}", d.fit);
        assert_eq!(d.trace.init[0].compact_cols, 3);
        assert_eq!(d.trace.init[0].full_cols, 4_900_000_000);
    }

    #[test]
    fn zero_tensor_rejected() {
        let f = SparseTensor3::from_entries((2, 2, 2), &[]).unwrap();
        assert!(tucker_als(&f, &TuckerConfig::default()).is_err());
    }

    #[test]
    fn core_dims_clamped_to_tensor_dims() {
        let f = figure2_tensor();
        let config = default_config((10, 10, 10));
        let d = tucker_als(&f, &config).unwrap();
        assert_eq!(d.core.dims(), (3, 3, 3));
    }

    #[test]
    fn deterministic_given_seed() {
        let f = figure2_tensor();
        let config = default_config((2, 2, 2));
        let d1 = tucker_als(&f, &config).unwrap();
        let d2 = tucker_als(&f, &config).unwrap();
        assert_eq!(d1.fit, d2.fit);
        assert!(d1.factors[1].approx_eq(&d2.factors[1], 0.0));
    }

    #[test]
    fn fit_history_is_monotone_nondecreasing() {
        let f = figure2_tensor();
        let d = tucker_als(&f, &default_config((2, 2, 2))).unwrap();
        for w in d.fit_history.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "ALS fit decreased: {:?}",
                d.fit_history
            );
        }
    }
}
