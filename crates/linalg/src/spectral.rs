//! Spectral clustering (Ng–Jordan–Weiss), exactly as the paper applies it
//! for concept distillation (§V):
//!
//! 1. `Aᵢⱼ = exp(−D̂ᵢⱼ² / σ²)` for `i ≠ j`, `Aᵢᵢ = 0`;
//! 2. `M = diag(row sums of A)`, `L = M^{−1/2} A M^{−1/2}`;
//! 3. `X` = top-`k` eigenvectors of `L` (k stipulated, or chosen to cover
//!    95 % of the spectral mass), rows normalized to unit length;
//! 4. k-means on the rows of `X`; each cluster is a concept.

use crate::error::LinAlgError;
use crate::kmeans::{kmeans, KMeansConfig};
use crate::matrix::Matrix;
use crate::subspace::{sym_eigs_stabilized, sym_eigs_topk, DenseSymOp, SubspaceOptions};
use crate::Result;

/// How the number of clusters `k` is chosen (§V step 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KSelection {
    /// Use exactly this many clusters.
    Fixed(usize),
    /// Choose the smallest `k` whose leading eigenvalues cover this fraction
    /// of the (computed) spectral mass, capped by the inner `usize`.
    VarianceCovered {
        /// Fraction of spectral mass to cover (the paper uses 0.95).
        fraction: f64,
        /// Upper bound on `k` (how many eigenpairs we compute).
        max_k: usize,
    },
}

/// Which eigensolver drives step 3.
///
/// The exhaustive solver polishes *every* computed eigenpair to the subspace
/// tolerance with a Rayleigh–Ritz projection on each iteration — on real
/// affinity matrices, whose deep spectrum is heavily clustered, it routinely
/// burns its whole iteration budget refining eigenpairs the clustering never
/// looks at. The adaptive solver projects only every `rr_period`-th
/// iteration and stops once the quantities the algorithm actually consumes
/// are stable: the variance-rule cluster count `k` and the leading `k` Ritz
/// values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpectralSolver {
    /// Periodic Rayleigh–Ritz + consumption-aware stopping (default).
    Adaptive {
        /// Iterations between Rayleigh–Ritz projections.
        rr_period: usize,
        /// Relative Ritz-value stability demanded of the consumed leading
        /// eigenvalues. Clustering only reads the embedding through k-means
        /// on unit-normalized rows and the 95 %-mass ratio, both stable far
        /// above this precision; the default (10⁻⁶) is already two orders
        /// tighter than the mass rule needs, while the legacy 10⁻⁸ forces
        /// the flat deep spectrum of real affinity matrices to absorb the
        /// entire iteration budget.
        value_tol: f64,
    },
    /// The legacy solver: Rayleigh–Ritz every iteration, full-block
    /// convergence at the subspace tolerance. Kept as the reference path
    /// for equivalence tests.
    Exhaustive,
}

impl Default for SpectralSolver {
    fn default() -> Self {
        SpectralSolver::Adaptive {
            rr_period: 6,
            value_tol: 1e-6,
        }
    }
}

/// Configuration for [`spectral_clustering`].
#[derive(Debug, Clone)]
pub struct SpectralConfig {
    /// Gaussian kernel bandwidth σ. `None` → the median heuristic (σ set to
    /// the median pairwise distance), a standard default the paper leaves
    /// unspecified (its worked example uses σ = 1).
    pub sigma: Option<f64>,
    /// Cluster-count selection strategy.
    pub k: KSelection,
    /// k-means settings for the final step.
    pub kmeans: KMeansConfig,
    /// Subspace-iteration settings for the eigenvector computation.
    pub subspace: SubspaceOptions,
    /// Eigensolver strategy; see [`SpectralSolver`].
    pub solver: SpectralSolver,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig {
            sigma: None,
            k: KSelection::VarianceCovered {
                fraction: 0.95,
                max_k: 64,
            },
            kmeans: KMeansConfig::default(),
            subspace: SubspaceOptions::default(),
            solver: SpectralSolver::default(),
        }
    }
}

/// Maps current Ritz estimates to the number of leading eigenpairs whose
/// stability the clustering actually depends on.
type NeededFn = Box<dyn Fn(&[f64]) -> usize>;

/// Result of spectral clustering.
#[derive(Debug, Clone)]
pub struct SpectralResult {
    /// Cluster index per input item.
    pub assignments: Vec<usize>,
    /// Number of clusters used.
    pub k: usize,
    /// σ actually used for the affinity kernel.
    pub sigma: f64,
    /// The normalized spectral embedding (rows = items).
    pub embedding: Matrix,
    /// `false` when the embedding's eigensolve stopped at its iteration
    /// budget instead of converging.
    pub eig_converged: bool,
}

/// Runs Ng–Jordan–Weiss spectral clustering on a symmetric distance matrix.
///
/// `distances` must be square with a zero diagonal; entry `(i, j)` is the
/// (purified) distance `D̂ᵢⱼ` between items `i` and `j`.
pub fn spectral_clustering(distances: &Matrix, config: &SpectralConfig) -> Result<SpectralResult> {
    let n = distances.rows();
    if distances.cols() != n {
        return Err(LinAlgError::InvalidArgument(
            "distance matrix must be square".into(),
        ));
    }
    if n == 0 {
        return Err(LinAlgError::InvalidArgument(
            "cannot cluster zero items".into(),
        ));
    }
    if n == 1 {
        return Ok(SpectralResult {
            assignments: vec![0],
            k: 1,
            sigma: config.sigma.unwrap_or(1.0),
            embedding: Matrix::from_rows(&[vec![1.0]]).expect("1x1"),
            eig_converged: true,
        });
    }

    let sigma = match config.sigma {
        Some(s) if s > 0.0 => s,
        Some(_) => {
            return Err(LinAlgError::InvalidArgument(
                "sigma must be positive".into(),
            ));
        }
        None => median_offdiag(distances).max(1e-12),
    };

    // Step 1: affinity matrix.
    let inv_sigma_sq = 1.0 / (sigma * sigma);
    let mut affinity = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let d = distances[(i, j)];
                affinity[(i, j)] = (-d * d * inv_sigma_sq).exp();
            }
        }
    }

    // Step 2: normalized affinity L = M^{-1/2} A M^{-1/2}.
    // Rows whose degree underflows to (near-)zero are isolated points with
    // no meaningful affinities; their 1/√deg would overflow, so they are
    // zeroed instead. The two inverse factors are applied one at a time —
    // computing dᵢ·dⱼ first can overflow to ∞ even when the final product
    // (∞ · subnormal affinity → NaN) is well-defined.
    const DEG_FLOOR: f64 = 1e-100;
    let mut inv_sqrt_deg = vec![0.0; n];
    for (i, slot) in inv_sqrt_deg.iter_mut().enumerate() {
        let deg: f64 = affinity.row(i).iter().sum();
        *slot = if deg > DEG_FLOOR {
            1.0 / deg.sqrt()
        } else {
            0.0
        };
    }
    let mut l = affinity; // reuse the allocation
    for i in 0..n {
        let di = inv_sqrt_deg[i];
        let row = l.row_mut(i);
        for (j, x) in row.iter_mut().enumerate() {
            *x = (*x * di) * inv_sqrt_deg[j];
        }
    }

    // Step 3: leading eigenvectors of L.
    // L is symmetric but indefinite (zero diagonal); subspace iteration
    // needs dominant-magnitude eigenvalues to be the algebraically largest,
    // so we shift: L' = L + I. Eigenvectors are unchanged, eigenvalues move
    // from [-1, 1] to [0, 2], making L' PSD-like for the iteration.
    for i in 0..n {
        l[(i, i)] += 1.0;
    }
    let max_k = match config.k {
        KSelection::Fixed(k) => k,
        KSelection::VarianceCovered { max_k, .. } => max_k,
    }
    .clamp(1, n);
    let op = DenseSymOp::new(&l);
    let eigs = match config.solver {
        SpectralSolver::Exhaustive => sym_eigs_topk(&op, max_k, &config.subspace)?,
        SpectralSolver::Adaptive {
            rr_period,
            value_tol,
        } => {
            // Stop once the quantities the clustering consumes are stable:
            // for a fixed k, the leading k Ritz values; for the variance
            // rule, the chosen k itself plus its leading values. The Ritz
            // values arrive shifted by +1 (L' = L + I), so the selection
            // closure undoes the shift before applying the mass rule.
            let needed: NeededFn = match config.k {
                KSelection::Fixed(k) => {
                    let k = k.clamp(1, n);
                    Box::new(move |_: &[f64]| k)
                }
                KSelection::VarianceCovered { fraction, .. } => Box::new(move |ritz: &[f64]| {
                    let shifted: Vec<f64> = ritz.iter().map(|&v| v - 1.0).collect();
                    choose_k_by_variance(&shifted, fraction)
                }),
            };
            let opts = SubspaceOptions {
                tol: value_tol,
                ..config.subspace.clone()
            };
            sym_eigs_stabilized(&op, max_k, &opts, rr_period, needed.as_ref())?
        }
    };
    // Undo the spectral shift for the k-selection rule.
    let shifted_back: Vec<f64> = eigs.values.iter().map(|&v| v - 1.0).collect();

    let k = match config.k {
        KSelection::Fixed(k) => k.clamp(1, n),
        KSelection::VarianceCovered { fraction, .. } => {
            choose_k_by_variance(&shifted_back, fraction).clamp(1, max_k)
        }
    };

    // Step 3 (cont.): row-normalize the embedding.
    let mut embedding = eigs.vectors.truncate_cols(k)?;
    for i in 0..n {
        let row = embedding.row_mut(i);
        let nrm: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        if nrm > 1e-300 {
            for x in row.iter_mut() {
                *x /= nrm;
            }
        }
    }

    // Step 4: k-means on the rows.
    let mut km_cfg = config.kmeans.clone();
    km_cfg.k = k.min(n);
    let km = kmeans(&embedding, &km_cfg)?;

    Ok(SpectralResult {
        assignments: km.assignments,
        k: km_cfg.k,
        sigma,
        embedding,
        eig_converged: eigs.converged,
    })
}

/// Median of the strictly-upper-triangular entries.
fn median_offdiag(d: &Matrix) -> f64 {
    let n = d.rows();
    let mut vals: Vec<f64> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            vals.push(d[(i, j)]);
        }
    }
    if vals.is_empty() {
        return 1.0;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    vals[vals.len() / 2]
}

/// Smallest `k` such that the top-`k` eigenvalues cover `fraction` of the
/// total positive spectral mass among those computed.
fn choose_k_by_variance(eigenvalues: &[f64], fraction: f64) -> usize {
    let total: f64 = eigenvalues.iter().map(|&v| v.max(0.0)).sum();
    if total <= 0.0 {
        return 1;
    }
    let mut acc = 0.0;
    for (i, &v) in eigenvalues.iter().enumerate() {
        acc += v.max(0.0);
        if acc >= fraction * total {
            return i + 1;
        }
    }
    eigenvalues.len().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance matrix with two obvious groups: {0,1,2} and {3,4}.
    fn two_group_distances() -> Matrix {
        let n = 5;
        let mut d = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let gi = usize::from(i >= 3);
                let gj = usize::from(j >= 3);
                d[(i, j)] = if gi == gj { 0.1 } else { 5.0 };
            }
        }
        d
    }

    #[test]
    fn separates_two_groups_fixed_k() {
        let d = two_group_distances();
        let cfg = SpectralConfig {
            sigma: Some(1.0),
            k: KSelection::Fixed(2),
            ..Default::default()
        };
        let result = spectral_clustering(&d, &cfg).unwrap();
        assert_eq!(result.k, 2);
        assert_eq!(result.assignments[0], result.assignments[1]);
        assert_eq!(result.assignments[1], result.assignments[2]);
        assert_eq!(result.assignments[3], result.assignments[4]);
        assert_ne!(result.assignments[0], result.assignments[3]);
    }

    #[test]
    fn median_sigma_heuristic_also_separates() {
        let d = two_group_distances();
        let cfg = SpectralConfig {
            sigma: None,
            k: KSelection::Fixed(2),
            ..Default::default()
        };
        let result = spectral_clustering(&d, &cfg).unwrap();
        assert!(result.sigma > 0.0);
        assert_ne!(result.assignments[0], result.assignments[3]);
    }

    #[test]
    fn variance_rule_picks_small_k_for_two_blocks() {
        let d = two_group_distances();
        let cfg = SpectralConfig {
            sigma: Some(1.0),
            k: KSelection::VarianceCovered {
                fraction: 0.8,
                max_k: 5,
            },
            ..Default::default()
        };
        let result = spectral_clustering(&d, &cfg).unwrap();
        assert!(result.k <= 3, "expected few clusters, got {}", result.k);
    }

    #[test]
    fn paper_running_example_groups_folk_people_vs_laptop() {
        // §V worked example: D̂₁₂ = √1.92, D̂₁₃ = √5.94, D̂₂₃ = √2.36,
        // σ = 1, k = 2 → {folk, people} vs {laptop}.
        let d12 = 1.92f64.sqrt();
        let d13 = 5.94f64.sqrt();
        let d23 = 2.36f64.sqrt();
        let d = Matrix::from_rows(&[
            vec![0.0, d12, d13],
            vec![d12, 0.0, d23],
            vec![d13, d23, 0.0],
        ])
        .unwrap();
        let cfg = SpectralConfig {
            sigma: Some(1.0),
            k: KSelection::Fixed(2),
            ..Default::default()
        };
        let result = spectral_clustering(&d, &cfg).unwrap();
        assert_eq!(
            result.assignments[0], result.assignments[1],
            "folk and people must share a concept"
        );
        assert_ne!(
            result.assignments[0], result.assignments[2],
            "laptop must be its own concept"
        );
    }

    #[test]
    fn single_item_trivial() {
        let d = Matrix::zeros(1, 1);
        let result = spectral_clustering(&d, &SpectralConfig::default()).unwrap();
        assert_eq!(result.assignments, vec![0]);
        assert_eq!(result.k, 1);
    }

    #[test]
    fn rejects_non_square_and_bad_sigma() {
        let d = Matrix::zeros(2, 3);
        assert!(spectral_clustering(&d, &SpectralConfig::default()).is_err());
        let d = two_group_distances();
        let cfg = SpectralConfig {
            sigma: Some(-1.0),
            ..Default::default()
        };
        assert!(spectral_clustering(&d, &cfg).is_err());
    }

    #[test]
    fn choose_k_by_variance_rules() {
        assert_eq!(choose_k_by_variance(&[10.0, 0.1, 0.1], 0.95), 1);
        assert_eq!(choose_k_by_variance(&[5.0, 5.0, 0.0], 0.95), 2);
        assert_eq!(choose_k_by_variance(&[1.0, 1.0, 1.0, 1.0], 1.0), 4);
        assert_eq!(choose_k_by_variance(&[], 0.95), 1);
        assert_eq!(choose_k_by_variance(&[-1.0, -2.0], 0.95), 1);
    }

    #[test]
    fn adaptive_and_exhaustive_solvers_agree_on_clusters() {
        let d = two_group_distances();
        for k in [
            KSelection::Fixed(2),
            KSelection::VarianceCovered {
                fraction: 0.8,
                max_k: 5,
            },
        ] {
            let exhaustive = spectral_clustering(
                &d,
                &SpectralConfig {
                    sigma: Some(1.0),
                    k,
                    solver: SpectralSolver::Exhaustive,
                    ..Default::default()
                },
            )
            .unwrap();
            let adaptive = spectral_clustering(
                &d,
                &SpectralConfig {
                    sigma: Some(1.0),
                    k,
                    solver: SpectralSolver::Adaptive {
                        rr_period: 4,
                        value_tol: 1e-6,
                    },
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(exhaustive.k, adaptive.k, "cluster count diverged");
            // Same partition (cluster ids may be permuted).
            for i in 0..5 {
                for j in 0..5 {
                    assert_eq!(
                        exhaustive.assignments[i] == exhaustive.assignments[j],
                        adaptive.assignments[i] == adaptive.assignments[j],
                        "partition diverged at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn embedding_rows_are_unit_length() {
        let d = two_group_distances();
        let cfg = SpectralConfig {
            sigma: Some(1.0),
            k: KSelection::Fixed(2),
            ..Default::default()
        };
        let result = spectral_clustering(&d, &cfg).unwrap();
        for i in 0..result.embedding.rows() {
            let nrm: f64 = result.embedding.row(i).iter().map(|x| x * x).sum();
            assert!((nrm - 1.0).abs() < 1e-9);
        }
    }
}
