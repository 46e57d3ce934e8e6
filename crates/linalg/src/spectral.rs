//! Spectral clustering (Ng–Jordan–Weiss), exactly as the paper applies it
//! for concept distillation (§V):
//!
//! 1. `Aᵢⱼ = exp(−D̂ᵢⱼ² / σ²)` for `i ≠ j`, `Aᵢᵢ = 0`;
//! 2. `M = diag(row sums of A)`, `L = M^{−1/2} A M^{−1/2}`;
//! 3. `X` = top-`k` eigenvectors of `L` (k stipulated, or chosen to cover
//!    95 % of the spectral mass), rows normalized to unit length;
//! 4. k-means on the rows of `X`; each cluster is a concept.
//!
//! `L` is dense and the pipeline holds it anyway, so step 3 is a direct
//! solve ([`top_eigenpairs`]) that consumes it: exact, one O(T³)
//! reduction, no start block, tolerance or iteration budget.

use crate::eigen::top_eigenpairs;
use crate::error::LinAlgError;
use crate::kmeans::{kmeans, KMeansConfig};
use crate::matrix::Matrix;
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
        }
    }
}

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
}

/// Runs Ng–Jordan–Weiss spectral clustering on a symmetric distance matrix.
///
/// `distances` must be square with a zero diagonal; entry `(i, j)` is the
/// (purified) distance `D̂ᵢⱼ` between items `i` and `j`. It is taken by
/// value and is the one `n × n` buffer the clustering holds: the median
/// for σ is selected inside it, it becomes the affinity `A` and then `L`
/// in place, and the eigensolve consumes it. A borrowed matrix is cloned
/// into that buffer.
pub fn spectral_clustering(
    distances: impl Into<Matrix>,
    config: &SpectralConfig,
) -> Result<SpectralResult> {
    let mut buf = distances.into();
    let n = buf.rows();
    if buf.cols() != n {
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
        });
    }

    let sigma = match config.sigma {
        Some(s) if s > 0.0 => s,
        Some(_) => {
            return Err(LinAlgError::InvalidArgument(
                "sigma must be positive".into(),
            ));
        }
        None => median_upper_in_place(&mut buf).max(1e-12),
    };

    // Step 1: affinity, in place, from the upper triangle and mirrored —
    // which also restores the lower triangle the median permuted — so it,
    // and L below, is exactly symmetric. The distances stay square roots
    // and are squared here, as the two-buffer pipeline did.
    let inv_sigma_sq = 1.0 / (sigma * sigma);
    for i in 0..n {
        buf[(i, i)] = 0.0;
        for j in i + 1..n {
            let d = buf[(i, j)];
            let a = (-d * d * inv_sigma_sq).exp();
            buf[(i, j)] = a;
            buf[(j, i)] = a;
        }
    }

    // Step 2: normalized affinity L = M^{-1/2} A M^{-1/2}, in place.
    // Rows whose degree underflows to (near-)zero are isolated points with
    // no meaningful affinities; their 1/√deg would overflow, so they are
    // zeroed instead. The two inverse factors are applied one at a time —
    // computing dᵢ·dⱼ first can overflow to ∞ even when the final product
    // (∞ · subnormal affinity → NaN) is well-defined.
    const DEG_FLOOR: f64 = 1e-100;
    let mut inv_sqrt_deg = vec![0.0; n];
    for (i, slot) in inv_sqrt_deg.iter_mut().enumerate() {
        let deg: f64 = buf.row(i).iter().sum();
        *slot = if deg > DEG_FLOOR {
            1.0 / deg.sqrt()
        } else {
            0.0
        };
    }
    for i in 0..n {
        let di = inv_sqrt_deg[i];
        for j in i + 1..n {
            let x = (buf[(i, j)] * di) * inv_sqrt_deg[j];
            buf[(i, j)] = x;
            buf[(j, i)] = x;
        }
    }

    // Step 3: leading eigenvectors of L, which the solve consumes. The
    // variance rule picks k among the `max_k` leading eigenvalues.
    let max_k = match config.k {
        KSelection::Fixed(k) => k,
        KSelection::VarianceCovered { max_k, .. } => max_k,
    }
    .clamp(1, n);
    let eigs = top_eigenpairs(buf, max_k)?;
    let k = match config.k {
        KSelection::Fixed(k) => k.clamp(1, n),
        KSelection::VarianceCovered { fraction, .. } => {
            choose_k_by_variance(&eigs.values, fraction).clamp(1, max_k)
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
    })
}

/// Median of the strictly-upper-triangular entries of the square `d`
/// (`n ≥ 2`): the element a full sort would put at index `len / 2`, found
/// by quickselect in `O(n²)` expected time without a second buffer. The
/// upper triangle is packed, row after row, into the end of `d`'s storage
/// (each row's part moves right, into space the lower triangle and the
/// diagonal held), copied from there to the front, selected on there, and
/// moved back. The upper triangle comes out as it went in; the strict
/// lower triangle and the diagonal come out unspecified. The select sees
/// the upper triangle in row-major order, the order a copy of it into a
/// vector of its own would have, so it picks the same bits.
fn median_upper_in_place(d: &mut Matrix) -> f64 {
    let n = d.rows();
    let upper = n * (n - 1) / 2;
    let v = d.as_mut_slice();
    let row_len = |i: usize| n - 1 - i;
    // Row i's part, `i·n + i + 1 .. (i + 1)·n`, moves to the right of where
    // it starts (and of every earlier row's part), last row first.
    let mut end = n * n;
    for i in (0..n).rev() {
        let from = i * n + i + 1;
        end -= row_len(i);
        v.copy_within(from..from + row_len(i), end);
    }
    let packed = end;
    v.copy_within(packed.., 0);
    let mid = upper / 2;
    let (_, &mut median, _) = v[..upper].select_nth_unstable_by(mid, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    // Back, first row first: each part moves left, past nothing unread.
    let mut at = packed;
    for i in 0..n {
        let to = i * n + i + 1;
        v.copy_within(at..at + row_len(i), to);
        at += row_len(i);
    }
    median
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

    /// `groups` tight groups of `size` items (distance 0.1 plus a little
    /// jitter inside), 100 apart: at σ = 1 the affinity between groups
    /// underflows to exactly 0, one connected component per group, and
    /// λ = 1 of L has one copy per component. Group membership is
    /// interleaved (`i % groups`), as a real corpus's tag order would be.
    fn component_distances(groups: usize, size: usize) -> Matrix {
        let n = groups * size;
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if i % groups == j % groups {
                0.1 + 0.01 * ((i * j) % 7) as f64
            } else {
                100.0
            }
        })
    }

    #[test]
    fn more_components_than_clusters_keeps_every_component_whole() {
        let groups = 6;
        let d = component_distances(groups, 5);
        for k in [2usize, 4] {
            let cfg = SpectralConfig {
                sigma: Some(1.0),
                k: KSelection::Fixed(k),
                ..Default::default()
            };
            let result = spectral_clustering(&d, &cfg).unwrap();
            assert_eq!(result.k, k);
            assert!(result.embedding.as_slice().iter().all(|x| x.is_finite()));
            // The top-k eigenvectors span k of the six component
            // indicators in some rotation; every item of a component has
            // the same embedding row, so no component is split.
            for i in 0..d.rows() {
                assert_eq!(
                    result.assignments[i],
                    result.assignments[i % groups],
                    "k={k}: item {i} left its component"
                );
            }
        }
    }

    #[test]
    fn clusters_are_bit_identical_at_one_and_two_threads() {
        let d = component_distances(4, 12);
        let cfg = SpectralConfig {
            sigma: None,
            ..Default::default()
        };
        let _lock = crate::parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let run = |threads: usize| {
            crate::parallel::set_num_threads(threads);
            let result = spectral_clustering(&d, &cfg).unwrap();
            crate::parallel::set_num_threads(0);
            result
        };
        let (one, two) = (run(1), run(2));
        assert_eq!(one.assignments, two.assignments);
        assert_eq!(one.k, two.k);
        assert!(one.embedding.approx_eq(&two.embedding, 0.0));
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

    /// Uniform draws from `[0, 1)` off a fixed LCG.
    fn draws(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn median_offdiag_is_the_sorted_median() {
        for (n, seed) in [(2usize, 1u64), (3, 2), (4, 3), (17, 4), (60, 5)] {
            // Rounded to two digits, so ties come up.
            let mut next = draws(seed);
            let raw = Matrix::from_fn(n, n, |_, _| (next() * 100.0).round() / 100.0);
            let d = raw.add(&raw.transpose()).unwrap();
            let mut sorted: Vec<f64> = (0..n).flat_map(|i| d.row(i)[i + 1..].to_vec()).collect();
            sorted.sort_by(f64::total_cmp);
            let mut selected = d.clone();
            let median = median_upper_in_place(&mut selected);
            assert_eq!(
                median.to_bits(),
                sorted[sorted.len() / 2].to_bits(),
                "n={n}"
            );
            assert_eq!(median.to_bits(), two_buffer_median(&d).to_bits(), "n={n}");
            for i in 0..n {
                assert_eq!(
                    selected.row(i)[i + 1..],
                    d.row(i)[i + 1..],
                    "n={n}, row {i}"
                );
            }
        }
    }

    /// The median the two-buffer pipeline took: the upper triangle copied
    /// into a vector of its own, then selected on.
    fn two_buffer_median(d: &Matrix) -> f64 {
        let n = d.rows();
        let mut vals: Vec<f64> = (0..n).flat_map(|i| d.row(i)[i + 1..].to_vec()).collect();
        let mid = vals.len() / 2;
        let (_, median, _) = vals.select_nth_unstable_by(mid, |a, b| {
            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
        });
        *median
    }

    /// [`spectral_clustering`] as it was with two `n × n` buffers: the
    /// distances borrowed and left intact, the median selected on a copy
    /// of their upper triangle, a fresh affinity matrix turned into `L`.
    fn two_buffer_clustering(distances: &Matrix, config: &SpectralConfig) -> SpectralResult {
        let n = distances.rows();
        let sigma = config
            .sigma
            .unwrap_or_else(|| two_buffer_median(distances).max(1e-12));
        let inv_sigma_sq = 1.0 / (sigma * sigma);
        let mut affinity = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i + 1..n {
                let d = distances[(i, j)];
                let a = (-d * d * inv_sigma_sq).exp();
                affinity[(i, j)] = a;
                affinity[(j, i)] = a;
            }
        }
        let inv_sqrt_deg: Vec<f64> = (0..n)
            .map(|i| {
                let deg: f64 = affinity.row(i).iter().sum();
                if deg > 1e-100 {
                    1.0 / deg.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        let mut l = affinity;
        for i in 0..n {
            for j in i + 1..n {
                let x = (l[(i, j)] * inv_sqrt_deg[i]) * inv_sqrt_deg[j];
                l[(i, j)] = x;
                l[(j, i)] = x;
            }
        }
        let max_k = match config.k {
            KSelection::Fixed(k) => k,
            KSelection::VarianceCovered { max_k, .. } => max_k,
        }
        .clamp(1, n);
        let eigs = top_eigenpairs(l, max_k).unwrap();
        let k = match config.k {
            KSelection::Fixed(k) => k.clamp(1, n),
            KSelection::VarianceCovered { fraction, .. } => {
                choose_k_by_variance(&eigs.values, fraction).clamp(1, max_k)
            }
        };
        let mut embedding = eigs.vectors.truncate_cols(k).unwrap();
        for i in 0..n {
            let row = embedding.row_mut(i);
            let nrm: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt();
            if nrm > 1e-300 {
                for x in row.iter_mut() {
                    *x /= nrm;
                }
            }
        }
        let mut km_cfg = config.kmeans.clone();
        km_cfg.k = k.min(n);
        let km = kmeans(&embedding, &km_cfg).unwrap();
        SpectralResult {
            assignments: km.assignments,
            k: km_cfg.k,
            sigma,
            embedding,
        }
    }

    #[test]
    fn one_buffer_clustering_is_bit_identical_to_two_buffers() {
        // Euclidean distances between random points (no ties), the tight
        // components (ties, affinities that underflow to 0) and the small
        // hand-made matrices; σ from the median and fixed.
        let mut cases = vec![
            two_group_distances(),
            component_distances(4, 12),
            component_distances(6, 5),
        ];
        for (n, dims, seed) in [(37usize, 5usize, 11u64), (90, 8, 12)] {
            let mut next = draws(seed);
            let z = Matrix::from_fn(n, dims, |_, _| next() - 0.5);
            cases.push(Matrix::from_fn(n, n, |i, j| {
                let d2: f64 = z
                    .row(i)
                    .iter()
                    .zip(z.row(j))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                d2.sqrt()
            }));
        }
        let configs = [
            SpectralConfig::default(),
            SpectralConfig {
                sigma: Some(0.7),
                k: KSelection::Fixed(3),
                ..Default::default()
            },
        ];
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let _lock = crate::parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2] {
            crate::parallel::set_num_threads(threads);
            for (c, d) in cases.iter().enumerate() {
                for (k, cfg) in configs.iter().enumerate() {
                    let want = two_buffer_clustering(d, cfg);
                    let got = spectral_clustering(d.clone(), cfg).unwrap();
                    let at = format!("case {c}, config {k}, {threads} threads");
                    assert_eq!(got.sigma.to_bits(), want.sigma.to_bits(), "{at}");
                    assert_eq!(got.k, want.k, "{at}");
                    assert_eq!(bits(&got.embedding), bits(&want.embedding), "{at}");
                    assert_eq!(got.assignments, want.assignments, "{at}");
                }
            }
        }
        crate::parallel::set_num_threads(0);
    }
}
