//! k-means clustering with k-means++ initialization.
//!
//! This is the final step of the paper's concept distillation (§V step 4):
//! tags, embedded as rows of the normalized spectral matrix `X`, are grouped
//! into `k` semantically coherent clusters — each cluster is a *concept*.
//!
//! Lloyd's iterations are textbook: every point scans every centroid,
//! `O(n·k·d)` per iteration. The `n_init` restarts run in parallel via
//! [`crate::parallel`]; each restart runs on one thread, and every
//! reduction that feeds the iteration (inertia, centroid sums,
//! empty-cluster reseeding) is performed serially in point order, so results
//! are identical for every thread count.

use crate::error::LinAlgError;
use crate::matrix::Matrix;
use crate::parallel;
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iters: usize,
    /// Relative decrease of inertia below which iteration stops.
    pub tol: f64,
    /// Number of independent restarts; the best (lowest-inertia) run wins.
    pub n_init: usize,
    /// RNG seed (restart `i` uses `seed + i`).
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iters: 100,
            tol: 1e-6,
            n_init: 4,
            seed: 0x6b6d_6561_6e73, // "kmeans" in ASCII
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster index for each input point (length = number of rows).
    pub assignments: Vec<usize>,
    /// `k x d` matrix of final centroids.
    pub centroids: Matrix,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f64,
    /// Lloyd iterations performed by the winning restart.
    pub iterations: usize,
}

/// Clusters the rows of `points` into `config.k` groups.
///
/// Uses k-means++ seeding and textbook Lloyd iterations; empty clusters are
/// re-seeded deterministically from the point farthest from its assigned
/// centroid. Runs `n_init` restarts (in parallel when workers are
/// available) and returns the lowest-inertia result, ties resolved toward
/// the earliest restart. Fully deterministic for a fixed seed, independent
/// of the thread count.
pub fn kmeans(points: &Matrix, config: &KMeansConfig) -> Result<KMeansResult> {
    let n = points.rows();
    let k = config.k;
    if k == 0 {
        return Err(LinAlgError::InvalidArgument("k must be > 0".into()));
    }
    if n == 0 {
        return Err(LinAlgError::InvalidArgument(
            "cannot cluster an empty point set".into(),
        ));
    }
    if k > n {
        return Err(LinAlgError::InvalidArgument(format!(
            "k = {k} exceeds the number of points {n}"
        )));
    }
    let results = parallel::parallel_map_collect(config.n_init.max(1), |restart| {
        lloyd(points, config, config.seed.wrapping_add(restart as u64))
    });
    let mut best: Option<KMeansResult> = None;
    for result in results {
        if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
            best = Some(result);
        }
    }
    Ok(best.expect("at least one restart ran"))
}

/// One restart: k-means++ seeds from `seed`, then Lloyd iterations until
/// the inertia stops improving by `config.tol` or `config.max_iters` is
/// reached, then a final assignment against the final centroids.
fn lloyd(points: &Matrix, config: &KMeansConfig, seed: u64) -> KMeansResult {
    let n = points.rows();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = kmeanspp_init(points, config.k, &mut rng);
    let mut assignments = vec![0usize; n];
    let mut dist_sq = vec![0.0f64; n];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    for it in 0..config.max_iters {
        iterations = it + 1;
        assign(points, &centroids, &mut assignments, &mut dist_sq);
        let new_inertia: f64 = dist_sq.iter().sum();
        update_centroids(points, &assignments, &dist_sq, &mut centroids);
        let converged = inertia_converged(inertia, new_inertia, config.tol);
        inertia = new_inertia;
        if converged {
            break;
        }
    }
    assign(points, &centroids, &mut assignments, &mut dist_sq);
    KMeansResult {
        assignments,
        centroids,
        inertia: dist_sq.iter().sum(),
        iterations,
    }
}

/// The assignment step: every point goes to its nearest centroid (the first
/// one at the smallest distance), and `dist_sq` gets that squared distance.
fn assign(points: &Matrix, centroids: &Matrix, assignments: &mut [usize], dist_sq: &mut [f64]) {
    for (i, (slot, d2)) in assignments.iter_mut().zip(dist_sq.iter_mut()).enumerate() {
        let mut best = (0, f64::INFINITY);
        for c in 0..centroids.rows() {
            let d = sq_dist(points.row(i), centroids.row(c));
            if d < best.1 {
                best = (c, d);
            }
        }
        (*slot, *d2) = best;
    }
}

/// The update step: every centroid becomes the mean of its points. An empty
/// cluster is re-seeded from the point farthest from its assigned centroid
/// (`dist_sq`, the exact distances of the assignment pass), skipping points
/// already consumed by an earlier empty cluster this iteration; ties break
/// toward the lowest point index. Deterministic for any seed and thread
/// count.
fn update_centroids(
    points: &Matrix,
    assignments: &[usize],
    dist_sq: &[f64],
    centroids: &mut Matrix,
) {
    let (k, d) = centroids.shape();
    let mut sums = Matrix::zeros(k, d);
    let mut counts = vec![0usize; k];
    for (i, &c) in assignments.iter().enumerate() {
        counts[c] += 1;
        let row = points.row(i);
        let srow = sums.row_mut(c);
        for (s, &x) in srow.iter_mut().zip(row.iter()) {
            *s += x;
        }
    }
    let mut reseed_used: Vec<usize> = Vec::new();
    for (c, &count) in counts.iter().enumerate() {
        if count == 0 {
            let far = farthest_unused_point(dist_sq, &reseed_used);
            reseed_used.push(far);
            centroids.row_mut(c).copy_from_slice(points.row(far));
        } else {
            let inv = 1.0 / count as f64;
            let srow = sums.row(c);
            let crow = &mut centroids.as_mut_slice()[c * d..(c + 1) * d];
            for (cv, sv) in crow.iter_mut().zip(srow.iter()) {
                *cv = sv * inv;
            }
        }
    }
}

/// Whether the relative inertia improvement fell below `tol`.
fn inertia_converged(previous: f64, current: f64, tol: f64) -> bool {
    previous.is_finite() && (previous - current).abs() / previous.max(1e-30) < tol
}

/// Index of the point with the largest assigned distance that is not in
/// `used` (ties toward the lowest index). `used` is tiny — at most one entry
/// per empty cluster — so a linear membership test is fine.
fn farthest_unused_point(dist_sq: &[f64], used: &[usize]) -> usize {
    let mut best = usize::MAX;
    let mut best_d = f64::NEG_INFINITY;
    for (i, &d) in dist_sq.iter().enumerate() {
        if d > best_d && !used.contains(&i) {
            best_d = d;
            best = i;
        }
    }
    // More empty clusters than points cannot happen (k <= n is validated),
    // so there is always an unused point left.
    debug_assert!(best != usize::MAX, "no reseed candidate left");
    if best == usize::MAX {
        0
    } else {
        best
    }
}

/// k-means++ seeding: first centroid uniform, each subsequent centroid drawn
/// with probability proportional to its squared distance from the nearest
/// already-chosen centroid.
fn kmeanspp_init(points: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = points.rows();
    let d = points.cols();
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(points.row(first));
    let mut dist_sq: Vec<f64> = (0..n)
        .map(|i| sq_dist(points.row(i), centroids.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = dist_sq.iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = n - 1;
            for (i, &w) in dist_sq.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        };
        centroids.row_mut(c).copy_from_slice(points.row(chosen));
        for (i, slot) in dist_sq.iter_mut().enumerate() {
            let nd = sq_dist(points.row(i), centroids.row(c));
            if nd < *slot {
                *slot = nd;
            }
        }
    }
    centroids
}

#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2D.
    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 8.0)];
        // Deterministic low-discrepancy jitter, no RNG needed.
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for t in 0..20 {
                let dx = ((t * 7) % 10) as f64 / 10.0 - 0.5;
                let dy = ((t * 3) % 10) as f64 / 10.0 - 0.5;
                rows.push(vec![cx + dx, cy + dy]);
                labels.push(ci);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    /// Deterministic pseudo-random points, with occasional duplicated rows
    /// so empty clusters and exact distance ties actually occur.
    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            if i > 0 && next() % 5 == 0 {
                let dup = (next() as usize) % rows.len();
                rows.push(rows[dup].clone());
            } else {
                rows.push(
                    (0..d)
                        .map(|_| ((next() >> 11) as f64 / (1u64 << 53) as f64) - 0.5)
                        .collect(),
                );
            }
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (points, truth) = blobs();
        let cfg = KMeansConfig {
            k: 3,
            seed: 7,
            ..Default::default()
        };
        let result = kmeans(&points, &cfg).unwrap();
        // Every ground-truth blob must map to exactly one cluster id.
        for blob in 0..3 {
            let ids: std::collections::HashSet<usize> = truth
                .iter()
                .zip(result.assignments.iter())
                .filter(|(t, _)| **t == blob)
                .map(|(_, a)| *a)
                .collect();
            assert_eq!(ids.len(), 1, "blob {blob} split across clusters");
        }
        assert!(result.inertia < 20.0);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let points = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 0.0], vec![0.0, 5.0]]).unwrap();
        let cfg = KMeansConfig {
            k: 3,
            seed: 1,
            ..Default::default()
        };
        let result = kmeans(&points, &cfg).unwrap();
        assert!(result.inertia < 1e-20);
        let unique: std::collections::HashSet<_> = result.assignments.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let points = Matrix::from_rows(&[vec![1.0], vec![3.0], vec![5.0]]).unwrap();
        let cfg = KMeansConfig {
            k: 1,
            seed: 3,
            ..Default::default()
        };
        let result = kmeans(&points, &cfg).unwrap();
        assert!((result.centroids[(0, 0)] - 3.0).abs() < 1e-9);
        assert_eq!(result.assignments, vec![0, 0, 0]);
    }

    #[test]
    fn rejects_invalid_arguments() {
        let points = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let mut cfg = KMeansConfig {
            k: 0,
            ..KMeansConfig::default()
        };
        assert!(kmeans(&points, &cfg).is_err());
        cfg.k = 5;
        assert!(kmeans(&points, &cfg).is_err());
        cfg.k = 1;
        assert!(kmeans(&Matrix::zeros(0, 2), &cfg).is_err());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (points, _) = blobs();
        let cfg = KMeansConfig {
            k: 3,
            seed: 99,
            ..Default::default()
        };
        let r1 = kmeans(&points, &cfg).unwrap();
        let r2 = kmeans(&points, &cfg).unwrap();
        assert_eq!(r1.assignments, r2.assignments);
        assert_eq!(r1.inertia, r2.inertia);
    }

    #[test]
    fn identical_points_do_not_crash() {
        let points = Matrix::from_rows(&vec![vec![1.0, 1.0]; 6]).unwrap();
        let cfg = KMeansConfig {
            k: 2,
            seed: 5,
            ..Default::default()
        };
        let result = kmeans(&points, &cfg).unwrap();
        assert!(result.inertia < 1e-18);
    }

    /// Satellite regression: a fixed seed reproduces identical centroids
    /// across repeated runs *and* across thread counts, including when
    /// empty clusters force the deterministic farthest-point reseed.
    #[test]
    fn reseed_and_threading_are_deterministic() {
        let _guard = parallel::TEST_THREAD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Duplicate-heavy points with k close to n make empty clusters
        // likely after the first update step.
        let points = random_points(48, 3, 77);
        let cfg = KMeansConfig {
            k: 24,
            n_init: 3,
            seed: 4242,
            ..Default::default()
        };
        let baseline = kmeans(&points, &cfg).unwrap();
        for threads in [1usize, 2, 4, 8] {
            parallel::set_num_threads(threads);
            let run = kmeans(&points, &cfg).unwrap();
            parallel::set_num_threads(0);
            assert!(
                run.centroids.approx_eq(&baseline.centroids, 0.0),
                "centroids differ at {threads} threads"
            );
            assert_eq!(run.assignments, baseline.assignments);
            assert_eq!(run.inertia.to_bits(), baseline.inertia.to_bits());
        }
    }

    #[test]
    fn multiple_empty_clusters_get_distinct_reseeds() {
        // All mass on two coincident groups, k = 4: at least two clusters
        // end up empty and must be reseeded from *different* points.
        let mut rows = vec![vec![0.0, 0.0]; 10];
        rows.extend(vec![vec![9.0, 9.0]; 10]);
        rows.push(vec![30.0, -30.0]);
        rows.push(vec![-30.0, 30.0]);
        let points = Matrix::from_rows(&rows).unwrap();
        let cfg = KMeansConfig {
            k: 4,
            seed: 9,
            n_init: 1,
            ..Default::default()
        };
        let result = kmeans(&points, &cfg).unwrap();
        // With 4 well-spread groups/outliers and the farthest-point reseed,
        // no centroid may remain duplicated on convergence.
        let mut seen: Vec<&[f64]> = Vec::new();
        for c in 0..4 {
            let row = result.centroids.row(c);
            assert!(
                !seen.contains(&row),
                "duplicate centroid {c} after reseeding"
            );
            seen.push(row);
        }
    }
}
