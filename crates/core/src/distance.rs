//! Purified pairwise tag distances (§IV-D of the paper).
//!
//! The naive definition (Eq. 17) measures `D̂ᵢⱼ = ‖F̂₍:,ᵢ,:₎ − F̂₍:,ⱼ,:₎‖_F`
//! on the dense purified tensor `F̂` — prohibitively expensive (the paper's
//! Last.fm slice pair already needs 11.1M operations). Theorem 1 reduces it
//! to `D̂ᵢⱼ = √((Y⁽²⁾ᵢ − Y⁽²⁾ⱼ) Σ (Y⁽²⁾ᵢ − Y⁽²⁾ⱼ)ᵀ)` with
//! `Σ = S₍₂₎S₍₂₎ᵀ`, and Theorem 2 further collapses `Σ` to the diagonal
//! `Λ₂²` at the ALS fixed point.
//!
//! This module adds one more (mathematically equivalent) step the paper
//! leaves implicit: factor the PSD matrix `Σ = C Cᵀ` once, embed tags as
//! rows of `Z = Y⁽²⁾ C`, and every `D̂ᵢⱼ` becomes a plain Euclidean distance
//! in `J₂` dimensions — `O(J₂)` per pair after an `O(J₂³)` factorization,
//! versus the `O(J₂²)` per pair of evaluating Eq. 21 literally. Both paths
//! are provided and cross-checked; the brute-force Eq. 17 reference exists
//! for test-scale validation.

use crate::config::SigmaSource;
use cubelsi_linalg::parallel;
use cubelsi_linalg::{top_eigenpairs, LinAlgError, Matrix};
use cubelsi_tensor::TuckerDecomposition;

/// A symmetric matrix of pairwise tag distances with zero diagonal.
#[derive(Debug, Clone)]
pub struct TagDistances {
    matrix: Matrix,
}

impl TagDistances {
    /// Wraps a precomputed symmetric distance matrix.
    pub fn from_matrix(matrix: Matrix) -> Result<Self, LinAlgError> {
        if matrix.rows() != matrix.cols() {
            return Err(LinAlgError::InvalidArgument(
                "distance matrix must be square".into(),
            ));
        }
        Ok(TagDistances { matrix })
    }

    /// Number of tags.
    pub fn num_tags(&self) -> usize {
        self.matrix.rows()
    }

    /// Distance between tags `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.matrix[(i, j)]
    }

    /// The full matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// The full matrix, as the buffer spectral clustering works in.
    pub fn into_matrix(self) -> Matrix {
        self.matrix
    }

    /// The most similar other tag to `i` — the `t_sim` of the paper's
    /// Table III evaluation — with its distance. `None` for a 1-tag corpus.
    pub fn nearest(&self, i: usize) -> Option<(usize, f64)> {
        let n = self.num_tags();
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if j == i {
                continue;
            }
            let d = self.get(i, j);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((j, d));
            }
        }
        best
    }

    /// Median of the off-diagonal distances (used to classify pairs as
    /// related/unrelated in the Table I experiment). Uses quickselect
    /// (`select_nth_unstable_by`) instead of a full sort: `O(n²)` expected
    /// instead of `O(n² log n)`.
    pub fn median_offdiag(&self) -> f64 {
        let n = self.num_tags();
        let mut vals = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                vals.push(self.get(i, j));
            }
        }
        if vals.is_empty() {
            return 0.0;
        }
        let mid = vals.len() / 2;
        let (_, median, _) = vals.select_nth_unstable_by(mid, |a, b| {
            a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
        });
        *median
    }
}

/// What the purified distances need of a Tucker decomposition (Theorems
/// 1–2): the tag factor `Y⁽²⁾` (`T × J₂`), the mode-2 singular values
/// `Λ₂`, and — under [`SigmaSource::CoreGram`] only — `Σ = S₍₂₎S₍₂₎ᵀ`
/// (`J₂ × J₂`), plus the fit and sweep count of the run it came from.
/// `O(T·J₂)` values: the core and the user and resource factors are not
/// kept. This is Table VII's model, and what an artifact stores of the
/// decomposition.
#[derive(Debug, Clone)]
pub struct TagModel {
    y2: Matrix,
    lambda2: Vec<f64>,
    core_gram: Option<CoreGram>,
    fit: f64,
    sweeps: usize,
}

/// `Σ` as stored, with the factor `C = V·√Λ` (`Σ = C Cᵀ`) the embedding
/// multiplies by, computed once when the model is assembled.
#[derive(Debug, Clone)]
struct CoreGram {
    sigma: Matrix,
    factor: Matrix,
}

impl TagModel {
    /// Cuts the model out of a decomposition; `Σ` is formed from the core
    /// only under [`SigmaSource::CoreGram`].
    pub(crate) fn from_decomposition(
        decomp: &TuckerDecomposition,
        source: SigmaSource,
    ) -> Result<Self, LinAlgError> {
        let sigma = match source {
            SigmaSource::Lambda2 => None,
            SigmaSource::CoreGram => Some(decomp.sigma_from_core()?),
        };
        Self::from_parts(
            decomp.factors[1].clone(),
            decomp.lambda2.clone(),
            sigma,
            decomp.fit,
            decomp.iterations,
        )
    }

    /// Assembles a model from its stored parts: `Σ` present means
    /// [`SigmaSource::CoreGram`]. Fails when `Λ₂` or `Σ` does not match
    /// `Y⁽²⁾`'s `J₂` columns, or when `Σ` cannot be eigen-factored.
    pub(crate) fn from_parts(
        y2: Matrix,
        lambda2: Vec<f64>,
        sigma: Option<Matrix>,
        fit: f64,
        sweeps: usize,
    ) -> Result<Self, LinAlgError> {
        let j2 = y2.cols();
        if lambda2.len() != j2 {
            return Err(LinAlgError::InvalidArgument(format!(
                "{} singular values for J2 = {j2}",
                lambda2.len()
            )));
        }
        let core_gram = match sigma {
            None => None,
            Some(sigma) if sigma.shape() == (j2, j2) => {
                let eig = top_eigenpairs(sigma.clone(), j2)?;
                // C = V √Λ (clamping tiny negative round-off eigenvalues).
                let mut factor = eig.vectors;
                for j in 0..factor.cols() {
                    let s = eig.values[j].max(0.0).sqrt();
                    for i in 0..factor.rows() {
                        factor[(i, j)] *= s;
                    }
                }
                Some(CoreGram { sigma, factor })
            }
            Some(sigma) => {
                return Err(LinAlgError::InvalidArgument(format!(
                    "Sigma is {}x{} for J2 = {j2}",
                    sigma.rows(),
                    sigma.cols()
                )))
            }
        };
        Ok(TagModel {
            y2,
            lambda2,
            core_gram,
            fit,
            sweeps,
        })
    }

    /// Number of tags `T` (rows of `Y⁽²⁾`).
    pub fn num_tags(&self) -> usize {
        self.y2.rows()
    }

    /// The tag factor `Y⁽²⁾`, `T × J₂`.
    pub fn y2(&self) -> &Matrix {
        &self.y2
    }

    /// The mode-2 singular values `Λ₂`, length `J₂`.
    pub fn lambda2(&self) -> &[f64] {
        &self.lambda2
    }

    /// `Σ = S₍₂₎S₍₂₎ᵀ` under [`SigmaSource::CoreGram`], `None` under
    /// [`SigmaSource::Lambda2`].
    pub fn sigma(&self) -> Option<&Matrix> {
        self.core_gram.as_ref().map(|c| &c.sigma)
    }

    /// Which `Σ` the distances use.
    pub fn sigma_source(&self) -> SigmaSource {
        match self.core_gram {
            Some(_) => SigmaSource::CoreGram,
            None => SigmaSource::Lambda2,
        }
    }

    /// Fit `1 − ‖F − F̂‖ / ‖F‖` of the decomposition.
    pub fn fit(&self) -> f64 {
        self.fit
    }

    /// HOOI sweeps the decomposition ran.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Embeds tags as rows of `Z = Y⁽²⁾ C` where `Σ = C Cᵀ`, so that
    /// `D̂ᵢⱼ = ‖Zᵢ − Zⱼ‖₂`.
    ///
    /// * [`SigmaSource::Lambda2`] — `C = diag(Λ₂)`: `Z` is `Y⁽²⁾` with
    ///   columns scaled by the mode-2 singular values (Theorem 2).
    /// * [`SigmaSource::CoreGram`] — `Σ` is eigen-factored (`J₂ × J₂`,
    ///   small) into `C = V·√Λ` (Theorem 1).
    pub fn embedding(&self) -> Matrix {
        match &self.core_gram {
            None => {
                let mut z = self.y2.clone();
                for i in 0..z.rows() {
                    let row = z.row_mut(i);
                    for (x, &l) in row.iter_mut().zip(self.lambda2.iter()) {
                        *x *= l;
                    }
                }
                z
            }
            Some(c) => self
                .y2
                .matmul(&c.factor)
                .expect("C is J2 x J2 by construction"),
        }
    }

    /// All purified tag distances, `‖Zᵢ − Zⱼ‖` over [`Self::embedding`].
    pub fn distances(&self) -> TagDistances {
        pairwise_distances_from_embedding(&self.embedding())
    }
}

/// [`TagModel::embedding`] of the model cut from `decomp`.
pub fn tag_embedding(
    decomp: &TuckerDecomposition,
    source: SigmaSource,
) -> Result<Matrix, LinAlgError> {
    Ok(TagModel::from_decomposition(decomp, source)?.embedding())
}

/// All-pairs Euclidean distances between the rows of `z`, parallelized over
/// row bands. This is the production distance path of CubeLSI.
///
/// Each thread owns a contiguous band of output rows and computes those
/// rows *completely* (both triangles) in a single parallel pass — there is
/// no serial mirroring step afterwards. Symmetric entries are computed
/// twice, but the duplicated flops parallelize perfectly, whereas the old
/// upper-triangle-then-serial-mirror scheme left an `O(n²)` strided,
/// single-threaded copy on the critical path. With a single worker thread
/// the duplicated flops would be a pure loss, so that case computes the
/// upper triangle once and mirrors it.
pub fn pairwise_distances_from_embedding(z: &Matrix) -> TagDistances {
    let n = z.rows();
    let mut matrix = Matrix::zeros(n, n);
    if parallel::num_threads() <= 1 || n <= 1 {
        for i in 0..n {
            let zi = z.row(i);
            for j in (i + 1)..n {
                let d = row_distance(zi, z.row(j));
                matrix[(i, j)] = d;
                matrix[(j, i)] = d;
            }
        }
        return TagDistances { matrix };
    }
    parallel::for_each_band(
        n,
        |i| i * n,
        matrix.as_mut_slice(),
        |rows, band| {
            for (bi, i) in rows.enumerate() {
                let zi = z.row(i);
                let out = &mut band[bi * n..(bi + 1) * n];
                for (j, slot) in out.iter_mut().enumerate() {
                    if j == i {
                        continue;
                    }
                    *slot = row_distance(zi, z.row(j));
                }
            }
        },
    );
    TagDistances { matrix }
}

/// Euclidean distance between two embedding rows — the shared inner
/// kernel of both the serial and the banded-parallel all-pairs paths
/// (symmetry of the output relies on both using this exact accumulation).
#[inline]
fn row_distance(zi: &[f64], zj: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (a, b) in zi.iter().zip(zj.iter()) {
        let d = a - b;
        acc += d * d;
    }
    acc.sqrt()
}

/// Literal evaluation of the Theorem-1 / Algorithm-1 formula (Eq. 20/21)
/// for one pair: `√(X Σ Xᵀ)` with `X = Y⁽²⁾ᵢ − Y⁽²⁾ⱼ`.
///
/// Used in tests to pin the optimized embedding path to the paper's
/// formula; `O(J₂²)` per call.
pub fn distance_pair_literal(
    decomp: &TuckerDecomposition,
    sigma: &Matrix,
    i: usize,
    j: usize,
) -> f64 {
    let y2 = &decomp.factors[1];
    let x: Vec<f64> = y2
        .row(i)
        .iter()
        .zip(y2.row(j).iter())
        .map(|(a, b)| a - b)
        .collect();
    let sx = sigma.matvec(&x).expect("sigma dims match J2");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(sx.iter()) {
        acc += a * b;
    }
    acc.max(0.0).sqrt()
}

/// Brute-force Eq. 17: materializes `F̂` and measures Frobenius distances
/// between mode-2 slices. **Test-scale only** — this is the computation the
/// paper's theorems exist to avoid.
pub fn brute_force_distances(decomp: &TuckerDecomposition) -> Result<TagDistances, LinAlgError> {
    let fhat = decomp.reconstruct()?;
    let (_, t, _) = fhat.dims();
    let slices: Vec<Matrix> = (0..t).map(|j| fhat.slice_mode2(j)).collect();
    let mut matrix = Matrix::zeros(t, t);
    for i in 0..t {
        for j in (i + 1)..t {
            let d = slices[i].sub(&slices[j])?.frobenius_norm();
            matrix[(i, j)] = d;
            matrix[(j, i)] = d;
        }
    }
    Ok(TagDistances { matrix })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubelsi_linalg::subspace::SubspaceOptions;
    use cubelsi_tensor::{tucker_als, SparseTensor3, TuckerConfig};

    fn figure2_decomposition(core: (usize, usize, usize)) -> TuckerDecomposition {
        let quads = [
            (0, 0, 0, 1.0),
            (0, 0, 1, 1.0),
            (1, 0, 1, 1.0),
            (2, 0, 1, 1.0),
            (0, 1, 0, 1.0),
            (1, 2, 2, 1.0),
            (2, 2, 2, 1.0),
        ];
        let f = SparseTensor3::from_entries((3, 3, 3), &quads).unwrap();
        let cfg = TuckerConfig {
            core_dims: core,
            max_iters: 40,
            fit_tol: 1e-12,
            subspace: SubspaceOptions::default(),
        };
        tucker_als(&f, &cfg).unwrap()
    }

    #[test]
    fn theorem1_matches_brute_force() {
        // The central correctness claim: the shortcut distances equal the
        // Eq. 17 distances on the materialized F̂.
        let d = figure2_decomposition((3, 3, 2));
        let brute = brute_force_distances(&d).unwrap();
        let z = tag_embedding(&d, SigmaSource::CoreGram).unwrap();
        let fast = pairwise_distances_from_embedding(&z);
        assert!(
            fast.matrix().approx_eq(brute.matrix(), 1e-8),
            "Theorem 1 violated:\nfast {:?}\nbrute {:?}",
            fast.matrix(),
            brute.matrix()
        );
    }

    #[test]
    fn theorem2_matches_theorem1_at_convergence() {
        let d = figure2_decomposition((3, 3, 2));
        let z1 = tag_embedding(&d, SigmaSource::CoreGram).unwrap();
        let z2 = tag_embedding(&d, SigmaSource::Lambda2).unwrap();
        let d1 = pairwise_distances_from_embedding(&z1);
        let d2 = pairwise_distances_from_embedding(&z2);
        assert!(d1.matrix().approx_eq(d2.matrix(), 1e-7));
    }

    #[test]
    fn literal_formula_matches_embedding_path() {
        let d = figure2_decomposition((2, 3, 2));
        let sigma = d.sigma_from_core().unwrap();
        let z = tag_embedding(&d, SigmaSource::CoreGram).unwrap();
        let fast = pairwise_distances_from_embedding(&z);
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let lit = distance_pair_literal(&d, &sigma, i, j);
                assert!(
                    (lit - fast.get(i, j)).abs() < 1e-9,
                    "pair ({i},{j}): literal {lit} vs fast {}",
                    fast.get(i, j)
                );
            }
        }
    }

    #[test]
    fn paper_ordering_folk_people_laptop() {
        // §IV-D: after purification D̂(folk, people) < D̂(people, laptop)
        // and D̂(folk, people) < D̂(folk, laptop) — the inequality the raw
        // distances get wrong. Tag ids: 0 = folk, 1 = people, 2 = laptop.
        let d = figure2_decomposition((3, 3, 2));
        let z = tag_embedding(&d, SigmaSource::CoreGram).unwrap();
        let dist = pairwise_distances_from_embedding(&z);
        let d12 = dist.get(0, 1);
        let d13 = dist.get(0, 2);
        let d23 = dist.get(1, 2);
        assert!(d12 < d23, "D̂12 = {d12} must be < D̂23 = {d23} (Eq. 19)");
        assert!(d12 < d13, "D̂12 = {d12} must be < D̂13 = {d13} (Eq. 18)");
    }

    #[test]
    fn distances_are_a_semimetric() {
        let d = figure2_decomposition((3, 3, 2));
        let z = tag_embedding(&d, SigmaSource::Lambda2).unwrap();
        let dist = pairwise_distances_from_embedding(&z);
        let n = dist.num_tags();
        for i in 0..n {
            assert_eq!(dist.get(i, i), 0.0);
            for j in 0..n {
                assert!(dist.get(i, j) >= 0.0);
                assert_eq!(dist.get(i, j), dist.get(j, i));
            }
        }
        // Triangle inequality holds for Euclidean embeddings.
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    assert!(dist.get(i, j) <= dist.get(i, k) + dist.get(k, j) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn nearest_and_median() {
        let d = figure2_decomposition((3, 3, 2));
        let z = tag_embedding(&d, SigmaSource::CoreGram).unwrap();
        let dist = pairwise_distances_from_embedding(&z);
        // folk's nearest tag is people (they share resources and users).
        let (nearest, _) = dist.nearest(0).unwrap();
        assert_eq!(nearest, 1);
        assert!(dist.median_offdiag() > 0.0);
        // Single-tag corpus has no nearest.
        let lone = TagDistances::from_matrix(Matrix::zeros(1, 1)).unwrap();
        assert!(lone.nearest(0).is_none());
        assert_eq!(lone.median_offdiag(), 0.0);
    }

    #[test]
    fn from_matrix_validates_shape() {
        assert!(TagDistances::from_matrix(Matrix::zeros(2, 3)).is_err());
        assert!(TagDistances::from_matrix(Matrix::zeros(3, 3)).is_ok());
    }

    #[test]
    fn full_rank_embedding_reproduces_raw_slice_distances() {
        // With no trimming at all, F̂ = F, so the purified distances reduce
        // to the raw Frobenius distances of §IV-A: D12 = √3, D13 = √6,
        // D23 = √3 (Eqs. 9, 12, 13).
        let d = figure2_decomposition((3, 3, 3));
        let z = tag_embedding(&d, SigmaSource::CoreGram).unwrap();
        let dist = pairwise_distances_from_embedding(&z);
        assert!((dist.get(0, 1) - 3.0f64.sqrt()).abs() < 1e-6);
        assert!((dist.get(0, 2) - 6.0f64.sqrt()).abs() < 1e-6);
        assert!((dist.get(1, 2) - 3.0f64.sqrt()).abs() < 1e-6);
    }
}
