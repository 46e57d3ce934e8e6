//! The LSI baseline (§VI-B): project the third-order tensor onto the 2D
//! tag×resource matrix (discarding the tagger dimension, Figure 3), apply
//! a truncated SVD, and run the *same* concept-distillation and retrieval
//! stages as CubeLSI.
//!
//! "Essentially, LSI is the same as CubeLSI except that the user (tagger)
//! dimension is ignored" — so everything downstream of the distance matrix
//! is shared code, and any quality gap is attributable to the tagger
//! dimension.

use crate::Ranker;
use cubelsi_core::{
    pairwise_distances_from_embedding, ConceptIndex, ConceptModel, RankedResource, TagDistances,
};
use cubelsi_folksonomy::{Folksonomy, TagId};
use cubelsi_linalg::spectral::{KSelection, SpectralConfig};
use cubelsi_linalg::subspace::SubspaceOptions;
use cubelsi_linalg::svd::truncated_svd;
use cubelsi_linalg::{CsrMatrix, LinAlgError, Matrix};
use std::sync::OnceLock;

/// Configuration of the LSI baseline.
#[derive(Debug, Clone)]
pub struct LsiConfig {
    /// Rank of the truncated SVD — the analogue of `J₂ = |T|/c₂`.
    /// `None` derives it from `reduction_ratio`.
    pub rank: Option<usize>,
    /// Reduction ratio used when `rank` is `None` (paper default 50).
    pub reduction_ratio: f64,
    /// Number of concepts (`None` → 95 %-variance rule).
    pub num_concepts: Option<usize>,
    /// Upper bound on concepts for the variance rule.
    pub max_concepts: usize,
    /// Affinity bandwidth σ (`None` → median heuristic).
    pub sigma: Option<f64>,
    /// Seed for the stochastic stages.
    pub seed: u64,
}

impl Default for LsiConfig {
    fn default() -> Self {
        LsiConfig {
            rank: None,
            reduction_ratio: 50.0,
            num_concepts: None,
            max_concepts: 64,
            sigma: None,
            seed: 0x151,
        }
    }
}

/// The LSI ranker: SVD-purified tag distances + shared concept retrieval.
///
/// It keeps the `T × rank` tag embedding, not the `T × T` distances it
/// was distilled from: [`Self::distances`] derives them on first use.
pub struct LsiRanker {
    embedding: Matrix,
    distances: OnceLock<TagDistances>,
    concepts: ConceptModel,
    index: ConceptIndex,
    singular_values: Vec<f64>,
}

impl LsiRanker {
    /// Builds the LSI pipeline on the user-aggregated tag×resource matrix.
    pub fn build(f: &Folksonomy, config: &LsiConfig) -> Result<Self, LinAlgError> {
        let (embedding, singular_values) = Self::embedding(f, config)?;
        let spectral = SpectralConfig {
            sigma: config.sigma,
            k: match config.num_concepts {
                Some(k) => KSelection::Fixed(k),
                None => KSelection::VarianceCovered {
                    fraction: 0.95,
                    max_k: config.max_concepts,
                },
            },
            kmeans: cubelsi_linalg::kmeans::KMeansConfig {
                seed: config.seed ^ 0x6b6d,
                ..Default::default()
            },
        };
        let concepts =
            ConceptModel::distill(pairwise_distances_from_embedding(&embedding), &spectral)?;
        let index = ConceptIndex::build(f, &concepts);
        Ok(LsiRanker {
            embedding,
            distances: OnceLock::new(),
            concepts,
            index,
            singular_values,
        })
    }

    /// Runs only the semantic-analysis stage, returning the tag distance
    /// matrix (used by the Table III accuracy experiment) and the singular
    /// values.
    pub fn distances_only(
        f: &Folksonomy,
        config: &LsiConfig,
    ) -> Result<(TagDistances, Vec<f64>), LinAlgError> {
        let (z, singular_values) = Self::embedding(f, config)?;
        Ok((pairwise_distances_from_embedding(&z), singular_values))
    }

    /// The tag embedding in latent space (`T × rank`) and the singular
    /// values.
    fn embedding(f: &Folksonomy, config: &LsiConfig) -> Result<(Matrix, Vec<f64>), LinAlgError> {
        let t = f.num_tags();
        let r = f.num_resources();
        let matrix = CsrMatrix::from_triples(t, r, &f.tag_resource_triples())?;
        let rank = config
            .rank
            .unwrap_or_else(|| ((t as f64 / config.reduction_ratio).round() as usize).max(1))
            .clamp(1, t.min(r));
        let svd = truncated_svd(
            &matrix,
            rank,
            &SubspaceOptions {
                seed: config.seed ^ 0x51d,
                ..Default::default()
            },
        )?;
        // Tag embedding in latent space: rows of U scaled by Σ — the exact
        // 2D analogue of the Theorem-1 embedding (distances equal Frobenius
        // distances between rows of the rank-k purified matrix U Σ Vᵀ).
        let mut z = svd.u.clone();
        for i in 0..z.rows() {
            let row = z.row_mut(i);
            for (x, &s) in row.iter_mut().zip(svd.singular_values.iter()) {
                *x *= s;
            }
        }
        Ok((z, svd.singular_values))
    }

    /// The purified tag distance matrix, derived from the embedding on
    /// first use.
    pub fn distances(&self) -> &TagDistances {
        self.distances
            .get_or_init(|| pairwise_distances_from_embedding(&self.embedding))
    }

    /// The distilled concept model.
    pub fn concepts(&self) -> &ConceptModel {
        &self.concepts
    }

    /// Retained singular values.
    pub fn singular_values(&self) -> &[f64] {
        &self.singular_values
    }
}

impl Ranker for LsiRanker {
    fn name(&self) -> &'static str {
        "LSI"
    }

    fn search_ids(&self, tags: &[TagId], top_k: usize) -> Vec<RankedResource> {
        self.index.query_tag_ids(&self.concepts, tags, top_k)
    }
}

/// Reference implementation of the purified-matrix distances used in tests:
/// materializes the rank-k approximation `M̂ = U Σ Vᵀ` and measures row
/// distances directly.
pub fn brute_force_lsi_distances(
    f: &Folksonomy,
    rank: usize,
    seed: u64,
) -> Result<Matrix, LinAlgError> {
    let t = f.num_tags();
    let r = f.num_resources();
    let matrix = CsrMatrix::from_triples(t, r, &f.tag_resource_triples())?;
    let svd = truncated_svd(
        &matrix,
        rank.clamp(1, t.min(r)),
        &SubspaceOptions {
            seed: seed ^ 0x51d,
            ..Default::default()
        },
    )?;
    let mhat = svd.reconstruct()?;
    let mut out = Matrix::zeros(t, t);
    for i in 0..t {
        for j in (i + 1)..t {
            let d = mhat.row_distance(i, j);
            out[(i, j)] = d;
            out[(j, i)] = d;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubelsi_folksonomy::store::figure2_example;

    fn small_lsi_config(rank: usize, k: usize) -> LsiConfig {
        LsiConfig {
            rank: Some(rank),
            num_concepts: Some(k),
            sigma: Some(1.0),
            ..Default::default()
        }
    }

    #[test]
    fn embedding_distances_match_purified_matrix() {
        let f = figure2_example();
        let (dist, _) = LsiRanker::distances_only(&f, &small_lsi_config(2, 2)).unwrap();
        let brute = brute_force_lsi_distances(&f, 2, 0x151).unwrap();
        assert!(
            dist.matrix().approx_eq(&brute, 1e-7),
            "LSI embedding distances must equal purified-matrix distances"
        );
    }

    #[test]
    fn full_rank_reproduces_raw_matrix_distances() {
        // With no truncation, distances reduce to Eq. 6 on Figure 3:
        // d(folk, people) = √9, d(folk, laptop) = √14, d(people, laptop) = √5.
        let f = figure2_example();
        let (dist, _) = LsiRanker::distances_only(&f, &small_lsi_config(3, 2)).unwrap();
        let folk = f.tag_id("folk").unwrap().index();
        let people = f.tag_id("people").unwrap().index();
        let laptop = f.tag_id("laptop").unwrap().index();
        assert!((dist.get(folk, people) - 3.0).abs() < 1e-6, "d12 = √9");
        assert!(
            (dist.get(folk, laptop) - 14.0f64.sqrt()).abs() < 1e-6,
            "d13 = √14"
        );
        assert!(
            (dist.get(people, laptop) - 5.0f64.sqrt()).abs() < 1e-6,
            "d23 = √5"
        );
        // …and exhibits the counter-intuitive inequality (Eq. 11) the paper
        // blames on ignoring the tagger dimension:
        assert!(dist.get(people, laptop) < dist.get(folk, people));
    }

    #[test]
    fn ranker_end_to_end() {
        let f = figure2_example();
        let lsi = LsiRanker::build(&f, &small_lsi_config(2, 2)).unwrap();
        let folk = f.tag_id("folk").unwrap();
        let hits = lsi.search_ids(&[folk], 0);
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert_eq!(lsi.concepts().num_concepts(), 2);
        assert_eq!(lsi.singular_values().len(), 2);
    }

    #[test]
    fn rank_derived_from_reduction_ratio() {
        let f = figure2_example();
        let cfg = LsiConfig {
            rank: None,
            reduction_ratio: 1.0, // |T|/1 = 3 → full rank
            num_concepts: Some(2),
            sigma: Some(1.0),
            ..Default::default()
        };
        let lsi = LsiRanker::build(&f, &cfg).unwrap();
        assert_eq!(lsi.singular_values().len(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let f = figure2_example();
        let a = LsiRanker::build(&f, &small_lsi_config(2, 2)).unwrap();
        let b = LsiRanker::build(&f, &small_lsi_config(2, 2)).unwrap();
        assert!(a
            .distances()
            .matrix()
            .approx_eq(b.distances().matrix(), 0.0));
    }
}
