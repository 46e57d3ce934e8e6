//! Concept distillation (§V): spectral clustering of tags on the purified
//! distance matrix. Each cluster of semantically related tags is a
//! *concept*; hard clustering assigns every tag to exactly one concept
//! (the paper leaves soft clustering as future work; README's
//! "Reproduction status" table records what it measured here).

use crate::distance::TagDistances;
use cubelsi_folksonomy::{Folksonomy, TagId};
use cubelsi_linalg::spectral::{spectral_clustering, SpectralConfig};
use cubelsi_linalg::LinAlgError;

/// The distilled concept space: a hard assignment of tags to concepts.
#[derive(Debug, Clone)]
pub struct ConceptModel {
    /// `tag index → concept index`.
    assignments: Vec<usize>,
    /// `concept index → member tag indexes` (sorted).
    clusters: Vec<Vec<usize>>,
    /// σ used by the affinity kernel.
    sigma: f64,
}

impl ConceptModel {
    /// Runs §V steps 1–4 on a purified distance matrix, which it consumes:
    /// the clustering turns it into the normalised affinity in place
    /// ([`spectral_clustering`]), so the build holds one `T × T` buffer.
    pub fn distill(distances: TagDistances, config: &SpectralConfig) -> Result<Self, LinAlgError> {
        let result = spectral_clustering(distances.into_matrix(), config)?;
        Ok(Self::from_assignments(result.assignments, result.sigma))
    }

    /// Builds a model from a precomputed hard assignment (used by the LSI
    /// baseline, which shares this clustering stage).
    pub fn from_assignments(assignments: Vec<usize>, sigma: f64) -> Self {
        let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
        Self::from_parts(assignments, k, sigma)
    }

    /// Builds a model from a hard assignment and an explicit concept count,
    /// preserving trailing empty clusters that `from_assignments` would
    /// infer away. This is the deserialization constructor: a persisted
    /// model must restore with the exact concept-space dimensionality it
    /// was saved with, or tf-idf vectors would change shape.
    ///
    /// # Panics
    /// Panics when an assignment is `>= num_concepts`; callers restoring
    /// untrusted data must validate first.
    pub fn from_parts(assignments: Vec<usize>, num_concepts: usize, sigma: f64) -> Self {
        let mut clusters = vec![Vec::new(); num_concepts];
        for (tag, &c) in assignments.iter().enumerate() {
            clusters[c].push(tag);
        }
        ConceptModel {
            assignments,
            clusters,
            sigma,
        }
    }

    /// The full `tag index → concept index` assignment (serialization
    /// accessor; [`Self::concept_of`] is the per-tag view).
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Number of concepts.
    pub fn num_concepts(&self) -> usize {
        self.clusters.len()
    }

    /// Number of tags covered.
    pub fn num_tags(&self) -> usize {
        self.assignments.len()
    }

    /// The concept of a tag.
    #[inline]
    pub fn concept_of(&self, tag: usize) -> usize {
        self.assignments[tag]
    }

    /// Member tags of a concept.
    pub fn tags_of(&self, concept: usize) -> &[usize] {
        &self.clusters[concept]
    }

    /// σ used for the affinity kernel (diagnostics).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// `true` when both tags map to the same concept — the semantic
    /// relatedness judgment of the Table I experiment.
    pub fn same_concept(&self, a: usize, b: usize) -> bool {
        self.assignments[a] == self.assignments[b]
    }

    /// Human-readable cluster summaries (the Table IV view).
    pub fn summaries(&self, folksonomy: &Folksonomy) -> Vec<TagClusterSummary> {
        self.clusters
            .iter()
            .enumerate()
            .map(|(concept, tags)| TagClusterSummary {
                concept,
                tags: tags
                    .iter()
                    .map(|&t| folksonomy.tag_name(TagId::from_index(t)).to_owned())
                    .collect(),
            })
            .collect()
    }
}

/// A named tag cluster, as printed in Table IV.
#[derive(Debug, Clone)]
pub struct TagClusterSummary {
    /// Concept index.
    pub concept: usize,
    /// Member tag names.
    pub tags: Vec<String>,
}

impl std::fmt::Display for TagClusterSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "concept {}: {}", self.concept, self.tags.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubelsi_linalg::spectral::KSelection;
    use cubelsi_linalg::Matrix;

    fn block_distances() -> TagDistances {
        // Tags {0,1,2} close together, {3,4} close together, far apart.
        let n = 5;
        let m = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else if (i < 3) == (j < 3) {
                0.2
            } else {
                4.0
            }
        });
        TagDistances::from_matrix(m).unwrap()
    }

    fn fixed_config(k: usize) -> SpectralConfig {
        SpectralConfig {
            sigma: Some(1.0),
            k: KSelection::Fixed(k),
            ..Default::default()
        }
    }

    #[test]
    fn distill_recovers_block_structure() {
        let model = ConceptModel::distill(block_distances(), &fixed_config(2)).unwrap();
        assert_eq!(model.num_concepts(), 2);
        assert_eq!(model.num_tags(), 5);
        assert!(model.same_concept(0, 1));
        assert!(model.same_concept(0, 2));
        assert!(model.same_concept(3, 4));
        assert!(!model.same_concept(0, 3));
    }

    #[test]
    fn clusters_partition_tags() {
        let model = ConceptModel::distill(block_distances(), &fixed_config(2)).unwrap();
        let mut seen = vec![false; model.num_tags()];
        for c in 0..model.num_concepts() {
            for &t in model.tags_of(c) {
                assert!(!seen[t], "tag {t} in two clusters");
                seen[t] = true;
                assert_eq!(model.concept_of(t), c);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn from_assignments_round_trip() {
        let model = ConceptModel::from_assignments(vec![1, 0, 1, 2], 0.7);
        assert_eq!(model.num_concepts(), 3);
        assert_eq!(model.tags_of(1), &[0, 2]);
        assert_eq!(model.concept_of(3), 2);
        assert_eq!(model.sigma(), 0.7);
    }

    #[test]
    fn summaries_use_tag_names() {
        let mut b = cubelsi_folksonomy::FolksonomyBuilder::new();
        b.add("u", "audio", "r1");
        b.add("u", "mp3", "r1");
        b.add("u", "laptop", "r2");
        let f = b.build();
        // Tag ids follow intern order: audio=0, mp3=1, laptop=2.
        let model = ConceptModel::from_assignments(vec![0, 0, 1], 1.0);
        let summaries = model.summaries(&f);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].tags, vec!["audio", "mp3"]);
        assert_eq!(summaries[1].tags, vec!["laptop"]);
        assert!(summaries[0].to_string().contains("audio, mp3"));
    }
}
