//! Query workloads with graded ground-truth relevance.
//!
//! Substitutes for the paper's user study (16 users × 8 queries, each
//! returned resource labeled Relevant = 2 / Partially Relevant = 1 /
//! Irrelevant = 0). Queries target latent concepts; relevance grades come
//! from the generator's resource–concept affinities, optionally perturbed
//! by assessor noise so grades behave like human labels rather than a
//! noiseless oracle.

use cubelsi_datagen::GeneratedDataset;
use cubelsi_folksonomy::TagId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload generation parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of queries (the paper uses 128).
    pub num_queries: usize,
    /// Inclusive range of query tags.
    pub tags_per_query: (usize, usize),
    /// Inclusive range of target concepts per query.
    pub concepts_per_query: (usize, usize),
    /// Affinity at or above which a resource is Relevant (grade 2).
    pub relevant_threshold: f64,
    /// Affinity at or above which a resource is Partially Relevant (1).
    pub partial_threshold: f64,
    /// Probability an assessor mislabels a resource by one grade.
    pub assessor_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_queries: 128,
            tags_per_query: (1, 3),
            concepts_per_query: (1, 2),
            relevant_threshold: 0.45,
            partial_threshold: 0.15,
            assessor_noise: 0.02,
            seed: 0x9e4,
        }
    }
}

/// One evaluation query.
#[derive(Debug, Clone)]
pub struct Query {
    /// The query's tag ids (what a user would type).
    pub tags: Vec<TagId>,
    /// The latent concepts the query targets (hidden from the methods).
    pub concepts: Vec<usize>,
    /// Relevance grade (0/1/2) of every resource, indexed by resource id.
    pub relevance: Vec<u8>,
}

impl Query {
    /// Number of resources with a positive grade.
    pub fn num_relevant(&self) -> usize {
        self.relevance.iter().filter(|&&g| g > 0).count()
    }
}

/// Generates a concept-targeted workload over a generated dataset.
///
/// Queries whose sampled concepts have no in-corpus tags are re-drawn, so
/// every returned query has at least one answerable tag.
pub fn generate_workload(ds: &GeneratedDataset, config: &WorkloadConfig) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let truth = &ds.truth;
    let num_concepts = truth.concept_words.len();
    let num_resources = ds.folksonomy.num_resources();

    // Reverse index: concept → tags (ids) expressing it in this corpus.
    let mut concept_tags: Vec<Vec<TagId>> = vec![Vec::new(); num_concepts];
    for (tag, concepts) in truth.tag_concepts.iter().enumerate() {
        for &c in concepts {
            concept_tags[c].push(TagId::from_index(tag));
        }
    }
    let usable: Vec<usize> = (0..num_concepts)
        .filter(|&c| !concept_tags[c].is_empty())
        .collect();
    assert!(
        !usable.is_empty(),
        "no concept has any tag in the corpus; workload impossible"
    );

    let mut queries = Vec::with_capacity(config.num_queries);
    for _ in 0..config.num_queries {
        // Concepts for this query.
        let (clo, chi) = config.concepts_per_query;
        let n_concepts = if chi > clo {
            rng.gen_range(clo..=chi)
        } else {
            clo
        }
        .clamp(1, usable.len());
        let mut concepts = Vec::with_capacity(n_concepts);
        while concepts.len() < n_concepts {
            let c = usable[rng.gen_range(0..usable.len())];
            if !concepts.contains(&c) {
                concepts.push(c);
            }
        }
        // Tags from those concepts.
        let (tlo, thi) = config.tags_per_query;
        let n_tags = if thi > tlo {
            rng.gen_range(tlo..=thi)
        } else {
            tlo
        }
        .max(1);
        let mut tags = Vec::with_capacity(n_tags);
        for i in 0..n_tags {
            let c = concepts[i % concepts.len()];
            let pool = &concept_tags[c];
            let t = pool[rng.gen_range(0..pool.len())];
            if !tags.contains(&t) {
                tags.push(t);
            }
        }
        // Graded relevance from the oracle + assessor noise.
        let mut relevance = Vec::with_capacity(num_resources);
        for r in 0..num_resources {
            let affinity = truth.resource_relevance(&concepts, r);
            let mut grade: i8 = if affinity >= config.relevant_threshold {
                2
            } else if affinity >= config.partial_threshold {
                1
            } else {
                0
            };
            if rng.gen::<f64>() < config.assessor_noise {
                grade += if rng.gen::<bool>() { 1 } else { -1 };
            }
            relevance.push(grade.clamp(0, 2) as u8);
        }
        queries.push(Query {
            tags,
            concepts,
            relevance,
        });
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubelsi_datagen::{generate, GeneratorConfig};

    fn dataset() -> GeneratedDataset {
        generate(&GeneratorConfig {
            users: 30,
            resources: 40,
            concepts: 6,
            assignments: 2_000,
            seed: 17,
            ..Default::default()
        })
    }

    #[test]
    fn workload_has_requested_size_and_valid_tags() {
        let ds = dataset();
        let cfg = WorkloadConfig {
            num_queries: 32,
            ..Default::default()
        };
        let queries = generate_workload(&ds, &cfg);
        assert_eq!(queries.len(), 32);
        for q in &queries {
            assert!(!q.tags.is_empty());
            for t in &q.tags {
                assert!(t.index() < ds.folksonomy.num_tags());
            }
            assert_eq!(q.relevance.len(), ds.folksonomy.num_resources());
            assert!(!q.concepts.is_empty());
        }
    }

    #[test]
    fn grades_reflect_affinity_thresholds() {
        let ds = dataset();
        let cfg = WorkloadConfig {
            num_queries: 16,
            assessor_noise: 0.0,
            ..Default::default()
        };
        let queries = generate_workload(&ds, &cfg);
        for q in &queries {
            for (r, &g) in q.relevance.iter().enumerate() {
                let affinity = ds.truth.resource_relevance(&q.concepts, r);
                let expected = if affinity >= cfg.relevant_threshold {
                    2
                } else if affinity >= cfg.partial_threshold {
                    1
                } else {
                    0
                };
                assert_eq!(g, expected, "query grades must match the oracle");
            }
        }
    }

    #[test]
    fn most_queries_have_relevant_resources() {
        let ds = dataset();
        let queries = generate_workload(
            &ds,
            &WorkloadConfig {
                num_queries: 64,
                ..Default::default()
            },
        );
        let with_relevant = queries.iter().filter(|q| q.num_relevant() > 0).count();
        assert!(
            with_relevant * 10 >= queries.len() * 8,
            "{with_relevant}/{} queries have relevant resources",
            queries.len()
        );
    }

    #[test]
    fn noise_perturbs_but_preserves_range() {
        let ds = dataset();
        let cfg = WorkloadConfig {
            num_queries: 8,
            assessor_noise: 0.5,
            seed: 2,
            ..Default::default()
        };
        let noisy = generate_workload(&ds, &cfg);
        for q in &noisy {
            for &g in &q.relevance {
                assert!(g <= 2);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let cfg = WorkloadConfig {
            num_queries: 8,
            ..Default::default()
        };
        let a = generate_workload(&ds, &cfg);
        let b = generate_workload(&ds, &cfg);
        for (qa, qb) in a.iter().zip(b.iter()) {
            assert_eq!(qa.tags, qb.tags);
            assert_eq!(qa.relevance, qb.relevance);
        }
    }
}
