//! End-to-end equivalence of the optimized offline kernels with their
//! reference implementations.
//!
//! The build-performance overhaul replaced naive Lloyd's k-means with a
//! bounds-pruned variant and the materialized two-matmul Gram applies with
//! fused single-pass kernels. Both swaps claim **bit-identical** results;
//! these tests enforce the claim end to end on randomized corpora: a build
//! with the reference kernels must produce byte-for-byte the same tag
//! distances, concept assignments, and ranked search results as the
//! optimized default.
//!
//! The reference kernels are switches of the layers that own them
//! (`TuckerConfig::fused_gram`, `KMeansAlgorithm::NaiveLloyd`), not of
//! `CubeLsiConfig`, so the reference side is built from the layer calls
//! `CubeLsi::build` makes, with those two switches flipped.

use cubelsi::core::{
    build_tensor, pairwise_distances_from_embedding, tag_embedding, ConceptIndex, ConceptModel,
    CubeLsi, CubeLsiConfig, QueryEngine, RankedResource, TagDistances,
};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::folksonomy::{Folksonomy, TagId};
use cubelsi::linalg::kmeans::KMeansAlgorithm;
use cubelsi::tensor::tucker_als;

fn corpus(
    users: usize,
    resources: usize,
    assignments: usize,
    seed: u64,
) -> cubelsi::datagen::GeneratedDataset {
    generate(&GeneratorConfig {
        users,
        resources,
        concepts: 8,
        assignments,
        noise_rate: 0.05,
        seed,
        ..Default::default()
    })
}

/// What a build leaves behind, as far as these tests compare it.
struct ReferenceBuild {
    distances: TagDistances,
    concepts: ConceptModel,
    engine: QueryEngine,
}

/// `CubeLsi::build`'s layer calls with naive Lloyd's k-means and the
/// materialized Gram apply. The spectral eigensolve is the same on both
/// sides, so any divergence is attributable to k-means or the Gram apply.
fn reference_build(f: &Folksonomy, config: &CubeLsiConfig) -> ReferenceBuild {
    let tensor = build_tensor(f).unwrap();
    let mut tucker_cfg = config.tucker_config(tensor.dims()).unwrap();
    tucker_cfg.fused_gram = false;
    let decomposition = tucker_als(&tensor, &tucker_cfg).unwrap();
    let embedding = tag_embedding(&decomposition, config.sigma_source).unwrap();
    let distances = pairwise_distances_from_embedding(&embedding);
    let mut spectral_cfg = config.spectral_config();
    spectral_cfg.kmeans.algorithm = KMeansAlgorithm::NaiveLloyd;
    let concepts = ConceptModel::distill(&distances, &spectral_cfg).unwrap();
    let engine = QueryEngine::with_strategy(ConceptIndex::build(f, &concepts), config.pruning);
    ReferenceBuild {
        distances,
        concepts,
        engine,
    }
}

fn assert_same_hits(a: &[RankedResource], b: &[RankedResource], context: &str) {
    assert_eq!(a.len(), b.len(), "result count diverged for {context}");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.resource, y.resource, "ranking diverged for {context}");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "score bits diverged for {context}"
        );
    }
}

/// Asserts that the two builds rank identically (resources and bitwise
/// scores) for every single-tag query and a few multi-tag queries.
fn assert_identical_search(a: &CubeLsi, b: &ReferenceBuild, num_tags: usize) {
    for t in 0..num_tags {
        let tags = [TagId::from_index(t)];
        assert_same_hits(
            &a.search_ids(&tags, 10),
            &b.engine.search_tags(&b.concepts, &tags, 10),
            &format!("tag {t}"),
        );
    }
    for pair in [(0usize, 1usize), (1, 3), (2, 5)] {
        let tags = [TagId::from_index(pair.0), TagId::from_index(pair.1)];
        assert_same_hits(
            &a.search_ids(&tags, 0),
            &b.engine.search_tags(&b.concepts, &tags, 0),
            &format!("tags {pair:?}"),
        );
    }
}

#[test]
fn pruned_kmeans_and_fused_gram_are_bit_identical_end_to_end() {
    for (users, resources, assignments, seed) in [
        (40usize, 30usize, 2_000usize, 21u64),
        (80, 60, 5_000, 22),
        (25, 45, 1_500, 23),
    ] {
        let ds = corpus(users, resources, assignments, seed);
        let cfg = CubeLsiConfig {
            num_concepts: Some(6),
            max_als_iters: 6,
            seed: seed ^ 0xbeef,
            ..Default::default()
        };
        let optimized = CubeLsi::build(&ds.folksonomy, &cfg).unwrap();
        let reference = reference_build(&ds.folksonomy, &cfg);

        // Upstream of search: the purified distances and the concept
        // assignments must already agree bitwise.
        assert!(
            optimized
                .distances()
                .matrix()
                .approx_eq(reference.distances.matrix(), 0.0),
            "tag distances diverged on corpus seed {seed}"
        );
        assert_eq!(
            optimized.concepts().assignments(),
            reference.concepts.assignments(),
            "concept assignments diverged on corpus seed {seed}"
        );
        assert_identical_search(&optimized, &reference, ds.folksonomy.num_tags());
    }
}

#[test]
fn variance_rule_builds_are_equivalent_too() {
    // The 95 %-variance concept selection exercises the adaptive solver's
    // `needed` closure; the kernel switches must still be invisible.
    let ds = corpus(50, 40, 2_500, 31);
    let cfg = CubeLsiConfig {
        num_concepts: None,
        max_concepts: 24,
        max_als_iters: 5,
        seed: 77,
        ..Default::default()
    };
    let optimized = CubeLsi::build(&ds.folksonomy, &cfg).unwrap();
    let reference = reference_build(&ds.folksonomy, &cfg);
    assert_eq!(
        optimized.concepts().num_concepts(),
        reference.concepts.num_concepts()
    );
    assert_eq!(
        optimized.concepts().assignments(),
        reference.concepts.assignments()
    );
    assert_identical_search(&optimized, &reference, ds.folksonomy.num_tags());
}
