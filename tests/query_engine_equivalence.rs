//! Property-style equivalence tests for the pruned top-k query engine:
//! over randomized corpora (via `cubelsi-datagen`), the exhaustive
//! reference path and the block-max skeleton must return *exactly* the
//! same ranked list — scores (bit-for-bit), order, and tie-breaks — for
//! one concept per tag and for several weighted concepts per tag, and
//! k ∈ {1, 5, all}, on the sequential and the batched path.
//!
//! This is the correctness contract that makes the pruning optimizations
//! deployable: they are pure speedups, never approximations.

mod common;

use common::membership::RandomMembership;
use cubelsi::core::{ConceptAssignment, ConceptIndex, ConceptModel, QueryEngine, RankedResource};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::folksonomy::{Folksonomy, TagId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_corpus(seed: u64, users: usize, resources: usize, assignments: usize) -> Folksonomy {
    generate(&GeneratorConfig {
        users,
        resources,
        concepts: 8,
        assignments,
        seed,
        ..Default::default()
    })
    .folksonomy
}

/// A random hard assignment — equivalence must hold for *any* concept
/// model, so there is no need to run the full distillation pipeline.
fn random_hard_model(rng: &mut StdRng, num_tags: usize, num_concepts: usize) -> ConceptModel {
    let assignments: Vec<usize> = (0..num_tags)
        .map(|_| rng.gen_range(0..num_concepts))
        .collect();
    ConceptModel::from_assignments(assignments, 1.0)
}

fn random_query(rng: &mut StdRng, num_tags: usize) -> Vec<TagId> {
    let len = rng.gen_range(1usize..=4);
    (0..len)
        .map(|_| TagId::from_index(rng.gen_range(0..num_tags)))
        .collect()
}

fn assert_identical(pruned: &[RankedResource], exact: &[RankedResource], context: &str) {
    assert_eq!(
        pruned.len(),
        exact.len(),
        "result length differs: {context}"
    );
    for (i, (p, e)) in pruned.iter().zip(exact.iter()).enumerate() {
        assert_eq!(
            p.resource, e.resource,
            "resource at rank {i} differs: {context}"
        );
        assert_eq!(
            p.score.to_bits(),
            e.score.to_bits(),
            "score at rank {i} differs ({} vs {}): {context}",
            p.score,
            e.score
        );
    }
}

/// Exhaustive ≡ block-max, for every query and k, on the sequential and
/// the batched path.
fn check_engine(engine: &QueryEngine, model: &dyn ConceptAssignment, seed: u64, num_tags: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_resources = engine.index().num_resources();
    let queries: Vec<Vec<TagId>> = (0..40).map(|_| random_query(&mut rng, num_tags)).collect();
    // k = 1, 5, all-matches (0), and a k larger than the corpus.
    for &k in &[1usize, 5, 0, num_resources + 7] {
        let exact: Vec<Vec<RankedResource>> = queries
            .iter()
            .map(|q| engine.search_tags_exact(model, q, k))
            .collect();
        let mut session = engine.session();
        let mut out = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            engine.search_tags_with(&mut session, model, q, k, &mut out);
            assert_identical(
                &out,
                &exact[qi],
                &format!("seed={seed} k={k} query#{qi} {q:?}"),
            );
        }
        // The batched path must agree query-for-query as well.
        let batch = engine.search_batch(model, &queries, k);
        for (qi, _) in queries.iter().enumerate() {
            assert_identical(
                &batch[qi],
                &exact[qi],
                &format!("batch seed={seed} k={k} query#{qi}"),
            );
        }
    }
}

#[test]
fn pruned_paths_equal_exact_path_hard_assignments() {
    for (seed, users, resources, assignments) in [
        (1u64, 20, 15, 400),
        (2, 50, 80, 2_500),
        (3, 80, 200, 6_000),
        (4, 10, 300, 3_000),
    ] {
        let f = random_corpus(seed, users, resources, assignments);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        for num_concepts in [2usize, 6, 16] {
            let model = random_hard_model(&mut rng, f.num_tags(), num_concepts);
            let engine = QueryEngine::new(ConceptIndex::build(&f, &model));
            check_engine(
                &engine,
                &model,
                seed * 31 + num_concepts as u64,
                f.num_tags(),
            );
        }
    }
}

#[test]
fn pruned_paths_equal_exact_path_multi_membership() {
    for (seed, users, resources, assignments) in [
        (11u64, 30, 40, 1_200),
        (12, 60, 120, 4_000),
        (13, 15, 250, 2_000),
    ] {
        let f = random_corpus(seed, users, resources, assignments);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        for num_concepts in [3usize, 8] {
            let model = RandomMembership::new(&mut rng, f.num_tags(), num_concepts);
            let engine = QueryEngine::new(ConceptIndex::build(&f, &model));
            check_engine(
                &engine,
                &model,
                seed * 17 + num_concepts as u64,
                f.num_tags(),
            );
        }
    }
}

#[test]
fn pruned_paths_equal_exact_on_long_multi_block_lists() {
    // Few concepts over many resources: posting lists hundreds of entries
    // long, so the block-max loop crosses many BLOCK_LEN boundaries and
    // the skip case (block max below threshold) actually fires at small k.
    for (seed, users, resources, assignments) in [(21u64, 5, 1_500, 12_000), (22, 12, 800, 20_000)]
    {
        let f = random_corpus(seed, users, resources, assignments);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB10C);
        for num_concepts in [2usize, 4] {
            let model = random_hard_model(&mut rng, f.num_tags(), num_concepts);
            let engine = QueryEngine::new(ConceptIndex::build(&f, &model));
            check_engine(
                &engine,
                &model,
                seed * 13 + num_concepts as u64,
                f.num_tags(),
            );
        }
    }
}

#[test]
fn single_term_fast_path_handles_impact_ties() {
    // Many resources tagged identically produce equal impacts. A one-term
    // query runs the one query skeleton, whose admission heap ends the
    // list early; at every k it must break equal-impact ties exactly like
    // the exhaustive sort.
    use cubelsi::folksonomy::FolksonomyBuilder;
    let mut b = FolksonomyBuilder::new();
    for r in 0..20 {
        b.add("u1", "same", &format!("r{r}"));
    }
    // A couple of resources with extra tags → different norms.
    b.add("u2", "other", "r3");
    b.add("u2", "other", "r7");
    let f = b.build();
    let model = ConceptModel::from_assignments(vec![0, 1], 1.0);
    let engine = QueryEngine::new(ConceptIndex::build(&f, &model));
    let tag = f.tag_id("same").unwrap();
    for k in 1..=21 {
        let exact = engine.search_tags_exact(&model, &[tag], k);
        let pruned = engine.search_tags(&model, &[tag], k);
        assert_identical(&pruned, &exact, &format!("tie corpus k={k}"));
    }
}
