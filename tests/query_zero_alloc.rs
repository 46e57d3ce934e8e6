//! Proves the steady-state serving claim: once a [`QuerySession`] and the
//! output buffer are warmed, `search_tags_with` performs **zero heap
//! allocations** per query.
//!
//! A counting global allocator (`tests/common/counting_alloc.rs`) wraps the
//! system allocator; the test warms the session over the query set,
//! snapshots the allocation counter, runs every query again, and asserts
//! the counter did not move. The same contract is then proven for a
//! [`ShardSet`](cubelsi::core::shard::ShardSet)'s query route. This file
//! holds exactly one test so no concurrent test pollutes the counter.

use cubelsi::core::{ConceptIndex, ConceptModel, QueryEngine};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::folksonomy::TagId;
use std::sync::atomic::Ordering;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::ALLOCATIONS;

fn assert_steady_state_alloc_free(
    engine: &QueryEngine,
    model: &ConceptModel,
    queries: &[(Vec<TagId>, usize)],
) {
    let mut session = engine.session();
    let mut out = Vec::new();
    // Warm-up: grow every scratch buffer to its steady size.
    for _ in 0..2 {
        for (tags, k) in queries {
            engine.search_tags_with(&mut session, model, tags, *k, &mut out);
        }
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (tags, k) in queries {
        engine.search_tags_with(&mut session, model, tags, *k, &mut out);
        assert!(out.len() <= *k);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state search_tags_with must not allocate"
    );
}

#[test]
fn steady_state_search_allocates_nothing() {
    let ds = generate(&GeneratorConfig {
        users: 60,
        resources: 120,
        concepts: 8,
        assignments: 4_000,
        seed: 77,
        ..Default::default()
    });
    let f = &ds.folksonomy;
    // Hard model straight from a deterministic assignment (the engine does
    // not care where the model came from).
    let assignments: Vec<usize> = (0..f.num_tags()).map(|t| t % 8).collect();
    let model = ConceptModel::from_assignments(assignments, 1.0);
    let engine = QueryEngine::new(ConceptIndex::build(f, &model));

    // A mix of single- and multi-term queries at several k.
    let queries: Vec<(Vec<TagId>, usize)> = (0..f.num_tags().min(40))
        .map(|t| {
            let tags: Vec<TagId> = (0..=(t % 3))
                .map(|o| TagId::from_index((t + o) % f.num_tags()))
                .collect();
            (tags, [1usize, 10, 50][t % 3])
        })
        .collect();

    assert_steady_state_alloc_free(&engine, &model, &queries);

    // The shard set's steady state: after warm-up its session reuses its
    // capacity — hot-reloadable serving keeps the zero-alloc contract.
    let set = cubelsi::core::shard::ShardSet::from_parts(
        cubelsi::core::shard::partition_engines(&engine, 3),
        f.clone(),
        model.clone(),
    )
    .unwrap();
    let mut sharded_session = set.session();
    let mut out = Vec::new();
    for _ in 0..2 {
        for (tags, k) in &queries {
            set.search_tags_with(&mut sharded_session, &model, tags, *k, &mut out);
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (tags, k) in &queries {
        set.search_tags_with(&mut sharded_session, &model, tags, *k, &mut out);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state sharded search_tags_with must not allocate"
    );
}
