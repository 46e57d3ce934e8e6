//! Proves the steady-state serving claim: once a [`QuerySession`] and the
//! output buffer are warmed, `search_tags_with` performs **zero heap
//! allocations** per query — under both pruning strategies (the
//! block-max skeleton over the exact id arrays and over the compressed
//! mirror).
//!
//! A counting global allocator (`tests/common/counting_alloc.rs`) wraps the
//! system allocator; the test warms the session over the query set,
//! snapshots the allocation counter, runs every query again, and asserts
//! the counter did not move. The same
//! contract is then proven for sharded scatter-gather — sequential and
//! fanned across the persistent worker pool (pool-cached sessions make
//! the pooled steady state allocation-free too). This file holds exactly
//! one test so no concurrent test pollutes the counter.

use cubelsi::core::{ConceptIndex, ConceptModel, PruningStrategy, QueryEngine};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::folksonomy::TagId;
use std::sync::atomic::Ordering;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{ALLOCATING_THREADS, ALLOCATIONS};

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
        "steady-state search_tags_with must not allocate ({:?})",
        engine.strategy()
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
    let mut engine = QueryEngine::new(ConceptIndex::build(f, &model));

    // A mix of single- and multi-term queries at several k.
    let queries: Vec<(Vec<TagId>, usize)> = (0..f.num_tags().min(40))
        .map(|t| {
            let tags: Vec<TagId> = (0..=(t % 3))
                .map(|o| TagId::from_index((t + o) % f.num_tags()))
                .collect();
            (tags, [1usize, 10, 50][t % 3])
        })
        .collect();

    // Both pruning strategies on the freshly built engine.
    for strategy in [
        PruningStrategy::BlockMax,
        PruningStrategy::CompressedBlockMax,
    ] {
        engine.set_strategy(strategy);
        assert_steady_state_alloc_free(&engine, &model, &queries);
    }

    // Sharded scatter-gather steady state: after warm-up, per-shard
    // sessions, the shared term buffer, the per-shard result buffers,
    // and the k-way merge must all reuse their capacity — hot-reloadable
    // sharded serving keeps the zero-alloc contract.
    engine.set_strategy(PruningStrategy::BlockMax);
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

    // Pooled steady state: once the worker pool is warm, a scatter query
    // fanned across pool threads allocates nothing either — per-worker
    // sessions and result buffers are cached in the pool, the batch
    // control block lives on the caller's stack, and the handoff reuses
    // the injector's storage. Which participant takes which task is the
    // scheduler's choice (the caller can drain whole rounds alone), so
    // "warm" is stated per worker: every pool worker has served at least
    // once — its first task grows the session the pool caches for it,
    // which is how it shows up among the allocating threads — and a
    // worker that meets its largest task late restarts the window. The
    // window is the measurement: three consecutive rounds over the whole
    // query set without one allocation, which code that allocates per
    // query can never produce.
    cubelsi::linalg::parallel::set_num_threads(3);
    let threads_before = ALLOCATING_THREADS.load(Ordering::Relaxed);
    let mut quiet_rounds = 0;
    let mut rounds = 0;
    while quiet_rounds < 3 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for (tags, k) in &queries {
            set.search_tags_scatter_with(&mut sharded_session, &model, tags, *k, &mut out);
        }
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let served = ALLOCATING_THREADS.load(Ordering::Relaxed) - threads_before;
        let pool = cubelsi::core::exec::stats().pool_size;
        if allocated == 0 && served >= pool {
            quiet_rounds += 1;
        } else {
            quiet_rounds = 0;
        }
        rounds += 1;
        assert!(
            rounds < 2_000,
            "steady-state pooled scatter must not allocate: {allocated} allocations in \
             round {rounds}, {served} of {pool} pool workers have served"
        );
    }
    cubelsi::linalg::parallel::set_num_threads(0);
}
