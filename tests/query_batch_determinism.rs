//! Pins the determinism claim of `search_batch`: rankings — resources,
//! bit-exact scores, and tie-breaks — are identical at every worker
//! pool size. Batching splits the query
//! slice into contiguous index ranges fanned across the persistent
//! executor, each participant runs the same sequential per-query code
//! on its own pool-cached session, and every query writes into its own
//! result slot, so the pool size can never influence a single float
//! operation. Also pins the fan-out clamp: a batch smaller than the
//! pool engages at most one task per query. This file holds exactly one
//! test because it mutates the process-global worker-pool size.

use cubelsi::core::{ConceptIndex, ConceptModel, QueryEngine, RankedResource};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::folksonomy::TagId;
use cubelsi::linalg::parallel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_identical(a: &[RankedResource], b: &[RankedResource], context: &str) {
    assert_eq!(a.len(), b.len(), "length differs: {context}");
    for (rank, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.resource, y.resource, "resource at rank {rank}: {context}");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "score bits at rank {rank}: {context}"
        );
    }
}

#[test]
fn search_batch_is_bit_identical_across_thread_counts() {
    for (seed, users, resources, assignments, num_concepts) in
        [(51u64, 40, 150, 5_000, 6), (52, 80, 400, 9_000, 3)]
    {
        let ds = generate(&GeneratorConfig {
            users,
            resources,
            concepts: 8,
            assignments,
            seed,
            ..Default::default()
        });
        let f = &ds.folksonomy;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
        let model_assignments: Vec<usize> = (0..f.num_tags())
            .map(|_| rng.gen_range(0..num_concepts))
            .collect();
        let model = ConceptModel::from_assignments(model_assignments, 1.0);
        let engine = QueryEngine::new(ConceptIndex::build(f, &model));

        // Enough queries that 8 workers actually engage (the batcher
        // wants >= 32 queries per worker before it fans out).
        let queries: Vec<Vec<TagId>> = (0..300)
            .map(|_| {
                let len = rng.gen_range(1usize..=4);
                (0..len)
                    .map(|_| TagId::from_index(rng.gen_range(0..f.num_tags())))
                    .collect()
            })
            .collect();

        for &k in &[1usize, 10, 0] {
            parallel::set_num_threads(1);
            let baseline = engine.search_batch(&model, &queries, k);
            // The single-thread batch must match the plain sequential
            // session loop, query for query.
            let mut session = engine.session();
            let mut out = Vec::new();
            for (qi, q) in queries.iter().enumerate() {
                engine.search_tags_with(&mut session, &model, q, k, &mut out);
                assert_identical(
                    &out,
                    &baseline[qi],
                    &format!("seed={seed} k={k} q#{qi} sequential-vs-batch(1)"),
                );
            }
            for threads in [2usize, 8] {
                parallel::set_num_threads(threads);
                let got = engine.search_batch(&model, &queries, k);
                assert_eq!(got.len(), baseline.len());
                for (qi, (g, b)) in got.iter().zip(baseline.iter()).enumerate() {
                    assert_identical(g, b, &format!("seed={seed} k={k} q#{qi} threads={threads}"));
                }
            }
            parallel::set_num_threads(0);
        }

        // Oversubscription regression: a batch smaller than the pool
        // must clamp its fan-out to the batch size — idle workers never
        // receive an empty range — and still answer bit-identically.
        let small: Vec<Vec<TagId>> = queries.iter().take(3).cloned().collect();
        parallel::set_num_threads(1);
        let small_baseline = engine.search_batch(&model, &small, 10);
        parallel::set_num_threads(8);
        let small_got = engine.search_batch(&model, &small, 10);
        assert_eq!(small_got.len(), small_baseline.len());
        for (qi, (g, b)) in small_got.iter().zip(small_baseline.iter()).enumerate() {
            assert_identical(g, b, &format!("seed={seed} small-batch q#{qi} threads=8"));
        }
        parallel::set_num_threads(0);
    }
    // Restore the machine default for any test harness that follows.
    parallel::set_num_threads(0);
}
