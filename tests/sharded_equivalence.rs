//! The sharded-serving correctness contract: a [`ShardSet`]'s
//! scatter-gather answers must be **bit-identical** — scores, order,
//! tie-breaks — to a single unsharded [`QueryEngine`] over the same
//! corpus, for every shard count, every pruning strategy, one concept per
//! tag and several weighted ones, sequential/adaptive/batched execution at
//! thread counts {1, 2, 8}, artifacts written plain and compressed, and
//! immediately after a hot reload (including the adaptive path across the
//! generation swap). This is what makes sharding a pure scaling move,
//! never an approximation.

mod common;

use common::membership::RandomMembership;
use cubelsi::core::shard::{self, LoadMode, ShardSet, ShardedEngine};
use cubelsi::core::{
    persist, ConceptAssignment, ConceptIndex, ConceptModel, CubeLsi, CubeLsiConfig,
    PruningStrategy, QueryEngine, RankedResource,
};
use cubelsi::datagen::{generate, GeneratorConfig};
use cubelsi::folksonomy::{Folksonomy, TagId};
use cubelsi::linalg::parallel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STRATEGIES: [PruningStrategy; 2] = [
    PruningStrategy::BlockMax,
    PruningStrategy::CompressedBlockMax,
];
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

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

fn assert_identical(sharded: &[RankedResource], single: &[RankedResource], context: &str) {
    assert_eq!(sharded.len(), single.len(), "length differs: {context}");
    for (i, (s, u)) in sharded.iter().zip(single.iter()).enumerate() {
        assert_eq!(s.resource, u.resource, "resource at rank {i}: {context}");
        assert_eq!(
            s.score.to_bits(),
            u.score.to_bits(),
            "score at rank {i} ({} vs {}): {context}",
            s.score,
            u.score
        );
    }
}

/// Checks one (engine, model) pair across shard counts, k values, and
/// the sequential + adaptive routes.
fn check_sharded(
    f: &Folksonomy,
    engine: &QueryEngine,
    hard_for_set: &ConceptModel,
    model: &dyn ConceptAssignment,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_tags = f.num_tags();
    let queries: Vec<Vec<TagId>> = (0..25).map(|_| random_query(&mut rng, num_tags)).collect();
    for &n in &SHARD_COUNTS {
        let set = ShardSet::from_parts(
            shard::partition_engines(engine, n),
            f.clone(),
            hard_for_set.clone(),
        )
        .unwrap();
        let mut session = set.session();
        let mut out = Vec::new();
        for &k in &[1usize, 5, 0, engine.index().num_resources() + 3] {
            for (qi, q) in queries.iter().enumerate() {
                let single = engine.search_tags(model, q, k);
                set.search_tags_with(&mut session, model, q, k, &mut out);
                assert_identical(
                    &out,
                    &single,
                    &format!("seed={seed} shards={n} k={k} query#{qi} {q:?}"),
                );
                // The adaptive route goes through the coalesced mirror or
                // the sequential scatter — both must stay bit-identical.
                set.search_tags_auto(&mut session, model, q, k, &mut out);
                assert_identical(
                    &out,
                    &single,
                    &format!("auto seed={seed} shards={n} k={k} query#{qi}"),
                );
            }
        }
    }
}

#[test]
fn sharded_equals_single_engine_hard_assignments() {
    for (seed, users, resources, assignments) in [
        (11u64, 20, 15, 400),
        (12, 50, 80, 2_500),
        (13, 30, 200, 4_000),
    ] {
        let f = random_corpus(seed, users, resources, assignments);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let model = random_hard_model(&mut rng, f.num_tags(), 6);
        for strategy in STRATEGIES {
            let engine = QueryEngine::with_strategy(ConceptIndex::build(&f, &model), strategy);
            check_sharded(&f, &engine, &model, &model, seed);
        }
    }
}

#[test]
fn sharded_equals_single_engine_multi_membership() {
    let f = random_corpus(21, 40, 60, 2_000);
    let mut rng = StdRng::seed_from_u64(77);
    let multi = RandomMembership::new(&mut rng, f.num_tags(), 5);
    // The set's own (hard) model only has to span the same concept space;
    // every query below names `multi`.
    let hard = random_hard_model(&mut rng, f.num_tags(), 5);
    for strategy in STRATEGIES {
        let engine = QueryEngine::with_strategy(ConceptIndex::build(&f, &multi), strategy);
        check_sharded(&f, &engine, &hard, &multi, 21);
    }
}

/// `search_batch` over a sharded set must be bit-identical to the single
/// engine at every thread count — including a thread-count change mid
/// flight, which is what a production pool resize looks like.
#[test]
fn sharded_batch_is_thread_count_invariant() {
    let f = random_corpus(31, 40, 120, 3_000);
    let mut rng = StdRng::seed_from_u64(31);
    let model = random_hard_model(&mut rng, f.num_tags(), 6);
    let engine = QueryEngine::new(ConceptIndex::build(&f, &model));
    let queries: Vec<Vec<TagId>> = (0..96)
        .map(|_| random_query(&mut rng, f.num_tags()))
        .collect();
    let single: Vec<Vec<RankedResource>> = queries
        .iter()
        .map(|q| engine.search_tags(&model, q, 10))
        .collect();
    for &n in &SHARD_COUNTS {
        let set = ShardSet::from_parts(
            shard::partition_engines(&engine, n),
            f.clone(),
            model.clone(),
        )
        .unwrap();
        for threads in [1usize, 2, 8] {
            parallel::set_num_threads(threads);
            let batch = set.search_batch(&model, &queries, 10);
            assert_eq!(batch.len(), single.len());
            for (qi, (got, want)) in batch.iter().zip(single.iter()).enumerate() {
                assert_identical(got, want, &format!("shards={n} threads={threads} q#{qi}"));
            }
            // The single-query adaptive route at the same thread counts.
            let mut session = set.session();
            let mut out = Vec::new();
            for (qi, q) in queries.iter().take(24).enumerate() {
                set.search_tags_auto(&mut session, &model, q, 10, &mut out);
                assert_identical(
                    &out,
                    &single[qi],
                    &format!("auto shards={n} threads={threads} q#{qi}"),
                );
            }
            parallel::set_num_threads(0);
        }
    }
}

fn build_small_model(seed: u64) -> (Folksonomy, CubeLsi) {
    let ds = generate(&GeneratorConfig {
        users: 30,
        resources: 40,
        concepts: 5,
        assignments: 1_500,
        seed,
        ..Default::default()
    });
    let model = CubeLsi::build(
        &ds.folksonomy,
        &CubeLsiConfig {
            core_dims: Some((8, 8, 8)),
            num_concepts: Some(5),
            max_als_iters: 6,
            seed,
            ..Default::default()
        },
    )
    .unwrap();
    (ds.folksonomy, model)
}

/// End-to-end through the persistence layer: `save_sharded` manifests —
/// plain and compressed (shards with section 8) — answer bit-identically to
/// the unsharded artifact, under every strategy.
#[test]
fn sharded_artifacts_round_trip() {
    let (f, model) = build_small_model(41);
    let dir = std::env::temp_dir().join(format!("cubelsi-sharded-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let single_path = dir.join("single.cubelsi");
    persist::save_to_path(&single_path, &model, &f).unwrap();

    let mut rng = StdRng::seed_from_u64(41);
    let queries: Vec<Vec<TagId>> = (0..20)
        .map(|_| random_query(&mut rng, f.num_tags()))
        .collect();

    for &n in &SHARD_COUNTS {
        for compress in [false, true] {
            let manifest_path = dir.join(format!("model-{n}-c{}.shards", compress as u8));
            let report = shard::save_sharded_with(&manifest_path, &model, &f, n, compress).unwrap();
            assert_eq!(report.shard_paths.len(), n);
            assert_eq!(
                report.shard_postings.iter().sum::<usize>(),
                model.index().num_postings(),
                "shards must partition the postings exactly"
            );
            let mut set = shard::load_source(&manifest_path, LoadMode::Owned).unwrap();
            assert_eq!(set.num_shards(), n);
            for strategy in STRATEGIES {
                set.set_strategy(strategy);
                let mut session = set.session();
                let mut out = Vec::new();
                for (qi, q) in queries.iter().enumerate() {
                    let single = model.search_ids(q, 10);
                    set.search_tags_with(&mut session, set.concepts(), q, 10, &mut out);
                    assert_identical(
                        &out,
                        &single,
                        &format!("persist shards={n} compress={compress} {strategy:?} q#{qi}"),
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Hot reload under a changed corpus and shard count: a warmed session
/// keeps serving across the swap — old generations drain for whoever
/// still holds their `Arc`, new queries see the new model — and the
/// post-reload answers are bit-identical to a fresh single engine over
/// the new corpus.
#[test]
fn hot_reload_swaps_models_under_warm_sessions() {
    let (f_a, model_a) = build_small_model(51);
    let (f_b, model_b) = build_small_model(52);
    let dir = std::env::temp_dir().join(format!("cubelsi-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest_path = dir.join("live.shards");

    shard::save_sharded(&manifest_path, &model_a, &f_a, 2).unwrap();
    let set = shard::load_source(&manifest_path, LoadMode::Owned).unwrap();
    let engine = ShardedEngine::new(set, PruningStrategy::BlockMax).with_source(&manifest_path);

    let mut rng = StdRng::seed_from_u64(51);
    let queries: Vec<Vec<TagId>> = (0..10)
        .map(|_| random_query(&mut rng, f_a.num_tags().min(f_b.num_tags())))
        .collect();

    let mut session = engine.session();
    let mut out = Vec::new();
    for q in &queries {
        engine.search_tags_with(&mut session, q, 5, &mut out);
        assert_identical(&out, &model_a.search_ids(q, 5), "generation 1");
    }

    // Replace the manifest + shards on disk (different corpus, different
    // shard count) and swap generations under the live engine.
    shard::save_sharded(&manifest_path, &model_b, &f_b, 3).unwrap();
    let old = engine.current();
    let reloaded = engine.reload().unwrap();
    assert_eq!(old.number() + 1, reloaded.number());
    assert_eq!(reloaded.set().num_shards(), 3);

    // The drained generation still answers for holders of its Arc...
    let mut old_session = old.set().session();
    for q in &queries {
        old.set()
            .search_tags_with(&mut old_session, old.set().concepts(), q, 5, &mut out);
        assert_identical(&out, &model_a.search_ids(q, 5), "drained generation");
    }
    // ...while the warmed session serves the new generation bit-exactly.
    for q in &queries {
        engine.search_tags_with(&mut session, q, 5, &mut out);
        assert_identical(&out, &model_b.search_ids(q, 5), "generation 2");
    }

    // The adaptive route survives the swap too: the same warmed session
    // drives it against the new generation at several thread counts —
    // the session re-validates lazily against whatever index it is
    // handed, so a generation swap needs no coordination.
    let generation = engine.current();
    let new_set = generation.set();
    for threads in [1usize, 2, 8] {
        parallel::set_num_threads(threads);
        for q in &queries {
            new_set.search_tags_auto(&mut session, new_set.concepts(), q, 5, &mut out);
            assert_identical(
                &out,
                &model_b.search_ids(q, 5),
                &format!("auto after reload threads={threads}"),
            );
        }
        parallel::set_num_threads(0);
    }
    std::fs::remove_dir_all(&dir).ok();
}
