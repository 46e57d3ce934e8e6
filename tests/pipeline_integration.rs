//! Cross-crate integration tests: the full CubeLSI pipeline and all five
//! baselines driven end-to-end on generated corpora.

use cubelsi::baselines::{
    cubesim::CubeSimConfig, BowRanker, CubeLsiRanker, CubeSim, CubeSimMode, FolkRank,
    FolkRankConfig, FreqRanker, LsiConfig, LsiRanker, Ranker,
};
use cubelsi::core::{persist, CubeLsi, CubeLsiConfig};
use cubelsi::datagen::{generate, GeneratedDataset, GeneratorConfig};
use cubelsi::eval::{generate_workload, ndcg_at, WorkloadConfig};
use cubelsi::folksonomy::{clean, CleaningConfig, TagId};

fn corpus() -> GeneratedDataset {
    let ds = generate(&GeneratorConfig {
        users: 80,
        resources: 60,
        concepts: 8,
        assignments: 6_000,
        seed: 404,
        ..Default::default()
    });
    let (cleaned, _) = clean(&ds.folksonomy, &CleaningConfig::default());
    ds.rebind(cleaned)
}

fn engine_config(k: usize) -> CubeLsiConfig {
    CubeLsiConfig {
        core_dims: Some((16, 16, 16)),
        num_concepts: Some(k),
        max_als_iters: 6,
        seed: 77,
        ..Default::default()
    }
}

fn build_rankers(ds: &GeneratedDataset) -> Vec<Box<dyn Ranker>> {
    let f = &ds.folksonomy;
    let k = ds.truth.concept_words.len();
    vec![
        Box::new(CubeLsiRanker(CubeLsi::build(f, &engine_config(k)).unwrap())),
        Box::new(
            CubeSim::build(
                f,
                &CubeSimConfig {
                    mode: CubeSimMode::SparseOptimized,
                    num_concepts: Some(k),
                    ..Default::default()
                },
            )
            .unwrap(),
        ),
        Box::new(FolkRank::build(f, &FolkRankConfig::default())),
        Box::new(FreqRanker::build(f)),
        Box::new(
            LsiRanker::build(
                f,
                &LsiConfig {
                    rank: Some(16),
                    num_concepts: Some(k),
                    ..Default::default()
                },
            )
            .unwrap(),
        ),
        Box::new(BowRanker::build(f)),
    ]
}

#[test]
fn all_six_rankers_run_and_return_sane_results() {
    let ds = corpus();
    let rankers = build_rankers(&ds);
    assert_eq!(rankers.len(), 6);
    let queries = generate_workload(
        &ds,
        &WorkloadConfig {
            num_queries: 10,
            ..Default::default()
        },
    );
    for ranker in &rankers {
        for q in &queries {
            let hits = ranker.search_ids(&q.tags, 20);
            // Sorted descending, finite, deduplicated, within bounds.
            for w in hits.windows(2) {
                assert!(
                    w[0].score >= w[1].score,
                    "{} returned unsorted scores",
                    ranker.name()
                );
            }
            let mut seen = std::collections::HashSet::new();
            for h in &hits {
                assert!(h.score.is_finite(), "{}: non-finite score", ranker.name());
                assert!(h.resource.index() < ds.folksonomy.num_resources());
                assert!(
                    seen.insert(h.resource),
                    "{}: duplicate resource",
                    ranker.name()
                );
            }
            assert!(hits.len() <= 20);
        }
    }
}

#[test]
fn freq_and_bow_share_candidate_sets() {
    // Both retrieve exactly the resources carrying >= 1 query tag, so their
    // candidate sets must coincide (scores differ).
    let ds = corpus();
    let f = &ds.folksonomy;
    let freq = FreqRanker::build(f);
    let bow = BowRanker::build(f);
    for t in (0..f.num_tags()).step_by(7) {
        let q = [TagId::from_index(t)];
        let mut a: Vec<usize> = freq
            .search_ids(&q, 0)
            .iter()
            .map(|h| h.resource.index())
            .collect();
        let mut b: Vec<usize> = bow
            .search_ids(&q, 0)
            .iter()
            .map(|h| h.resource.index())
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "candidate sets diverge for tag {t}");
    }
}

#[test]
fn cubelsi_retrieves_a_superset_of_exact_matches_for_single_tags() {
    // Concept matching can only widen the candidate set relative to exact
    // matching when idf of the tag's concept is positive: every resource
    // carrying the tag itself carries the tag's concept.
    let ds = corpus();
    let f = &ds.folksonomy;
    let k = ds.truth.concept_words.len();
    let engine = CubeLsi::build(f, &engine_config(k)).unwrap();
    let bow = BowRanker::build(f);
    let mut checked = 0;
    for t in 0..f.num_tags() {
        let q = [TagId::from_index(t)];
        let concept = engine.concepts().concept_of(t);
        if engine.index().idf(concept) <= 0.0 {
            continue; // concept blankets the corpus; CubeLSI abstains
        }
        let cube: std::collections::HashSet<usize> = engine
            .search_ids(&q, 0)
            .iter()
            .map(|h| h.resource.index())
            .collect();
        for h in bow.search_ids(&q, 0) {
            // BOW hits whose tf-idf weight is positive must appear.
            assert!(
                cube.contains(&h.resource.index()),
                "resource {} tagged {t} missing from CubeLSI results",
                h.resource.index()
            );
        }
        checked += 1;
    }
    assert!(checked > 10, "too few tags checked: {checked}");
}

#[test]
fn rebuilding_is_deterministic() {
    let ds = corpus();
    let k = ds.truth.concept_words.len();
    let e1 = CubeLsi::build(&ds.folksonomy, &engine_config(k)).unwrap();
    let e2 = CubeLsi::build(&ds.folksonomy, &engine_config(k)).unwrap();
    assert_eq!(e1.tag_model().fit(), e2.tag_model().fit());
    for t in (0..ds.folksonomy.num_tags()).step_by(5) {
        let q = [TagId::from_index(t)];
        let h1 = e1.search_ids(&q, 10);
        let h2 = e2.search_ids(&q, 10);
        assert_eq!(h1.len(), h2.len());
        for (a, b) in h1.iter().zip(h2.iter()) {
            assert_eq!(a.resource, b.resource);
            assert_eq!(a.score, b.score);
        }
    }
}

#[test]
fn ndcg_of_every_ranker_is_in_unit_interval() {
    let ds = corpus();
    let rankers = build_rankers(&ds);
    let queries = generate_workload(
        &ds,
        &WorkloadConfig {
            num_queries: 16,
            ..Default::default()
        },
    );
    for ranker in &rankers {
        let mut total = 0.0;
        for q in &queries {
            let hits = ranker.search_ids(&q.tags, 10);
            let grades: Vec<u8> = hits
                .iter()
                .map(|h| q.relevance[h.resource.index()])
                .collect();
            let s = ndcg_at(&grades, &q.relevance, 10);
            assert!(
                (0.0..=1.0 + 1e-9).contains(&s),
                "{}: NDCG {s}",
                ranker.name()
            );
            total += s;
        }
        // Every method must beat the empty ranker on this workload.
        assert!(total > 0.0, "{} scored zero on all queries", ranker.name());
    }
}

#[test]
fn query_by_synonym_reaches_untagged_resources() {
    // The paper's headline behaviour: a query tag retrieves resources that
    // were annotated only with *other* tags of the same concept.
    let ds = corpus();
    let f = &ds.folksonomy;
    let k = ds.truth.concept_words.len();
    let engine = CubeLsi::build(f, &engine_config(k)).unwrap();
    let mut bridged = 0;
    for t in 0..f.num_tags() {
        let q = TagId::from_index(t);
        let direct: std::collections::HashSet<usize> = f
            .tag_resource_counts(q)
            .into_iter()
            .map(|(r, _)| r.index())
            .collect();
        for h in engine.search_ids(&[q], 0) {
            if !direct.contains(&h.resource.index()) {
                bridged += 1;
            }
        }
    }
    assert!(bridged > 0, "no concept bridging observed at all");
}

/// Table VII's CubeLSI memory is the model section as written: exactly
/// the length of section 9 in the engine's artifact, which is `Y⁽²⁾` and
/// `Λ₂` (plus `Σ` under `CoreGram`) and their shape fields, nothing more.
#[test]
fn memory_accounting_is_the_written_model_section() {
    let ds = corpus();
    let k = ds.truth.concept_words.len();
    let engine = CubeLsi::build(&ds.folksonomy, &engine_config(k)).unwrap();
    let bytes = persist::save_to_vec(&engine, &ds.folksonomy);
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let written = (0..count)
        .map(|i| persist::HEADER_LEN + i * persist::TABLE_ENTRY_LEN)
        .find(|&e| {
            u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == persist::SECTION_MODEL
        })
        .map(|e| u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize)
        .expect("model section present");
    assert_eq!(engine.compressed_bytes(), written);
    let y2 = engine.tag_model().y2();
    let (t, j2) = (y2.rows(), y2.cols());
    assert_eq!(t, ds.folksonomy.num_tags());
    let sigma = engine
        .tag_model()
        .sigma()
        .map_or(0, |s| s.rows() * s.cols());
    // Source tag, fit, sweeps; three shape pairs less Λ₂'s single length.
    assert_eq!(written, 8 * (3 + 5 + t * j2 + j2 + sigma));
    assert!(engine.dense_purified_bytes() > engine.compressed_bytes());
}
