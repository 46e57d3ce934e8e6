//! The end-to-end CubeLSI pipeline (Figure 1 of the paper).

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use cubelsi_folksonomy::{Folksonomy, TagId};
use cubelsi_linalg::LinAlgError;
use cubelsi_tensor::{tucker_als, TuckerTrace};

use crate::concepts::ConceptModel;
use crate::config::CubeLsiConfig;
use crate::distance::{TagDistances, TagModel};
use crate::index::{ConceptIndex, RankedResource};
use crate::query::{QueryEngine, QuerySession};
use crate::tensor_build::build_tensor;

/// Wall-clock durations of the offline phases — the quantities behind
/// Table V and Figure 5 of the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Building the sparse tensor from the folksonomy.
    pub tensor_build: Duration,
    /// Tucker decomposition (HOSVD + HOOI/ALS).
    pub tucker: Duration,
    /// Pairwise tag distances via the Theorem-1/2 shortcut.
    pub distances: Duration,
    /// Spectral clustering (concept distillation).
    pub clustering: Duration,
    /// Building the bag-of-concepts tf-idf index.
    pub indexing: Duration,
}

impl PhaseTimings {
    /// Total offline pre-processing time.
    pub fn total(&self) -> Duration {
        self.tensor_build + self.tucker + self.distances + self.clustering + self.indexing
    }
}

/// Where a build's Tucker iterations went: work counts only, so the same
/// build always records the same trace. Persisted in the artifact's meta
/// section beside the [`PhaseTimings`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildTrace {
    /// HOSVD initialisation of modes 2 and 3, in that order.
    pub hosvd: Vec<HosvdCounts>,
    /// HOOI sweeps run.
    pub sweeps: usize,
}

/// The eigensolve of one mode's HOSVD initialisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HosvdCounts {
    /// The (1-based) mode.
    pub mode: usize,
    /// Operator applies the eigensolver ran.
    pub applies: usize,
    /// Rayleigh–Ritz projections among them.
    pub projections: usize,
    /// `false`: the eigensolver stopped at its iteration budget.
    pub converged: bool,
}

impl From<&TuckerTrace> for BuildTrace {
    fn from(trace: &TuckerTrace) -> Self {
        BuildTrace {
            hosvd: trace
                .init
                .iter()
                .map(|m| HosvdCounts {
                    mode: m.mode,
                    applies: m.eig_iterations,
                    projections: m.eig_projections,
                    converged: m.eig_converged,
                })
                .collect(),
            sweeps: trace.sweeps.len(),
        }
    }
}

/// A built CubeLSI search engine.
///
/// Construction runs the entire offline component; [`CubeLsi::search`]
/// serves online queries by cosine matching in concept space. An engine
/// holds what an artifact stores — the [`TagModel`], the concepts, the
/// index, the timings and the trace — so a built engine and one loaded
/// from its artifact are the same value; the purified distances are
/// derived from the model, and held once derived.
#[derive(Debug, Clone)]
pub struct CubeLsi {
    tag_model: TagModel,
    distances: OnceLock<TagDistances>,
    concepts: ConceptModel,
    engine: QueryEngine,
    timings: PhaseTimings,
    trace: BuildTrace,
    tag_lookup: HashMap<String, TagId>,
    num_users: usize,
    num_resources: usize,
}

impl CubeLsi {
    /// Runs the offline component on a folksonomy.
    pub fn build(folksonomy: &Folksonomy, config: &CubeLsiConfig) -> Result<Self, LinAlgError> {
        Ok(Self::build_traced(folksonomy, config)?.0)
    }

    /// [`CubeLsi::build`], also handing back the Tucker phase's full
    /// trace: per-mode times, filter degrees, unfolding widths and sweep
    /// times on top of the counts the engine keeps in [`CubeLsi::trace`].
    pub fn build_traced(
        folksonomy: &Folksonomy,
        config: &CubeLsiConfig,
    ) -> Result<(Self, TuckerTrace), LinAlgError> {
        let mut timings = PhaseTimings::default();

        let t0 = Instant::now();
        let tensor = build_tensor(folksonomy)?;
        timings.tensor_build = t0.elapsed();

        let t0 = Instant::now();
        let tucker_cfg = config.tucker_config(tensor.dims())?;
        let decomposition = tucker_als(&tensor, &tucker_cfg)?;
        timings.tucker = t0.elapsed();
        let trace = BuildTrace::from(&decomposition.trace);
        let tucker_trace = decomposition.trace.clone();

        let t0 = Instant::now();
        let tag_model = TagModel::from_decomposition(&decomposition, config.sigma_source)?;
        drop(decomposition);
        let distances = tag_model.distances();
        timings.distances = t0.elapsed();

        let t0 = Instant::now();
        let concepts = ConceptModel::distill(&distances, &config.spectral_config())?;
        timings.clustering = t0.elapsed();

        let t0 = Instant::now();
        let engine = QueryEngine::new(ConceptIndex::build(folksonomy, &concepts));
        timings.indexing = t0.elapsed();

        let mut built =
            CubeLsi::from_parts(tag_model, concepts, engine, timings, trace, folksonomy);
        built.distances = OnceLock::from(distances);
        Ok((built, tucker_trace))
    }

    /// Assembles an engine from what an artifact stores (the
    /// deserialization path of `crate::persist`). The tag-name lookup is
    /// rebuilt from the folksonomy's interner — the same source `build`
    /// uses — so name resolution matches the original engine exactly; the
    /// distances are derived from `tag_model` on first use.
    pub(crate) fn from_parts(
        tag_model: TagModel,
        concepts: ConceptModel,
        engine: QueryEngine,
        timings: PhaseTimings,
        trace: BuildTrace,
        folksonomy: &Folksonomy,
    ) -> Self {
        CubeLsi {
            tag_model,
            distances: OnceLock::new(),
            concepts,
            engine,
            timings,
            trace,
            tag_lookup: tag_lookup(folksonomy),
            num_users: folksonomy.num_users(),
            num_resources: folksonomy.num_resources(),
        }
    }

    /// Number of users in the corpus the engine was built from.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of resources in the corpus the engine was built from.
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Online query processing: tag names in, ranked resources out
    /// (Eq. 4). Unknown tag names are ignored; `top_k = 0` returns all
    /// matching resources. Served by the pruned top-k engine.
    pub fn search(&self, query_tags: &[&str], top_k: usize) -> Vec<RankedResource> {
        let ids: Vec<TagId> = query_tags
            .iter()
            .filter_map(|name| self.tag_lookup.get(*name).copied())
            .collect();
        self.search_ids(&ids, top_k)
    }

    /// Online query processing with pre-resolved tag ids (pruned engine,
    /// fresh scratch per call). Serving loops should hold a
    /// [`QuerySession`] from [`Self::session`] and call
    /// [`Self::search_ids_with`] to avoid per-query allocation.
    pub fn search_ids(&self, tags: &[TagId], top_k: usize) -> Vec<RankedResource> {
        self.engine.search_tags(&self.concepts, tags, top_k)
    }

    /// Allocation-free online query processing on a reused session.
    pub fn search_ids_with(
        &self,
        session: &mut QuerySession,
        tags: &[TagId],
        top_k: usize,
        out: &mut Vec<RankedResource>,
    ) {
        self.engine
            .search_tags_with(session, &self.concepts, tags, top_k, out);
    }

    /// Answers many queries at once, in chunks across the fork–join
    /// threads ([`QueryEngine::search_batch`]).
    pub fn search_batch<Q: AsRef<[TagId]> + Sync>(
        &self,
        queries: &[Q],
        top_k: usize,
    ) -> Vec<Vec<RankedResource>> {
        self.engine.search_batch(&self.concepts, queries, top_k)
    }

    /// Creates a reusable query scratch session for this engine.
    pub fn session(&self) -> QuerySession {
        self.engine.session()
    }

    /// The online query engine.
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// The Theorem-1/2 model the distances are derived from.
    pub fn tag_model(&self) -> &TagModel {
        &self.tag_model
    }

    /// Purified tag distance matrix. A built engine holds the one its
    /// build clustered; a loaded one derives it from [`Self::tag_model`]
    /// on the first call, through the same arithmetic, to the same bits.
    pub fn distances(&self) -> &TagDistances {
        self.distances.get_or_init(|| self.tag_model.distances())
    }

    /// Distilled concept model.
    pub fn concepts(&self) -> &ConceptModel {
        &self.concepts
    }

    /// The concept index (online structure).
    pub fn index(&self) -> &ConceptIndex {
        self.engine.index()
    }

    /// Offline phase timings.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }

    /// The Tucker phase's work counts.
    pub fn trace(&self) -> &BuildTrace {
        &self.trace
    }

    /// Bytes of the model section an artifact of this engine carries
    /// (`Y⁽²⁾`, `Λ₂`, and `Σ` under `CoreGram`) — the "CubeLSI memory"
    /// column of Table VII, as written.
    pub fn compressed_bytes(&self) -> usize {
        crate::persist::model_section_len(&self.tag_model)
    }

    /// Bytes a dense `F̂` would need (`I₁·I₂·I₃` doubles) — the infeasible
    /// alternative of Table VII.
    pub fn dense_purified_bytes(&self) -> usize {
        self.num_users * self.tag_model.num_tags() * self.num_resources * std::mem::size_of::<f64>()
    }
}

/// The name → id map of every engine. `build` and a load must resolve
/// query tags identically — the persisted-artifact bit-identity guarantee
/// depends on it — so both assemble through [`CubeLsi::from_parts`].
fn tag_lookup(folksonomy: &Folksonomy) -> HashMap<String, TagId> {
    (0..folksonomy.num_tags())
        .map(|t| {
            let id = TagId::from_index(t);
            (folksonomy.tag_name(id).to_owned(), id)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SigmaSource;
    use cubelsi_datagen::{generate, GeneratorConfig};
    use cubelsi_folksonomy::store::figure2_example;

    fn small_dataset() -> cubelsi_datagen::GeneratedDataset {
        generate(&GeneratorConfig {
            users: 40,
            resources: 30,
            concepts: 5,
            assignments: 2_500,
            noise_rate: 0.03,
            seed: 21,
            ..Default::default()
        })
    }

    fn small_config() -> CubeLsiConfig {
        CubeLsiConfig {
            core_dims: Some((8, 8, 8)),
            num_concepts: Some(5),
            max_als_iters: 8,
            seed: 5,
            ..Default::default()
        }
    }

    #[test]
    fn builds_on_figure2_and_clusters_sensibly() {
        let f = figure2_example();
        let cfg = CubeLsiConfig {
            core_dims: Some((3, 3, 2)),
            num_concepts: Some(2),
            sigma: Some(1.0),
            max_als_iters: 30,
            als_fit_tol: 1e-10,
            ..Default::default()
        };
        let engine = CubeLsi::build(&f, &cfg).unwrap();
        // §V's outcome: folk+people together, laptop separate.
        let folk = f.tag_id("folk").unwrap().index();
        let people = f.tag_id("people").unwrap().index();
        let laptop = f.tag_id("laptop").unwrap().index();
        assert!(engine.concepts().same_concept(folk, people));
        assert!(!engine.concepts().same_concept(folk, laptop));
    }

    #[test]
    fn figure2_search_by_synonym() {
        let f = figure2_example();
        let cfg = CubeLsiConfig {
            core_dims: Some((3, 3, 2)),
            num_concepts: Some(2),
            sigma: Some(1.0),
            max_als_iters: 30,
            als_fit_tol: 1e-10,
            ..Default::default()
        };
        let engine = CubeLsi::build(&f, &cfg).unwrap();
        // Query "people": r1 is tagged people directly; r2 is tagged only
        // "folk" — but folk and people share a concept, so r2 must appear.
        let hits = engine.search(&["people"], 0);
        let names: Vec<&str> = hits.iter().map(|h| f.resource_name(h.resource)).collect();
        assert!(names.contains(&"r1"), "direct match missing: {names:?}");
        assert!(names.contains(&"r2"), "concept match missing: {names:?}");
        assert!(!names.contains(&"r3"), "laptop resource must not match");
    }

    #[test]
    fn search_unknown_tags_is_empty_not_error() {
        let f = figure2_example();
        let engine = CubeLsi::build(
            &f,
            &CubeLsiConfig {
                core_dims: Some((2, 2, 2)),
                num_concepts: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(engine.search(&["no-such-tag"], 10).is_empty());
        assert!(engine.search(&[], 10).is_empty());
    }

    #[test]
    fn generated_dataset_end_to_end() {
        let ds = small_dataset();
        let engine = CubeLsi::build(&ds.folksonomy, &small_config()).unwrap();
        assert_eq!(engine.concepts().num_concepts(), 5);
        assert!(engine.tag_model().fit() > 0.0);
        // Query with a popular tag: results must be non-empty and sorted.
        let tag0 = TagId::from_index(0);
        let hits = engine.search_ids(&[tag0], 10);
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn timings_are_recorded() {
        let ds = small_dataset();
        let engine = CubeLsi::build(&ds.folksonomy, &small_config()).unwrap();
        let t = engine.timings();
        assert!(t.tucker > Duration::ZERO);
        assert!(t.distances > Duration::ZERO);
        assert!(t.total() >= t.tucker);
    }

    #[test]
    fn memory_accounting_matches_table7_shape() {
        let ds = small_dataset();
        let engine = CubeLsi::build(&ds.folksonomy, &small_config()).unwrap();
        // Compressed representation must be far below dense F̂.
        assert!(engine.compressed_bytes() * 10 < engine.dense_purified_bytes());
    }

    #[test]
    fn sigma_sources_agree_on_search_results() {
        let ds = small_dataset();
        let mut cfg = small_config();
        cfg.sigma_source = SigmaSource::CoreGram;
        let a = CubeLsi::build(&ds.folksonomy, &cfg).unwrap();
        cfg.sigma_source = SigmaSource::Lambda2;
        let b = CubeLsi::build(&ds.folksonomy, &cfg).unwrap();
        let tag = TagId::from_index(1);
        let ha = a.search_ids(&[tag], 5);
        let hb = b.search_ids(&[tag], 5);
        // Theorem 2 ⇒ identical distances at convergence ⇒ identical
        // clusters and rankings (modulo k-means label permutation, which
        // does not affect the ranked resources).
        let ra: Vec<_> = ha.iter().map(|h| h.resource).collect();
        let rb: Vec<_> = hb.iter().map(|h| h.resource).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = small_dataset();
        let engine1 = CubeLsi::build(&ds.folksonomy, &small_config()).unwrap();
        let engine2 = CubeLsi::build(&ds.folksonomy, &small_config()).unwrap();
        let tag = TagId::from_index(2);
        let h1 = engine1.search_ids(&[tag], 10);
        let h2 = engine2.search_ids(&[tag], 10);
        assert_eq!(h1.len(), h2.len());
        for (a, b) in h1.iter().zip(h2.iter()) {
            assert_eq!(a.resource, b.resource);
            assert_eq!(a.score, b.score);
        }
    }

    #[test]
    fn rank_deficient_unfoldings_converge_through_build() {
        // Every user tags (t, r) iff (t + r) mod 3 = 0: the mode-2 and
        // mode-3 unfoldings have rank 3, below the core's 8, so most of
        // each HOSVD block converges to round-off around zero.
        let mut b = cubelsi_folksonomy::FolksonomyBuilder::new();
        for u in 0..12 {
            for t in 0..12 {
                for r in (0..12).filter(|r| (t + r) % 3 == 0) {
                    b.add(&format!("u{u}"), &format!("t{t}"), &format!("r{r}"));
                }
            }
        }
        let cfg = CubeLsiConfig {
            reduction_ratios: (1.5, 1.5, 1.5),
            ..Default::default()
        };
        let engine = CubeLsi::build(&b.build(), &cfg).unwrap();
        let hosvd = &engine.trace().hosvd;
        assert_eq!(hosvd.len(), 2);
        assert!(hosvd.iter().all(|m| m.converged), "{hosvd:?}");
    }
}
