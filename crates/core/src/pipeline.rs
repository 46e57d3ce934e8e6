//! The end-to-end CubeLSI pipeline (Figure 1 of the paper).

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use cubelsi_folksonomy::{Folksonomy, TagId};
use cubelsi_linalg::LinAlgError;
use cubelsi_tensor::{peak_rss_bytes, tucker_als, TuckerTrace};

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

/// The peak resident set of the building process (`VmHWM`, through
/// [`peak_rss_bytes`]) at the end of each offline phase, in bytes — the
/// Tucker phase read twice, after the HOSVD initialisation and after the
/// sweeps. `VmHWM` can read a few hundred kB lower after a phase than
/// after the one before (Linux 6.18 read 6.6 MB after the distances and
/// 6.4 MB after the clustering of one build); the peak so far cannot
/// fall, so each reading is raised to the one before it and the values
/// never decrease. `None` where the OS does not report it. Diagnostics
/// of the run that built, like the times; never persisted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhasePeaks {
    /// After building the sparse tensor.
    pub tensor_build: Option<u64>,
    /// After the HOSVD initialisation of the Tucker factors.
    pub tucker_init: Option<u64>,
    /// After the HOOI sweeps (the whole Tucker phase).
    pub tucker_sweeps: Option<u64>,
    /// After the pairwise distances.
    pub distances: Option<u64>,
    /// After spectral clustering.
    pub clustering: Option<u64>,
    /// After building the index.
    pub indexing: Option<u64>,
}

impl PhasePeaks {
    /// `tensor 10.3 MB | init 22.9 MB | … | indexing 23.4 MB` (MB of 10⁶
    /// bytes), or `None` when a reading is missing.
    pub fn line(&self) -> Option<String> {
        let phases = [
            ("tensor", self.tensor_build),
            ("init", self.tucker_init),
            ("sweeps", self.tucker_sweeps),
            ("distances", self.distances),
            ("clustering", self.clustering),
            ("indexing", self.indexing),
        ];
        let parts = phases
            .iter()
            .map(|&(name, bytes)| Some(format!("{name} {:.1} MB", bytes? as f64 / 1e6)))
            .collect::<Option<Vec<_>>>()?;
        Some(parts.join(" | "))
    }
}

/// What [`CubeLsi::build_traced`] reports of the run beside the engine.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// The Tucker phase's full trace.
    pub tucker: TuckerTrace,
    /// The peak resident set after each phase.
    pub peaks: PhasePeaks,
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
/// derived from the model on first use, and held once derived (the build
/// consumes the ones it clusters).
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
    /// trace (per-mode times, filter degrees, unfolding widths and sweep
    /// times on top of the counts the engine keeps in [`CubeLsi::trace`])
    /// and the peak resident set after each phase.
    pub fn build_traced(
        folksonomy: &Folksonomy,
        config: &CubeLsiConfig,
    ) -> Result<(Self, BuildReport), LinAlgError> {
        let mut timings = PhaseTimings::default();
        let mut peaks = PhasePeaks::default();
        let mut high = 0;
        let mut mark = |reading: Option<u64>| {
            reading.map(|bytes: u64| {
                high = bytes.max(high);
                high
            })
        };

        let t0 = Instant::now();
        let tensor = build_tensor(folksonomy)?;
        timings.tensor_build = t0.elapsed();
        peaks.tensor_build = mark(peak_rss_bytes());

        let t0 = Instant::now();
        let tucker_cfg = config.tucker_config(tensor.dims())?;
        let decomposition = tucker_als(&tensor, &tucker_cfg)?;
        timings.tucker = t0.elapsed();
        peaks.tucker_init = mark(decomposition.trace.init_peak_rss);
        peaks.tucker_sweeps = mark(peak_rss_bytes());
        let trace = BuildTrace::from(&decomposition.trace);
        let tucker_trace = decomposition.trace.clone();

        let t0 = Instant::now();
        let tag_model = TagModel::from_decomposition(&decomposition, config.sigma_source)?;
        drop(decomposition);
        let distances = tag_model.distances();
        timings.distances = t0.elapsed();
        peaks.distances = mark(peak_rss_bytes());

        // The clustering consumes the distances; `Self::distances` derives
        // them again for whoever asks.
        let t0 = Instant::now();
        let concepts = ConceptModel::distill(distances, &config.spectral_config())?;
        timings.clustering = t0.elapsed();
        peaks.clustering = mark(peak_rss_bytes());

        let t0 = Instant::now();
        let engine = QueryEngine::new(ConceptIndex::build(folksonomy, &concepts));
        timings.indexing = t0.elapsed();
        peaks.indexing = mark(peak_rss_bytes());

        let built = CubeLsi::from_parts(tag_model, concepts, engine, timings, trace, folksonomy);
        let report = BuildReport {
            tucker: tucker_trace,
            peaks,
        };
        Ok((built, report))
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

    /// Purified tag distance matrix, derived from [`Self::tag_model`] on
    /// the first call — by a built engine and a loaded one alike — through
    /// the arithmetic the build clustered, to the same bits.
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
    fn phase_peaks_never_fall() {
        let ds = small_dataset();
        let (_, report) = CubeLsi::build_traced(&ds.folksonomy, &small_config()).unwrap();
        let p = report.peaks;
        let readings = [
            p.tensor_build,
            p.tucker_init,
            p.tucker_sweeps,
            p.distances,
            p.clustering,
            p.indexing,
        ];
        if cfg!(target_os = "linux") {
            let bytes: Vec<u64> = readings.iter().map(|r| r.expect("VmHWM")).collect();
            assert!(bytes.windows(2).all(|w| w[0] <= w[1]), "{bytes:?}");
            let line = p.line().unwrap();
            assert!(
                line.starts_with("tensor ") && line.contains(" | init "),
                "{line}"
            );
            assert_eq!(line.matches(" MB").count(), 6, "{line}");
        }
        assert_eq!(PhasePeaks::default().line(), None);
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
