//! The offline path called one layer at a time, a span around each call.
//!
//! This mirrors `cubelsi-search build` (its ratio clamp, seed and defaults)
//! through the crates' public functions, so the spans sum to what the CLI
//! build does minus process start and the file write.

use crate::proc::{self_peak_rss_mb, self_rss_mb};
use crate::trace::Tracer;
use cubelsi_core::{
    build_tensor, pairwise_distances_from_embedding, tag_embedding, ConceptIndex, ConceptModel,
    CubeLsiConfig, QueryEngine,
};
use cubelsi_folksonomy::{clean, read_tsv_file, CleaningConfig, Folksonomy};
use cubelsi_linalg::kmeans::kmeans;
use cubelsi_linalg::spectral::spectral_clustering;
use cubelsi_tensor::tucker_als;
use std::path::Path;

/// The CLI's `--seed` default; the harness never overrides it.
pub const CLI_SEED: u64 = 2011;
/// The CLI's `--ratio` default.
pub const CLI_RATIO: f64 = 50.0;

/// Counts taken at the layer boundaries of one in-process build.
#[derive(Debug, Default, Clone)]
pub struct OfflineCounts {
    pub clean_rounds: usize,
    pub tags_kept_share: f64,
    pub nnz: usize,
    pub tucker_iterations: usize,
    pub tucker_fit: f64,
    pub core_cells: usize,
    pub tucker_rss_delta_mb: f64,
    pub kmeans_iterations: usize,
    pub num_concepts: usize,
    pub postings: usize,
    pub hot_bytes_per_posting: f64,
    pub assignments: usize,
}

/// What one in-process build leaves behind: a servable engine over the
/// corpus it indexed.
pub struct OfflineBuild {
    pub corpus: Folksonomy,
    pub concepts: ConceptModel,
    pub engine: QueryEngine,
    pub counts: OfflineCounts,
}

/// The CLI's configuration for a corpus: reduction ratios clamped so the
/// core keeps at least 8 dimensions per mode (no `--concepts` given).
pub fn cli_config(corpus: &Folksonomy, ratio: f64) -> CubeLsiConfig {
    let eff = |dim: usize| ratio.min((dim as f64 / 8.0).max(1.25));
    CubeLsiConfig {
        reduction_ratios: (
            eff(corpus.num_users()),
            eff(corpus.num_tags()),
            eff(corpus.num_resources()),
        ),
        seed: CLI_SEED,
        ..Default::default()
    }
}

/// Runs the offline path on a TSV, one span per layer call, all under one
/// `build` span with operation id `op`.
pub fn traced_build(
    tracer: &mut Tracer,
    op: u64,
    tsv: &Path,
    do_clean: bool,
    ratio: f64,
) -> Result<OfflineBuild, String> {
    let mut counts = OfflineCounts::default();
    let root = tracer.enter("build", op);

    let raw = tracer
        .leaf("folksonomy.read_tsv", op, || read_tsv_file(tsv))
        .map_err(|e| format!("reading {}: {e}", tsv.display()))?;
    let corpus = if do_clean {
        let (cleaned, report) = tracer.leaf("folksonomy.clean", op, || {
            clean(&raw, &CleaningConfig::default())
        });
        counts.clean_rounds = report.rounds;
        counts.tags_kept_share = cleaned.num_tags() as f64 / raw.num_tags().max(1) as f64;
        cleaned
    } else {
        counts.tags_kept_share = 1.0;
        raw
    };
    counts.assignments = corpus.num_assignments();
    let config = cli_config(&corpus, ratio);

    let tensor = tracer
        .leaf("tensor_build.build", op, || build_tensor(&corpus))
        .map_err(|e| format!("tensor build: {e}"))?;
    counts.nnz = tensor.nnz();

    let tucker_cfg = config
        .tucker_config(tensor.dims())
        .map_err(|e| format!("tucker config: {e}"))?;
    let rss_before = self_rss_mb();
    let decomposition = tracer
        .leaf("tucker.als", op, || tucker_als(&tensor, &tucker_cfg))
        .map_err(|e| format!("tucker: {e}"))?;
    counts.tucker_rss_delta_mb = (self_peak_rss_mb() - rss_before).max(0.0);
    counts.tucker_iterations = decomposition.iterations;
    counts.tucker_fit = decomposition.fit;
    let (j1, j2, j3) = decomposition.core.dims();
    counts.core_cells = j1 * j2 * j3;
    drop(tensor);

    let embedding = tracer
        .leaf("distance.embedding", op, || {
            tag_embedding(&decomposition, config.sigma_source)
        })
        .map_err(|e| format!("tag embedding: {e}"))?;
    let distances = tracer.leaf("distance.pairwise", op, || {
        pairwise_distances_from_embedding(&embedding)
    });

    let spectral_cfg = config.spectral_config();
    let spectral = tracer
        .leaf("concepts.spectral", op, || {
            spectral_clustering(distances.matrix(), &spectral_cfg)
        })
        .map_err(|e| format!("spectral clustering: {e}"))?;
    counts.num_concepts = spectral.k;
    let concepts = ConceptModel::from_assignments(spectral.assignments, spectral.sigma);

    let index = tracer.leaf("index.build", op, || {
        ConceptIndex::build(&corpus, &concepts)
    });
    counts.postings = index.num_postings();
    counts.hot_bytes_per_posting =
        index.compressed_hot_bytes() as f64 / index.num_postings().max(1) as f64;
    let engine = QueryEngine::with_strategy(index, config.pruning);
    tracer.exit(root);

    // k-means ran inside `spectral_clustering`; it is timed again here, on
    // the embedding that call returned and outside the build span, so the
    // eigensolver's share is the spectral span minus this one.
    let mut kmeans_cfg = spectral_cfg.kmeans.clone();
    kmeans_cfg.k = spectral.k;
    let again = tracer
        .leaf("concepts.kmeans_retimed", op, || {
            kmeans(&spectral.embedding, &kmeans_cfg)
        })
        .map_err(|e| format!("k-means: {e}"))?;
    counts.kmeans_iterations = again.iterations;

    Ok(OfflineBuild {
        corpus,
        concepts,
        engine,
        counts,
    })
}
