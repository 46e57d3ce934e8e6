//! `build_tucker_bound` and `build_cluster_bound`: TSV → artifact through
//! `cubelsi-search build`, one child process per build.
//!
//! The corpus of each workload is the same on every run; `--seed` draws
//! only the probe queries answered from each artifact. HOOI needs 2 to 10
//! sweeps across generator seeds (1.7 s to 3.4 s for one shape), and even
//! a reshuffled presentation of one corpus moves the eigensolver's path by
//! ±10 %; only identical builds repeat to within a few percent. A build is
//! a whole operation: its time is the median over the run's builds.

use crate::ctx::Ctx;
use crate::inputs::{generate_corpus, query_mix, write_corpus_tsv, Corpus, QuerySpec, Rng};
use crate::metrics::Outcome;
use crate::offline::{traced_build, CLI_RATIO};
use crate::oracle::{same_ranking, Digest};
use crate::proc::run_child;
use crate::stats::median;
use cubelsi_core::{persist, ConceptAssignment, QueryEngine};
use cubelsi_folksonomy::Folksonomy;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Generator seed of the corpora.
const CORPUS_SEED: u64 = 2011;
/// Builds a run makes at least, however short `--seconds` is.
const MIN_BUILDS: usize = 3;
/// Probe queries answered from every built artifact.
const PROBES: usize = 32;

pub struct BuildSpec {
    corpus: Corpus,
    scale: f64,
    clean: bool,
}

/// Resources ≫ users, cleaning on, CLI defaults: Tucker is ≈ 97 % of the
/// time and of the ≈ 300 MB the build holds at its peak.
pub const TUCKER_BOUND: BuildSpec = BuildSpec {
    corpus: Corpus::Bibsonomy,
    scale: 0.5,
    clean: true,
};

/// Balanced and uncleaned: the T×T affinity and its eigensolver are ≈ 65 %.
pub const CLUSTER_BOUND: BuildSpec = BuildSpec {
    corpus: Corpus::Lastfm,
    scale: 0.1,
    clean: false,
};

fn write_tsv(ctx: &Ctx, spec: &BuildSpec) -> Result<PathBuf, String> {
    let corpus = generate_corpus(spec.corpus, ctx.scale(spec.scale), CORPUS_SEED);
    let path = ctx.path("corpus.tsv");
    write_corpus_tsv(&corpus, &path)?;
    Ok(path)
}

fn build_command(ctx: &Ctx, spec: &BuildSpec, tsv: &Path, out: &Path) -> Command {
    let mut cmd = Command::new(&ctx.cli);
    cmd.arg("build").arg("--threads").arg(ctx.cores.to_string());
    if !spec.clean {
        cmd.arg("--no-clean");
    }
    cmd.arg(tsv).arg(out);
    cmd
}

/// Answers the probe queries from an engine, checking each against the
/// exhaustive reference, and digests the answers.
fn probe(
    out: &mut Outcome,
    engine: &QueryEngine,
    concepts: &dyn ConceptAssignment,
    corpus: &Folksonomy,
    probes: &[QuerySpec],
) -> Digest {
    let mut digest = Digest::default();
    let mut session = engine.session();
    let mut hits = Vec::new();
    for q in probes {
        engine.search_tags_with(&mut session, concepts, &q.tags, 10, &mut hits);
        let exact = engine.search_tags_exact(concepts, &q.tags, 10);
        out.check(same_ranking(&hits, &exact), || {
            format!("probe {:?} differs from the exhaustive ranking", q.line)
        });
        digest.answer(corpus, &hits);
    }
    digest
}

fn probes_for(ctx: &Ctx, corpus: &Folksonomy) -> Vec<QuerySpec> {
    query_mix(corpus, PROBES, 0.0, &mut Rng::new(ctx.seed, 0x9b0b))
}

/// One CLI build and everything checked about it.
struct Built {
    wall_s: f64,
    peak_rss_mb: f64,
    artifact_bytes: u64,
    digest: Digest,
    /// Tags of the first probe, for the cold one-shot query.
    first_probe: Vec<String>,
}

fn build_once(
    ctx: &Ctx,
    spec: &BuildSpec,
    out: &mut Outcome,
    tsv: &Path,
    artifact: &Path,
) -> Result<Option<Built>, String> {
    let run = run_child(build_command(ctx, spec, tsv, artifact))?;
    out.check(run.status.success(), || {
        format!("build exited {}: {}", run.status, run.stderr.trim_end())
    });
    if !run.status.success() {
        return Ok(None);
    }
    let artifact_bytes = std::fs::metadata(artifact)
        .map_err(|e| format!("{}: {e}", artifact.display()))?
        .len();
    let loaded = match persist::load_from_path(artifact) {
        Ok(loaded) => loaded,
        Err(e) => {
            out.check(false, || format!("built artifact does not load: {e}"));
            return Ok(None);
        }
    };
    let probes = probes_for(ctx, &loaded.folksonomy);
    let digest = probe(
        out,
        loaded.model.engine(),
        loaded.model.concepts(),
        &loaded.folksonomy,
        &probes,
    );
    let first_probe = probes[0]
        .line
        .split_whitespace()
        .skip(1)
        .map(str::to_owned)
        .collect();
    Ok(Some(Built {
        wall_s: run.wall_s,
        peak_rss_mb: run.peak_rss_mb,
        artifact_bytes,
        digest,
        first_probe,
    }))
}

pub fn run(ctx: &mut Ctx, spec: &BuildSpec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (tsv, setup_s) = ctx.set_up(|ctx| write_tsv(ctx, spec))?;
    out.set("setup_s", setup_s);
    let artifact = ctx.path("model.cubelsi");
    if ctx.traced {
        traced(ctx, spec, &mut out, &tsv, &artifact)?;
        return Ok(out);
    }

    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut sizes = Vec::new();
    let mut cold = Vec::new();
    let mut first_digest = None;
    let t0 = Instant::now();
    let mut n = 0usize;
    while t0.elapsed().as_secs_f64() < ctx.seconds || n < MIN_BUILDS {
        n += 1;
        let Some(built) = build_once(ctx, spec, &mut out, &tsv, &artifact)? else {
            continue;
        };
        walls.push(built.wall_s);
        peaks.push(built.peak_rss_mb);
        sizes.push(built.artifact_bytes as f64 / 1e6);
        // The same TSV must build to the same answers every time.
        let first = *first_digest.get_or_insert(built.digest);
        out.check(first == built.digest, || {
            format!("build {n} answers differently from the first")
        });
        // Cold one-shot: a new process loads the artifact and answers.
        let mut cmd = Command::new(&ctx.cli);
        cmd.arg("query")
            .arg("--threads")
            .arg(ctx.cores.to_string())
            .arg(&artifact)
            .args(&built.first_probe);
        let query = run_child(cmd)?;
        out.check(
            query.status.success() && query.stdout.starts_with("results for"),
            || format!("one-shot query failed: {}", query.stderr.trim_end()),
        );
        cold.push(query.wall_s * 1e3);
    }
    if walls.is_empty() {
        return Err(format!("no build succeeded: {:?}", out.notes));
    }
    let build_s = median(&walls);
    out.set("ops_per_s", 1.0 / build_s);
    out.set("p50_ms", build_s * 1e3);
    out.set("ready_ms", median(&cold));
    out.set("peak_rss_mb", median(&peaks));
    out.set("artifact_mb", median(&sizes));
    Ok(out)
}

/// The traced replay: CLI builds for the untraced wall, then the same TSV
/// through the layers in process, then the persist calls on the CLI's
/// artifact (only `CubeLsi::build` can make the model `save` takes). Each
/// part repeats for its share of `--seconds`, and every span is read by
/// its median like the wall it is compared with.
fn traced(
    ctx: &mut Ctx,
    spec: &BuildSpec,
    out: &mut Outcome,
    tsv: &Path,
    artifact: &Path,
) -> Result<(), String> {
    cubelsi_linalg::parallel::set_num_threads(ctx.cores);
    let mut cli_walls = Vec::new();
    let mut last = None;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < ctx.seconds * 0.4 || cli_walls.len() < 2 {
        let built = build_once(ctx, spec, out, tsv, artifact)?
            .ok_or_else(|| format!("the CLI build failed: {:?}", out.notes))?;
        cli_walls.push(built.wall_s);
        last = Some(built);
    }
    let built = last.ok_or_else(|| "no CLI build ran".to_owned())?;

    let mut inproc = None;
    let t0 = Instant::now();
    let mut op = 0u64;
    while t0.elapsed().as_secs_f64() < ctx.seconds * 0.5 || op < 2 {
        let again = traced_build(&mut ctx.tracer, op, tsv, spec.clean, CLI_RATIO)?;
        let probes = probes_for(ctx, &again.corpus);
        let digest = probe(out, &again.engine, &again.concepts, &again.corpus, &probes);
        out.check(digest == built.digest, || {
            "the in-process build answers differently from the CLI's artifact".to_owned()
        });
        // Counts repeat exactly; the memory delta is only clean the first
        // time, before this process's high-water mark has been raised.
        inproc.get_or_insert(again);
        op += 1;
    }
    let inproc = inproc.ok_or_else(|| "no in-process build ran".to_owned())?;

    let resaved = ctx.path("resaved.cubelsi");
    let tracer = &mut ctx.tracer;
    for op in 0..3 {
        let owned = tracer
            .leaf("persist.load_owned", op, || {
                persist::load_from_path(artifact)
            })
            .map_err(|e| format!("loading {}: {e}", artifact.display()))?;
        tracer
            .leaf("persist.load_zero_copy", op, || {
                persist::load_from_path_zero_copy(artifact)
            })
            .map_err(|e| format!("zero-copy loading {}: {e}", artifact.display()))?;
        // To a file, synced and renamed into place, as the CLI saves.
        tracer
            .leaf("persist.save", op, || {
                persist::save_to_path_with(&resaved, &owned.model, &owned.folksonomy, false)
            })
            .map_err(|e| format!("saving {}: {e}", resaved.display()))?;
        let bytes = std::fs::metadata(&resaved).map_or(0, |m| m.len());
        out.check(bytes == built.artifact_bytes, || {
            "re-saving the loaded artifact changes its size".to_owned()
        });
    }

    // Every span here is a leaf, so its duration is its self time.
    let ms = |name: &str| {
        let each: Vec<f64> = tracer
            .durations_ns(name)
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        // A layer the build skipped (cleaning, under `--no-clean`) is 0.
        if each.is_empty() {
            0.0
        } else {
            median(&each)
        }
    };
    let c = &inproc.counts;
    out.set("folksonomy.read_tsv_ms", ms("folksonomy.read_tsv"));
    out.set("folksonomy.clean_ms", ms("folksonomy.clean"));
    out.set("folksonomy.clean_rounds", c.clean_rounds as f64);
    out.set("folksonomy.tags_kept_share", c.tags_kept_share);
    out.set("tensor_build.ms", ms("tensor_build.build"));
    out.set("tensor_build.nnz", c.nnz as f64);
    out.set("tucker.ms", ms("tucker.als"));
    out.set("tucker.iterations", c.tucker_iterations as f64);
    out.set("tucker.fit", c.tucker_fit);
    out.set("tucker.core_cells", c.core_cells as f64);
    out.set("tucker.rss_delta_mb", c.tucker_rss_delta_mb);
    out.set("distance.embedding_ms", ms("distance.embedding"));
    out.set("distance.pairwise_ms", ms("distance.pairwise"));
    let kmeans_ms = ms("concepts.kmeans_retimed");
    out.set(
        "concepts.spectral_ms",
        (ms("concepts.spectral") - kmeans_ms).max(0.0),
    );
    out.set("concepts.kmeans_ms", kmeans_ms);
    out.set("concepts.kmeans_iterations", c.kmeans_iterations as f64);
    out.set("concepts.num_concepts", c.num_concepts as f64);
    out.set("index.build_ms", ms("index.build"));
    out.set("index.postings", c.postings as f64);
    out.set("index.hot_bytes_per_posting", c.hot_bytes_per_posting);
    out.set("persist.save_ms", ms("persist.save"));
    out.set("persist.load_owned_ms", ms("persist.load_owned"));
    out.set("persist.load_zero_copy_ms", ms("persist.load_zero_copy"));
    out.set(
        "persist.bytes_per_assignment",
        built.artifact_bytes as f64 / c.assignments.max(1) as f64,
    );

    // Layer self time over the untraced wall of the CLI doing the same.
    let layers_ms: f64 = [
        "folksonomy.read_tsv",
        "folksonomy.clean",
        "tensor_build.build",
        "tucker.als",
        "distance.embedding",
        "distance.pairwise",
        "concepts.spectral",
        "index.build",
        "persist.save",
    ]
    .iter()
    .map(|name| ms(name))
    .sum();
    let cli_ms = median(&cli_walls) * 1e3;
    out.set("trace.coverage", layers_ms / cli_ms);
    out.set(
        "trace.overhead_share",
        (ms("build") + ms("persist.save")) / cli_ms - 1.0,
    );
    Ok(())
}
