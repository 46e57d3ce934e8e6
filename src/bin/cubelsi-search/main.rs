//! `cubelsi-search` — build a persistent CubeLSI index over a TSV
//! tag-assignment dump and serve queries from it.
//!
//! The offline component (tensor build → Tucker → distances → concepts →
//! index) is expensive; online serving is cheap. The CLI therefore splits
//! the two across process lifetimes:
//!
//! ```sh
//! # data.tsv: one "user<TAB>tag<TAB>resource" line per assignment
//! cubelsi-search build data.tsv model.cubelsi            # offline, once
//! cubelsi-search build --shards 4 data.tsv model.shards  # manifest + 4 replicas
//! cubelsi-search query model.cubelsi music audio         # online, instant
//! cubelsi-search query model.shards music audio          # sharded, same answers
//! cubelsi-search serve --listen 127.0.0.1:7878 model.shards   # TCP server
//!
//! # one-shot sugar (build in memory + query, nothing persisted):
//! cubelsi-search data.tsv music audio
//! ```
//!
//! `build` accepts `--concepts K`, `--ratio C`, `--seed S`, `--no-clean`,
//! and `--shards N` (emit a shard manifest plus `N` identical replicas of
//! the artifact instead of one file); `query`/`serve` accept a single
//! artifact **or** a shard manifest (sniffed from the magic bytes) and
//! `--top N`; `query` additionally accepts `--repeat N` for quick
//! micro-measurement.
//!
//! `serve` is a concurrent multi-client TCP line-protocol server (one
//! request per line, one reply line per request) built as a **bounded
//! pipeline**: admission capped at `--max-conns` (excess connections are
//! shed with `ERR BUSY`), one scoped thread per admitted connection,
//! per-query deadlines (`--deadline-ms` →
//! `TIMEOUT ...` replies), slow-client write budgets, idle-connection
//! timeouts, and graceful drain on `SHUTDOWN`. Module layout:
//!
//! * [`cli`] — argument parsing and value validation;
//! * [`stats`] — latency reservoir, pipeline counters, and the
//!   Prometheus text rendering behind `STATS`/`METRICS`;
//! * [`serve`] — the serving pipeline and its fault-injection knobs
//!   (see that module's docs for the full overload model).
//!
//! Malformed requests (non-UTF-8 bytes, oversized lines) get an `ERR`
//! reply instead of taking the server down; each client's query count
//! is logged on disconnect. Artifacts
//! are the versioned, checksummed binaries described in
//! `cubelsi_core::persist`; the manifest format lives in
//! `cubelsi_core::shard`.

mod cli;
mod serve;
mod stats;

use cli::{configure_threads, parse_command, BuildOpts, Command, USAGE};
use cubelsi::core::shard::{self, LoadMode, ShardSet};
use cubelsi::core::{persist, CubeLsi, CubeLsiConfig};
use cubelsi::folksonomy::{clean, read_tsv_file, CleaningConfig, Folksonomy};
use stats::LatencyStats;
use std::process::ExitCode;
use std::time::Instant;

/// Reads, optionally cleans, and validates the corpus.
fn load_corpus(path: &str, do_clean: bool) -> Result<Folksonomy, String> {
    let raw = read_tsv_file(path).map_err(|e| format!("reading {path}: {e}"))?;
    eprintln!("loaded  {}", raw.stats());
    if raw.num_assignments() == 0 {
        return Err(format!("{path} holds no assignments"));
    }
    if !do_clean {
        return Ok(raw);
    }
    let (cleaned, report) = clean(&raw, &CleaningConfig::default());
    eprintln!("cleaned {} ({} rounds)", report.cleaned, report.rounds);
    if cleaned.num_assignments() == 0 {
        return Err(format!(
            "cleaning removed all {} assignments; try --no-clean",
            raw.num_assignments()
        ));
    }
    Ok(cleaned)
}

/// Runs the offline pipeline and prints per-phase timings (the Table V
/// quantities a deployment watches during a rebuild).
fn build_model(corpus: &Folksonomy, opts: &BuildOpts) -> Result<CubeLsi, String> {
    // Clamp the reduction ratios so the core keeps at least ~8 dimensions
    // per mode (or 2x the requested concepts) — the paper's c = 50 assumes
    // corpus dimensions in the thousands. The floor of 1.25 guarantees the
    // core is always *somewhat* trimmed: an untrimmed decomposition
    // reproduces the raw tensor, noise and all (§IV-D's purification needs
    // discarded components to purify anything).
    let min_j = opts.concepts.map_or(8usize, |k| (2 * k).max(8));
    let eff = |dim: usize| (opts.reduction_ratio).min((dim as f64 / min_j as f64).max(1.25));
    let config = CubeLsiConfig {
        reduction_ratios: (
            eff(corpus.num_users()),
            eff(corpus.num_tags()),
            eff(corpus.num_resources()),
        ),
        num_concepts: opts.concepts,
        seed: opts.seed,
        ..Default::default()
    };
    let (model, report) =
        CubeLsi::build_traced(corpus, &config).map_err(|e| format!("building CubeLSI: {e}"))?;
    let trace = &report.tucker;
    let t = model.timings();
    eprintln!(
        "built   fit {:.3}, {} concepts",
        model.tag_model().fit(),
        model.concepts().num_concepts(),
    );
    eprintln!(
        "offline tensor {:?} | tucker {:?} | distances {:?} | clustering {:?} | indexing {:?} | total {:?} | kernels {}",
        t.tensor_build,
        t.tucker,
        t.distances,
        t.clustering,
        t.indexing,
        t.total(),
        cubelsi::linalg::dispatch::level().name()
    );
    eprintln!("tucker  {trace}");
    // The peak resident set after each phase, where the OS reports it.
    if let Some(line) = report.peaks.line() {
        eprintln!("memory  {line} (VmHWM)");
    }
    // An HOSVD eigensolve that ran out of iterations still returns its best
    // subspace; the model is usable, but whoever rebuilds should know.
    for m in trace.init.iter().filter(|m| !m.eig_converged) {
        eprintln!(
            "warning: the HOSVD mode {} eigensolve stopped at its iteration budget before converging",
            m.mode
        );
    }
    Ok(model)
}

/// Loads a serving source — a single artifact or a shard manifest — into
/// a validated [`ShardSet`], reporting load time and shard count. The
/// cheap path that replaces a full offline rebuild.
fn load_shard_set(path: &str) -> Result<ShardSet, String> {
    let t0 = Instant::now();
    let set =
        shard::load_source(path, LoadMode::Owned).map_err(|e| format!("loading {path}: {e}"))?;
    eprintln!(
        "loaded  {} in {:?} ({} shard(s); {} concepts)",
        set.folksonomy().stats(),
        t0.elapsed(),
        set.num_shards(),
        set.num_concepts(),
    );
    Ok(set)
}

/// Resolves query tag names to ids, warning about unknown names.
fn resolve_ids(corpus: &Folksonomy, tags: &[String]) -> Vec<cubelsi::folksonomy::TagId> {
    tags.iter()
        .filter_map(|name| {
            let id = corpus.tag_id(name);
            if id.is_none() {
                eprintln!("warning: unknown tag {name:?} ignored");
            }
            id
        })
        .collect()
}

/// Prints one query's ranked hits.
fn print_hits(corpus: &Folksonomy, tags: &[String], hits: &[cubelsi::core::RankedResource]) {
    if hits.is_empty() {
        println!("no results for {tags:?}");
        return;
    }
    println!("results for {tags:?}:");
    for (rank, hit) in hits.iter().enumerate() {
        println!(
            "{:>3}. {}  ({:.4})",
            rank + 1,
            corpus.resource_name(hit.resource),
            hit.score
        );
    }
}

fn run_build(opts: &BuildOpts, data: &str, out: &str) -> Result<(), String> {
    configure_threads(opts.threads);
    let corpus = load_corpus(data, opts.clean)?;
    let model = build_model(&corpus, opts)?;
    let t0 = Instant::now();
    match opts.shards {
        None => {
            persist::save_to_path(out, &model, &corpus)
                .map_err(|e| format!("saving {out}: {e}"))?;
            let size = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            eprintln!(
                "saved   {out} ({size} bytes, model section {} bytes) in {:?}",
                model.compressed_bytes(),
                t0.elapsed()
            );
        }
        Some(n) => {
            let report = shard::save_sharded(out, &model, &corpus, n)
                .map_err(|e| format!("saving sharded {out}: {e}"))?;
            for (path, bytes) in report.shard_paths.iter().zip(&report.shard_bytes) {
                eprintln!("shard   {} ({bytes} bytes)", path.display());
            }
            eprintln!("saved   {out} (manifest, {n} shards) in {:?}", t0.elapsed());
        }
    }
    Ok(())
}

fn run_query(index: &str, tags: &[String], top_k: usize, repeat: usize) -> Result<(), String> {
    let set = load_shard_set(index)?;
    let mut session = set.session();
    let mut stats = LatencyStats::default();
    // Resolve names exactly once, so an unknown tag warns once however
    // many repeats run.
    let ids = resolve_ids(set.folksonomy(), tags);
    let mut hits = Vec::new();
    let t0 = Instant::now();
    set.search_tags_auto(&mut session, set.concepts(), &ids, top_k, &mut hits);
    let elapsed = t0.elapsed();
    stats.record(elapsed);
    eprintln!("queried {elapsed:?}");
    print_hits(set.folksonomy(), tags, &hits);
    if repeat > 1 {
        // Re-run the same query on the warm session (results already
        // printed once) to measure steady-state latency.
        for _ in 1..repeat {
            let t0 = Instant::now();
            set.search_tags_auto(&mut session, set.concepts(), &ids, top_k, &mut hits);
            stats.record(t0.elapsed());
        }
        if let Some(summary) = stats.summary() {
            eprintln!("repeat  {summary}");
        }
    }
    Ok(())
}

fn run_one_shot(opts: &BuildOpts, data: &str, tags: &[String], top_k: usize) -> Result<(), String> {
    configure_threads(opts.threads);
    let corpus = load_corpus(data, opts.clean)?;
    let model = build_model(&corpus, opts)?;
    let mut session = model.session();
    let ids = resolve_ids(&corpus, tags);
    let mut hits = Vec::new();
    let t0 = Instant::now();
    model.search_ids_with(&mut session, &ids, top_k, &mut hits);
    eprintln!("queried {:?}", t0.elapsed());
    print_hits(&corpus, tags, &hits);
    Ok(())
}

fn main() -> ExitCode {
    let result = match parse_command(std::env::args().skip(1)) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Command::Build { opts, data, out }) => run_build(&opts, &data, &out),
        Ok(Command::Query {
            index,
            tags,
            top_k,
            repeat,
        }) => run_query(&index, &tags, top_k, repeat),
        Ok(Command::Serve {
            index,
            top_k,
            listen,
            limits,
        }) => serve::run_serve(&index, top_k, &listen, limits),
        Ok(Command::OneShot {
            opts,
            data,
            tags,
            top_k,
        }) => run_one_shot(&opts, &data, &tags, top_k),
        Err(usage) => {
            eprintln!("error: {usage}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
