//! `query_single` and `query_sharded_batch`: in-process top-k over the
//! stress corpus, indexed under the synthetic hard model the repository's
//! query bench uses (no Tucker at this size).

use crate::ctx::Ctx;
use crate::inputs::{generate_corpus, query_mix, Corpus, QuerySpec, Rng};
use crate::metrics::Outcome;
use crate::oracle::{matches_exact, render_reply, same_ranking};
use crate::proc::self_peak_rss_mb;
use crate::stats::{calm_high, calm_low, median, percentile, sorted};
use cubelsi_core::shard::{self, ShardSet};
use cubelsi_core::{
    exec, persist, ConceptIndex, ConceptModel, ExecutorStats, PruningStrategy, QueryEngine,
    RankedResource,
};
use cubelsi_folksonomy::{Folksonomy, TagId};
use cubelsi_linalg::parallel;
use std::hint::black_box;
use std::time::Instant;

/// `huge_1m` scale: ≈ 120 k resources under ≈ 440 k assignments. At the
/// issue's 0.25 a set-up takes 3.3 s, and three of them in each of 44 runs
/// do not fit the time the driver allows beside the 9 s Tucker builds.
const SCALE: f64 = 0.1;
/// Queries in the mix; the loops cycle through them.
const MIX: usize = 2048;
/// One result in this many is compared with the exhaustive reference.
const CHECK_EVERY: usize = 64;
const SHARDS: usize = 4;
/// Most queries the traced replay keeps spans for (five each, in memory).
const REPLAY_CAP: u64 = 20_000;
const BATCH: usize = 256;

struct Single {
    corpus: Folksonomy,
    model: ConceptModel,
    engine: QueryEngine,
    mix: Vec<QuerySpec>,
    /// `ConceptIndex::build` over the in-memory corpus.
    index_build_ms: f64,
}

fn set_up_single(ctx: &Ctx) -> Result<Single, String> {
    let corpus = generate_corpus(Corpus::Huge, ctx.scale(SCALE), ctx.seed);
    let concepts = crate::inputs::preset(Corpus::Huge, ctx.scale(SCALE), ctx.seed)
        .config
        .concepts;
    let model = ConceptModel::from_assignments(
        (0..corpus.num_tags())
            .map(|t| (t * 11 + 5) % concepts)
            .collect(),
        1.0,
    );
    let t0 = Instant::now();
    let index = ConceptIndex::build(&corpus, &model);
    let index_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mix = query_mix(&corpus, MIX, 0.0, &mut Rng::new(ctx.seed, 0x51e1));
    Ok(Single {
        corpus,
        model,
        engine: QueryEngine::new(index),
        mix,
        index_build_ms,
    })
}

/// A closed loop of one caller: `search` answers query `i` of the mix into
/// the hit buffer, and is timed alone; one answer in [`CHECK_EVERY`] is
/// compared with the exhaustive reference outside the timed part.
/// Returns per-query latencies in seconds.
fn closed_loop(
    out: &mut Outcome,
    s: &Single,
    k: usize,
    seconds: f64,
    mut search: impl FnMut(&[TagId], &mut Vec<RankedResource>),
) -> Vec<f64> {
    let mut hits = Vec::new();
    // Warm the session's buffers and the caches.
    for q in s.mix.iter().take(BATCH) {
        search(&q.tags, &mut hits);
    }
    let mut latencies = Vec::new();
    let t0 = Instant::now();
    let mut n = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        let q = &s.mix[n % s.mix.len()];
        let q0 = Instant::now();
        search(&q.tags, &mut hits);
        latencies.push(q0.elapsed().as_secs_f64());
        black_box(hits.len());
        // The offset moves the checked positions on every pass of the mix.
        if (n + n / s.mix.len()).is_multiple_of(CHECK_EVERY) {
            out.check(
                matches_exact(&s.engine, &s.model, &q.tags, k, &hits),
                || {
                    format!(
                        "k={k} answer to {:?} differs from the exhaustive ranking",
                        q.line
                    )
                },
            );
        } else {
            out.attempted += 1;
        }
        n += 1;
    }
    latencies
}

fn p99_us(latencies: &[f64]) -> f64 {
    percentile(&sorted(latencies), 0.99) * 1e6
}

/// One window per complete pass over the mix, so that every window holds
/// the same queries; a phase too short for three passes is one window.
fn passes(latencies: &[f64]) -> Vec<&[f64]> {
    if latencies.len() >= 3 * MIX {
        latencies.chunks_exact(MIX).collect()
    } else {
        vec![latencies]
    }
}

fn mean(latencies: &[f64]) -> f64 {
    latencies.iter().sum::<f64>() / latencies.len().max(1) as f64
}

fn per_pass(latencies: &[f64], stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    passes(latencies).into_iter().map(stat).collect()
}

/// Mean latency per pass, read over the passes by [`calm_low`], in µs.
fn mean_us(latencies: &[f64]) -> f64 {
    calm_low(&per_pass(latencies, mean)) * 1e6
}

/// Median latency per pass, read over the passes by [`calm_low`], in ms.
fn p50_ms(latencies: &[f64]) -> f64 {
    calm_low(&per_pass(latencies, median)) * 1e3
}

/// Queries per second of a one-caller loop per pass, read over the passes
/// by [`calm_high`].
fn qps(latencies: &[f64]) -> f64 {
    calm_high(&per_pass(latencies, |w| 1.0 / mean(w)))
}

fn index_artifact_mb(engine: &QueryEngine) -> f64 {
    persist::index_artifact_bytes(engine.index(), true) as f64 / 1e6
}

pub fn run_single(ctx: &mut Ctx) -> Result<Outcome, String> {
    // One caller, no pool: whatever the executor does here is overhead.
    parallel::set_num_threads(1);
    let mut out = Outcome::default();
    let mut index_builds = Vec::new();
    let (s, setup_s) = ctx.set_up(|ctx| {
        let s = set_up_single(ctx)?;
        index_builds.push(s.index_build_ms);
        Ok(s)
    })?;
    out.set("setup_s", setup_s);
    let mut session = s.engine.session();
    if ctx.traced {
        traced_single(ctx, &mut out, &s);
        return Ok(out);
    }
    let latencies = closed_loop(&mut out, &s, 10, ctx.seconds, |tags, hits| {
        s.engine
            .search_tags_with(&mut session, &s.model, tags, 10, hits);
    });
    out.set("ops_per_s", qps(&latencies));
    out.set("p50_ms", p50_ms(&latencies));
    out.set("ready_ms", median(&index_builds));
    out.set("peak_rss_mb", self_peak_rss_mb());
    out.set("artifact_mb", index_artifact_mb(&s.engine));
    Ok(out)
}

fn exec_delta(out: &mut Outcome, before: ExecutorStats, after: ExecutorStats) {
    let inline = (after.inline - before.inline) as f64;
    let fanout = (after.fanout - before.fanout) as f64;
    let executed = (after.executed - before.executed) as f64;
    let stolen = (after.stolen - before.stolen) as f64;
    out.set(
        "exec.inline_share",
        if inline + fanout > 0.0 {
            inline / (inline + fanout)
        } else {
            0.0
        },
    );
    out.set("exec.fanout", fanout);
    out.set(
        "exec.stolen_share",
        if executed > 0.0 {
            stolen / executed
        } else {
            0.0
        },
    );
    out.set("exec.pool_size", after.pool_size as f64);
}

/// The traced replay of `query_single`: the serving steps one by one
/// (tag lookup, query preparation, search, reply formatting), then the
/// other kernels over the same mix.
fn traced_single(ctx: &mut Ctx, out: &mut Outcome, s: &Single) {
    let before = exec::stats();
    let slice = ctx.seconds / 5.0;
    let tracer = &mut ctx.tracer;
    let mut session = s.engine.session();
    let mut hits = Vec::new();
    let mut line = String::new();
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed().as_secs_f64() < slice && n < REPLAY_CAP {
        let q = &s.mix[n as usize % s.mix.len()];
        let root = tracer.enter("query", n);
        let ids: Vec<TagId> = tracer.leaf("folksonomy.tag_lookup", n, || {
            q.line
                .split_whitespace()
                .skip(1)
                .filter_map(|name| s.corpus.tag_id(name))
                .collect()
        });
        // The search prepares the query itself; this call only times it.
        tracer.leaf("index.prepare_query", n, || {
            black_box(s.engine.index().prepare_query(&s.model, &ids));
        });
        tracer.leaf("query.search_k10", n, || {
            s.engine
                .search_tags_with(&mut session, &s.model, &ids, 10, &mut hits);
        });
        tracer.leaf("serve.format_reply", n, || {
            render_reply(&s.corpus, &hits, &mut line);
        });
        tracer.exit(root);
        if (n as usize).is_multiple_of(CHECK_EVERY) {
            out.check(matches_exact(&s.engine, &s.model, &ids, 10, &hits), || {
                format!("traced answer to {:?} differs", q.line)
            });
        } else {
            out.attempted += 1;
        }
        n += 1;
    }
    let seconds_of = |name: &str| -> Vec<f64> {
        tracer
            .durations_ns(name)
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect()
    };
    out.set(
        "index.prepare_query_us",
        mean_us(&seconds_of("index.prepare_query")),
    );
    let spans = seconds_of("query.search_k10");
    out.set("query.search_us_k10", mean_us(&spans));
    out.set("query.p99_us_k10", p99_us(&spans));

    let k100 = closed_loop(out, s, 100, slice, |tags, hits| {
        s.engine
            .search_tags_with(&mut session, &s.model, tags, 100, hits);
    });
    out.set("query.search_us_k100", mean_us(&k100));
    out.set("query.qps_k100", qps(&k100));

    let exact = closed_loop(out, s, 10, slice, |tags, hits| {
        *hits = s.engine.search_tags_exact(&s.model, tags, 10);
    });
    out.set("query.exact_us_k10", mean_us(&exact));

    let mut packed = s.engine.clone();
    packed.set_strategy(PruningStrategy::CompressedBlockMax);
    let mut packed_session = packed.session();
    let compressed = closed_loop(out, s, 10, slice, |tags, hits| {
        packed.search_tags_with(&mut packed_session, &s.model, tags, 10, hits);
    });
    out.set("query.compressed_us_k10", mean_us(&compressed));

    let ix = s.engine.index();
    out.set("index.build_ms", s.index_build_ms);
    out.set("index.postings", ix.num_postings() as f64);
    out.set(
        "index.hot_bytes_per_posting",
        ix.compressed_hot_bytes() as f64 / ix.num_postings().max(1) as f64,
    );
    exec_delta(out, before, exec::stats());
}

struct Sharded {
    single: Single,
    set: ShardSet,
    /// Partitioning the engine and validating the shard set.
    shard_ms: f64,
}

fn set_up_sharded(ctx: &Ctx) -> Result<Sharded, String> {
    let single = set_up_single(ctx)?;
    let t0 = Instant::now();
    let set = ShardSet::from_parts(
        shard::partition_engines(&single.engine, SHARDS),
        single.corpus.clone(),
        single.model.clone(),
    )
    .map_err(|e| format!("assembling the shard set: {e}"))?;
    let shard_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(Sharded {
        single,
        set,
        shard_ms,
    })
}

/// `search_batch` in [`BATCH`]-query batches for `seconds`; returns the
/// seconds spent answering each complete pass over the mix.
fn batch_loop(out: &mut Outcome, sh: &Sharded, seconds: f64) -> Vec<f64> {
    let s = &sh.single;
    let queries: Vec<&[TagId]> = s.mix.iter().map(|q| q.tags.as_slice()).collect();
    let mut passes = Vec::new();
    let mut busy = 0.0f64;
    let t0 = Instant::now();
    let mut at = 0usize;
    while t0.elapsed().as_secs_f64() < seconds || passes.is_empty() {
        let batch = &queries[at..(at + BATCH).min(queries.len())];
        let b0 = Instant::now();
        let results = sh.set.search_batch(&s.model, batch, 10);
        busy += b0.elapsed().as_secs_f64();
        // One answer per batch of 256 would check too few: take every
        // 64th of the batch.
        for (i, got) in results.iter().enumerate() {
            if i.is_multiple_of(CHECK_EVERY) {
                out.check(
                    matches_exact(&s.engine, &s.model, batch[i], 10, got),
                    || {
                        format!(
                            "batch answer {} differs from the exhaustive ranking",
                            at + i
                        )
                    },
                );
            } else {
                out.attempted += 1;
            }
        }
        at += BATCH;
        if at >= queries.len() {
            passes.push(busy);
            busy = 0.0;
            at = 0;
        }
    }
    passes
}

/// Queries per second of the batch loop per pass, read by [`calm_high`].
fn batch_qps(passes: &[f64]) -> f64 {
    let rates: Vec<f64> = passes.iter().map(|busy| MIX as f64 / busy).collect();
    calm_high(&rates)
}

pub fn run_sharded(ctx: &mut Ctx) -> Result<Outcome, String> {
    parallel::set_num_threads(ctx.cores);
    let mut out = Outcome::default();
    let mut shardings = Vec::new();
    let (sh, setup_s) = ctx.set_up(|ctx| {
        let sh = set_up_sharded(ctx)?;
        shardings.push(sh.shard_ms);
        Ok(sh)
    })?;
    out.set("setup_s", setup_s);
    let s = &sh.single;
    let mut session = sh.set.session();
    if ctx.traced {
        traced_sharded(ctx, &mut out, &sh);
        return Ok(out);
    }
    // Latency: one caller, one query at a time through the adaptive
    // dispatcher. Throughput: the same mix in batches through the pool.
    let latencies = closed_loop(&mut out, s, 10, ctx.seconds * 0.5, |tags, hits| {
        sh.set
            .search_tags_auto(&mut session, &s.model, tags, 10, hits);
    });
    out.set("p50_ms", p50_ms(&latencies));
    let passes = batch_loop(&mut out, &sh, ctx.seconds * 0.5);
    out.set("ops_per_s", batch_qps(&passes));
    out.set("ready_ms", median(&shardings));
    out.set("peak_rss_mb", self_peak_rss_mb());
    out.set(
        "artifact_mb",
        sh.set.engines().iter().map(index_artifact_mb).sum(),
    );
    Ok(out)
}

fn traced_sharded(ctx: &mut Ctx, out: &mut Outcome, sh: &Sharded) {
    let s = &sh.single;
    let slice = ctx.seconds / 4.0;
    let before = exec::stats();
    let mut session = sh.set.session();

    let auto = closed_loop(out, s, 10, slice, |tags, hits| {
        sh.set
            .search_tags_auto(&mut session, &s.model, tags, 10, hits);
    });
    out.set("shard.auto_us_k10", mean_us(&auto));
    out.set("shard.auto_qps", qps(&auto));
    out.set("shard.auto_p99_us_k10", p99_us(&auto));

    let scatter = closed_loop(out, s, 10, slice, |tags, hits| {
        sh.set
            .search_tags_with(&mut session, &s.model, tags, 10, hits);
    });
    out.set("shard.scatter_us_k10", mean_us(&scatter));

    let mut single_session = s.engine.session();
    let single = closed_loop(out, s, 10, slice, |tags, hits| {
        s.engine
            .search_tags_with(&mut single_session, &s.model, tags, 10, hits);
    });
    out.set("query.search_us_k10", mean_us(&single));
    out.set("shard.vs_single_ratio", mean_us(&auto) / mean_us(&single));

    // Spans around whole batches: the executor's work happens inside.
    let tracer = &mut ctx.tracer;
    let id = tracer.enter("exec.search_batch_phase", 0);
    let passes = batch_loop(out, sh, slice);
    tracer.exit(id);
    out.set("exec.batch_us_per_query", 1e6 / batch_qps(&passes));
    exec_delta(out, before, exec::stats());

    // The merged ranking of every route must be the single engine's.
    let mut a = Vec::new();
    let mut b = Vec::new();
    for q in s.mix.iter().take(CHECK_EVERY) {
        sh.set
            .search_tags_auto(&mut session, &s.model, &q.tags, 10, &mut a);
        s.engine
            .search_tags_with(&mut single_session, &s.model, &q.tags, 10, &mut b);
        out.check(same_ranking(&a, &b), || {
            format!(
                "sharded answer to {:?} differs from the single engine",
                q.line
            )
        });
    }
    out.set("index.build_ms", s.index_build_ms);
    out.set("index.postings", s.engine.index().num_postings() as f64);
}
