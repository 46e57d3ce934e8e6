//! Per-phase offline build benchmark on the 300×250×15k preset — the
//! measurement behind the build-performance overhaul.
//!
//! Two configurations are timed end-to-end through `CubeLsi::build`:
//!
//! * **optimized** — the default kernels: bounds-pruned k-means, fused
//!   single-pass Gram applies, the adaptive spectral eigensolver, and the
//!   scratch-reusing TTM/HOOI sweeps;
//! * **reference** — `CubeLsiConfig::with_reference_kernels()`, the
//!   pre-overhaul paths (naive Lloyd's, materialized Gram products, the
//!   exhaustive spectral solver).
//!
//! Besides the criterion numbers, a machine-readable per-phase report is
//! written to `BENCH_build.json` at the workspace root (wall time per
//! offline phase, corpus dimensions, tensor nnz, thread count, speedup), so
//! the perf trajectory of this engine is tracked in-repo.

use criterion::{criterion_group, criterion_main, Criterion};
use cubelsi_core::{build_tensor, CubeLsi, CubeLsiConfig, PhaseTimings};
use cubelsi_datagen::{generate, GeneratedDataset, GeneratorConfig};
use cubelsi_linalg::kmeans::{kmeans, KMeansAlgorithm, KMeansConfig};
use cubelsi_linalg::{parallel, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// The 300 users × 250 resources × 15k assignments preset shared with the
/// tucker bench.
fn corpus() -> GeneratedDataset {
    generate(&GeneratorConfig {
        users: 300,
        resources: 250,
        concepts: 12,
        assignments: 15_000,
        seed: 31,
        ..Default::default()
    })
}

/// The CLI's default build configuration for this corpus: ratio 50 clamped
/// so every mode keeps at least 8 core dimensions, concepts from the
/// 95 %-variance rule.
fn build_config(ds: &GeneratedDataset) -> CubeLsiConfig {
    let min_j = 8usize;
    let eff = |dim: usize| 50.0f64.min((dim as f64 / min_j as f64).max(1.25));
    CubeLsiConfig {
        reduction_ratios: (
            eff(ds.folksonomy.num_users()),
            eff(ds.folksonomy.num_tags()),
            eff(ds.folksonomy.num_resources()),
        ),
        ..Default::default()
    }
}

fn bench_build_phases(c: &mut Criterion) {
    let ds = corpus();
    let optimized = build_config(&ds);
    let reference = optimized.clone().with_reference_kernels();
    let mut group = c.benchmark_group("build_phases");
    group.sample_size(10);
    group.bench_function("optimized", |bencher| {
        bencher.iter(|| black_box(CubeLsi::build(&ds.folksonomy, &optimized).unwrap()));
    });
    group.bench_function("reference_kernels", |bencher| {
        bencher.iter(|| black_box(CubeLsi::build(&ds.folksonomy, &reference).unwrap()));
    });
    group.finish();
}

/// The k-means kernel in isolation, at a scale where the vocabulary is an
/// order of magnitude past the preset (the folksonomy-scale case the
/// pruning is for).
fn bench_kmeans_algorithms(c: &mut Criterion) {
    let n = 2_000;
    let d = 24;
    let k = 48;
    let points = Matrix::from_fn(n, d, |i, j| {
        let center = (i * k / n) as f64;
        center + ((i * 31 + j * 17) % 100) as f64 / 400.0
    });
    let mut group = c.benchmark_group("kmeans_exact");
    group.sample_size(10);
    for (name, algorithm) in [
        ("bounds_pruned", KMeansAlgorithm::BoundsPruned),
        ("naive_lloyd", KMeansAlgorithm::NaiveLloyd),
    ] {
        let cfg = KMeansConfig {
            k,
            n_init: 2,
            algorithm,
            ..Default::default()
        };
        group.bench_function(name, |bencher| {
            bencher.iter(|| black_box(kmeans(&points, &cfg).unwrap()));
        });
    }
    group.finish();
}

/// Runs one single-threaded build per configuration and writes the
/// per-phase wall times to `BENCH_build.json` at the workspace root. Always
/// runs (also under `--test`), so CI keeps the report fresh.
fn emit_phase_report(_c: &mut Criterion) {
    let ds = corpus();
    let tensor = build_tensor(&ds.folksonomy).expect("tensor build");
    let optimized_cfg = build_config(&ds);
    let reference_cfg = optimized_cfg.clone().with_reference_kernels();

    parallel::set_num_threads(1);
    // One warm-up so neither side pays first-touch costs, then best of
    // three per side — single runs on shared machines are too noisy to
    // commit as the trajectory record.
    let _ = CubeLsi::build(&ds.folksonomy, &optimized_cfg).expect("warm-up build");
    let (opt_total, opt) = best_of(3, &ds, &optimized_cfg);
    let (ref_total, reference) = best_of(3, &ds, &reference_cfg);
    parallel::set_num_threads(0);

    let speedup = ref_total / opt_total.max(1e-9);
    let dims = tensor.dims();
    let json = format!(
        "{{\n  \"bench\": \"build_phases\",\n  \"preset\": {{\"users\": {}, \"tags\": {}, \"resources\": {}, \
         \"assignments\": {}, \"tensor_dims\": [{}, {}, {}], \"tensor_nnz\": {}}},\n  \"threads\": 1,\n  \
         \"reference\": {},\n  \"optimized\": {},\n  \"speedup\": {:.2}\n}}\n",
        ds.folksonomy.num_users(),
        ds.folksonomy.num_tags(),
        ds.folksonomy.num_resources(),
        ds.folksonomy.num_assignments(),
        dims.0,
        dims.1,
        dims.2,
        tensor.nnz(),
        phases_json(&reference, ref_total),
        phases_json(&opt, opt_total),
        speedup,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_build.json");
    std::fs::write(path, &json).expect("write BENCH_build.json");
    println!("build_phases report (single core): reference {ref_total:.1} ms -> optimized {opt_total:.1} ms ({speedup:.2}x)");
    println!("wrote {path}");
}

fn best_of(runs: usize, ds: &GeneratedDataset, cfg: &CubeLsiConfig) -> (f64, PhaseTimings) {
    let mut best: Option<(f64, PhaseTimings)> = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let model = CubeLsi::build(&ds.folksonomy, cfg).expect("build");
        let total = t0.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(b, _)| total < *b) {
            best = Some((total, *model.timings()));
        }
    }
    best.expect("at least one run")
}

fn phases_json(t: &PhaseTimings, total_ms: f64) -> String {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    format!(
        "{{\"tensor_build_ms\": {:.3}, \"tucker_ms\": {:.3}, \"distances_ms\": {:.3}, \
         \"clustering_ms\": {:.3}, \"indexing_ms\": {:.3}, \"total_ms\": {:.3}}}",
        ms(t.tensor_build),
        ms(t.tucker),
        ms(t.distances),
        ms(t.clustering),
        ms(t.indexing),
        total_ms,
    )
}

criterion_group!(
    benches,
    bench_build_phases,
    bench_kmeans_algorithms,
    emit_phase_report
);
criterion_main!(benches);
