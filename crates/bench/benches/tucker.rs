//! Benchmarks of the Tucker/HOOI decomposition — the dominant cost of
//! CubeLSI's offline phase (Table V's left column) — plus its TTM kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cubelsi_core::build_tensor;
use cubelsi_datagen::{generate, GeneratorConfig};
use cubelsi_linalg::subspace::SubspaceOptions;
use cubelsi_linalg::Matrix;
use cubelsi_tensor::{tucker_als, SparseTensor3, TuckerConfig};
use std::hint::black_box;

fn corpus_tensor(users: usize, resources: usize, assignments: usize) -> SparseTensor3 {
    let ds = generate(&GeneratorConfig {
        users,
        resources,
        concepts: 12,
        assignments,
        seed: 5,
        ..Default::default()
    });
    build_tensor(&ds.folksonomy).unwrap()
}

fn tucker_config(core: usize) -> TuckerConfig {
    TuckerConfig {
        core_dims: (core, core, core),
        max_iters: 4,
        fit_tol: 1e-4,
        subspace: SubspaceOptions::default(),
        fused_gram: true,
    }
}

fn bench_tucker_als(c: &mut Criterion) {
    let mut group = c.benchmark_group("tucker_als");
    group.sample_size(10);
    for (users, resources, assignments) in [(150usize, 120usize, 6_000usize), (300, 250, 15_000)] {
        let tensor = corpus_tensor(users, resources, assignments);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{users}u_{resources}r_{assignments}y")),
            &tensor,
            |bencher, tensor| {
                bencher.iter(|| black_box(tucker_als(tensor, &tucker_config(12)).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_core_size_sweep(c: &mut Criterion) {
    // Figure 5 in miniature: decomposition cost versus core size.
    let tensor = corpus_tensor(200, 150, 10_000);
    let mut group = c.benchmark_group("tucker_core_size");
    group.sample_size(10);
    for core in [4usize, 8, 16, 24] {
        group.bench_with_input(
            BenchmarkId::from_parameter(core),
            &core,
            |bencher, &core| {
                bencher.iter(|| black_box(tucker_als(&tensor, &tucker_config(core)).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_ttm_kernel(c: &mut Criterion) {
    let tensor = corpus_tensor(300, 250, 15_000);
    let dims = tensor.dims();
    let j = 16usize;
    let y1 = Matrix::from_fn(dims.0, j, |i, k| ((i + k) % 7) as f64 / 7.0);
    let y3 = Matrix::from_fn(dims.2, j, |i, k| ((i * k + 1) % 5) as f64 / 5.0);
    c.bench_function("ttm_except_unfolded_mode2", |bencher| {
        bencher.iter(|| black_box(tensor.ttm_except_unfolded(2, &y1, &y3).unwrap()));
    });
}

fn bench_hosvd_unfold(c: &mut Criterion) {
    let tensor = corpus_tensor(300, 250, 15_000);
    c.bench_function("unfold_csr_compact_mode2", |bencher| {
        bencher.iter(|| black_box(tensor.unfold_csr_compact(2)));
    });
}

criterion_group!(
    benches,
    bench_tucker_als,
    bench_core_size_sweep,
    bench_ttm_kernel,
    bench_hosvd_unfold
);
criterion_main!(benches);
