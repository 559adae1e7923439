//! Micro-benchmarks of the spectral machinery: CasLaplacian construction,
//! exact λ_max vs. the ≈2 shortcut (the Table V cost trade-off), Chebyshev
//! basis expansion as K grows (the Table V "bigger K costs more" claim),
//! and the whole operator build of both Laplacian kinds — sparse core,
//! λ_max and CSR rows — beside the dense oracle it replaced.

use cascn_graph::{laplacian, DiGraph, SpectralBasis};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random cascade tree with `n` nodes.
fn random_cascade(n: usize, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for child in 1..n {
        let parent = rng.random_range(0..child);
        g.add_edge(parent, child, 1.0);
    }
    g
}

fn bench_cas_laplacian(c: &mut Criterion) {
    let mut group = c.benchmark_group("cas_laplacian");
    for &n in &[10usize, 30, 100] {
        let g = random_cascade(n, 7);
        group.bench_with_input(BenchmarkId::new("directed", n), &g, |b, g| {
            b.iter(|| laplacian::cas_laplacian(std::hint::black_box(g), 0.85))
        });
        group.bench_with_input(BenchmarkId::new("undirected", n), &g, |b, g| {
            b.iter(|| laplacian::undirected_normalized_laplacian(std::hint::black_box(g)))
        });
    }
    group.finish();
}

fn bench_lambda_max(c: &mut Criterion) {
    let mut group = c.benchmark_group("lambda_max");
    for &n in &[10usize, 30, 100] {
        let g = random_cascade(n, 11);
        let lap = laplacian::cas_laplacian(&g, 0.85);
        group.bench_with_input(BenchmarkId::new("exact_power_iteration", n), &lap, |b, lap| {
            b.iter(|| laplacian::largest_eigenvalue(std::hint::black_box(lap)))
        });
    }
    group.finish();
}

fn bench_chebyshev(c: &mut Criterion) {
    let mut group = c.benchmark_group("chebyshev_bases");
    let g = random_cascade(30, 13);
    let lap = laplacian::cas_laplacian(&g, 0.85);
    let scaled = laplacian::scale_laplacian(&lap, laplacian::largest_eigenvalue(&lap));
    for k in [1usize, 2, 3, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| laplacian::chebyshev_bases(std::hint::black_box(&scaled), k))
        });
    }
    group.finish();
}

/// `spectral_basis` as every cold request, training sample and live
/// `/observe` refresh pays it, for both Laplacian kinds: the sparse
/// builder against the dense oracle for the same quantities — for
/// `directed`, transition matrix, power-iteration φ, CasLaplacian and
/// dense λ_max; for `undirected`, the dense Eq. 9 Laplacian and its λ_max.
fn bench_spectral_basis(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectral_basis");
    for &n in &[30usize, 100] {
        let g = random_cascade(n, 17);
        group.bench_with_input(BenchmarkId::new("directed_sparse", n), &g, |b, g| {
            b.iter(|| SpectralBasis::directed(std::hint::black_box(g), 0.85, None, 2))
        });
        group.bench_with_input(BenchmarkId::new("directed_dense_oracle", n), &g, |b, g| {
            b.iter(|| {
                let lap = laplacian::cas_laplacian(std::hint::black_box(g), 0.85);
                laplacian::largest_eigenvalue(&lap)
            })
        });
        group.bench_with_input(BenchmarkId::new("undirected_sparse", n), &g, |b, g| {
            b.iter(|| SpectralBasis::undirected(std::hint::black_box(g), None, 2))
        });
        group.bench_with_input(BenchmarkId::new("undirected_dense_oracle", n), &g, |b, g| {
            b.iter(|| {
                let lap = laplacian::undirected_normalized_laplacian(std::hint::black_box(g));
                laplacian::largest_eigenvalue(&lap)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cas_laplacian,
    bench_lambda_max,
    bench_chebyshev,
    bench_spectral_basis
);
criterion_main!(benches);
