//! Compute-core benchmarks: the sparse operator-form Chebyshev conv stack
//! vs. the dense materialized-basis oracle, swept across cascade
//! sizes and edge densities so the crossover point stays visible in CI
//! output — at toy sizes the dense n×n matmul is competitive; on
//! representative sparse cascades the operator form wins by the
//! O(K·n²·d) → O(K·nnz·d) margin the kernel layer promises. Plus the
//! matmul kernel on a recurrent cell's three dense products and on an
//! outer product, which takes its rank-1 path.

use cascn_autograd::Tape;
use cascn_graph::{DiGraph, SpectralBasis};
use cascn_nn::ChebOperands;
use cascn_tensor::Matrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const K: usize = 2;
const D: usize = 32;

/// A synthetic cascade DAG over `n` nodes: a random-parent diffusion tree
/// plus `extra` additional cross edges (earlier → later), deterministic in
/// the simple LCG so every run benchmarks the identical structure.
fn cascade_graph(n: usize, extra: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    let mut state = 0x9e3779b97f4a7c15u64 ^ (n as u64) << 8 ^ extra as u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for v in 1..n {
        g.add_edge(next() % v, v, 1.0);
    }
    let mut added = 0;
    while added < extra {
        let v = 1 + next() % (n - 1);
        let u = next() % v;
        g.add_edge(u, v, 1.0);
        added += 1;
    }
    g
}

/// The production directed pipeline: teleportation makes the scaled
/// Laplacian itself dense, so the basis carries a sparse adjacency core
/// plus a rank-1 teleport correction.
fn basis_for(g: &DiGraph) -> SpectralBasis {
    SpectralBasis::directed(g, 0.85, None, K)
}

fn features(n: usize) -> Matrix {
    Matrix::from_fn(n, D, |r, c| ((r * 31 + c * 7) % 13) as f32 / 13.0 - 0.5)
}

/// Sparse vs. dense conv-stack across cascade sizes (diffusion trees, the
/// typical per-cascade structure: nnz ≈ 2n−1).
fn bench_conv_stack_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_stack");
    for n in [10usize, 20, 40, 80, 160] {
        let g = cascade_graph(n, 0);
        let basis = basis_for(&g);
        let feat = features(n);
        group.bench_with_input(BenchmarkId::new("sparse", n), &n, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let x = tape.constant(feat.clone());
                let operands = ChebOperands::sparse(&basis);
                std::hint::black_box(operands.conv_stack(&mut tape, x))
            })
        });
        let bases = basis.materialize();
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let x = tape.constant(feat.clone());
                let operands = ChebOperands::dense(&mut tape, &bases);
                std::hint::black_box(operands.conv_stack(&mut tape, x))
            })
        });
    }
    group.finish();
}

/// Fixed size, rising edge density: as extra cross edges push nnz toward
/// n², the sparse operator's advantage shrinks — the crossover the dense
/// fallback kernel exists for.
fn bench_conv_stack_density(c: &mut Criterion) {
    let n = 80usize;
    let mut group = c.benchmark_group("conv_stack_density");
    for extra in [0usize, n, 4 * n, 16 * n] {
        let g = cascade_graph(n, extra);
        let basis = basis_for(&g);
        let feat = features(n);
        let label = format!("nnz~{}", n + g.edge_count());
        group.bench_with_input(BenchmarkId::new("sparse", &label), &extra, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let x = tape.constant(feat.clone());
                let operands = ChebOperands::sparse(&basis);
                std::hint::black_box(operands.conv_stack(&mut tape, x))
            })
        });
        let bases = basis.materialize();
        group.bench_with_input(BenchmarkId::new("dense", &label), &extra, |b, _| {
            b.iter(|| {
                let mut tape = Tape::new();
                let x = tape.constant(feat.clone());
                let operands = ChebOperands::dense(&mut tape, &bases);
                std::hint::black_box(operands.conv_stack(&mut tape, x))
            })
        });
    }
    group.finish();
}

/// The dense products of one Chebyshev recurrent convolution at hidden 32
/// with four gates: the forward `h·U` (`n×32 · 32×128`), the state gradient
/// `g·Uᵀ` and the weight gradient `sᵀ·g`, at 11 and 100 nodes (the median
/// and the largest `train` cascade of perfbench). The dispatched
/// instruction set is printed with the group.
fn bench_cell_products(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("cell_products/{}", cascn_tensor::gemm_isa()));
    let u = Matrix::from_fn(D, 4 * D, |r, c| ((r * 5 + c * 3) % 17) as f32 / 17.0 - 0.5);
    for n in [11usize, 100] {
        let h = features(n);
        let g = Matrix::from_fn(n, 4 * D, |r, c| ((r * 11 + c * 7) % 19) as f32 / 19.0 - 0.5);
        group.bench_with_input(BenchmarkId::new("h_u", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(h.matmul(&u)))
        });
        group.bench_with_input(BenchmarkId::new("g_ut", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(g.matmul_a_bt(&u)))
        });
        group.bench_with_input(BenchmarkId::new("st_g", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(h.matmul_at_b(&g)))
        });
    }
    group.finish();
}

/// An outer product, the reduction-of-length-1 shape of the next-user
/// head's weight gradient: `(1×32)ᵀ·(1×5001)`, a 32 × 5001 result.
fn bench_rank_one(c: &mut Criterion) {
    let a = Matrix::from_fn(1, D, |_, c| c as f32 * 0.03 - 0.5);
    let b = Matrix::from_fn(1, 5001, |_, c| ((c * 7) % 13) as f32 / 13.0 - 0.5);
    c.bench_function("rank_one/at_b_1x32_1x5001", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul_at_b(&b)))
    });
}

criterion_group!(
    benches,
    bench_conv_stack_sizes,
    bench_conv_stack_density,
    bench_cell_products,
    bench_rank_one
);
criterion_main!(benches);
