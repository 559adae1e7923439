//! Property-based tests of the graph substrate on arbitrary random DAGs
//! (not just cascade trees): CSR correctness, topological order, and the
//! spectral invariants of the CasLaplacian pipeline.

use cascn_graph::{laplacian, walks, Csr, DiGraph, SpectralBasis};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random DAG with up to `max_n` nodes; edges only go from
/// lower to higher indices, so acyclicity holds by construction.
fn arbitrary_dag(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n * n, 0.1f32..5.0), 0..=max_edges.min(30)).prop_map(
            move |pairs| {
                let mut g = DiGraph::new(n);
                for (code, w) in pairs {
                    let (a, b) = (code / n, code % n);
                    if a < b {
                        g.add_edge(a, b, w);
                    } else if b < a {
                        g.add_edge(b, a, w);
                    }
                }
                g
            },
        )
    })
}

/// Strategy: a random directed graph with up to `max_n` nodes whose edges
/// go in any direction — back edges, cycles, self-loops — and may repeat
/// (parallel edges).
fn arbitrary_digraph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n * n, 0.1f32..5.0), 0..=40).prop_map(move |pairs| {
            let mut g = DiGraph::new(n);
            for (code, w) in pairs {
                g.add_edge(code / n, code % n, w);
            }
            g
        })
    })
}

/// Strategy: a random cascade tree in adoption order (every parent
/// precedes its child), as cascade validation guarantees.
fn arbitrary_tree(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(0.0f64..1.0, n - 1).prop_map(move |draws| {
            let mut g = DiGraph::new(n);
            for (i, u) in draws.into_iter().enumerate() {
                let child = i + 1;
                let parent = ((u * child as f64) as usize).min(child - 1);
                g.add_edge(parent, child, 1.0);
            }
            g
        })
    })
}

/// The sparse φ against the dense power-iteration oracle: within 1e-5
/// entrywise, converged, and summing to 1.
fn assert_sparse_phi_matches_oracle(g: &DiGraph) -> Result<(), String> {
    let sparse = laplacian::stationary_distribution_sparse(g, 0.85);
    let dense =
        laplacian::stationary_distribution_checked(&laplacian::transition_matrix(g, 0.85));
    prop_assert!(sparse.converged && !sparse.fallback, "{} sweeps", sparse.iterations);
    prop_assert!((sparse.phi.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    for (a, b) in sparse.phi.iter().zip(&dense.phi) {
        prop_assert!((a - b).abs() < 1e-5, "sparse {} vs dense {}", a, b);
    }
    Ok(())
}

/// The sparse undirected operator against the dense Eq. 9 oracle: λ within
/// 1e-3 relative, entries within 1e-4, entries exactly the oracle's under
/// a pinned `λ_max = 2`, and a core no denser than `2·edges + n`.
fn assert_undirected_matches_oracle(g: &DiGraph) -> Result<(), String> {
    let lap = laplacian::undirected_normalized_laplacian(g);
    let sparse = SpectralBasis::undirected(g, None, 2);
    let dense_lmax = laplacian::largest_eigenvalue(&lap);
    let rel = (sparse.lambda_max - dense_lmax).abs() / dense_lmax;
    prop_assert!(rel < 1e-3, "sparse λ {} vs dense {}", sparse.lambda_max, dense_lmax);
    let got = sparse.scaled_dense();
    let want = laplacian::scale_laplacian(&lap, dense_lmax);
    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
        prop_assert!((a - b).abs() <= 1e-4, "entry {} vs dense {}", a, b);
    }
    prop_assert!(sparse.op.nnz() <= 2 * g.edge_count() + g.node_count());
    let pinned = SpectralBasis::undirected(g, Some(2.0), 2);
    prop_assert_eq!(pinned.scaled_dense(), laplacian::scale_laplacian(&lap, 2.0));
    Ok(())
}

#[test]
fn sparse_phi_converges_where_dense_oracle_stalls() {
    // Regression: the dense power iteration stops only below a 1e-10
    // max-norm step, finer than f32 resolves for entries near 1/n, so on
    // these cascades it oscillates in the last ulp for all 10 000 rounds
    // and reports `converged == false`. The exact sparse solve finishes in
    // two sweeps and agrees with the oracle's last iterate.
    let mut star = DiGraph::new(4);
    let mut chain = DiGraph::new(7);
    for i in 1..4 {
        star.add_edge(0, i, 1.0);
    }
    for i in 1..7 {
        chain.add_edge(i - 1, i, 1.0);
    }
    for g in [star, chain] {
        let dense =
            laplacian::stationary_distribution_checked(&laplacian::transition_matrix(&g, 0.85));
        assert!(!dense.converged, "oracle converged on {} nodes", g.node_count());
        let sparse = laplacian::stationary_distribution_sparse(&g, 0.85);
        assert!(sparse.converged && !sparse.fallback);
        assert_eq!(sparse.iterations, 2);
        for (a, b) in sparse.phi.iter().zip(&dense.phi) {
            assert!((a - b).abs() < 1e-5, "sparse {a} vs dense {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_phi_matches_dense_oracle_on_forward_dags(g in arbitrary_dag(16)) {
        assert_sparse_phi_matches_oracle(&g)?;
        // Forward substitution is exact: one solving sweep, one no-op
        // sweep. An edgeless graph is already at its uniform start.
        let sweeps = laplacian::stationary_distribution_sparse(&g, 0.85).iterations;
        if g.edge_count() > 0 {
            prop_assert_eq!(sweeps, 2);
        } else {
            prop_assert!(sweeps <= 2);
        }
    }

    #[test]
    fn sparse_phi_matches_dense_oracle_on_any_digraph(g in arbitrary_digraph(16)) {
        assert_sparse_phi_matches_oracle(&g)?;
    }

    #[test]
    fn sparse_phi_takes_exactly_two_sweeps_on_cascade_trees(g in arbitrary_tree(60)) {
        assert_sparse_phi_matches_oracle(&g)?;
        prop_assert_eq!(laplacian::stationary_distribution_sparse(&g, 0.85).iterations, 2);
    }

    #[test]
    fn undirected_operator_matches_dense_oracle_on_cascade_trees(g in arbitrary_tree(60)) {
        assert_undirected_matches_oracle(&g)?;
    }

    #[test]
    fn undirected_operator_matches_dense_oracle_on_any_digraph(g in arbitrary_digraph(16)) {
        assert_undirected_matches_oracle(&g)?;
    }

    #[test]
    fn csr_roundtrips_through_dense(g in arbitrary_dag(12)) {
        let csr = g.out_csr();
        let dense = g.adjacency();
        let back = Csr::from_dense(&dense);
        // Dense forms agree (duplicates merged identically).
        let d2 = back.to_dense();
        for i in 0..dense.len() {
            prop_assert!((dense.as_slice()[i] - d2.as_slice()[i]).abs() < 1e-5);
        }
        // spmv agrees with dense multiply.
        let x: Vec<f32> = (0..g.node_count()).map(|i| i as f32 - 1.5).collect();
        let y1 = csr.spmv(&x);
        let y2 = dense.matmul(&cascn_tensor::Matrix::col_vector(&x));
        for (a, b) in y1.iter().zip(y2.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn constructed_dags_are_dags(g in arbitrary_dag(15)) {
        prop_assert!(g.is_dag());
        let order = g.topological_order().expect("is a DAG");
        prop_assert_eq!(order.len(), g.node_count());
        let mut pos = vec![0usize; g.node_count()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        for (u, v, _) in g.edges() {
            prop_assert!(pos[u] < pos[v]);
        }
    }

    #[test]
    fn degree_identities(g in arbitrary_dag(12)) {
        let out: usize = g.out_degrees().iter().sum();
        let into: usize = g.in_degrees().iter().sum();
        prop_assert_eq!(out, g.edge_count());
        prop_assert_eq!(into, g.edge_count());
        // Leaves have zero out-degree by definition.
        let degs = g.out_degrees();
        for leaf in g.leaves() {
            prop_assert_eq!(degs[leaf], 0);
        }
    }

    #[test]
    fn transition_matrix_is_stochastic_for_any_dag(g in arbitrary_dag(10)) {
        let p = laplacian::transition_matrix(&g, 0.85);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&x| x > 0.0));
        }
        // Stationary distribution is a positive fixed point.
        let phi = laplacian::stationary_distribution_checked(&p).phi;
        prop_assert!((phi.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(phi.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn cas_laplacian_kernel_property(g in arbitrary_dag(10)) {
        let lap = laplacian::cas_laplacian(&g, 0.85);
        let v = laplacian::sqrt_stationary(&g, 0.85);
        for r in 0..lap.rows() {
            let y: f32 = lap.row(r).iter().zip(&v).map(|(&a, &b)| a * b).sum();
            prop_assert!(y.abs() < 2e-3, "row {} maps sqrt-stationary to {}", r, y);
        }
    }

    #[test]
    fn chebyshev_recursion_identity(g in arbitrary_dag(8)) {
        // T_2 = 2 L̃ T_1 − T_0 must hold exactly for the produced bases.
        let lap = laplacian::cas_laplacian(&g, 0.85);
        let scaled = laplacian::scale_laplacian(&lap, laplacian::largest_eigenvalue(&lap));
        let bases = laplacian::chebyshev_bases(&scaled, 2);
        let expect = {
            let mut m = scaled.matmul(&bases[1]).scale(2.0);
            m.axpy(-1.0, &bases[0]);
            m
        };
        for i in 0..expect.len() {
            prop_assert!((bases[2].as_slice()[i] - expect.as_slice()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn walks_never_leave_the_edge_set(g in arbitrary_dag(12), seed in 0u64..1000) {
        let csr = g.out_csr();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = walks::random_walk(&csr, 0, 10, &mut rng);
        prop_assert!(!w.is_empty());
        for pair in w.windows(2) {
            prop_assert!(csr.row(pair[0]).iter().any(|&(c, _)| c == pair[1]));
        }
    }

    #[test]
    fn undirected_csr_is_symmetric(g in arbitrary_dag(10)) {
        let und = walks::undirected_csr(&g).to_dense();
        for r in 0..und.rows() {
            for c in 0..und.cols() {
                prop_assert!((und[(r, c)] - und[(c, r)]).abs() < 1e-5);
            }
        }
    }
}
