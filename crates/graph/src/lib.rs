//! Directed-graph and spectral-graph machinery for the CasCN reproduction.
//!
//! Implements everything Sections III-B and IV-B of the paper require:
//!
//! * [`DiGraph`] — a compact directed graph with CSR adjacency in both
//!   directions, degree queries, DAG checks and topological order;
//! * [`SpectralBasis`] — the scaled Laplacian operator `Δ̃ = 2Δ/λ_max − I`
//!   (Eq. 2) of a cascade, built in `O(nnz)` from either the
//!   **CasLaplacian** `Δ_c = Φ^{1/2}(I − P_c)Φ^{-1/2}` (Eq. 7–8,
//!   Algorithm 1) or the undirected normalized Laplacian (Eq. 9), with
//!   dense Chebyshev bases `T_k(Δ̃)` (Eq. 3–4) on demand;
//! * the dense transition matrix, stationary distribution and Laplacians
//!   as test oracles of that pipeline (module [`laplacian`]);
//! * uniform and node2vec-biased random walks (used by the DeepCas /
//!   Node2Vec baselines and the CasCN-Path variant).
//!
//! The sparse matrix types [`Csr`] and [`SparseOp`] live in `cascn-tensor`
//! and are re-exported here.
//!
//! # Example: the scaled CasLaplacian of a small cascade
//!
//! ```
//! use cascn_graph::{DiGraph, SpectralBasis};
//!
//! // The Fig. 1 cascade: V0→V1, V0→V2, V1→V3, V1→V4, V3→V5.
//! let mut g = DiGraph::new(6);
//! for &(u, v) in &[(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)] {
//!     g.add_edge(u, v, 1.0);
//! }
//! let basis = SpectralBasis::directed(&g, 0.85, None, 2);
//! assert_eq!(basis.num_nodes(), 6);
//! ```

mod digraph;
pub mod laplacian;
pub mod walks;

pub use cascn_tensor::{Csr, SparseOp};
pub use digraph::DiGraph;
pub use laplacian::SpectralBasis;
