//! A compact weighted directed graph.

use cascn_tensor::Matrix;

use crate::Csr;

/// A weighted directed graph over nodes `0..n`.
///
/// Edges are stored as a flat list and compiled to CSR (forward and reverse)
/// lazily via [`DiGraph::out_csr`] / [`DiGraph::in_csr`]. Cascade graphs in
/// the paper are DAGs; [`DiGraph::is_dag`] and
/// [`DiGraph::topological_order`] support that invariant.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    n: usize,
    edges: Vec<(usize, usize, f32)>,
}

impl DiGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a weighted directed edge `u → v`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f32) {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range for {} nodes", self.n);
        self.edges.push((u, v, w));
    }

    /// Iterates over `(src, dst, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.edges.iter().copied()
    }

    /// Out-degree (unweighted edge count) of each node.
    pub fn out_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.n];
        for &(u, _, _) in &self.edges {
            d[u] += 1;
        }
        d
    }

    /// In-degree (unweighted edge count) of each node.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.n];
        for &(_, v, _) in &self.edges {
            d[v] += 1;
        }
        d
    }

    /// Weighted out-degree (sum of outgoing weights) of each node.
    pub fn weighted_out_degrees(&self) -> Vec<f32> {
        let mut d = vec![0.0f32; self.n];
        for &(u, _, w) in &self.edges {
            d[u] += w;
        }
        d
    }

    /// Nodes with no outgoing edges (the frontier/leaves of a cascade DAG).
    pub fn leaves(&self) -> Vec<usize> {
        let d = self.out_degrees();
        (0..self.n).filter(|&i| d[i] == 0).collect()
    }

    /// Nodes with no incoming edges (roots).
    pub fn roots(&self) -> Vec<usize> {
        let d = self.in_degrees();
        (0..self.n).filter(|&i| d[i] == 0).collect()
    }

    /// Forward adjacency in CSR form.
    pub fn out_csr(&self) -> Csr {
        Csr::from_edges(self.n, self.edges.iter().copied())
    }

    /// Reverse adjacency in CSR form (edges flipped).
    pub fn in_csr(&self) -> Csr {
        Csr::from_edges(self.n, self.edges.iter().map(|&(u, v, w)| (v, u, w)))
    }

    /// Dense weighted adjacency matrix `W` with `W[u][v] = weight(u→v)`
    /// (parallel edges sum).
    pub fn adjacency(&self) -> Matrix {
        let mut w = Matrix::zeros(self.n, self.n);
        for &(u, v, wt) in &self.edges {
            w[(u, v)] += wt;
        }
        w
    }

    /// A topological order if the graph is a DAG, `None` otherwise
    /// (Kahn's algorithm).
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let csr = self.out_csr();
        let mut indeg = self.in_degrees();
        let mut queue: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &(v, _) in csr.row(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// Whether the graph is acyclic.
    pub fn is_dag(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Longest path length (in edges) from any root, assuming a DAG.
    ///
    /// Returns `None` for cyclic graphs.
    pub fn dag_depth(&self) -> Option<usize> {
        let order = self.topological_order()?;
        let csr = self.out_csr();
        let mut depth = vec![0usize; self.n];
        let mut max = 0;
        for &u in &order {
            for &(v, _) in csr.row(u) {
                if depth[u] + 1 > depth[v] {
                    depth[v] = depth[u] + 1;
                    max = max.max(depth[v]);
                }
            }
        }
        Some(max)
    }

    /// Parents (sources of incoming edges) of `v`, in insertion order.
    pub fn parents(&self, v: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|&&(_, d, _)| d == v)
            .map(|&(s, _, _)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1 cascade used throughout the paper.
    fn fig1() -> DiGraph {
        let mut g = DiGraph::new(6);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)] {
            g.add_edge(u, v, 1.0);
        }
        g
    }

    #[test]
    fn degrees_match_fig1() {
        let g = fig1();
        assert_eq!(g.out_degrees(), vec![2, 2, 0, 1, 0, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 1, 1, 1]);
        assert_eq!(g.leaves(), vec![2, 4, 5]);
        assert_eq!(g.roots(), vec![0]);
    }

    #[test]
    fn adjacency_is_dense_and_directed() {
        let g = fig1();
        let w = g.adjacency();
        assert_eq!(w[(0, 1)], 1.0);
        assert_eq!(w[(1, 0)], 0.0);
        assert_eq!(w.sum(), 5.0);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = fig1();
        let order = g.topological_order().expect("fig1 is a DAG");
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (u, v, _) in g.edges() {
            assert!(pos[u] < pos[v], "edge {u}->{v} violates topo order");
        }
    }

    #[test]
    fn cycle_is_not_a_dag() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 0, 1.0);
        assert!(!g.is_dag());
        assert!(g.dag_depth().is_none());
    }

    #[test]
    fn dag_depth_of_fig1_is_three() {
        // Longest path: 0 → 1 → 3 → 5.
        assert_eq!(fig1().dag_depth(), Some(3));
    }

    #[test]
    fn parents_listed_in_order() {
        let g = fig1();
        assert_eq!(g.parents(5), vec![3]);
        assert_eq!(g.parents(0), Vec::<usize>::new());
    }

    #[test]
    fn parallel_edges_sum_in_adjacency() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 2.0);
        assert_eq!(g.adjacency()[(0, 1)], 3.0);
        assert_eq!(g.weighted_out_degrees(), vec![3.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_bounds_checked() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 2, 1.0);
    }
}
