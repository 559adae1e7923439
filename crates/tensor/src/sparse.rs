//! Compressed sparse row matrices and the sparse spectral operator.
//!
//! `Csr` lives in the tensor crate (rather than `cascn-graph`, where it
//! originated) because the autograd tape applies sparse operators inside the
//! Chebyshev recurrence and `cascn-autograd` depends only on this crate.
//! `cascn-graph` re-exports `Csr` so adjacency-traversal call sites are
//! unchanged.
//!
//! [`SparseOp`] is the operator form of the scaled CasLaplacian
//! `Δ̃ = S + coeff·u·vᵀ`: a CSR core plus an optional rank-1 correction. The
//! directed CasLaplacian is dense on paper only because PageRank teleport
//! spreads `(1−α)/n` over every entry; factoring that teleport mass into the
//! rank-1 term leaves `S` as sparse as the cascade itself, so applying the
//! operator to an `n×d` feature block costs `O(nnz·d + n·d)` instead of
//! `O(n²·d)`.

use crate::Matrix;

/// A sparse matrix in CSR format.
///
/// Stores, per row, the `(column, value)` pairs of its nonzeros. Used for
/// adjacency traversal (random walks, topological sweeps), sparse
/// matrix–vector products, and the SpMM kernel driving the Chebyshev
/// recurrence, where the dense `n x n` form would waste work.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    entries: Vec<(usize, f32)>,
}

impl Csr {
    /// Builds a square `n x n` CSR matrix from `(row, col, value)` triples
    /// ([`Csr::from_triplets`]). Duplicate coordinates are kept as separate
    /// entries (they sum under multiplication, matching dense semantics).
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn from_edges(n: usize, edges: impl Iterator<Item = (usize, usize, f32)>) -> Self {
        Self::from_triplets(n, n, edges)
    }

    /// Builds an `n_rows x n_cols` CSR matrix from `(row, col, value)`
    /// triples by a counting sort on the row. Each row's entries are then
    /// sorted by column, stably, so duplicate coordinates keep their input
    /// order (and sum under multiplication, matching dense semantics).
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn from_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Self {
        let triplets: Vec<(usize, usize, f32)> = triplets.into_iter().collect();
        let mut row_ptr = vec![0usize; n_rows + 1];
        for &(r, c, _) in &triplets {
            assert!(
                r < n_rows && c < n_cols,
                "entry ({r},{c}) out of range for {n_rows}x{n_cols}"
            );
            row_ptr[r + 1] += 1;
        }
        for r in 0..n_rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut next = row_ptr[..n_rows].to_vec();
        let mut entries = vec![(0usize, 0.0f32); triplets.len()];
        for (r, c, v) in triplets {
            entries[next[r]] = (c, v);
            next[r] += 1;
        }
        for r in 0..n_rows {
            entries[row_ptr[r]..row_ptr[r + 1]].sort_by_key(|&(c, _)| c);
        }
        Self {
            n_rows,
            n_cols,
            row_ptr,
            entries,
        }
    }

    /// Builds a CSR matrix from per-row `(column, value)` lists whose columns
    /// are already strictly ascending (the invariant [`Csr::row`] documents).
    /// This is the reconstruction path for persisted operators: it preserves
    /// the stored entry order bit-for-bit without re-sorting.
    ///
    /// # Panics
    /// Panics if any column is out of range or a row's columns are not
    /// strictly ascending.
    pub fn from_rows(n_cols: usize, rows: &[Vec<(usize, f32)>]) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut entries = Vec::new();
        row_ptr.push(0);
        for (r, row) in rows.iter().enumerate() {
            let mut prev: Option<usize> = None;
            for &(c, v) in row {
                assert!(c < n_cols, "entry ({r},{c}) out of range for {n_cols} cols");
                assert!(
                    prev.is_none_or(|p| p < c),
                    "row {r} columns not strictly ascending at {c}"
                );
                prev = Some(c);
                entries.push((c, v));
            }
            row_ptr.push(entries.len());
        }
        Self {
            n_rows: rows.len(),
            n_cols,
            row_ptr,
            entries,
        }
    }

    /// Builds a CSR matrix from a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut row_ptr = Vec::with_capacity(m.rows() + 1);
        let mut entries = Vec::new();
        row_ptr.push(0);
        for r in 0..m.rows() {
            for (c, &v) in m.row(r).iter().enumerate() {
                // lint: allow(float-eq) — exact-zero sparsity test: only true zeros are dropped from the CSR
                if v != 0.0 {
                    entries.push((c, v));
                }
            }
            row_ptr.push(entries.len());
        }
        Self {
            n_rows: m.rows(),
            n_cols: m.cols(),
            row_ptr,
            entries,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The `(column, value)` pairs of row `r`, sorted by column.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[(usize, f32)] {
        assert!(r < self.n_rows, "row {r} out of range");
        &self.entries[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Dense conversion (duplicates sum).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            for &(c, v) in self.row(r) {
                m[(r, c)] += v;
            }
        }
        m
    }

    /// Sparse matrix × dense vector: `y = A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.n_rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// [`Csr::spmv`] into a caller-owned buffer.
    ///
    /// # Panics
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn spmv_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.n_cols, "spmv: dimension mismatch");
        assert_eq!(y.len(), self.n_rows, "spmv: output length mismatch");
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &(c, v) in self.row(r) {
                acc += v * x[c];
            }
            *out = acc;
        }
    }

    /// Transposed product: `y = Aᵀ·x` (used by power iteration on `Pᵀ`).
    ///
    /// # Panics
    /// Panics if `x.len() != rows`.
    pub fn spmv_transpose(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.n_cols];
        self.spmv_transpose_into(x, &mut y);
        y
    }

    /// [`Csr::spmv_transpose`] into a caller-owned buffer, which it
    /// overwrites.
    ///
    /// # Panics
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn spmv_transpose_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.n_rows, "spmv_transpose: dimension mismatch");
        assert_eq!(y.len(), self.n_cols, "spmv_transpose: output length mismatch");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            // lint: allow(float-eq) — exact-zero skip: NaN/Inf compare unequal and still take the dense path
            if xr == 0.0 {
                continue;
            }
            for &(c, v) in self.row(r) {
                y[c] += v * xr;
            }
        }
    }

    /// Sparse × dense SpMM: `Y = A·X`, the kernel behind the operator-form
    /// Chebyshev recurrence `T_k·X = 2·Δ̃·(T_{k-1}·X) − T_{k-2}·X`.
    ///
    /// For an all-finite `X` and a `Csr` with one entry per coordinate (the
    /// [`Csr::from_dense`] invariant) this is **bit-identical** to
    /// `self.to_dense().matmul(x)`: the dense kernel accumulates each output
    /// element over ascending `p` from `+0.0`, where the `±0.0` products of
    /// exact-zero `A` entries change nothing, and a CSR row walk visits the
    /// same nonzeros in the same ascending-column order. Structural zeros
    /// are skipped here, so unlike the dense kernel a non-finite `X` does
    /// *not* propagate through them — the dense kernels remain the
    /// NaN-surfacing guard path.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()`.
    pub fn spmm(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.rows(),
            self.n_cols,
            "spmm: {}x{} · {}x{} mismatch",
            self.n_rows,
            self.n_cols,
            x.rows(),
            x.cols()
        );
        let d = x.cols();
        let xs = x.as_slice();
        let mut out = Matrix::zeros(self.n_rows, d);
        for r in 0..self.n_rows {
            let out_row = out.row_mut(r);
            for &(c, v) in &self.entries[self.row_ptr[r]..self.row_ptr[r + 1]] {
                let x_row = &xs[c * d..(c + 1) * d];
                for (o, &b) in out_row.iter_mut().zip(x_row) {
                    *o += v * b;
                }
            }
        }
        out
    }

    /// Transposed SpMM: `Y = Aᵀ·X` without materializing the transpose
    /// (reverse-mode gradient of [`Csr::spmm`]: for `Y = A·X`, `∂X = Aᵀ·∂Y`).
    ///
    /// Deterministic: scatters row-by-row in ascending `r`, then ascending
    /// stored column, independent of thread count.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.rows()`.
    pub fn spmm_transpose(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.rows(),
            self.n_rows,
            "spmm_transpose: {}x{} ᵀ· {}x{} mismatch",
            self.n_rows,
            self.n_cols,
            x.rows(),
            x.cols()
        );
        let d = x.cols();
        let xs = x.as_slice();
        let mut out = Matrix::zeros(self.n_cols, d);
        let out_s = out.as_mut_slice();
        for r in 0..self.n_rows {
            let x_row = &xs[r * d..(r + 1) * d];
            for &(c, v) in &self.entries[self.row_ptr[r]..self.row_ptr[r + 1]] {
                let o_row = &mut out_s[c * d..(c + 1) * d];
                for (o, &b) in o_row.iter_mut().zip(x_row) {
                    *o += v * b;
                }
            }
        }
        out
    }
}

/// A square linear operator `M = S + coeff·u·vᵀ`: a sparse CSR core plus an
/// optional dense rank-1 correction.
///
/// This is the storage form of the scaled CasLaplacian `Δ̃`. For undirected
/// cascades `Δ̃` is genuinely sparse and `rank1` is `None`; for directed
/// cascades the PageRank teleport term makes every entry of `Δ̃` nonzero, but
/// all of that mass is the single rank-1 outer product
/// `−(2/λmax)·(1−α)/n · φ^{1/2}·(φ^{-1/2})ᵀ`, so the core stays as sparse as
/// the cascade adjacency.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseOp {
    csr: Csr,
    rank1: Option<(f32, Vec<f32>, Vec<f32>)>,
}

impl SparseOp {
    /// Wraps a plain CSR matrix (no rank-1 part).
    ///
    /// # Panics
    /// Panics if `csr` is not square.
    pub fn from_csr(csr: Csr) -> Self {
        Self::new(csr, None)
    }

    /// Builds `S + coeff·u·vᵀ` from its parts.
    ///
    /// # Panics
    /// Panics if `csr` is not square or the rank-1 vectors don't match its
    /// dimension.
    pub fn new(csr: Csr, rank1: Option<(f32, Vec<f32>, Vec<f32>)>) -> Self {
        assert_eq!(csr.rows(), csr.cols(), "SparseOp: core must be square");
        if let Some((_, u, v)) = &rank1 {
            assert_eq!(u.len(), csr.rows(), "SparseOp: u length != dimension");
            assert_eq!(v.len(), csr.cols(), "SparseOp: v length != dimension");
        }
        Self { csr, rank1 }
    }

    /// The operator's dimension `n` (it is `n×n`).
    pub fn dim(&self) -> usize {
        self.csr.rows()
    }

    /// Stored nonzeros of the sparse core.
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// The sparse core (for persistence).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The rank-1 correction `(coeff, u, v)`, if any (for persistence).
    pub fn rank1(&self) -> Option<(f32, &[f32], &[f32])> {
        self.rank1
            .as_ref()
            .map(|(c, u, v)| (*c, u.as_slice(), v.as_slice()))
    }

    /// Approximate heap footprint in bytes: CSR entries + row pointers +
    /// rank-1 vectors. Used by the serve-cache memory accounting.
    pub fn approx_bytes(&self) -> usize {
        let csr = self.csr.nnz() * std::mem::size_of::<(usize, f32)>()
            + (self.csr.rows() + 1) * std::mem::size_of::<usize>();
        let rank1 = self
            .rank1
            .as_ref()
            .map_or(0, |(_, u, v)| (u.len() + v.len()) * std::mem::size_of::<f32>() + 4);
        csr + rank1
    }

    /// Applies the operator to a feature block: `Y = S·X + coeff·u·(vᵀX)`.
    ///
    /// The rank-1 half costs `O(n·d)`: one pass folds `X` into the `1×d` row
    /// `vᵀX`, a second scatters `coeff·u_r` multiples of it into the output.
    /// Deterministic accumulation order throughout (ascending row, ascending
    /// column), independent of thread count.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.dim()`.
    pub fn apply(&self, x: &Matrix) -> Matrix {
        let mut out = self.csr.spmm(x);
        if let Some((coeff, u, v)) = &self.rank1 {
            let folded = fold_rows(v, x);
            let d = x.cols();
            let out_s = out.as_mut_slice();
            for (r, &ur) in u.iter().enumerate() {
                let w = coeff * ur;
                let o_row = &mut out_s[r * d..(r + 1) * d];
                for (o, &f) in o_row.iter_mut().zip(&folded) {
                    *o += w * f;
                }
            }
        }
        out
    }

    /// Applies the transposed operator: `Y = Sᵀ·X + coeff·v·(uᵀX)`
    /// (reverse-mode gradient of [`SparseOp::apply`]).
    ///
    /// # Panics
    /// Panics if `x.rows() != self.dim()`.
    pub fn apply_transpose(&self, x: &Matrix) -> Matrix {
        let mut out = self.csr.spmm_transpose(x);
        if let Some((coeff, u, v)) = &self.rank1 {
            let folded = fold_rows(u, x);
            let d = x.cols();
            let out_s = out.as_mut_slice();
            for (c, &vc) in v.iter().enumerate() {
                let w = coeff * vc;
                let o_row = &mut out_s[c * d..(c + 1) * d];
                for (o, &f) in o_row.iter_mut().zip(&folded) {
                    *o += w * f;
                }
            }
        }
        out
    }

    /// Materializes the operator as a dense matrix (tests, the legacy dense
    /// kernel path, and gradient checking).
    pub fn to_dense(&self) -> Matrix {
        let mut m = self.csr.to_dense();
        if let Some((coeff, u, v)) = &self.rank1 {
            for (r, &ur) in u.iter().enumerate() {
                for (c, &vc) in v.iter().enumerate() {
                    m[(r, c)] += coeff * ur * vc;
                }
            }
        }
        m
    }
}

/// `wᵀX` as a length-`d` row: `folded[j] = Σ_r w[r]·X[r][j]`, accumulated in
/// ascending `r` for determinism.
fn fold_rows(w: &[f32], x: &Matrix) -> Vec<f32> {
    let d = x.cols();
    let xs = x.as_slice();
    let mut folded = vec![0.0f32; d];
    for (r, &wr) in w.iter().enumerate() {
        let x_row = &xs[r * d..(r + 1) * d];
        for (f, &b) in folded.iter_mut().zip(x_row) {
            *f += wr * b;
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_matrix_eq;

    fn sample() -> Csr {
        Csr::from_edges(
            3,
            vec![(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0), (0, 2, 1.0)].into_iter(),
        )
    }

    #[test]
    fn roundtrip_through_dense() {
        let c = sample();
        let d = c.to_dense();
        let c2 = Csr::from_dense(&d);
        assert_matrix_eq(&c2.to_dense(), &d, 0.0);
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn rows_are_sorted_by_column() {
        let c = sample();
        assert_eq!(c.row(0), &[(1, 2.0), (2, 1.0)]);
        assert_eq!(c.row(1), &[(2, 3.0)]);
    }

    #[test]
    fn from_triplets_builds_rectangular_rows_sorted_and_stable() {
        let c = Csr::from_triplets(3, 5, [(2, 4, 1.0), (0, 3, 2.0), (0, 1, 3.0), (2, 4, 5.0)]);
        assert_eq!((c.rows(), c.cols(), c.nnz()), (3, 5, 4));
        assert_eq!(c.row(0), &[(1, 3.0), (3, 2.0)]);
        assert!(c.row(1).is_empty(), "rows without entries stay empty");
        assert_eq!(
            c.row(2),
            &[(4, 1.0), (4, 5.0)],
            "duplicates keep input order"
        );
        assert_eq!(c.to_dense()[(2, 4)], 6.0);
    }

    #[test]
    fn from_rows_preserves_entry_order() {
        let c = sample();
        let rows: Vec<Vec<(usize, f32)>> = (0..c.rows()).map(|r| c.row(r).to_vec()).collect();
        let rebuilt = Csr::from_rows(c.cols(), &rows);
        assert_eq!(rebuilt, c);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_rows_rejects_unsorted_columns() {
        let _ = Csr::from_rows(3, &[vec![(2, 1.0), (1, 2.0)]]);
    }

    #[test]
    fn spmv_matches_dense_product() {
        let c = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = c.spmv(&x);
        let dense_y = c.to_dense().matmul(&Matrix::col_vector(&x));
        assert_eq!(y, dense_y.as_slice());
    }

    #[test]
    fn spmv_transpose_matches_dense_product() {
        let c = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = c.spmv_transpose(&x);
        let dense_y = c.to_dense().transpose().matmul(&Matrix::col_vector(&x));
        assert_eq!(y, dense_y.as_slice());
    }

    #[test]
    fn duplicates_sum_in_dense_form() {
        let c = Csr::from_edges(2, vec![(0, 1, 1.0), (0, 1, 2.5)].into_iter());
        assert_eq!(c.to_dense()[(0, 1)], 3.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_bounds_checked() {
        let _ = Csr::from_edges(2, vec![(0, 5, 1.0)].into_iter());
    }

    #[test]
    fn spmm_is_bit_identical_to_dense_matmul() {
        // The load-bearing contract of the operator-form Chebyshev pipeline:
        // on a finite feature block, CSR SpMM reproduces the dense kernel's
        // accumulation order exactly — not approximately.
        let c = sample();
        let x = Matrix::from_fn(3, 4, |r, k| (r * 4 + k) as f32 * 0.37 - 1.1);
        let sparse = c.spmm(&x);
        let dense = c.to_dense().matmul(&x);
        assert_eq!(sparse.as_slice(), dense.as_slice(), "bitwise equality required");
    }

    #[test]
    fn spmm_handles_empty_rows_and_all_zero() {
        let x = Matrix::from_fn(4, 2, |r, k| (r + k) as f32 + 0.5);
        // Row 2 empty; row 3 empty.
        let c = Csr::from_edges(4, vec![(0, 3, 2.0), (1, 0, -1.0)].into_iter());
        let got = c.spmm(&x);
        assert_eq!(got.as_slice(), c.to_dense().matmul(&x).as_slice());
        assert_eq!(got.row(2), &[0.0, 0.0]);
        // The fully-empty matrix maps everything to zero.
        let empty = Csr::from_edges(4, std::iter::empty());
        assert_eq!(empty.spmm(&x).as_slice(), &[0.0; 8]);
    }

    #[test]
    fn spmm_single_node() {
        let c = Csr::from_edges(1, vec![(0, 0, -0.5)].into_iter());
        let x = Matrix::row_vector(&[2.0, 4.0]);
        assert_eq!(c.spmm(&x).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn spmm_transpose_matches_dense() {
        let c = sample();
        let x = Matrix::from_fn(3, 5, |r, k| (r * 5 + k) as f32 * 0.21 - 0.7);
        let got = c.spmm_transpose(&x);
        let expect = c.to_dense().transpose().matmul(&x);
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    #[should_panic(expected = "spmm")]
    fn spmm_rejects_mismatched_shapes() {
        let _ = sample().spmm(&Matrix::zeros(2, 2));
    }

    fn sample_op() -> SparseOp {
        let u = vec![0.5, 1.0, 2.0];
        let v = vec![1.0, -1.0, 0.25];
        SparseOp::new(sample(), Some((-0.3, u, v)))
    }

    #[test]
    fn op_apply_matches_dense_reference() {
        let op = sample_op();
        let x = Matrix::from_fn(3, 4, |r, k| (r as f32 - 1.0) * 0.5 + k as f32 * 0.1);
        let got = op.apply(&x);
        let expect = op.to_dense().matmul(&x);
        assert_matrix_eq(&got, &expect, 1e-5);
    }

    #[test]
    fn op_apply_transpose_matches_dense_reference() {
        let op = sample_op();
        let x = Matrix::from_fn(3, 4, |r, k| (r as f32 + 0.3) * 0.4 - k as f32 * 0.2);
        let got = op.apply_transpose(&x);
        let expect = op.to_dense().transpose().matmul(&x);
        assert_matrix_eq(&got, &expect, 1e-5);
    }

    #[test]
    fn op_without_rank1_is_bit_identical_to_spmm() {
        let op = SparseOp::from_csr(sample());
        let x = Matrix::from_fn(3, 3, |r, k| (r * 3 + k) as f32 - 4.0);
        assert_eq!(op.apply(&x).as_slice(), sample().spmm(&x).as_slice());
        assert_eq!(
            op.apply_transpose(&x).as_slice(),
            sample().spmm_transpose(&x).as_slice()
        );
    }

    #[test]
    fn op_accessors_round_trip() {
        let op = sample_op();
        let (coeff, u, v) = op.rank1().expect("rank1 present");
        let rebuilt = SparseOp::new(op.csr().clone(), Some((coeff, u.to_vec(), v.to_vec())));
        assert_eq!(rebuilt, op);
        assert_eq!(op.dim(), 3);
        assert!(op.approx_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "u length")]
    fn op_rejects_mismatched_rank1() {
        let _ = SparseOp::new(sample(), Some((1.0, vec![1.0], vec![1.0, 2.0, 3.0])));
    }
}
