//! The reverse-mode differentiation tape.

use std::sync::Arc;

use cascn_tensor::{Csr, Matrix, SparseOp};

use crate::kernel;
use crate::params::{ParamId, ParamStore};

/// Handle to a value recorded on a [`Tape`].
///
/// `Var`s are only meaningful for the tape that created them; using one with
/// another tape is a logic error (caught by shape asserts in practice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// One recorded operation. Inputs are indices of earlier nodes, so the tape
/// is a DAG in topological order by construction.
#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Hadamard(Var, Var),
    AddBias(Var, Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Scale(Var, f32),
    /// Broadcast-multiplication of a `1x1` scalar variable with a matrix.
    ScalarMul(Var, Var),
    SumAll(Var),
    SumRows(Var),
    MeanRows(Var),
    Sqr(Var),
    Gather(Var, Vec<usize>),
    ConcatRows(Vec<Var>),
    ConcatCols(Var, Var),
    SoftmaxCol(Var),
    LogSoftmaxRow(Var),
    SliceRows(Var, usize),
    SliceCols(Var, usize),
    PickEntry(Var, usize, usize),
    /// Application of a fixed (non-differentiable) sparse operator to a
    /// feature block: `Y = M·X`. The `Arc` keeps the tape cheap to record —
    /// the Chebyshev recurrence applies the same operator K times per gate.
    SparseApply(Arc<SparseOp>, Var),
    /// A fixed (non-differentiable) rectangular sparse matrix times a
    /// feature block: `Y = A·X`. Feeds the sparse snapshot signals into the
    /// input convolution without a dense `n × d_in` block.
    Spmm(Arc<Csr>, Var),
}

struct Node {
    op: Op,
    value: Matrix,
    requires_grad: bool,
}

/// A define-by-run computation graph.
///
/// All building methods panic on shape violations — the same contract as the
/// underlying [`Matrix`] operations — because a malformed graph is a bug in
/// the model code, not a runtime condition.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
    bindings: Vec<(ParamId, Var)>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: Matrix, requires_grad: bool) -> Var {
        let v = Var(self.nodes.len());
        self.nodes.push(Node {
            op,
            value,
            requires_grad,
        });
        v
    }

    fn requires(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Every recorded value, in recording order (for inspecting what a
    /// model puts on the tape).
    pub fn values(&self) -> impl Iterator<Item = &Matrix> {
        self.nodes.iter().map(|node| &node.value)
    }

    /// The forward value of a `1x1` variable as a scalar.
    ///
    /// # Panics
    /// Panics if `v` is not `1x1`.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() on non-1x1 value");
        m[(0, 0)]
    }

    // ---- graph construction -------------------------------------------------

    /// Records a differentiable leaf (used by tests; models should prefer
    /// [`Tape::param`]).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value, true)
    }

    /// Records a non-differentiable input.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value, false)
    }

    /// Binds a [`ParamStore`] parameter into this graph. Its gradient will be
    /// routed back by [`Tape::accumulate_param_grads`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.push(Op::Leaf, store.value(id).clone(), true);
        self.bindings.push((id, v));
        v
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(Op::MatMul(a, b), value, rg)
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(Op::Add(a, b), value, rg)
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(Op::Sub(a, b), value, rg)
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).hadamard(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(Op::Hadamard(a, b), value, rg)
    }

    /// Adds a `1 x c` bias row to every row of `a` (`m x c`).
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let value = self.value(a).add_row_broadcast(self.value(bias));
        let rg = self.requires(a) || self.requires(bias);
        self.push(Op::AddBias(a, bias), value, rg)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = kernel::sigmoid(self.value(a));
        let rg = self.requires(a);
        self.push(Op::Sigmoid(a), value, rg)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = kernel::tanh(self.value(a));
        let rg = self.requires(a);
        self.push(Op::Tanh(a), value, rg)
    }

    /// Elementwise rectifier.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = kernel::relu(self.value(a));
        let rg = self.requires(a);
        self.push(Op::Relu(a), value, rg)
    }

    /// Multiplies by a compile-time-known constant.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        let rg = self.requires(a);
        self.push(Op::Scale(a, s), value, rg)
    }

    /// Broadcast-multiplies matrix `a` by a learned `1x1` scalar `s`.
    ///
    /// # Panics
    /// Panics if `s` is not `1x1`.
    pub fn scalar_mul(&mut self, s: Var, a: Var) -> Var {
        let value = kernel::scalar_mul(self.value(s), self.value(a));
        let rg = self.requires(a) || self.requires(s);
        self.push(Op::ScalarMul(s, a), value, rg)
    }

    /// Sums all entries into a `1x1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        let rg = self.requires(a);
        self.push(Op::SumAll(a), value, rg)
    }

    /// Column-wise sum: `m x n` → `1 x n`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).sum_rows();
        let rg = self.requires(a);
        self.push(Op::SumRows(a), value, rg)
    }

    /// Column-wise mean: `m x n` → `1 x n`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let m = self.value(a).rows().max(1) as f32;
        let value = self.value(a).sum_rows().scale(1.0 / m);
        let rg = self.requires(a);
        self.push(Op::MeanRows(a), value, rg)
    }

    /// Elementwise square.
    pub fn sqr(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x * x);
        let rg = self.requires(a);
        self.push(Op::Sqr(a), value, rg)
    }

    /// Embedding lookup: stacks `table[rows[i], :]` into an `rows.len() x d`
    /// matrix. Gradients scatter-add back into the table.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather(&mut self, table: Var, rows: Vec<usize>) -> Var {
        let value = kernel::gather(self.value(table), &rows);
        let rg = self.requires(table);
        self.push(Op::Gather(table, rows), value, rg)
    }

    /// Vertically stacks variables that share a column count.
    ///
    /// # Panics
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let values: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = kernel::concat_rows(&values);
        let rg = parts.iter().any(|&p| self.requires(p));
        self.push(Op::ConcatRows(parts.to_vec()), value, rg)
    }

    /// Horizontally concatenates two variables with equal row counts.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let value = kernel::concat_cols(self.value(a), self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(Op::ConcatCols(a, b), value, rg)
    }

    /// Softmax over an `n x 1` column vector.
    ///
    /// # Panics
    /// Panics if `a` is not a column vector.
    pub fn softmax_col(&mut self, a: Var) -> Var {
        let value = kernel::softmax_col(self.value(a));
        let rg = self.requires(a);
        self.push(Op::SoftmaxCol(a), value, rg)
    }

    /// Log-softmax over each row of an `m x n` matrix, computed with the
    /// usual max-subtracted log-sum-exp so a large additive mask (the
    /// `-1e9` infected-user logits of the next-user head) stays finite:
    /// masked entries come out ≈ `-1e9` and their `exp` underflows to an
    /// exact `0.0` probability.
    pub fn log_softmax_row(&mut self, a: Var) -> Var {
        let value = kernel::log_softmax_row(self.value(a));
        let rg = self.requires(a);
        self.push(Op::LogSoftmaxRow(a), value, rg)
    }

    /// Extracts `len` consecutive rows starting at `start`.
    pub fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        let v = self.value(a);
        assert!(
            start + len <= v.rows(),
            "slice_rows: {start}+{len} exceeds {} rows",
            v.rows()
        );
        let mut value = Matrix::zeros(len, v.cols());
        for r in 0..len {
            value.row_mut(r).copy_from_slice(v.row(start + r));
        }
        let rg = self.requires(a);
        self.push(Op::SliceRows(a, start), value, rg)
    }

    /// Extracts `len` consecutive columns starting at `start` (the per-gate
    /// split of a column-concatenated pre-activation).
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let value = kernel::slice_cols(self.value(a), start, len);
        let rg = self.requires(a);
        self.push(Op::SliceCols(a, start), value, rg)
    }

    /// Extracts the single entry at `(r, c)` as a `1x1` variable; the
    /// backward pass scatters the incoming gradient back into that entry.
    pub fn pick(&mut self, a: Var, r: usize, c: usize) -> Var {
        let value = kernel::pick(self.value(a), r, c);
        let rg = self.requires(a);
        self.push(Op::PickEntry(a, r, c), value, rg)
    }

    /// Applies a fixed sparse operator to `x`: `y = op·x`.
    ///
    /// The operator itself is a constant of the graph (the scaled cascade
    /// Laplacian is data, not a parameter); gradients flow through `x` only,
    /// with `∂x = opᵀ·∂y` via [`SparseOp::apply_transpose`].
    ///
    /// # Panics
    /// Panics if `x.rows() != op.dim()`.
    pub fn sparse_apply(&mut self, op: Arc<SparseOp>, x: Var) -> Var {
        let value = op.apply(self.value(x));
        let rg = self.requires(x);
        self.push(Op::SparseApply(op, x), value, rg)
    }

    /// Multiplies a fixed rectangular sparse matrix into `x`: `y = a·x`.
    ///
    /// Like [`Tape::sparse_apply`], `a` is data (a cascade snapshot), not a
    /// parameter: gradients flow through `x` only, with `∂x = aᵀ·∂y` via
    /// [`Csr::spmm_transpose`].
    ///
    /// # Panics
    /// Panics if `x.rows() != a.cols()`.
    pub fn spmm(&mut self, a: Arc<Csr>, x: Var) -> Var {
        let value = a.spmm(self.value(x));
        let rg = self.requires(x);
        self.push(Op::Spmm(a, x), value, rg)
    }

    // ---- composite helpers --------------------------------------------------

    /// `x · w + bias` — the ubiquitous affine layer.
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_bias(xw, bias)
    }

    /// Squared error between a `1x1` prediction and a scalar target:
    /// `(pred - target)²` as a `1x1` variable.
    pub fn squared_error(&mut self, pred: Var, target: f32) -> Var {
        let t = self.constant(Matrix::from_vec(1, 1, vec![target]));
        let d = self.sub(pred, t);
        self.sqr(d)
    }

    // ---- backward -----------------------------------------------------------

    /// Runs reverse-mode differentiation from the `1x1` variable `loss`.
    ///
    /// Gradients of leaves (parameters and [`Tape::leaf`] inputs) are
    /// retained and can be read with [`Tape::grad`] or routed to parameters
    /// with [`Tape::accumulate_param_grads`]. An intermediate node's gradient
    /// is freed as soon as it has been propagated to its inputs, so backward
    /// holds only the gradients still in flight.
    ///
    /// # Panics
    /// Panics if `loss` is not `1x1`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a 1x1 scalar"
        );
        self.grads = (0..self.nodes.len()).map(|_| None).collect();
        self.grads[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            if matches!(self.nodes[i].op, Op::Leaf) {
                continue;
            }
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            self.apply_backward(&op, i, g);
        }
    }

    fn add_grad(&mut self, v: Var, g: Matrix) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.grads[v.0] {
            Some(existing) => existing.axpy(1.0, &g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Routes the gradient `g` of `node` to the node's inputs, handing `g`
    /// itself to the last input that needs an unchanged or in-place-scaled
    /// copy.
    fn apply_backward(&mut self, op: &Op, node: usize, mut g: Matrix) {
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                if self.requires(*a) {
                    let da = g.matmul_a_bt(self.value(*b));
                    self.add_grad(*a, da);
                }
                if self.requires(*b) {
                    let db = self.value(*a).matmul_at_b(&g);
                    self.add_grad(*b, db);
                }
            }
            Op::Add(a, b) => {
                self.add_grad(*a, g.clone());
                self.add_grad(*b, g);
            }
            Op::Sub(a, b) => {
                self.add_grad(*a, g.clone());
                g.scale_in_place(-1.0);
                self.add_grad(*b, g);
            }
            Op::Hadamard(a, b) => {
                if self.requires(*a) {
                    let da = g.hadamard(self.value(*b));
                    self.add_grad(*a, da);
                }
                if self.requires(*b) {
                    let db = g.hadamard(self.value(*a));
                    self.add_grad(*b, db);
                }
            }
            Op::AddBias(a, bias) => {
                if self.requires(*bias) {
                    self.add_grad(*bias, g.sum_rows());
                }
                self.add_grad(*a, g);
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[node].value;
                for (gv, &s) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *gv = *gv * s * (1.0 - s);
                }
                self.add_grad(*a, g);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[node].value;
                for (gv, &t) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *gv *= 1.0 - t * t;
                }
                self.add_grad(*a, g);
            }
            Op::Relu(a) => {
                let x = self.value(*a);
                for (gv, &xv) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *gv = if xv > 0.0 { *gv } else { 0.0 };
                }
                self.add_grad(*a, g);
            }
            Op::Scale(a, s) => {
                g.scale_in_place(*s);
                self.add_grad(*a, g);
            }
            Op::ScalarMul(s, a) => {
                let sv = self.value(*s)[(0, 0)];
                if self.requires(*a) {
                    self.add_grad(*a, g.scale(sv));
                }
                if self.requires(*s) {
                    let ds = g.hadamard(self.value(*a)).sum();
                    self.add_grad(*s, Matrix::from_vec(1, 1, vec![ds]));
                }
            }
            Op::SumAll(a) => {
                let v = self.value(*a);
                let gv = g[(0, 0)];
                self.add_grad(*a, Matrix::full(v.rows(), v.cols(), gv));
            }
            Op::SumRows(a) => {
                let v = self.value(*a);
                let mut da = Matrix::zeros(v.rows(), v.cols());
                for r in 0..v.rows() {
                    da.row_mut(r).copy_from_slice(g.row(0));
                }
                self.add_grad(*a, da);
            }
            Op::MeanRows(a) => {
                let v = self.value(*a);
                let m = v.rows().max(1) as f32;
                let mut da = Matrix::zeros(v.rows(), v.cols());
                for r in 0..v.rows() {
                    for (d, &gv) in da.row_mut(r).iter_mut().zip(g.row(0)) {
                        *d = gv / m;
                    }
                }
                self.add_grad(*a, da);
            }
            Op::Sqr(a) => {
                let x = self.value(*a);
                for (gv, &xv) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
                    *gv *= 2.0 * xv;
                }
                self.add_grad(*a, g);
            }
            Op::Gather(table, rows) => {
                if self.requires(*table) {
                    let t = self.value(*table);
                    let mut dt = Matrix::zeros(t.rows(), t.cols());
                    for (i, &r) in rows.iter().enumerate() {
                        for (d, &gv) in dt.row_mut(r).iter_mut().zip(g.row(i)) {
                            *d += gv;
                        }
                    }
                    self.add_grad(*table, dt);
                }
            }
            Op::ConcatRows(parts) => {
                let mut at = 0;
                for &p in parts {
                    let rows = self.value(p).rows();
                    if self.requires(p) {
                        let mut dp = Matrix::zeros(rows, g.cols());
                        for r in 0..rows {
                            dp.row_mut(r).copy_from_slice(g.row(at + r));
                        }
                        self.add_grad(p, dp);
                    }
                    at += rows;
                }
            }
            Op::ConcatCols(a, b) => {
                let ca = self.value(*a).cols();
                if self.requires(*a) {
                    let rows = self.value(*a).rows();
                    let mut da = Matrix::zeros(rows, ca);
                    for r in 0..rows {
                        da.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                    }
                    self.add_grad(*a, da);
                }
                if self.requires(*b) {
                    let rows = self.value(*b).rows();
                    let cb = self.value(*b).cols();
                    let mut db = Matrix::zeros(rows, cb);
                    for r in 0..rows {
                        db.row_mut(r).copy_from_slice(&g.row(r)[ca..ca + cb]);
                    }
                    self.add_grad(*b, db);
                }
            }
            Op::SoftmaxCol(a) => {
                let y = &self.nodes[node].value;
                // dL/dx = y ⊙ (g - (gᵀ y))
                let gy: f32 = g
                    .as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .map(|(&gv, &yv)| gv * yv)
                    .sum();
                let da = Matrix::from_vec(
                    y.rows(),
                    1,
                    y.as_slice()
                        .iter()
                        .zip(g.as_slice())
                        .map(|(&yv, &gv)| yv * (gv - gy))
                        .collect(),
                );
                self.add_grad(*a, da);
            }
            Op::LogSoftmaxRow(a) => {
                // Per row: dx = g − softmax(x) · Σ g, with softmax(x)
                // recovered as exp of the stored log-probabilities.
                let y = &self.nodes[node].value;
                let mut da = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let gs: f32 = g.row(r).iter().sum();
                    for ((d, &lp), &gv) in
                        da.row_mut(r).iter_mut().zip(y.row(r)).zip(g.row(r))
                    {
                        *d = gv - lp.exp() * gs;
                    }
                }
                self.add_grad(*a, da);
            }
            Op::PickEntry(a, r, c) => {
                if self.requires(*a) {
                    let v = self.value(*a);
                    let mut da = Matrix::zeros(v.rows(), v.cols());
                    da[(*r, *c)] = g[(0, 0)];
                    self.add_grad(*a, da);
                }
            }
            Op::SparseApply(op, x) => {
                if self.requires(*x) {
                    let dx = op.apply_transpose(&g);
                    self.add_grad(*x, dx);
                }
            }
            Op::Spmm(a, x) => {
                if self.requires(*x) {
                    let dx = a.spmm_transpose(&g);
                    self.add_grad(*x, dx);
                }
            }
            Op::SliceCols(a, start) => {
                if self.requires(*a) {
                    let v = self.value(*a);
                    let mut da = Matrix::zeros(v.rows(), v.cols());
                    for r in 0..g.rows() {
                        da.row_mut(r)[*start..*start + g.cols()].copy_from_slice(g.row(r));
                    }
                    self.add_grad(*a, da);
                }
            }
            Op::SliceRows(a, start) => {
                if self.requires(*a) {
                    let v = self.value(*a);
                    let mut da = Matrix::zeros(v.rows(), v.cols());
                    for r in 0..g.rows() {
                        da.row_mut(start + r).copy_from_slice(g.row(r));
                    }
                    self.add_grad(*a, da);
                }
            }
        }
    }

    /// The gradient of `v` computed by the last [`Tape::backward`] call, if
    /// any reached it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Adds the gradients of all [`Tape::param`]-bound variables into the
    /// store. Call after [`Tape::backward`].
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for &(id, var) in &self.bindings {
            if let Some(g) = self.grad(var) {
                store.accumulate_grad(id, g);
            }
        }
    }

    /// Extracts the gradients of all [`Tape::param`]-bound variables in
    /// binding order, without touching a store. Call after
    /// [`Tape::backward`].
    ///
    /// `store.merge_grads(&tape.param_grads())` is bit-identical to
    /// `tape.accumulate_param_grads(&mut store)` — the extracted form exists
    /// so worker threads can run backward on thread-local tapes and ship the
    /// result back for a deterministic, example-ordered reduction.
    pub fn param_grads(&self) -> crate::ParamGrads {
        let mut entries = Vec::with_capacity(self.bindings.len());
        for &(id, var) in &self.bindings {
            if let Some(g) = self.grad(var) {
                entries.push((id, g.clone()));
            }
        }
        crate::ParamGrads { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_tensor::assert_matrix_eq;

    #[test]
    fn matmul_backward_matches_manual() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = t.matmul(a, b);
        let loss = t.sum_all(c);
        t.backward(loss);
        let da = t.grad(a).unwrap();
        let db = t.grad(b).unwrap();
        assert_matrix_eq(da, &Matrix::from_rows(&[&[11.0, 15.0], &[11.0, 15.0]]), 1e-5);
        assert_matrix_eq(db, &Matrix::from_rows(&[&[4.0, 4.0], &[6.0, 6.0]]), 1e-5);
    }

    #[test]
    fn matmul_backward_equals_explicit_transpose_products_bit_for_bit() {
        // loss = sum(A·B ⊙ W), so ∂(A·B) = W, ∂A = W·Bᵀ and ∂B = Aᵀ·W. The
        // shapes leave remainders in every tile dimension.
        let value = |rows: usize, cols: usize, seed: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * 37 + c * 11 + seed) % 19) as f32 * 0.173 - 1.4
            })
        };
        let (a_val, b_val, w_val) = (value(7, 13, 1), value(13, 11, 2), value(7, 11, 3));
        let mut t = Tape::new();
        let a = t.leaf(a_val.clone());
        let b = t.leaf(b_val.clone());
        let w = t.constant(w_val.clone());
        let c = t.matmul(a, b);
        let weighted = t.hadamard(c, w);
        let loss = t.sum_all(weighted);
        t.backward(loss);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(t.grad(a).unwrap()), bits(&w_val.matmul(&b_val.transpose())));
        assert_eq!(bits(t.grad(b).unwrap()), bits(&a_val.transpose().matmul(&w_val)));
    }

    #[test]
    fn grad_skips_constants() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::eye(2));
        let c = t.constant(Matrix::eye(2));
        let y = t.matmul(c, a);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert!(t.grad(c).is_none());
        assert!(t.grad(a).is_some());
    }

    #[test]
    fn fan_out_gradients_accumulate() {
        // loss = sum(x + x) → dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(2, 2, 3.0));
        let y = t.add(x, x);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_matrix_eq(t.grad(x).unwrap(), &Matrix::full(2, 2, 2.0), 1e-6);
    }

    #[test]
    fn sigmoid_gradient_at_zero_is_quarter() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(1, 1));
        let s = t.sigmoid(x);
        t.backward(s);
        assert!((t.grad(x).unwrap()[(0, 0)] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn scalar_mul_routes_grads_to_both() {
        // loss = sum(s * A), A = [[1,2],[3,4]]; ds = sum(A) = 10, dA = s = 2
        let mut t = Tape::new();
        let s = t.leaf(Matrix::full(1, 1, 2.0));
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let y = t.scalar_mul(s, a);
        let loss = t.sum_all(y);
        t.backward(loss);
        assert_eq!(t.grad(s).unwrap()[(0, 0)], 10.0);
        assert_matrix_eq(t.grad(a).unwrap(), &Matrix::full(2, 2, 2.0), 1e-6);
    }

    #[test]
    fn gather_scatter_adds_duplicate_rows() {
        let mut t = Tape::new();
        let table = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let picked = t.gather(table, vec![1, 1, 2]);
        let loss = t.sum_all(picked);
        t.backward(loss);
        let g = t.grad(table).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 2.0, 1.0]);
    }

    #[test]
    fn softmax_col_sums_to_one_and_grads_sum_to_zero() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::col_vector(&[1.0, 2.0, 3.0]));
        let s = t.softmax_col(x);
        assert!((t.value(s).sum() - 1.0).abs() < 1e-6);
        // loss = first component of softmax
        let first = t.slice_rows(s, 0, 1);
        t.backward(first);
        let g = t.grad(x).unwrap();
        assert!(g.sum().abs() < 1e-6, "softmax grads must sum to ~0, got {}", g.sum());
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::full(2, 1, 1.0));
        let b = t.leaf(Matrix::full(2, 2, 1.0));
        let c = t.concat_cols(a, b);
        assert_eq!(t.value(c).shape(), (2, 3));
        let loss = t.sum_all(c);
        t.backward(loss);
        assert_eq!(t.grad(a).unwrap().shape(), (2, 1));
        assert_eq!(t.grad(b).unwrap().shape(), (2, 2));
    }

    #[test]
    fn concat_rows_stacks_and_splits() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::row_vector(&[1.0, 2.0]));
        let b = t.leaf(Matrix::row_vector(&[3.0, 4.0]));
        let c = t.concat_rows(&[a, b]);
        assert_eq!(t.value(c).shape(), (2, 2));
        let sliced = t.slice_rows(c, 1, 1);
        let loss = t.sum_all(sliced);
        t.backward(loss);
        assert!(t.grad(a).is_none() || t.grad(a).unwrap().sum() == 0.0);
        assert_eq!(t.grad(b).unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn squared_error_gradient() {
        // loss = (x - 3)², x = 5 → dloss/dx = 2(5-3) = 4
        let mut t = Tape::new();
        let x = t.leaf(Matrix::full(1, 1, 5.0));
        let loss = t.squared_error(x, 3.0);
        assert_eq!(t.scalar(loss), 4.0);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap()[(0, 0)], 4.0);
    }

    #[test]
    fn param_binding_accumulates_into_store() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 2.0));
        for _ in 0..2 {
            let mut t = Tape::new();
            let wv = t.param(&store, w);
            let loss = t.sqr(wv);
            t.backward(loss);
            t.accumulate_param_grads(&mut store);
        }
        // d(w²)/dw = 2w = 4, accumulated twice = 8
        assert_eq!(store.grad(w)[(0, 0)], 8.0);
    }

    #[test]
    fn sparse_apply_matches_dense_matmul_forward_and_backward() {
        use cascn_tensor::Csr;
        let lap = Matrix::from_rows(&[&[1.0, -0.5, 0.0], &[0.0, 1.0, -0.5], &[-1.0, 0.0, 1.0]]);
        let op = Arc::new(SparseOp::from_csr(Csr::from_dense(&lap)));
        let x0 = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.5 - 1.0);

        let mut ts = Tape::new();
        let xs = ts.leaf(x0.clone());
        let ys = ts.sparse_apply(op, xs);
        let ls = ts.sum_all(ys);
        ts.backward(ls);

        let mut td = Tape::new();
        let lapv = td.constant(lap);
        let xd = td.leaf(x0);
        let yd = td.matmul(lapv, xd);
        let ld = td.sum_all(yd);
        td.backward(ld);

        assert_eq!(ts.value(ys).as_slice(), td.value(yd).as_slice(), "forward diverged");
        assert_matrix_eq(ts.grad(xs).unwrap(), td.grad(xd).unwrap(), 1e-6);
    }

    #[test]
    fn spmm_matches_dense_matmul_forward_and_backward() {
        // A rectangular 3 x 4 signal with an empty row.
        let a = Csr::from_triplets(3, 4, [(0, 0, 1.0), (0, 3, -2.0), (2, 1, 0.5)]);
        let w0 = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32 * 0.25 - 0.5);

        let mut ts = Tape::new();
        let ws = ts.leaf(w0.clone());
        let ys = ts.spmm(Arc::new(a.clone()), ws);
        let sq = ts.sqr(ys);
        let ls = ts.sum_all(sq);
        ts.backward(ls);

        let mut td = Tape::new();
        let av = td.constant(a.to_dense());
        let wd = td.leaf(w0);
        let yd = td.matmul(av, wd);
        let sq = td.sqr(yd);
        let ld = td.sum_all(sq);
        td.backward(ld);

        assert_eq!(ts.value(ys).shape(), (3, 2));
        assert_eq!(
            ts.value(ys).as_slice(),
            td.value(yd).as_slice(),
            "forward diverged"
        );
        assert_matrix_eq(ts.grad(ws).unwrap(), td.grad(wd).unwrap(), 1e-6);
    }

    #[test]
    fn slice_cols_extracts_and_scatters() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        let s = t.slice_cols(x, 1, 2);
        assert_eq!(t.value(s).as_slice(), &[2.0, 3.0, 5.0, 6.0]);
        let loss = t.sum_all(s);
        t.backward(loss);
        assert_eq!(
            t.grad(x).unwrap().as_slice(),
            &[0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn log_softmax_row_matches_softmax_and_masks_underflow_to_zero() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0, -1e9, 3.0]]));
        let lp = t.log_softmax_row(x);
        let probs: Vec<f32> = t.value(lp).as_slice().iter().map(|&l| l.exp()).collect();
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(probs[2], 0.0, "masked logit must underflow to exact zero");
        assert!(probs[3] > probs[1] && probs[1] > probs[0]);
    }

    #[test]
    fn log_softmax_row_backward_is_softmax_minus_onehot() {
        // loss = −log p[target] → d logits = softmax − onehot(target).
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.5, -0.3, 1.2]]));
        let lp = t.log_softmax_row(x);
        let picked = t.pick(lp, 0, 2);
        let loss = t.scale(picked, -1.0);
        t.backward(loss);
        let probs: Vec<f32> = t.value(lp).as_slice().iter().map(|&l| l.exp()).collect();
        let g = t.grad(x).unwrap();
        for (i, (&gv, &p)) in g.as_slice().iter().zip(&probs).enumerate() {
            let expect = if i == 2 { p - 1.0 } else { p };
            assert!((gv - expect).abs() < 1e-6, "entry {i}: {gv} vs {expect}");
        }
    }

    #[test]
    fn log_softmax_row_rows_are_independent() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[5.0, 5.0]]));
        let lp = t.log_softmax_row(x);
        let picked = t.pick(lp, 1, 0);
        t.backward(picked);
        let g = t.grad(x).unwrap();
        assert_eq!(&g.row(0), &[0.0, 0.0], "row 0 gets no gradient from row 1's loss");
        assert!(g.row(1).iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    fn pick_extracts_and_scatters() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let p = t.pick(x, 1, 0);
        assert_eq!(t.scalar(p), 3.0);
        let loss = t.scale(p, 2.0);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be a 1x1")]
    fn backward_rejects_non_scalar_loss() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2));
        t.backward(x);
    }
}
