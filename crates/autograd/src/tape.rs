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
    /// `Σ_k T_k(Δ̃)·(X·W_k)` ([`Tape::cheb_input`]); keeps only its output.
    ChebInput {
        op: Arc<SparseOp>,
        x: Arc<Csr>,
        w: Vec<Var>,
    },
    /// `Σ_k (T_k·h)·U_k` ([`Tape::cheb_filter`]), keeping the stack
    /// `[T_1·h, …, T_K·h]` its filter gradients read.
    ChebFilter {
        op: Arc<SparseOp>,
        h: Var,
        u: Vec<Var>,
        stack: Vec<Matrix>,
    },
    /// The LSTM memory update ([`Tape::lstm_memory`]), keeping `[i, f, g]`.
    LstmMemory {
        pre: Var,
        c: Var,
        peep_i: Var,
        peep_f: Var,
        gates: Vec<Matrix>,
    },
    /// The LSTM output ([`Tape::lstm_hidden`]), keeping `[o, tanh(c')]`.
    LstmHidden {
        pre: Var,
        c_next: Var,
        peep_o: Var,
        saved: Vec<Matrix>,
    },
}

impl Op {
    /// The matrices an op keeps for its backward beside its output.
    fn saved(&self) -> &[Matrix] {
        match self {
            Op::ChebFilter { stack, .. } => stack,
            Op::LstmMemory { gates, .. } => gates,
            Op::LstmHidden { saved, .. } => saved,
            _ => &[],
        }
    }
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
    bindings: Vec<Binding>,
}

/// A parameter bound into the tape: columns `cols` of the leaf `var` hold
/// its value (all of them for [`Tape::param`], one block of a joined leaf
/// for [`Tape::param_cols`]).
struct Binding {
    id: ParamId,
    var: Var,
    cols: std::ops::Range<usize>,
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

    /// Bytes of matrix data the tape holds: every recorded value plus the
    /// activations fused ops keep for their backward.
    pub fn bytes(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|node| std::iter::once(&node.value).chain(node.op.saved()))
            .map(|m| m.len() * std::mem::size_of::<f32>())
            .sum()
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
        self.param_cols(store, &[id])
    }

    /// Binds parameters that share a row count as one leaf, joined
    /// column-wise in order (a gate bank `[W^{g_1} | W^{g_2} | …]`) with one
    /// copy. [`Tape::param_grads`] hands each parameter its own column
    /// block of the leaf's gradient.
    ///
    /// # Panics
    /// Panics if `ids` is empty or the row counts differ.
    pub fn param_cols(&mut self, store: &ParamStore, ids: &[ParamId]) -> Var {
        let values: Vec<&Matrix> = ids.iter().map(|&id| store.value(id)).collect();
        let var = self.push(Op::Leaf, kernel::concat_cols(&values), true);
        let mut at = 0;
        for (&id, value) in ids.iter().zip(&values) {
            let cols = at..at + value.cols();
            at = cols.end;
            self.bindings.push(Binding { id, var, cols });
        }
        var
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
        let value = kernel::mean_rows(self.value(a));
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
        let value = kernel::concat_cols(&[self.value(a), self.value(b)]);
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
        let value = kernel::slice_rows(self.value(a), start, len);
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

    // ---- fused recurrent ops ------------------------------------------------
    //
    // Each replaces an op-by-op subgraph of a Chebyshev recurrent cell with
    // one node. The forward is the subgraph's arithmetic in its order
    // (`kernel`), and the backward hands each input the gradient
    // contributions the subgraph's nodes would, in the order the tape would
    // add them, so parameter gradients keep their bits.

    /// `Σ_k T_k(Δ̃)·(X·W_k)`: the input convolution of a fixed sparse
    /// signal `x` (`n × d_in`) with `K+1` filters `w` (`d_in × d_out`), by
    /// Clenshaw's recurrence over `op = Δ̃` (see `ChebOperands::input_conv`
    /// in `cascn-nn`). Only the output is kept: the backward runs the
    /// transposed recurrence and adds `Xᵀ·∂y_k` into the rows of `∂W_k`
    /// that `x` touches.
    ///
    /// # Panics
    /// Panics if `w` is empty or shapes disagree.
    pub fn cheb_input(&mut self, op: Arc<SparseOp>, x: Arc<Csr>, w: &[Var]) -> Var {
        let filters: Vec<&Matrix> = w.iter().map(|&v| self.value(v)).collect();
        let value = kernel::cheb_input(&op, &x, &filters);
        let rg = w.iter().any(|&v| self.requires(v));
        self.push(Op::ChebInput { op, x, w: w.to_vec() }, value, rg)
    }

    /// `Σ_k (T_k(Δ̃)·h)·U_k`: the recurrent convolution of a dense signal `h`
    /// (`n × d_h`) with `K+1` filters `u` (`d_h × d_out`), the stack built by
    /// `T_k·h = 2·Δ̃·(T_{k-1}·h) − T_{k-2}·h` and each product added into one
    /// accumulator. The stack `T_1·h … T_K·h` is kept for the backward.
    ///
    /// # Panics
    /// Panics if `u` is empty or shapes disagree.
    pub fn cheb_filter(&mut self, op: Arc<SparseOp>, h: Var, u: &[Var]) -> Var {
        let filters: Vec<&Matrix> = u.iter().map(|&v| self.value(v)).collect();
        let (value, stack) = kernel::cheb_filter(&op, self.value(h), &filters);
        let rg = self.requires(h) || u.iter().any(|&v| self.requires(v));
        self.push(Op::ChebFilter { op, h, u: u.to_vec(), stack }, value, rg)
    }

    /// The peephole LSTM memory update (Eq. 12–13): from the joined
    /// pre-activation `pre = [i | f | o | g]` (`n × 4d`), the memory `c` and
    /// the peepholes tiled over the `n` rows (`n × d`), returns
    /// `c' = σ(pre_f + V_f ⊙ c) ⊙ c + σ(pre_i + V_i ⊙ c) ⊙ tanh(pre_g)`.
    pub fn lstm_memory(&mut self, pre: Var, c: Var, peep_i: Var, peep_f: Var) -> Var {
        let peeps = [self.value(peep_i), self.value(peep_f)];
        let (value, gates) = kernel::lstm_memory(self.value(pre), self.value(c), peeps, true);
        let rg = [pre, c, peep_i, peep_f].iter().any(|&v| self.requires(v));
        self.push(Op::LstmMemory { pre, c, peep_i, peep_f, gates }, value, rg)
    }

    /// The peephole LSTM output (Eq. 14): `h' = σ(pre_o + V_o ⊙ c') ⊙
    /// tanh(c')` for the joined pre-activation of [`Tape::lstm_memory`],
    /// its result `c'` and the tiled output peephole.
    pub fn lstm_hidden(&mut self, pre: Var, c_next: Var, peep_o: Var) -> Var {
        let (value, saved) =
            kernel::lstm_hidden(self.value(pre), self.value(c_next), self.value(peep_o), true);
        let rg = [pre, c_next, peep_o].iter().any(|&v| self.requires(v));
        self.push(Op::LstmHidden { pre, c_next, peep_o, saved }, value, rg)
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
            // Moved out, not cloned: fused ops carry filter lists and saved
            // activations. The node is done once its gradient is routed.
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
            self.apply_backward(&op, i, g);
            self.nodes[i].op = op;
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

    /// The gradient slot of `v`, created as zeros if nothing reached it yet.
    fn grad_slot(&mut self, v: Var) -> &mut Matrix {
        let (rows, cols) = self.nodes[v.0].value.shape();
        self.grads[v.0].get_or_insert_with(|| Matrix::zeros(rows, cols))
    }

    /// Adds `g` into columns `start..start + g.cols()` of `v`'s gradient:
    /// what a `slice_cols` node adds, without its zero-padded copy.
    fn add_grad_cols(&mut self, v: Var, start: usize, g: &Matrix) {
        if !self.requires(v) {
            return;
        }
        let slot = self.grad_slot(v);
        for r in 0..g.rows() {
            let row = &mut slot.row_mut(r)[start..start + g.cols()];
            for (o, &x) in row.iter_mut().zip(g.row(r)) {
                *o += x;
            }
        }
    }

    /// Adds `xᵀ·g` into `w`'s gradient, as an `Spmm(x, w)` node's backward
    /// would, but only into the rows of `w` that a column of `x` touches.
    /// Each touched row gets `+0.0 + Σ v·g[r]` summed in `x`'s row order, as
    /// [`Csr::spmm_transpose`] sums it. An untouched row is left as is
    /// where the full product would add `+0.0` to it, which changes nothing
    /// unless the row holds a `-0.0`, and a sum from `+0.0` never does.
    fn add_spmm_transpose_grad(&mut self, w: Var, x: &Csr, g: &Matrix) {
        if !self.requires(w) {
            return;
        }
        let d = g.cols();
        let mut slot_of = vec![usize::MAX; x.cols()];
        let mut touched = Vec::new();
        let mut sums: Vec<f32> = Vec::new();
        for r in 0..x.rows() {
            for &(c, v) in x.row(r) {
                if slot_of[c] == usize::MAX {
                    slot_of[c] = touched.len();
                    touched.push(c);
                    sums.resize(sums.len() + d, 0.0);
                }
                let at = slot_of[c] * d;
                for (o, &gv) in sums[at..at + d].iter_mut().zip(g.row(r)) {
                    *o += v * gv;
                }
            }
        }
        let slot = self.grad_slot(w);
        for (&c, sum) in touched.iter().zip(sums.chunks_exact(d)) {
            for (o, &s) in slot.row_mut(c).iter_mut().zip(sum) {
                *o += s;
            }
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
                sigmoid_slope(&mut g, &self.nodes[node].value);
                self.add_grad(*a, g);
            }
            Op::Tanh(a) => {
                tanh_slope(&mut g, &self.nodes[node].value);
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
            Op::ChebInput { op, x, w } => self.cheb_input_backward(op, x, w, g),
            Op::ChebFilter { op, h, u, stack } => {
                self.cheb_filter_backward(op, *h, u, stack, g);
            }
            Op::LstmMemory {
                pre,
                c,
                peep_i,
                peep_f,
                gates,
            } => self.lstm_memory_backward([*pre, *c, *peep_i, *peep_f], gates, g),
            Op::LstmHidden {
                pre,
                c_next,
                peep_o,
                saved,
            } => self.lstm_hidden_backward([*pre, *c_next, *peep_o], saved, g),
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

    /// Backward of [`Tape::cheb_input`] for the output gradient `g`.
    ///
    /// In the op-by-op graph, `Y_k = X·W_k` receives `∂b_k`, where
    /// `∂b_0 = g`, `∂b_1 = Δ̃ᵀ·g` and
    /// `∂b_{j+1} = −∂b_{j−1} + Δ̃ᵀ·(2·∂b_j)` (the `sub` node's negated copy
    /// first, then the doubled apply).
    fn cheb_input_backward(&mut self, op: &SparseOp, x: &Csr, w: &[Var], g: Matrix) {
        let k = w.len() - 1;
        let mut grads = Vec::with_capacity(k + 1);
        grads.push(g);
        if k >= 1 {
            grads.push(op.apply_transpose(&grads[0]));
        }
        for j in 1..k {
            let mut next = op.apply_transpose(&grads[j].scale(2.0));
            // `−∂b_{j−1} + t` is `t − ∂b_{j−1}` in IEEE arithmetic.
            for (o, &p) in next.as_mut_slice().iter_mut().zip(grads[j - 1].as_slice()) {
                *o -= p;
            }
            grads.push(next);
        }
        // The op-by-op graph reaches `Y_K` first and `Y_0` last.
        for (&wk, gk) in w.iter().zip(&grads).rev() {
            self.add_spmm_transpose_grad(wk, x, gk);
        }
    }

    /// Backward of [`Tape::cheb_filter`] for the output gradient `g`, in the
    /// op-by-op graph's order: the products `m_K … m_0` (`∂s_k = g·U_kᵀ`,
    /// `∂U_k = s_kᵀ·g`), then the stack from `s_K` down, where
    /// `s_k = 2·Δ̃·s_{k−1} − s_{k−2}` gives `−∂s_k` to `s_{k−2}` and then
    /// `Δ̃ᵀ·(2·∂s_k)` to `s_{k−1}`, and `s_1 = Δ̃·h` gives `Δ̃ᵀ·∂s_1` to `h`.
    fn cheb_filter_backward(
        &mut self,
        op: &SparseOp,
        h: Var,
        u: &[Var],
        stack: &[Matrix],
        g: Matrix,
    ) {
        let h_grad = self.requires(h);
        // ∂s_k for k = 1..=K, at index k − 1.
        let mut ds: Vec<Matrix> = Vec::with_capacity(stack.len());
        for (k, &uk) in u.iter().enumerate().rev() {
            let s_k = if k == 0 { self.value(h) } else { &stack[k - 1] };
            let d_s = h_grad.then(|| g.matmul_a_bt(self.value(uk)));
            let d_u = self.requires(uk).then(|| s_k.matmul_at_b(&g));
            match d_s {
                Some(d) if k == 0 => self.add_grad(h, d),
                Some(d) => ds.push(d),
                None => {}
            }
            if let Some(d) = d_u {
                self.add_grad(uk, d);
            }
        }
        if !h_grad {
            return;
        }
        ds.reverse();
        for k in (2..=stack.len()).rev() {
            let neg = ds[k - 1].scale(-1.0);
            if k == 2 {
                self.add_grad(h, neg);
            } else {
                ds[k - 3].axpy(1.0, &neg);
            }
            let back = op.apply_transpose(&ds[k - 1].scale(2.0));
            ds[k - 2].axpy(1.0, &back);
        }
        if let Some(d1) = ds.first() {
            let back = op.apply_transpose(d1);
            self.add_grad(h, back);
        }
    }

    /// Backward of [`Tape::lstm_memory`] for `g = ∂c'`, emitting what the
    /// op-by-op nodes `c' = f⊙c + i⊙g`, `g = tanh(·)`, the forget gate and
    /// the input gate (in that reverse order) add to `c`, the peepholes and
    /// the gate blocks of `pre`.
    fn lstm_memory_backward(
        &mut self,
        [pre, c, peep_i, peep_f]: [Var; 4],
        gates: &[Matrix],
        g: Matrix,
    ) {
        let (i, f, cand) = (&gates[0], &gates[1], &gates[2]);
        let c_val = self.value(c);
        let dc_cell = g.hadamard(f);
        let mut d_cand = g.hadamard(i);
        tanh_slope(&mut d_cand, cand);
        let mut d_forget = g.hadamard(c_val);
        sigmoid_slope(&mut d_forget, f);
        let mut d_input = g.hadamard(cand);
        sigmoid_slope(&mut d_input, i);
        let d_peep_f = d_forget.hadamard(c_val);
        let dc_forget = d_forget.hadamard(self.value(peep_f));
        let d_peep_i = d_input.hadamard(c_val);
        let dc_input = d_input.hadamard(self.value(peep_i));
        let d = f.cols();
        self.add_grad(c, dc_cell);
        self.add_grad_cols(pre, 3 * d, &d_cand);
        self.add_grad(peep_f, d_peep_f);
        self.add_grad(c, dc_forget);
        self.add_grad_cols(pre, d, &d_forget);
        self.add_grad(peep_i, d_peep_i);
        self.add_grad(c, dc_input);
        self.add_grad_cols(pre, 0, &d_input);
    }

    /// Backward of [`Tape::lstm_hidden`] for `g = ∂h'`: `tanh(c')` adds to
    /// `c'` first, then the output gate's peephole product, and the gate's
    /// block of `pre` comes last.
    fn lstm_hidden_backward(
        &mut self,
        [pre, c_next, peep_o]: [Var; 3],
        saved: &[Matrix],
        g: Matrix,
    ) {
        let (o, c_act) = (&saved[0], &saved[1]);
        let mut dc_act = g.hadamard(o);
        tanh_slope(&mut dc_act, c_act);
        let mut d_gate = g.hadamard(c_act);
        sigmoid_slope(&mut d_gate, o);
        let d_peep = d_gate.hadamard(self.value(c_next));
        let dc_peep = d_gate.hadamard(self.value(peep_o));
        self.add_grad(c_next, dc_act);
        self.add_grad(peep_o, d_peep);
        self.add_grad(c_next, dc_peep);
        self.add_grad_cols(pre, 2 * o.cols(), &d_gate);
    }

    /// The gradient of `v` computed by the last [`Tape::backward`] call, if
    /// any reached it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Adds the gradients of all [`Tape::param`]-bound variables into the
    /// store. Call after [`Tape::backward`].
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for (id, g) in self.param_grads().entries {
            store.accumulate_grad(id, &g);
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
        for b in &self.bindings {
            if let Some(g) = self.grad(b.var) {
                let block = if b.cols == (0..g.cols()) {
                    g.clone()
                } else {
                    kernel::slice_cols(g, b.cols.start, b.cols.len())
                };
                entries.push((b.id, block));
            }
        }
        crate::ParamGrads { entries }
    }
}

/// `g ⊙ s ⊙ (1 − s)` in place: the gradient through `s = σ(x)`.
fn sigmoid_slope(g: &mut Matrix, s: &Matrix) {
    for (gv, &s) in g.as_mut_slice().iter_mut().zip(s.as_slice()) {
        *gv = *gv * s * (1.0 - s);
    }
}

/// `g ⊙ (1 − t²)` in place: the gradient through `t = tanh(x)`.
fn tanh_slope(g: &mut Matrix, t: &Matrix) {
    for (gv, &t) in g.as_mut_slice().iter_mut().zip(t.as_slice()) {
        *gv *= 1.0 - t * t;
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
    fn param_cols_hands_each_parameter_its_column_block() {
        let mut store = ParamStore::new();
        let a = store.register("a", Matrix::from_rows(&[&[1.0], &[2.0]]));
        let b = store.register("b", Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let mut t = Tape::new();
        let joined = t.param_cols(&store, &[a, b]);
        assert_eq!(t.value(joined).as_slice(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
        let w = t.constant(Matrix::from_rows(&[&[1.0, 10.0, 100.0], &[-1.0, -10.0, -100.0]]));
        let weighted = t.hadamard(joined, w);
        let loss = t.sum_all(weighted);
        t.backward(loss);
        let grads = t.param_grads();
        assert_eq!(grads.len(), 2, "one entry per parameter, in binding order");
        t.accumulate_param_grads(&mut store);
        assert_eq!(store.grad(a).as_slice(), &[1.0, -1.0]);
        assert_eq!(store.grad(b).as_slice(), &[10.0, 100.0, -10.0, -100.0]);
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
