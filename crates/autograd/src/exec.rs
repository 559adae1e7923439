//! The executor trait layer code is written against, and [`Eval`], the
//! forward-only executor serving runs on.
//!
//! A layer generic over [`Exec`] runs unchanged on a [`Tape`] (which
//! records every op for [`Tape::backward`]) and on an [`Eval`] (which keeps
//! no op list and no gradient slots). Both compute each value with the same
//! kernel, so their outputs are bit-identical.
//!
//! Besides the elementwise and matrix ops, the trait has fused ops for the
//! Chebyshev recurrent cells: [`Exec::param_cols`] binds a gate bank as one
//! joined input, [`Exec::cheb_input`] and [`Exec::cheb_filter`] are a
//! cell's two graph convolutions, and [`Exec::lstm_memory`] and
//! [`Exec::lstm_hidden`] its peephole gate tail. On a tape each is one node
//! with a hand-written backward; on an `Eval` each is one owned value.

use std::cell::Cell;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;

use cascn_tensor::{Csr, Matrix, SparseOp};

use crate::kernel;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// The forward operations the layers use. Operands are borrowed handles;
/// every op returns a new handle. `'s` is how long values borrowed from a
/// [`ParamStore`] or a sample ([`Exec::param`], [`Exec::constant_ref`]) must
/// live. See [`Tape`] for each op's contract.
pub trait Exec<'s> {
    /// Handle to a value this executor produced.
    type Value: Clone;

    /// A [`ParamStore`] parameter as an input.
    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Self::Value;
    /// A non-differentiable input.
    fn constant(&mut self, value: Matrix) -> Self::Value;
    /// A non-differentiable input that outlives the executor's values (a
    /// [`Tape`] copies it; an [`Eval`] reads it in place).
    fn constant_ref(&mut self, value: &'s Matrix) -> Self::Value;
    /// The value behind a handle.
    fn value<'a>(&'a self, v: &'a Self::Value) -> &'a Matrix;

    /// `a · b`.
    fn matmul(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// `a + b`.
    fn add(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// `a - b`.
    fn sub(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// Elementwise product.
    fn hadamard(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// `a` plus a `1 x c` bias row on every row.
    fn add_bias(&mut self, a: &Self::Value, bias: &Self::Value) -> Self::Value;
    /// Elementwise logistic sigmoid.
    fn sigmoid(&mut self, a: &Self::Value) -> Self::Value;
    /// Elementwise hyperbolic tangent.
    fn tanh(&mut self, a: &Self::Value) -> Self::Value;
    /// Elementwise rectifier.
    fn relu(&mut self, a: &Self::Value) -> Self::Value;
    /// `s · a` for a constant `s`.
    fn scale(&mut self, a: &Self::Value, s: f32) -> Self::Value;
    /// `s · a` for a `1x1` value `s`.
    fn scalar_mul(&mut self, s: &Self::Value, a: &Self::Value) -> Self::Value;
    /// Column-wise sum: `m x n` → `1 x n`.
    fn sum_rows(&mut self, a: &Self::Value) -> Self::Value;
    /// Column-wise mean: `m x n` → `1 x n`.
    fn mean_rows(&mut self, a: &Self::Value) -> Self::Value;
    /// Stacks `table[rows[i], :]`.
    fn gather(&mut self, table: &Self::Value, rows: Vec<usize>) -> Self::Value;
    /// Vertically stacks `parts`.
    fn concat_rows(&mut self, parts: &[Self::Value]) -> Self::Value;
    /// `[a | b]`.
    fn concat_cols(&mut self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// Rows `start..start + len` of `a`.
    fn slice_rows(&mut self, a: &Self::Value, start: usize, len: usize) -> Self::Value;
    /// Columns `start..start + len` of `a`.
    fn slice_cols(&mut self, a: &Self::Value, start: usize, len: usize) -> Self::Value;
    /// Entry `(r, c)` of `a` as a `1x1` value.
    fn pick(&mut self, a: &Self::Value, r: usize, c: usize) -> Self::Value;
    /// `op · x` for a fixed square sparse operator.
    fn sparse_apply(&mut self, op: Arc<SparseOp>, x: &Self::Value) -> Self::Value;
    /// `a · x` for a fixed rectangular sparse matrix.
    fn spmm(&mut self, a: Arc<Csr>, x: &Self::Value) -> Self::Value;
    /// Softmax over an `n x 1` column.
    fn softmax_col(&mut self, a: &Self::Value) -> Self::Value;
    /// Log-softmax over each row.
    fn log_softmax_row(&mut self, a: &Self::Value) -> Self::Value;

    /// Parameters sharing a row count as one input, joined column-wise in
    /// order (one copy for a whole gate bank).
    fn param_cols(&mut self, store: &'s ParamStore, ids: &[ParamId]) -> Self::Value;
    /// `Σ_k T_k(Δ̃)·(X·W_k)` for a fixed sparse signal `x` and `K+1` filters
    /// `w`, by Clenshaw's recurrence over `op = Δ̃`.
    fn cheb_input(&mut self, op: Arc<SparseOp>, x: Arc<Csr>, w: &[Self::Value]) -> Self::Value;
    /// `Σ_k (T_k(Δ̃)·h)·U_k` for a dense signal `h` and `K+1` filters `u`.
    fn cheb_filter(
        &mut self,
        op: Arc<SparseOp>,
        h: &Self::Value,
        u: &[Self::Value],
    ) -> Self::Value;
    /// The peephole LSTM memory update `c'` from the joined pre-activation
    /// `[i | f | o | g]`, the memory `c` and the tiled peepholes `V_i, V_f`.
    fn lstm_memory(
        &mut self,
        pre: &Self::Value,
        c: &Self::Value,
        peep_i: &Self::Value,
        peep_f: &Self::Value,
    ) -> Self::Value;
    /// The peephole LSTM output `h' = σ(pre_o + V_o ⊙ c') ⊙ tanh(c')`.
    fn lstm_hidden(
        &mut self,
        pre: &Self::Value,
        c_next: &Self::Value,
        peep_o: &Self::Value,
    ) -> Self::Value;
}

impl<'s> Exec<'s> for Tape {
    type Value = Var;

    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> Var {
        Tape::param(self, store, id)
    }
    fn constant(&mut self, value: Matrix) -> Var {
        Tape::constant(self, value)
    }
    fn constant_ref(&mut self, value: &'s Matrix) -> Var {
        Tape::constant(self, value.clone())
    }
    fn value<'a>(&'a self, v: &'a Var) -> &'a Matrix {
        Tape::value(self, *v)
    }
    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        Tape::matmul(self, *a, *b)
    }
    fn add(&mut self, a: &Var, b: &Var) -> Var {
        Tape::add(self, *a, *b)
    }
    fn sub(&mut self, a: &Var, b: &Var) -> Var {
        Tape::sub(self, *a, *b)
    }
    fn hadamard(&mut self, a: &Var, b: &Var) -> Var {
        Tape::hadamard(self, *a, *b)
    }
    fn add_bias(&mut self, a: &Var, bias: &Var) -> Var {
        Tape::add_bias(self, *a, *bias)
    }
    fn sigmoid(&mut self, a: &Var) -> Var {
        Tape::sigmoid(self, *a)
    }
    fn tanh(&mut self, a: &Var) -> Var {
        Tape::tanh(self, *a)
    }
    fn relu(&mut self, a: &Var) -> Var {
        Tape::relu(self, *a)
    }
    fn scale(&mut self, a: &Var, s: f32) -> Var {
        Tape::scale(self, *a, s)
    }
    fn scalar_mul(&mut self, s: &Var, a: &Var) -> Var {
        Tape::scalar_mul(self, *s, *a)
    }
    fn sum_rows(&mut self, a: &Var) -> Var {
        Tape::sum_rows(self, *a)
    }
    fn mean_rows(&mut self, a: &Var) -> Var {
        Tape::mean_rows(self, *a)
    }
    fn gather(&mut self, table: &Var, rows: Vec<usize>) -> Var {
        Tape::gather(self, *table, rows)
    }
    fn concat_rows(&mut self, parts: &[Var]) -> Var {
        Tape::concat_rows(self, parts)
    }
    fn concat_cols(&mut self, a: &Var, b: &Var) -> Var {
        Tape::concat_cols(self, *a, *b)
    }
    fn slice_rows(&mut self, a: &Var, start: usize, len: usize) -> Var {
        Tape::slice_rows(self, *a, start, len)
    }
    fn slice_cols(&mut self, a: &Var, start: usize, len: usize) -> Var {
        Tape::slice_cols(self, *a, start, len)
    }
    fn pick(&mut self, a: &Var, r: usize, c: usize) -> Var {
        Tape::pick(self, *a, r, c)
    }
    fn sparse_apply(&mut self, op: Arc<SparseOp>, x: &Var) -> Var {
        Tape::sparse_apply(self, op, *x)
    }
    fn spmm(&mut self, a: Arc<Csr>, x: &Var) -> Var {
        Tape::spmm(self, a, *x)
    }
    fn softmax_col(&mut self, a: &Var) -> Var {
        Tape::softmax_col(self, *a)
    }
    fn log_softmax_row(&mut self, a: &Var) -> Var {
        Tape::log_softmax_row(self, *a)
    }
    fn param_cols(&mut self, store: &'s ParamStore, ids: &[ParamId]) -> Var {
        Tape::param_cols(self, store, ids)
    }
    fn cheb_input(&mut self, op: Arc<SparseOp>, x: Arc<Csr>, w: &[Var]) -> Var {
        Tape::cheb_input(self, op, x, w)
    }
    fn cheb_filter(&mut self, op: Arc<SparseOp>, h: &Var, u: &[Var]) -> Var {
        Tape::cheb_filter(self, op, *h, u)
    }
    fn lstm_memory(&mut self, pre: &Var, c: &Var, peep_i: &Var, peep_f: &Var) -> Var {
        Tape::lstm_memory(self, *pre, *c, *peep_i, *peep_f)
    }
    fn lstm_hidden(&mut self, pre: &Var, c_next: &Var, peep_o: &Var) -> Var {
        Tape::lstm_hidden(self, *pre, *c_next, *peep_o)
    }
}

/// A forward-only executor: parameters and [`Exec::constant_ref`] inputs
/// are read in place, and every op result is an owned value freed when its
/// last handle drops. Nothing is recorded, so nothing can be
/// differentiated.
///
/// ```
/// use cascn_autograd::{Eval, Exec, ParamStore};
/// use cascn_tensor::Matrix;
///
/// let mut store = ParamStore::new();
/// let w = store.register("w", Matrix::from_rows(&[&[0.5, -0.5]]));
/// let mut ex = Eval::new();
/// let wv = ex.param(&store, w);
/// let x = ex.constant(Matrix::from_rows(&[&[2.0], &[1.0]]));
/// let y = ex.matmul(&wv, &x);
/// assert_eq!(ex.value(&y).as_slice(), &[0.5]);
/// ```
#[derive(Debug, Default)]
pub struct Eval<'s> {
    live: Rc<Cell<usize>>,
    peak: usize,
    borrows: PhantomData<&'s Matrix>,
}

/// Handle to a value an [`Eval`] produced or borrowed.
#[derive(Debug, Clone)]
pub struct EvalVar<'s>(Slot<'s>);

#[derive(Debug, Clone)]
enum Slot<'s> {
    Borrowed(&'s Matrix),
    Owned(Rc<Owned>),
}

/// An op result; dropping it takes it off its executor's live count.
#[derive(Debug)]
struct Owned {
    value: Matrix,
    live: Rc<Cell<usize>>,
}

impl Drop for Owned {
    fn drop(&mut self) {
        self.live.set(self.live.get() - 1);
    }
}

impl EvalVar<'_> {
    fn get(&self) -> &Matrix {
        match &self.0 {
            Slot::Borrowed(m) => m,
            Slot::Owned(o) => &o.value,
        }
    }
}

impl<'s> Eval<'s> {
    /// A fresh executor with nothing live.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `forward` on a fresh executor and returns its `1x1` output as a
    /// number — one sample's prediction or loss.
    ///
    /// # Panics
    /// Panics if the output is not `1x1`.
    pub fn scalar(forward: impl FnOnce(&mut Self) -> EvalVar<'s>) -> f32 {
        let mut ex = Self::new();
        let out = forward(&mut ex);
        let m = out.get();
        assert_eq!(m.shape(), (1, 1), "scalar() on non-1x1 value");
        m[(0, 0)]
    }

    /// Number of owned values alive now.
    pub fn live(&self) -> usize {
        self.live.get()
    }

    /// The most owned values that were alive at once.
    pub fn peak_live(&self) -> usize {
        self.peak
    }

    fn own(&mut self, value: Matrix) -> EvalVar<'s> {
        let live = self.live.get() + 1;
        self.live.set(live);
        self.peak = self.peak.max(live);
        EvalVar(Slot::Owned(Rc::new(Owned {
            value,
            live: Rc::clone(&self.live),
        })))
    }
}

impl<'s> Exec<'s> for Eval<'s> {
    type Value = EvalVar<'s>;

    fn param(&mut self, store: &'s ParamStore, id: ParamId) -> EvalVar<'s> {
        EvalVar(Slot::Borrowed(store.value(id)))
    }
    fn constant(&mut self, value: Matrix) -> EvalVar<'s> {
        self.own(value)
    }
    fn constant_ref(&mut self, value: &'s Matrix) -> EvalVar<'s> {
        EvalVar(Slot::Borrowed(value))
    }
    fn value<'a>(&'a self, v: &'a EvalVar<'s>) -> &'a Matrix {
        v.get()
    }
    fn matmul(&mut self, a: &EvalVar<'s>, b: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(a.get().matmul(b.get()))
    }
    fn add(&mut self, a: &EvalVar<'s>, b: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(a.get().add(b.get()))
    }
    fn sub(&mut self, a: &EvalVar<'s>, b: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(a.get().sub(b.get()))
    }
    fn hadamard(&mut self, a: &EvalVar<'s>, b: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(a.get().hadamard(b.get()))
    }
    fn add_bias(&mut self, a: &EvalVar<'s>, bias: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(a.get().add_row_broadcast(bias.get()))
    }
    fn sigmoid(&mut self, a: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(kernel::sigmoid(a.get()))
    }
    fn tanh(&mut self, a: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(kernel::tanh(a.get()))
    }
    fn relu(&mut self, a: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(kernel::relu(a.get()))
    }
    fn scale(&mut self, a: &EvalVar<'s>, s: f32) -> EvalVar<'s> {
        self.own(a.get().scale(s))
    }
    fn scalar_mul(&mut self, s: &EvalVar<'s>, a: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(kernel::scalar_mul(s.get(), a.get()))
    }
    fn sum_rows(&mut self, a: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(a.get().sum_rows())
    }
    fn mean_rows(&mut self, a: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(kernel::mean_rows(a.get()))
    }
    fn gather(&mut self, table: &EvalVar<'s>, rows: Vec<usize>) -> EvalVar<'s> {
        self.own(kernel::gather(table.get(), &rows))
    }
    fn concat_rows(&mut self, parts: &[EvalVar<'s>]) -> EvalVar<'s> {
        let values: Vec<&Matrix> = parts.iter().map(EvalVar::get).collect();
        self.own(kernel::concat_rows(&values))
    }
    fn concat_cols(&mut self, a: &EvalVar<'s>, b: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(kernel::concat_cols(&[a.get(), b.get()]))
    }
    fn slice_rows(&mut self, a: &EvalVar<'s>, start: usize, len: usize) -> EvalVar<'s> {
        self.own(kernel::slice_rows(a.get(), start, len))
    }
    fn slice_cols(&mut self, a: &EvalVar<'s>, start: usize, len: usize) -> EvalVar<'s> {
        self.own(kernel::slice_cols(a.get(), start, len))
    }
    fn pick(&mut self, a: &EvalVar<'s>, r: usize, c: usize) -> EvalVar<'s> {
        self.own(kernel::pick(a.get(), r, c))
    }
    fn sparse_apply(&mut self, op: Arc<SparseOp>, x: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(op.apply(x.get()))
    }
    fn spmm(&mut self, a: Arc<Csr>, x: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(a.spmm(x.get()))
    }
    fn softmax_col(&mut self, a: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(kernel::softmax_col(a.get()))
    }
    fn log_softmax_row(&mut self, a: &EvalVar<'s>) -> EvalVar<'s> {
        self.own(kernel::log_softmax_row(a.get()))
    }
    fn param_cols(&mut self, store: &'s ParamStore, ids: &[ParamId]) -> EvalVar<'s> {
        match ids {
            [id] => self.param(store, *id),
            _ => {
                let values: Vec<&Matrix> = ids.iter().map(|&id| store.value(id)).collect();
                self.own(kernel::concat_cols(&values))
            }
        }
    }
    fn cheb_input(&mut self, op: Arc<SparseOp>, x: Arc<Csr>, w: &[EvalVar<'s>]) -> EvalVar<'s> {
        let filters: Vec<&Matrix> = w.iter().map(EvalVar::get).collect();
        self.own(kernel::cheb_input(&op, &x, &filters))
    }
    fn cheb_filter(
        &mut self,
        op: Arc<SparseOp>,
        h: &EvalVar<'s>,
        u: &[EvalVar<'s>],
    ) -> EvalVar<'s> {
        let filters: Vec<&Matrix> = u.iter().map(EvalVar::get).collect();
        self.own(kernel::cheb_filter(&op, h.get(), &filters).0)
    }
    fn lstm_memory(
        &mut self,
        pre: &EvalVar<'s>,
        c: &EvalVar<'s>,
        peep_i: &EvalVar<'s>,
        peep_f: &EvalVar<'s>,
    ) -> EvalVar<'s> {
        let peeps = [peep_i.get(), peep_f.get()];
        self.own(kernel::lstm_memory(pre.get(), c.get(), peeps, false).0)
    }
    fn lstm_hidden(
        &mut self,
        pre: &EvalVar<'s>,
        c_next: &EvalVar<'s>,
        peep_o: &EvalVar<'s>,
    ) -> EvalVar<'s> {
        self.own(kernel::lstm_hidden(pre.get(), c_next.get(), peep_o.get(), false).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_freed_when_their_last_handle_drops() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(2, 2, 0.5));
        let mut ex = Eval::new();
        let wv = ex.param(&store, w);
        assert_eq!(ex.live(), 0, "parameters are borrowed, not copied");
        let a = ex.matmul(&wv, &wv);
        let b = ex.tanh(&a);
        let b2 = b.clone();
        assert_eq!(ex.live(), 2);
        drop(a);
        drop(b);
        assert_eq!(ex.live(), 1, "a cloned handle keeps its value alive");
        drop(b2);
        assert_eq!(ex.live(), 0);
        assert_eq!(ex.peak_live(), 2);
    }
}
