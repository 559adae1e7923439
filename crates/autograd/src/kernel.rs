//! Forward values of the ops that are not a single [`Matrix`] method.
//!
//! [`Tape`](crate::Tape) and [`Eval`](crate::Eval) both compute through
//! these functions (or the same `Matrix` method), so the two executors
//! produce bit-identical values by construction.
//!
//! The fused recurrent kernels at the end ([`cheb_input`], [`cheb_filter`],
//! [`lstm_memory`], [`lstm_hidden`]) do, entry by entry, the arithmetic of
//! the op-by-op graphs they replace, in the same order, so their values
//! equal those graphs' bit for bit.

use cascn_tensor::{Csr, Matrix, SparseOp};

/// The logistic function, as every sigmoid in the crate computes it.
#[inline]
fn logistic(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

pub(crate) fn sigmoid(a: &Matrix) -> Matrix {
    a.map(logistic)
}

pub(crate) fn tanh(a: &Matrix) -> Matrix {
    a.map(f32::tanh)
}

pub(crate) fn relu(a: &Matrix) -> Matrix {
    a.map(|x| x.max(0.0))
}

/// `s · a` for a `1x1` scalar `s`.
pub(crate) fn scalar_mul(s: &Matrix, a: &Matrix) -> Matrix {
    assert_eq!(s.shape(), (1, 1), "scalar_mul: scalar operand must be 1x1");
    a.scale(s[(0, 0)])
}

/// Entry `(r, c)` of `a` as a `1x1` matrix.
pub(crate) fn pick(a: &Matrix, r: usize, c: usize) -> Matrix {
    assert!(
        r < a.rows() && c < a.cols(),
        "pick: ({r}, {c}) out of bounds for {:?}",
        a.shape()
    );
    Matrix::from_vec(1, 1, vec![a[(r, c)]])
}

pub(crate) fn gather(table: &Matrix, rows: &[usize]) -> Matrix {
    let mut value = Matrix::zeros(rows.len(), table.cols());
    for (i, &r) in rows.iter().enumerate() {
        assert!(
            r < table.rows(),
            "gather: row {r} out of bounds ({} rows)",
            table.rows()
        );
        value.row_mut(i).copy_from_slice(table.row(r));
    }
    value
}

pub(crate) fn concat_rows(parts: &[&Matrix]) -> Matrix {
    assert!(!parts.is_empty(), "concat_rows: need at least one part");
    let cols = parts[0].cols();
    let total: usize = parts.iter().map(|p| p.rows()).sum();
    let mut value = Matrix::zeros(total, cols);
    let mut at = 0;
    for p in parts {
        assert_eq!(p.cols(), cols, "concat_rows: column mismatch");
        for r in 0..p.rows() {
            value.row_mut(at + r).copy_from_slice(p.row(r));
        }
        at += p.rows();
    }
    value
}

/// `[parts[0] | parts[1] | …]`.
pub(crate) fn concat_cols(parts: &[&Matrix]) -> Matrix {
    assert!(!parts.is_empty(), "concat_cols: need at least one part");
    if let [one] = parts {
        return (*one).clone();
    }
    let rows = parts[0].rows();
    let total: usize = parts.iter().map(|p| p.cols()).sum();
    let mut value = Matrix::zeros(rows, total);
    for r in 0..rows {
        let mut at = 0;
        let row = value.row_mut(r);
        for p in parts {
            assert_eq!(p.rows(), rows, "concat_cols: row mismatch");
            row[at..at + p.cols()].copy_from_slice(p.row(r));
            at += p.cols();
        }
    }
    value
}

/// Column-wise mean: `m x n` → `1 x n` (zeros for `m = 0`).
pub(crate) fn mean_rows(a: &Matrix) -> Matrix {
    let m = a.rows().max(1) as f32;
    a.sum_rows().scale(1.0 / m)
}

/// Rows `start..start + len` of `a`: a [`gather`] of consecutive rows.
pub(crate) fn slice_rows(a: &Matrix, start: usize, len: usize) -> Matrix {
    gather(a, &(start..start + len).collect::<Vec<_>>())
}

pub(crate) fn slice_cols(a: &Matrix, start: usize, len: usize) -> Matrix {
    assert!(
        start + len <= a.cols(),
        "slice_cols: {start}+{len} exceeds {} cols",
        a.cols()
    );
    let mut value = Matrix::zeros(a.rows(), len);
    for r in 0..a.rows() {
        value
            .row_mut(r)
            .copy_from_slice(&a.row(r)[start..start + len]);
    }
    value
}

pub(crate) fn softmax_col(a: &Matrix) -> Matrix {
    assert_eq!(a.cols(), 1, "softmax_col: expected n x 1 input");
    let max = a.max();
    let exps: Vec<f32> = a.as_slice().iter().map(|&x| (x - max).exp()).collect();
    let z: f32 = exps.iter().sum();
    Matrix::from_vec(a.rows(), 1, exps.into_iter().map(|e| e / z).collect())
}

pub(crate) fn log_softmax_row(a: &Matrix) -> Matrix {
    assert!(a.cols() > 0, "log_softmax_row: empty rows");
    let mut value = Matrix::zeros(a.rows(), a.cols());
    for r in 0..a.rows() {
        let row = a.row(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let z: f32 = row.iter().map(|&x| (x - max).exp()).sum();
        let lse = max + z.ln();
        for (out, &x) in value.row_mut(r).iter_mut().zip(row) {
            *out = x - lse;
        }
    }
    value
}

/// `Σ_k T_k(Δ̃)·(X·W_k)` for a sparse signal `x` and `K+1` filters `w`, by
/// Clenshaw's recurrence: `b_K = X·W_K`,
/// `b_j = X·W_j + 2·Δ̃·b_{j+1} − b_{j+2}`, result `X·W_0 + Δ̃·b_1 − b_2`.
pub(crate) fn cheb_input(op: &SparseOp, x: &Csr, w: &[&Matrix]) -> Matrix {
    assert!(!w.is_empty(), "cheb_input: need K+1 >= 1 filters");
    let k = w.len() - 1;
    // (b_{j+1}, b_{j+2}), starting from b_K and b_{K+1} = 0.
    let (mut b1, mut b2) = (x.spmm(w[k]), None::<Matrix>);
    if k == 0 {
        return b1;
    }
    for wj in w[1..k].iter().rev() {
        let mut bj = op.apply(&b1);
        for (o, &y) in bj.as_mut_slice().iter_mut().zip(x.spmm(wj).as_slice()) {
            *o = y + *o * 2.0;
        }
        if let Some(b) = &b2 {
            sub_assign(&mut bj, b);
        }
        (b1, b2) = (bj, Some(b1));
    }
    let mut out = op.apply(&b1);
    for (o, &y) in out.as_mut_slice().iter_mut().zip(x.spmm(w[0]).as_slice()) {
        *o += y;
    }
    if let Some(b) = &b2 {
        sub_assign(&mut out, b);
    }
    out
}

/// `a −= b`, entry by entry.
fn sub_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "sub: shape mismatch");
    for (o, &v) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o -= v;
    }
}

/// `Σ_k (T_k·h)·U_k` for `K+1` filters `u`, and the stack
/// `[T_1·h, …, T_K·h]` it multiplies (`T_0·h = h` is `h` itself). The
/// stack is built by `T_1·h = Δ̃·h` and `T_k·h = 2·Δ̃·(T_{k-1}·h) − T_{k-2}·h`;
/// the products are added into one accumulator in ascending `k`,
/// `(m_0 + m_1) + m_2 …`.
pub(crate) fn cheb_filter(op: &SparseOp, h: &Matrix, u: &[&Matrix]) -> (Matrix, Vec<Matrix>) {
    assert!(!u.is_empty(), "cheb_filter: need K+1 >= 1 filters");
    let k = u.len() - 1;
    let mut stack: Vec<Matrix> = Vec::with_capacity(k);
    for i in 1..=k {
        let prev = if i == 1 { h } else { &stack[i - 2] };
        let mut next = op.apply(prev);
        if i >= 2 {
            let before = if i == 2 { h } else { &stack[i - 3] };
            for (o, &b) in next.as_mut_slice().iter_mut().zip(before.as_slice()) {
                *o = *o * 2.0 - b;
            }
        }
        stack.push(next);
    }
    let mut out = h.matmul(u[0]);
    for (s, uk) in stack.iter().zip(&u[1..]) {
        out.add_matmul(s, uk);
    }
    (out, stack)
}

/// Checks the operands of the fused LSTM kernels: `pre` is `n × 4d`, every
/// other operand `n × d`. Returns `d`.
fn lstm_width(pre: &Matrix, others: &[&Matrix], op: &str) -> usize {
    assert_eq!(pre.cols() % 4, 0, "{op}: pre-activation width must be 4·d");
    let d = pre.cols() / 4;
    for m in others {
        assert_eq!(m.shape(), (pre.rows(), d), "{op}: expected {}x{d} operands", pre.rows());
    }
    d
}

/// `out[j] = σ(x[j] + v[j] · c[j])` over one row: a peephole gate.
fn peephole(out: &mut [f32], x: &[f32], v: &[f32], c: &[f32]) {
    for (((o, &x), &v), &c) in out.iter_mut().zip(x).zip(v).zip(c) {
        *o = logistic(x + v * c);
    }
}

/// The LSTM memory update of Eq. 12–13 from the joined pre-activation
/// `pre = [i | f | o | g]` (`n × 4d`), the previous memory `c` and the
/// tiled peepholes: `i = σ(pre_i + V_i ⊙ c)`, `f = σ(pre_f + V_f ⊙ c)`,
/// `g = tanh(pre_g)`, `c' = f ⊙ c + i ⊙ g`. Returns `c'` and, when `save`
/// is set, the activations `[i, f, g]` its backward reads.
///
/// Each activation is its own pass over a row, one transcendental per
/// iteration: one loop with three calls per entry runs slower.
pub(crate) fn lstm_memory(
    pre: &Matrix,
    c: &Matrix,
    [peep_i, peep_f]: [&Matrix; 2],
    save: bool,
) -> (Matrix, Vec<Matrix>) {
    let d = lstm_width(pre, &[c, peep_i, peep_f], "lstm_memory");
    let n = pre.rows();
    let mut c_next = Matrix::zeros(n, d);
    let kept = if save { 3 } else { 0 };
    let mut saved: Vec<Matrix> = (0..kept).map(|_| Matrix::zeros(n, d)).collect();
    let mut row = vec![0.0f32; 3 * d];
    for r in 0..n {
        let (p, cr) = (pre.row(r), c.row(r));
        let (ir, rest) = row.split_at_mut(d);
        let (fr, gr) = rest.split_at_mut(d);
        peephole(ir, &p[..d], peep_i.row(r), cr);
        peephole(fr, &p[d..2 * d], peep_f.row(r), cr);
        for (o, &x) in gr.iter_mut().zip(&p[3 * d..]) {
            *o = x.tanh();
        }
        let gates = ir.iter().zip(fr.iter()).zip(gr.iter());
        for ((out, &cv), ((&i, &f), &g)) in c_next.row_mut(r).iter_mut().zip(cr).zip(gates) {
            *out = f * cv + i * g;
        }
        for (kept, vals) in saved.iter_mut().zip(row.chunks_exact(d)) {
            kept.row_mut(r).copy_from_slice(vals);
        }
    }
    (c_next, saved)
}

/// The LSTM output of Eq. 14: `o = σ(pre_o + V_o ⊙ c')`,
/// `h' = o ⊙ tanh(c')`. Returns `h'` and, when `save` is set,
/// `[o, tanh(c')]`.
pub(crate) fn lstm_hidden(
    pre: &Matrix,
    c_next: &Matrix,
    peep_o: &Matrix,
    save: bool,
) -> (Matrix, Vec<Matrix>) {
    let d = lstm_width(pre, &[c_next, peep_o], "lstm_hidden");
    let n = pre.rows();
    let mut h = Matrix::zeros(n, d);
    let kept = if save { 2 } else { 0 };
    let mut saved: Vec<Matrix> = (0..kept).map(|_| Matrix::zeros(n, d)).collect();
    let mut row = vec![0.0f32; 2 * d];
    for r in 0..n {
        let cr = c_next.row(r);
        let (or, tr) = row.split_at_mut(d);
        peephole(or, &pre.row(r)[2 * d..3 * d], peep_o.row(r), cr);
        for (o, &x) in tr.iter_mut().zip(cr) {
            *o = x.tanh();
        }
        for ((out, &o), &t) in h.row_mut(r).iter_mut().zip(or.iter()).zip(tr.iter()) {
            *out = o * t;
        }
        for (kept, vals) in saved.iter_mut().zip(row.chunks_exact(d)) {
            kept.row_mut(r).copy_from_slice(vals);
        }
    }
    (h, saved)
}
