//! The Chebyshev recurrent cells op by op, as they ran before the fused
//! ops, kept as the test oracle the fused path must equal bit for bit.
//!
//! Each gate bank is bound as one `param` per filter joined by a chain of
//! `concat_cols`, the input term is Clenshaw's recurrence in `sparse_apply`,
//! `scale`, `add` and `sub` nodes, the recurrent term is
//! [`ChebOperands::conv_stack`] multiplied order by order, and the gate tail
//! is one node per elementwise op.

#![cfg(test)]

use std::sync::Arc;

use cascn_autograd::{Exec, ParamId, ParamStore};
use cascn_tensor::Csr;

use super::{filter_sum, tile_rows, ChebConvGruCell, ChebConvLstmCell, ChebOperands};

/// Binds each parameter of `ids` (non-empty) once and joins them
/// column-wise, in order.
fn bind_cols<'s, E: Exec<'s>>(ex: &mut E, store: &'s ParamStore, ids: &[ParamId]) -> E::Value {
    let mut joined = ex.param(store, ids[0]);
    for &id in &ids[1..] {
        let next = ex.param(store, id);
        joined = ex.concat_cols(&joined, &next);
    }
    joined
}

fn bind_orders<'s, E: Exec<'s>>(
    ex: &mut E,
    store: &'s ParamStore,
    banks: &[&[ParamId]],
) -> Vec<E::Value> {
    (0..banks[0].len())
        .map(|k| {
            let ids: Vec<ParamId> = banks.iter().map(|bank| bank[k]).collect();
            bind_cols(ex, store, &ids)
        })
        .collect()
}

/// `Σ_k T_k·(X·W_k)` by Clenshaw's recurrence, one node per op.
fn input_conv<'s, E: Exec<'s>>(
    ex: &mut E,
    operands: &ChebOperands<E::Value>,
    x: &Arc<Csr>,
    w: &[E::Value],
) -> E::Value {
    let ChebOperands::Sparse { op, k } = operands else {
        return operands.input_conv(ex, x, w);
    };
    let k = *k;
    let mut y: Vec<E::Value> = w.iter().map(|wk| ex.spmm(Arc::clone(x), wk)).collect();
    if k == 0 {
        return y.swap_remove(0);
    }
    let (mut b1, mut b2) = (y[k].clone(), None);
    for yj in y[1..k].iter().rev() {
        let applied = ex.sparse_apply(Arc::clone(op), &b1);
        let doubled = ex.scale(&applied, 2.0);
        let mut bj = ex.add(yj, &doubled);
        if let Some(b) = &b2 {
            bj = ex.sub(&bj, b);
        }
        (b1, b2) = (bj, Some(b1));
    }
    let applied = ex.sparse_apply(Arc::clone(op), &b1);
    let out = ex.add(&y[0], &applied);
    match b2 {
        Some(b) => ex.sub(&out, &b),
        None => out,
    }
}

/// `Σ_k (T_k·h)·U_k` over the op-by-op conv stack.
fn filter<'s, E: Exec<'s>>(
    ex: &mut E,
    operands: &ChebOperands<E::Value>,
    h: &E::Value,
    u: &[E::Value],
) -> E::Value {
    let stack = operands.conv_stack(ex, h.clone());
    filter_sum(ex, &stack, u)
}

/// `σ(pre[:, start..start + d] + V ⊙ c)` — one peephole gate of Eq. 12.
fn peephole_gate<'s, E: Exec<'s>>(
    ex: &mut E,
    pre: &E::Value,
    (start, d): (usize, usize),
    peep: &E::Value,
    c: &E::Value,
) -> E::Value {
    let gate_pre = ex.slice_cols(pre, start, d);
    let gate_peep = ex.hadamard(peep, c);
    let sum = ex.add(&gate_pre, &gate_peep);
    ex.sigmoid(&sum)
}

/// [`ChebConvLstmCell::run`] op by op.
pub(super) fn lstm_run<'s, E: Exec<'s>>(
    cell: &ChebConvLstmCell,
    ex: &mut E,
    store: &'s ParamStore,
    operands: &ChebOperands<E::Value>,
    inputs: &[Arc<Csr>],
    n: usize,
) -> Vec<E::Value> {
    let gates = [&cell.input, &cell.forget, &cell.output, &cell.cell];
    let peep: Vec<E::Value> = [cell.peep_i, cell.peep_f, cell.peep_o]
        .iter()
        .map(|&id| {
            let row = ex.param(store, id);
            tile_rows(ex, &row, n)
        })
        .collect();
    let w = bind_orders(ex, store, &gates.map(|g| g.w.as_slice()));
    let u = bind_orders(ex, store, &gates.map(|g| g.u.as_slice()));
    let b = bind_cols(ex, store, &gates.map(|g| g.b));
    let d = cell.d_h;
    let (mut h, mut c) = cell.zero_state(ex, n);
    let mut hs = Vec::new();
    for x in inputs {
        let xw = input_conv(ex, operands, x, &w);
        let hu = filter(ex, operands, &h, &u);
        let sum = ex.add(&xw, &hu);
        let pre = ex.add_bias(&sum, &b);
        let i = peephole_gate(ex, &pre, (0, d), &peep[0], &c);
        let f = peephole_gate(ex, &pre, (d, d), &peep[1], &c);
        let g_pre = ex.slice_cols(&pre, 3 * d, d);
        let g = ex.tanh(&g_pre);
        let fc = ex.hadamard(&f, &c);
        let ig = ex.hadamard(&i, &g);
        c = ex.add(&fc, &ig);
        let o = peephole_gate(ex, &pre, (2 * d, d), &peep[2], &c);
        let c_act = ex.tanh(&c);
        h = ex.hadamard(&o, &c_act);
        hs.push(h.clone());
    }
    hs
}

/// [`ChebConvGruCell::run`] op by op.
pub(super) fn gru_run<'s, E: Exec<'s>>(
    cell: &ChebConvGruCell,
    ex: &mut E,
    store: &'s ParamStore,
    operands: &ChebOperands<E::Value>,
    inputs: &[Arc<Csr>],
    n: usize,
) -> Vec<E::Value> {
    let gates = [&cell.update, &cell.reset, &cell.candidate];
    let w = bind_orders(ex, store, &gates.map(|g| g.w.as_slice()));
    let u = bind_orders(ex, store, &[&cell.update.u, &cell.reset.u]);
    let u_cand = bind_orders(ex, store, &[&cell.candidate.u]);
    let b = bind_cols(ex, store, &gates.map(|g| g.b));
    let d = cell.d_h;
    let mut h = cell.zero_state(ex, n);
    let mut hs = Vec::new();
    for x in inputs {
        let xw = input_conv(ex, operands, x, &w);
        let xw = ex.add_bias(&xw, &b);
        let hu = filter(ex, operands, &h, &u);
        let x_zr = ex.slice_cols(&xw, 0, 2 * d);
        let zr = ex.add(&x_zr, &hu);
        let z_pre = ex.slice_cols(&zr, 0, d);
        let z = ex.sigmoid(&z_pre);
        let r_pre = ex.slice_cols(&zr, d, d);
        let r = ex.sigmoid(&r_pre);
        let rh = ex.hadamard(&r, &h);
        let rhu = filter(ex, operands, &rh, &u_cand);
        let x_cand = ex.slice_cols(&xw, 2 * d, d);
        let cand_pre = ex.add(&x_cand, &rhu);
        let cand = ex.tanh(&cand_pre);
        let delta = ex.sub(&cand, &h);
        let update = ex.hadamard(&z, &delta);
        h = ex.add(&h, &update);
        hs.push(h.clone());
    }
    hs
}
