//! The dense-input forward pass CasCN ran before its snapshots went
//! sparse, kept as a test oracle.
//!
//! Every snapshot enters the tape as a dense `n × max_nodes` block, is
//! convolved by [`ChebOperands::conv_stack`], and each gate binds its own
//! filters at every step and multiplies each order separately:
//! `Σ_k (T_k·X)·W_k + Σ_k (T_k·h)·U_k + b`. The shipped path must match it
//! within 5e-4 on outputs and parameter gradients.

#![cfg(test)]

use cascn_autograd::{ParamStore, Tape, Var};
use cascn_nn::ChebOperands;
use cascn_tensor::Matrix;

use super::CascnModel;
use crate::config::RecurrentKind;
use crate::input::PreprocessedCascade;

/// The oracle's pooled representation `h(C_i(t))` for `model` on `sample`.
pub(super) fn forward_representation(
    model: &CascnModel,
    tape: &mut Tape,
    store: &ParamStore,
    sample: &PreprocessedCascade,
) -> Var {
    let operands = sample.operands(tape);
    let width = model.cfg.max_nodes;
    let inputs: Vec<Var> = (0..sample.num_steps())
        .map(|t| tape.constant(sample.snapshot(t, width).to_dense()))
        .collect();
    let cell = Cell {
        store,
        operands: &operands,
        n: sample.n,
        hidden: model.cfg.hidden,
    };
    let hs = match model.cfg.recurrent {
        RecurrentKind::Lstm => cell.lstm(tape, &inputs),
        RecurrentKind::Gru => cell.gru(tape, &inputs),
    };
    model.pool(tape, store, sample, &hs)
}

/// Binds the parameter called `name`.
fn param(tape: &mut Tape, store: &ParamStore, name: &str) -> Var {
    let id = store
        .ids()
        .find(|&id| store.name(id) == name)
        .unwrap_or_else(|| panic!("no parameter {name}"));
    tape.param(store, id)
}

struct Cell<'a> {
    store: &'a ParamStore,
    operands: &'a ChebOperands<Var>,
    n: usize,
    hidden: usize,
}

impl Cell<'_> {
    /// `Σ_k conv_x[k]·W_k + Σ_k conv_h[k]·U_k + b` for gate `cascn.cell.{gate}`.
    fn gate(&self, tape: &mut Tape, gate: &str, conv_x: &[Var], conv_h: &[Var]) -> Var {
        let mut acc: Option<Var> = None;
        let terms = conv_x
            .iter()
            .enumerate()
            .map(|(k, &cx)| (cx, format!("cascn.cell.{gate}.w{k}")))
            .chain(
                conv_h
                    .iter()
                    .enumerate()
                    .map(|(k, &ch)| (ch, format!("cascn.cell.{gate}.u{k}"))),
            );
        for (conv, name) in terms {
            let w = param(tape, self.store, &name);
            let term = tape.matmul(conv, w);
            acc = Some(match acc {
                Some(a) => tape.add(a, term),
                None => term,
            });
        }
        let b = param(tape, self.store, &format!("cascn.cell.{gate}.b"));
        tape.add_bias(acc.expect("K+1 >= 1 orders"), b)
    }

    fn peep(&self, tape: &mut Tape, name: &str, cell_state: Var) -> Var {
        let v = param(tape, self.store, &format!("cascn.cell.{name}"));
        let ones = tape.constant(Matrix::full(self.n, 1, 1.0));
        let tiled = tape.matmul(ones, v);
        tape.hadamard(tiled, cell_state)
    }

    fn lstm(&self, tape: &mut Tape, inputs: &[Var]) -> Vec<Var> {
        let mut h = tape.constant(Matrix::zeros(self.n, self.hidden));
        let mut c = tape.constant(Matrix::zeros(self.n, self.hidden));
        let mut hs = Vec::new();
        for &x in inputs {
            let conv_x = self.operands.conv_stack(tape, x);
            let conv_h = self.operands.conv_stack(tape, h);
            let i_pre = self.gate(tape, "i", &conv_x, &conv_h);
            let i_peep = self.peep(tape, "vi", c);
            let i_sum = tape.add(i_pre, i_peep);
            let i = tape.sigmoid(i_sum);
            let f_pre = self.gate(tape, "f", &conv_x, &conv_h);
            let f_peep = self.peep(tape, "vf", c);
            let f_sum = tape.add(f_pre, f_peep);
            let f = tape.sigmoid(f_sum);
            let g_pre = self.gate(tape, "c", &conv_x, &conv_h);
            let g = tape.tanh(g_pre);
            let fc = tape.hadamard(f, c);
            let ig = tape.hadamard(i, g);
            c = tape.add(fc, ig);
            let o_pre = self.gate(tape, "o", &conv_x, &conv_h);
            let o_peep = self.peep(tape, "vo", c);
            let o_sum = tape.add(o_pre, o_peep);
            let o = tape.sigmoid(o_sum);
            let c_act = tape.tanh(c);
            h = tape.hadamard(o, c_act);
            hs.push(h);
        }
        hs
    }

    fn gru(&self, tape: &mut Tape, inputs: &[Var]) -> Vec<Var> {
        let mut h = tape.constant(Matrix::zeros(self.n, self.hidden));
        let mut hs = Vec::new();
        for &x in inputs {
            let conv_x = self.operands.conv_stack(tape, x);
            let conv_h = self.operands.conv_stack(tape, h);
            let z_pre = self.gate(tape, "z", &conv_x, &conv_h);
            let z = tape.sigmoid(z_pre);
            let r_pre = self.gate(tape, "r", &conv_x, &conv_h);
            let r = tape.sigmoid(r_pre);
            let rh = tape.hadamard(r, h);
            let conv_rh = self.operands.conv_stack(tape, rh);
            let cand_pre = self.gate(tape, "h", &conv_x, &conv_rh);
            let cand = tape.tanh(cand_pre);
            let ones = tape.constant(Matrix::full(self.n, self.hidden, 1.0));
            let one_minus_z = tape.sub(ones, z);
            let keep = tape.hadamard(one_minus_z, h);
            let update = tape.hadamard(z, cand);
            h = tape.add(keep, update);
            hs.push(h);
        }
        hs
    }
}
