//! Dense recurrent cells (LSTM, GRU) used by the path-based models,
//! generic over [`Exec`] like every other layer.
//!
//! States are `m x d_h` matrices so a cell can process `m` independent
//! sequences (e.g. all random-walk paths of one cascade) in lock-step.

use cascn_autograd::{Exec, ParamId, ParamStore};
use cascn_tensor::Matrix;
use rand::rngs::StdRng;

use crate::init;

/// Parameters of one recurrent gate: input weights, recurrent weights, bias.
#[derive(Debug, Clone)]
struct Gate {
    w: ParamId,
    u: ParamId,
    b: ParamId,
}

impl Gate {
    fn new(store: &mut ParamStore, name: &str, d_in: usize, d_h: usize, rng: &mut StdRng) -> Self {
        Self {
            w: store.register(format!("{name}.w"), init::xavier_uniform(d_in, d_h, rng)),
            u: store.register(format!("{name}.u"), init::xavier_uniform(d_h, d_h, rng)),
            b: store.register(format!("{name}.b"), Matrix::zeros(1, d_h)),
        }
    }

    /// `x·W + h·U + b`.
    fn pre_activation<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        x: &E::Value,
        h: &E::Value,
    ) -> E::Value {
        let w = ex.param(store, self.w);
        let u = ex.param(store, self.u);
        let b = ex.param(store, self.b);
        let xw = ex.matmul(x, &w);
        let hu = ex.matmul(h, &u);
        let sum = ex.add(&xw, &hu);
        ex.add_bias(&sum, &b)
    }
}

/// A standard LSTM cell (Hochreiter & Schmidhuber 1997).
#[derive(Debug, Clone)]
pub struct LstmCell {
    input: Gate,
    forget: Gate,
    output: Gate,
    cell: Gate,
    d_h: usize,
}

impl LstmCell {
    /// Registers an LSTM cell's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_h: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            input: Gate::new(store, &format!("{name}.i"), d_in, d_h, rng),
            forget: Gate::new(store, &format!("{name}.f"), d_in, d_h, rng),
            output: Gate::new(store, &format!("{name}.o"), d_in, d_h, rng),
            cell: Gate::new(store, &format!("{name}.c"), d_in, d_h, rng),
            d_h,
        }
    }

    /// Fresh zero `(h, c)` state for `m` parallel sequences.
    pub fn zero_state<'s, E: Exec<'s>>(&self, ex: &mut E, m: usize) -> (E::Value, E::Value) {
        let h = ex.constant(Matrix::zeros(m, self.d_h));
        let c = ex.constant(Matrix::zeros(m, self.d_h));
        (h, c)
    }

    /// One timestep: consumes `x` (`m x d_in`) and state, returns the next
    /// `(h, c)`.
    pub fn step<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        x: &E::Value,
        (h, c): &(E::Value, E::Value),
    ) -> (E::Value, E::Value) {
        let i_pre = self.input.pre_activation(ex, store, x, h);
        let i = ex.sigmoid(&i_pre);
        let f_pre = self.forget.pre_activation(ex, store, x, h);
        let f = ex.sigmoid(&f_pre);
        let o_pre = self.output.pre_activation(ex, store, x, h);
        let o = ex.sigmoid(&o_pre);
        let g_pre = self.cell.pre_activation(ex, store, x, h);
        let g = ex.tanh(&g_pre);
        let fc = ex.hadamard(&f, c);
        let ig = ex.hadamard(&i, &g);
        let c_next = ex.add(&fc, &ig);
        let c_act = ex.tanh(&c_next);
        let h_next = ex.hadamard(&o, &c_act);
        (h_next, c_next)
    }

    /// Runs a whole sequence, returning every hidden state.
    pub fn run<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        inputs: &[E::Value],
        m: usize,
    ) -> Vec<E::Value> {
        let mut state = self.zero_state(ex, m);
        let mut hs = Vec::with_capacity(inputs.len());
        for x in inputs {
            state = self.step(ex, store, x, &state);
            hs.push(state.0.clone());
        }
        hs
    }
}

/// A standard GRU cell (Cho et al. 2014).
#[derive(Debug, Clone)]
pub struct GruCell {
    update: Gate,
    reset: Gate,
    candidate: Gate,
    d_h: usize,
}

impl GruCell {
    /// Registers a GRU cell's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_in: usize,
        d_h: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            update: Gate::new(store, &format!("{name}.z"), d_in, d_h, rng),
            reset: Gate::new(store, &format!("{name}.r"), d_in, d_h, rng),
            candidate: Gate::new(store, &format!("{name}.h"), d_in, d_h, rng),
            d_h,
        }
    }

    /// One timestep: `h' = (1 − z)⊙h + z⊙h̃`.
    pub fn step<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        x: &E::Value,
        h: &E::Value,
    ) -> E::Value {
        let z_pre = self.update.pre_activation(ex, store, x, h);
        let z = ex.sigmoid(&z_pre);
        let r_pre = self.reset.pre_activation(ex, store, x, h);
        let r = ex.sigmoid(&r_pre);
        let rh = ex.hadamard(&r, h);
        let cand_pre = self.candidate.pre_activation(ex, store, x, &rh);
        let cand = ex.tanh(&cand_pre);
        let m = ex.value(h).rows();
        let ones = ex.constant(Matrix::full(m, self.d_h, 1.0));
        let one_minus_z = ex.sub(&ones, &z);
        let keep = ex.hadamard(&one_minus_z, h);
        let update = ex.hadamard(&z, &cand);
        ex.add(&keep, &update)
    }

    /// Runs a whole sequence, returning every hidden state.
    pub fn run<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        inputs: &[E::Value],
        m: usize,
    ) -> Vec<E::Value> {
        let mut h = ex.constant(Matrix::zeros(m, self.d_h));
        let mut hs = Vec::with_capacity(inputs.len());
        for x in inputs {
            h = self.step(ex, store, x, &h);
            hs.push(h.clone());
        }
        hs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_autograd::{Adam, Optimizer, Tape, Var};
    use rand::SeedableRng;

    fn seq_to_inputs(tape: &mut Tape, seq: &[f32]) -> Vec<Var> {
        seq.iter()
            .map(|&x| tape.constant(Matrix::from_vec(1, 1, vec![x])))
            .collect()
    }

    #[test]
    fn lstm_state_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = LstmCell::new(&mut store, "lstm", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(2, 3));
        let state = cell.zero_state(&mut tape, 2);
        let (h, c) = cell.step(&mut tape, &store, &x, &state);
        assert_eq!(tape.value(h).shape(), (2, 4));
        assert_eq!(tape.value(c).shape(), (2, 4));
    }

    #[test]
    fn gru_zero_input_keeps_values_bounded() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let cell = GruCell::new(&mut store, "gru", 2, 3, &mut rng);
        let mut tape = Tape::new();
        let inputs: Vec<Var> = (0..20).map(|_| tape.constant(Matrix::zeros(1, 2))).collect();
        let hs = cell.run(&mut tape, &store, &inputs, 1);
        let last = tape.value(*hs.last().unwrap());
        assert!(last.max_abs() <= 1.0 + 1e-5, "GRU state must stay in [-1,1]");
    }

    /// Trains a tiny LSTM to output the running sum of a ±1 sequence —
    /// verifies that gradients flow through time correctly.
    #[test]
    fn lstm_learns_running_sum_sign() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let cell = LstmCell::new(&mut store, "lstm", 1, 6, &mut rng);
        let head = crate::Linear::new(&mut store, "head", 6, 1, &mut rng);
        let mut opt = Adam::with_lr(0.02);

        let sequences: Vec<(Vec<f32>, f32)> = vec![
            (vec![1.0, 1.0, 1.0], 3.0),
            (vec![-1.0, -1.0, -1.0], -3.0),
            (vec![1.0, -1.0, 1.0], 1.0),
            (vec![-1.0, 1.0, -1.0], -1.0),
            (vec![1.0, 1.0, -1.0], 1.0),
            (vec![-1.0, -1.0, 1.0], -1.0),
        ];
        for _ in 0..250 {
            store.zero_grads();
            for (seq, target) in &sequences {
                let mut tape = Tape::new();
                let inputs = seq_to_inputs(&mut tape, seq);
                let hs = cell.run(&mut tape, &store, &inputs, 1);
                let pred = head.forward(&mut tape, &store, *hs.last().unwrap());
                let loss = tape.squared_error(pred, *target);
                tape.backward(loss);
                tape.accumulate_param_grads(&mut store);
            }
            store.scale_grads(1.0 / sequences.len() as f32);
            opt.step(&mut store);
        }
        for (seq, target) in &sequences {
            let mut tape = Tape::new();
            let inputs = seq_to_inputs(&mut tape, seq);
            let hs = cell.run(&mut tape, &store, &inputs, 1);
            let pred = head.forward(&mut tape, &store, *hs.last().unwrap());
            let p = tape.scalar(pred);
            assert!(
                (p - target).abs() < 0.6,
                "sequence {seq:?}: predicted {p}, wanted {target}"
            );
        }
    }

    #[test]
    fn gru_distinguishes_order() {
        // The sequences [1,0] and [0,1] must map to different states.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cell = GruCell::new(&mut store, "gru", 1, 4, &mut rng);
        let run = |seq: &[f32], store: &ParamStore| {
            let mut tape = Tape::new();
            let inputs = seq_to_inputs(&mut tape, seq);
            let hs = cell.run(&mut tape, store, &inputs, 1);
            tape.value(*hs.last().unwrap()).clone()
        };
        let a = run(&[1.0, 0.0], &store);
        let b = run(&[0.0, 1.0], &store);
        assert!(a.sub(&b).max_abs() > 1e-4, "order must matter");
    }
}
