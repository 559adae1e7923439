//! Recurrent graph-convolutional cells — the heart of CasCN (Eq. 12–14).
//!
//! Every dense multiplication of a standard LSTM/GRU is replaced by a
//! Chebyshev spectral graph convolution over the (scaled) CasLaplacian:
//!
//! `W ∗G X = Σ_{k=0..K} T_k(Δ̃_c) · X · W_k`
//!
//! where the convolution operands come in one of two forms
//! ([`ChebOperands`]):
//!
//! * **Sparse** (the only form a model runs in training and serving): the
//!   scaled Laplacian `Δ̃_c` as a [`SparseOp`], so no dense `n×n` basis is
//!   ever materialized;
//! * **Dense** (the test oracle): the materialized `T_k(Δ̃_c)` bases
//!   entered as constants and multiplied per order — the reference that
//!   gradcheck, the accuracy gate and the sparse-vs-dense tests compare
//!   the sparse form against.
//!
//! The two signals a cell convolves take different routes.
//!
//! * The snapshot `X_t` is a sparse `n × d_in` matrix (≤ 1 nonzero per
//!   column in the model). [`ChebOperands::input_conv`] computes
//!   `Y_k = X·W_k` with one sparse product per order and combines the
//!   orders by Clenshaw's recurrence, `b_k = Y_k + 2Δ̃·b_{k+1} − b_{k+2}`,
//!   `Σ_k T_k·Y_k = Y_0 + Δ̃·b_1 − b_2`: `K` sparse applies, no dense product.
//! * The hidden state `h` is dense `n × d_h`; [`ChebOperands::filter`]
//!   builds `[T_0·h, …, T_K·h]` by `T_k·h = 2·Δ̃·(T_{k-1}·h) − T_{k-2}·h`
//!   and multiplies each order into its recurrent filters.
//!
//! A cell binds its parameters once per forward pass ([`BoundCell`]): the
//! gates' filters are joined column-wise per order, one
//! [`Exec::param_cols`] input per bank, so one input convolution and one
//! recurrent convolution feed every gate.
//!
//! On sparse operands each of these is one fused op of the executor: the
//! input term is [`Exec::cheb_input`], each recurrent term
//! [`Exec::cheb_filter`], and the LSTM's gate and cell tail
//! [`Exec::lstm_memory`] plus [`Exec::lstm_hidden`], which read the gate
//! blocks of the joined pre-activation in place. An LSTM step records 6
//! tape nodes (2 convolutions, the sum, the bias, the memory and the
//! output). Each fused op computes its value with the arithmetic of the
//! op-by-op graph it replaces, in the same order, and its backward adds
//! the same gradient contributions in the same order, so values and
//! trained parameters keep their bits. The op-by-op step bodies survive
//! as a test oracle (`chebconv/oracle.rs`); dense operands still run the
//! convolutions op by op.
//!
//! Every layer here is generic over [`Exec`]: training runs it on a
//! [`cascn_autograd::Tape`], inference on a [`cascn_autograd::Eval`].
//!
//! The LSTM variant includes the paper's peephole terms `V ⊙ c_{t-1}`
//! (Eq. 12); we parameterize each peephole as a `1 x d_h` vector broadcast
//! over nodes, so the parameter count stays independent of the padded
//! cascade size.

use std::sync::Arc;

use cascn_autograd::{Exec, ParamId, ParamStore};
use cascn_graph::SpectralBasis;
use cascn_tensor::{Csr, Matrix, SparseOp};
use rand::rngs::StdRng;

use crate::init;

/// The op-by-op cells, compiled for tests only.
mod oracle;

/// One graph-convolutional gate: `K+1` input filters, `K+1` recurrent
/// filters, and a bias.
#[derive(Debug, Clone)]
struct ConvGate {
    w: Vec<ParamId>,
    u: Vec<ParamId>,
    b: ParamId,
}

impl ConvGate {
    fn new(
        store: &mut ParamStore,
        name: &str,
        k: usize,
        d_in: usize,
        d_h: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = (0..=k)
            .map(|i| store.register(format!("{name}.w{i}"), init::xavier_uniform(d_in, d_h, rng)))
            .collect();
        let u = (0..=k)
            .map(|i| store.register(format!("{name}.u{i}"), init::xavier_uniform(d_h, d_h, rng)))
            .collect();
        let b = store.register(format!("{name}.b"), Matrix::zeros(1, d_h));
        Self { w, u, b }
    }
}

/// Binds per-order filter banks (one bank of `K+1` ids per gate): entry `k`
/// is `[F_k^{g_1} | F_k^{g_2} | …]`, one joined input per order.
fn bind_orders<'s, E: Exec<'s>>(
    ex: &mut E,
    store: &'s ParamStore,
    banks: &[&[ParamId]],
) -> Vec<E::Value> {
    (0..banks[0].len())
        .map(|k| {
            let ids: Vec<ParamId> = banks.iter().map(|bank| bank[k]).collect();
            ex.param_cols(store, &ids)
        })
        .collect()
}

/// `Σ_k conv[k]·filters[k]` — the recurrent half of the pre-activations,
/// op by op.
fn filter_sum<'s, E: Exec<'s>>(ex: &mut E, conv: &[E::Value], filters: &[E::Value]) -> E::Value {
    debug_assert_eq!(conv.len(), filters.len());
    let mut acc = ex.matmul(&conv[0], &filters[0]);
    for (c, f) in conv[1..].iter().zip(&filters[1..]) {
        let term = ex.matmul(c, f);
        acc = ex.add(&acc, &term);
    }
    acc
}

/// The per-cascade spectral operand a ChebConv cell convolves against —
/// either the sparse scaled Laplacian (operator form) or the materialized
/// dense bases (the test oracle), with dense bases held as handles `V` of the
/// executor that runs the cell. Both produce the same convolutions; they
/// differ only in cost and float rounding.
#[derive(Debug, Clone)]
pub enum ChebOperands<V> {
    /// Materialized `T_k(Δ̃_c)` constants, length `K+1` — each order is one
    /// dense `n×n · n×d` product. The reference for gradient checking and
    /// the sparse-vs-dense tests; no production path builds it.
    Dense(Vec<V>),
    /// The scaled Laplacian itself, applied `K` times per convolution and
    /// never expanded into an `n×n` intermediate.
    Sparse {
        /// `Δ̃_c` shared across every application this cell records.
        op: Arc<SparseOp>,
        /// Chebyshev order `K`.
        k: usize,
    },
}

impl<V: Clone> ChebOperands<V> {
    /// Dense operands from materialized basis matrices, entered on `ex` as
    /// constants (an [`cascn_autograd::Eval`] reads them in place).
    pub fn dense<'s, E: Exec<'s, Value = V>>(ex: &mut E, bases: &'s [Matrix]) -> Self {
        Self::Dense(bases.iter().map(|b| ex.constant_ref(b)).collect())
    }

    /// Sparse operator-form operands from a spectral handle.
    pub fn sparse(basis: &SpectralBasis) -> Self {
        Self::Sparse {
            op: Arc::clone(&basis.op),
            k: basis.k,
        }
    }

    /// Number of Chebyshev orders this operand convolves with (`K + 1`).
    pub fn len(&self) -> usize {
        match self {
            Self::Dense(bases) => bases.len(),
            Self::Sparse { k, .. } => k + 1,
        }
    }

    /// Whether the operand has no orders (never true for a well-formed
    /// operand — `K + 1 ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the convolution stack `[T_0·X, …, T_K·X]` for one dense signal.
    ///
    /// Sparse operands start from `T_0·X = X` itself (no identity product)
    /// and apply `Δ̃` `K` times; dense operands multiply each materialized
    /// basis. Gradients flow through `x` in both forms.
    pub fn conv_stack<'s, E: Exec<'s, Value = V>>(&self, ex: &mut E, x: V) -> Vec<V> {
        match self {
            Self::Dense(bases) => bases.iter().map(|b| ex.matmul(b, &x)).collect(),
            Self::Sparse { op, k } => {
                let mut stack = Vec::with_capacity(k + 1);
                stack.push(x);
                if *k >= 1 {
                    let first = ex.sparse_apply(Arc::clone(op), &stack[0]);
                    stack.push(first);
                }
                for i in 2..=*k {
                    let applied = ex.sparse_apply(Arc::clone(op), &stack[i - 1]);
                    let doubled = ex.scale(&applied, 2.0);
                    let next = ex.sub(&doubled, &stack[i - 2]);
                    stack.push(next);
                }
                stack
            }
        }
    }

    /// The input convolution `Σ_k T_k·(X·W_k)` of a constant sparse signal
    /// `x` (`n × d_in`) with `K+1` filters `w` (`d_in × d_out` each).
    ///
    /// Sparse operands run it as one fused [`Exec::cheb_input`]: Clenshaw's
    /// recurrence `b_K = X·W_K`, `b_k = X·W_k + 2Δ̃·b_{k+1} − b_{k+2}`,
    /// result `X·W_0 + Δ̃·b_1 − b_2`, which is `K` sparse applies on
    /// `n × d_out` blocks and no dense product. Dense operands compute
    /// `Σ_k T_k·(X·W_k)` op by op. Gradients flow into every `W_k`.
    ///
    /// # Panics
    /// Panics unless `w` holds `K+1` filters.
    pub fn input_conv<'s, E: Exec<'s, Value = V>>(&self, ex: &mut E, x: &Arc<Csr>, w: &[V]) -> V {
        assert_eq!(w.len(), self.len(), "expected K+1 Chebyshev bases");
        match self {
            Self::Dense(bases) => {
                let y: Vec<V> = w.iter().map(|wk| ex.spmm(Arc::clone(x), wk)).collect();
                let mut acc = ex.matmul(&bases[0], &y[0]);
                for (t, yk) in bases[1..].iter().zip(&y[1..]) {
                    let term = ex.matmul(t, yk);
                    acc = ex.add(&acc, &term);
                }
                acc
            }
            Self::Sparse { op, .. } => ex.cheb_input(Arc::clone(op), Arc::clone(x), w),
        }
    }

    /// The recurrent convolution `Σ_k (T_k·h)·U_k` of a dense signal `h`
    /// (`n × d_h`) with `K+1` filters `u` (`d_h × d_out` each).
    ///
    /// Sparse operands run it as one fused [`Exec::cheb_filter`]; dense
    /// operands multiply each order of [`ChebOperands::conv_stack`] into its
    /// filter and sum. Gradients flow into `h` and every `U_k`.
    ///
    /// # Panics
    /// Panics unless `u` holds `K+1` filters.
    pub fn filter<'s, E: Exec<'s, Value = V>>(&self, ex: &mut E, h: &V, u: &[V]) -> V {
        assert_eq!(u.len(), self.len(), "expected K+1 Chebyshev bases");
        match self {
            Self::Dense(_) => {
                let stack = self.conv_stack(ex, h.clone());
                filter_sum(ex, &stack, u)
            }
            Self::Sparse { op, .. } => ex.cheb_filter(Arc::clone(op), h, u),
        }
    }
}

/// Broadcasts a `1 x d` parameter row over `n` node rows.
fn tile_rows<'s, E: Exec<'s>>(ex: &mut E, row: &E::Value, n: usize) -> E::Value {
    let ones = ex.constant(Matrix::full(n, 1, 1.0));
    ex.matmul(&ones, row)
}

/// A ChebConv cell's parameters entered on one executor, once per forward
/// pass.
///
/// Each Chebyshev order's input filters of every gate sit side by side,
/// `[W_k^{g_1} | W_k^{g_2} | …]`, so one [`ChebOperands::input_conv`] feeds
/// all gates; the recurrent filters of the gates that convolve `h` are
/// joined the same way, and so are the biases. Each bank is one
/// [`Exec::param_cols`] input, bound once however many steps run.
#[derive(Debug, Clone)]
pub struct BoundCell<V> {
    w: Vec<V>,
    u: Vec<V>,
    /// The GRU candidate's recurrent filters, which convolve `r ⊙ h`
    /// rather than `h` (empty for the LSTM).
    u_cand: Vec<V>,
    b: V,
    /// The LSTM's peephole rows `V_i, V_f, V_o`, tiled over the cascade's
    /// `n` nodes (empty for the GRU).
    peep: Vec<V>,
}

/// The CasCN graph-convolutional LSTM cell of Eq. 12–14 (with peepholes).
#[derive(Debug, Clone)]
pub struct ChebConvLstmCell {
    input: ConvGate,
    forget: ConvGate,
    output: ConvGate,
    cell: ConvGate,
    peep_i: ParamId,
    peep_f: ParamId,
    peep_o: ParamId,
    k: usize,
    d_h: usize,
}

impl ChebConvLstmCell {
    /// Registers the cell's parameters for Chebyshev order `k`, input
    /// feature dimension `d_in` and hidden size `d_h`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        k: usize,
        d_in: usize,
        d_h: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            input: ConvGate::new(store, &format!("{name}.i"), k, d_in, d_h, rng),
            forget: ConvGate::new(store, &format!("{name}.f"), k, d_in, d_h, rng),
            output: ConvGate::new(store, &format!("{name}.o"), k, d_in, d_h, rng),
            cell: ConvGate::new(store, &format!("{name}.c"), k, d_in, d_h, rng),
            peep_i: store.register(format!("{name}.vi"), Matrix::zeros(1, d_h)),
            peep_f: store.register(format!("{name}.vf"), Matrix::zeros(1, d_h)),
            peep_o: store.register(format!("{name}.vo"), Matrix::zeros(1, d_h)),
            k,
            d_h,
        }
    }

    /// Fresh zero `(h, c)` state over `n` nodes.
    pub fn zero_state<'s, E: Exec<'s>>(&self, ex: &mut E, n: usize) -> (E::Value, E::Value) {
        let h = ex.constant(Matrix::zeros(n, self.d_h));
        let c = ex.constant(Matrix::zeros(n, self.d_h));
        (h, c)
    }

    /// Binds every parameter once for a forward pass over `n` nodes. Gate
    /// order of the joined filters: input, forget, output, cell.
    pub fn bind<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        n: usize,
    ) -> BoundCell<E::Value> {
        let gates = [&self.input, &self.forget, &self.output, &self.cell];
        let peep = [self.peep_i, self.peep_f, self.peep_o]
            .iter()
            .map(|&id| {
                let row = ex.param(store, id);
                tile_rows(ex, &row, n)
            })
            .collect();
        BoundCell {
            w: bind_orders(ex, store, &gates.map(|g| g.w.as_slice())),
            u: bind_orders(ex, store, &gates.map(|g| g.u.as_slice())),
            u_cand: Vec::new(),
            b: ex.param_cols(store, &gates.map(|g| g.b)),
            peep,
        }
    }

    /// One timestep over a cascade snapshot.
    ///
    /// `operands` carry the cascade's spectral operator (sparse or dense),
    /// `x` is the `n x d_in` snapshot signal, `params` come from
    /// [`ChebConvLstmCell::bind`], and the state matrices are `n x d_h`.
    pub fn step<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        params: &BoundCell<E::Value>,
        operands: &ChebOperands<E::Value>,
        x: &Arc<Csr>,
        (h, c): (E::Value, E::Value),
    ) -> (E::Value, E::Value) {
        assert_eq!(operands.len(), self.k + 1, "expected K+1 Chebyshev bases");
        let xw = operands.input_conv(ex, x, &params.w);
        let hu = operands.filter(ex, &h, &params.u);
        let sum = ex.add(&xw, &hu);
        let pre = ex.add_bias(&sum, &params.b);
        let c_next = ex.lstm_memory(&pre, &c, &params.peep[0], &params.peep[1]);
        let h_next = ex.lstm_hidden(&pre, &c_next, &params.peep[2]);
        (h_next, c_next)
    }

    /// Runs a snapshot sequence over `n` nodes, binding the parameters
    /// once, and returns every hidden state.
    pub fn run<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        operands: &ChebOperands<E::Value>,
        inputs: &[Arc<Csr>],
        n: usize,
    ) -> Vec<E::Value> {
        let params = self.bind(ex, store, n);
        let mut state = self.zero_state(ex, n);
        let mut hs = Vec::with_capacity(inputs.len());
        for x in inputs {
            state = self.step(ex, &params, operands, x, state);
            hs.push(state.0.clone());
        }
        hs
    }
}

/// The GRU variant of the CasCN cell (the paper's `CasCN-GRU` ablation):
/// identical graph convolutions, gating without a separate memory cell.
#[derive(Debug, Clone)]
pub struct ChebConvGruCell {
    update: ConvGate,
    reset: ConvGate,
    candidate: ConvGate,
    k: usize,
    d_h: usize,
}

impl ChebConvGruCell {
    /// Registers the cell's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        k: usize,
        d_in: usize,
        d_h: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            update: ConvGate::new(store, &format!("{name}.z"), k, d_in, d_h, rng),
            reset: ConvGate::new(store, &format!("{name}.r"), k, d_in, d_h, rng),
            candidate: ConvGate::new(store, &format!("{name}.h"), k, d_in, d_h, rng),
            k,
            d_h,
        }
    }

    /// Fresh zero hidden state over `n` nodes.
    pub fn zero_state<'s, E: Exec<'s>>(&self, ex: &mut E, n: usize) -> E::Value {
        ex.constant(Matrix::zeros(n, self.d_h))
    }

    /// Binds every parameter once for a forward pass. Gate order of the
    /// joined input filters and biases: update, reset, candidate; the
    /// joined recurrent filters cover update and reset, which convolve `h`.
    pub fn bind<'s, E: Exec<'s>>(&self, ex: &mut E, store: &'s ParamStore) -> BoundCell<E::Value> {
        let gates = [&self.update, &self.reset, &self.candidate];
        BoundCell {
            w: bind_orders(ex, store, &gates.map(|g| g.w.as_slice())),
            u: bind_orders(ex, store, &[&self.update.u, &self.reset.u]),
            u_cand: bind_orders(ex, store, &[&self.candidate.u]),
            b: ex.param_cols(store, &gates.map(|g| g.b)),
            peep: Vec::new(),
        }
    }

    /// One timestep over a cascade snapshot, with `params` from
    /// [`ChebConvGruCell::bind`]: `h' = h + z ⊙ (h̃ − h)`.
    pub fn step<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        params: &BoundCell<E::Value>,
        operands: &ChebOperands<E::Value>,
        x: &Arc<Csr>,
        h: E::Value,
    ) -> E::Value {
        assert_eq!(operands.len(), self.k + 1, "expected K+1 Chebyshev bases");
        let d = self.d_h;
        let xw = operands.input_conv(ex, x, &params.w);
        let xw = ex.add_bias(&xw, &params.b);
        let hu = operands.filter(ex, &h, &params.u);
        let x_zr = ex.slice_cols(&xw, 0, 2 * d);
        let zr = ex.add(&x_zr, &hu);

        let z_pre = ex.slice_cols(&zr, 0, d);
        let z = ex.sigmoid(&z_pre);
        let r_pre = ex.slice_cols(&zr, d, d);
        let r = ex.sigmoid(&r_pre);

        let rh = ex.hadamard(&r, &h);
        let rhu = operands.filter(ex, &rh, &params.u_cand);
        let x_cand = ex.slice_cols(&xw, 2 * d, d);
        let cand_pre = ex.add(&x_cand, &rhu);
        let cand = ex.tanh(&cand_pre);

        let delta = ex.sub(&cand, &h);
        let update = ex.hadamard(&z, &delta);
        ex.add(&h, &update)
    }

    /// Runs a snapshot sequence over `n` nodes, binding the parameters
    /// once, and returns every hidden state.
    pub fn run<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        operands: &ChebOperands<E::Value>,
        inputs: &[Arc<Csr>],
        n: usize,
    ) -> Vec<E::Value> {
        let params = self.bind(ex, store);
        let mut h = self.zero_state(ex, n);
        let mut hs = Vec::with_capacity(inputs.len());
        for x in inputs {
            h = self.step(ex, &params, operands, x, h);
            hs.push(h.clone());
        }
        hs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_autograd::{Tape, Var};
    use cascn_graph::{laplacian, DiGraph};
    use rand::SeedableRng;

    fn fig1_bases(k: usize) -> Vec<Matrix> {
        let mut g = DiGraph::new(6);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)] {
            g.add_edge(u, v, 1.0);
        }
        let lap = laplacian::cas_laplacian(&g, 0.85);
        let lmax = laplacian::largest_eigenvalue(&lap);
        let scaled = laplacian::scale_laplacian(&lap, lmax);
        laplacian::chebyshev_bases(&scaled, k)
    }

    /// A constant snapshot signal in the sparse form the cells take.
    fn signal(m: &Matrix) -> Arc<Csr> {
        Arc::new(Csr::from_dense(m))
    }

    #[test]
    fn lstm_step_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 2, 6, 4, &mut rng);
        let mut tape = Tape::new();
        let operands = ChebOperands::dense(&mut tape, &fig1_bases(2));
        let params = cell.bind(&mut tape, &store, 6);
        let state = cell.zero_state(&mut tape, 6);
        let (h, c) = cell.step(
            &mut tape,
            &params,
            &operands,
            &signal(&Matrix::eye(6)),
            state,
        );
        assert_eq!(tape.value(h).shape(), (6, 4));
        assert_eq!(tape.value(c).shape(), (6, 4));
    }

    #[test]
    #[should_panic(expected = "K+1 Chebyshev bases")]
    fn lstm_step_checks_basis_count() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 2, 6, 4, &mut rng);
        let mut tape = Tape::new();
        let operands = ChebOperands::dense(&mut tape, &fig1_bases(1)); // wrong: K=1
        let params = cell.bind(&mut tape, &store, 6);
        let state = cell.zero_state(&mut tape, 6);
        let _ = cell.step(
            &mut tape,
            &params,
            &operands,
            &signal(&Matrix::eye(6)),
            state,
        );
    }

    #[test]
    fn gru_run_produces_one_state_per_step() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let cell = ChebConvGruCell::new(&mut store, "cg", 1, 6, 3, &mut rng);
        let mut tape = Tape::new();
        let operands = ChebOperands::dense(&mut tape, &fig1_bases(1));
        let inputs: Vec<Arc<Csr>> = (0..4).map(|_| signal(&Matrix::eye(6))).collect();
        let hs = cell.run(&mut tape, &store, &operands, &inputs, 6);
        assert_eq!(hs.len(), 4);
        assert!(tape.value(hs[3]).all_finite());
    }

    /// Runs `cell` over three steps of a non-binary signal and returns the
    /// names of parameters left without gradient, plus the number of
    /// gradient entries the tape extracted.
    fn zero_grad_params(
        store: &mut ParamStore,
        operands_of: impl Fn(&mut Tape) -> ChebOperands<Var>,
        run: impl Fn(&mut Tape, &ParamStore, &ChebOperands<Var>, &[Arc<Csr>]) -> Vec<Var>,
    ) -> (Vec<String>, usize) {
        let mut tape = Tape::new();
        let operands = operands_of(&mut tape);
        let inputs: Vec<Arc<Csr>> = (0..3)
            .map(|t| {
                signal(&Matrix::from_fn(6, 6, |r, c| {
                    ((r + 2 * c + t) % 4) as f32 * 0.25
                }))
            })
            .collect();
        let hs = run(&mut tape, store, &operands, &inputs);
        let pooled = tape.sum_rows(*hs.last().unwrap());
        let sq = tape.sqr(pooled);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        tape.accumulate_param_grads(store);
        let entries = tape.param_grads().len();
        let zero = store
            .ids()
            .filter(|&id| store.grad(id).max_abs() == 0.0)
            .map(|id| store.name(id).to_string())
            .collect();
        (zero, entries)
    }

    #[test]
    fn gradients_flow_to_all_gate_params() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 1, 6, 3, &mut rng);
        // Every W/U/bias of every gate must receive a nonzero gradient
        // (peepholes start at zero so their gradient may vanish for c=0 at
        // t=0, but not after 3 steps), through one binding each.
        let (zero, entries) = zero_grad_params(
            &mut store,
            |tape| ChebOperands::dense(tape, &fig1_bases(1)),
            |tape, store, operands, inputs| cell.run(tape, store, operands, inputs, 6),
        );
        assert!(zero.is_empty(), "parameters without gradient: {zero:?}");
        assert_eq!(entries, store.len(), "each parameter is bound once per run");
    }

    #[test]
    fn directionality_changes_output() {
        // Reversing the cascade's edges must change the cell output —
        // the motivation for the CasLaplacian over the undirected one.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 2, 4, 3, &mut rng);

        let run = |edges: &[(usize, usize)], store: &ParamStore, cell: &ChebConvLstmCell| {
            let mut g = DiGraph::new(4);
            for &(u, v) in edges {
                g.add_edge(u, v, 1.0);
            }
            let lap = laplacian::cas_laplacian(&g, 0.85);
            let scaled = laplacian::scale_laplacian(&lap, laplacian::largest_eigenvalue(&lap));
            let bases_m = laplacian::chebyshev_bases(&scaled, 2);
            let mut tape = Tape::new();
            let operands = ChebOperands::dense(&mut tape, &bases_m);
            let hs = cell.run(&mut tape, store, &operands, &[signal(&Matrix::eye(4))], 4);
            tape.value(hs[0]).clone()
        };

        let fwd = run(&[(0, 1), (1, 2), (2, 3)], &store, &cell);
        let rev = run(&[(3, 2), (2, 1), (1, 0)], &store, &cell);
        assert!(
            fwd.sub(&rev).max_abs() > 1e-5,
            "direction must influence the convolution"
        );
    }

    /// The fig. 1 spectral handle (sparse core + rank-1 teleport term).
    fn fig1_basis(k: usize) -> SpectralBasis {
        let mut g = DiGraph::new(6);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (1, 4), (3, 5)] {
            g.add_edge(u, v, 1.0);
        }
        SpectralBasis::directed(&g, 0.85, None, k)
    }

    #[test]
    fn sparse_conv_stack_matches_dense_within_tolerance() {
        let k = 3;
        let basis = fig1_basis(k);
        let dense_bases = basis.materialize();
        let x_m = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32) * 0.13 - 1.2);

        let mut tape = Tape::new();
        let dense = ChebOperands::dense(&mut tape, &dense_bases);
        let sparse = ChebOperands::sparse(&basis);
        assert_eq!(dense.len(), k + 1);
        assert_eq!(sparse.len(), k + 1);
        assert!(!sparse.is_empty());

        let x = tape.constant(x_m.clone());
        let stack_d = dense.conv_stack(&mut tape, x);
        let stack_s = sparse.conv_stack(&mut tape, x);
        for (i, (&d, &s)) in stack_d.iter().zip(&stack_s).enumerate() {
            let diff = tape.value(d).sub(tape.value(s)).max_abs();
            assert!(
                diff < 1e-5,
                "order {i}: recurrence stack diverged from materialized bases by {diff}"
            );
        }
        // T_0·X is X itself on the sparse path — exactly, not approximately.
        assert_eq!(tape.value(stack_s[0]).as_slice(), x_m.as_slice());
    }

    /// Clenshaw's combination (sparse) and the direct sum (dense) both equal
    /// `Σ_k (T_k·X)·W_k` over a dense copy of the signal, for every order
    /// from 0 to 3 and a rectangular, non-binary `X` with an empty row.
    #[test]
    fn input_conv_matches_stacked_dense_products() {
        let x_m = Matrix::from_fn(6, 5, |r, c| {
            if r == 4 || (r + c) % 3 == 0 {
                0.0
            } else {
                (r * 5 + c) as f32 * 0.11 - 1.3
            }
        });
        for k in 0..=3 {
            let basis = fig1_basis(k);
            let mut tape = Tape::new();
            let w: Vec<Var> = (0..=k)
                .map(|i| {
                    tape.constant(Matrix::from_fn(5, 3, |r, c| {
                        ((r + 2 * c + i) % 5) as f32 * 0.3 - 0.6
                    }))
                })
                .collect();
            let x = tape.constant(x_m.clone());
            let dense = ChebOperands::dense(&mut tape, &basis.materialize());
            let stack = dense.conv_stack(&mut tape, x);
            let mut expect = Matrix::zeros(6, 3);
            for (&s, &wk) in stack.iter().zip(&w) {
                expect = expect.add(&tape.value(s).matmul(tape.value(wk)));
            }
            for operands in [dense, ChebOperands::sparse(&basis)] {
                let got = operands.input_conv(&mut tape, &signal(&x_m), &w);
                let diff = tape.value(got).sub(&expect).max_abs();
                assert!(diff < 1e-5, "K={k}: input convolution off by {diff}");
            }
        }
    }

    #[test]
    fn lstm_sparse_step_matches_dense_within_tolerance() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let cell = ChebConvLstmCell::new(&mut store, "cc", 2, 6, 4, &mut rng);
        let basis = fig1_basis(2);

        let run = |operands_of: &dyn Fn(&mut Tape) -> ChebOperands<Var>| {
            let mut tape = Tape::new();
            let operands = operands_of(&mut tape);
            let x = signal(&Matrix::eye(6));
            let inputs = [Arc::clone(&x), Arc::clone(&x), x];
            let hs = cell.run(&mut tape, &store, &operands, &inputs, 6);
            tape.value(*hs.last().unwrap()).clone()
        };

        let dense_bases = basis.materialize();
        let h_dense = run(&|tape: &mut Tape| ChebOperands::dense(tape, &dense_bases));
        let h_sparse = run(&|_: &mut Tape| ChebOperands::sparse(&basis));
        let diff = h_dense.sub(&h_sparse).max_abs();
        assert!(
            diff < 1e-5,
            "sparse LSTM output diverged from dense by {diff}"
        );
    }

    /// A directed cascade on 7 nodes with a cross edge, so `Δ̃` carries a
    /// rank-1 teleport term and rows with several entries.
    fn cross_basis(k: usize) -> SpectralBasis {
        let mut g = DiGraph::new(7);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 5), (5, 6)] {
            g.add_edge(u, v, 1.0);
        }
        SpectralBasis::directed(&g, 0.85, None, k)
    }

    /// Four `7 × 9` snapshot signals: growing edge prefixes with an empty
    /// row, a duplicated coordinate and non-binary weights.
    fn cross_inputs() -> Vec<Arc<Csr>> {
        let edges = [
            (0, 0, 1.0),
            (0, 1, 0.5),
            (0, 2, -1.25),
            (1, 3, 1.0),
            (2, 3, 0.75),
            (2, 3, 0.5),
        ];
        (1..=4)
            .map(|t| Arc::new(Csr::from_triplets(7, 9, edges[..t + 2].iter().copied())))
            .collect()
    }

    /// Overwrites every parameter with a spread of nonzero values, so the
    /// zero-initialized peepholes and biases take part too.
    fn spread_params(store: &mut ParamStore) {
        let ids: Vec<ParamId> = store.ids().collect();
        for (seed, id) in ids.into_iter().enumerate() {
            let (rows, cols) = store.value(id).shape();
            *store.value_mut(id) = Matrix::from_fn(rows, cols, |r, c| {
                ((r * 7 + c * 3 + seed * 5) % 11) as f32 * 0.09 - 0.45
            });
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `run` on a fresh tape, backpropagates a loss that reads every
    /// hidden state (as decay pooling does), and returns the bits of every
    /// hidden state and of every parameter's gradient, plus the tape length.
    fn run_bits(
        store: &ParamStore,
        run: impl Fn(&mut Tape, &ParamStore) -> Vec<Var>,
    ) -> (Vec<Vec<u32>>, Vec<Vec<u32>>, usize) {
        let mut store = store.clone();
        store.zero_grads();
        let mut tape = Tape::new();
        let hs = run(&mut tape, &store);
        let len = tape.len();
        let mut acc: Option<Var> = None;
        for (t, &h) in hs.iter().enumerate() {
            let weighted = tape.scale(h, 0.5 + t as f32);
            acc = Some(match acc {
                Some(a) => tape.add(a, weighted),
                None => weighted,
            });
        }
        let pooled = tape.sum_rows(acc.unwrap());
        let sq = tape.sqr(pooled);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        let values = hs.iter().map(|&h| bits(tape.value(h))).collect();
        let grads = store.ids().map(|id| bits(store.grad(id))).collect();
        (values, grads, len)
    }

    #[test]
    fn fused_lstm_equals_the_op_by_op_oracle_bit_for_bit() {
        for k in 0..=3 {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(11 + k as u64);
            let cell = ChebConvLstmCell::new(&mut store, "cc", k, 9, 3, &mut rng);
            spread_params(&mut store);
            let basis = cross_basis(k);
            let inputs = cross_inputs();
            let operands = ChebOperands::sparse(&basis);
            let fused = run_bits(&store, |tape, store| {
                cell.run(tape, store, &operands, &inputs, 7)
            });
            let oracle = run_bits(&store, |tape, store| {
                oracle::lstm_run(&cell, tape, store, &operands, &inputs, 7)
            });
            assert_eq!(fused.0, oracle.0, "K={k}: hidden states differ");
            assert_eq!(fused.1, oracle.1, "K={k}: parameter gradients differ");
            assert!(fused.2 < oracle.2, "K={k}: fused tape is not shorter");
        }
    }

    #[test]
    fn fused_gru_equals_the_op_by_op_oracle_bit_for_bit() {
        for k in 0..=3 {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(21 + k as u64);
            let cell = ChebConvGruCell::new(&mut store, "cg", k, 9, 3, &mut rng);
            spread_params(&mut store);
            let basis = cross_basis(k);
            let inputs = cross_inputs();
            let operands = ChebOperands::sparse(&basis);
            let fused = run_bits(&store, |tape, store| {
                cell.run(tape, store, &operands, &inputs, 7)
            });
            let oracle = run_bits(&store, |tape, store| {
                oracle::gru_run(&cell, tape, store, &operands, &inputs, 7)
            });
            assert_eq!(fused.0, oracle.0, "K={k}: hidden states differ");
            assert_eq!(fused.1, oracle.1, "K={k}: parameter gradients differ");
        }
    }

    /// The fused cells on an `Eval` give the tape's values bit for bit.
    #[test]
    fn fused_cells_on_eval_equal_the_tape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let lstm = ChebConvLstmCell::new(&mut store, "cc", 2, 9, 3, &mut rng);
        let gru = ChebConvGruCell::new(&mut store, "cg", 2, 9, 3, &mut rng);
        spread_params(&mut store);
        let basis = cross_basis(2);
        let inputs = cross_inputs();
        let mut tape = Tape::new();
        let operands = ChebOperands::sparse(&basis);
        let tape_hs = [
            lstm.run(&mut tape, &store, &operands, &inputs, 7),
            gru.run(&mut tape, &store, &operands, &inputs, 7),
        ];
        let mut ex = cascn_autograd::Eval::new();
        let operands = ChebOperands::sparse(&basis);
        let eval_hs = [
            lstm.run(&mut ex, &store, &operands, &inputs, 7),
            gru.run(&mut ex, &store, &operands, &inputs, 7),
        ];
        for (t_hs, e_hs) in tape_hs.iter().zip(&eval_hs) {
            for (&t, e) in t_hs.iter().zip(e_hs) {
                assert_eq!(bits(tape.value(t)), bits(ex.value(e)));
            }
        }
    }

    #[test]
    fn gradients_flow_through_sparse_operands() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(8);
        let cell = ChebConvGruCell::new(&mut store, "cg", 2, 6, 3, &mut rng);
        let basis = fig1_basis(2);
        let (zero, entries) = zero_grad_params(
            &mut store,
            |_| ChebOperands::sparse(&basis),
            |tape, store, operands, inputs| cell.run(tape, store, operands, inputs, 6),
        );
        assert!(
            zero.is_empty(),
            "parameters without gradient on the sparse path: {zero:?}"
        );
        assert_eq!(entries, store.len(), "each parameter is bound once per run");
    }
}
