//! Finite-difference verification of the recurrent cells — the strongest
//! correctness guarantee for the CasCN training stack: the analytic
//! gradients of a full multi-step ChebConv-LSTM/GRU/LSTM/GRU rollout must
//! match central differences.

use std::sync::Arc;

use cascn_autograd::{assert_gradients_close, ParamStore, Tape, Var};
use cascn_graph::{DiGraph, SpectralBasis};
use cascn_nn::{ChebConvGruCell, ChebConvLstmCell, ChebOperands, GruCell, LstmCell};
use cascn_tensor::{Csr, Matrix};

fn chain_basis(n: usize, k: usize) -> SpectralBasis {
    let mut g = DiGraph::new(n);
    for i in 0..n - 1 {
        g.add_edge(i, i + 1, 1.0);
    }
    SpectralBasis::directed(&g, 0.85, None, k)
}

/// Sparse snapshot signals with general real values (not a 0/1
/// adjacency), so the input convolution is checked for any `X`.
fn snapshot_inputs(n: usize, d: usize, steps: usize) -> Vec<Arc<Csr>> {
    (0..steps)
        .map(|t| {
            Arc::new(Csr::from_dense(&Matrix::from_fn(n, d, |r, c| {
                ((r * 7 + c * 3 + t) % 5) as f32 * 0.2 - 0.4
            })))
        })
        .collect()
}

/// Gradchecks a ChebConv-LSTM rollout on either the dense (materialized
/// bases) or sparse (operator recurrence) convolution path.
fn chebconv_lstm_gradcheck(sparse: bool) {
    let (n, d_in, d_h, k, steps) = (4usize, 4usize, 2usize, 2usize, 2usize);
    let mut store = ParamStore::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    use rand::SeedableRng;
    let cell = ChebConvLstmCell::new(&mut store, "cc", k, d_in, d_h, &mut rng);
    let basis = chain_basis(n, k);
    let dense_bases = basis.materialize();

    let run = move |tape: &mut Tape, store: &ParamStore| {
        let operands = if sparse {
            ChebOperands::sparse(&basis)
        } else {
            ChebOperands::dense(tape, &dense_bases)
        };
        let inputs = snapshot_inputs(n, d_in, steps);
        let hs = cell.run(tape, store, &operands, &inputs, n);
        let pooled = tape.sum_rows(*hs.last().unwrap());
        let sq = tape.sqr(pooled);
        tape.sum_all(sq)
    };

    // Analytic pass.
    {
        let mut tape = Tape::new();
        let loss = run(&mut tape, &store);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
    }
    // But `run` binds params via cell.run (which uses tape.param) — for the
    // numeric pass the same closure re-reads the perturbed store, which is
    // exactly what we need.
    assert_gradients_close(&mut store, 5e-3, 6e-2, move |s| {
        let mut tape = Tape::new();
        let loss = run(&mut tape, s);
        tape.scalar(loss)
    });
}

#[test]
fn chebconv_lstm_gradients_match_finite_differences() {
    chebconv_lstm_gradcheck(false);
}

#[test]
fn chebconv_lstm_sparse_path_gradients_match_finite_differences() {
    chebconv_lstm_gradcheck(true);
}

/// Same gradcheck for the GRU ablation cell.
fn chebconv_gru_gradcheck(sparse: bool) {
    let (n, d_in, d_h, k, steps) = (4usize, 4usize, 2usize, 2usize, 2usize);
    let mut store = ParamStore::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    use rand::SeedableRng;
    let cell = ChebConvGruCell::new(&mut store, "cg", k, d_in, d_h, &mut rng);
    let basis = chain_basis(n, k);
    let dense_bases = basis.materialize();

    let run = move |tape: &mut Tape, store: &ParamStore| {
        let operands = if sparse {
            ChebOperands::sparse(&basis)
        } else {
            ChebOperands::dense(tape, &dense_bases)
        };
        let inputs = snapshot_inputs(n, d_in, steps);
        let hs = cell.run(tape, store, &operands, &inputs, n);
        let pooled = tape.sum_rows(*hs.last().unwrap());
        let sq = tape.sqr(pooled);
        tape.sum_all(sq)
    };
    {
        let mut tape = Tape::new();
        let loss = run(&mut tape, &store);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
    }
    assert_gradients_close(&mut store, 5e-3, 6e-2, move |s| {
        let mut tape = Tape::new();
        let loss = run(&mut tape, s);
        tape.scalar(loss)
    });
}

#[test]
fn chebconv_gru_gradients_match_finite_differences() {
    chebconv_gru_gradcheck(false);
}

#[test]
fn chebconv_gru_sparse_path_gradients_match_finite_differences() {
    chebconv_gru_gradcheck(true);
}

#[test]
fn dense_lstm_gradients_match_finite_differences() {
    let (d_in, d_h, steps) = (3usize, 2usize, 3usize);
    let mut store = ParamStore::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    use rand::SeedableRng;
    let cell = LstmCell::new(&mut store, "l", d_in, d_h, &mut rng);

    let run = |tape: &mut Tape, store: &ParamStore| {
        let inputs: Vec<Var> = (0..steps)
            .map(|t| {
                tape.constant(Matrix::from_fn(1, d_in, |_, c| {
                    ((c + t) % 3) as f32 * 0.3 - 0.3
                }))
            })
            .collect();
        let hs = cell.run(tape, store, &inputs, 1);
        let sq = tape.sqr(*hs.last().unwrap());
        tape.sum_all(sq)
    };
    {
        let mut tape = Tape::new();
        let loss = run(&mut tape, &store);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
    }
    assert_gradients_close(&mut store, 5e-3, 6e-2, move |s| {
        let mut tape = Tape::new();
        let loss = run(&mut tape, s);
        tape.scalar(loss)
    });
}

#[test]
fn dense_gru_gradients_match_finite_differences() {
    let (d_in, d_h, steps) = (3usize, 2usize, 3usize);
    let mut store = ParamStore::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    use rand::SeedableRng;
    let cell = GruCell::new(&mut store, "g", d_in, d_h, &mut rng);

    let run = |tape: &mut Tape, store: &ParamStore| {
        let inputs: Vec<Var> = (0..steps)
            .map(|t| {
                tape.constant(Matrix::from_fn(1, d_in, |_, c| {
                    ((c * 2 + t) % 4) as f32 * 0.25 - 0.375
                }))
            })
            .collect();
        let hs = cell.run(tape, store, &inputs, 1);
        let sq = tape.sqr(*hs.last().unwrap());
        tape.sum_all(sq)
    };
    {
        let mut tape = Tape::new();
        let loss = run(&mut tape, &store);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
    }
    assert_gradients_close(&mut store, 5e-3, 6e-2, move |s| {
        let mut tape = Tape::new();
        let loss = run(&mut tape, s);
        tape.scalar(loss)
    });
}
