//! The dense recurrent cells and the embedding lookup give bit-identical
//! values on a [`Tape`] and on an [`Eval`], over random shapes that include
//! zero-row states and empty lookups.

use cascn_autograd::{Eval, Exec, ParamStore, Tape};
use cascn_nn::{Embedding, GruCell, LstmCell};
use cascn_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bits(values: &[Matrix]) -> Vec<(usize, usize, Vec<u32>)> {
    values
        .iter()
        .map(|m| {
            (
                m.rows(),
                m.cols(),
                m.as_slice().iter().map(|x| x.to_bits()).collect(),
            )
        })
        .collect()
}

/// Every hidden state of `cell` over the inputs `xs` (`m` sequences).
fn lstm_states<'s, E: Exec<'s>>(
    ex: &mut E,
    cell: &LstmCell,
    store: &'s ParamStore,
    xs: &'s [Matrix],
    m: usize,
) -> Vec<Matrix> {
    let inputs: Vec<E::Value> = xs.iter().map(|x| ex.constant_ref(x)).collect();
    let hs = cell.run(ex, store, &inputs, m);
    hs.iter().map(|h| ex.value(h).clone()).collect()
}

/// Every hidden state of `cell` over the inputs `xs` (`m` sequences).
fn gru_states<'s, E: Exec<'s>>(
    ex: &mut E,
    cell: &GruCell,
    store: &'s ParamStore,
    xs: &'s [Matrix],
    m: usize,
) -> Vec<Matrix> {
    let inputs: Vec<E::Value> = xs.iter().map(|x| ex.constant_ref(x)).collect();
    let hs = cell.run(ex, store, &inputs, m);
    hs.iter().map(|h| ex.value(h).clone()).collect()
}

/// The lookup of `rows`, whole and as a sequence of single rows.
fn lookups<'s, E: Exec<'s>>(
    ex: &mut E,
    emb: &Embedding,
    store: &'s ParamStore,
    rows: &[usize],
) -> Vec<Matrix> {
    let whole = emb.forward(ex, store, rows.to_vec());
    let mut out = vec![ex.value(&whole).clone()];
    for step in emb.sequence(ex, store, rows) {
        out.push(ex.value(&step).clone());
    }
    out
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// `(seed, d_in, d_h, m, inputs)`: `1..5` steps of `m x d_in` inputs.
fn sequence() -> impl Strategy<Value = (u64, usize, usize, usize, Vec<Matrix>)> {
    (0u64..1000, 1usize..5, 1usize..5, 0usize..4, 1usize..5).prop_flat_map(
        |(seed, d_in, d_h, m, steps)| {
            (
                Just(seed),
                Just(d_in),
                Just(d_h),
                Just(m),
                proptest::collection::vec(matrix(m, d_in), steps),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recurrent_cells_and_embeddings_agree_on_tape_and_eval(
        case in sequence(),
        picks in proptest::collection::vec(0.0f32..1.0, 0..7),
    ) {
        let (seed, d_in, d_h, m, xs) = case;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let lstm = LstmCell::new(&mut store, "lstm", d_in, d_h, &mut rng);
        let gru = GruCell::new(&mut store, "gru", d_in, d_h, &mut rng);
        let table_rows = 1 + seed as usize % 5;
        let emb = Embedding::new(&mut store, "emb", table_rows, d_in, &mut rng);
        let rows: Vec<usize> = picks
            .iter()
            .map(|&p| ((p * table_rows as f32) as usize).min(table_rows - 1))
            .collect();

        let mut tape = Tape::new();
        let mut eval = Eval::new();
        prop_assert_eq!(
            bits(&lstm_states(&mut tape, &lstm, &store, &xs, m)),
            bits(&lstm_states(&mut eval, &lstm, &store, &xs, m)),
            "LstmCell::run diverged"
        );
        prop_assert_eq!(
            bits(&gru_states(&mut tape, &gru, &store, &xs, m)),
            bits(&gru_states(&mut eval, &gru, &store, &xs, m)),
            "GruCell::run diverged"
        );
        prop_assert_eq!(
            bits(&lookups(&mut tape, &emb, &store, &rows)),
            bits(&lookups(&mut eval, &emb, &store, &rows)),
            "Embedding lookup diverged"
        );
    }
}
