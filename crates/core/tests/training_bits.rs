//! Pins the exact bits training produces. One epoch of the tiny config on
//! one thread, for both recurrent cells and both heads, must leave
//! parameters whose FNV-1a hash equals the value recorded below.
//!
//! The hashes were recorded before the Chebyshev-LSTM/GRU cells ran on
//! fused tape ops, from the op-by-op tape, so they hold the fused backward
//! to the unfused one's accumulation order. They are pinned to this
//! toolchain: a compiler or libm whose `exp`/`tanh` round differently
//! changes them without any change to the model code.

use cascn::{fnv1a64, CascnConfig, CascnModel, RecurrentKind, TaskKind, TrainOpts};
use cascn_autograd::ParamStore;
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Dataset, Split};

const WINDOW: f64 = 3600.0;

fn tiny_data() -> Dataset {
    WeiboGenerator::new(WeiboConfig {
        num_cascades: 200,
        seed: 61,
        max_size: 150,
    })
    .generate()
    .filter_observed_size(WINDOW, 3, 60)
}

fn tiny_cfg(recurrent: RecurrentKind, task: TaskKind, vocab_users: usize) -> CascnConfig {
    CascnConfig {
        hidden: 4,
        mlp_hidden: 4,
        max_nodes: 12,
        max_steps: 6,
        threads: 1,
        recurrent,
        task,
        vocab_users,
        ..CascnConfig::default()
    }
}

/// FNV-1a over every parameter's entries, in store order, as little-endian
/// bit patterns.
fn params_hash(store: &ParamStore) -> u64 {
    let bytes: Vec<u8> = store
        .ids()
        .flat_map(|id| store.value(id).as_slice().to_vec())
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

fn trained_hash(recurrent: RecurrentKind, task: TaskKind) -> u64 {
    let data = tiny_data();
    let (train, val) = (data.split(Split::Train), data.split(Split::Validation));
    let opts = TrainOpts {
        epochs: 1,
        patience: 1,
        threads: 1,
        ..TrainOpts::default()
    };
    let model = match task {
        TaskKind::SizeRegression => {
            let mut model = CascnModel::new(tiny_cfg(recurrent, task, 0));
            model.fit(train, val, WINDOW, &opts);
            model
        }
        TaskKind::NextUser => {
            let max_user = data
                .cascades
                .iter()
                .flat_map(|c| c.events.iter().map(|e| e.user))
                .max()
                .unwrap_or(0);
            let vocab = usize::try_from(max_user).expect("user ids fit usize") + 1;
            let mut model = CascnModel::new(tiny_cfg(recurrent, task, vocab));
            model
                .fit_next_user(train, val, WINDOW, &opts)
                .expect("next-user fit");
            model
        }
    };
    params_hash(model.params())
}

#[test]
fn lstm_size_regression_training_bits_are_pinned() {
    let got = trained_hash(RecurrentKind::Lstm, TaskKind::SizeRegression);
    assert_eq!(got, 0xc3153bb7efb30912, "LSTM size regression: {got:#018x}");
}

#[test]
fn gru_size_regression_training_bits_are_pinned() {
    let got = trained_hash(RecurrentKind::Gru, TaskKind::SizeRegression);
    assert_eq!(got, 0x82cc2c070b25d0d2, "GRU size regression: {got:#018x}");
}

#[test]
fn lstm_next_user_training_bits_are_pinned() {
    let got = trained_hash(RecurrentKind::Lstm, TaskKind::NextUser);
    assert_eq!(got, 0xa178c8c82e808c03, "LSTM next-user: {got:#018x}");
}

#[test]
fn gru_next_user_training_bits_are_pinned() {
    let got = trained_hash(RecurrentKind::Gru, TaskKind::NextUser);
    assert_eq!(got, 0x94ae6f183e053e2b, "GRU next-user: {got:#018x}");
}
