//! Pins the exact bits training produces. One epoch of the tiny config on
//! one thread, for both recurrent cells and both heads, must leave
//! parameters whose FNV-1a hash equals the value recorded below.
//!
//! The GL and Path ablations run four epochs with a patience of three, so
//! validation chooses the parameters they return; their pins also hash the
//! per-epoch loss history and the validation predictions.
//!
//! The hashes were recorded before the Chebyshev-LSTM/GRU cells ran on
//! fused tape ops, from the op-by-op tape, so they hold the fused backward
//! to the unfused one's accumulation order. They are pinned to this
//! toolchain: a compiler or libm whose `exp`/`tanh` round differently
//! changes them without any change to the model code.

use cascn::{
    fnv1a64, CascnConfig, CascnModel, GlModel, PathModel, RecurrentKind, SizePredictor, TaskKind,
    TrainOpts,
};
use cascn_autograd::ParamStore;
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Cascade, Dataset, Split};
use cascn_nn::train::History;

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

fn hash_f32s(values: impl IntoIterator<Item = f32>) -> u64 {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Hashes of the parameters, of every epoch's `(train_loss, val_loss)` and
/// of `predict_log` over `val`, as `[params, history, predictions]`.
fn ablation_pins(
    store: &ParamStore,
    history: &History,
    model: &dyn SizePredictor,
    val: &[Cascade],
) -> [u64; 3] {
    assert!(
        history.records().len() >= 3,
        "the run must last three epochs"
    );
    [
        params_hash(store),
        hash_f32s(
            history
                .records()
                .iter()
                .flat_map(|r| [r.train_loss, r.val_loss]),
        ),
        hash_f32s(val.iter().map(|c| model.predict_log(c, WINDOW))),
    ]
}

fn ablation_opts() -> TrainOpts {
    TrainOpts {
        epochs: 4,
        patience: 3,
        batch_size: 16,
        lr: 0.02,
        threads: 1,
        ..TrainOpts::default()
    }
}

#[test]
fn gl_training_bits_are_pinned() {
    let data = tiny_data();
    let (train, val) = (data.split(Split::Train), data.split(Split::Validation));
    let mut model = GlModel::new(tiny_cfg(RecurrentKind::Lstm, TaskKind::SizeRegression, 0));
    let history = model.fit(train, val, WINDOW, &ablation_opts());
    let got = ablation_pins(model.params(), &history, &model, val);
    assert_eq!(
        got,
        [0x4f40977f5fd86b91, 0x6671ab0a7b251ab2, 0xf56c60184aa1ac73,],
        "CasCN-GL: {got:#018x?}"
    );
}

#[test]
fn path_training_bits_are_pinned() {
    let data = tiny_data();
    let (train, val) = (data.split(Split::Train), data.split(Split::Validation));
    let cfg = tiny_cfg(RecurrentKind::Lstm, TaskKind::SizeRegression, 0);
    let mut model = PathModel::new(cfg, train, WINDOW);
    let history = model.fit(train, val, WINDOW, &ablation_opts());
    let got = ablation_pins(model.params(), &history, &model, val);
    assert_eq!(
        got,
        [0x458875f8258891dd, 0xdd802645cf1b703d, 0x07bbcc8f188fd63c,],
        "CasCN-Path: {got:#018x?}"
    );
}
