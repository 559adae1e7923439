//! Pins the exact bits each trained deep baseline produces. A short run of
//! a tiny config on one thread must leave parameters, a per-epoch loss
//! history and validation predictions whose FNV-1a hashes equal the values
//! recorded below.
//!
//! Every run lasts at least three epochs with a patience of at least
//! three, so validation — not the last epoch — chooses the parameters the
//! run returns: the hashes hold the validation scorer to the bits of the
//! training forward. They are pinned to this toolchain: a compiler or libm
//! whose `exp`/`tanh` round differently changes them without any change to
//! the model code.

use cascn::{fnv1a64, SizePredictor, TrainOpts};
use cascn_autograd::ParamStore;
use cascn_baselines::{
    DeepCas, DeepHawkes, FeatureDeep, Node2VecModel, Node2VecModelConfig, TopoLstm,
};
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Cascade, Dataset, Split};
use cascn_nn::train::History;

const WINDOW: f64 = 3600.0;
const HIDDEN: usize = 4;

fn tiny_data() -> Dataset {
    weibo(120)
}

fn weibo(num_cascades: usize) -> Dataset {
    WeiboGenerator::new(WeiboConfig {
        num_cascades,
        seed: 61,
        max_size: 80,
    })
    .generate()
    .filter_observed_size(WINDOW, 3, 30)
}

fn opts() -> TrainOpts {
    TrainOpts {
        epochs: 4,
        patience: 3,
        batch_size: 16,
        lr: 0.02,
        threads: 1,
        ..TrainOpts::default()
    }
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
fn pins(
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
        hash_f32s(
            store
                .ids()
                .flat_map(|id| store.value(id).as_slice().to_vec()),
        ),
        hash_f32s(
            history
                .records()
                .iter()
                .flat_map(|r| [r.train_loss, r.val_loss]),
        ),
        hash_f32s(val.iter().map(|c| model.predict_log(c, WINDOW))),
    ]
}

#[test]
fn deepcas_training_bits_are_pinned() {
    let data = tiny_data();
    let (train, val) = (data.split(Split::Train), data.split(Split::Validation));
    let mut model = DeepCas::new(train, WINDOW, HIDDEN, 1);
    let history = model.fit(train, val, WINDOW, &opts());
    let got = pins(model.params(), &history, &model, val);
    assert_eq!(
        got,
        [0x950686cc1a0787cc, 0xfd933533ea682c63, 0xc8272a4fb5505165,],
        "DeepCas: {got:#018x?}"
    );
}

#[test]
fn deephawkes_training_bits_are_pinned() {
    let data = tiny_data();
    let (train, val) = (data.split(Split::Train), data.split(Split::Validation));
    let mut model = DeepHawkes::new(train, WINDOW, HIDDEN, 1);
    let history = model.fit(train, val, WINDOW, &opts());
    let got = pins(model.params(), &history, &model, val);
    assert_eq!(
        got,
        [0x9dc5ec48a519274f, 0x0b0d6c07e0592073, 0x4a672f53fa31a108,],
        "DeepHawkes: {got:#018x?}"
    );
}

#[test]
fn topolstm_size_training_bits_are_pinned() {
    let data = tiny_data();
    let (train, val) = (data.split(Split::Train), data.split(Split::Validation));
    let mut model = TopoLstm::new(train, WINDOW, HIDDEN, 1);
    let history = model.fit(train, val, WINDOW, &opts());
    let got = pins(model.params(), &history, &model, val);
    assert_eq!(
        got,
        [0x6a3de132c2345e27, 0xcbb64d797dd9dd71, 0xeac4a2a37f9d2c9f,],
        "Topo-LSTM size: {got:#018x?}"
    );
}

#[test]
fn topolstm_next_user_training_bits_are_pinned() {
    // Next-user targets must be in the training vocabulary, which few
    // prefixes of a small corpus reach.
    let data = weibo(600);
    let (train, val) = (data.split(Split::Train), data.split(Split::Validation));
    let mut model = TopoLstm::new_next_user(train, WINDOW, HIDDEN, 1);
    let history = model
        .fit_next_user(train, val, WINDOW, &opts())
        .expect("next-user fit");
    let got = pins(model.params(), &history, &model, val);
    assert_eq!(
        got,
        [0x21cd44ad35c49259, 0x1bbb21cde05ca40e, 0xb8dc855087f3722e,],
        "Topo-LSTM next-user: {got:#018x?}"
    );
    let ranks = model.next_user_ranks(&data.cascades, WINDOW);
    let bytes: Vec<u8> = ranks
        .iter()
        .flat_map(|&r| (r as u64).to_le_bytes())
        .collect();
    let got = (ranks.len(), fnv1a64(&bytes));
    assert_eq!(
        got,
        (110, 0xa461e91ed6f9f815),
        "Topo-LSTM next-user ranks: {got:#018x?}"
    );
}

#[test]
fn node2vec_head_training_bits_are_pinned() {
    let data = tiny_data();
    let (train, val) = (data.split(Split::Train), data.split(Split::Validation));
    let (model, history) =
        Node2VecModel::fit(train, val, WINDOW, Node2VecModelConfig::default(), &opts());
    let got = pins(model.params(), &history, &model, val);
    assert_eq!(
        got,
        [0x4c5216596a1deaf3, 0x6807bca95f811202, 0x150a0286491afe63,],
        "Node2Vec head: {got:#018x?}"
    );
}

#[test]
fn feature_deep_training_bits_are_pinned() {
    let data = tiny_data();
    let (train, val) = (data.split(Split::Train), data.split(Split::Validation));
    let mut model = FeatureDeep::new(1);
    let history = model.fit(train, val, WINDOW, &opts());
    let got = pins(model.params(), &history, &model, val);
    assert_eq!(
        got,
        [0xd02afeabed0ebf9e, 0xbbff690b72cb396a, 0x3c0c34f93ca3a814,],
        "Feature-deep: {got:#018x?}"
    );
}
