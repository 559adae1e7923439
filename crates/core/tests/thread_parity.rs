//! The parallel engine's determinism contract, end to end: training,
//! preprocessing, and evaluation must be **bit-identical** for every thread
//! count. This is what lets `--threads N` compose with PR 1's resume-parity
//! guarantee — a run checkpointed under one thread count can resume under
//! another and still finish byte-identical.

use cascn::{
    try_evaluate, CascnConfig, CascnModel, GlModel, PathModel, RecurrentKind, TaskKind, TrainOpts,
};
use cascn_autograd::ParamStore;
use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
use cascn_cascades::{Dataset, Split};

fn tiny_cfg(threads: usize) -> CascnConfig {
    CascnConfig {
        hidden: 4,
        mlp_hidden: 4,
        max_nodes: 12,
        max_steps: 6,
        threads,
        ..CascnConfig::default()
    }
}

fn tiny_data() -> Dataset {
    WeiboGenerator::new(WeiboConfig {
        num_cascades: 200,
        seed: 61,
        max_size: 150,
    })
    .generate()
    .filter_observed_size(3600.0, 3, 60)
}

fn params_bits(store: &ParamStore) -> Vec<u32> {
    store
        .ids()
        .flat_map(|id| store.value(id).as_slice().to_vec())
        .map(f32::to_bits)
        .collect()
}

fn train_with(threads: usize) -> (CascnModel, cascn_nn::train::History) {
    let data = tiny_data();
    let opts = TrainOpts {
        epochs: 3,
        patience: 3,
        threads,
        ..TrainOpts::default()
    };
    let mut model = CascnModel::new(tiny_cfg(threads));
    let hist = model.fit(
        data.split(Split::Train),
        data.split(Split::Validation),
        3600.0,
        &opts,
    );
    (model, hist)
}

/// The headline acceptance test: a run with 4 worker threads produces
/// byte-identical parameters and an identical loss history to the serial
/// run from the same seed.
#[test]
fn threaded_training_is_bit_identical_to_serial() {
    let (serial_model, serial_hist) = train_with(1);
    for threads in [2, 4] {
        let (model, hist) = train_with(threads);
        assert_eq!(
            params_bits(serial_model.params()),
            params_bits(model.params()),
            "parameters diverged at {threads} threads"
        );
        assert_eq!(
            serial_hist.records(),
            hist.records(),
            "loss history diverged at {threads} threads"
        );
    }
}

/// `threads: 0` (auto) also lands on the identical result, whatever the
/// machine's core count resolves to.
#[test]
fn auto_thread_count_matches_serial() {
    let (serial_model, _) = train_with(1);
    let (auto_model, _) = train_with(0);
    assert_eq!(
        params_bits(serial_model.params()),
        params_bits(auto_model.params())
    );
}

/// Prediction sweeps are thread-count invariant too (they share the same
/// `parallel_map` reduction and run on the forward-only `Eval`), for both
/// heads.
#[test]
fn prediction_and_evaluation_are_thread_count_invariant() {
    let data = tiny_data();
    let test = data.split(Split::Test);
    let window = 3600.0;

    let serial = CascnModel::new(tiny_cfg(1));
    let preds = |threads: usize| -> Vec<u32> {
        CascnModel::new(tiny_cfg(threads))
            .predict_logs(test, window)
            .into_iter()
            .map(f32::to_bits)
            .collect()
    };
    let serial_preds = preds(1);
    for threads in [2, 4] {
        assert_eq!(serial_preds, preds(threads), "size head at {threads} threads");
    }

    let a = try_evaluate(&serial, test, window, 1).unwrap();
    let b = try_evaluate(&serial, test, window, 4).unwrap();
    assert_eq!(a.to_bits(), b.to_bits());

    let ranks = |threads: usize| {
        CascnModel::new(CascnConfig {
            task: TaskKind::NextUser,
            vocab_users: 2000,
            ..tiny_cfg(threads)
        })
        .next_user_ranks(&data.cascades, window)
    };
    let serial_ranks = ranks(1);
    assert!(serial_ranks.len() >= 20, "only {} ranked prefixes", serial_ranks.len());
    for threads in [2, 4] {
        assert_eq!(serial_ranks, ranks(threads), "next-user head at {threads} threads");
    }
}

/// The GL and Path variants route preprocessing through the same parallel
/// fan-out in their `fit`, and CasCN-GRU trains its own fused cell; one
/// epoch under 3 threads must match serial.
#[test]
fn variant_training_is_thread_count_invariant() {
    let data = tiny_data();
    let window = 3600.0;
    let train = data.split(Split::Train);
    let val = data.split(Split::Validation);

    let run_gru = |threads: usize| {
        let mut m = CascnModel::new(CascnConfig {
            recurrent: RecurrentKind::Gru,
            ..tiny_cfg(threads)
        });
        let opts = TrainOpts { epochs: 1, threads, ..TrainOpts::default() };
        let h = m.fit(train, val, window, &opts);
        (h.records().to_vec(), params_bits(m.params()))
    };
    assert_eq!(run_gru(1), run_gru(3));

    let run_gl = |threads: usize| {
        let mut m = GlModel::new(tiny_cfg(threads));
        let opts = TrainOpts { epochs: 1, threads, ..TrainOpts::default() };
        let h = m.fit(train, val, window, &opts);
        (h.records().to_vec(), m.predict_log(&data.cascades[0], window).to_bits())
    };
    assert_eq!(run_gl(1), run_gl(3));

    let run_path = |threads: usize| {
        let mut m = PathModel::new(tiny_cfg(threads), train, window);
        let opts = TrainOpts { epochs: 1, threads, ..TrainOpts::default() };
        let h = m.fit(train, val, window, &opts);
        (h.records().to_vec(), m.predict_log(&data.cascades[0], window).to_bits())
    };
    assert_eq!(run_path(1), run_path(3));
}
