//! The CasCN model (Fig. 2): ChebConv recurrence → time decay → sum
//! pooling → MLP.

use cascn_autograd::{AdamState, Eval, Exec, ParamId, ParamStore, Tape};
use cascn_cascades::Cascade;
use cascn_nn::{metrics, Activation, ChebConvGruCell, ChebConvLstmCell, Mlp, NextUserHead, TimeDecay};
use cascn_nn::train::History;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{StopperState, TrainCheckpoint};
use crate::config::{CascnConfig, DecayMode, Pooling, RecurrentKind, TaskKind};
use crate::error::CascnError;
use crate::input::{preprocess, PreprocessedCascade};
use crate::parallel::parallel_map;
use crate::trainer::{
    self, expect_trained, CheckpointPolicy, Objective, TrainHooks, TrainOpts,
};

/// The pre-sparse-input forward pass, compiled for tests only.
mod oracle;

/// The recurrent core, selected by [`RecurrentKind`].
#[derive(Debug, Clone)]
enum Cell {
    Lstm(ChebConvLstmCell),
    Gru(ChebConvGruCell),
}

/// CasCN and its config-level variants (`CasCN-GRU`, `CasCN-Undirected`,
/// `CasCN-Time`, and the Table V parameter grid).
#[derive(Debug, Clone)]
pub struct CascnModel {
    cfg: CascnConfig,
    store: ParamStore,
    cell: Cell,
    decay: TimeDecay,
    /// Attention projection (used only under [`Pooling::Attention`]).
    att_w: ParamId,
    /// Attention scoring vector.
    att_v: ParamId,
    mlp: Mlp,
    /// The microscopic next-user head (present iff `cfg.task == NextUser`).
    /// Registered after every size-task parameter, so size-regression
    /// checkpoints are layout-identical with or without this code path.
    next_head: Option<NextUserHead>,
}

/// One next-user training/evaluation example: the preprocessed cascade
/// prefix, the infected-user mask over the head's table, and the row of the
/// true next adopter.
#[derive(Debug, Clone)]
pub struct NextUserSample {
    /// The shared spectral-conv input for the observed prefix.
    pub pre: PreprocessedCascade,
    /// `mask[row]` is `true` for every already-infected user (and UNK).
    pub mask: Vec<bool>,
    /// Table row of the first adopter after the observation window.
    pub target_row: usize,
    /// That adopter's global user id.
    pub target_user: u64,
}

impl CascnModel {
    /// Builds an untrained model with seeded initialization.
    pub fn new(cfg: CascnConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let cell = match cfg.recurrent {
            RecurrentKind::Lstm => Cell::Lstm(ChebConvLstmCell::new(
                &mut store,
                "cascn.cell",
                cfg.k,
                cfg.max_nodes,
                cfg.hidden,
                &mut rng,
            )),
            RecurrentKind::Gru => Cell::Gru(ChebConvGruCell::new(
                &mut store,
                "cascn.cell",
                cfg.k,
                cfg.max_nodes,
                cfg.hidden,
                &mut rng,
            )),
        };
        let decay = TimeDecay::new(&mut store, "cascn.decay", cfg.decay_intervals);
        let att_w = store.register(
            "cascn.att.w",
            cascn_nn::init::xavier_uniform(cfg.hidden, cfg.hidden, &mut rng),
        );
        let att_v = store.register(
            "cascn.att.v",
            cascn_nn::init::xavier_uniform(cfg.hidden, 1, &mut rng),
        );
        let mlp = Mlp::new(
            &mut store,
            "cascn.mlp",
            &[cfg.hidden, cfg.mlp_hidden, 1],
            Activation::Relu,
            &mut rng,
        );
        let next_head = match cfg.task {
            TaskKind::SizeRegression => None,
            TaskKind::NextUser => {
                assert!(
                    cfg.vocab_users >= 1,
                    "task next-user requires vocab_users >= 1"
                );
                Some(NextUserHead::new(
                    &mut store,
                    "cascn.next",
                    cfg.hidden,
                    cfg.vocab_users + 1,
                    &mut rng,
                ))
            }
        };
        Self {
            cfg,
            store,
            cell,
            decay,
            att_w,
            att_v,
            mlp,
            next_head,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &CascnConfig {
        &self.cfg
    }

    /// The parameter store (for inspection and tests).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Replaces the parameter store (e.g. with a snapshot captured by a
    /// [`CascnModel::fit_observed`] observer).
    ///
    /// # Panics
    /// Panics if the store's parameter count differs from this model's.
    pub fn set_params(&mut self, store: ParamStore) {
        assert_eq!(
            store.len(),
            self.store.len(),
            "set_params: parameter count mismatch"
        );
        self.store = store;
    }

    /// Number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Forward pass to the pooled cascade representation `h(C_i(t))`
    /// (Eq. 17), a `1 x hidden` value.
    fn forward_representation<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s PreprocessedCascade,
    ) -> E::Value {
        let operands = sample.operands(ex);
        let inputs = sample.snapshots(self.cfg.max_nodes);
        let hs = match &self.cell {
            Cell::Lstm(cell) => cell.run(ex, store, &operands, &inputs, sample.n),
            Cell::Gru(cell) => cell.run(ex, store, &operands, &inputs, sample.n),
        };
        self.pool(ex, store, sample, &hs)
    }

    /// Eq. 16–17: re-weights each hidden state `hs[t]` by the decay of its
    /// snapshot time, then pools over time and nodes into `1 x hidden`.
    /// Each re-weighted state is folded in as soon as it is made, so an
    /// [`Eval`] holds one of them at a time.
    fn pool<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &PreprocessedCascade,
        hs: &[E::Value],
    ) -> E::Value {
        let table = (self.cfg.decay == DecayMode::Learned).then(|| self.decay.bind(ex, store));
        // Sum pooling: the running sum over time. Attention: one node-sum
        // row per snapshot.
        let mut acc: Option<E::Value> = None;
        let mut rows = Vec::new();
        for (t, h) in hs.iter().enumerate() {
            let weighted =
                decay_state(ex, &self.decay, self.cfg.decay, table.as_ref(), h, sample, t);
            match self.cfg.pooling {
                Pooling::Sum => {
                    acc = Some(match acc {
                        Some(a) => ex.add(&a, &weighted),
                        None => weighted,
                    });
                }
                Pooling::Attention => rows.push(ex.sum_rows(&weighted)),
            }
        }
        match self.cfg.pooling {
            // Eq. 17: sum over time, then over nodes.
            Pooling::Sum => {
                // lint: allow(no-panic) — preprocessing emits min(n, max_steps) ≥ 1 snapshot steps (n ≥ 1, max_steps clamped to ≥ 1), so the fold is never empty
                let summed = acc.expect("at least one snapshot");
                ex.sum_rows(&summed)
            }
            // Future-work extension: additive attention over snapshots.
            Pooling::Attention => {
                let stacked = ex.concat_rows(&rows); // T x hidden
                let w = ex.param(store, self.att_w);
                let v = ex.param(store, self.att_v);
                let proj = ex.matmul(&stacked, &w);
                let act = ex.tanh(&proj);
                let scores = ex.matmul(&act, &v); // T x 1
                let alpha = ex.softmax_col(&scores);
                let ones = ex.constant(cascn_tensor::Matrix::full(1, self.cfg.hidden, 1.0));
                let tiled = ex.matmul(&alpha, &ones);
                let mixed = ex.hadamard(&tiled, &stacked);
                ex.sum_rows(&mixed)
            }
        }
    }

    /// Full forward pass to the `1x1` predicted log-increment (Eq. 18):
    /// on a [`Tape`] for training, on an [`Eval`] for inference.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s PreprocessedCascade,
    ) -> E::Value {
        let rep = self.forward_representation(ex, store, sample);
        self.mlp.forward(ex, store, rep)
    }

    /// Preprocesses a cascade set (Fig. 3 sampling + Laplacian + Chebyshev
    /// bases), fanned out across `cfg.threads` workers. Preprocessing is a
    /// pure per-cascade function and results come back in cascade order, so
    /// the output is identical for any thread count.
    fn preprocess_all(&self, cascades: &[Cascade], window: f64) -> Vec<PreprocessedCascade> {
        parallel_map(self.cfg.threads, cascades, |_, c| {
            preprocess(c, window, &self.cfg)
        })
    }

    /// Trains the task `cfg.task` selects on `train`, early-stopping on
    /// `val` (Algorithm 2). Returns the loss history; the model keeps the
    /// best-validation parameters.
    ///
    /// # Panics
    /// Panics when `train` yields no trainable example;
    /// [`CascnModel::fit_resumable`] reports that as an error instead.
    pub fn fit(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> History {
        self.fit_observed(train, val, window, opts, &mut |_, _| {})
    }

    /// [`CascnModel::fit`] with fault tolerance: optionally resumes from a
    /// [`TrainCheckpoint`] and/or writes periodic checkpoints per the
    /// [`CheckpointPolicy`]. An interrupted run resumed from its checkpoint
    /// finishes bit-identically to an uninterrupted one, for either task.
    ///
    /// # Errors
    /// [`CascnError::Config`] when `train` yields no trainable example,
    /// [`CascnError::Architecture`] when `resume` was written by a model of
    /// another architecture or task, and checkpoint write failures.
    pub fn fit_resumable(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
        resume: Option<&TrainCheckpoint>,
        checkpoint: Option<&CheckpointPolicy>,
    ) -> Result<History, CascnError> {
        self.train(train, val, window, opts, resume, checkpoint, &mut |_, _| {})
    }

    /// [`CascnModel::fit`] with a per-epoch observer receiving the epoch
    /// index and the current parameters (used to trace metrics on
    /// sub-populations during training, as in Fig. 8).
    ///
    /// # Panics
    /// Panics when `train` yields no trainable example.
    pub fn fit_observed(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
        observer: &mut dyn FnMut(usize, &ParamStore),
    ) -> History {
        expect_trained(self.train(train, val, window, opts, None, None, observer))
    }

    /// Trains the next-user head (and the shared recurrent stack) with
    /// next-event cross-entropy: [`CascnModel::fit_resumable`] without
    /// checkpointing, on a model built for [`TaskKind::NextUser`].
    ///
    /// # Errors
    /// [`CascnError::Config`] when the model was built for another task or
    /// no cascade in `train` yields a trainable next-user example.
    pub fn fit_next_user(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> Result<History, CascnError> {
        if self.cfg.task != TaskKind::NextUser {
            return Err(CascnError::Config(
                "fit_next_user requires a model built with task next-user".into(),
            ));
        }
        self.fit_resumable(train, val, window, opts, None, None)
    }

    /// The one training path behind every `fit*` method: builds the samples
    /// `cfg.task` trains on and runs the shared loop. Size regression fits
    /// the log-increment of every preprocessed cascade; next-user fits the
    /// next-event cross-entropy of every prefix with an in-vocabulary
    /// target. Gradients are merged in example order, so the result is
    /// bit-identical for any thread count.
    #[allow(clippy::too_many_arguments)]
    fn train(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
        resume: Option<&TrainCheckpoint>,
        checkpoint: Option<&CheckpointPolicy>,
        observer: &mut dyn FnMut(usize, &ParamStore),
    ) -> Result<History, CascnError> {
        match self.cfg.task {
            TaskKind::SizeRegression => {
                let train_samples = self.preprocess_all(train, window);
                let train_labels: Vec<f32> = train_samples.iter().map(|s| s.label_log).collect();
                let val_samples = self.preprocess_all(val, window);
                let val_increments: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();
                let model = self.clone(); // immutable view for the closures
                let forward = |tape: &mut Tape, store: &ParamStore, s: &PreprocessedCascade| {
                    model.forward(tape, store, s)
                };
                let predict = |store: &ParamStore, s: &PreprocessedCascade| {
                    Eval::scalar(|ex| model.forward(ex, store, s))
                };
                let objective = Objective::Regression {
                    forward: &forward,
                    predict: &predict,
                    train_labels: &train_labels,
                    val_increments: &val_increments,
                };
                trainer::run(
                    &mut self.store,
                    &objective,
                    &train_samples,
                    &val_samples,
                    opts,
                    resume,
                    checkpoint,
                    observer,
                    TrainHooks::default(),
                )
            }
            TaskKind::NextUser => {
                let collect = |cascades: &[Cascade]| -> Vec<NextUserSample> {
                    parallel_map(self.cfg.threads, cascades, |_, c| {
                        self.next_sample(c, window)
                    })
                    .into_iter()
                    .flatten()
                    .collect()
                };
                let train_samples = collect(train);
                let val_samples = collect(val);
                let model = self.clone(); // immutable view for the closures
                let loss = |tape: &mut Tape, store: &ParamStore, s: &NextUserSample| {
                    model.next_loss(tape, store, s)
                };
                let score = |store: &ParamStore, s: &NextUserSample| {
                    Eval::scalar(|ex| model.next_loss(ex, store, s))
                };
                trainer::run(
                    &mut self.store,
                    &Objective::Ranked {
                        loss: &loss,
                        score: &score,
                    },
                    &train_samples,
                    &val_samples,
                    opts,
                    resume,
                    checkpoint,
                    observer,
                    TrainHooks::default(),
                )
            }
        }
    }

    /// Predicted log-increment `ln(1 + ΔS)` for a cascade.
    pub fn predict_log(&self, cascade: &Cascade, window: f64) -> f32 {
        let sample = preprocess(cascade, window, &self.cfg);
        self.predict_log_sample(&sample)
    }

    /// Predicted log-increment for an already-preprocessed sample — the
    /// entry point the serving layer uses after a spectral-cache hit
    /// ([`crate::preprocess_with_basis`]). `predict_log` is exactly
    /// `preprocess` followed by this, so cached and direct predictions are
    /// bit-identical. Runs on an [`Eval`], bit-identical to the tape
    /// forward.
    pub fn predict_log_sample(&self, sample: &PreprocessedCascade) -> f32 {
        Eval::scalar(|ex| self.forward(ex, &self.store, sample))
    }

    /// Predicted log-increments for a batch of cascades, with preprocessing
    /// and the forward passes fanned out across `cfg.threads` workers.
    /// Output order matches the input and is identical for any thread count.
    pub fn predict_logs(&self, cascades: &[Cascade], window: f64) -> Vec<f32> {
        crate::predictor::SizePredictor::predict_many(self, cascades, window, self.cfg.threads)
    }

    /// The learned cascade representation `h(C_i(t))` — the vector Fig. 9
    /// visualizes.
    pub fn representation(&self, cascade: &Cascade, window: f64) -> Vec<f32> {
        let sample = preprocess(cascade, window, &self.cfg);
        let mut ex = Eval::new();
        let rep = self.forward_representation(&mut ex, &self.store, &sample);
        ex.value(&rep).as_slice().to_vec()
    }

    /// Table row for a global user id: identity embedding with row 0
    /// reserved for out-of-vocabulary users. Users `0..vocab_users` map to
    /// rows `1..=vocab_users`; everything else folds to UNK.
    pub fn user_row(&self, user: u64) -> usize {
        match usize::try_from(user) {
            Ok(u) if u < self.cfg.vocab_users => u + 1,
            _ => 0,
        }
    }

    fn head(&self) -> &NextUserHead {
        self.next_head
            .as_ref()
            // lint: allow(no-panic) — internal invariant: the head exists whenever cfg.task == NextUser, which new() establishes for every next-user model
            .expect("next-user API requires cfg.task = next-user")
    }

    /// Infected-user mask over the head's table for an observed prefix:
    /// `mask[row]` is true for every user in `observed` plus the UNK row.
    pub fn infected_mask(&self, observed: &[u64]) -> Vec<bool> {
        let mut mask = vec![false; self.head().table_size()];
        mask[0] = true;
        for &u in observed {
            mask[self.user_row(u)] = true;
        }
        mask
    }

    /// Builds the next-user training example for a cascade prefix, or `None`
    /// when the prefix carries no supervision: nothing happens after the
    /// window, the next adopter is out of vocabulary, or (with a folding
    /// vocabulary) the target row is already infected.
    pub fn next_sample(&self, cascade: &Cascade, window: f64) -> Option<NextUserSample> {
        let observed = cascade.observed_size(window);
        let target = cascade.events.get(observed)?;
        let target_row = self.user_row(target.user);
        let prefix: Vec<u64> = cascade.events[..observed].iter().map(|e| e.user).collect();
        let mask = self.infected_mask(&prefix);
        if target_row == 0 || mask[target_row] {
            return None;
        }
        let pre = preprocess(cascade, window, &self.cfg);
        Some(NextUserSample {
            pre,
            mask,
            target_row,
            target_user: target.user,
        })
    }

    /// Next-event cross-entropy `-log p(u_next | C(t))` for one sample, as
    /// a `1x1` value: on a [`Tape`] for training, on an [`Eval`] for
    /// validation.
    pub fn next_loss<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s NextUserSample,
    ) -> E::Value {
        let rep = self.forward_representation(ex, store, &sample.pre);
        self.head()
            .loss(ex, store, rep, &sample.mask, sample.target_row)
    }

    /// Masked next-user probabilities over the head's table for an
    /// already-preprocessed prefix. Rows of users in `observed` (and UNK)
    /// have probability exactly `0.0`.
    pub fn next_probs(&self, sample: &PreprocessedCascade, observed: &[u64]) -> Vec<f32> {
        self.masked_probs(sample, &self.infected_mask(observed))
    }

    /// [`CascnModel::next_probs`] under an already-built infected mask, on
    /// an [`Eval`].
    fn masked_probs(&self, sample: &PreprocessedCascade, mask: &[bool]) -> Vec<f32> {
        let mut ex = Eval::new();
        let rep = self.forward_representation(&mut ex, &self.store, sample);
        self.head().predict_probs(&mut ex, &self.store, rep, mask)
    }

    /// Top-`k` next adopters `(user, probability)` for an
    /// already-preprocessed prefix — the entry point the serving layer uses
    /// after a spectral-cache hit, so cached and direct predictions are
    /// bit-identical. Already-infected users are excluded from the
    /// candidates; ties break toward the smaller user id.
    pub fn predict_next_sample(
        &self,
        sample: &PreprocessedCascade,
        observed: &[u64],
        k: usize,
    ) -> Vec<(u64, f32)> {
        let mask = self.infected_mask(observed);
        let probs = self.masked_probs(sample, &mask);
        let candidates: Vec<(usize, f32)> = (1..probs.len())
            .filter(|&row| !mask[row])
            .map(|row| (row, probs[row]))
            .collect();
        top_k(candidates, k)
            .into_iter()
            .map(|(row, p)| ((row - 1) as u64, p))
            .collect()
    }

    /// Top-`k` next adopters for a cascade observed up to `window`.
    /// Exactly `preprocess` + [`CascnModel::predict_next_sample`].
    pub fn predict_next(&self, cascade: &Cascade, window: f64, k: usize) -> Vec<(u64, f32)> {
        let sample = preprocess(cascade, window, &self.cfg);
        let observed: Vec<u64> = cascade.observe(window).users();
        self.predict_next_sample(&sample, &observed, k)
    }

    /// 0-based rank of the true next adopter among the uninfected candidate
    /// users (deterministic ties via [`metrics::rank_of`]), or `None` when
    /// the prefix has no in-vocabulary target. Feed these into
    /// [`metrics::hit_at_k`] / [`metrics::mean_average_precision`].
    pub fn next_user_rank(&self, cascade: &Cascade, window: f64) -> Option<usize> {
        let s = self.next_sample(cascade, window)?;
        let observed: Vec<u64> = cascade.observe(window).users();
        let probs = self.next_probs(&s.pre, &observed);
        metrics::masked_rank(&probs, &s.mask, s.target_row)
    }

    /// Ranks for every evaluable cascade in `cascades`, fanned out across
    /// `cfg.threads` workers in input order (bit-identical for any thread
    /// count). Cascades without a trainable target are skipped.
    pub fn next_user_ranks(&self, cascades: &[Cascade], window: f64) -> Vec<usize> {
        parallel_map(self.cfg.threads, cascades, |_, c| {
            self.next_user_rank(c, window)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Wraps the current parameters in a v2 [`TrainCheckpoint`] with empty
    /// optimizer state — the one model file: what `cascn train --out`
    /// writes, and what [`CascnModel::load`] and the serving registry
    /// consume.
    pub fn export_checkpoint(&self) -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: 0,
            shuffle_seed: 0,
            base_lr: 0.0,
            eff_lr: 0.0,
            bad_streak: 0,
            stopper: StopperState {
                patience: 0,
                best: f32::MAX,
                best_epoch: 0,
                stale: 0,
                epochs_seen: 0,
            },
            history: History::default(),
            adam: AdamState {
                step: 0,
                m: Vec::new(),
                v: Vec::new(),
            },
            params: self.store.clone(),
            best_params: Some(self.store.clone()),
        }
    }

    /// Loads a model file — the v2 train checkpoint `cascn train --out` and
    /// [`CascnModel::export_checkpoint`] write — into a freshly built model
    /// of configuration `cfg`, preferring the best validation-epoch
    /// parameters.
    ///
    /// # Errors
    /// Fails on I/O errors, a corrupt or non-v2 file (including the retired
    /// `# cascn params v1` format), or when the checkpoint does not cover
    /// every parameter of this architecture.
    pub fn load(cfg: CascnConfig, path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let ckpt = TrainCheckpoint::load(path).map_err(std::io::Error::other)?;
        Self::from_checkpoint(cfg, &ckpt).map_err(std::io::Error::other)
    }

    /// Builds an inference-ready model of configuration `cfg` from an
    /// in-memory [`TrainCheckpoint`], preferring the best-validation-epoch
    /// parameters — the constructor the serving registry uses after
    /// verifying a checkpoint file.
    ///
    /// # Errors
    /// [`CascnError::Architecture`] when the checkpoint does not cover
    /// every parameter of this architecture.
    pub fn from_checkpoint(cfg: CascnConfig, ckpt: &TrainCheckpoint) -> Result<Self, CascnError> {
        let params = ckpt.best_params.as_ref().unwrap_or(&ckpt.params);
        Self::with_params(cfg, params)
    }

    /// Builds a model of configuration `cfg` and restores `params` into it.
    ///
    /// # Errors
    /// [`CascnError::Architecture`] on a shape mismatch or when `params`
    /// does not cover every parameter of the architecture.
    pub fn with_params(cfg: CascnConfig, params: &ParamStore) -> Result<Self, CascnError> {
        let mut model = Self::new(cfg);
        let restored = model
            .store
            .restore_from(params)
            .map_err(CascnError::Architecture)?;
        if restored != model.store.len() {
            return Err(CascnError::Architecture(format!(
                "checkpoint restored {restored} of {} parameters — wrong architecture?",
                model.store.len()
            )));
        }
        Ok(model)
    }
}

/// Eq. 16: the hidden state `h` of snapshot `t` re-weighted under `mode` —
/// by the learned `λ_m` read from `table` (bound once per forward pass
/// under [`DecayMode::Learned`]), by a fixed kernel of the snapshot time,
/// or not at all.
pub(crate) fn decay_state<'s, E: Exec<'s>>(
    ex: &mut E,
    decay: &TimeDecay,
    mode: DecayMode,
    table: Option<&E::Value>,
    h: &E::Value,
    sample: &PreprocessedCascade,
    t: usize,
) -> E::Value {
    match (table, mode) {
        (Some(table), _) => decay.scale(ex, table, h, sample.times[t], sample.window),
        (None, DecayMode::None) => h.clone(),
        (None, kernel) => {
            let k = kernel.kernel(sample.times[t] / sample.window.max(f64::MIN_POSITIVE));
            ex.scale(h, k)
        }
    }
}

/// The `k` best `(row, probability)` candidates, probability descending
/// and then row ascending: a partial selection, then a sort of the `k`
/// selected. Rows are distinct, so the order is total and the result equals
/// a full sort truncated to `k`.
fn top_k(mut candidates: Vec<(usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    let order = |a: &(usize, f32), b: &(usize, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    if k < candidates.len() {
        candidates.select_nth_unstable_by(k, order);
        candidates.truncate(k);
    }
    candidates.sort_unstable_by(order);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_autograd::Var;
    use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
    use cascn_cascades::Split;

    fn tiny_cfg() -> CascnConfig {
        CascnConfig {
            hidden: 4,
            mlp_hidden: 4,
            max_nodes: 12,
            max_steps: 6,
            ..CascnConfig::default()
        }
    }

    fn tiny_data() -> cascn_cascades::Dataset {
        WeiboGenerator::new(WeiboConfig {
            num_cascades: 260,
            seed: 31,
            max_size: 200,
        })
        .generate()
        .filter_observed_size(3600.0, 3, 60)
    }

    #[test]
    fn forward_produces_scalar() {
        let model = CascnModel::new(tiny_cfg());
        let data = tiny_data();
        let sample = preprocess(&data.cascades[0], 3600.0, model.config());
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, model.params(), &sample);
        assert_eq!(tape.value(out).shape(), (1, 1));
        assert!(tape.value(out).all_finite());
    }

    #[test]
    fn representation_has_hidden_width() {
        let model = CascnModel::new(tiny_cfg());
        let data = tiny_data();
        let rep = model.representation(&data.cascades[0], 3600.0);
        assert_eq!(rep.len(), 4);
    }

    #[test]
    fn fit_improves_over_initialization() {
        let mut model = CascnModel::new(tiny_cfg());
        let data = tiny_data();
        let window = 3600.0;
        let train = data.split(Split::Train);
        let val = data.split(Split::Validation);
        assert!(train.len() >= 20, "need enough cascades, got {}", train.len());
        let opts = TrainOpts {
            epochs: 4,
            patience: 4,
            ..TrainOpts::default()
        };
        let hist = model.fit(train, val, window, &opts);
        let first = hist.records()[0].val_loss;
        let best = hist.best().unwrap().val_loss;
        assert!(
            best <= first,
            "validation loss should not get worse: {first} → {best}"
        );
        assert!(best.is_finite());
    }

    #[test]
    fn variants_share_the_same_interface() {
        use crate::config::Variant;
        let data = tiny_data();
        for variant in [Variant::Gru, Variant::Undirected, Variant::NoTimeDecay] {
            let cfg = tiny_cfg().with_variant(variant);
            let model = CascnModel::new(cfg);
            let p = model.predict_log(&data.cascades[0], 3600.0);
            assert!(p.is_finite(), "{variant:?} produced {p}");
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let mut model = CascnModel::new(tiny_cfg());
        let data = tiny_data();
        // Perturb a parameter so the checkpoint differs from init.
        let id = model.store.ids().next().unwrap();
        model.store.value_mut(id).as_mut_slice()[0] = 0.777;
        let dir = std::env::temp_dir().join("cascn_model_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        model.export_checkpoint().save(&path).unwrap();
        let loaded = CascnModel::load(tiny_cfg(), &path).unwrap();
        let a = model.predict_log(&data.cascades[0], 3600.0);
        let b = loaded.predict_log(&data.cascades[0], 3600.0);
        assert_eq!(a, b, "loaded model must predict identically");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let model = CascnModel::new(tiny_cfg());
        let dir = std::env::temp_dir().join("cascn_model_ckpt2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        model.export_checkpoint().save(&path).unwrap();
        let bigger = CascnConfig {
            hidden: 8,
            ..tiny_cfg()
        };
        let err = CascnModel::load(bigger, &path);
        assert!(err.is_err(), "differing hidden size must be rejected");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_v1_params_files_by_name() {
        let model = CascnModel::new(tiny_cfg());
        let dir = std::env::temp_dir().join("cascn_model_v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.params");
        std::fs::write(&path, model.params().to_text()).unwrap();
        let err = CascnModel::load(tiny_cfg(), &path).unwrap_err().to_string();
        assert!(err.contains("# cascn params v1"), "error must name the format: {err}");
        assert!(err.contains("no longer supported"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn attention_pooling_trains_and_differs_from_sum() {
        use crate::config::Pooling;
        let data = tiny_data();
        let sum_model = CascnModel::new(tiny_cfg());
        let att_model = CascnModel::new(CascnConfig {
            pooling: Pooling::Attention,
            ..tiny_cfg()
        });
        let c = &data.cascades[0];
        let a = sum_model.predict_log(c, 3600.0);
        let b = att_model.predict_log(c, 3600.0);
        assert!(a.is_finite() && b.is_finite());
        assert_ne!(a, b, "pooling modes must differ");
        // Attention mode must also train.
        let mut att_model = att_model;
        let train: Vec<_> = data.cascades.iter().take(30).cloned().collect();
        let hist = att_model.fit(
            &train,
            &[],
            3600.0,
            &TrainOpts {
                epochs: 1,
                ..TrainOpts::default()
            },
        );
        assert!(hist.records()[0].train_loss.is_finite());
    }

    #[test]
    fn from_checkpoint_prefers_best_params_and_matches_load() {
        use cascn_autograd::AdamState;
        use cascn_nn::train::History;
        use crate::checkpoint::{StopperState, TrainCheckpoint};

        let mut model = CascnModel::new(tiny_cfg());
        let id = model.store.ids().next().unwrap();
        model.store.value_mut(id).as_mut_slice()[0] = 0.5;
        let mut best = model.store.clone();
        best.value_mut(id).as_mut_slice()[0] = 0.9;
        let ckpt = TrainCheckpoint {
            epoch: 1,
            shuffle_seed: 3,
            base_lr: 1e-3,
            eff_lr: 1e-3,
            bad_streak: 0,
            stopper: StopperState {
                patience: 5,
                best: 1.0,
                best_epoch: 1,
                stale: 0,
                epochs_seen: 1,
            },
            history: History::new(),
            adam: AdamState { step: 0, m: vec![], v: vec![] },
            params: model.store.clone(),
            best_params: Some(best),
        };
        let restored = CascnModel::from_checkpoint(tiny_cfg(), &ckpt).unwrap();
        let rid = restored.store.ids().next().unwrap();
        assert_eq!(restored.store.value(rid).as_slice()[0], 0.9, "best params win");

        // Wrong architecture is an Architecture error, not a panic.
        let bigger = CascnConfig { hidden: 8, ..tiny_cfg() };
        let err = CascnModel::from_checkpoint(bigger, &ckpt).unwrap_err();
        assert!(matches!(err, crate::CascnError::Architecture(_)), "{err}");
    }

    #[test]
    fn predict_many_matches_serial_predict_log() {
        use crate::predictor::SizePredictor;
        let model = CascnModel::new(tiny_cfg());
        let data = tiny_data();
        let cascades: Vec<_> = data.cascades.iter().take(12).cloned().collect();
        let serial: Vec<f32> = cascades.iter().map(|c| model.predict_log(c, 3600.0)).collect();
        for threads in [1, 2, 0] {
            let batch = model.predict_many(&cascades, 3600.0, threads);
            let serial_bits: Vec<u32> = serial.iter().map(|x| x.to_bits()).collect();
            let batch_bits: Vec<u32> = batch.iter().map(|x| x.to_bits()).collect();
            assert_eq!(serial_bits, batch_bits, "threads={threads}");
        }
    }

    #[test]
    fn sparse_and_dense_kernels_agree_within_the_accuracy_gate() {
        let data = tiny_data();
        let model = CascnModel::new(tiny_cfg());
        for c in data.cascades.iter().take(8) {
            let s = preprocess(c, 3600.0, model.config());
            let a = model.predict_log_sample(&s);
            assert_eq!(a.to_bits(), model.predict_log(c, 3600.0).to_bits());
            let b = model.predict_log_sample(&s.with_dense_bases());
            assert!(
                (a - b).abs() < 5e-4,
                "kernel outputs diverged beyond the gate: sparse {a} vs dense {b}"
            );
        }
    }

    /// Gives every parameter a distinct nonzero value (biases and
    /// peepholes start at zero), so the oracle comparison exercises them.
    fn perturb(model: &mut CascnModel) {
        let ids: Vec<_> = model.store.ids().collect();
        for (i, id) in ids.into_iter().enumerate() {
            for (j, v) in model
                .store
                .value_mut(id)
                .as_mut_slice()
                .iter_mut()
                .enumerate()
            {
                *v += ((i * 7 + j * 13) % 11) as f32 * 0.02 - 0.1;
            }
        }
    }

    /// The head output and the per-parameter gradients of the loss that
    /// `run` returns as `(output, loss)`, on a fresh tape.
    fn output_and_grads(
        model: &CascnModel,
        run: impl Fn(&mut Tape, &ParamStore) -> (Var, Var),
    ) -> (f32, ParamStore) {
        let mut store = model.store.clone();
        store.zero_grads();
        let mut tape = Tape::new();
        let (out, loss) = run(&mut tape, &store);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        (tape.scalar(out), store)
    }

    #[test]
    fn sparse_input_matches_the_dense_input_oracle() {
        use crate::config::LaplacianKind;
        let data = tiny_data();
        let window = 3600.0;
        for recurrent in [RecurrentKind::Lstm, RecurrentKind::Gru] {
            for laplacian in [LaplacianKind::Directed, LaplacianKind::Undirected] {
                for dense in [false, true] {
                    for cfg in [tiny_cfg(), next_cfg()] {
                        let cfg = CascnConfig {
                            recurrent,
                            laplacian,
                            ..cfg
                        };
                        let oracle_bases = |s: PreprocessedCascade| {
                            if dense {
                                s.with_dense_bases()
                            } else {
                                s
                            }
                        };
                        let mut model = CascnModel::new(cfg);
                        perturb(&mut model);
                        let mut checked = 0;
                        for cascade in data.cascades.iter().take(12) {
                            let what = format!(
                                "{recurrent:?}/{laplacian:?}/dense={dense}/{:?}",
                                cfg.task
                            );
                            let (new, old) = match cfg.task {
                                TaskKind::SizeRegression => {
                                    let s = oracle_bases(preprocess(cascade, window, &cfg));
                                    let new = output_and_grads(&model, |t, st| {
                                        let pred = model.forward(t, st, &s);
                                        (pred, t.squared_error(pred, s.label_log))
                                    });
                                    let old = output_and_grads(&model, |t, st| {
                                        let rep = oracle::forward_representation(&model, t, st, &s);
                                        let pred = model.mlp.forward(t, st, rep);
                                        (pred, t.squared_error(pred, s.label_log))
                                    });
                                    (new, old)
                                }
                                TaskKind::NextUser => {
                                    let Some(mut s) = model.next_sample(cascade, window) else {
                                        continue;
                                    };
                                    s.pre = oracle_bases(s.pre);
                                    // The head's output is its cross-entropy.
                                    let new = output_and_grads(&model, |t, st| {
                                        let loss = model.next_loss(t, st, &s);
                                        (loss, loss)
                                    });
                                    let old = output_and_grads(&model, |t, st| {
                                        let rep =
                                            oracle::forward_representation(&model, t, st, &s.pre);
                                        let loss =
                                            model.head().loss(t, st, rep, &s.mask, s.target_row);
                                        (loss, loss)
                                    });
                                    (new, old)
                                }
                            };
                            checked += 1;
                            assert!(new.0.is_finite(), "{what}: output {}", new.0);
                            assert!(
                                (new.0 - old.0).abs() < 5e-4,
                                "{what}: output {} vs oracle {}",
                                new.0,
                                old.0
                            );
                            for id in model.store.ids() {
                                let diff = new.1.grad(id).sub(old.1.grad(id)).max_abs();
                                assert!(
                                    diff < 5e-4,
                                    "{what}: ∂{} off the oracle by {diff}",
                                    model.store.name(id)
                                );
                            }
                        }
                        assert!(checked >= 5, "only {checked} samples checked");
                    }
                }
            }
        }
    }

    #[test]
    fn forward_binds_each_parameter_once_and_holds_no_dense_snapshot() {
        let data = tiny_data();
        // 11 columns: no multiple of the hidden width (4) collides with it.
        let cfg = CascnConfig {
            max_nodes: 11,
            ..tiny_cfg()
        };
        for recurrent in [RecurrentKind::Lstm, RecurrentKind::Gru] {
            for dense in [false, true] {
                let model = CascnModel::new(CascnConfig { recurrent, ..cfg });
                let mut checked = 0;
                for cascade in &data.cascades[..20] {
                    let mut s = preprocess(cascade, 3600.0, model.config());
                    if dense {
                        s = s.with_dense_bases();
                    }
                    // At n = max_nodes the dense bases are n × max_nodes too.
                    if s.n == cfg.max_nodes {
                        continue;
                    }
                    checked += 1;
                    let mut tape = Tape::new();
                    let pred = model.forward(&mut tape, model.params(), &s);
                    assert!(
                        tape.values().all(|v| v.shape() != (s.n, cfg.max_nodes)),
                        "a dense n × max_nodes snapshot block reached the tape"
                    );
                    let loss = tape.squared_error(pred, s.label_log);
                    tape.backward(loss);
                    let grads = tape.param_grads();
                    assert!(
                        grads.len() <= model.params().len(),
                        "{} gradient entries for {} parameters: a parameter was bound per step",
                        grads.len(),
                        model.params().len()
                    );
                }
                assert!(checked >= 10, "only {checked} cascades below the node cap");
            }
        }
    }

    /// Every config in `cfgs` once per value in `values`, set by `set`.
    fn vary<T: Copy>(
        cfgs: Vec<CascnConfig>,
        values: &[T],
        set: impl Fn(&mut CascnConfig, T),
    ) -> Vec<CascnConfig> {
        let set = &set;
        cfgs.into_iter()
            .flat_map(|cfg| {
                values.iter().map(move |&v| {
                    let mut cfg = cfg;
                    set(&mut cfg, v);
                    cfg
                })
            })
            .collect()
    }

    /// The inference entry points run on an `Eval` and must equal the tape
    /// forward bit for bit on every axis the forward branches on — sparse
    /// and oracle-dense operands included — for the representation and for
    /// both heads.
    #[test]
    fn eval_is_bit_identical_to_the_tape_on_both_heads() {
        use crate::config::LaplacianKind;
        let data = tiny_data();
        let window = 3600.0;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let eval_rep = |model: &CascnModel, s: &PreprocessedCascade| {
            let mut ex = Eval::new();
            let rep = model.forward_representation(&mut ex, &model.store, s);
            ex.value(&rep).as_slice().to_vec()
        };
        let cfgs = vec![tiny_cfg(), next_cfg()];
        let cfgs = vary(cfgs, &[RecurrentKind::Lstm, RecurrentKind::Gru], |c, v| c.recurrent = v);
        let laplacians = [LaplacianKind::Directed, LaplacianKind::Undirected];
        let cfgs = vary(cfgs, &laplacians, |c, v| c.laplacian = v);
        let cfgs = vary(cfgs, &[Pooling::Sum, Pooling::Attention], |c, v| c.pooling = v);
        let decays = [
            DecayMode::Learned,
            DecayMode::PowerLaw,
            DecayMode::Exponential,
            DecayMode::Rayleigh,
            DecayMode::None,
        ];
        let cfgs = vary(cfgs, &decays, |c, v| c.decay = v);
        assert_eq!(cfgs.len(), 80);
        let mut losses_checked = 0;
        for cfg in cfgs {
            let mut model = CascnModel::new(cfg);
            perturb(&mut model);
            for cascade in data.cascades.iter().take(3) {
                // The next-user validation score: the training loss on an
                // `Eval`.
                let sample = (cfg.task == TaskKind::NextUser)
                    .then(|| model.next_sample(cascade, window))
                    .flatten();
                if let Some(sample) = sample {
                    let mut tape = Tape::new();
                    let loss = model.next_loss(&mut tape, &model.store, &sample);
                    let mut ex = Eval::new();
                    let eval_loss = model.next_loss(&mut ex, &model.store, &sample);
                    assert_eq!(
                        tape.scalar(loss).to_bits(),
                        ex.value(&eval_loss)[(0, 0)].to_bits(),
                        "next-user loss under {cfg:?}"
                    );
                    losses_checked += 1;
                }
                let sparse = preprocess(cascade, window, &cfg);
                let dense = sparse.clone().with_dense_bases();
                assert_eq!(
                    bits(&eval_rep(&model, &sparse)),
                    bits(&model.representation(cascade, window)),
                    "representation entry point under {cfg:?}"
                );
                for s in [sparse, dense] {
                    let what = format!("{cfg:?} dense={}", s.dense_bases.is_some());
                    let mut tape = Tape::new();
                    let rep = model.forward_representation(&mut tape, &model.store, &s);
                    assert_eq!(
                        bits(tape.value(rep).as_slice()),
                        bits(&eval_rep(&model, &s)),
                        "representation under {what}"
                    );
                    match cfg.task {
                        TaskKind::SizeRegression => {
                            let pred = model.mlp.forward(&mut tape, &model.store, rep);
                            assert_eq!(
                                tape.scalar(pred).to_bits(),
                                model.predict_log_sample(&s).to_bits(),
                                "size head under {what}"
                            );
                        }
                        TaskKind::NextUser => {
                            let observed = cascade.observe(window).users();
                            let mask = model.infected_mask(&observed);
                            let head = model.head();
                            let probs = head.predict_probs(&mut tape, &model.store, rep, &mask);
                            assert_eq!(
                                bits(&probs),
                                bits(&model.next_probs(&s, &observed)),
                                "next-user head under {what}"
                            );
                        }
                    }
                }
            }
        }
        assert!(losses_checked > 0, "no cascade yielded a next-user sample");
    }

    /// A paper-scale forward (100 nodes, 20 steps) on an `Eval` holds the
    /// per-step hidden states plus a fixed number of values, where the tape
    /// records every intermediate of every step; all of it is freed once
    /// the prediction is read.
    #[test]
    fn eval_holds_the_hidden_states_plus_a_constant() {
        use cascn_cascades::Event;
        const STEPS: usize = 20;
        // The bound cell parameters plus one step's intermediates: measured
        // at 16 for the LSTM and 23 for the GRU, whose tapes record 208 and
        // 421 nodes for the same forward.
        const EXTRA: usize = 23;
        let events = (0..120)
            .map(|i| Event {
                user: i as u64,
                parent: (i > 0).then_some(i / 2),
                time: i as f64 * 20.0,
            })
            .collect();
        let cascade = Cascade::new(1, 0.0, events);
        for recurrent in [RecurrentKind::Lstm, RecurrentKind::Gru] {
            let model = CascnModel::new(CascnConfig {
                k: 2,
                hidden: 32,
                max_nodes: 100,
                max_steps: STEPS,
                recurrent,
                ..CascnConfig::default()
            });
            let s = preprocess(&cascade, 3600.0, model.config());
            assert_eq!((s.n, s.num_steps()), (100, STEPS));
            let mut tape = Tape::new();
            model.forward(&mut tape, model.params(), &s);
            let mut ex = Eval::new();
            let pred = model.forward(&mut ex, model.params(), &s);
            drop(pred);
            assert_eq!(ex.live(), 0, "{recurrent:?}: values outlived the forward");
            assert!(
                ex.peak_live() <= STEPS + EXTRA,
                "{recurrent:?}: eval peaked at {} live values (tape: {} nodes)",
                ex.peak_live(),
                tape.len()
            );
        }
        // Pooling holds one decayed state beside the hidden states: the
        // running sum, the state being folded in, and the new sum.
        let model = CascnModel::new(CascnConfig {
            hidden: 32,
            max_nodes: 100,
            max_steps: STEPS,
            ..CascnConfig::default()
        });
        let s = preprocess(&cascade, 3600.0, model.config());
        let mut ex = Eval::new();
        let hs: Vec<_> = (0..STEPS)
            .map(|_| ex.constant(cascn_tensor::Matrix::full(100, 32, 0.5)))
            .collect();
        model.pool(&mut ex, model.params(), &s, &hs);
        assert_eq!(ex.peak_live(), STEPS + 3, "pooling kept decayed states alive");
    }

    #[test]
    fn top_k_selection_equals_the_full_sort() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(5);
        for len in [0usize, 1, 2, 7, 60] {
            // Four distinct probabilities, so ties are everywhere; rows are
            // distinct but out of order.
            let candidates: Vec<(usize, f32)> = (0..len)
                .map(|i| ((i * 37) % 61 + 1, rng.random_range(0..4) as f32 * 0.25))
                .collect();
            let mut full = candidates.clone();
            full.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            for k in [0, 1, len / 2, len, len + 3] {
                let expect = &full[..k.min(len)];
                assert_eq!(top_k(candidates.clone(), k), expect, "len {len}, k {k}");
            }
        }
    }

    #[test]
    fn seeded_models_are_reproducible() {
        let data = tiny_data();
        let a = CascnModel::new(tiny_cfg()).predict_log(&data.cascades[1], 3600.0);
        let b = CascnModel::new(tiny_cfg()).predict_log(&data.cascades[1], 3600.0);
        assert_eq!(a, b);
    }

    fn next_cfg() -> CascnConfig {
        CascnConfig {
            task: TaskKind::NextUser,
            vocab_users: 5000,
            ..tiny_cfg()
        }
    }

    #[test]
    fn next_user_task_adds_a_head_without_touching_the_size_layout() {
        let size = CascnModel::new(tiny_cfg());
        let next = CascnModel::new(next_cfg());
        assert!(next.num_parameters() > size.num_parameters());
        // Every size-task parameter restores into the next-user model: the
        // head is appended after the shared stack, not interleaved.
        let mut probe = CascnModel::new(next_cfg());
        let restored = probe.store.restore_from(size.params()).unwrap();
        assert_eq!(restored, size.params().len());
    }

    #[test]
    fn infected_users_have_zero_probability_and_never_rank() {
        let model = CascnModel::new(next_cfg());
        let data = tiny_data();
        let window = 3600.0;
        let mut checked = 0usize;
        for cascade in data.cascades.iter().take(40) {
            let Some(sample) = model.next_sample(cascade, window) else {
                continue;
            };
            checked += 1;
            let observed: Vec<u64> = cascade.observe(window).users();
            let probs = model.next_probs(&sample.pre, &observed);
            for &u in &observed {
                assert_eq!(
                    probs[model.user_row(u)],
                    0.0,
                    "infected user {u} must carry exactly zero probability"
                );
            }
            assert_eq!(probs[0], 0.0, "UNK row must stay masked");
            let total: f32 = probs.iter().sum();
            assert!((total - 1.0).abs() < 1e-4, "probs sum to {total}");
            // Ranked candidates exclude every infected user at any k.
            let top = model.predict_next(cascade, window, probs.len());
            for &(u, _) in &top {
                assert!(
                    !observed.contains(&u),
                    "infected user {u} leaked into the ranking"
                );
            }
            // Ranking is sorted by probability, ties toward smaller ids.
            for pair in top.windows(2) {
                assert!(
                    pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                    "ranking order violated: {pair:?}"
                );
            }
        }
        assert!(checked >= 10, "only {checked} cascades had a next-user target");
    }

    #[test]
    fn next_probs_are_bit_identical_across_thread_counts() {
        let data = tiny_data();
        let window = 3600.0;
        let ranks: Vec<Vec<usize>> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let model = CascnModel::new(CascnConfig {
                    threads,
                    ..next_cfg()
                });
                model.next_user_ranks(&data.cascades[..40], window)
            })
            .collect();
        assert!(!ranks[0].is_empty());
        assert_eq!(ranks[0], ranks[1], "1 vs 2 threads diverged");
        assert_eq!(ranks[0], ranks[2], "1 vs 4 threads diverged");
    }

    #[test]
    fn fit_next_user_learns_and_is_thread_invariant() {
        let data = tiny_data();
        let window = 3600.0;
        let opts = TrainOpts {
            epochs: 3,
            patience: 3,
            ..TrainOpts::default()
        };
        let run = |threads: usize| {
            let mut model = CascnModel::new(CascnConfig {
                threads,
                ..next_cfg()
            });
            let hist = model
                .fit_next_user(
                    &data.split(Split::Train)[..30],
                    &data.split(Split::Validation)[..10],
                    window,
                    &TrainOpts { threads, ..opts },
                )
                .unwrap();
            (model, hist)
        };
        let (m1, h1) = run(1);
        let (m4, h4) = run(4);
        let first = h1.records()[0].val_loss;
        let best = h1.best().unwrap().val_loss;
        assert!(
            best <= first,
            "next-user validation loss should not get worse: {first} → {best}"
        );
        for (a, b) in h1.records().iter().zip(h4.records()) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.val_loss.to_bits(), b.val_loss.to_bits());
        }
        for c in data.cascades.iter().take(5) {
            let p1 = m1.predict_next(c, window, 5);
            let p4 = m4.predict_next(c, window, 5);
            assert_eq!(p1.len(), p4.len());
            for (a, b) in p1.iter().zip(&p4) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    #[test]
    fn next_user_fit_rolls_back_injected_non_finite_gradients() {
        use cascn_nn::train::AnomalyKind;
        let data = tiny_data();
        let window = 3600.0;
        let mut model = CascnModel::new(next_cfg());
        let samples: Vec<NextUserSample> = data.split(Split::Train)[..24]
            .iter()
            .filter_map(|c| model.next_sample(c, window))
            .collect();
        assert!(samples.len() >= 12, "only {} next-user samples", samples.len());
        let view = model.clone();
        let loss = |tape: &mut Tape, store: &ParamStore, s: &NextUserSample| {
            view.next_loss(tape, store, s)
        };
        let opts = TrainOpts {
            epochs: 3,
            patience: 3,
            batch_size: 4,
            guard: crate::trainer::GuardOpts {
                rollback_after: 2,
                ..Default::default()
            },
            ..TrainOpts::default()
        };
        // Poison every gradient of epoch 2: two bad batches in a row must
        // roll the model back to the epoch-1 snapshot.
        let mut inject = |epoch: usize, _batch: usize, s: &mut ParamStore| {
            if epoch == 2 {
                let id = s.ids().next().unwrap();
                let mut g = s.grad(id).clone();
                g.as_mut_slice()[0] = f32::NAN;
                s.zero_grads();
                s.accumulate_grad(id, &g);
            }
        };
        let score = |store: &ParamStore, s: &NextUserSample| {
            Eval::scalar(|ex| view.next_loss(ex, store, s))
        };
        let hist = trainer::run(
            &mut model.store,
            &Objective::Ranked {
                loss: &loss,
                score: &score,
            },
            &samples,
            &[],
            &opts,
            None,
            None,
            &mut |_, _| {},
            TrainHooks {
                post_grad: Some(&mut inject),
            },
        )
        .unwrap();
        assert!(
            hist.anomalies().iter().any(|a| a.kind == AnomalyKind::Rollback),
            "expected a rollback: {:?}",
            hist.anomalies()
        );
        assert!(!model.store.values_non_finite(), "parameters must end finite");
    }

    #[test]
    fn resuming_a_size_checkpoint_as_next_user_is_an_architecture_error() {
        let data = tiny_data();
        let window = 3600.0;
        let dir = std::env::temp_dir().join("cascn_model_cross_task");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("size.ckpt");
        let opts = TrainOpts {
            epochs: 1,
            ..TrainOpts::default()
        };
        let policy = CheckpointPolicy {
            path: path.clone(),
            every: 1,
        };
        let train = &data.split(Split::Train)[..20];
        CascnModel::new(tiny_cfg())
            .fit_resumable(train, &[], window, &opts, None, Some(&policy))
            .unwrap();
        let ckpt = TrainCheckpoint::load(&path).unwrap();
        let err = CascnModel::new(next_cfg())
            .fit_resumable(train, &[], window, &opts, Some(&ckpt), None)
            .unwrap_err();
        assert!(matches!(err, CascnError::Architecture(_)), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fit_next_user_rejects_an_untrainable_split() {
        let data = tiny_data();
        // An observation window past every event leaves no next adopter.
        let err = CascnModel::new(next_cfg())
            .fit_next_user(&data.cascades[..20], &[], 1e12, &TrainOpts::default())
            .unwrap_err();
        assert!(matches!(err, CascnError::Config(_)), "{err}");
        let err = CascnModel::new(tiny_cfg())
            .fit_next_user(&data.cascades[..20], &[], 3600.0, &TrainOpts::default())
            .unwrap_err();
        assert!(matches!(err, CascnError::Config(_)), "{err}");
    }

    #[test]
    fn predict_next_matches_predict_next_sample_bit_for_bit() {
        let model = CascnModel::new(next_cfg());
        let data = tiny_data();
        let window = 3600.0;
        let cascade = &data.cascades[2];
        let direct = model.predict_next(cascade, window, 10);
        let sample = preprocess(cascade, window, model.config());
        let observed: Vec<u64> = cascade.observe(window).users();
        let via_sample = model.predict_next_sample(&sample, &observed, 10);
        assert_eq!(direct.len(), via_sample.len());
        for (a, b) in direct.iter().zip(&via_sample) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn exported_checkpoint_round_trips_through_load() {
        let model = CascnModel::new(next_cfg());
        let data = tiny_data();
        let ckpt = model.export_checkpoint();
        let dir = std::env::temp_dir().join("cascn-next-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("next.ckpt");
        std::fs::write(&path, ckpt.to_text()).unwrap();
        let loaded = CascnModel::load(next_cfg(), &path).unwrap();
        let a = model.predict_next(&data.cascades[0], 3600.0, 5);
        let b = loaded.predict_next(&data.cascades[0], 3600.0, 5);
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn next_user_ranks_feed_hit_at_k_and_map() {
        let model = CascnModel::new(next_cfg());
        let data = tiny_data();
        let ranks = model.next_user_ranks(&data.cascades[..40], 3600.0);
        assert!(!ranks.is_empty());
        let h10 = metrics::hit_at_k(&ranks, 10);
        let map = metrics::mean_average_precision(&ranks);
        assert!((0.0..=1.0).contains(&h10));
        assert!((0.0..=1.0).contains(&map));
    }
}
