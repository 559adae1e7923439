//! The Algorithm 2 training loop, shared by CasCN (size regression and the
//! next-user head), its variants, and the deep baselines — hardened with an
//! anomaly guard, periodic resumable checkpoints, and deterministic
//! fault-injection hooks. [`run`] is the one loop; an [`Objective`] supplies
//! its per-sample loss and validation score, and [`fit`] is its shorthand
//! for runs without resume, checkpoints or hooks. Every model passes its
//! forward on a [`Tape`] for training and the same forward on an
//! [`cascn_autograd::Eval`] for validation; the two are bit-identical, so
//! validation picks the epoch the tape would, without recording.

use std::path::PathBuf;

use cascn_autograd::{Adam, AdamState, Optimizer, ParamStore, Tape, Var};
use cascn_nn::metrics;
use cascn_nn::train::{shuffled_batches, AnomalyKind, EarlyStopping, History};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{StopperState, TrainCheckpoint};
use crate::error::CascnError;
use crate::parallel::parallel_map;

/// Anomaly-guard configuration: what the training loop does when a batch
/// produces a non-finite loss, gradient, or parameter update.
#[derive(Debug, Clone, Copy)]
pub struct GuardOpts {
    /// Master switch; when false the loop behaves exactly like the unguarded
    /// Algorithm 2.
    pub enabled: bool,
    /// Multiplier applied to the effective learning rate after a bad batch.
    pub lr_backoff: f32,
    /// Multiplier applied after a good batch, recovering toward the base
    /// learning rate (never exceeding it).
    pub lr_recovery: f32,
    /// Number of *consecutive* bad batches after which the parameters and
    /// optimizer are rolled back to the last good epoch snapshot.
    pub rollback_after: usize,
}

impl Default for GuardOpts {
    fn default() -> Self {
        Self {
            enabled: true,
            lr_backoff: 0.5,
            lr_recovery: 1.25,
            rollback_after: 5,
        }
    }
}

/// Training options (paper defaults: Adam, learning rate 5e-3, batch 32,
/// stop after 10 stagnant validation epochs).
#[derive(Debug, Clone, Copy)]
pub struct TrainOpts {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged within a batch).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Early-stopping patience in epochs.
    pub patience: usize,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Seed for batch shuffling.
    pub shuffle_seed: u64,
    /// Worker threads for per-example forward/backward passes and
    /// validation sweeps: `1` (the default) is the exact serial path, `0`
    /// means all available parallelism. Any value produces bit-identical
    /// results — gradients are reduced in fixed example order (see
    /// [`crate::parallel`]).
    pub threads: usize,
    /// Anomaly-guard behavior.
    pub guard: GuardOpts,
}

impl Default for TrainOpts {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 32,
            lr: 5e-3,
            patience: 10,
            grad_clip: 5.0,
            shuffle_seed: 7,
            threads: 1,
            guard: GuardOpts::default(),
        }
    }
}

/// When and where the loop writes resumable checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file (written atomically, overwritten in place).
    pub path: PathBuf,
    /// Write after every `every` completed epochs (0 disables).
    pub every: usize,
}

/// Signature of the post-gradient hook: 1-based epoch, 0-based batch index,
/// and the parameter store whose gradients were just accumulated.
pub type PostGradHook<'a> = &'a mut dyn FnMut(usize, usize, &mut ParamStore);

/// Test and fault-injection hooks into the training loop. All hooks default
/// to `None`; production runs never pay for them.
#[derive(Default)]
pub struct TrainHooks<'a> {
    /// Called after a batch's gradients are accumulated, scaled and clipped,
    /// *before* the anomaly check and optimizer step — the seam where the
    /// fault injector corrupts gradients.
    pub post_grad: Option<PostGradHook<'a>>,
}

/// A training forward: builds one sample's computation on `tape` against a
/// read-only parameter view and returns its `1x1` output.
pub type Forward<'a, S> = dyn Fn(&mut Tape, &ParamStore, &S) -> Var + Sync + 'a;

/// A validation scorer: one sample's `1x1` output under the given
/// parameters, as a number — the model's forward on an
/// [`cascn_autograd::Eval`] (see [`cascn_autograd::Eval::scalar`]).
pub type Scorer<'a, S> = dyn Fn(&ParamStore, &S) -> f32 + Sync + 'a;

/// What one training run minimizes and how it scores validation.
pub enum Objective<'a, S> {
    /// Size regression: the forward pass predicts the log-increment, training
    /// minimizes its squared error to `train_labels` (Eq. 19), and validation
    /// is scored by MSLE (Eq. 20) against `val_increments`.
    Regression {
        /// Per-sample prediction.
        forward: &'a Forward<'a, S>,
        /// The same prediction, for validation.
        predict: &'a Scorer<'a, S>,
        /// `ln(1 + ΔS)` target of every training sample.
        train_labels: &'a [f32],
        /// True increment `ΔS` of every validation sample.
        val_increments: &'a [usize],
    },
    /// A ranking task whose per-sample loss is built inside the closure —
    /// the next-user head's masked cross-entropy, where the loss depends on
    /// per-sample structure (target row, infected mask) rather than a scalar
    /// label. Validation is scored by the mean of the same loss.
    Ranked {
        /// Per-sample `1x1` loss.
        loss: &'a Forward<'a, S>,
        /// The same loss, for validation.
        score: &'a Scorer<'a, S>,
    },
}

impl<S: Sync> Objective<'_, S> {
    /// Builds the training loss of `train[i]` on `tape`.
    fn loss(&self, tape: &mut Tape, store: &ParamStore, train: &[S], i: usize) -> Var {
        match self {
            Objective::Regression {
                forward,
                train_labels,
                ..
            } => {
                let pred = forward(tape, store, &train[i]);
                tape.squared_error(pred, train_labels[i])
            }
            Objective::Ranked { loss, .. } => loss(tape, store, &train[i]),
        }
    }

    /// Validation score of the current parameters (lower is better), with
    /// the per-sample scorer fanned out across `threads` workers.
    fn score(&self, store: &ParamStore, val: &[S], threads: usize) -> f32 {
        match self {
            Objective::Regression {
                predict,
                val_increments,
                ..
            } => {
                let preds = parallel_map(threads, val, |_, s| predict(store, s));
                metrics::msle(&preds, val_increments)
            }
            Objective::Ranked { score, .. } => {
                let losses = parallel_map(threads, val, |_, s| score(store, s));
                losses.iter().sum::<f32>() / losses.len() as f32
            }
        }
    }
}

/// [`run`] without resume, checkpointing, observer or hooks: trains on
/// `objective` and restores the parameters of the best validation epoch.
///
/// # Panics
/// Panics on an empty training set — the only error a run without
/// checkpointing can produce.
pub fn fit<S: Sync>(
    store: &mut ParamStore,
    objective: &Objective<'_, S>,
    train: &[S],
    val: &[S],
    opts: &TrainOpts,
) -> History {
    expect_trained(run(
        store,
        objective,
        train,
        val,
        opts,
        None,
        None,
        &mut |_, _| {},
        TrainHooks::default(),
    ))
}

/// Unwraps the result of a run without resume or checkpointing, whose only
/// error is an empty training set — the documented panic of the infallible
/// entry points ([`fit`], `CascnModel::fit`).
pub(crate) fn expect_trained(result: Result<History, CascnError>) -> History {
    // lint: allow(no-panic) — documented panic of the infallible entry points: without resume/checkpoint the only Err is an empty training set
    result.expect("training without checkpointing fails only on an empty training set")
}

/// [`run`] for size regression, taking the objective's parts directly and
/// validating on the tape `forward` itself. This is the one adapter that
/// scores validation on a recording tape; every model validates on an
/// `Eval` instead. It survives only because the benchmark's traced fit
/// calls it, and goes with the benchmark-coupled ROADMAP item that moves
/// that fit onto [`run`].
#[allow(clippy::too_many_arguments)]
pub fn train_loop_resumable<S: Sync>(
    store: &mut ParamStore,
    forward: &Forward<'_, S>,
    train: &[S],
    train_labels: &[f32],
    val: &[S],
    val_increments: &[usize],
    opts: &TrainOpts,
    resume: Option<&TrainCheckpoint>,
    checkpoint: Option<&CheckpointPolicy>,
    observer: &mut dyn FnMut(usize, &ParamStore),
    hooks: TrainHooks<'_>,
) -> Result<History, CascnError> {
    assert_eq!(train.len(), train_labels.len(), "train labels mismatch");
    assert_eq!(val.len(), val_increments.len(), "val labels mismatch");
    let predict = |store: &ParamStore, s: &S| {
        let mut tape = Tape::new();
        let pred = forward(&mut tape, store, s);
        tape.scalar(pred)
    };
    let objective = Objective::Regression {
        forward,
        predict: &predict,
        train_labels,
        val_increments,
    };
    run(store, &objective, train, val, opts, resume, checkpoint, observer, hooks)
}

/// The Algorithm 2 training loop: batched Adam on `objective` with early
/// stopping, resumable checkpointing and fault-injection hooks. After every
/// epoch the objective's validation score is recorded (falling back to the
/// train loss when `val` is empty), the observer receives the (1-based)
/// epoch index and the current parameters, and the parameters of the best
/// validation epoch are restored before returning.
///
/// * `resume` — continue a run from a [`TrainCheckpoint`]: parameters, Adam
///   moments, early-stopping state, loss history, effective learning rate
///   and the batch-shuffle stream are all restored, so an interrupted run
///   finishes bit-identically to an uninterrupted one. The caller's
///   `opts.shuffle_seed` must match the checkpoint's.
/// * `checkpoint` — write a checkpoint after every `every` completed epochs.
///
/// The anomaly guard (see [`GuardOpts`]) checks every batch: a non-finite
/// loss or gradient discards the step and halves the effective learning
/// rate (recovering gradually on good batches); `rollback_after`
/// consecutive bad batches — or a non-finite *parameter* after a step —
/// roll the model and optimizer back to the last healthy epoch snapshot.
/// Every event lands in the returned [`History`]'s anomaly log.
///
/// Per-example tapes run on `opts.threads` workers, but gradients are merged
/// in example-index order, so any thread count is bit-identical.
///
/// # Errors
/// [`CascnError::Config`] on an empty training set or a resume shuffle-seed
/// mismatch, [`CascnError::Architecture`] when `resume` does not fit
/// `store`, and checkpoint write failures.
#[allow(clippy::too_many_arguments)]
pub fn run<S: Sync>(
    store: &mut ParamStore,
    objective: &Objective<'_, S>,
    train: &[S],
    val: &[S],
    opts: &TrainOpts,
    resume: Option<&TrainCheckpoint>,
    checkpoint: Option<&CheckpointPolicy>,
    observer: &mut dyn FnMut(usize, &ParamStore),
    mut hooks: TrainHooks<'_>,
) -> Result<History, CascnError> {
    if train.is_empty() {
        return Err(CascnError::Config(
            "empty training set: no trainable example in the training split".into(),
        ));
    }

    let guard = opts.guard;
    let mut opt = Adam::with_lr(opts.lr);
    let mut rng = StdRng::seed_from_u64(opts.shuffle_seed);
    let mut stopper = EarlyStopping::new(opts.patience);
    let mut history = History::new();
    let mut best_params: Option<ParamStore> = None;
    let mut eff_lr = opts.lr;
    let mut bad_streak = 0usize;
    let mut start_epoch = 0usize;

    if let Some(ckpt) = resume {
        if ckpt.shuffle_seed != opts.shuffle_seed {
            return Err(CascnError::Config(format!(
                "resume shuffle seed mismatch: checkpoint has {}, options have {}",
                ckpt.shuffle_seed, opts.shuffle_seed
            )));
        }
        restore_params(store, &ckpt.params)?;
        restore_adam(&mut opt, store, &ckpt.adam)?;
        let s = ckpt.stopper;
        stopper = EarlyStopping::from_state(
            opts.patience,
            s.best,
            s.best_epoch,
            s.stale,
            s.epochs_seen,
        );
        history = ckpt.history.clone();
        if let Some(best) = &ckpt.best_params {
            let mut restored = store.clone();
            restore_params(&mut restored, best)?;
            best_params = Some(restored);
        }
        eff_lr = ckpt.eff_lr;
        bad_streak = ckpt.bad_streak;
        start_epoch = ckpt.epoch;
        // The batch shuffles are a pure function of (seed, n, batch_size,
        // epoch); replaying the completed epochs resumes the stream exactly
        // without serializing RNG internals.
        for _ in 0..start_epoch {
            let _ = shuffled_batches(train.len(), opts.batch_size, &mut rng);
        }
    }

    // The rollback target: parameters + optimizer state at the end of the
    // last healthy epoch (or at initialization).
    let mut snapshot: (ParamStore, AdamState) = (store.clone(), opt.state());

    for epoch in start_epoch..opts.epochs {
        // A resumed run whose patience was already exhausted must not train
        // further (fresh runs skip this: epochs_seen == 0).
        if stopper.epochs_seen() > 0 && stopper.stale() >= stopper.patience() {
            break;
        }
        let mut train_loss = 0.0f64;
        let mut counted = 0usize;
        for (batch_idx, batch) in shuffled_batches(train.len(), opts.batch_size, &mut rng)
            .into_iter()
            .enumerate()
        {
            store.zero_grads();
            // Each example's forward/backward runs on its own tape against a
            // shared read-only view of the parameters; gradients come back as
            // per-binding (ParamId, Matrix) lists and are merged below in
            // example-index order — replaying exactly the accumulate calls
            // the serial loop makes, so any thread count is bit-identical.
            let store_view: &ParamStore = store;
            let per_example = parallel_map(opts.threads, &batch, |_, &i| {
                let mut tape = Tape::new();
                let loss = objective.loss(&mut tape, store_view, train, i);
                let loss_val = tape.scalar(loss) as f64;
                tape.backward(loss);
                (loss_val, tape.param_grads())
            });
            let mut batch_loss = 0.0f64;
            for (loss_val, grads) in &per_example {
                batch_loss += loss_val;
                store.merge_grads(grads);
            }
            store.scale_grads(1.0 / batch.len() as f32);
            if opts.grad_clip > 0.0 {
                store.clip_grad_norm(opts.grad_clip);
            }
            if let Some(hook) = hooks.post_grad.as_mut() {
                hook(epoch + 1, batch_idx, store);
            }

            if guard.enabled {
                let kind = if !batch_loss.is_finite() {
                    Some(AnomalyKind::NonFiniteLoss)
                } else if store.grads_non_finite() {
                    Some(AnomalyKind::NonFiniteGrad)
                } else {
                    None
                };
                if let Some(kind) = kind {
                    history.log_anomaly(epoch + 1, batch_idx, kind);
                    bad_streak += 1;
                    eff_lr *= guard.lr_backoff;
                    if guard.rollback_after > 0 && bad_streak >= guard.rollback_after {
                        roll_back(store, &mut opt, &snapshot, &mut history, epoch + 1, batch_idx);
                        bad_streak = 0;
                    }
                    continue; // discard this step
                }
            }

            opt.set_lr(eff_lr);
            opt.step(store);

            if guard.enabled && store.values_non_finite() {
                // Update overflow: the parameters themselves are poisoned, so
                // roll back immediately — skipping alone cannot recover.
                history.log_anomaly(epoch + 1, batch_idx, AnomalyKind::NonFiniteParam);
                roll_back(store, &mut opt, &snapshot, &mut history, epoch + 1, batch_idx);
                bad_streak = 0;
                eff_lr *= guard.lr_backoff;
                continue;
            }

            bad_streak = 0;
            eff_lr = (eff_lr * guard.lr_recovery).min(opts.lr);
            train_loss += batch_loss;
            counted += batch.len();
        }
        // An epoch in which the guard discarded every batch has no
        // meaningful loss; NaN keeps it out of best-epoch tracking (both
        // `History::best` and `EarlyStopping` treat NaN as non-improving).
        let train_loss = if counted == 0 {
            f32::NAN
        } else {
            (train_loss / counted as f64) as f32
        };

        let val_loss = if val.is_empty() {
            train_loss
        } else {
            objective.score(store, val, opts.threads)
        };
        history.push(train_loss, val_loss);
        observer(epoch + 1, store);
        let improved = val_loss <= stopper.best();
        if improved || best_params.is_none() {
            best_params = Some(store.clone());
        }
        let stop = stopper.observe(val_loss);
        if !guard.enabled || !store.values_non_finite() {
            snapshot = (store.clone(), opt.state());
        }
        if let Some(cp) = checkpoint {
            if cp.every > 0 && (epoch + 1 - start_epoch).is_multiple_of(cp.every) {
                let ckpt = TrainCheckpoint {
                    epoch: epoch + 1,
                    shuffle_seed: opts.shuffle_seed,
                    base_lr: opts.lr,
                    eff_lr,
                    bad_streak,
                    stopper: StopperState {
                        patience: stopper.patience(),
                        best: stopper.best(),
                        best_epoch: stopper.best_epoch(),
                        stale: stopper.stale(),
                        epochs_seen: stopper.epochs_seen(),
                    },
                    history: history.clone(),
                    adam: opt.state(),
                    params: store.clone(),
                    best_params: best_params.clone(),
                };
                ckpt.save(&cp.path)?;
            }
        }
        if stop {
            break;
        }
    }
    if let Some(best) = best_params {
        *store = best;
    }
    Ok(history)
}

/// Restores `store`'s values from `saved`, requiring full name/shape
/// coverage.
fn restore_params(store: &mut ParamStore, saved: &ParamStore) -> Result<(), CascnError> {
    let restored = store
        .restore_from(saved)
        .map_err(CascnError::Architecture)?;
    if restored != store.len() {
        return Err(CascnError::Architecture(format!(
            "checkpoint covers {restored} of {} parameters — wrong architecture?",
            store.len()
        )));
    }
    Ok(())
}

/// Restores Adam state from a checkpoint, validating against the store's
/// parameter shapes (moments are stored in registration order).
fn restore_adam(
    opt: &mut Adam,
    store: &ParamStore,
    state: &AdamState,
) -> Result<(), CascnError> {
    if state.m.len() != state.v.len() {
        return Err(CascnError::Checkpoint(format!(
            "adam moments mismatch: {} first vs {} second",
            state.m.len(),
            state.v.len()
        )));
    }
    if !state.m.is_empty() && state.m.len() != store.len() {
        return Err(CascnError::Architecture(format!(
            "adam state has {} moment tensors for {} parameters",
            state.m.len(),
            store.len()
        )));
    }
    for (id, m) in store.ids().zip(&state.m) {
        if store.value(id).shape() != m.shape() {
            return Err(CascnError::Architecture(format!(
                "adam moment shape mismatch for `{}`: {:?} vs {:?}",
                store.name(id),
                store.value(id).shape(),
                m.shape()
            )));
        }
    }
    opt.set_state(state.clone());
    Ok(())
}

/// Rolls parameters and optimizer back to the last healthy snapshot,
/// recording the event.
fn roll_back(
    store: &mut ParamStore,
    opt: &mut Adam,
    snapshot: &(ParamStore, AdamState),
    history: &mut History,
    epoch: usize,
    batch: usize,
) {
    *store = snapshot.0.clone();
    opt.set_state(snapshot.1.clone());
    history.log_anomaly(epoch, batch, AnomalyKind::Rollback);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_autograd::{Eval, Exec, ParamId};
    use cascn_tensor::Matrix;

    /// `w · x` for the single weight `w`.
    fn weighted<'s, E: Exec<'s>>(
        ex: &mut E,
        store: &'s ParamStore,
        w: ParamId,
        x: f32,
    ) -> E::Value {
        let wv = ex.param(store, w);
        let xv = ex.constant(Matrix::from_vec(1, 1, vec![x]));
        ex.hadamard(&wv, &xv)
    }

    /// [`fit`] of `w · x` to the log-labels, validating on an `Eval`.
    fn fit_weighted(
        store: &mut ParamStore,
        w: ParamId,
        train: &[f32],
        train_labels: &[f32],
        val: &[f32],
        val_increments: &[usize],
        opts: &TrainOpts,
    ) -> History {
        let forward = |tape: &mut Tape, store: &ParamStore, x: &f32| weighted(tape, store, w, *x);
        let predict = |store: &ParamStore, x: &f32| Eval::scalar(|ex| weighted(ex, store, w, *x));
        let objective = Objective::Regression {
            forward: &forward,
            predict: &predict,
            train_labels,
            val_increments,
        };
        fit(store, &objective, train, val, opts)
    }

    /// `−log softmax(logits)[target]` for the `1 x c` parameter `logits`.
    fn picked_loss<'s, E: Exec<'s>>(
        ex: &mut E,
        store: &'s ParamStore,
        logits: ParamId,
        target: usize,
    ) -> E::Value {
        let l = ex.param(store, logits);
        let logp = ex.log_softmax_row(&l);
        let picked = ex.pick(&logp, 0, target);
        ex.scale(&picked, -1.0)
    }

    /// [`fit`] with the ranked objective [`picked_loss`].
    fn fit_ranked(
        store: &mut ParamStore,
        logits: ParamId,
        train: &[usize],
        val: &[usize],
        opts: &TrainOpts,
    ) -> History {
        let loss =
            |tape: &mut Tape, store: &ParamStore, t: &usize| picked_loss(tape, store, logits, *t);
        let score =
            |store: &ParamStore, t: &usize| Eval::scalar(|ex| picked_loss(ex, store, logits, *t));
        let objective = Objective::Ranked {
            loss: &loss,
            score: &score,
        };
        fit(store, &objective, train, val, opts)
    }

    /// Fits y = log-label through a single weight: the loop must drive the
    /// weight toward the mean label.
    #[test]
    fn train_loop_reduces_loss() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let train: Vec<f32> = vec![1.0; 64];
        let labels: Vec<f32> = vec![2.0; 64];
        let val: Vec<f32> = vec![1.0; 8];
        let val_inc: Vec<usize> = vec![(2.0f32.exp() - 1.0).round() as usize; 8];
        let opts = TrainOpts {
            epochs: 60,
            patience: 60,
            lr: 0.05,
            ..TrainOpts::default()
        };
        let hist = fit_weighted(&mut store, w, &train, &labels, &val, &val_inc, &opts);
        assert!(hist.records().len() > 5);
        let first = hist.records()[0].train_loss;
        let last = hist.records().last().unwrap().train_loss;
        assert!(last < first * 0.1, "loss should shrink: {first} → {last}");
        assert!((store.value(w)[(0, 0)] - 2.0).abs() < 0.2);
        assert!(hist.anomalies().is_empty(), "healthy run logs no anomalies");
    }

    #[test]
    fn best_epoch_params_are_restored() {
        // With a high LR the loop may overshoot; the restored parameters
        // must correspond to the best validation epoch, i.e. re-evaluating
        // val MSLE after training must equal the recorded best.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let train: Vec<f32> = vec![1.0; 16];
        let labels: Vec<f32> = vec![1.0; 16];
        let val: Vec<f32> = vec![1.0; 4];
        let val_inc: Vec<usize> = vec![2; 4]; // ln 3 ≈ 1.0986 target
        let opts = TrainOpts {
            epochs: 15,
            patience: 4,
            lr: 0.3,
            ..TrainOpts::default()
        };
        let hist = fit_weighted(&mut store, w, &train, &labels, &val, &val_inc, &opts);
        let best = hist.best().unwrap().val_loss;
        let preds: Vec<f32> = val
            .iter()
            .map(|&x| Eval::scalar(|ex| weighted(ex, &store, w, x)))
            .collect();
        let final_msle = cascn_nn::metrics::msle(&preds, &val_inc);
        assert!(
            (final_msle - best).abs() < 1e-5,
            "restored params give {final_msle}, best recorded {best}"
        );
    }

    #[test]
    fn train_loop_ranked_concentrates_mass_on_the_target() {
        let mut store = ParamStore::new();
        let w = store.register("logits", Matrix::zeros(1, 3));
        let train: Vec<usize> = vec![2; 48];
        let val: Vec<usize> = vec![2; 8];
        let opts = TrainOpts {
            epochs: 40,
            patience: 40,
            lr: 0.1,
            ..TrainOpts::default()
        };
        let hist = fit_ranked(&mut store, w, &train, &val, &opts);
        let first = hist.records()[0].val_loss;
        let last = hist.records().last().unwrap().val_loss;
        assert!(last < first * 0.2, "cross-entropy should shrink: {first} → {last}");
        let logits = store.value(w);
        assert!(
            logits[(0, 2)] > logits[(0, 0)] && logits[(0, 2)] > logits[(0, 1)],
            "target logit must dominate: {:?}",
            logits.as_slice()
        );
    }

    #[test]
    fn train_loop_ranked_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut store = ParamStore::new();
            let w = store.register("logits", Matrix::zeros(1, 4));
            let train: Vec<usize> = (0..32).map(|i| 1 + i % 3).collect();
            let opts = TrainOpts {
                epochs: 3,
                batch_size: 8,
                threads,
                ..TrainOpts::default()
            };
            fit_ranked(&mut store, w, &train, &[], &opts);
            store
                .value(w)
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<u32>>()
        };
        let serial = run(1);
        assert_eq!(serial, run(2), "2 threads must match serial bit-for-bit");
        assert_eq!(serial, run(4), "4 threads must match serial bit-for-bit");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_is_rejected() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let _ = fit_weighted(&mut store, w, &[], &[], &[], &[], &TrainOpts::default());
    }

    #[test]
    fn guard_skips_nan_gradient_batches() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let forward = move |tape: &mut Tape, store: &ParamStore, x: &f32| {
            let wv = tape.param(store, w);
            let xv = tape.constant(Matrix::from_vec(1, 1, vec![*x]));
            tape.hadamard(wv, xv)
        };
        let train: Vec<f32> = vec![1.0; 32];
        let labels: Vec<f32> = vec![2.0; 32];
        let opts = TrainOpts {
            epochs: 25,
            patience: 25,
            lr: 0.05,
            batch_size: 8,
            ..TrainOpts::default()
        };
        // Poison the gradient of every batch in epoch 2.
        let mut inject = |epoch: usize, _batch: usize, s: &mut ParamStore| {
            if epoch == 2 {
                let id = s.ids().next().unwrap();
                let g = s.grad(id).clone();
                let mut g = g;
                g.as_mut_slice()[0] = f32::NAN;
                s.zero_grads();
                s.accumulate_grad(id, &g);
            }
        };
        let hist = train_loop_resumable(
            &mut store,
            &forward,
            &train,
            &labels,
            &[],
            &[],
            &opts,
            None,
            None,
            &mut |_, _| {},
            TrainHooks { post_grad: Some(&mut inject) },
        )
        .unwrap();
        assert!(hist.skipped_steps() >= 4, "all epoch-2 batches skipped");
        assert!(
            !store.values_non_finite(),
            "parameters stay finite through the poisoned epoch"
        );
        assert!(hist.records().last().unwrap().train_loss.is_finite());
        // Training still converges afterwards.
        assert!((store.value(w)[(0, 0)] - 2.0).abs() < 0.5);
    }

    #[test]
    fn guard_disabled_matches_legacy_behavior() {
        // With the guard off, a poisoned batch propagates NaN into the
        // parameters (the legacy failure mode) — proving the guard is what
        // prevents it.
        let run = |enabled: bool| {
            let mut store = ParamStore::new();
            let w = store.register("w", Matrix::zeros(1, 1));
            let forward = move |tape: &mut Tape, store: &ParamStore, x: &f32| {
                let wv = tape.param(store, w);
                let xv = tape.constant(Matrix::from_vec(1, 1, vec![*x]));
                tape.hadamard(wv, xv)
            };
            let train: Vec<f32> = vec![1.0; 8];
            let labels: Vec<f32> = vec![2.0; 8];
            let opts = TrainOpts {
                epochs: 2,
                batch_size: 8,
                guard: GuardOpts { enabled, ..GuardOpts::default() },
                ..TrainOpts::default()
            };
            let mut inject = |_e: usize, _b: usize, s: &mut ParamStore| {
                let id = s.ids().next().unwrap();
                let mut g = s.grad(id).clone();
                g.as_mut_slice()[0] = f32::NAN;
                s.zero_grads();
                s.accumulate_grad(id, &g);
            };
            let _ = train_loop_resumable(
                &mut store,
                &forward,
                &train,
                &labels,
                &[],
                &[],
                &opts,
                None,
                None,
                &mut |_, _| {},
                TrainHooks { post_grad: Some(&mut inject) },
            )
            .unwrap();
            store.values_non_finite()
        };
        assert!(run(false), "without the guard, NaN reaches the parameters");
        assert!(!run(true), "the guard keeps parameters finite");
    }

    #[test]
    fn rollback_fires_after_consecutive_bad_batches() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let forward = move |tape: &mut Tape, store: &ParamStore, x: &f32| {
            let wv = tape.param(store, w);
            let xv = tape.constant(Matrix::from_vec(1, 1, vec![*x]));
            tape.hadamard(wv, xv)
        };
        let train: Vec<f32> = vec![1.0; 24];
        let labels: Vec<f32> = vec![2.0; 24];
        let opts = TrainOpts {
            epochs: 3,
            batch_size: 4, // 6 batches per epoch > rollback_after
            guard: GuardOpts { rollback_after: 3, ..GuardOpts::default() },
            ..TrainOpts::default()
        };
        let mut inject = |epoch: usize, _b: usize, s: &mut ParamStore| {
            if epoch == 2 {
                let id = s.ids().next().unwrap();
                let mut g = s.grad(id).clone();
                g.as_mut_slice()[0] = f32::INFINITY;
                s.zero_grads();
                s.accumulate_grad(id, &g);
            }
        };
        let hist = train_loop_resumable(
            &mut store,
            &forward,
            &train,
            &labels,
            &[],
            &[],
            &opts,
            None,
            None,
            &mut |_, _| {},
            TrainHooks { post_grad: Some(&mut inject) },
        )
        .unwrap();
        assert!(hist.rollbacks() >= 1, "expected a rollback: {:?}", hist.anomalies());
        assert!(!store.values_non_finite());
    }
}
