//! `CasCN-GL` (Table IV): a per-snapshot graph convolution followed by a
//! *dense* LSTM — structure and time are modeled by separate components
//! instead of the fused ChebConv-LSTM cell. The gap between this variant
//! and full CasCN quantifies the value of convolving inside the recurrence.

use cascn_autograd::{Eval, Exec, ParamId, ParamStore, Tape};
use cascn_cascades::Cascade;
use cascn_nn::train::History;
use cascn_nn::{init, Activation, LstmCell, Mlp, TimeDecay};
use cascn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{CascnConfig, DecayMode};
use crate::input::{preprocess, PreprocessedCascade};
use crate::model::decay_state;
use crate::parallel::parallel_map;
use crate::trainer::{self, Objective, TrainOpts};

/// The GCN-then-LSTM ablation model.
#[derive(Debug, Clone)]
pub struct GlModel {
    cfg: CascnConfig,
    store: ParamStore,
    /// Chebyshev filter stack of the standalone GCN layer (`K+1` filters).
    conv_w: Vec<ParamId>,
    conv_b: ParamId,
    lstm: LstmCell,
    decay: TimeDecay,
    mlp: Mlp,
}

impl GlModel {
    /// Builds an untrained model.
    pub fn new(cfg: CascnConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let conv_w = (0..=cfg.k)
            .map(|i| {
                store.register(
                    format!("gl.conv.w{i}"),
                    init::xavier_uniform(cfg.max_nodes, cfg.hidden, &mut rng),
                )
            })
            .collect();
        let conv_b = store.register("gl.conv.b", Matrix::zeros(1, cfg.hidden));
        let lstm = LstmCell::new(&mut store, "gl.lstm", cfg.hidden, cfg.hidden, &mut rng);
        let decay = TimeDecay::new(&mut store, "gl.decay", cfg.decay_intervals);
        let mlp = Mlp::new(
            &mut store,
            "gl.mlp",
            &[cfg.hidden, cfg.mlp_hidden, 1],
            Activation::Relu,
            &mut rng,
        );
        Self {
            cfg,
            store,
            conv_w,
            conv_b,
            lstm,
            decay,
            mlp,
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

    /// Forward pass: GCN per snapshot → node-sum pooling → dense LSTM over
    /// the pooled sequence → time decay → sum → MLP.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &'s PreprocessedCascade,
    ) -> E::Value {
        let operands = sample.operands(ex);
        let w: Vec<E::Value> = self.conv_w.iter().map(|&id| ex.param(store, id)).collect();
        let b = ex.param(store, self.conv_b);
        // Per-snapshot GCN embedding (1 x hidden each).
        let mut sequence = Vec::with_capacity(sample.num_steps());
        for x in sample.snapshots(self.cfg.max_nodes) {
            let conv = operands.input_conv(ex, &x, &w);
            let pre = ex.add_bias(&conv, &b);
            let act = ex.relu(&pre);
            sequence.push(ex.sum_rows(&act));
        }
        // Dense LSTM over the snapshot embeddings.
        let hs = self.lstm.run(ex, store, &sequence, 1);
        let table = (self.cfg.decay == DecayMode::Learned).then(|| self.decay.bind(ex, store));
        let mut acc: Option<E::Value> = None;
        for (t, h) in hs.iter().enumerate() {
            let weighted = decay_state(ex, &self.decay, self.cfg.decay, table.as_ref(), h, sample, t);
            acc = Some(match acc {
                Some(a) => ex.add(&a, &weighted),
                None => weighted,
            });
        }
        // lint: allow(no-panic) — preprocessing emits min(n, max_steps) ≥ 1 snapshot steps, so the sequence is non-empty
        let pooled = acc.expect("non-empty sequence");
        self.mlp.forward(ex, store, pooled)
    }

    /// Trains the model (same loop as CasCN), validating on an [`Eval`].
    pub fn fit(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> History {
        let train_samples: Vec<PreprocessedCascade> =
            parallel_map(self.cfg.threads, train, |_, c| preprocess(c, window, &self.cfg));
        let train_labels: Vec<f32> = train_samples.iter().map(|s| s.label_log).collect();
        let val_samples: Vec<PreprocessedCascade> =
            parallel_map(self.cfg.threads, val, |_, c| preprocess(c, window, &self.cfg));
        let val_increments: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();
        let model = self.clone();
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
        trainer::fit(&mut self.store, &objective, &train_samples, &val_samples, opts)
    }

    /// Predicted log-increment for a cascade, on an [`Eval`].
    pub fn predict_log(&self, cascade: &Cascade, window: f64) -> f32 {
        let sample = preprocess(cascade, window, &self.cfg);
        Eval::scalar(|ex| self.forward(ex, &self.store, &sample))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_autograd::Var;
    use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};

    fn tiny_cfg() -> CascnConfig {
        CascnConfig {
            hidden: 4,
            mlp_hidden: 4,
            max_nodes: 12,
            max_steps: 6,
            ..CascnConfig::default()
        }
    }

    #[test]
    fn forward_and_predict_are_finite() {
        let data = WeiboGenerator::new(WeiboConfig {
            num_cascades: 50,
            seed: 3,
            max_size: 100,
        })
        .generate();
        let model = GlModel::new(tiny_cfg());
        let p = model.predict_log(&data.cascades[0], 3600.0);
        assert!(p.is_finite());
    }

    /// The dense-input forward pass GL ran before its snapshots went
    /// sparse: each snapshot a dense `n × max_nodes` block through
    /// `conv_stack`, every filter bound per snapshot.
    fn oracle_forward(
        model: &GlModel,
        tape: &mut Tape,
        store: &ParamStore,
        sample: &PreprocessedCascade,
    ) -> Var {
        let operands = sample.operands(tape);
        let mut sequence = Vec::new();
        for t in 0..sample.num_steps() {
            let x = tape.constant(sample.snapshot(t, model.cfg.max_nodes).to_dense());
            let stack = operands.conv_stack(tape, x);
            let mut acc: Option<Var> = None;
            for (&conv, &wid) in stack.iter().zip(&model.conv_w) {
                let w = tape.param(store, wid);
                let term = tape.matmul(conv, w);
                acc = Some(match acc {
                    Some(a) => tape.add(a, term),
                    None => term,
                });
            }
            let b = tape.param(store, model.conv_b);
            let pre = tape.add_bias(acc.unwrap(), b);
            let act = tape.relu(pre);
            sequence.push(tape.sum_rows(act));
        }
        let hs = model.lstm.run(tape, store, &sequence, 1);
        let mut acc: Option<Var> = None;
        for (t, &h) in hs.iter().enumerate() {
            let weighted = model
                .decay
                .apply(tape, store, &h, sample.times[t], sample.window);
            acc = Some(match acc {
                Some(a) => tape.add(a, weighted),
                None => weighted,
            });
        }
        model.mlp.forward(tape, store, acc.unwrap())
    }

    #[test]
    fn sparse_input_matches_the_dense_input_oracle() {
        use crate::config::LaplacianKind;
        let data = WeiboGenerator::new(WeiboConfig {
            num_cascades: 50,
            seed: 3,
            max_size: 100,
        })
        .generate();
        for laplacian in [LaplacianKind::Directed, LaplacianKind::Undirected] {
            for dense in [false, true] {
                let model = GlModel::new(CascnConfig {
                    laplacian,
                    ..tiny_cfg()
                });
                for cascade in data.cascades.iter().take(8) {
                    let mut s = preprocess(cascade, 3600.0, &model.cfg);
                    if dense {
                        s = s.with_dense_bases();
                    }
                    let run = |oracle: bool| {
                        let mut store = model.store.clone();
                        let mut tape = Tape::new();
                        let pred = if oracle {
                            oracle_forward(&model, &mut tape, &store, &s)
                        } else {
                            model.forward(&mut tape, &store, &s)
                        };
                        let loss = tape.squared_error(pred, s.label_log);
                        tape.backward(loss);
                        tape.accumulate_param_grads(&mut store);
                        (tape.scalar(pred), store)
                    };
                    let ((new, new_g), (old, old_g)) = (run(false), run(true));
                    assert!(
                        (new - old).abs() < 5e-4,
                        "{laplacian:?}/dense={dense}: {new} vs oracle {old}"
                    );
                    for id in model.store.ids() {
                        let diff = new_g.grad(id).sub(old_g.grad(id)).max_abs();
                        assert!(
                            diff < 5e-4,
                            "∂{} off the oracle by {diff}",
                            model.store.name(id)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fit_runs_one_epoch() {
        let data = WeiboGenerator::new(WeiboConfig {
            num_cascades: 120,
            seed: 4,
            max_size: 100,
        })
        .generate()
        .filter_observed_size(3600.0, 2, 50);
        let mut model = GlModel::new(tiny_cfg());
        let half = data.cascades.len() / 2;
        let opts = TrainOpts {
            epochs: 1,
            ..TrainOpts::default()
        };
        let hist = model.fit(&data.cascades[..half], &data.cascades[half..], 3600.0, &opts);
        assert_eq!(hist.records().len(), 1);
        assert!(hist.records()[0].val_loss.is_finite());
    }
}
