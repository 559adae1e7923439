//! DeepCas (Li et al., WWW 2017): the first end-to-end deep predictor —
//! random-walk node sequences, learned user embeddings, a bi-directional
//! GRU, and attention over walks. Uses structure and node identity but no
//! event times (its Table III weakness).

use cascn::path::{observed_vocab, walk_sample, PathSample};
use cascn::trainer::{self, Objective};
use cascn::{SizePredictor, TrainOpts};
use cascn_autograd::{Eval, Exec, ParamId, ParamStore, Tape};
use cascn_cascades::Cascade;
use cascn_nn::metrics::log_label;
use cascn_nn::train::History;
use cascn_nn::{init, Activation, Embedding, GruCell, Linear, Mlp, Vocab};
use cascn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The DeepCas baseline.
#[derive(Debug, Clone)]
pub struct DeepCas {
    store: ParamStore,
    vocab: Vocab,
    embedding: Embedding,
    gru_fwd: GruCell,
    gru_bwd: GruCell,
    att_proj: Linear,
    att_v: ParamId,
    mlp: Mlp,
    hidden: usize,
    seed: u64,
}

impl DeepCas {
    /// Embedding width (paper setup: 50).
    pub const EMBED_DIM: usize = 50;

    /// Builds the model; the vocabulary comes from the training cascades.
    pub fn new(train: &[Cascade], window: f64, hidden: usize, seed: u64) -> Self {
        let vocab = observed_vocab(train, window);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let embedding = Embedding::new(
            &mut store,
            "deepcas.embed",
            vocab.table_size(),
            Self::EMBED_DIM,
            &mut rng,
        );
        let gru_fwd = GruCell::new(&mut store, "deepcas.gru_fwd", Self::EMBED_DIM, hidden, &mut rng);
        let gru_bwd = GruCell::new(&mut store, "deepcas.gru_bwd", Self::EMBED_DIM, hidden, &mut rng);
        let att_proj = Linear::new(&mut store, "deepcas.att_proj", 2 * hidden, hidden, &mut rng);
        let att_v = store.register("deepcas.att_v", init::xavier_uniform(hidden, 1, &mut rng));
        let mlp = Mlp::new(
            &mut store,
            "deepcas.mlp",
            &[2 * hidden, 32, 16, 1],
            Activation::Relu,
            &mut rng,
        );
        Self {
            store,
            vocab,
            embedding,
            gru_fwd,
            gru_bwd,
            att_proj,
            att_v,
            mlp,
            hidden,
            seed,
        }
    }

    /// The parameter store (for inspection and tests).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Deterministically samples the walk representation of a cascade
    /// (the walk sampler of CasCN-Path, under DeepCas's own seed salt).
    pub fn preprocess(&self, cascade: &Cascade, window: f64) -> PathSample {
        walk_sample(cascade, window, &self.vocab, self.seed, 0x51f2_33da)
    }

    /// Forward pass: bi-GRU per walk → attention-weighted sum over walks →
    /// MLP.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &PathSample,
    ) -> E::Value {
        let mut walk_reprs = Vec::with_capacity(sample.walks.len());
        for walk in &sample.walks {
            let fwd_inputs = self.embedding.sequence(ex, store, walk);
            let bwd_inputs: Vec<E::Value> = fwd_inputs.iter().rev().cloned().collect();
            let hf = self.gru_fwd.run(ex, store, &fwd_inputs, 1);
            let hb = self.gru_bwd.run(ex, store, &bwd_inputs, 1);
            // Walks are non-empty by construction (they start at a node);
            // skip defensively rather than panic if that ever changes.
            let (Some(last_f), Some(last_b)) = (hf.last(), hb.last()) else {
                continue;
            };
            walk_reprs.push(ex.concat_cols(last_f, last_b));
        }
        let stacked = ex.concat_rows(&walk_reprs); // m x 2h
        // Additive attention over walks.
        let proj = self.att_proj.forward(ex, store, stacked.clone());
        let proj_act = ex.tanh(&proj);
        let v = ex.param(store, self.att_v);
        let scores = ex.matmul(&proj_act, &v); // m x 1
        let weights = ex.softmax_col(&scores);
        // Weighted sum: tile weights across columns, hadamard, sum rows.
        let ones = ex.constant(Matrix::full(1, 2 * self.hidden, 1.0));
        let tiled = ex.matmul(&weights, &ones);
        let weighted = ex.hadamard(&tiled, &stacked);
        let pooled = ex.sum_rows(&weighted); // 1 x 2h
        self.mlp.forward(ex, store, pooled)
    }

    /// Trains the model end-to-end, validating on an [`Eval`].
    pub fn fit(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> History {
        let train_samples: Vec<PathSample> =
            train.iter().map(|c| self.preprocess(c, window)).collect();
        let train_labels: Vec<f32> =
            train_samples.iter().map(|s| log_label(s.increment)).collect();
        let val_samples: Vec<PathSample> = val.iter().map(|c| self.preprocess(c, window)).collect();
        let val_increments: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();
        let model = self.clone();
        let forward =
            |tape: &mut Tape, store: &ParamStore, s: &PathSample| model.forward(tape, store, s);
        let predict =
            |store: &ParamStore, s: &PathSample| Eval::scalar(|ex| model.forward(ex, store, s));
        let objective = Objective::Regression {
            forward: &forward,
            predict: &predict,
            train_labels: &train_labels,
            val_increments: &val_increments,
        };
        trainer::fit(&mut self.store, &objective, &train_samples, &val_samples, opts)
    }
}

impl SizePredictor for DeepCas {
    fn name(&self) -> String {
        "DeepCas".to_string()
    }

    fn predict_log(&self, cascade: &Cascade, window: f64) -> f32 {
        let sample = self.preprocess(cascade, window);
        Eval::scalar(|ex| self.forward(ex, &self.store, &sample))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
    use cascn_cascades::Split;

    fn data() -> cascn_cascades::Dataset {
        WeiboGenerator::new(WeiboConfig {
            num_cascades: 200,
            seed: 19,
            max_size: 120,
        })
        .generate()
        .filter_observed_size(3600.0, 3, 60)
    }

    #[test]
    fn attention_weights_sum_to_one_via_forward_finiteness() {
        let d = data();
        let model = DeepCas::new(d.split(Split::Train), 3600.0, 8, 1);
        let p = model.predict_log(&d.cascades[0], 3600.0);
        assert!(p.is_finite());
    }

    #[test]
    fn preprocessing_is_deterministic() {
        let d = data();
        let model = DeepCas::new(d.split(Split::Train), 3600.0, 8, 1);
        let a = model.preprocess(&d.cascades[0], 3600.0);
        let b = model.preprocess(&d.cascades[0], 3600.0);
        assert_eq!(a.walks, b.walks);
    }

    #[test]
    fn one_epoch_fit_runs() {
        let d = data();
        let mut model = DeepCas::new(d.split(Split::Train), 3600.0, 8, 1);
        let opts = TrainOpts {
            epochs: 1,
            ..TrainOpts::default()
        };
        let hist = model.fit(
            d.split(Split::Train),
            d.split(Split::Validation),
            3600.0,
            &opts,
        );
        assert!(hist.records()[0].val_loss.is_finite());
    }
}
