//! `CasCN-Path` (Table IV, Fig. 6): the sampling ablation — random-walk
//! node sequences with 50-dimensional user embeddings feed an LSTM instead
//! of the sub-cascade snapshot sequence. Its gap to full CasCN measures the
//! value of snapshot sampling.

use cascn_autograd::{Eval, Exec, ParamStore, Tape};
use cascn_cascades::Cascade;
use cascn_graph::walks::{sample_walks, WalkConfig};
use cascn_nn::metrics::log_label;
use cascn_nn::train::History;
use cascn_nn::{Activation, Embedding, LstmCell, Mlp, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::CascnConfig;
use crate::parallel::parallel_map;
use crate::trainer::{self, Objective, TrainOpts};

/// A cascade reduced to random-walk sequences of embedding-table rows.
#[derive(Debug, Clone)]
pub struct PathSample {
    /// Walks as vocabulary indices.
    pub walks: Vec<Vec<usize>>,
    /// Raw increment label.
    pub increment: usize,
}

/// The walk sampling of the walk-based models (CasCN-Path and DeepCas):
/// 12 uniform walks of at most 8 steps per cascade.
pub const WALKS: WalkConfig = WalkConfig {
    num_walks: 12,
    walk_length: 8,
};

/// The vocabulary of the users observed in `train` up to `window`; users
/// first seen at test time map to UNK.
pub fn observed_vocab(train: &[Cascade], window: f64) -> Vocab {
    Vocab::build(train.iter().flat_map(|c| c.observe(window).users()), 0)
}

/// Reduces a cascade observed up to `window` to [`WALKS`] walks of `vocab`
/// rows. The walks are seeded by `seed`, the cascade id and a per-model
/// `salt`, so preprocessing is deterministic.
pub fn walk_sample(
    cascade: &Cascade,
    window: f64,
    vocab: &Vocab,
    seed: u64,
    salt: u64,
) -> PathSample {
    let observed = cascade.observe(window);
    let g = observed.graph();
    let users = observed.users();
    let mut rng = StdRng::seed_from_u64(seed ^ cascade.id.wrapping_mul(salt));
    let walks = sample_walks(&g, WALKS, &mut rng)
        .into_iter()
        .map(|walk| walk.into_iter().map(|v| vocab.lookup(users[v])).collect())
        .collect();
    PathSample {
        walks,
        increment: cascade.increment_size(window),
    }
}

/// The random-walk ablation model.
#[derive(Debug, Clone)]
pub struct PathModel {
    cfg: CascnConfig,
    store: ParamStore,
    vocab: Vocab,
    embedding: Embedding,
    lstm: LstmCell,
    mlp: Mlp,
}

impl PathModel {
    /// User-embedding width (DeepCas / the paper's setup: 50).
    pub const EMBED_DIM: usize = 50;

    /// Builds the model. The vocabulary is constructed from the *observed*
    /// users of the training cascades, so test-time unknowns map to UNK.
    pub fn new(cfg: CascnConfig, train: &[Cascade], window: f64) -> Self {
        let vocab = observed_vocab(train, window);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let embedding = Embedding::new(
            &mut store,
            "path.embed",
            vocab.table_size(),
            Self::EMBED_DIM,
            &mut rng,
        );
        let lstm = LstmCell::new(&mut store, "path.lstm", Self::EMBED_DIM, cfg.hidden, &mut rng);
        let mlp = Mlp::new(
            &mut store,
            "path.mlp",
            &[cfg.hidden, cfg.mlp_hidden, 1],
            Activation::Relu,
            &mut rng,
        );
        Self {
            cfg,
            store,
            vocab,
            embedding,
            lstm,
            mlp,
        }
    }

    /// The parameter store (for inspection and tests).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Number of known users in the vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Converts a cascade into its walk sample ([`walk_sample`]).
    pub fn preprocess(&self, cascade: &Cascade, window: f64) -> PathSample {
        walk_sample(cascade, window, &self.vocab, self.cfg.seed, 0x9E37_79B9)
    }

    /// Forward pass: per-walk LSTM over user embeddings, mean of final walk
    /// states, MLP head.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &PathSample,
    ) -> E::Value {
        let mut finals = Vec::with_capacity(sample.walks.len());
        for walk in &sample.walks {
            let inputs = self.embedding.sequence(ex, store, walk);
            let hs = self.lstm.run(ex, store, &inputs, 1);
            let Some(last) = hs.last() else {
                continue; // unreachable: the walk sampler never emits empty walks
            };
            finals.push(last.clone());
        }
        let stacked = ex.concat_rows(&finals);
        let pooled = ex.mean_rows(&stacked);
        debug_assert_eq!(ex.value(&pooled).cols(), self.cfg.hidden);
        self.mlp.forward(ex, store, pooled)
    }

    /// Trains the model, validating on an [`Eval`].
    pub fn fit(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> History {
        let train_samples: Vec<PathSample> =
            parallel_map(self.cfg.threads, train, |_, c| self.preprocess(c, window));
        let train_labels: Vec<f32> =
            train_samples.iter().map(|s| log_label(s.increment)).collect();
        let val_samples: Vec<PathSample> =
            parallel_map(self.cfg.threads, val, |_, c| self.preprocess(c, window));
        let val_increments: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();
        let model = self.clone();
        let forward = |tape: &mut Tape, store: &ParamStore, s: &PathSample| {
            model.forward(tape, store, s)
        };
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

    /// Predicted log-increment for a cascade, on an [`Eval`].
    pub fn predict_log(&self, cascade: &Cascade, window: f64) -> f32 {
        let sample = self.preprocess(cascade, window);
        Eval::scalar(|ex| self.forward(ex, &self.store, &sample))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};

    fn tiny_cfg() -> CascnConfig {
        CascnConfig {
            hidden: 4,
            mlp_hidden: 4,
            ..CascnConfig::default()
        }
    }

    fn data() -> cascn_cascades::Dataset {
        WeiboGenerator::new(WeiboConfig {
            num_cascades: 80,
            seed: 6,
            max_size: 100,
        })
        .generate()
        .filter_observed_size(3600.0, 2, 50)
    }

    #[test]
    fn vocab_is_built_from_training_users() {
        let d = data();
        let model = PathModel::new(tiny_cfg(), &d.cascades, 3600.0);
        assert!(model.vocab_size() > 10);
    }

    #[test]
    fn preprocess_is_deterministic() {
        let d = data();
        let model = PathModel::new(tiny_cfg(), &d.cascades, 3600.0);
        let a = model.preprocess(&d.cascades[0], 3600.0);
        let b = model.preprocess(&d.cascades[0], 3600.0);
        assert_eq!(a.walks, b.walks);
    }

    #[test]
    fn forward_is_finite_and_trains_one_epoch() {
        let d = data();
        let half = d.cascades.len() / 2;
        let mut model = PathModel::new(tiny_cfg(), &d.cascades[..half], 3600.0);
        let p = model.predict_log(&d.cascades[0], 3600.0);
        assert!(p.is_finite());
        let opts = TrainOpts {
            epochs: 1,
            ..TrainOpts::default()
        };
        let hist = model.fit(&d.cascades[..half], &d.cascades[half..], 3600.0, &opts);
        assert!(hist.records()[0].val_loss.is_finite());
    }
}
