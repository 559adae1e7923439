//! DeepHawkes (Cao et al., CIKM 2017): the deep generative baseline — each
//! observed adopter contributes its root-to-node diffusion path, encoded by
//! a GRU over user embeddings, weighted by a learned non-parametric time
//! decay of the adoption time, and sum-pooled. Captures user influence and
//! temporal decay but, unlike CasCN, no explicit graph structure — the gap
//! the paper's Table III highlights.

use cascn::path::observed_vocab;
use cascn::trainer::{self, Objective};
use cascn::{SizePredictor, TrainOpts};
use cascn_autograd::{Eval, Exec, ParamStore, Tape};
use cascn_cascades::Cascade;
use cascn_nn::train::History;
use cascn_nn::{metrics, Activation, Embedding, GruCell, Mlp, TimeDecay, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cascade reduced to diffusion paths with adoption times.
#[derive(Debug, Clone)]
pub struct DeepHawkesSample {
    /// Root-to-adopter paths as vocabulary indices.
    paths: Vec<Vec<usize>>,
    /// Adoption time of each path's endpoint.
    end_times: Vec<f64>,
    window: f64,
    increment: usize,
}

/// The DeepHawkes baseline.
#[derive(Debug, Clone)]
pub struct DeepHawkes {
    store: ParamStore,
    vocab: Vocab,
    embedding: Embedding,
    gru: GruCell,
    decay: TimeDecay,
    mlp: Mlp,
    /// Cap on the number of paths (= adopters) per cascade.
    max_paths: usize,
}

impl DeepHawkes {
    /// Embedding width (the DeepHawkes setup: 50).
    pub const EMBED_DIM: usize = 50;

    /// Builds the model with the vocabulary of the training cascades.
    pub fn new(train: &[Cascade], window: f64, hidden: usize, seed: u64) -> Self {
        let vocab = observed_vocab(train, window);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let embedding = Embedding::new(
            &mut store,
            "dh.embed",
            vocab.table_size(),
            Self::EMBED_DIM,
            &mut rng,
        );
        let gru = GruCell::new(&mut store, "dh.gru", Self::EMBED_DIM, hidden, &mut rng);
        let decay = TimeDecay::new(&mut store, "dh.decay", 6);
        let mlp = Mlp::new(
            &mut store,
            "dh.mlp",
            &[hidden, 32, 16, 1],
            Activation::Relu,
            &mut rng,
        );
        Self {
            store,
            vocab,
            embedding,
            gru,
            decay,
            mlp,
            max_paths: 30,
        }
    }

    /// The parameter store (for inspection and tests).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Extracts the diffusion-path representation of a cascade.
    pub fn preprocess(&self, cascade: &Cascade, window: f64) -> DeepHawkesSample {
        let o = cascade.observe(window);
        let users = o.users();
        let times: Vec<f64> = o.times().collect();
        let mut paths = Vec::new();
        let mut end_times = Vec::new();
        for (i, path) in o.diffusion_paths().into_iter().enumerate().take(self.max_paths) {
            end_times.push(times[i]);
            paths.push(path.into_iter().map(|v| self.vocab.lookup(users[v])).collect());
        }
        DeepHawkesSample {
            paths,
            end_times,
            window,
            increment: cascade.increment_size(window),
        }
    }

    /// Forward: GRU per path → decay-weighted sum over paths → MLP.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &DeepHawkesSample,
    ) -> E::Value {
        let mut acc: Option<E::Value> = None;
        for (path, &end_time) in sample.paths.iter().zip(&sample.end_times) {
            let inputs = self.embedding.sequence(ex, store, path);
            let hs = self.gru.run(ex, store, &inputs, 1);
            let Some(last) = hs.last() else { continue };
            let weighted = self.decay.apply(ex, store, last, end_time, sample.window);
            acc = Some(match acc {
                Some(a) => ex.add(&a, &weighted),
                None => weighted,
            });
        }
        // lint: allow(no-panic) — preprocess always emits at least the root path, so the fold is non-empty
        let pooled = acc.expect("at least one path");
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
        let train_samples: Vec<DeepHawkesSample> =
            train.iter().map(|c| self.preprocess(c, window)).collect();
        let train_labels: Vec<f32> =
            train_samples.iter().map(|s| metrics::log_label(s.increment)).collect();
        let val_samples: Vec<DeepHawkesSample> =
            val.iter().map(|c| self.preprocess(c, window)).collect();
        let val_increments: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();
        let model = self.clone();
        let forward = |tape: &mut Tape, store: &ParamStore, s: &DeepHawkesSample| {
            model.forward(tape, store, s)
        };
        let predict = |store: &ParamStore, s: &DeepHawkesSample| {
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
}

impl SizePredictor for DeepHawkes {
    fn name(&self) -> String {
        "DeepHawkes".to_string()
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
            seed: 25,
            max_size: 120,
        })
        .generate()
        .filter_observed_size(3600.0, 3, 60)
    }

    #[test]
    fn paths_cover_all_observed_nodes_up_to_cap() {
        let d = data();
        let model = DeepHawkes::new(d.split(Split::Train), 3600.0, 8, 1);
        let c = &d.cascades[0];
        let s = model.preprocess(c, 3600.0);
        let n = c.size_at(3600.0);
        assert_eq!(s.paths.len(), n.min(30));
        assert_eq!(s.paths.len(), s.end_times.len());
    }

    #[test]
    fn forward_is_finite_and_time_sensitive() {
        let d = data();
        let model = DeepHawkes::new(d.split(Split::Train), 3600.0, 8, 1);
        let p = model.predict_log(&d.cascades[0], 3600.0);
        assert!(p.is_finite());
    }

    #[test]
    fn one_epoch_fit_runs() {
        let d = data();
        let mut model = DeepHawkes::new(d.split(Split::Train), 3600.0, 8, 1);
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
