//! Node2Vec baseline (Grover & Leskovec, KDD 2016): biased random walks +
//! skip-gram with negative sampling (SGNS), then an MLP over the mean node
//! embedding of each observed cascade — the paper's representative of pure
//! node-embedding methods.

use std::collections::HashMap;

use cascn::{SizePredictor, TrainOpts};
use cascn_autograd::ParamStore;
use cascn_cascades::Cascade;
use cascn_graph::walks::{self, Node2VecConfig};
use cascn_nn::train::History;
use cascn_nn::{Activation, Mlp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{fit_head, predict_head};

/// Hyper-parameters of the Node2Vec baseline.
#[derive(Debug, Clone, Copy)]
pub struct Node2VecModelConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Walk biasing and sampling parameters.
    pub walks: Node2VecConfig,
    /// Skip-gram context window.
    pub window_size: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// SGNS epochs.
    pub sgns_epochs: usize,
    /// SGNS learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Node2VecModelConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            walks: Node2VecConfig {
                walks_per_node: 2,
                walk_length: 8,
                ..Node2VecConfig::default()
            },
            window_size: 2,
            negatives: 3,
            sgns_epochs: 2,
            lr: 0.025,
            seed: 29,
        }
    }
}

/// SGNS embeddings + MLP regressor.
#[derive(Debug, Clone)]
pub struct Node2VecModel {
    cfg: Node2VecModelConfig,
    users: HashMap<u64, usize>,
    /// Flattened `num_users x dim` input embeddings.
    embeddings: Vec<f32>,
    store: ParamStore,
    mlp: Mlp,
}

impl Node2VecModel {
    /// Learns SGNS embeddings over the training cascades' walks and prepares
    /// the regression head (call [`Node2VecModel::fit_head`] afterwards).
    ///
    /// # Panics
    /// Panics if `train` is empty.
    pub fn fit_embeddings(train: &[Cascade], window: f64, cfg: Node2VecModelConfig) -> Self {
        assert!(!train.is_empty(), "Node2Vec: empty training set");
        let mut users = HashMap::new();
        for c in train {
            for u in c.observe(window).users() {
                let next = users.len();
                users.entry(u).or_insert(next);
            }
        }
        let n_users = users.len().max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut embeddings = vec![0.0f32; n_users * cfg.dim];
        let mut context = vec![0.0f32; n_users * cfg.dim];
        for x in embeddings.iter_mut() {
            *x = rng.random_range(-0.5..0.5f32) / cfg.dim as f32;
        }

        // Walk corpus: biased walks over each observed cascade graph.
        let mut corpus: Vec<Vec<usize>> = Vec::new();
        for c in train {
            let o = c.observe(window);
            let g = o.graph();
            let us = o.users();
            for walk in walks::sample_node2vec_walks(&g, cfg.walks, &mut rng) {
                corpus.push(walk.into_iter().map(|v| users[&us[v]]).collect());
            }
        }

        // SGNS over (center, context) pairs inside the window.
        for _ in 0..cfg.sgns_epochs {
            for walk in &corpus {
                for (i, &center) in walk.iter().enumerate() {
                    let lo = i.saturating_sub(cfg.window_size);
                    let hi = (i + cfg.window_size + 1).min(walk.len());
                    for &ctx in &walk[lo..hi] {
                        if ctx == center {
                            continue;
                        }
                        sgns_update(&mut embeddings, &mut context, cfg.dim, center, ctx, 1.0, cfg.lr);
                        for _ in 0..cfg.negatives {
                            let neg = rng.random_range(0..n_users);
                            sgns_update(
                                &mut embeddings,
                                &mut context,
                                cfg.dim,
                                center,
                                neg,
                                0.0,
                                cfg.lr,
                            );
                        }
                    }
                }
            }
        }

        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "n2v.mlp",
            &[cfg.dim, 32, 16, 1],
            Activation::Relu,
            &mut StdRng::seed_from_u64(cfg.seed ^ 0xABCD),
        );
        Self {
            cfg,
            users,
            embeddings,
            store,
            mlp,
        }
    }

    /// Trains the MLP head on the frozen embeddings.
    pub fn fit_head(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> History {
        let train_x: Vec<Vec<f32>> = train.iter().map(|c| self.cascade_vector(c, window)).collect();
        let val_x: Vec<Vec<f32>> = val.iter().map(|c| self.cascade_vector(c, window)).collect();
        fit_head(&mut self.store, &self.mlp, train, &train_x, val, &val_x, window, opts)
    }

    /// Convenience: embeddings + head in one call.
    pub fn fit(
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        cfg: Node2VecModelConfig,
        opts: &TrainOpts,
    ) -> (Self, History) {
        let mut model = Self::fit_embeddings(train, window, cfg);
        let history = model.fit_head(train, val, window, opts);
        (model, history)
    }

    /// Mean embedding of the observed adopters (zeros for unknown users).
    pub fn cascade_vector(&self, cascade: &Cascade, window: f64) -> Vec<f32> {
        let o = cascade.observe(window);
        let mut acc = vec![0.0f32; self.cfg.dim];
        let us = o.users();
        for u in &us {
            if let Some(&idx) = self.users.get(u) {
                for (a, &e) in acc.iter_mut().zip(&self.embeddings[idx * self.cfg.dim..(idx + 1) * self.cfg.dim]) {
                    *a += e;
                }
            }
        }
        for a in &mut acc {
            *a /= us.len() as f32;
        }
        acc
    }

    /// The parameter store (for inspection and tests).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Number of embedded users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }
}

impl SizePredictor for Node2VecModel {
    fn name(&self) -> String {
        "Node2Vec".to_string()
    }

    fn predict_log(&self, cascade: &Cascade, window: f64) -> f32 {
        let x = self.cascade_vector(cascade, window);
        predict_head(&self.mlp, &self.store, &x)
    }
}

/// One SGNS gradient step on the pair `(center, ctx)` with the given label.
fn sgns_update(
    emb: &mut [f32],
    ctx_emb: &mut [f32],
    dim: usize,
    center: usize,
    ctx: usize,
    label: f32,
    lr: f32,
) {
    let (ci, xi) = (center * dim, ctx * dim);
    let dot: f32 = (0..dim).map(|k| emb[ci + k] * ctx_emb[xi + k]).sum();
    let p = 1.0 / (1.0 + (-dot).exp());
    let g = (p - label) * lr;
    for k in 0..dim {
        let e = emb[ci + k];
        emb[ci + k] -= g * ctx_emb[xi + k];
        ctx_emb[xi + k] -= g * e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
    use cascn_cascades::Split;

    fn data() -> cascn_cascades::Dataset {
        WeiboGenerator::new(WeiboConfig {
            num_cascades: 250,
            seed: 14,
            max_size: 120,
        })
        .generate()
        .filter_observed_size(3600.0, 3, 60)
    }

    #[test]
    fn embeddings_are_learned_for_all_users() {
        let d = data();
        let m = Node2VecModel::fit_embeddings(
            d.split(Split::Train),
            3600.0,
            Node2VecModelConfig::default(),
        );
        assert!(m.num_users() > 50);
        assert!(m.embeddings.iter().any(|&x| x != 0.0));
        assert!(m.embeddings.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn cascade_vector_is_mean_of_members() {
        let d = data();
        let m = Node2VecModel::fit_embeddings(
            d.split(Split::Train),
            3600.0,
            Node2VecModelConfig::default(),
        );
        let v = m.cascade_vector(&d.split(Split::Train)[0], 3600.0);
        assert_eq!(v.len(), 32);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn full_fit_predicts_finite() {
        let d = data();
        let opts = TrainOpts {
            epochs: 3,
            ..TrainOpts::default()
        };
        let (m, hist) = Node2VecModel::fit(
            d.split(Split::Train),
            d.split(Split::Validation),
            3600.0,
            Node2VecModelConfig::default(),
            &opts,
        );
        assert!(!hist.records().is_empty());
        let msle = cascn::evaluate(&m, d.split(Split::Test), 3600.0);
        assert!(msle.is_finite());
    }
}
