//! Topo-LSTM (Wang et al., ICDM 2017): a DAG-structured LSTM. Nodes are
//! processed in adoption order; each node's incoming state is the mean of
//! its parents' states, so the recurrence follows the cascade topology
//! instead of a flat sequence. The original predicts node activations; as
//! in the paper, the classifier head is replaced by a size regressor.

use cascn::path::observed_vocab;
use cascn::trainer::{self, Objective};
use cascn::{CascnError, SizePredictor, TrainOpts};
use cascn_autograd::{Eval, Exec, ParamStore, Tape};
use cascn_cascades::Cascade;
use cascn_nn::train::History;
use cascn_nn::{metrics, Activation, Embedding, LstmCell, Mlp, NextUserHead, Vocab};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cascade reduced to its topological node/parent arrays.
#[derive(Debug, Clone)]
pub struct TopoSample {
    /// Vocabulary index of each observed adopter (adoption order).
    nodes: Vec<usize>,
    /// Parent position (within `nodes`) of each adopter; `None` for roots.
    parents: Vec<Option<usize>>,
    increment: usize,
}

/// A cascade prefix reduced for the microscopic task: who adopts next.
#[derive(Debug, Clone)]
pub struct TopoNextSample {
    /// The prefix's topology.
    topo: TopoSample,
    /// `mask[row]` is true for every already-infected vocabulary row (+UNK).
    mask: Vec<bool>,
    /// Vocabulary row of the true next adopter.
    target_row: usize,
}

/// The Topo-LSTM baseline.
#[derive(Debug, Clone)]
pub struct TopoLstm {
    store: ParamStore,
    vocab: Vocab,
    embedding: Embedding,
    cell: LstmCell,
    mlp: Mlp,
    /// Cap on the nodes processed per cascade.
    max_nodes: usize,
    /// Masked softmax head over the vocabulary (next-user mode only; the
    /// size-regression parameter layout is unchanged when absent).
    next_head: Option<NextUserHead>,
}

impl TopoLstm {
    /// Embedding width.
    pub const EMBED_DIM: usize = 50;

    /// Builds the model with the vocabulary of the training cascades.
    pub fn new(train: &[Cascade], window: f64, hidden: usize, seed: u64) -> Self {
        let vocab = observed_vocab(train, window);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let embedding = Embedding::new(
            &mut store,
            "topo.embed",
            vocab.table_size(),
            Self::EMBED_DIM,
            &mut rng,
        );
        let cell = LstmCell::new(&mut store, "topo.cell", Self::EMBED_DIM, hidden, &mut rng);
        let mlp = Mlp::new(
            &mut store,
            "topo.mlp",
            &[hidden, 32, 16, 1],
            Activation::Relu,
            &mut rng,
        );
        Self {
            store,
            vocab,
            embedding,
            cell,
            mlp,
            max_nodes: 40,
            next_head: None,
        }
    }

    /// Builds the next-user variant: the same DAG-LSTM encoder plus a
    /// masked softmax head sized to the training vocabulary.
    pub fn new_next_user(train: &[Cascade], window: f64, hidden: usize, seed: u64) -> Self {
        let mut model = Self::new(train, window, hidden, seed);
        // A separate stream so the encoder init matches the size variant.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        model.next_head = Some(NextUserHead::new(
            &mut model.store,
            "topo.next",
            hidden,
            model.vocab.table_size(),
            &mut rng,
        ));
        model
    }

    /// The parameter store (for inspection and tests).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Extracts the topological representation of a cascade.
    pub fn preprocess(&self, cascade: &Cascade, window: f64) -> TopoSample {
        let o = cascade.observe(window);
        let users = o.users();
        let n = o.num_nodes().min(self.max_nodes);
        let nodes = users[..n].iter().map(|&u| self.vocab.lookup(u)).collect();
        let parents = o.events()[..n]
            .iter()
            .map(|e| e.parent.filter(|&p| p < n))
            .collect();
        TopoSample {
            nodes,
            parents,
            increment: cascade.increment_size(window),
        }
    }

    /// DAG-LSTM over the adoption order, mean-pooled to a `1 x hidden`
    /// cascade state shared by the size head and the next-user head.
    fn representation<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &TopoSample,
    ) -> E::Value {
        let emb = self.embedding.forward(ex, store, sample.nodes.clone());
        let mut states: Vec<(E::Value, E::Value)> = Vec::with_capacity(sample.nodes.len());
        for (i, parent) in sample.parents.iter().enumerate() {
            let x = ex.slice_rows(&emb, i, 1);
            let state = match parent {
                Some(p) => self.cell.step(ex, store, &x, &states[*p]),
                None => {
                    let root = self.cell.zero_state(ex, 1);
                    self.cell.step(ex, store, &x, &root)
                }
            };
            states.push(state);
        }
        let hs: Vec<E::Value> = states.into_iter().map(|(h, _)| h).collect();
        let stacked = ex.concat_rows(&hs);
        ex.mean_rows(&stacked)
    }

    /// Forward: DAG-LSTM over the adoption order, mean-pooled node states,
    /// MLP head.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        sample: &TopoSample,
    ) -> E::Value {
        let pooled = self.representation(ex, store, sample);
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
        let train_samples: Vec<TopoSample> =
            train.iter().map(|c| self.preprocess(c, window)).collect();
        let train_labels: Vec<f32> =
            train_samples.iter().map(|s| metrics::log_label(s.increment)).collect();
        let val_samples: Vec<TopoSample> = val.iter().map(|c| self.preprocess(c, window)).collect();
        let val_increments: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();
        let model = self.clone();
        let forward =
            |tape: &mut Tape, store: &ParamStore, s: &TopoSample| model.forward(tape, store, s);
        let predict =
            |store: &ParamStore, s: &TopoSample| Eval::scalar(|ex| model.forward(ex, store, s));
        let objective = Objective::Regression {
            forward: &forward,
            predict: &predict,
            train_labels: &train_labels,
            val_increments: &val_increments,
        };
        trainer::fit(&mut self.store, &objective, &train_samples, &val_samples, opts)
    }

    fn head(&self) -> &NextUserHead {
        self.next_head
            .as_ref()
            // lint: allow(no-panic) — internal invariant: every caller is a next-user entry point and the head always exists on models built by new_next_user
            .expect("next-user API requires a TopoLstm built by new_next_user")
    }

    /// Builds the next-user training example for a cascade prefix, or
    /// `None` when nothing happens after the window, the next adopter is
    /// out of vocabulary, or the target row is already infected.
    pub fn next_sample(&self, cascade: &Cascade, window: f64) -> Option<TopoNextSample> {
        let observed = cascade.observed_size(window);
        let target = cascade.events.get(observed)?;
        let target_row = self.vocab.lookup(target.user);
        let mut mask = vec![false; self.head().table_size()];
        mask[0] = true;
        for u in cascade.observe(window).users() {
            mask[self.vocab.lookup(u)] = true;
        }
        if target_row == 0 || mask[target_row] {
            return None;
        }
        Some(TopoNextSample {
            topo: self.preprocess(cascade, window),
            mask,
            target_row,
        })
    }

    /// Next-event cross-entropy for one sample, as a `1x1` value: on a
    /// [`Tape`] for training, on an [`Eval`] for validation.
    pub fn next_loss<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        s: &TopoNextSample,
    ) -> E::Value {
        let rep = self.representation(ex, store, &s.topo);
        self.head().loss(ex, store, rep, &s.mask, s.target_row)
    }

    /// Trains the next-user variant with next-event cross-entropy on the
    /// shared training loop (ordered gradient merge, thread-invariant,
    /// anomaly-guarded), validating on an [`Eval`].
    ///
    /// # Errors
    /// [`CascnError::Config`] when no cascade in `train` yields a trainable
    /// next-user example.
    pub fn fit_next_user(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> Result<History, CascnError> {
        let collect = |cs: &[Cascade]| -> Vec<TopoNextSample> {
            cs.iter().filter_map(|c| self.next_sample(c, window)).collect()
        };
        let train_samples = collect(train);
        let val_samples = collect(val);
        let model = self.clone();
        let loss = |tape: &mut Tape, store: &ParamStore, s: &TopoNextSample| {
            model.next_loss(tape, store, s)
        };
        let score = |store: &ParamStore, s: &TopoNextSample| {
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
            None,
            None,
            &mut |_, _| {},
            trainer::TrainHooks::default(),
        )
    }

    /// Masked next-user probabilities over the vocabulary for a prefix, on
    /// an [`Eval`].
    fn next_probs(&self, s: &TopoNextSample) -> Vec<f32> {
        let mut ex = Eval::new();
        let rep = self.representation(&mut ex, &self.store, &s.topo);
        self.head().predict_probs(&mut ex, &self.store, rep, &s.mask)
    }

    /// 0-based rank of the true next adopter among uninfected vocabulary
    /// rows, or `None` when the prefix has no in-vocabulary target.
    pub fn next_user_rank(&self, cascade: &Cascade, window: f64) -> Option<usize> {
        let s = self.next_sample(cascade, window)?;
        metrics::masked_rank(&self.next_probs(&s), &s.mask, s.target_row)
    }

    /// Ranks for every evaluable cascade, in input order.
    pub fn next_user_ranks(&self, cascades: &[Cascade], window: f64) -> Vec<usize> {
        cascades
            .iter()
            .filter_map(|c| self.next_user_rank(c, window))
            .collect()
    }
}

impl SizePredictor for TopoLstm {
    fn name(&self) -> String {
        "Topo-LSTM".to_string()
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
            seed: 33,
            max_size: 120,
        })
        .generate()
        .filter_observed_size(3600.0, 3, 60)
    }

    #[test]
    fn parents_are_resolved_within_cap() {
        let d = data();
        let model = TopoLstm::new(d.split(Split::Train), 3600.0, 8, 1);
        let s = model.preprocess(&d.cascades[0], 3600.0);
        assert_eq!(s.nodes.len(), s.parents.len());
        assert!(s.parents[0].is_none(), "root has no parent");
        for (i, p) in s.parents.iter().enumerate().skip(1) {
            if let Some(p) = p {
                assert!(*p < i, "parent must precede child");
            }
        }
    }

    #[test]
    fn topology_affects_prediction() {
        // Same users/times, different wiring → different prediction.
        let mk = |parents: [usize; 3]| {
            Cascade::new(
                7,
                0.0,
                vec![
                    cascn_cascades::Event { user: 1, parent: None, time: 0.0 },
                    cascn_cascades::Event { user: 2, parent: Some(parents[0]), time: 1.0 },
                    cascn_cascades::Event { user: 3, parent: Some(parents[1]), time: 2.0 },
                    cascn_cascades::Event { user: 4, parent: Some(parents[2]), time: 3.0 },
                ],
            )
        };
        let d = data();
        let model = TopoLstm::new(d.split(Split::Train), 3600.0, 8, 1);
        let star = model.predict_log(&mk([0, 0, 0]), 10.0);
        let chain = model.predict_log(&mk([0, 1, 2]), 10.0);
        assert!(star.is_finite() && chain.is_finite());
        assert_ne!(star, chain, "topology must matter to Topo-LSTM");
    }

    #[test]
    fn next_user_masks_infected_rows_and_fits_one_epoch() {
        let d = data();
        let mut model = TopoLstm::new_next_user(d.split(Split::Train), 3600.0, 8, 1);
        let mut checked = 0usize;
        for c in d.cascades.iter().take(30) {
            let Some(s) = model.next_sample(c, 3600.0) else {
                continue;
            };
            checked += 1;
            let probs = model.next_probs(&s);
            for (row, &m) in s.mask.iter().enumerate() {
                if m {
                    assert_eq!(probs[row], 0.0, "masked row {row} must have zero probability");
                }
            }
            let total: f32 = probs.iter().sum();
            assert!((total - 1.0).abs() < 1e-4);
        }
        assert!(checked >= 5, "only {checked} prefixes had a target");
        let opts = TrainOpts {
            epochs: 1,
            ..TrainOpts::default()
        };
        let hist = model
            .fit_next_user(d.split(Split::Train), d.split(Split::Validation), 3600.0, &opts)
            .unwrap();
        assert!(hist.records()[0].val_loss.is_finite());
        let ranks = model.next_user_ranks(d.split(Split::Test), 3600.0);
        assert!(!ranks.is_empty());
        assert!((0.0..=1.0).contains(&metrics::hit_at_k(&ranks, 10)));
    }

    #[test]
    fn one_epoch_fit_runs() {
        let d = data();
        let mut model = TopoLstm::new(d.split(Split::Train), 3600.0, 8, 1);
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
