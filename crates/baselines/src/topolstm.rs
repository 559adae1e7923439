//! Topo-LSTM (Wang et al., ICDM 2017): a DAG-structured LSTM. Nodes are
//! processed in adoption order; each node's incoming state is the mean of
//! its parents' states, so the recurrence follows the cascade topology
//! instead of a flat sequence. The original predicts node activations; as
//! in the paper, the classifier head is replaced by a size regressor.

use cascn::{trainer, CascnError, SizePredictor, TrainOpts};
use cascn_autograd::{ParamStore, Tape, Var};
use cascn_cascades::Cascade;
use cascn_nn::train::History;
use cascn_nn::{metrics, Activation, Embedding, LstmCell, Mlp, NextUserHead, Vocab};
use cascn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cascade reduced to its topological node/parent arrays.
#[derive(Debug, Clone)]
pub struct TopoSample {
    /// Vocabulary index of each observed adopter (adoption order).
    nodes: Vec<usize>,
    /// Parent position (within `nodes`) of each adopter; `None` for roots.
    parents: Vec<Option<usize>>,
    label_log: f32,
    increment: usize,
}

/// A cascade prefix reduced for the microscopic task: who adopts next.
#[derive(Debug, Clone)]
pub struct TopoNextSample {
    nodes: Vec<usize>,
    parents: Vec<Option<usize>>,
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
    hidden: usize,
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
        let vocab = Vocab::build(
            train.iter().flat_map(|c| c.observe(window).users().into_iter()),
            0,
        );
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
            hidden,
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
        let increment = cascade.increment_size(window);
        TopoSample {
            nodes,
            parents,
            label_log: metrics::log_label(increment),
            increment,
        }
    }

    /// DAG-LSTM over the adoption order, mean-pooled to a `1 x hidden`
    /// cascade state shared by the size head and the next-user head.
    fn representation(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        nodes: &[usize],
        parents: &[Option<usize>],
    ) -> Var {
        let emb = self.embedding.forward(tape, store, nodes.to_vec());
        let mut states: Vec<(Var, Var)> = Vec::with_capacity(nodes.len());
        let mut hs: Vec<Var> = Vec::with_capacity(nodes.len());
        for (i, parent) in parents.iter().enumerate() {
            let x = tape.slice_rows(emb, i, 1);
            let incoming = match parent {
                Some(p) => states[*p],
                None => {
                    let h0 = tape.constant(Matrix::zeros(1, self.hidden));
                    let c0 = tape.constant(Matrix::zeros(1, self.hidden));
                    (h0, c0)
                }
            };
            let state = self.cell.step(tape, store, x, incoming);
            hs.push(state.0);
            states.push(state);
        }
        let stacked = tape.concat_rows(&hs);
        tape.mean_rows(stacked)
    }

    /// Forward: DAG-LSTM over the adoption order, mean-pooled node states,
    /// MLP head.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, sample: &TopoSample) -> Var {
        let pooled = self.representation(tape, store, &sample.nodes, &sample.parents);
        self.mlp.forward(tape, store, pooled)
    }

    /// Trains the model end-to-end.
    pub fn fit(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> History {
        let train_samples: Vec<TopoSample> =
            train.iter().map(|c| self.preprocess(c, window)).collect();
        let train_labels: Vec<f32> = train_samples.iter().map(|s| s.label_log).collect();
        let val_samples: Vec<TopoSample> =
            val.iter().map(|c| self.preprocess(c, window)).collect();
        let val_increments: Vec<usize> = val_samples.iter().map(|s| s.increment).collect();
        let model = self.clone();
        let forward = move |tape: &mut Tape, store: &ParamStore, s: &TopoSample| {
            model.forward(tape, store, s)
        };
        trainer::train_loop(
            &mut self.store,
            &forward,
            &train_samples,
            &train_labels,
            &val_samples,
            &val_increments,
            opts,
        )
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
        let o = cascade.observe(window);
        let users = o.users();
        let mut mask = vec![false; self.head().table_size()];
        mask[0] = true;
        for &u in &users {
            mask[self.vocab.lookup(u)] = true;
        }
        if target_row == 0 || mask[target_row] {
            return None;
        }
        let n = o.num_nodes().min(self.max_nodes);
        let nodes = users[..n].iter().map(|&u| self.vocab.lookup(u)).collect();
        let parents = o.events()[..n]
            .iter()
            .map(|e| e.parent.filter(|&p| p < n))
            .collect();
        Some(TopoNextSample {
            nodes,
            parents,
            mask,
            target_row,
        })
    }

    /// Next-event cross-entropy for one sample (a `1x1` tape variable).
    pub fn next_loss(&self, tape: &mut Tape, store: &ParamStore, s: &TopoNextSample) -> Var {
        let rep = self.representation(tape, store, &s.nodes, &s.parents);
        self.head().loss(tape, store, rep, &s.mask, s.target_row)
    }

    /// Trains the next-user variant with next-event cross-entropy on the
    /// shared training loop (ordered gradient merge, thread-invariant,
    /// anomaly-guarded).
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
        let loss = move |tape: &mut Tape, store: &ParamStore, s: &TopoNextSample| {
            model.next_loss(tape, store, s)
        };
        let score = |store: &ParamStore, s: &TopoNextSample| trainer::predict_with(store, &loss, s);
        trainer::run(
            &mut self.store,
            &trainer::Objective::Ranked {
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

    /// 0-based rank of the true next adopter among uninfected vocabulary
    /// rows, or `None` when the prefix has no in-vocabulary target.
    pub fn next_user_rank(&self, cascade: &Cascade, window: f64) -> Option<usize> {
        let s = self.next_sample(cascade, window)?;
        let mut tape = Tape::new();
        let rep = self.representation(&mut tape, &self.store, &s.nodes, &s.parents);
        let probs = self
            .head()
            .predict_probs(&mut tape, &self.store, rep, &s.mask);
        let mut scores = Vec::with_capacity(probs.len());
        let mut target_idx = None;
        for (row, &p) in probs.iter().enumerate().skip(1) {
            if s.mask[row] {
                continue;
            }
            if row == s.target_row {
                target_idx = Some(scores.len());
            }
            scores.push(p);
        }
        Some(metrics::rank_of(&scores, target_idx?))
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
        let forward = |tape: &mut Tape, store: &ParamStore, s: &TopoSample| {
            self.forward(tape, store, s)
        };
        trainer::predict_with(&self.store, &forward, &sample)
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
            let mut tape = Tape::new();
            let rep = model.representation(&mut tape, &model.store, &s.nodes, &s.parents);
            let probs = model
                .head()
                .predict_probs(&mut tape, &model.store, rep, &s.mask);
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
