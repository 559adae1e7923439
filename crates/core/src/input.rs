//! Cascade preprocessing: snapshots and the scaled-Laplacian operator.
//!
//! Preprocessing is deterministic and model-independent, so trainers run it
//! once per cascade and cache the result across epochs.

use std::sync::Arc;

use cascn_autograd::Exec;
use cascn_cascades::{Cascade, CascadeFault, Event};
use cascn_graph::{laplacian, DiGraph, SpectralBasis};
use cascn_nn::ChebOperands;
use cascn_tensor::{Csr, Matrix};

use crate::config::{CascnConfig, LambdaMax, LaplacianKind};

/// A cascade converted to CasCN's input representation.
#[derive(Debug, Clone)]
pub struct PreprocessedCascade {
    /// The cascade's spectral handle: the scaled Laplacian `Δ̃_c` in sparse
    /// operator form plus the Chebyshev order `K`.
    pub basis: SpectralBasis,
    /// Materialized dense bases `T_k(Δ̃_c)` (length `K + 1`): the reference
    /// the sparse kernel is checked against, set only by
    /// [`PreprocessedCascade::with_dense_bases`]. Preprocessing never
    /// builds them.
    pub dense_bases: Option<Vec<Matrix>>,
    /// The observed adjacency as `(parent, child)` entries in arrival order,
    /// the root's self-loop `(0, 0)` first. Snapshots are cumulative, so the
    /// Fig. 3 snapshot `X_t` is a prefix of this list
    /// ([`PreprocessedCascade::snapshot`]).
    pub edges: Vec<(usize, usize)>,
    /// Length of the `edges` prefix each snapshot holds: non-decreasing,
    /// one entry per step, the last equal to `edges.len()`.
    pub prefix_lens: Vec<usize>,
    /// Diffusion time of each snapshot (seconds since the root post): the
    /// arrival of the last event of its step.
    pub times: Vec<f64>,
    /// Number of observed nodes `n` (≤ `max_nodes`).
    pub n: usize,
    /// Observation window used.
    pub window: f64,
    /// Ground-truth log-increment `ln(1 + ΔS)`.
    pub label_log: f32,
    /// Raw increment label `ΔS`.
    pub increment: usize,
}

impl PreprocessedCascade {
    /// Materializes the dense bases from the spectral handle — the oracle
    /// that gradcheck, the accuracy gate and the sparse-vs-dense tests run
    /// the model against. `O(K·n²)` memory; not for serving.
    pub fn with_dense_bases(mut self) -> Self {
        self.dense_bases = Some(self.basis.materialize());
        self
    }

    /// The convolution operands a ChebConv cell runs against — the dense
    /// oracle when [`PreprocessedCascade::with_dense_bases`] materialized
    /// bases, sparse operator form otherwise.
    pub fn operands<'s, E: Exec<'s>>(&'s self, ex: &mut E) -> ChebOperands<E::Value> {
        match &self.dense_bases {
            Some(bases) => ChebOperands::dense(ex, bases),
            None => ChebOperands::sparse(&self.basis),
        }
    }

    /// Number of snapshots `T`.
    pub fn num_steps(&self) -> usize {
        self.prefix_lens.len()
    }

    /// Snapshot `X_t` as a sparse `n × width` signal: a 1 at
    /// `(parent, child)` for each of its edges. `width` is the filter width
    /// the snapshot is padded to (`cfg.max_nodes`, ≥ `n`).
    ///
    /// # Panics
    /// Panics if `t` is not a step or `width < n`.
    pub fn snapshot(&self, t: usize, width: usize) -> Csr {
        let edges = &self.edges[..self.prefix_lens[t]];
        Csr::from_triplets(self.n, width, edges.iter().map(|&(p, c)| (p, c, 1.0)))
    }

    /// Every snapshot `X_0, …, X_{T-1}` in the shared form the tape takes.
    pub fn snapshots(&self, width: usize) -> Vec<Arc<Csr>> {
        (0..self.num_steps())
            .map(|t| Arc::new(self.snapshot(t, width)))
            .collect()
    }
}

/// Builds the model input for one cascade under `cfg` at observation window
/// `window`:
///
/// 1. truncate the observed prefix to `cfg.max_nodes` adopters;
/// 2. build the cascade graph and its (directed or undirected) Laplacian;
/// 3. scale by `λ_max` into the sparse operator `Δ̃` the order-`K`
///    Chebyshev recurrence runs on;
/// 4. record the Fig. 3 adjacency snapshot sequence as one edge list with a
///    prefix length per step.
pub fn preprocess(cascade: &Cascade, window: f64, cfg: &CascnConfig) -> PreprocessedCascade {
    let basis = spectral_basis(cascade, window, cfg);
    assemble(cascade, window, cfg, basis)
}

/// Step 2–3 of [`preprocess`] in isolation: the cascade's spectral handle
/// (Laplacian → `λ_max` → scaled sparse operator), built in `O(nnz)` by
/// [`SpectralBasis::directed`] or [`SpectralBasis::undirected`] as
/// `cfg.laplacian` says.
///
/// This is the expensive, model-parameter-independent part of
/// preprocessing, so serving layers compute it once per (cascade, window)
/// and reuse it across requests via [`preprocess_with_basis`].
pub fn spectral_basis(cascade: &Cascade, window: f64, cfg: &CascnConfig) -> SpectralBasis {
    spectral_solve(cascade, window, cfg).0
}

/// [`spectral_basis`] plus whether its φ solve stopped at the sweep cap
/// without converging (never for the undirected Laplacian, which has no φ).
fn spectral_solve(cascade: &Cascade, window: f64, cfg: &CascnConfig) -> (SpectralBasis, bool) {
    let g = observed_graph(cascade, window, cfg);
    let lambda_max = match cfg.lambda_max {
        LambdaMax::Exact => None,
        LambdaMax::Approx2 => Some(2.0),
    };
    match cfg.laplacian {
        LaplacianKind::Directed => {
            let (basis, phi) = laplacian::directed_operator(&g, cfg.alpha, lambda_max, cfg.k);
            (basis, !phi.converged)
        }
        LaplacianKind::Undirected => (SpectralBasis::undirected(&g, lambda_max, cfg.k), false),
    }
}

/// The local cascade graph over the observed, truncated prefix: the first
/// `min(observed, max_nodes)` adopters with edges into truncated nodes
/// dropped alongside them.
fn observed_graph(cascade: &Cascade, window: f64, cfg: &CascnConfig) -> DiGraph {
    let observed = cascade.observe(window);
    let n = observed.num_nodes().min(cfg.max_nodes);
    let mut g = DiGraph::new(n);
    for (i, e) in observed.events().iter().enumerate().take(n).skip(1) {
        // Cascade validation guarantees non-root events carry parents.
        if let Some(p) = e.parent {
            if p < n {
                g.add_edge(p, i, 1.0);
            }
        }
    }
    g
}

/// [`preprocess`] with the spectral work already done — the cache-hit path
/// of the serving layer. `basis` must have been built by
/// [`spectral_basis`] for the same `(cascade, window, cfg)`; the output is
/// then bit-identical to [`preprocess`].
pub fn preprocess_with_basis(
    cascade: &Cascade,
    window: f64,
    cfg: &CascnConfig,
    basis: &SpectralBasis,
) -> PreprocessedCascade {
    assemble(cascade, window, cfg, basis.clone())
}

/// The shared tail of preprocessing: snapshot sampling and label
/// extraction around an owned spectral handle.
fn assemble(
    cascade: &Cascade,
    window: f64,
    cfg: &CascnConfig,
    basis: SpectralBasis,
) -> PreprocessedCascade {
    let n = basis.num_nodes();
    debug_assert_eq!(
        n,
        cascade.observe(window).num_nodes().min(cfg.max_nodes),
        "spectral basis node count disagrees with the observed prefix"
    );

    let (edges, prefix_lens, times) = snapshot_edges(&cascade.events[..n], cfg.max_steps);
    let increment = cascade.increment_size(window);
    PreprocessedCascade {
        basis,
        dense_bases: None,
        edges,
        prefix_lens,
        times,
        n,
        window,
        label_log: cascn_nn::metrics::log_label(increment),
        increment,
    }
}

/// Streaming preprocessor for one growing cascade.
///
/// Holds the cascade, its observation window and the spectral handle of
/// the observed, truncated prefix. Appends and window moves rebuild the
/// handle through [`spectral_basis`] whenever the observed node count
/// changes — the observed prefix only ever grows or shrinks at its end, so
/// an unchanged count means an unchanged graph — and events beyond the
/// window touch only the label side.
///
/// Parity contract (tested here and in the workspace property suite):
/// [`WindowedPreprocessor::current`] equals [`preprocess`] on the same
/// `(cascade, window, cfg)` — snapshot edges, times, labels and the
/// operator bit-identical, for both Laplacian kinds.
pub struct WindowedPreprocessor {
    cascade: Cascade,
    cfg: CascnConfig,
    window: f64,
    basis: SpectralBasis,
    /// φ solves that stopped at the sweep cap, over every rebuild.
    warm_fallbacks: u64,
}

impl WindowedPreprocessor {
    /// Registers a live cascade: one cold preprocessing pass.
    pub fn new(cascade: Cascade, window: f64, cfg: &CascnConfig) -> Self {
        let (basis, unconverged) = spectral_solve(&cascade, window, cfg);
        Self { cascade, cfg: *cfg, window, basis, warm_fallbacks: u64::from(unconverged) }
    }

    /// The cascade as currently observed (input prefix plus future events).
    pub fn cascade(&self) -> &Cascade {
        &self.cascade
    }

    /// The active observation window.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// The current spectral handle (cheap clone; heavy parts are `Arc`ed).
    pub fn basis(&self) -> SpectralBasis {
        self.basis.clone()
    }

    /// Observed-and-truncated node count — the operator's dimension.
    pub fn num_nodes(&self) -> usize {
        self.nodes_at(self.window)
    }

    /// φ solves that stopped at the sweep cap without converging, summed
    /// over every rebuild (0 for the undirected variant, which has no φ).
    pub fn warm_fallbacks(&self) -> u64 {
        self.warm_fallbacks
    }

    /// Approximate heap footprint for registry memory accounting.
    pub fn approx_bytes(&self) -> usize {
        self.cascade.final_size() * std::mem::size_of::<Event>() + self.basis.approx_bytes()
    }

    /// Moves the observation window to `window` and appends `events`
    /// atomically: each is validated against the cascade with the same
    /// invariants as the strict loader, and if one fails, nothing is
    /// applied and `Err((index, fault))` names it. On success the spectral
    /// handle is rebuilt once if the observed node count changed.
    ///
    /// Returns how many nodes entered the observed prefix: those a growing
    /// window pulls in plus the appended events that land inside the new
    /// window and below `max_nodes`. A shrinking window contributes none.
    pub fn append(&mut self, window: f64, events: &[Event]) -> Result<usize, (usize, CascadeFault)> {
        let before = self.nodes_at(self.window);
        let moved = self.nodes_at(window);
        let len = self.cascade.events.len();
        for (i, e) in events.iter().enumerate() {
            if let Err(fault) = self.cascade.try_append(e.clone()) {
                self.cascade.events.truncate(len);
                return Err((i, fault));
            }
        }
        self.window = window;
        let after = self.nodes_at(window);
        if after != before {
            let (basis, unconverged) = spectral_solve(&self.cascade, window, &self.cfg);
            self.basis = basis;
            self.warm_fallbacks += u64::from(unconverged);
        }
        Ok(after - moved.min(before))
    }

    /// The model input at the current `(cascade, window)`: the live
    /// spectral handle (a cheap clone) plus snapshot edges and labels,
    /// which are recomputed (they are `O(n)`).
    pub fn current(&self) -> PreprocessedCascade {
        assemble(&self.cascade, self.window, &self.cfg, self.basis.clone())
    }

    fn nodes_at(&self, window: f64) -> usize {
        self.cascade.observed_size(window).max(1).min(self.cfg.max_nodes)
    }
}

/// The Fig. 3 snapshot sequence over the observed, truncated `events`, as
/// `(edges, prefix_lens, times)` (see [`PreprocessedCascade`]).
///
/// `min(n, max_steps)` steps split the events evenly, the last step ending
/// at the final event, so the final snapshot holds the whole observed
/// adjacency however the steps are capped.
fn snapshot_edges(
    events: &[Event],
    max_steps: usize,
) -> (Vec<(usize, usize)>, Vec<usize>, Vec<f64>) {
    let n = events.len();
    let steps = n.min(max_steps.max(1));
    let mut edges = Vec::with_capacity(n);
    edges.push((0, 0)); // root self-connection
    let mut prefix_lens = Vec::with_capacity(steps);
    let mut times = Vec::with_capacity(steps);
    let mut next_event = 1usize;
    for s in 1..=steps {
        let boundary = (s * n).div_ceil(steps);
        while next_event < boundary {
            // Cascade validation guarantees non-root events carry parents.
            if let Some(p) = events[next_event].parent {
                if p < n {
                    edges.push((p, next_event));
                }
            }
            next_event += 1;
        }
        prefix_lens.push(edges.len());
        times.push(events[boundary - 1].time);
    }
    (edges, prefix_lens, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_cascades::Event;

    fn fig1() -> Cascade {
        Cascade::new(
            1,
            0.0,
            vec![
                Event { user: 0, parent: None, time: 0.0 },
                Event { user: 1, parent: Some(0), time: 10.0 },
                Event { user: 2, parent: Some(0), time: 20.0 },
                Event { user: 3, parent: Some(1), time: 30.0 },
                Event { user: 4, parent: Some(1), time: 40.0 },
                Event { user: 5, parent: Some(3), time: 50.0 },
            ],
        )
    }

    fn cfg() -> CascnConfig {
        CascnConfig {
            max_nodes: 10,
            max_steps: 8,
            k: 2,
            ..CascnConfig::default()
        }
    }

    #[test]
    fn shapes_are_consistent() {
        let p = preprocess(&fig1(), 60.0, &cfg());
        assert_eq!(p.n, 6);
        assert_eq!(p.basis.order(), 2, "order K");
        assert_eq!(p.basis.num_nodes(), 6);
        assert!(
            p.dense_bases.is_none(),
            "preprocessing must not materialize dense bases"
        );
        assert_eq!(p.num_steps(), 6);
        for t in 0..p.num_steps() {
            let x = p.snapshot(t, 10);
            assert_eq!((x.rows(), x.cols()), (6, 10), "column padded to max_nodes");
        }
        assert_eq!(p.times.len(), p.num_steps());
        assert_eq!(p.increment, 0);
        assert_eq!(p.label_log, 0.0, "ln(1+0) = 0");
    }

    #[test]
    fn window_truncates_label() {
        let p = preprocess(&fig1(), 25.0, &cfg());
        assert_eq!(p.n, 3);
        assert_eq!(p.increment, 3);
        assert!((p.label_log - 4.0f32.ln()).abs() < 1e-6);
    }

    /// Boundary pin: an event at exactly `t == window` belongs to the model
    /// input, not to the label — `observe`, `increment_size`, and label
    /// truncation must all agree on that, at the boundary and ±ε around it.
    #[test]
    fn window_boundary_event_is_input_not_label() {
        let c = fig1(); // has an event at exactly t = 20.0
        let eps = 1e-9;
        let at = preprocess(&c, 20.0, &cfg());
        assert_eq!(at.n, 3, "boundary event is observed");
        assert_eq!(at.increment, 3, "boundary event is not predicted");
        assert!((at.label_log - 4.0f32.ln()).abs() < 1e-6);
        assert_eq!(*at.times.last().unwrap(), 20.0, "boundary event's time is in the input");

        let below = preprocess(&c, 20.0 - eps, &cfg());
        assert_eq!((below.n, below.increment), (2, 4));
        let above = preprocess(&c, 20.0 + eps, &cfg());
        assert_eq!((above.n, above.increment), (3, 3));
        for p in [&at, &below, &above] {
            assert_eq!(p.n + p.increment, c.final_size(), "no event lost or double-counted");
        }
    }

    #[test]
    fn oversize_cascades_are_truncated() {
        let small = CascnConfig {
            max_nodes: 4,
            ..cfg()
        };
        let p = preprocess(&fig1(), 60.0, &small);
        assert_eq!(p.n, 4);
        assert_eq!(p.basis.num_nodes(), 4);
        // Edges to truncated nodes must not appear.
        assert_eq!(p.edges, vec![(0, 0), (0, 1), (0, 2), (1, 3)]);
        let last = p.snapshot(p.num_steps() - 1, 4).to_dense();
        assert_eq!(last.sum(), 1.0 + 3.0, "self-loop + edges among first 4 nodes");
    }

    #[test]
    fn step_cap_preserves_final_snapshot() {
        let capped = CascnConfig {
            max_steps: 2,
            ..cfg()
        };
        let full = preprocess(&fig1(), 60.0, &cfg());
        let short = preprocess(&fig1(), 60.0, &capped);
        assert_eq!(short.num_steps(), 2);
        assert_eq!(
            short.snapshot(1, 10),
            full.snapshot(full.num_steps() - 1, 10),
            "final snapshot must contain the whole observed cascade"
        );
        assert_eq!(*short.times.last().unwrap(), 50.0);
    }

    #[test]
    fn snapshots_match_fig3_shape() {
        let p = preprocess(
            &fig1(),
            60.0,
            &CascnConfig {
                max_steps: 100,
                ..cfg()
            },
        );
        assert_eq!(p.num_steps(), 6);
        // Root self-loop first; the edge list is in arrival order.
        assert_eq!(
            p.edges,
            vec![(0, 0), (0, 1), (0, 2), (1, 3), (1, 4), (3, 5)]
        );
        // First snapshot: only the root self-loop.
        let first = p.snapshot(0, 6).to_dense();
        assert_eq!(first.sum(), 1.0);
        assert_eq!(first[(0, 0)], 1.0);
        // Snapshots are monotone prefixes of the edge list.
        assert!(p.prefix_lens.windows(2).all(|w| w[0] <= w[1]));
        let dense: Vec<Matrix> = (0..p.num_steps())
            .map(|t| p.snapshot(t, 6).to_dense())
            .collect();
        for w in dense.windows(2) {
            for i in 0..w[0].len() {
                assert!(w[1].as_slice()[i] >= w[0].as_slice()[i]);
            }
        }
        // Last snapshot: self-loop + 5 edges.
        assert_eq!(dense[5].sum(), 6.0);
        assert_eq!(dense[5][(1, 3)], 1.0);
        assert_eq!(dense[5][(3, 5)], 1.0);
    }

    #[test]
    fn snapshots_respect_cap_and_end_state() {
        let p = preprocess(
            &fig1(),
            60.0,
            &CascnConfig {
                max_steps: 3,
                ..cfg()
            },
        );
        assert_eq!(p.num_steps(), 3);
        assert_eq!(*p.prefix_lens.last().unwrap(), p.edges.len());
        assert_eq!(
            p.snapshot(2, 10).to_dense().sum(),
            6.0,
            "final snapshot must be complete"
        );
        assert_eq!(p.times.len(), 3);
        // Each time is the arrival of its step's last event (steps end at
        // events 2, 4 and 6).
        assert_eq!(p.times, vec![10.0, 30.0, 50.0]);
    }

    #[test]
    fn snapshot_times_are_sorted() {
        let p = preprocess(
            &fig1(),
            60.0,
            &CascnConfig {
                max_steps: 4,
                ..cfg()
            },
        );
        assert_eq!(p.times.len(), 4);
        assert!(p.times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn approx2_sets_lambda() {
        let c = CascnConfig {
            lambda_max: LambdaMax::Approx2,
            ..cfg()
        };
        let p = preprocess(&fig1(), 60.0, &c);
        assert_eq!(p.basis.lambda_max, 2.0);
        let exact = preprocess(&fig1(), 60.0, &cfg());
        assert_ne!(exact.basis.lambda_max, 2.0);
    }

    #[test]
    fn undirected_bases_are_symmetric() {
        let c = CascnConfig {
            laplacian: LaplacianKind::Undirected,
            ..cfg()
        };
        let p = preprocess(&fig1(), 60.0, &c).with_dense_bases();
        let bases = p.dense_bases.as_ref().expect("the oracle materializes");
        assert_eq!(bases.len(), 3, "K + 1 bases");
        let t1 = &bases[1];
        for r in 0..t1.rows() {
            for cidx in 0..t1.cols() {
                assert!((t1[(r, cidx)] - t1[(cidx, r)]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn dense_kernel_materializes_matching_bases() {
        let sparse = preprocess(&fig1(), 60.0, &cfg());
        let p = sparse.clone().with_dense_bases();
        let bases = p.dense_bases.as_ref().expect("the oracle materializes");
        assert_eq!(bases.len(), 3, "K + 1 bases");
        for b in bases {
            assert_eq!(b.shape(), (6, 6));
        }
        // The oracle is exactly basis.materialize() of the same handle, and
        // touches nothing else of the sample.
        assert_eq!(p.basis, sparse.basis);
        assert_eq!(p.basis.lambda_max.to_bits(), sparse.basis.lambda_max.to_bits());
        assert_eq!((&p.edges, &p.prefix_lens), (&sparse.edges, &sparse.prefix_lens));
        for (a, b) in sparse.basis.materialize().iter().zip(bases) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // The model runs the oracle's operands only on the oracle sample.
        let mut tape = cascn_autograd::Tape::new();
        assert!(matches!(p.operands(&mut tape), ChebOperands::Dense(ref b) if b.len() == 3));
        assert!(matches!(sparse.operands(&mut tape), ChebOperands::Sparse { k: 2, .. }));
    }

    #[test]
    fn cached_basis_path_is_bit_identical() {
        // The serving cache depends on preprocess_with_basis(spectral_basis(…))
        // reproducing preprocess(…) exactly.
        for window in [25.0, 60.0] {
            let direct = preprocess(&fig1(), window, &cfg());
            let basis = spectral_basis(&fig1(), window, &cfg());
            let cached = preprocess_with_basis(&fig1(), window, &cfg(), &basis);
            assert_eq!(direct.n, cached.n);
            assert_eq!(direct.basis.lambda_max.to_bits(), cached.basis.lambda_max.to_bits());
            assert_eq!(
                direct.basis.scaled_dense().as_slice(),
                cached.basis.scaled_dense().as_slice(),
                "operators must match bit-for-bit"
            );
            assert_eq!(direct.edges, cached.edges);
            assert_eq!(direct.prefix_lens, cached.prefix_lens);
            assert_eq!(direct.times, cached.times);
            assert_eq!(direct.increment, cached.increment);
        }
    }

    #[test]
    fn spectral_basis_respects_node_truncation() {
        let small = CascnConfig { max_nodes: 4, ..cfg() };
        let basis = spectral_basis(&fig1(), 60.0, &small);
        assert_eq!(basis.num_nodes(), 4);
        assert_eq!(basis.order(), small.k);
    }

    fn assert_matches_cold(p: &PreprocessedCascade, cascade: &Cascade, window: f64, c: &CascnConfig) {
        let cold = preprocess(cascade, window, c);
        assert_eq!(p.n, cold.n);
        assert_eq!(p.increment, cold.increment);
        assert_eq!(p.times, cold.times);
        assert_eq!(p.edges, cold.edges, "snapshot edges must match");
        assert_eq!(
            p.prefix_lens, cold.prefix_lens,
            "snapshot prefixes must match"
        );
        // The live operator runs the cold pipeline on the same adjacency,
        // so the basis matches exactly.
        assert_eq!(p.basis.lambda_max.to_bits(), cold.basis.lambda_max.to_bits());
        assert_eq!(p.basis, cold.basis, "operator drifted from cold preprocessing");
        assert!(p.dense_bases.is_none(), "the live path must not materialize dense bases");
    }

    #[test]
    fn windowed_preprocessor_tracks_cold_preprocessing_per_event() {
        let full = fig1();
        // Start from the first three events; stream the rest in one by one.
        let seed = Cascade::new(1, 0.0, full.events[..3].to_vec());
        let window = 100.0;
        let mut wp = WindowedPreprocessor::new(seed, window, &cfg());
        assert_matches_cold(&wp.current(), wp.cascade(), window, &cfg());
        for e in &full.events[3..] {
            assert_eq!(wp.append(window, std::slice::from_ref(e)), Ok(1), "in-window event");
            let snapshot = wp.cascade().clone();
            assert_matches_cold(&wp.current(), &snapshot, window, &cfg());
        }
        assert_eq!(wp.num_nodes(), 6);
        assert_eq!(wp.warm_fallbacks(), 0, "cascade trees never hit the φ sweep cap");
    }

    #[test]
    fn append_matches_cold_over_random_orders() {
        // Random cascade trees streamed in random-size chunks, for both
        // Laplacian kinds and both λ modes: after every append the handle
        // is exactly the cold one, truncation at max_nodes included.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for id in 0..8u64 {
            let n = 4 + below(20);
            let events: Vec<Event> = (0..n)
                .map(|i| Event {
                    user: i as u64,
                    parent: (i > 0).then(|| below(i)),
                    time: i as f64,
                })
                .collect();
            for laplacian in [LaplacianKind::Directed, LaplacianKind::Undirected] {
                for lambda_max in [LambdaMax::Exact, LambdaMax::Approx2] {
                    let c = CascnConfig { laplacian, lambda_max, max_nodes: 16, ..cfg() };
                    let seed = Cascade::new(id, 0.0, events[..1].to_vec());
                    let mut wp = WindowedPreprocessor::new(seed, 1e9, &c);
                    let mut at = 1;
                    while at < n {
                        let end = (at + 1 + below(3)).min(n);
                        let before = wp.num_nodes();
                        let entered = wp.append(1e9, &events[at..end]).expect("valid events");
                        assert_eq!(entered, wp.num_nodes() - before);
                        let snapshot = wp.cascade().clone();
                        assert_matches_cold(&wp.current(), &snapshot, 1e9, &c);
                        at = end;
                    }
                    assert_eq!(wp.warm_fallbacks(), 0, "cascade trees solve φ in two sweeps");
                }
            }
        }
    }

    #[test]
    fn future_events_touch_only_the_label_side() {
        let full = fig1();
        let seed = Cascade::new(1, 0.0, full.events[..3].to_vec());
        let window = 25.0; // events at t=30,40,50 stay label-side
        let mut wp = WindowedPreprocessor::new(seed, window, &cfg());
        let before = wp.current();
        assert_eq!(wp.append(window, &full.events[3..]), Ok(0), "beyond-window events");
        let after = wp.current();
        assert_eq!(after.n, before.n);
        assert_eq!(after.increment, 3, "label side saw all three future events");
        assert_eq!(
            before.basis.scaled_dense().as_slice(),
            after.basis.scaled_dense().as_slice(),
            "spectral handle reused bit-for-bit"
        );
        assert_matches_cold(&after, wp.cascade(), window, &cfg());
        // A window crossing then refreshes the operator to the cold result.
        assert_eq!(wp.append(60.0, &[]), Ok(3));
        let snapshot = wp.cascade().clone();
        assert_matches_cold(&wp.current(), &snapshot, 60.0, &cfg());
        // Out-of-order or second-root appends are rejected, state untouched.
        let valid = Event { user: 10, parent: Some(2), time: 70.0 };
        for bad in [
            Event { user: 10, parent: Some(2), time: 49.9 },
            Event { user: 10, parent: None, time: 70.0 },
            Event { user: 10, parent: Some(7), time: 70.0 },
        ] {
            // A rejected event anywhere in the body applies nothing, the
            // window move included.
            let err = wp.append(80.0, &[valid.clone(), bad]).unwrap_err();
            assert_eq!(err.0, 1, "{}", err.1);
            assert_eq!(wp.cascade().events, snapshot.events);
            assert_eq!(wp.window(), 60.0);
            assert_matches_cold(&wp.current(), &snapshot, 60.0, &cfg());
        }
    }

    #[test]
    fn window_crossing_pushes_pending_events() {
        let full = fig1();
        let mut wp = WindowedPreprocessor::new(full.clone(), 25.0, &cfg());
        assert_eq!(wp.num_nodes(), 3);
        // Crossing to t=45 pulls events at 30 and 40 into the prefix.
        assert_eq!(wp.append(45.0, &[]), Ok(2));
        assert_matches_cold(&wp.current(), &full, 45.0, &cfg());
        // A boundary-exact crossing pulls the t=50 event (inclusive).
        assert_eq!(wp.append(50.0, &[]), Ok(1));
        assert_matches_cold(&wp.current(), &full, 50.0, &cfg());
        // No-op advance refreshes nothing.
        assert_eq!(wp.append(60.0, &[]), Ok(0));
        // Shrinking rebuilds cold and still matches.
        assert_eq!(wp.append(25.0, &[]), Ok(0));
        assert_matches_cold(&wp.current(), &full, 25.0, &cfg());
        assert_eq!(wp.num_nodes(), 3);
        // A shrink with appends counts only the appends that land inside
        // the new window.
        let mut wp = WindowedPreprocessor::new(full.clone(), 60.0, &cfg());
        let late = Event { user: 6, parent: Some(0), time: 55.0 };
        assert_eq!(wp.append(45.0, std::slice::from_ref(&late)), Ok(0));
        assert_eq!(wp.num_nodes(), 5);
        let snapshot = wp.cascade().clone();
        assert_matches_cold(&wp.current(), &snapshot, 45.0, &cfg());
    }

    #[test]
    fn windowed_preprocessor_handles_undirected_and_truncation() {
        let und = CascnConfig { laplacian: LaplacianKind::Undirected, ..cfg() };
        let full = fig1();
        let seed = Cascade::new(1, 0.0, full.events[..2].to_vec());
        let mut wp = WindowedPreprocessor::new(seed, 100.0, &und);
        assert_eq!(wp.append(100.0, &full.events[2..]), Ok(4));
        let snapshot = wp.cascade().clone();
        assert_matches_cold(&wp.current(), &snapshot, 100.0, &und);

        // Truncation: past max_nodes the operator must stop growing.
        let small = CascnConfig { max_nodes: 4, ..cfg() };
        let mut wp = WindowedPreprocessor::new(full.clone(), 100.0, &small);
        assert_eq!(wp.num_nodes(), 4);
        assert_eq!(wp.append(100.0, &[Event { user: 11, parent: Some(3), time: 70.0 }]), Ok(0));
        assert_eq!(wp.num_nodes(), 4);
        let snapshot = wp.cascade().clone();
        assert_matches_cold(&wp.current(), &snapshot, 100.0, &small);
    }

    #[test]
    fn singleton_cascade_preprocesses() {
        let c = Cascade::new(9, 0.0, vec![Event { user: 7, parent: None, time: 0.0 }]);
        let p = preprocess(&c, 100.0, &cfg());
        assert_eq!(p.n, 1);
        assert_eq!(p.num_steps(), 1);
        assert_eq!(p.edges, vec![(0, 0)], "root self-loop");
        assert_eq!(p.snapshot(0, 10).to_dense()[(0, 0)], 1.0);
        assert!(p.basis.scaled_dense().all_finite());
        assert!(p.basis.materialize().iter().all(|b| b.all_finite()));
    }
}
