//! CasCN model configuration and the Table IV / Table V variant space.

/// How the largest eigenvalue of the CasLaplacian is obtained for Chebyshev
/// scaling (Table V compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LambdaMax {
    /// Compute the exact value per cascade by power iteration
    /// (`λmax = real` in Table V — the better-performing choice).
    Exact,
    /// Use the paper's shortcut `λ_max ≈ 2`.
    Approx2,
}

/// Which recurrent cell wraps the graph convolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecurrentKind {
    /// ChebConv-LSTM with peepholes (Eq. 12–14) — the full CasCN.
    Lstm,
    /// ChebConv-GRU (the `CasCN-GRU` variant).
    Gru,
}

/// Which Laplacian drives the spectral convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaplacianKind {
    /// The directed CasLaplacian `Δ_c` of Eq. 8 (full CasCN).
    Directed,
    /// The symmetric normalized Laplacian of Eq. 9 over the symmetrized
    /// cascade (the `CasCN-Undirected` variant).
    Undirected,
}

/// How snapshot hidden states are re-weighted over time (Section IV-D).
///
/// The paper argues for a *learned* discrete decay (Eq. 15–16) over the
/// parametric kernels used by prior work; the parametric options here allow
/// the ablation benchmark to quantify that choice. Parametric kernels use
/// fixed shape constants (an assumed prior — exactly what the paper
/// criticizes), with `t` normalized by the observation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecayMode {
    /// The paper's learned per-interval multipliers `λ_m` (Eq. 15–16).
    Learned,
    /// Power-law `φ(t) = (t/T + 0.1)^{-1.5}` (social-network prior).
    PowerLaw,
    /// Exponential `φ(t) = e^{-t/T}` (financial-data prior).
    Exponential,
    /// Rayleigh `φ(t) = e^{-(t/T)²}` (epidemiology prior).
    Rayleigh,
    /// No re-weighting (the `CasCN-Time` variant).
    None,
}

impl DecayMode {
    /// The fixed kernel value at normalized time `x = t / T` (1.0 for
    /// `Learned` / `None`, which do not use a fixed kernel).
    pub fn kernel(&self, x: f64) -> f32 {
        let x = x.clamp(0.0, 1.0);
        match self {
            DecayMode::PowerLaw => ((x + 0.1).powf(-1.5)) as f32,
            DecayMode::Exponential => (-x).exp() as f32,
            DecayMode::Rayleigh => (-(x * x)).exp() as f32,
            DecayMode::Learned | DecayMode::None => 1.0,
        }
    }
}

/// How the per-snapshot hidden states are aggregated into the cascade
/// representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pooling {
    /// The paper's sum over time (Eq. 17).
    Sum,
    /// Additive attention over snapshots — the paper's future-work
    /// extension ("introducing attention mechanisms to transform CasCN
    /// into an inductive model", §VI). Attention weights are learned
    /// end-to-end; decay re-weighting still applies first.
    Attention,
}

/// Which prediction task the model is trained for.
///
/// The spectral-conv recurrent stack is shared; the task selects the head
/// on top of the pooled cascade representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskKind {
    /// Macroscopic cascade-size regression (the paper's task): an MLP
    /// predicting `ln(1 + ΔS)`.
    #[default]
    SizeRegression,
    /// Microscopic next-user ranking (Topo-LSTM's task): a masked softmax
    /// over the user vocabulary predicting who adopts next.
    NextUser,
}

impl TaskKind {
    /// CLI / config-file name of the task.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::SizeRegression => "size",
            TaskKind::NextUser => "next-user",
        }
    }

    /// Parses a CLI task name (`size` | `next-user`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "size" => Some(TaskKind::SizeRegression),
            "next-user" => Some(TaskKind::NextUser),
            _ => None,
        }
    }
}

/// Hyper-parameters of the CasCN family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascnConfig {
    /// Chebyshev order `K` (paper: 2; Table V sweeps {1, 2, 3}).
    pub k: usize,
    /// Hidden state size `d_h` (paper: 32).
    pub hidden: usize,
    /// Hidden width of the two-layer prediction MLP (paper: 32 → 16 → 1).
    pub mlp_hidden: usize,
    /// Cascades are truncated/padded to this many observed nodes
    /// (paper pads to 100; CPU-scale default is smaller).
    pub max_nodes: usize,
    /// Cap on the sub-cascade snapshot sequence length.
    pub max_steps: usize,
    /// Number of learned time-decay intervals `l` (Eq. 15).
    pub decay_intervals: usize,
    /// Teleport probability `α` of the transition matrix (Eq. 7).
    pub alpha: f32,
    /// λ_max strategy (Table V).
    pub lambda_max: LambdaMax,
    /// Recurrent cell flavor.
    pub recurrent: RecurrentKind,
    /// Laplacian flavor.
    pub laplacian: LaplacianKind,
    /// Time-decay mode (Eq. 15–16 by default; `None` = `CasCN-Time`).
    pub decay: DecayMode,
    /// Temporal pooling (the paper's sum, or the attention extension).
    pub pooling: Pooling,
    /// Which task head sits on the pooled representation.
    pub task: TaskKind,
    /// Size of the user-id space for the next-user head: user `u` maps to
    /// table row `u + 1` when `u < vocab_users`, row 0 (UNK) otherwise.
    /// Ignored (and conventionally 0) for size regression. Must match
    /// between training and serving — it shapes the head's parameters,
    /// exactly like `hidden`.
    pub vocab_users: usize,
    /// Parameter-initialization seed.
    pub seed: u64,
    /// Worker threads for cascade preprocessing and prediction sweeps:
    /// `1` (the default) is the exact serial path, `0` means all available
    /// parallelism. Results are identical for any value (see
    /// [`crate::parallel`]).
    pub threads: usize,
}

impl Default for CascnConfig {
    fn default() -> Self {
        Self {
            k: 2,
            hidden: 16,
            mlp_hidden: 16,
            max_nodes: 30,
            max_steps: 12,
            decay_intervals: 6,
            alpha: 0.85,
            lambda_max: LambdaMax::Exact,
            recurrent: RecurrentKind::Lstm,
            laplacian: LaplacianKind::Directed,
            decay: DecayMode::Learned,
            pooling: Pooling::Sum,
            task: TaskKind::SizeRegression,
            vocab_users: 0,
            seed: 42,
            threads: 1,
        }
    }
}

impl CascnConfig {
    /// The paper-scale configuration (hidden 32, 100-node padding) — used by
    /// the `--full` experiment mode; expensive on one CPU core.
    pub fn paper_scale() -> Self {
        Self {
            hidden: 32,
            max_nodes: 100,
            max_steps: 100,
            ..Self::default()
        }
    }

    /// Applies a Table IV variant to this configuration. `Variant::Gl` and
    /// `Variant::Path` change the architecture rather than the config and
    /// are handled by [`crate::GlModel`] / [`crate::PathModel`].
    pub fn with_variant(mut self, variant: Variant) -> Self {
        match variant {
            Variant::Full | Variant::Gl | Variant::Path => {}
            Variant::Gru => self.recurrent = RecurrentKind::Gru,
            Variant::Undirected => self.laplacian = LaplacianKind::Undirected,
            Variant::NoTimeDecay => self.decay = DecayMode::None,
        }
        self
    }
}

/// The model family of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Full CasCN.
    Full,
    /// `CasCN-GRU`: GRU gating instead of LSTM.
    Gru,
    /// `CasCN-GL`: per-snapshot GCN followed by a dense LSTM.
    Gl,
    /// `CasCN-Path`: random-walk path input instead of snapshots.
    Path,
    /// `CasCN-Undirected`: symmetric Laplacian.
    Undirected,
    /// `CasCN-Time`: no time-decay weighting.
    NoTimeDecay,
}

impl Variant {
    /// All variants in Table IV order.
    pub fn all() -> [Variant; 6] {
        [
            Variant::Full,
            Variant::Gru,
            Variant::Path,
            Variant::Gl,
            Variant::Undirected,
            Variant::NoTimeDecay,
        ]
    }

    /// Paper display name.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Full => "CasCN",
            Variant::Gru => "CasCN-GRU",
            Variant::Gl => "CasCN-GL",
            Variant::Path => "CasCN-Path",
            Variant::Undirected => "CasCN-Undirected",
            Variant::NoTimeDecay => "CasCN-Time",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_choices() {
        let c = CascnConfig::default();
        assert_eq!(c.k, 2, "paper selects K = 2");
        assert_eq!(c.lambda_max, LambdaMax::Exact, "paper: exact λmax is better");
        assert_eq!(c.decay, DecayMode::Learned);
        assert_eq!(c.recurrent, RecurrentKind::Lstm);
    }

    #[test]
    fn variants_modify_config() {
        let base = CascnConfig::default();
        assert_eq!(
            base.with_variant(Variant::Gru).recurrent,
            RecurrentKind::Gru
        );
        assert_eq!(
            base.with_variant(Variant::Undirected).laplacian,
            LaplacianKind::Undirected
        );
        assert_eq!(
            base.with_variant(Variant::NoTimeDecay).decay,
            DecayMode::None
        );
        assert_eq!(base.with_variant(Variant::Full), base);
    }

    #[test]
    fn task_names_round_trip() {
        for task in [TaskKind::SizeRegression, TaskKind::NextUser] {
            assert_eq!(TaskKind::parse(task.name()), Some(task));
        }
        assert_eq!(TaskKind::parse("macro"), None);
        assert_eq!(TaskKind::default(), TaskKind::SizeRegression);
    }

    #[test]
    fn variant_names_match_table_iv() {
        let names: Vec<&str> = Variant::all().iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            vec![
                "CasCN",
                "CasCN-GRU",
                "CasCN-Path",
                "CasCN-GL",
                "CasCN-Undirected",
                "CasCN-Time"
            ]
        );
    }
}

#[cfg(test)]
mod decay_tests {
    use super::*;

    #[test]
    fn kernels_decay_monotonically() {
        for mode in [DecayMode::PowerLaw, DecayMode::Exponential, DecayMode::Rayleigh] {
            let mut prev = mode.kernel(0.0);
            for i in 1..=10 {
                let v = mode.kernel(i as f64 / 10.0);
                assert!(v <= prev, "{mode:?} not monotone at {i}");
                assert!(v > 0.0);
                prev = v;
            }
        }
    }

    #[test]
    fn learned_and_none_have_unit_kernel() {
        assert_eq!(DecayMode::Learned.kernel(0.5), 1.0);
        assert_eq!(DecayMode::None.kernel(0.5), 1.0);
    }
}
