//! **CasCN** — Recurrent Cascades Convolutional Networks (Chen et al.,
//! ICDE 2019) — in pure Rust.
//!
//! CasCN predicts the future growth `ΔS_i` of an information cascade from
//! its first `T` hours/years of life, using only the cascade's *structure*
//! (an evolving DAG) and *timing* (when each adoption happened):
//!
//! 1. the observed cascade is sampled into a sequence of sub-cascade
//!    adjacency snapshots (Fig. 3, [`input::preprocess`]);
//! 2. each snapshot is convolved with Chebyshev polynomials of the
//!    **CasLaplacian** — a direction-aware Laplacian built from the
//!    cascade's teleporting transition matrix (Eq. 7–8) — inside the gates
//!    of an LSTM ([`cascn_nn::ChebConvLstmCell`], Eq. 12–14);
//! 3. hidden states are re-weighted by a learned, non-parametric time-decay
//!    (Eq. 15–16), sum-pooled, and fed to an MLP that emits the predicted
//!    log-increment (Eq. 18).
//!
//! The crate also ships the paper's five ablation variants (Table IV) and
//! the training loop of Algorithm 2.
//!
//! Besides the macroscopic size regression, the same recurrent stack can
//! drive a *microscopic* next-user task: configuring
//! `CascnConfig { task: TaskKind::NextUser, vocab_users, .. }` attaches a
//! masked softmax head over the user vocabulary
//! ([`cascn_nn::NextUserHead`]), trained with next-event cross-entropy
//! ([`model::CascnModel::fit_next_user`]) and evaluated with Hit@k / MAP
//! ([`cascn_nn::metrics`]). Already-infected users are masked to
//! probability exactly zero.
//!
//! # Example
//!
//! ```no_run
//! use cascn::{CascnConfig, CascnModel, SizePredictor, TrainOpts};
//! use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
//! use cascn_cascades::Split;
//!
//! let window = 3600.0; // observe the first hour
//! let data = WeiboGenerator::new(WeiboConfig::default())
//!     .generate()
//!     .filter_observed_size(window, 10, 100);
//!
//! let mut model = CascnModel::new(CascnConfig::default());
//! let history = model.fit(
//!     data.split(Split::Train),
//!     data.split(Split::Validation),
//!     window,
//!     &TrainOpts::default(),
//! );
//! println!("best val MSLE: {:?}", history.best());
//!
//! let pred = model.predict_log(&data.split(Split::Test)[0], window);
//! println!("predicted ΔS ≈ {}", pred.exp() - 1.0);
//! ```

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod faults;
pub mod gl;
pub mod input;
pub mod model;
pub mod parallel;
pub mod path;
pub mod predictor;
pub mod trainer;

pub use cascn_autograd::{atomic_write, bytes_from, declared_values, fnv1a64};
pub use checkpoint::{StopperState, TrainCheckpoint};
pub use config::{
    CascnConfig, DecayMode, LambdaMax, LaplacianKind, Pooling, RecurrentKind, TaskKind, Variant,
};
pub use error::CascnError;
pub use faults::FaultInjector;
pub use gl::GlModel;
pub use input::{preprocess, preprocess_with_basis, spectral_basis, PreprocessedCascade, WindowedPreprocessor};
pub use model::{CascnModel, NextUserSample};
pub use parallel::{parallel_map, resolve_threads};
pub use path::PathModel;
pub use predictor::{evaluate, try_evaluate, SizePredictor};
pub use trainer::{CheckpointPolicy, GuardOpts, TrainHooks, TrainOpts};
