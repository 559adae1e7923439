//! Neural-network layers for the CasCN reproduction, built on
//! [`cascn_autograd`]. Every layer is generic over
//! [`cascn_autograd::Exec`], so the same code trains on a tape and
//! validates and serves on the forward-only `Eval`.
//!
//! The layer zoo covers everything Section IV of the paper and its baselines
//! require:
//!
//! * [`Linear`] and [`Mlp`] — affine layers and the prediction head (Eq. 18);
//! * [`LstmCell`] / [`GruCell`] — dense recurrent cells for the path-based
//!   baselines (DeepCas, DeepHawkes, Topo-LSTM);
//! * [`ChebConvLstmCell`] / [`ChebConvGruCell`] — the paper's recurrent
//!   graph-convolutional cells, replacing dense multiplications with
//!   Chebyshev graph convolutions over the CasLaplacian (Eq. 12–14);
//! * [`TimeDecay`] — the non-parametric learned time-decay multipliers
//!   (Eq. 15–16);
//! * [`Embedding`] and [`Vocab`] — user-identity embeddings;
//! * [`NextUserHead`] — the microscopic next-user task head: masked softmax
//!   over the user table (Topo-LSTM's ranking protocol);
//! * [`metrics`] — the MSLE evaluation metric (Eq. 20) plus the Hit@k / MAP
//!   ranking metrics of the next-user task;
//! * [`train`] — mini-batching and early-stopping utilities shared by every
//!   trainer in the workspace.

mod chebconv;
mod decay;
mod embedding;
pub mod init;
mod linear;
pub mod metrics;
mod next_user;
mod rnn;
pub mod train;

pub use chebconv::{BoundCell, ChebConvGruCell, ChebConvLstmCell, ChebOperands};
pub use decay::TimeDecay;
pub use embedding::{Embedding, Vocab};
pub use linear::{Activation, Linear, Mlp};
pub use next_user::{NextUserHead, MASK_LOGIT};
pub use rnn::{GruCell, LstmCell};
