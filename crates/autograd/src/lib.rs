//! Tape-based reverse-mode automatic differentiation over
//! [`cascn_tensor::Matrix`], plus the optimizers used to train every model in
//! this reproduction.
//!
//! # Design
//!
//! A [`Tape`] records a fresh computation graph per training example (the
//! "define-by-run" style of PyTorch): model code pushes operations, receives
//! lightweight [`Var`] handles, and finally calls [`Tape::backward`] on a
//! scalar loss. Parameters live *outside* the tape in a [`ParamStore`] so
//! they persist across examples; [`Tape::param`] binds a parameter into the
//! current graph and [`Tape::accumulate_param_grads`] routes gradients back.
//!
//! Layers are written once, generic over the [`Exec`] trait: training runs
//! them on a [`Tape`], inference on an [`Eval`], which records nothing,
//! reads parameters in place and frees each intermediate once its last
//! handle drops. Both compute every value with the same kernel, so their
//! outputs are bit-identical.
//!
//! Gradient correctness is enforced by finite-difference property tests (see
//! [`check_gradients`] and `tests/prop_gradcheck.rs`).
//!
//! # Example
//!
//! ```
//! use cascn_autograd::{ParamStore, Tape};
//! use cascn_tensor::Matrix;
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Matrix::from_rows(&[&[0.5, -0.5]]));
//!
//! let mut tape = Tape::new();
//! let wv = tape.param(&store, w);
//! let x = tape.constant(Matrix::from_rows(&[&[2.0], &[1.0]]));
//! let y = tape.matmul(wv, x); // 1x1 result: 0.5
//! let loss = tape.sqr(y);
//! tape.backward(loss);
//! tape.accumulate_param_grads(&mut store);
//!
//! // d/dw (w·x)² = 2 (w·x) xᵀ = [2, 1]
//! assert_eq!(store.grad(w).as_slice(), &[2.0, 1.0]);
//! ```

mod exec;
mod gradcheck;
mod kernel;
mod serialize;
mod optim;
mod params;
mod tape;

pub use exec::{Eval, EvalVar, Exec};
pub use gradcheck::{assert_gradients_close, check_gradients, numeric_gradient, GradCheckReport};
pub use optim::{Adam, AdamConfig, AdamState, Optimizer, Sgd};
pub use params::{ParamGrads, ParamId, ParamStore};
pub use serialize::{atomic_write, bytes_from, declared_values, fnv1a64};
pub use tape::{Tape, Var};
