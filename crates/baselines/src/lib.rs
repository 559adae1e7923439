//! The seven Table III baselines, reimplemented from scratch.
//!
//! | Model | Category (paper §II) | Module |
//! |-------|----------------------|--------|
//! | Feature-linear | feature-based, L2 ridge | [`FeatureLinear`] |
//! | Feature-deep | feature-based, MLP | [`FeatureDeep`] |
//! | LIS | diffusion-model-based | [`Lis`] |
//! | Node2Vec | embedding + MLP | [`Node2VecModel`] |
//! | DeepCas | deep learning (walk + bi-GRU + attention) | [`DeepCas`] |
//! | DeepHawkes | deep generative (paths + GRU + decay) | [`DeepHawkes`] |
//! | Topo-LSTM | deep learning (DAG-LSTM) | [`TopoLstm`] |
//!
//! Every model implements [`cascn::SizePredictor`], trains with the shared
//! Algorithm-2 loop, and predicts the log-increment `ln(1 + ΔS)` so the
//! experiment harness can evaluate all of them identically.

mod deepcas;
mod deephawkes;
mod feature_deep;
mod feature_linear;
mod lis;
mod node2vec;
mod topolstm;

pub use deepcas::DeepCas;
pub use deephawkes::DeepHawkes;
pub use feature_deep::FeatureDeep;
pub use feature_linear::FeatureLinear;
pub use lis::{Lis, LisConfig};
pub use node2vec::{Node2VecModel, Node2VecModelConfig};
pub use topolstm::{TopoLstm, TopoNextSample};

use cascn::trainer::{self, Objective};
use cascn::TrainOpts;
use cascn_autograd::{Eval, Exec, ParamStore, Tape};
use cascn_cascades::Cascade;
use cascn_nn::train::History;
use cascn_nn::{metrics, Mlp};
use cascn_tensor::Matrix;

/// Standardization statistics for feature vectors (fit on train, applied
/// everywhere).
#[derive(Debug, Clone)]
pub(crate) struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fits per-dimension mean/std over a feature matrix (rows = examples).
    pub(crate) fn fit(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "Standardizer: no rows");
        let d = rows[0].len();
        let n = rows.len() as f32;
        let mut mean = vec![0.0f32; d];
        for r in rows {
            for (m, &x) in mean.iter_mut().zip(r) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut std = vec![0.0f32; d];
        for r in rows {
            for ((s, &x), &m) in std.iter_mut().zip(r).zip(&mean) {
                *s += (x - m) * (x - m);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt().max(1e-6);
        }
        Self { mean, std }
    }

    /// Applies the transform.
    pub(crate) fn apply(&self, row: &[f32]) -> Vec<f32> {
        row.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect()
    }
}

/// Extracts standardizable features for a batch of cascades.
pub(crate) fn feature_rows(cascades: &[Cascade], window: f64) -> Vec<Vec<f32>> {
    cascades
        .iter()
        .map(|c| cascn_cascades::features::extract(&c.observe(window), window))
        .collect()
}

/// `mlp` applied to one feature row.
fn head<'s, E: Exec<'s>>(ex: &mut E, mlp: &Mlp, store: &'s ParamStore, x: &[f32]) -> E::Value {
    let row = ex.constant(Matrix::row_vector(x));
    mlp.forward(ex, store, row)
}

/// Fits the regression head `mlp` (its parameters in `store`) on one
/// feature row per cascade to the log-increments of `train`, validating
/// MSLE over `val` on an [`Eval`] — the trainer of Feature-deep and of the
/// Node2Vec head.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fit_head(
    store: &mut ParamStore,
    mlp: &Mlp,
    train: &[Cascade],
    train_x: &[Vec<f32>],
    val: &[Cascade],
    val_x: &[Vec<f32>],
    window: f64,
    opts: &TrainOpts,
) -> History {
    let train_labels: Vec<f32> = train
        .iter()
        .map(|c| metrics::log_label(c.increment_size(window)))
        .collect();
    let val_increments: Vec<usize> = val.iter().map(|c| c.increment_size(window)).collect();
    let forward = |tape: &mut Tape, store: &ParamStore, x: &Vec<f32>| head(tape, mlp, store, x);
    let predict = |store: &ParamStore, x: &Vec<f32>| Eval::scalar(|ex| head(ex, mlp, store, x));
    let objective = Objective::Regression {
        forward: &forward,
        predict: &predict,
        train_labels: &train_labels,
        val_increments: &val_increments,
    };
    trainer::fit(store, &objective, train_x, val_x, opts)
}

/// The prediction of the head `mlp` for one feature row, on an [`Eval`].
pub(crate) fn predict_head(mlp: &Mlp, store: &ParamStore, x: &[f32]) -> f32 {
    Eval::scalar(|ex| head(ex, mlp, store, x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizer_zero_means_unit_std() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]];
        let s = Standardizer::fit(&rows);
        let transformed: Vec<Vec<f32>> = rows.iter().map(|r| s.apply(r)).collect();
        for d in 0..2 {
            let mean: f32 = transformed.iter().map(|r| r[d]).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-6);
            let var: f32 = transformed.iter().map(|r| r[d] * r[d]).sum::<f32>() / 3.0;
            assert!((var - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn constant_feature_does_not_divide_by_zero() {
        let rows = vec![vec![2.0], vec![2.0]];
        let s = Standardizer::fit(&rows);
        let t = s.apply(&[2.0]);
        assert!(t[0].is_finite());
        assert_eq!(t[0], 0.0);
    }
}
