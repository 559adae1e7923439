//! Feature-deep: the paper's strong feature baseline — the same
//! hand-crafted features as Feature-linear, fed into an MLP.

use cascn::{SizePredictor, TrainOpts};
use cascn_autograd::ParamStore;
use cascn_cascades::Cascade;
use cascn_nn::train::History;
use cascn_nn::{Activation, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{feature_rows, fit_head, predict_head, Standardizer};

/// MLP over hand-crafted features.
#[derive(Debug, Clone)]
pub struct FeatureDeep {
    store: ParamStore,
    mlp: Mlp,
    standardizer: Option<Standardizer>,
}

impl FeatureDeep {
    /// Builds an untrained model (hidden sizes 32 → 16, the paper's MLP).
    pub fn new(seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let d = cascn_cascades::features::num_features();
        let mlp = Mlp::new(
            &mut store,
            "fdeep",
            &[d, 32, 16, 1],
            Activation::Relu,
            &mut rng,
        );
        Self {
            store,
            mlp,
            standardizer: None,
        }
    }

    /// The parameter store (for inspection and tests).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Trains the MLP on log-transformed labels (the paper log-transforms
    /// labels so feature baselines optimize the same loss as CasCN).
    pub fn fit(
        &mut self,
        train: &[Cascade],
        val: &[Cascade],
        window: f64,
        opts: &TrainOpts,
    ) -> History {
        let raw = feature_rows(train, window);
        let standardizer = Standardizer::fit(&raw);
        let train_x: Vec<Vec<f32>> = raw.iter().map(|r| standardizer.apply(r)).collect();
        let val_x: Vec<Vec<f32>> = feature_rows(val, window)
            .iter()
            .map(|r| standardizer.apply(r))
            .collect();
        self.standardizer = Some(standardizer);
        fit_head(&mut self.store, &self.mlp, train, &train_x, val, &val_x, window, opts)
    }
}

impl SizePredictor for FeatureDeep {
    fn name(&self) -> String {
        "Feature-deep".to_string()
    }

    fn predict_log(&self, cascade: &Cascade, window: f64) -> f32 {
        let raw = cascn_cascades::features::extract(&cascade.observe(window), window);
        let x = match &self.standardizer {
            Some(s) => s.apply(&raw),
            None => raw,
        };
        predict_head(&self.mlp, &self.store, &x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_cascades::synth::{WeiboConfig, WeiboGenerator};
    use cascn_cascades::Split;

    #[test]
    fn trains_and_beats_untrained_self() {
        let window = 3600.0;
        let data = WeiboGenerator::new(WeiboConfig {
            num_cascades: 500,
            seed: 13,
            max_size: 200,
        })
        .generate()
        .filter_observed_size(window, 3, 80);
        let test = data.split(Split::Test);

        let untrained = FeatureDeep::new(1);
        // An untrained model has no standardizer; prediction still works.
        let untrained_msle = cascn::evaluate(&untrained, test, window);

        let mut model = FeatureDeep::new(1);
        let opts = TrainOpts {
            epochs: 12,
            patience: 12,
            ..TrainOpts::default()
        };
        let hist = model.fit(data.split(Split::Train), data.split(Split::Validation), window, &opts);
        assert!(!hist.records().is_empty());
        let trained_msle = cascn::evaluate(&model, test, window);
        assert!(
            trained_msle < untrained_msle,
            "training should help: {trained_msle} vs {untrained_msle}"
        );
    }
}
