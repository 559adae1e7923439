//! Affine layers and multi-layer perceptrons.

use cascn_autograd::{Exec, ParamId, ParamStore};
use rand::rngs::StdRng;

use crate::init;

/// A learnable affine map `x ↦ x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `in_dim → out_dim` layer in `store` with Xavier-uniform
    /// weights and zero bias. `name` prefixes the parameter names.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.register(
            format!("{name}.w"),
            init::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = store.register(
            format!("{name}.b"),
            cascn_tensor::Matrix::zeros(1, out_dim),
        );
        Self {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a `m x in_dim` value.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        x: E::Value,
    ) -> E::Value {
        let w = ex.param(store, self.w);
        let b = ex.param(store, self.b);
        let xw = ex.matmul(&x, &w);
        ex.add_bias(&xw, &b)
    }
}

/// The hidden-layer activation of an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// A multi-layer perceptron with a configurable hidden activation and a
/// linear output layer — the paper's prediction network (Eq. 18) uses
/// hidden sizes 32 → 16 → 1.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP through the given layer `dims` (at least two entries:
    /// input and output dimension).
    ///
    /// # Panics
    /// Panics if fewer than two dimensions are given.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp: need input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Self { layers, activation }
    }

    /// Applies the network; the hidden activation is used between all layers
    /// but not after the last.
    pub fn forward<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        mut x: E::Value,
    ) -> E::Value {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(ex, store, x);
            if i != last {
                x = match self.activation {
                    Activation::Relu => ex.relu(&x),
                    Activation::Tanh => ex.tanh(&x),
                    Activation::Sigmoid => ex.sigmoid(&x),
                };
            }
        }
        x
    }

    /// Output dimension of the final layer (0 for the impossible empty MLP;
    /// `new` asserts at least one layer).
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_autograd::{Adam, Optimizer, Tape};
    use cascn_tensor::Matrix;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(&mut store, "l", 3, 5, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(4, 3));
        let y = layer.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (4, 5));
    }

    #[test]
    fn mlp_learns_a_linear_function() {
        // y = 2a - b, trained on a small grid.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(&mut store, "m", &[2, 8, 1], Activation::Relu, &mut rng);
        let mut opt = Adam::with_lr(0.02);
        let data: Vec<([f32; 2], f32)> = (0..16)
            .map(|i| {
                let a = (i % 4) as f32 / 4.0;
                let b = (i / 4) as f32 / 4.0;
                ([a, b], 2.0 * a - b)
            })
            .collect();
        for _ in 0..300 {
            store.zero_grads();
            for (x, y) in &data {
                let mut tape = Tape::new();
                let xv = tape.constant(Matrix::row_vector(x));
                let pred = mlp.forward(&mut tape, &store, xv);
                let loss = tape.squared_error(pred, *y);
                tape.backward(loss);
                tape.accumulate_param_grads(&mut store);
            }
            store.scale_grads(1.0 / data.len() as f32);
            opt.step(&mut store);
        }
        // Evaluate.
        let mut worst = 0.0f32;
        for (x, y) in &data {
            let mut tape = Tape::new();
            let xv = tape.constant(Matrix::row_vector(x));
            let pred = mlp.forward(&mut tape, &store, xv);
            worst = worst.max((tape.scalar(pred) - y).abs());
        }
        assert!(worst < 0.15, "worst abs error {worst}");
    }

    #[test]
    #[should_panic(expected = "need input and output dims")]
    fn mlp_rejects_single_dim() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Mlp::new(&mut store, "m", &[3], Activation::Relu, &mut rng);
    }
}
