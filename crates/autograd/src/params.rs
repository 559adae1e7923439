//! Persistent parameter storage shared across tapes.

use cascn_tensor::Matrix;

/// Opaque handle to a parameter registered in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// One example's parameter gradients, extracted from a tape by
/// [`crate::Tape::param_grads`] as `(parameter, gradient)` pairs in
/// *binding order*.
///
/// This is the unit of work that crosses thread boundaries in data-parallel
/// training: worker threads run forward/backward on thread-local tapes and
/// hand back a `ParamGrads`; the reducer then calls
/// [`ParamStore::merge_grads`] in a fixed example order. Because merging
/// replays the exact same `accumulate_grad` calls the serial loop would have
/// made — same per-binding matrices, same order — the reduced gradient is
/// bit-identical to serial accumulation for any worker count.
#[derive(Debug, Clone, Default)]
pub struct ParamGrads {
    pub(crate) entries: Vec<(ParamId, Matrix)>,
}

impl ParamGrads {
    /// Number of `(parameter, gradient)` entries (bindings, not parameters —
    /// a parameter bound `t` times on the tape contributes `t` entries).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no gradients were extracted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Owns model parameters and their accumulated gradients.
///
/// A `ParamStore` outlives the per-example [`crate::Tape`]s. Gradients
/// accumulate across examples (mini-batch accumulation) until an optimizer
/// consumes them via [`ParamStore::zero_grads`].
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value; the name is used in
    /// diagnostics and serialization.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Matrix::zeros(value.rows(), value.cols()));
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters across all tensors.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access to a parameter's value (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Adds `g` into the accumulated gradient of `id`.
    ///
    /// # Panics
    /// Panics if the gradient shape does not match the parameter shape.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        assert_eq!(
            self.values[id.0].shape(),
            g.shape(),
            "gradient shape mismatch for parameter `{}`",
            self.names[id.0]
        );
        self.grads[id.0].axpy(1.0, g);
    }

    /// Resets all accumulated gradients to zero. Writes literal zeros
    /// rather than scaling by 0.0, which would keep NaN/Inf entries alive
    /// (NaN × 0 = NaN) and make a single poisoned batch permanent.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.as_mut_slice().fill(0.0);
        }
    }

    /// Merges one example's extracted gradients ([`ParamGrads`]) into the
    /// accumulated gradients, replaying `accumulate_grad` per binding in
    /// binding order.
    ///
    /// Calling this once per example, in example-index order, produces
    /// gradient sums bit-identical to the serial loop that calls
    /// `Tape::accumulate_param_grads` directly — the determinism contract of
    /// the parallel training engine (see `docs/performance.md`).
    ///
    /// # Panics
    /// Panics if an entry's shape does not match its parameter's shape.
    pub fn merge_grads(&mut self, grads: &ParamGrads) {
        for (id, g) in &grads.entries {
            self.accumulate_grad(*id, g);
        }
    }

    /// Scales all accumulated gradients (e.g. 1/batch for mean-reduction).
    pub fn scale_grads(&mut self, s: f32) {
        for g in &mut self.grads {
            g.scale_in_place(s);
        }
    }

    /// Global L2 norm over all gradients, used for clipping.
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| {
                let n = g.frobenius_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Clips gradients so their global L2 norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            self.scale_grads(s);
        }
        norm
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// True if any parameter or gradient contains NaN/inf.
    pub fn any_non_finite(&self) -> bool {
        self.values.iter().any(|v| !v.all_finite()) || self.grads.iter().any(|g| !g.all_finite())
    }

    /// True if any accumulated gradient contains NaN/inf (checked before an
    /// optimizer step so a poisoned batch can be discarded).
    pub fn grads_non_finite(&self) -> bool {
        self.grads.iter().any(|g| !g.all_finite())
    }

    /// True if any parameter value contains NaN/inf (checked after an
    /// optimizer step to catch update overflow).
    pub fn values_non_finite(&self) -> bool {
        self.values.iter().any(|v| !v.all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.register("a", Matrix::full(2, 2, 1.0));
        let b = s.register("b", Matrix::zeros(1, 3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 7);
        assert_eq!(s.name(a), "a");
        assert_eq!(s.value(b).shape(), (1, 3));
        assert_eq!(s.grad(a).sum(), 0.0);
    }

    #[test]
    fn gradients_accumulate_and_reset() {
        let mut s = ParamStore::new();
        let a = s.register("a", Matrix::zeros(1, 2));
        s.accumulate_grad(a, &Matrix::row_vector(&[1.0, 2.0]));
        s.accumulate_grad(a, &Matrix::row_vector(&[1.0, 2.0]));
        assert_eq!(s.grad(a).as_slice(), &[2.0, 4.0]);
        s.zero_grads();
        assert_eq!(s.grad(a).sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn accumulate_rejects_wrong_shape() {
        let mut s = ParamStore::new();
        let a = s.register("a", Matrix::zeros(1, 2));
        s.accumulate_grad(a, &Matrix::zeros(2, 1));
    }

    #[test]
    fn clip_reduces_norm() {
        let mut s = ParamStore::new();
        let a = s.register("a", Matrix::zeros(1, 2));
        s.accumulate_grad(a, &Matrix::row_vector(&[3.0, 4.0]));
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((s.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_grads_clears_nan() {
        let mut s = ParamStore::new();
        let a = s.register("a", Matrix::zeros(1, 2));
        s.accumulate_grad(a, &Matrix::row_vector(&[f32::NAN, f32::INFINITY]));
        assert!(s.grads_non_finite());
        s.zero_grads();
        assert!(!s.grads_non_finite(), "zeroing must clear poisoned grads");
        assert_eq!(s.grad(a).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn merge_grads_replays_accumulation_order() {
        let mut direct = ParamStore::new();
        let a = direct.register("a", Matrix::zeros(1, 2));
        let b = direct.register("b", Matrix::zeros(1, 1));
        let mut merged = direct.clone();
        // Two "examples", the first binding `a` twice (as an unrolled RNN
        // step would).
        let ex1 = ParamGrads {
            entries: vec![
                (a, Matrix::row_vector(&[0.1, 0.2])),
                (a, Matrix::row_vector(&[0.3, 0.4])),
                (b, Matrix::from_vec(1, 1, vec![1.0])),
            ],
        };
        let ex2 = ParamGrads {
            entries: vec![(a, Matrix::row_vector(&[-0.5, 0.25]))],
        };
        for ex in [&ex1, &ex2] {
            for (id, g) in &ex.entries {
                direct.accumulate_grad(*id, g);
            }
        }
        merged.merge_grads(&ex1);
        merged.merge_grads(&ex2);
        for id in direct.ids() {
            assert_eq!(direct.grad(id).as_slice(), merged.grad(id).as_slice());
        }
        assert_eq!(ex1.len(), 3);
        assert!(!ex1.is_empty());
    }

    #[test]
    fn non_finite_detection() {
        let mut s = ParamStore::new();
        let a = s.register("a", Matrix::zeros(1, 1));
        assert!(!s.any_non_finite());
        s.value_mut(a)[(0, 0)] = f32::INFINITY;
        assert!(s.any_non_finite());
    }
}
