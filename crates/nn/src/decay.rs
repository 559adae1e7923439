//! The learned non-parametric time-decay of Eq. 15–16.
//!
//! The observation window `[0, T]` is split into `l` equal intervals; each
//! interval `m` owns a learnable multiplier `λ_m`, and the hidden state of a
//! snapshot taken at time `t` is scaled by the multiplier of the interval
//! containing `t`. Unlike the parametric power-law/exponential/Rayleigh
//! kernels the paper discusses (Section IV-D), the discrete `λ` vector is
//! learned end-to-end.

use cascn_autograd::{Exec, ParamId, ParamStore};
use cascn_tensor::Matrix;

/// Learnable per-interval decay multipliers.
#[derive(Debug, Clone)]
pub struct TimeDecay {
    lambdas: ParamId,
    intervals: usize,
}

impl TimeDecay {
    /// Registers `intervals` multipliers, initialized to 1.0 (no decay).
    ///
    /// # Panics
    /// Panics if `intervals == 0`.
    pub fn new(store: &mut ParamStore, name: &str, intervals: usize) -> Self {
        assert!(intervals > 0, "TimeDecay: need at least one interval");
        let lambdas = store.register(format!("{name}.lambda"), Matrix::full(intervals, 1, 1.0));
        Self { lambdas, intervals }
    }

    /// Number of intervals `l`.
    pub fn intervals(&self) -> usize {
        self.intervals
    }

    /// The interval index `m = ⌊(t − t_0)/⌈T/l⌉⌋` of Eq. 15 for an event at
    /// `t ∈ [0, window]`, clamped to the last interval.
    pub fn interval_of(&self, t: f64, window: f64) -> usize {
        if window <= 0.0 {
            return 0;
        }
        let width = window / self.intervals as f64;
        ((t / width) as usize).min(self.intervals - 1)
    }

    /// Binds the multiplier table on `ex` — once per forward pass;
    /// [`TimeDecay::scale`] then reads it for each snapshot.
    pub fn bind<'s, E: Exec<'s>>(&self, ex: &mut E, store: &'s ParamStore) -> E::Value {
        ex.param(store, self.lambdas)
    }

    /// Scales the hidden state `h` (taken at snapshot time `t`) by the
    /// learned `λ_m` of its interval (Eq. 16), reading the `table` from
    /// [`TimeDecay::bind`].
    pub fn scale<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        table: &E::Value,
        h: &E::Value,
        t: f64,
        window: f64,
    ) -> E::Value {
        let m = self.interval_of(t, window);
        let lambda = ex.gather(table, vec![m]);
        ex.scalar_mul(&lambda, h)
    }

    /// [`TimeDecay::bind`] then [`TimeDecay::scale`], for a model that
    /// decays one state per forward pass.
    pub fn apply<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        h: &E::Value,
        t: f64,
        window: f64,
    ) -> E::Value {
        let table = self.bind(ex, store);
        self.scale(ex, &table, h, t, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_autograd::Tape;

    #[test]
    fn interval_mapping_matches_eq15() {
        let mut store = ParamStore::new();
        let decay = TimeDecay::new(&mut store, "d", 4);
        let window = 100.0;
        assert_eq!(decay.interval_of(0.0, window), 0);
        assert_eq!(decay.interval_of(24.9, window), 0);
        assert_eq!(decay.interval_of(25.0, window), 1);
        assert_eq!(decay.interval_of(99.9, window), 3);
        assert_eq!(decay.interval_of(100.0, window), 3, "clamped to last");
        assert_eq!(decay.interval_of(1e9, window), 3, "clamped to last");
    }

    #[test]
    fn apply_scales_by_lambda() {
        let mut store = ParamStore::new();
        let decay = TimeDecay::new(&mut store, "d", 2);
        store.value_mut(store.ids().next().unwrap()).as_mut_slice()[1] = 0.5;
        let mut tape = Tape::new();
        let h = tape.constant(Matrix::full(2, 3, 4.0));
        // t in second half → λ_1 = 0.5.
        let scaled = decay.apply(&mut tape, &store, &h, 75.0, 100.0);
        assert_eq!(tape.value(scaled)[(0, 0)], 2.0);
    }

    #[test]
    fn lambda_receives_gradient() {
        let mut store = ParamStore::new();
        let decay = TimeDecay::new(&mut store, "d", 3);
        let mut tape = Tape::new();
        let h = tape.constant(Matrix::full(1, 2, 1.5));
        let scaled = decay.apply(&mut tape, &store, &h, 10.0, 30.0);
        let loss = tape.sum_all(scaled);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        let id = store.ids().next().unwrap();
        let g = store.grad(id);
        // Only interval 1 gets gradient (=sum of h = 3.0).
        assert_eq!(g.as_slice(), &[0.0, 3.0, 0.0]);
    }

    #[test]
    fn zero_window_is_safe() {
        let mut store = ParamStore::new();
        let decay = TimeDecay::new(&mut store, "d", 5);
        assert_eq!(decay.interval_of(1.0, 0.0), 0);
    }
}
