//! The microscopic next-user prediction head.
//!
//! Macroscopic CasCN regresses cascade *size*; the exemplar microscopic
//! models (Topo-LSTM, SILN) instead rank *who adopts next*. This head adds
//! that second task on top of any model that produces a per-cascade hidden
//! state: a linear projection from the pooled hidden representation onto
//! the user table, an additive mask that pins already-infected users to a
//! `-1e9` logit (SILN's `Predict + label_mask` idiom — their softmax
//! probability underflows to an exact `0.0`), and a row log-softmax whose
//! negative picked entry is the next-event cross-entropy loss.
//!
//! Row 0 of the user table is the UNK bucket and is always masked: the
//! head never predicts "some user we cannot name".

use cascn_autograd::{Exec, ParamStore};
use rand::rngs::StdRng;

use crate::linear::Linear;

/// Additive logit penalty for masked (already-infected) users. Large enough
/// that `exp(logit − max)` underflows to exactly `0.0` in `f32` for any
/// realistic unmasked logit, yet finite so the log-sum-exp stays well
/// defined.
pub const MASK_LOGIT: f32 = -1e9;

/// Linear projection from a pooled hidden state onto the user vocabulary,
/// with infected-user masking. `table_size` counts row 0 (UNK) plus one row
/// per known user.
#[derive(Debug, Clone)]
pub struct NextUserHead {
    proj: Linear,
}

impl NextUserHead {
    /// Registers the `hidden → table_size` projection in `store` under
    /// `name`.
    ///
    /// # Panics
    /// Panics if `table_size < 2` — a vocabulary of only the UNK bucket has
    /// nothing to rank.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        hidden: usize,
        table_size: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(table_size >= 2, "NextUserHead: table of {table_size} has no candidates");
        Self {
            proj: Linear::new(store, name, hidden, table_size, rng),
        }
    }

    /// Number of rows in the user table (UNK + known users).
    pub fn table_size(&self) -> usize {
        self.proj.out_dim()
    }

    /// Raw `1 x table_size` logits for a `1 x hidden` pooled state.
    pub fn logits<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        h: E::Value,
    ) -> E::Value {
        self.proj.forward(ex, store, h)
    }

    /// Masked `1 x table_size` log-probabilities: logits plus an additive
    /// [`MASK_LOGIT`] at every index where `mask` is `true` (and always at
    /// index 0, the UNK bucket), then a row log-softmax.
    ///
    /// # Panics
    /// Panics if `mask.len()` differs from the table size.
    pub fn masked_log_probs<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        h: E::Value,
        mask: &[bool],
    ) -> E::Value {
        assert_eq!(
            mask.len(),
            self.table_size(),
            "NextUserHead: mask length must match the user table"
        );
        let logits = self.logits(ex, store, h);
        let additive: Vec<f32> = mask
            .iter()
            .enumerate()
            .map(|(i, &m)| if m || i == 0 { MASK_LOGIT } else { 0.0 })
            .collect();
        let mask_var = ex.constant(cascn_tensor::Matrix::from_vec(1, mask.len(), additive));
        let masked = ex.add(&logits, &mask_var);
        ex.log_softmax_row(&masked)
    }

    /// Next-event cross-entropy: `−log p(target)` under the masked
    /// distribution, as a `1x1` loss variable.
    ///
    /// # Panics
    /// Panics if `target` is masked or out of bounds — predicting an
    /// already-infected user is a labeling bug, not a data condition.
    pub fn loss<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        h: E::Value,
        mask: &[bool],
        target: usize,
    ) -> E::Value {
        assert!(target < mask.len(), "NextUserHead: target {target} out of table");
        assert!(target != 0 && !mask[target], "NextUserHead: target {target} is masked");
        let logp = self.masked_log_probs(ex, store, h, mask);
        let picked = ex.pick(&logp, 0, target);
        ex.scale(&picked, -1.0)
    }

    /// Forward-only masked probability distribution for a `1 x hidden`
    /// pooled state, as a plain vector: `exp` of [`masked_log_probs`]
    /// (masked entries are exactly `0.0`).
    ///
    /// [`masked_log_probs`]: NextUserHead::masked_log_probs
    pub fn predict_probs<'s, E: Exec<'s>>(
        &self,
        ex: &mut E,
        store: &'s ParamStore,
        h: E::Value,
        mask: &[bool],
    ) -> Vec<f32> {
        let logp = self.masked_log_probs(ex, store, h, mask);
        ex.value(&logp).as_slice().iter().map(|&l| l.exp()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascn_autograd::Tape;
    use cascn_tensor::Matrix;
    use rand::SeedableRng;

    fn head(table: usize) -> (ParamStore, NextUserHead) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let head = NextUserHead::new(&mut store, "head", 4, table, &mut rng);
        (store, head)
    }

    #[test]
    fn masked_entries_have_exactly_zero_probability() {
        let (store, head) = head(6);
        let mut tape = Tape::new();
        let h = tape.constant(Matrix::from_vec(1, 4, vec![0.3, -0.1, 0.7, 0.2]));
        let mask = [false, false, true, false, true, false];
        let probs = head.predict_probs(&mut tape, &store, h, &mask);
        assert_eq!(probs.len(), 6);
        assert_eq!(probs[0], 0.0, "UNK is always masked");
        assert_eq!(probs[2], 0.0);
        assert_eq!(probs[4], 0.0);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(probs[1] > 0.0 && probs[3] > 0.0 && probs[5] > 0.0);
    }

    #[test]
    fn loss_decreases_under_gradient_steps_on_the_target() {
        use cascn_autograd::{Adam, Optimizer};
        let (mut store, head) = head(5);
        let mut opt = Adam::with_lr(0.1);
        let mask = [false, true, false, false, false];
        let h_val = Matrix::from_vec(1, 4, vec![0.5, -0.2, 0.1, 0.9]);
        let loss_at = |store: &ParamStore| {
            let mut tape = Tape::new();
            let h = tape.constant(h_val.clone());
            let loss = head.loss(&mut tape, store, h, &mask, 3);
            tape.scalar(loss)
        };
        let before = loss_at(&store);
        for _ in 0..50 {
            store.zero_grads();
            let mut tape = Tape::new();
            let h = tape.constant(h_val.clone());
            let loss = head.loss(&mut tape, &store, h, &mask, 3);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store);
        }
        let after = loss_at(&store);
        assert!(after < before * 0.5, "loss should shrink: {before} → {after}");
        // And the target now dominates the masked distribution.
        let mut tape = Tape::new();
        let h = tape.constant(h_val);
        let probs = head.predict_probs(&mut tape, &store, h, &mask);
        let best = (0..probs.len())
            .max_by(|&a, &b| probs[a].total_cmp(&probs[b]))
            .unwrap();
        assert_eq!(best, 3);
    }

    #[test]
    fn masked_users_get_no_gradient_through_the_mask() {
        // The mask is an additive constant: the target's gradient flows,
        // and masked columns receive ~0 (their softmax is 0).
        let (mut store, head) = head(4);
        store.zero_grads();
        let mut tape = Tape::new();
        let h = tape.constant(Matrix::from_vec(1, 4, vec![1.0, 0.0, -1.0, 0.5]));
        let mask = [false, false, true, false];
        let loss = head.loss(&mut tape, &store, h, &mask, 1);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        let w = store.ids().next().unwrap();
        let g = store.grad(w);
        // Column 2 (masked) of the projection gets an exactly-zero gradient.
        for r in 0..g.rows() {
            assert_eq!(g[(r, 2)], 0.0, "masked column must not train");
        }
    }

    #[test]
    #[should_panic(expected = "is masked")]
    fn loss_rejects_masked_target() {
        let (store, head) = head(4);
        let mut tape = Tape::new();
        let h = tape.constant(Matrix::zeros(1, 4));
        let _ = head.loss(&mut tape, &store, h, &[false, true, false, false], 1);
    }
}
