//! Training-loop utilities shared by every model trainer in the workspace.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Shuffled mini-batch index lists over `n` examples. The final batch may be
/// smaller. Matches Algorithm 2's batch loop (paper batch size: 32).
pub fn shuffled_batches(n: usize, batch_size: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "shuffled_batches: batch_size must be positive");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.chunks(batch_size).map(|c| c.to_vec()).collect()
}

/// Early stopping on validation loss: stop when the loss has not improved
/// for `patience` consecutive epochs (the paper stops after 10 stagnant
/// iterations).
#[derive(Debug, Clone)]
pub struct EarlyStopping {
    patience: usize,
    best: f32,
    best_epoch: usize,
    stale: usize,
    epoch: usize,
}

impl EarlyStopping {
    /// Creates a tracker with the given patience.
    pub fn new(patience: usize) -> Self {
        Self {
            patience,
            best: f32::INFINITY,
            best_epoch: 0,
            stale: 0,
            epoch: 0,
        }
    }

    /// Rebuilds a tracker from checkpointed state so a resumed run continues
    /// with the same patience countdown.
    pub fn from_state(
        patience: usize,
        best: f32,
        best_epoch: usize,
        stale: usize,
        epoch: usize,
    ) -> Self {
        Self {
            patience,
            best,
            best_epoch,
            stale,
            epoch,
        }
    }

    /// Records one epoch's validation loss. Returns `true` when training
    /// should stop.
    ///
    /// A NaN/Inf validation loss counts as a *non-improving* epoch (toward
    /// patience) and never becomes `best` — a single divergent epoch must
    /// not poison later `best()` comparisons.
    pub fn observe(&mut self, val_loss: f32) -> bool {
        self.epoch += 1;
        if val_loss.is_finite() && val_loss < self.best {
            self.best = val_loss;
            self.best_epoch = self.epoch;
            self.stale = 0;
        } else {
            self.stale += 1;
        }
        self.stale >= self.patience
    }

    /// Best validation loss seen.
    pub fn best(&self) -> f32 {
        self.best
    }

    /// Epoch (1-based) of the best validation loss.
    pub fn best_epoch(&self) -> usize {
        self.best_epoch
    }

    /// Configured patience.
    pub fn patience(&self) -> usize {
        self.patience
    }

    /// Consecutive non-improving epochs observed so far.
    pub fn stale(&self) -> usize {
        self.stale
    }

    /// Total epochs observed.
    pub fn epochs_seen(&self) -> usize {
        self.epoch
    }
}

/// Per-epoch record of a training run (Fig. 7 plots these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// 1-based epoch number.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Validation loss (MSLE).
    pub val_loss: f32,
}

/// What went wrong in one training batch — the anomaly guard's event types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The batch loss evaluated to NaN/Inf.
    NonFiniteLoss,
    /// A gradient contained NaN/Inf before the optimizer step.
    NonFiniteGrad,
    /// A parameter went NaN/Inf *after* an optimizer step (update overflow).
    NonFiniteParam,
    /// Parameters were rolled back to the last good snapshot.
    Rollback,
}

impl AnomalyKind {
    /// Stable token used in checkpoint serialization.
    pub fn as_token(self) -> &'static str {
        match self {
            AnomalyKind::NonFiniteLoss => "non-finite-loss",
            AnomalyKind::NonFiniteGrad => "non-finite-grad",
            AnomalyKind::NonFiniteParam => "non-finite-param",
            AnomalyKind::Rollback => "rollback",
        }
    }

    /// Inverse of [`AnomalyKind::as_token`].
    pub fn from_token(tok: &str) -> Option<Self> {
        Some(match tok {
            "non-finite-loss" => AnomalyKind::NonFiniteLoss,
            "non-finite-grad" => AnomalyKind::NonFiniteGrad,
            "non-finite-param" => AnomalyKind::NonFiniteParam,
            "rollback" => AnomalyKind::Rollback,
            _ => return None,
        })
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_token())
    }
}

/// One recorded training anomaly, so experiments can report skipped-step
/// counts alongside losses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnomalyEvent {
    /// 1-based epoch in which the anomaly occurred.
    pub epoch: usize,
    /// 0-based batch index within the epoch.
    pub batch: usize,
    /// What happened.
    pub kind: AnomalyKind,
}

/// The loss trajectory of one training run, plus its anomaly log.
#[derive(Debug, Clone, Default)]
pub struct History {
    records: Vec<EpochRecord>,
    anomalies: Vec<AnomalyEvent>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a history from checkpointed parts; record epochs are
    /// renumbered 1..=n to keep [`History::push`] consistent afterwards.
    pub fn from_parts(records: Vec<EpochRecord>, anomalies: Vec<AnomalyEvent>) -> Self {
        let records = records
            .into_iter()
            .enumerate()
            .map(|(i, r)| EpochRecord {
                epoch: i + 1,
                ..r
            })
            .collect();
        Self { records, anomalies }
    }

    /// Appends an epoch record.
    pub fn push(&mut self, train_loss: f32, val_loss: f32) {
        self.records.push(EpochRecord {
            epoch: self.records.len() + 1,
            train_loss,
            val_loss,
        });
    }

    /// Records a training anomaly (skipped step, rollback, …).
    pub fn log_anomaly(&mut self, epoch: usize, batch: usize, kind: AnomalyKind) {
        self.anomalies.push(AnomalyEvent { epoch, batch, kind });
    }

    /// All records in order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// All recorded anomalies in order.
    pub fn anomalies(&self) -> &[AnomalyEvent] {
        &self.anomalies
    }

    /// Number of batches whose update step was discarded by the anomaly
    /// guard (excludes rollback markers).
    pub fn skipped_steps(&self) -> usize {
        self.anomalies
            .iter()
            .filter(|a| a.kind != AnomalyKind::Rollback)
            .count()
    }

    /// Number of parameter rollbacks performed by the anomaly guard.
    pub fn rollbacks(&self) -> usize {
        self.anomalies
            .iter()
            .filter(|a| a.kind == AnomalyKind::Rollback)
            .count()
    }

    /// The epoch record with the lowest validation loss, if any. Non-finite
    /// losses (NaN/Inf of either sign) are treated as worse than any finite
    /// value, so a divergent epoch can never win.
    pub fn best(&self) -> Option<EpochRecord> {
        let key = |r: &EpochRecord| {
            if r.val_loss.is_finite() {
                r.val_loss
            } else {
                f32::INFINITY
            }
        };
        self.records
            .iter()
            .copied()
            .min_by(|a, b| key(a).total_cmp(&key(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn batches_partition_indices() {
        let mut rng = StdRng::seed_from_u64(1);
        let batches = shuffled_batches(10, 3, &mut rng);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches[3].len(), 1);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batches_are_shuffled_but_seeded() {
        let a = shuffled_batches(20, 5, &mut StdRng::seed_from_u64(2));
        let b = shuffled_batches(20, 5, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        let flat: Vec<usize> = a.into_iter().flatten().collect();
        assert_ne!(flat, (0..20).collect::<Vec<_>>(), "expected a shuffle");
    }

    #[test]
    fn early_stopping_waits_for_patience() {
        let mut es = EarlyStopping::new(3);
        assert!(!es.observe(1.0));
        assert!(!es.observe(0.9)); // improvement
        assert!(!es.observe(0.95));
        assert!(!es.observe(0.95));
        assert!(es.observe(0.95), "third stale epoch triggers stop");
        assert_eq!(es.best_epoch(), 2);
        assert_eq!(es.best(), 0.9);
    }

    #[test]
    fn early_stopping_treats_nan_as_stale() {
        let mut es = EarlyStopping::new(2);
        assert!(!es.observe(1.0));
        assert!(!es.observe(f32::NAN), "NaN counts toward patience");
        assert_eq!(es.stale(), 1);
        assert_eq!(es.best(), 1.0, "NaN must not poison best()");
        assert!(es.observe(f32::INFINITY), "second stale epoch stops");
        assert_eq!(es.best_epoch(), 1);
        // A finite improvement after restore-from-state still registers.
        let mut resumed = EarlyStopping::from_state(2, es.best(), es.best_epoch(), 0, 3);
        assert!(!resumed.observe(0.5));
        assert_eq!(resumed.best(), 0.5);
        assert_eq!(resumed.best_epoch(), 4);
    }

    #[test]
    fn history_best_ignores_non_finite_epochs() {
        let mut h = History::new();
        h.push(1.0, f32::NAN);
        h.push(0.9, 1.5);
        h.push(0.8, f32::INFINITY);
        let best = h.best().unwrap();
        assert_eq!(best.epoch, 2);
        assert_eq!(best.val_loss, 1.5);
        // All-NaN histories still return something rather than panicking.
        let mut all_nan = History::new();
        all_nan.push(1.0, f32::NAN);
        assert_eq!(all_nan.best().unwrap().epoch, 1);
    }

    #[test]
    fn anomaly_log_counts_skips_and_rollbacks() {
        let mut h = History::new();
        h.log_anomaly(1, 0, AnomalyKind::NonFiniteLoss);
        h.log_anomaly(1, 3, AnomalyKind::NonFiniteGrad);
        h.log_anomaly(2, 1, AnomalyKind::Rollback);
        assert_eq!(h.skipped_steps(), 2);
        assert_eq!(h.rollbacks(), 1);
        assert_eq!(h.anomalies().len(), 3);
        for kind in [
            AnomalyKind::NonFiniteLoss,
            AnomalyKind::NonFiniteGrad,
            AnomalyKind::NonFiniteParam,
            AnomalyKind::Rollback,
        ] {
            assert_eq!(AnomalyKind::from_token(kind.as_token()), Some(kind));
        }
        assert_eq!(AnomalyKind::from_token("bogus"), None);
    }

    #[test]
    fn history_from_parts_renumbers_and_continues() {
        let recs = vec![
            EpochRecord { epoch: 7, train_loss: 1.0, val_loss: 2.0 },
            EpochRecord { epoch: 9, train_loss: 0.5, val_loss: 1.0 },
        ];
        let mut h = History::from_parts(recs, vec![]);
        assert_eq!(h.records()[0].epoch, 1);
        assert_eq!(h.records()[1].epoch, 2);
        h.push(0.4, 0.9);
        assert_eq!(h.records()[2].epoch, 3);
    }

    #[test]
    fn history_tracks_best() {
        let mut h = History::new();
        h.push(2.0, 1.8);
        h.push(1.5, 1.2);
        h.push(1.4, 1.3);
        let best = h.best().unwrap();
        assert_eq!(best.epoch, 2);
        assert_eq!(best.val_loss, 1.2);
    }
}
