//! Evaluation metrics.
//!
//! All models in this workspace predict the *log-transformed* increment
//! `ln(1 + ΔS)` directly, so the training loss (Eq. 19) and the MSLE metric
//! (Eq. 20) coincide: `MSLE = mean (pred_log − ln(1 + ΔS))²`.

/// Log-transform applied to increment labels: `ln(1 + ΔS)`.
///
/// The `+1` guards `ΔS = 0`; the paper does not state the base, and any
/// monotone choice preserves model ordering.
pub fn log_label(increment: usize) -> f32 {
    ((increment + 1) as f32).ln()
}

/// Inverse of [`log_label`] (clamped at zero).
pub fn unlog(pred_log: f32) -> f32 {
    (pred_log.exp() - 1.0).max(0.0)
}

/// Mean squared log-transformed error over paired predictions (already in
/// log space) and raw increment labels — Eq. 20.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn msle(pred_logs: &[f32], increments: &[usize]) -> f32 {
    assert_eq!(pred_logs.len(), increments.len(), "msle: length mismatch");
    assert!(!pred_logs.is_empty(), "msle: empty inputs");
    pred_logs
        .iter()
        .zip(increments)
        .map(|(&p, &y)| {
            let d = p - log_label(y);
            d * d
        })
        .sum::<f32>()
        / pred_logs.len() as f32
}

/// [`msle`] that returns `None` on empty input instead of panicking.
///
/// The eval/predict CLI path can legitimately reach an empty pairing — e.g.
/// a dataset whose cascades were all quarantined by lenient loading — and
/// must skip metric emission rather than abort.
///
/// # Panics
/// Still panics on a length mismatch (a programming error, not a data
/// condition).
pub fn try_msle(pred_logs: &[f32], increments: &[usize]) -> Option<f32> {
    assert_eq!(pred_logs.len(), increments.len(), "msle: length mismatch");
    (!pred_logs.is_empty()).then(|| msle(pred_logs, increments))
}

/// [`male`] that returns `None` on empty input instead of panicking.
///
/// # Panics
/// Still panics on a length mismatch.
pub fn try_male(pred_logs: &[f32], increments: &[usize]) -> Option<f32> {
    assert_eq!(pred_logs.len(), increments.len(), "male: length mismatch");
    (!pred_logs.is_empty()).then(|| male(pred_logs, increments))
}

/// Mean absolute error in log space (a secondary diagnostic).
pub fn male(pred_logs: &[f32], increments: &[usize]) -> f32 {
    assert_eq!(pred_logs.len(), increments.len(), "male: length mismatch");
    assert!(!pred_logs.is_empty(), "male: empty inputs");
    pred_logs
        .iter()
        .zip(increments)
        .map(|(&p, &y)| (p - log_label(y)).abs())
        .sum::<f32>()
        / pred_logs.len() as f32
}

// ---- next-user ranking metrics (Topo-LSTM's microscopic protocol) ---------

/// 0-based rank of `target` when the candidate scores are sorted
/// descending, with deterministic tie-breaking: ties are resolved by
/// candidate index ascending, so two runs (or two thread counts) that
/// produce bit-identical scores always report the same rank. Comparison is
/// [`f32::total_cmp`] throughout — no float `==`, NaN has a defined order.
///
/// # Panics
/// Panics if `target` is out of bounds.
pub fn rank_of(scores: &[f32], target: usize) -> usize {
    assert!(target < scores.len(), "rank_of: target {target} out of {}", scores.len());
    use std::cmp::Ordering;
    let t = scores[target];
    scores
        .iter()
        .enumerate()
        .filter(|&(i, s)| match s.total_cmp(&t) {
            Ordering::Greater => true,
            Ordering::Equal => i < target,
            Ordering::Less => false,
        })
        .count()
}

/// The 0-based rank ([`rank_of`]) of row `target` among the candidate
/// rows of a next-user distribution `probs`: every row but row 0 (UNK)
/// and the rows `mask` marks as infected. `None` when `target` is not a
/// candidate.
pub fn masked_rank(probs: &[f32], mask: &[bool], target: usize) -> Option<usize> {
    let mut candidates = (1..probs.len()).filter(|&row| !mask[row]);
    let scores: Vec<f32> = candidates.clone().map(|row| probs[row]).collect();
    Some(rank_of(&scores, candidates.position(|row| row == target)?))
}

/// Hit@k over per-example 0-based ranks of the true next user: the fraction
/// of examples whose target landed in the top `k`.
///
/// # Panics
/// Panics on empty input or `k == 0`.
pub fn hit_at_k(ranks: &[usize], k: usize) -> f32 {
    assert!(!ranks.is_empty(), "hit_at_k: empty inputs");
    assert!(k > 0, "hit_at_k: k must be positive");
    ranks.iter().filter(|&&r| r < k).count() as f32 / ranks.len() as f32
}

/// Mean average precision over per-example ranks. With exactly one relevant
/// item per example (the true next user), average precision reduces to the
/// reciprocal rank `1 / (rank + 1)`, so this is the mean reciprocal rank —
/// the form Topo-LSTM reports as MAP.
///
/// # Panics
/// Panics on empty input.
pub fn mean_average_precision(ranks: &[usize]) -> f32 {
    assert!(!ranks.is_empty(), "mean_average_precision: empty inputs");
    ranks.iter().map(|&r| 1.0 / (r + 1) as f32).sum::<f32>() / ranks.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_label_roundtrip() {
        for inc in [0usize, 1, 5, 100, 10_000] {
            let back = unlog(log_label(inc));
            assert!(
                (back - inc as f32).abs() < inc as f32 * 1e-4 + 1e-3,
                "{inc} → {back}"
            );
        }
    }

    #[test]
    fn perfect_predictions_score_zero() {
        let incs = vec![0usize, 3, 10];
        let preds: Vec<f32> = incs.iter().map(|&i| log_label(i)).collect();
        assert_eq!(msle(&preds, &incs), 0.0);
        assert_eq!(male(&preds, &incs), 0.0);
    }

    #[test]
    fn msle_penalizes_log_distance() {
        // Predicting 0 for ΔS = e−1 gives error 1².
        let incs = vec![(std::f32::consts::E - 1.0).round() as usize];
        let m = msle(&[0.0], &incs);
        assert!((m - log_label(incs[0]).powi(2)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn msle_rejects_mismatched_lengths() {
        let _ = msle(&[0.0, 1.0], &[1]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn msle_rejects_empty() {
        let _ = msle(&[], &[]);
    }

    #[test]
    fn try_variants_return_none_on_empty_and_match_otherwise() {
        assert_eq!(try_msle(&[], &[]), None);
        assert_eq!(try_male(&[], &[]), None);
        let incs = vec![0usize, 3, 10];
        let preds = vec![0.5f32, 1.0, 2.0];
        assert_eq!(try_msle(&preds, &incs), Some(msle(&preds, &incs)));
        assert_eq!(try_male(&preds, &incs), Some(male(&preds, &incs)));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn try_msle_still_rejects_mismatched_lengths() {
        let _ = try_msle(&[0.0], &[]);
    }

    #[test]
    fn rank_counts_strictly_better_candidates() {
        let scores = [0.1, 0.7, 0.3, 0.05];
        assert_eq!(rank_of(&scores, 1), 0);
        assert_eq!(rank_of(&scores, 2), 1);
        assert_eq!(rank_of(&scores, 0), 2);
        assert_eq!(rank_of(&scores, 3), 3);
    }

    #[test]
    fn ties_break_by_index_ascending() {
        // Identical scores: the lower index wins the earlier rank.
        let scores = [0.5, 0.5, 0.5];
        assert_eq!(rank_of(&scores, 0), 0);
        assert_eq!(rank_of(&scores, 1), 1);
        assert_eq!(rank_of(&scores, 2), 2);
    }

    #[test]
    fn negative_zero_ties_with_positive_zero_deterministically() {
        // total_cmp orders −0.0 < +0.0, so the ordering stays total and
        // reproducible even on signed-zero scores.
        let scores = [0.0f32, -0.0f32];
        assert_eq!(rank_of(&scores, 0), 0);
        assert_eq!(rank_of(&scores, 1), 1);
    }

    #[test]
    fn hit_at_k_counts_top_k_membership() {
        let ranks = [0usize, 4, 9, 20];
        assert_eq!(hit_at_k(&ranks, 1), 0.25);
        assert_eq!(hit_at_k(&ranks, 5), 0.5);
        assert_eq!(hit_at_k(&ranks, 10), 0.75);
        assert_eq!(hit_at_k(&ranks, 100), 1.0);
    }

    #[test]
    fn map_is_mean_reciprocal_rank_for_single_relevant_item() {
        let ranks = [0usize, 1, 3];
        let expect = (1.0 + 0.5 + 0.25) / 3.0;
        assert!((mean_average_precision(&ranks) - expect).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn hit_at_k_rejects_empty() {
        let _ = hit_at_k(&[], 5);
    }
}
