//! Experiment harness for the CasCN reproduction: dataset settings, paper
//! reference numbers, the model runner, and report output.
//!
//! Each `exp_*` binary under `src/bin/` regenerates one table or figure of
//! the paper (see `DESIGN.md` §4 for the index) and prints measured numbers
//! next to the paper's, writing CSV artifacts under `target/experiments/`.
//!
//! Absolute MSLE values are not expected to match the paper — the datasets
//! are synthetic stand-ins and the training budget is CPU-scale — but the
//! *shape* (who wins, by roughly what factor, where the trends point) is the
//! reproduction target.

pub mod datasets;
pub mod paper;
pub mod ratchet;
pub mod report;
pub mod runner;

/// Nearest-rank `q`-th percentile (`q` in `[0, 1]`) of an ascending-sorted
/// list of samples; `0` when the list is empty. `q = 0` yields the minimum
/// and `q = 1` the maximum.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0, "empty input");
        let xs = [10, 20, 30, 40];
        assert_eq!(percentile(&xs, 0.0), 10, "q = 0 is the minimum");
        assert_eq!(percentile(&xs, 1.0), 40, "q = 1 is the maximum");
        assert_eq!(percentile(&xs, 0.5), 20);
        assert_eq!(percentile(&xs, 0.51), 30);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7], q), 7, "single sample at q = {q}");
        }
    }
}
