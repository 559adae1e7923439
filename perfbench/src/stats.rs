//! The benchmark's one percentile definition and the sample summaries built
//! on it.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// such that at least a share `q` of the samples are at or below it, i.e.
/// `sorted[ceil(q·n) − 1]` (clamped to the first sample). Returns `NaN` for
/// an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One operation kind's samples, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.sorted, q)
    }

    pub fn median(&self) -> f64 {
        self.p(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Samples strictly above the `q` percentile — the tail a percentile
    /// rests on.
    pub fn beyond(&self, q: f64) -> usize {
        let v = self.p(q);
        self.sorted.len() - self.sorted.partition_point(|&x| x <= v)
    }
}

/// Nanoseconds of a duration as a float, for µs/ms conversions that keep
/// every digit.
pub fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // ceil(0.5 · 5) = 3 → the middle of five.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        // ceil(0.99 · 1000) = 990 → ten samples lie beyond p99.
        let d = Dist::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(d.p(0.99), 990.0);
        assert_eq!(d.beyond(0.99), 10);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let d = Dist::new(vec![1.0, 2.0, 2.0, 2.0]);
        assert_eq!(d.p(0.5), 2.0);
        assert_eq!(d.beyond(0.5), 0);
        assert_eq!(d.mean(), 1.75);
    }
}
