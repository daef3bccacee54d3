//! Order statistics over client-observed latencies.
//!
//! A request that failed, was refused, was shed or timed out has no
//! latency; it enters the sample as `+∞`, so it sorts after every real
//! latency and counts as missing any limit a percentile is held to.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile (choosing-metrics: "the highest percentile that has at least
/// ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// Sorted latency sample, failures included as `+∞`.
#[derive(Debug, Clone)]
pub struct Sample {
    sorted: Vec<f64>,
}

/// One percentile read off a [`Sample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile actually used, in `(0, 1)`.
    pub q: f64,
    /// The value at that quantile (`+∞` when a failure sits there).
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

impl Sample {
    /// Builds a sample from latencies; `None` entries are failures.
    pub fn new(latencies: impl IntoIterator<Item = Option<f64>>) -> Self {
        let mut sorted: Vec<f64> = latencies
            .into_iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        sorted.sort_by(f64::total_cmp);
        Sample { sorted }
    }

    /// Number of samples, failures included.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile: the smallest value with at least `q` of the
    /// sample at or below it.
    pub fn quantile(&self, q: f64) -> Option<Percentile> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(Percentile {
            q: rank as f64 / n as f64,
            value: self.sorted[rank - 1],
            beyond: n - rank,
        })
    }

    /// The median.
    pub fn median(&self) -> Option<Percentile> {
        self.quantile(0.5)
    }

    /// The `target` quantile if at least [`MIN_BEYOND`] samples lie beyond
    /// it, otherwise the highest rank that leaves that many beyond it.
    /// `None` when the sample is too small to have any such rank.
    pub fn tail(&self, target: f64) -> Option<Percentile> {
        let n = self.sorted.len();
        if n <= MIN_BEYOND {
            return None;
        }
        let rank = ((target * n as f64).ceil() as usize).clamp(1, n - MIN_BEYOND);
        Some(Percentile {
            q: rank as f64 / n as f64,
            value: self.sorted[rank - 1],
            beyond: n - rank,
        })
    }
}

/// Median of a small set of measurements (e.g. repeated set-up times);
/// the mean of the two middle values for an even count.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sample {
        Sample::new((1..=n).map(|i| Some(i as f64)))
    }

    #[test]
    fn p99_keeps_ten_samples_beyond_it() {
        let p = ramp(1000).tail(0.99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert!((p.q - 0.99).abs() < 1e-12);
        let p = ramp(5000).tail(0.99).unwrap();
        assert_eq!(p.beyond, 50);
    }

    #[test]
    fn short_runs_fall_back_to_a_lower_percentile() {
        let p = ramp(500).tail(0.99).unwrap();
        assert_eq!(p.beyond, MIN_BEYOND);
        assert_eq!(p.value, 490.0);
        assert!((p.q - 0.98).abs() < 1e-12);
        assert!(ramp(10).tail(0.99).is_none());
        assert_eq!(ramp(11).tail(0.99).unwrap().value, 1.0);
    }

    #[test]
    fn failures_sit_at_infinity() {
        // 2 % failures: the median is real, p99 lands on a failure.
        let mut lat: Vec<Option<f64>> = (1..=980).map(|i| Some(i as f64)).collect();
        lat.extend(std::iter::repeat_n(None, 20));
        let s = Sample::new(lat);
        assert_eq!(s.count(), 1000);
        assert_eq!(s.median().unwrap().value, 500.0);
        assert_eq!(s.tail(0.99).unwrap().value, f64::INFINITY);
        // A majority of failures moves the median to infinity too.
        let s = Sample::new((0..10).map(|i| (i < 4).then_some(1.0)));
        assert_eq!(s.median().unwrap().value, f64::INFINITY);
    }

    #[test]
    fn failures_sort_after_any_latency() {
        let s = Sample::new([None, Some(1e12), Some(3.0)]);
        assert_eq!(s.quantile(1.0 / 3.0).unwrap().value, 3.0);
        assert_eq!(s.quantile(2.0 / 3.0).unwrap().value, 1e12);
        assert_eq!(s.quantile(1.0).unwrap().value, f64::INFINITY);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median_of(&[]).is_nan());
    }
}
