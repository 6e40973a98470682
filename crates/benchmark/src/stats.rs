//! Order statistics that always travel with their sample count.

/// A statistic and the number of samples behind it. The default is
/// [`Stat::NONE`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stat {
    /// The value (0 when there were no samples).
    pub value: f64,
    /// How many samples it summarises.
    pub n: usize,
}

impl Stat {
    /// A statistic that is not defined here: value 0, no samples.
    pub const NONE: Stat = Stat { value: 0.0, n: 0 };

    /// A single direct measurement.
    pub fn one(value: f64) -> Stat {
        Stat { value, n: 1 }
    }

    /// The same statistic in another unit.
    pub fn scaled(self, factor: f64) -> Stat {
        Stat { value: self.value * factor, n: self.n }
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// two nearest ranks; `Stat::NONE` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Stat {
    if samples.is_empty() {
        return Stat::NONE;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
    Stat { value, n: sorted.len() }
}

/// The median.
pub fn median(samples: &[f64]) -> Stat {
    quantile(samples, 0.5)
}

/// The highest of p99 / p95 / p90 that still has at least ten samples
/// beyond it, falling back to the maximum for small samples — a tail
/// the sample can actually support.
pub fn supported_tail(samples: &[f64]) -> Stat {
    let beyond = [1, 5, 10].into_iter().find(|percent| samples.len() * percent / 100 >= 10);
    quantile(samples, beyond.map_or(1.0, |percent| 1.0 - percent as f64 / 100.0))
}

/// Quartile spread as a share of the median — the steadiness measure
/// the benchmark contract uses (Python's exclusive
/// `statistics.quantiles(values, n=4)`).
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0 - 1.0;
        let lo = (pos.floor().max(0.0) as usize).min(n - 1);
        let hi = (lo + 1).min(n - 1);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64).clamp(0.0, 1.0)
    };
    let mid = median(&sorted).value;
    if mid == 0.0 {
        return 0.0;
    }
    ((cut(3) - cut(1)) / mid).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_carry_their_sample_count() {
        assert_eq!(median(&[]), Stat::NONE);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Stat { value: 2.0, n: 3 });
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Stat { value: 2.5, n: 4 });
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = quantile(&hundred, 0.99);
        assert_eq!(p99.n, 100);
        assert!((p99.value - 99.01).abs() < 1e-9);
        assert_eq!(quantile(&hundred, 1.0).value, 100.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        // 1000 samples support p99 (10 beyond), 200 only p95, 100 only p90.
        assert_eq!(supported_tail(&v(1000)), quantile(&v(1000), 0.99));
        assert_eq!(supported_tail(&v(200)), quantile(&v(200), 0.95));
        assert_eq!(supported_tail(&v(100)), quantile(&v(100), 0.90));
        assert_eq!(supported_tail(&v(20)).value, 20.0);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0; 10]), 0.0);
    }
}
