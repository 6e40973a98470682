//! Log-bucketed latency histograms with ~4 % relative-error buckets.
//!
//! This is the one histogram implementation in the workspace; the
//! simulator's `SimTime`-flavoured histogram and the RPC layer's latency
//! tracking both delegate here. Buckets are geometric — 16 per decade
//! over 12 decades (1 ns .. 1000 s) — so `merge` is exact bucket-wise
//! addition and quantiles carry bucket resolution.

/// Geometric buckets per factor-of-ten.
const BUCKETS_PER_DECADE: usize = 16;
/// Covered range: 1 ns .. 1000 s.
const DECADES: usize = 12;
/// Total bucket count (one extra catch-all at the top).
const NBUCKETS: usize = BUCKETS_PER_DECADE * DECADES + 1;

fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    let log10 = (ns as f64).log10();
    let idx = (log10 * BUCKETS_PER_DECADE as f64) as usize;
    idx.min(NBUCKETS - 1)
}

fn bucket_floor(idx: usize) -> u64 {
    10f64.powf(idx as f64 / BUCKETS_PER_DECADE as f64) as u64
}

/// A histogram over nanosecond durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    // bucket i covers [floor_i, floor_{i+1}) with geometric spacing.
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { counts: vec![0; NBUCKETS], total: 0, sum_ns: 0, min_ns: u64::MAX, max_ns: 0 }
    }

    /// Record one duration in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        if let Some(c) = self.counts.get_mut(bucket_of(ns)) {
            *c += 1;
        }
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded samples in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Merge another histogram into this one (exact: buckets align).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Approximate quantile `q ∈ [0,1]` in nanoseconds (bucket floor,
    /// clamped to the observed min/max).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return bucket_floor(i).max(self.min_ns).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean, min, max and common quantiles.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            mean_ns: if self.total == 0 { 0 } else { (self.sum_ns / self.total as u128) as u64 },
            min_ns: if self.total == 0 { 0 } else { self.min_ns },
            p50_ns: self.quantile_ns(0.50),
            p99_ns: self.quantile_ns(0.99),
            max_ns: if self.total == 0 { 0 } else { self.max_ns },
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Point statistics extracted from a [`Histogram`], in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Minimum sample.
    pub min_ns: u64,
    /// Median (bucket-resolution).
    pub p50_ns: u64,
    /// 99th percentile (bucket-resolution).
    pub p99_ns: u64,
    /// Maximum sample.
    pub max_ns: u64,
}

/// Render a nanosecond duration with a human-scale unit.
///
/// Pure integer arithmetic: two fixed decimals per unit, round-half-up,
/// and a carry into the next unit when rounding would print `1000.00`
/// of the smaller one — so output is stable-width and free of float
/// noise (`999_999ns` is `1.00ms`, never `1000.00us` or
/// `1.0000000002s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        return format!("{ns}ns");
    }
    for (div, unit) in [(1_000u64, "us"), (1_000_000, "ms")] {
        let centi = centi_units(ns, div);
        if centi < 100_000 {
            return format!("{}.{:02}{unit}", centi / 100, centi % 100);
        }
    }
    let centi = centi_units(ns, 1_000_000_000);
    format!("{}.{:02}s", centi / 100, centi % 100)
}

/// `ns` rescaled to hundredths of the unit whose size is `div` ns,
/// rounded half-up. Widened to u128 so u64::MAX ns cannot overflow.
fn centi_units(ns: u64, div: u64) -> u64 {
    ((ns as u128 * 100 + div as u128 / 2) / div as u128) as u64
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            fmt_ns(self.mean_ns),
            fmt_ns(self.p50_ns),
            fmt_ns(self.p99_ns),
            fmt_ns(self.max_ns)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_ns, 0);
        assert_eq!(h.quantile_ns(0.5), 0);
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        h.record_ns(42_000);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean_ns, 42_000);
        assert_eq!(s.min_ns, 42_000);
        assert_eq!(s.max_ns, 42_000);
        // Quantiles land within the bucket (±~8 %).
        let p50 = h.quantile_ns(0.5) as f64;
        assert!((p50 - 42_000.0).abs() / 42_000.0 < 0.1, "p50={p50}");
    }

    #[test]
    fn quantiles_are_ordered_and_close() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record_ns(us * 1_000);
        }
        let s = h.summary();
        assert!(s.min_ns <= s.p50_ns && s.p50_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        let p50 = s.p50_ns as f64 / 1_000.0;
        let p99 = s.p99_ns as f64 / 1_000.0;
        assert!((p50 - 500.0).abs() / 500.0 < 0.2, "p50={p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.2, "p99={p99}");
        assert_eq!(s.mean_ns, 500_500);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..500u64 {
            a.record_ns(i * 17 + 1);
            both.record_ns(i * 17 + 1);
            b.record_ns((i + 1) * 1_000);
            both.record_ns((i + 1) * 1_000);
        }
        a.merge(&b);
        assert_eq!(a.summary(), both.summary());
    }

    #[test]
    fn zero_duration_counts() {
        let mut h = Histogram::new();
        h.record_ns(0);
        h.record_ns(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.summary().max_ns, 0);
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(42_000), "42.00us");
        assert_eq!(fmt_ns(3_500_000), "3.50ms");
        assert_eq!(fmt_ns(2_000_000_000), "2.00s");
    }

    #[test]
    fn fmt_ns_boundaries_carry_units_without_float_noise() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_000), "1.00us");
        assert_eq!(fmt_ns(999_994), "999.99us");
        // Rounding that would print 1000.00us carries into ms.
        assert_eq!(fmt_ns(999_995), "1.00ms");
        assert_eq!(fmt_ns(999_999), "1.00ms");
        assert_eq!(fmt_ns(1_000_000), "1.00ms");
        assert_eq!(fmt_ns(999_999_999), "1.00s");
        assert_eq!(fmt_ns(1_000_000_000), "1.00s");
        assert_eq!(fmt_ns(1_000_000_002), "1.00s", "no 1.0000000002s");
        assert_eq!(fmt_ns(1_005_000_000), "1.01s", "half rounds up");
        // Huge values stay exact integers (u64::MAX ns ≈ 584 years).
        assert_eq!(fmt_ns(u64::MAX), "18446744073.71s");
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let mut h = Histogram::new();
        h.record_ns(5_000);
        let before = h.summary();
        h.merge(&Histogram::new());
        assert_eq!(h.summary(), before);
        assert_eq!(h.summary().min_ns, 5_000, "empty min (u64::MAX) must not leak");

        let mut empty = Histogram::new();
        empty.merge(&Histogram::new());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.summary(), Summary::default());
    }

    #[test]
    fn merging_into_an_empty_histogram_adopts_the_other() {
        let mut single = Histogram::new();
        single.record_ns(7_777);
        let mut h = Histogram::new();
        h.merge(&single);
        assert_eq!(h.count(), 1);
        assert_eq!(h.summary().min_ns, 7_777);
        assert_eq!(h.summary().max_ns, 7_777);
    }

    #[test]
    fn quantiles_on_empty_and_single_sample_histograms() {
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(empty.quantile_ns(q), 0, "q={q}");
        }
        let mut single = Histogram::new();
        single.record_ns(42_000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(single.quantile_ns(q), 42_000, "single sample clamps to itself, q={q}");
        }
        let mut zero = Histogram::new();
        zero.record_ns(0);
        assert_eq!(zero.quantile_ns(0.5), 0);
    }

    #[test]
    fn quantiles_after_merge_stay_clamped_and_ordered() {
        // Two single-sample histograms three decades apart: after the
        // merge, p50 must land exactly on the low sample and p99/p100 on
        // the high one (bucket floors clamp to the observed min/max, so
        // neither quantile can wander outside the recorded range).
        let mut low = Histogram::new();
        low.record_ns(1_000);
        let mut high = Histogram::new();
        high.record_ns(1_000_000);
        low.merge(&high);
        assert_eq!(low.quantile_ns(0.0), 1_000);
        assert_eq!(low.quantile_ns(0.5), 1_000);
        assert_eq!(low.quantile_ns(0.99), 1_000_000);
        assert_eq!(low.quantile_ns(1.0), 1_000_000);
        // Merging an empty histogram must not perturb any quantile.
        let before: Vec<u64> = [0.0, 0.5, 0.99, 1.0].iter().map(|&q| low.quantile_ns(q)).collect();
        low.merge(&Histogram::new());
        let after: Vec<u64> = [0.0, 0.5, 0.99, 1.0].iter().map(|&q| low.quantile_ns(q)).collect();
        assert_eq!(before, after);
    }
}
