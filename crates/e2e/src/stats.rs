//! Order statistics, means and the fixed log2 histogram the traced run
//! folds per-burst timings into.

/// Nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`.
/// Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// The first decile of the sample (nearest rank; the minimum for ten values
/// or fewer): what an operation costs when the host is quiet.
///
/// Every timing the benchmark reports is the quiet decile of many
/// fixed-work repetitions inside one run, not their median. On a shared
/// host a neighbour's load only ever *adds* time, in bursts that last from
/// a fraction of a second to a minute and slow everything by 5 to 40 %. The
/// median of a run that overlaps such a burst moves with it; the first
/// decile moves only once nine repetitions in ten are disturbed. With many
/// repetitions it is not the minimum, so one repetition whose inputs
/// happened to be cheap does not set it.
pub fn quiet(values: &[f64]) -> f64 {
    percentile(values, 0.10)
}

/// Median with the midpoint convention for even counts (what
/// `statistics.median` gives). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped into the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Geometric mean of positive values; 0 for an empty slice or any
/// non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fixed histogram with one bucket per power of two of nanoseconds:
/// bucket `b` holds values in `[2^b, 2^(b+1))`, bucket 0 also holds 0.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Hist {
    /// Record one value.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[(63 - (ns | 1).leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum += ns;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the values recorded.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Upper bound of the bucket the `q`-quantile falls in.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if b == 63 { u64::MAX } else { (2u64 << b) - 1 };
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quiet_decile_ignores_a_disturbed_majority() {
        // Most repetitions hit a noisy neighbour; two in twenty-one were
        // lucky beyond what the work costs.
        let mut v: Vec<f64> = (0..21).map(|i| 10.0 + f64::from(i % 7)).collect();
        v[3] = 7.0;
        v[11] = 8.0;
        assert_eq!(quiet(&v), 10.0);
        assert_eq!(quiet(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(quiet(&[]), 0.0);
    }

    #[test]
    fn median_takes_the_midpoint_of_an_even_count() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn log2_histogram_buckets_and_quantiles() {
        let mut h = Log2Hist::default();
        for ns in [0, 1, 2, 3, 4, 1000, 1023, 1024] {
            h.record(ns);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 3057);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[2], 1); // 4
        assert_eq!(h.buckets[9], 2); // 1000 and 1023
        assert_eq!(h.buckets[10], 1); // 1024
        assert_eq!(h.quantile_upper(0.5), 3);
        assert_eq!(h.quantile_upper(1.0), 2047);
        assert_eq!(Log2Hist::default().quantile_upper(0.5), 0);
    }
}
