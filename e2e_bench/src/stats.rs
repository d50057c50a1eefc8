//! Summary statistics for benchmark samples.
//!
//! Two rules from the benchmark's reporting contract live here:
//!
//! * a tail percentile is reported only when at least
//!   [`MIN_TAIL_SAMPLES`] samples lie beyond it, so a "p99" is never
//!   the single slowest sample of a small run;
//! * quartiles follow Python's `statistics.quantiles(values, n=4)`
//!   (the default *exclusive* method), so the spread this program
//!   records for a run is the spread an external harness computes
//!   from the same values.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorts a copy of `values` ascending (NaNs are a caller bug).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Nearest-rank `q`-quantile (`q` in `(0, 1]`) of an ascending slice,
/// or `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond
/// it (or the slice is empty). The median (`q = 0.5`) of any slice of
/// at least 20 samples therefore always exists; a p99 needs ≥ 1000.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    // The epsilon keeps float error in `q * n` (0.99 * 1000 is
    // 990.000…01) from pushing an exact rank up by one.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an ascending slice (mean of the two middle values for an
/// even count); `None` when empty. Unlike [`percentile`] this is the
/// summary of a handful of per-pass values, so it has no tail rule.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// `(Q1, median, Q3)` of an ascending slice with Python's default
/// exclusive method (`statistics.quantiles(data, n=4)`); `None` for
/// fewer than two values, where Python raises.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp raised `j`: Python extrapolates then.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// A run's summary of one metric: the values its passes produced
/// (one per pass, or one per repetition of set-up) and their median
/// and quartiles, as recorded in the provenance report.
#[derive(Clone, Debug, PartialEq)]
pub struct Aggregate {
    /// Number of values aggregated.
    pub trials: usize,
    /// Median of the values.
    pub median: f64,
    /// Lower quartile (equals the median for a single value).
    pub q1: f64,
    /// Upper quartile (equals the median for a single value).
    pub q3: f64,
}

impl Aggregate {
    /// Aggregates per-pass values; `None` when `values` is empty.
    pub fn of(values: &[f64]) -> Option<Aggregate> {
        let s = sorted(values);
        let median = median(&s)?;
        let (q1, q3) = match quartiles(&s) {
            Some((q1, _, q3)) => (q1, q3),
            None => (median, median),
        };
        Some(Aggregate {
            trials: s.len(),
            median,
            q1,
            q3,
        })
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median) — the spread measure the benchmark's bounds are set
    /// against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(percentile(&seq(1000), 0.99), Some(990.0));
        // One sample fewer leaves only 9 beyond the rank-990 value.
        assert_eq!(percentile(&seq(999), 0.99), None);
        // p50 needs 20 samples (rank 10, 10 beyond).
        assert_eq!(percentile(&seq(20), 0.5), Some(10.0));
        assert_eq!(percentile(&seq(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&seq(100), 0.0), None);
        assert_eq!(percentile(&seq(100), 1.5), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = seq(2000);
        assert_eq!(percentile(&v, 0.5), Some(1000.0));
        assert_eq!(percentile(&v, 0.9), Some(1800.0));
        // Non-integer rank rounds up.
        assert_eq!(percentile(&seq(1234), 0.5), Some(617.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&seq(2)), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&seq(3)), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 3, 7, 20, 21], n=4) == [2.0, 7.0, 20.5]
        assert_eq!(
            quartiles(&[1.0, 3.0, 7.0, 20.0, 21.0]),
            Some((2.0, 7.0, 20.5))
        );
        assert_eq!(quartiles(&[4.0]), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[1.0, 2.0, 10.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn aggregate_sorts_and_summarises_passes() {
        let a = Aggregate::of(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(a.trials, 4);
        assert_eq!(a.median, 2.5);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!((a.q1, a.q3), (1.25, 3.75));
        assert_eq!(a.spread(), 1.0);
        let single = Aggregate::of(&[7.0]).unwrap();
        assert_eq!((single.q1, single.median, single.q3), (7.0, 7.0, 7.0));
        assert_eq!(single.spread(), 0.0);
        assert_eq!(Aggregate::of(&[]), None);
    }
}
