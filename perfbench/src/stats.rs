//! Order statistics for timings: nearest-rank percentiles, the median,
//! quartiles as Python's `statistics.quantiles(values, n=4)` computes them,
//! and the rule that decides which tail percentile a sample supports.

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (0–100) among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding up a
    // whole rank through binary representation error.
    (q * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile `q` (0–100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median: the middle value, or the mean of the two middle values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the `exclusive` method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match the
/// ones a Python script computes from the same values.
///
/// # Panics
///
/// Panics with fewer than two values (Python raises there too).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let data = sorted(values);
    let ld = data.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
        *slot = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
    }
    out
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples strictly beyond its nearest rank,
/// or `None` when not even the median has that many.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| n > 0 && n - nearest_rank(n, q) >= MIN_SAMPLES_BEYOND)
}

/// Splits `(time, value)` samples into the whole windows of length `window`
/// that fit in `[start, end)` and applies `stat` to each window's values
/// (windows where `stat` declines are left out). The median of such window
/// statistics moves with a stall in one or two windows only.
pub fn window_stats(
    samples: &[(u64, f64)],
    start: u64,
    end: u64,
    window: u64,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Vec<f64> {
    let windows = (end.saturating_sub(start) / window.max(1)) as usize;
    let mut buckets = vec![Vec::new(); windows];
    for &(t, v) in samples {
        if let Some(bucket) = t
            .checked_sub(start)
            .and_then(|offset| buckets.get_mut((offset / window) as usize))
        {
            bucket.push(v);
        }
    }
    buckets.iter().filter_map(|b| stat(b)).collect()
}

/// A latency sample summarised the way the benchmark reports it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// The highest percentile the sample supports, and its value.
    pub tail: Option<(f64, f64)>,
    /// First and third quartile (`None` for a single sample).
    pub quartiles: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            p50: percentile(&s, 50.0),
            p90: percentile(&s, 90.0),
            p99: percentile(&s, 99.0),
            tail: highest_supported_percentile(s.len()).map(|q| (q, percentile(&s, q))),
            quartiles: (s.len() >= 2).then(|| {
                let [q1, _, q3] = quartiles(&s);
                (q1, q3)
            }),
        }
    }

    /// `p50 … p90 … p99 (n=…, IQR …, highest supported pXX = …)` for the
    /// printed table.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!("highest supported p{q} = {v:.1} {unit}"),
            None => format!("fewer than {MIN_SAMPLES_BEYOND} samples beyond the median"),
        };
        let iqr = self.quartiles.map_or(String::new(), |(q1, q3)| {
            format!("IQR {q1:.1}–{q3:.1} {unit}, ")
        });
        format!(
            "p50 {:.1} {unit}, p90 {:.1} {unit}, p99 {:.1} {unit} (n={}, {iqr}{tail})",
            self.p50, self.p90, self.p99, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_of_one_to_hundred() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 99.5), 100.0);
    }

    #[test]
    fn percentiles_of_a_uniform_grid_match_the_quantile_function() {
        // 10 000 evenly spaced points of U(0, 1): the p-th percentile is p/100.
        let values: Vec<f64> = (1..=10_000).map(|i| f64::from(i) / 10_000.0).collect();
        for q in [10.0, 50.0, 90.0, 99.0, 99.9] {
            assert!((percentile(&values, q) - q / 100.0).abs() < 1e-12, "p{q}");
        }
    }

    #[test]
    fn percentiles_of_an_exponential_sample_match_its_quantile_function() {
        // Deterministic inverse-CDF sample of Exp(1): F⁻¹(u) = −ln(1 − u).
        let n = 100_000;
        let values: Vec<f64> = (0..n)
            .map(|i| -(1.0 - (f64::from(i) + 0.5) / f64::from(n)).ln())
            .collect();
        let s = sorted(&values);
        assert!((percentile(&s, 50.0) - 2f64.ln()).abs() < 1e-3);
        assert!((percentile(&s, 99.0) - 100f64.ln()).abs() < 1e-2);
        assert!((median(&values) - 2f64.ln()).abs() < 1e-3);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Values printed by Python 3: statistics.quantiles(data, n=4).
        let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&one_to_ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), [1.0, 5.0, 9.0]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // n − rank(p) ≥ 10: the median needs 20 samples, p90 100, p99 1000.
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99.999));
    }

    #[test]
    fn window_medians_ignore_a_stalled_window_and_partial_windows() {
        // Ten windows of 100 samples, value = window index; window 3 stalls
        // (values ×1000); samples before `start` and the partial window at
        // the end are ignored.
        let mut samples: Vec<(u64, f64)> = (0..1000u64)
            .map(|i| {
                let w = i / 100;
                let v = if w == 3 { 3000.0 } else { w as f64 };
                (1_000 + i * 10, v)
            })
            .collect();
        samples.push((0, 1e9));
        samples.push((11_000, 1e9));
        let p99 = |v: &[f64]| (!v.is_empty()).then(|| percentile(&sorted(v), 99.0));
        let windows = window_stats(&samples, 1_000, 11_500, 1_000, p99);
        assert_eq!(
            windows,
            vec![0.0, 1.0, 2.0, 3000.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        );
        assert_eq!(median(&windows), 5.5);
        let count = |v: &[f64]| Some(v.len() as f64);
        assert_eq!(
            window_stats(&samples, 1_000, 11_500, 1_000, count),
            vec![100.0; 10]
        );
        assert!(window_stats(&samples, 1_000, 1_500, 1_000, count).is_empty());
    }

    #[test]
    fn summary_reports_sample_count_and_supported_tail() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let summary = Summary::of(&values);
        assert_eq!(summary.n, 1000);
        assert_eq!(summary.p50, 500.0);
        assert_eq!(summary.p90, 900.0);
        assert_eq!(summary.p99, 990.0);
        assert_eq!(summary.tail, Some((99.0, 990.0)));
        assert_eq!(summary.quartiles, Some((250.25, 750.75)));
        assert_eq!(Summary::of(&[4.0]).quartiles, None);
    }
}
