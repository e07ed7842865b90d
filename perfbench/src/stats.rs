//! Order statistics for the report.

/// Cut points dividing `values` into `n` equal-probability groups, by the
/// same "exclusive" method as Python's `statistics.quantiles(values, n=n)`,
/// so quartiles printed here match the ones a reader recomputes from the
/// raw samples. Empty input gives an empty vector.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 1, "need at least one group");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => Vec::new(),
        1 => vec![data[0]; n - 1],
        _ => {
            let m = ld + 1;
            (1..n)
                .map(|i| {
                    let j = (i * m / n).clamp(1, ld - 1);
                    // `delta` may be negative when j was clamped up.
                    let delta = (i * m) as f64 - (j * n) as f64;
                    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
                })
                .collect()
        }
    }
}

/// Median (mean of the two middle values for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (1..=99) by the exclusive method.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    assert!((1..100).contains(&p), "percentile must be in 1..=99");
    quantiles(values, 100)
        .get(p - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

/// Highest percentile with at least ten samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<usize> {
    (n >= 20).then(|| (100 - 1000_usize.div_ceil(n)).min(99))
}

/// Median, quartiles and count of a sample, for the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        let q = quantiles(values, 4);
        Summary {
            median: median(values),
            q1: q.first().copied().unwrap_or(f64::NAN),
            q3: q.get(2).copied().unwrap_or(f64::NAN),
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12)
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(&quantiles(&v, 4), &[2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!(close(&quantiles(&[3.0, 1.0, 2.0], 4), &[1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!(close(&quantiles(&[1.0, 2.0], 4), &[0.75, 1.5, 2.25]));
        // Python 3.13+: statistics.quantiles([5], n=4) == [5.0, 5.0, 5.0]
        assert!(close(&quantiles(&[5.0], 4), &[5.0, 5.0, 5.0]));
        assert!(quantiles(&[], 4).is_empty());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentiles_are_monotone_and_bracket_the_median() {
        let v: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let p50 = percentile(&v, 50);
        assert!((p50 - median(&v)).abs() < 1e-9);
        assert!(percentile(&v, 5) < p50 && p50 < percentile(&v, 95));
        assert!(percentile(&v, 95) <= 199.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(70), Some(85));
        for n in 20..500 {
            let p = tail_percentile(n).unwrap();
            assert!(n * (100 - p) >= 1000, "n {n} p {p}");
        }
    }

    #[test]
    fn summary_reports_count_and_quartiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.q1 - 2.75).abs() < 1e-12 && (s.q3 - 8.25).abs() < 1e-12);
    }
}
