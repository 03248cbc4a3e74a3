//! Order statistics for the benchmark's reported figures.

/// Median of `xs` (the mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three cut points that split `xs` into quarters, computed as
/// Python's `statistics.quantiles(xs, n=4)` does (its default
/// `exclusive` method), so the spreads this benchmark reports match the
/// ones its harness computes.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's bound must exceed.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// A reported tail percentile: the value, the percentile it is, and
/// the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Nearest-rank value at `percentile`.
    pub value: f64,
    /// Percentile actually reported, in `(0, 100]`.
    pub percentile: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond a reported percentile for it to mean
/// anything.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile, at most `target` (e.g. 99.0), that still has
/// at least [`TAIL_MIN_BEYOND`] samples beyond it, by nearest rank.
/// `None` when that percentile would lie below the median (fewer than
/// 20 samples): such a "tail" says nothing the median does not.
pub fn tail(xs: &[f64], target: f64) -> Option<Tail> {
    let n = xs.len();
    if n < 2 * TAIL_MIN_BEYOND {
        return None;
    }
    let s = sorted(xs);
    // Nearest rank k (1-based) of the target, capped so that n - k
    // samples (at least TAIL_MIN_BEYOND) lie beyond it.
    let target_rank = ((target / 100.0) * n as f64).ceil() as usize;
    let k = target_rank.clamp(1, n - TAIL_MIN_BEYOND);
    Some(Tail {
        value: s[k - 1],
        percentile: 100.0 * k as f64 / n as f64,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), [2.0, 5.0, 8.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_reports_target_when_enough_samples_lie_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&xs, 99.0).expect("enough samples");
        // Nearest rank of p99 over 2000 samples is 1980; 20 lie beyond.
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 2000);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p99 would leave one sample beyond it, so the
        // rule reports rank 90 (p90), which leaves exactly ten.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 99.0).expect("enough samples");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // 20 samples: the median is the highest with ten beyond it.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs, 99.0).expect("enough samples");
        assert_eq!((t.value, t.percentile), (10.0, 50.0));
    }

    #[test]
    fn tail_is_none_when_it_would_fall_below_the_median() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), None);
    }
}
