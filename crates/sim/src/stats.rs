//! Statistics primitives used by the evaluation harnesses.
//!
//! The paper reports geometric means of speedups over workload groups
//! (top-10 / top-15 / all-20 by L2 MPKI); [`geomean`] implements exactly
//! that aggregation. [`LogHistogram`] is the one latency histogram: the
//! per-op latency attribution, the service telemetry and the load
//! generator all record into it.

/// Number of linear sub-buckets per octave in a [`LogHistogram`]
/// (as a power of two: 2^3 = 8 sub-buckets).
const LOG_HIST_SUB_BITS: u32 = 3;
const LOG_HIST_SUB: usize = 1 << LOG_HIST_SUB_BITS;
/// Values below `LOG_HIST_SUB` get one exact bucket each; above that,
/// each octave `[2^o, 2^(o+1))` is split into `LOG_HIST_SUB` linear
/// sub-buckets. 64-bit values need octaves 3..=63.
const LOG_HIST_BUCKETS: usize = LOG_HIST_SUB + (64 - LOG_HIST_SUB_BITS as usize) * LOG_HIST_SUB;

/// A log-linear latency histogram: mergeable, allocation-light, and
/// tight enough for tail reporting.
///
/// A power-of-two histogram bounds percentiles only to within a factor
/// of two — useless for a p999 SLO line. `LogHistogram` subdivides
/// every octave into 8 linear sub-buckets, so percentile upper bounds
/// carry at most 12.5% relative error while the whole structure stays a flat array of counters that
/// merges across epochs and worker threads by addition. This is the
/// serving-path histogram: the service telemetry records every
/// completion's per-component latency into one of these.
///
/// # Example
///
/// ```
/// use dve_sim::stats::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 0..1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(0.5);
/// assert!((499..=562).contains(&p50), "p50 bound = {p50}");
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Flat bucket counters (heap-allocated: the per-component
    /// histograms ride inside `RunResult`, which must stay cheap to
    /// move around).
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; LOG_HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    fn bucket_index(value: u64) -> usize {
        if value < LOG_HIST_SUB as u64 {
            value as usize
        } else {
            let octave = 63 - value.leading_zeros();
            let sub = (value >> (octave - LOG_HIST_SUB_BITS)) as usize & (LOG_HIST_SUB - 1);
            LOG_HIST_SUB + (octave - LOG_HIST_SUB_BITS) as usize * LOG_HIST_SUB + sub
        }
    }

    /// `(octave, sub, sub-bucket width)` of log bucket `i`
    /// (`i >= LOG_HIST_SUB`).
    fn bucket_geometry(i: usize) -> (u32, u64, u64) {
        let octave = LOG_HIST_SUB_BITS + ((i - LOG_HIST_SUB) / LOG_HIST_SUB) as u32;
        let sub = ((i - LOG_HIST_SUB) % LOG_HIST_SUB) as u64;
        let width = 1u64 << (octave - LOG_HIST_SUB_BITS);
        (octave, sub, width)
    }

    /// Inclusive lower bound of bucket `i`: the smallest value that
    /// [`LogHistogram::record`] files under it. Never overflows — the
    /// top bucket starts at `2^63 + 7·2^60`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid bucket index.
    pub fn bucket_lower(i: usize) -> u64 {
        assert!(i < LOG_HIST_BUCKETS, "bucket index {i} out of range");
        if i < LOG_HIST_SUB {
            i as u64
        } else {
            let (octave, sub, width) = Self::bucket_geometry(i);
            (1u64 << octave) + sub * width
        }
    }

    /// Inclusive upper bound of bucket `i` (the value `percentile`
    /// reports for a quantile landing in that bucket).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid bucket index.
    pub fn bucket_upper(i: usize) -> u64 {
        assert!(i < LOG_HIST_BUCKETS, "bucket index {i} out of range");
        if i < LOG_HIST_SUB {
            i as u64
        } else {
            let (octave, sub, width) = Self::bucket_geometry(i);
            let base = 1u64 << octave;
            // The exclusive bound is base + (sub+1)*width. Only the top
            // bucket's exclusive bound (2^63 + 8·2^60 = 2^64) is allowed
            // to wrap — to 0, so the subtract lands its inclusive bound
            // exactly on u64::MAX. Any other wrap would be a geometry
            // bug silently mapping a mid-range bucket to a tiny bound.
            let exclusive = base.wrapping_add((sub + 1) * width);
            debug_assert!(
                exclusive > base || (octave == 63 && sub + 1 == LOG_HIST_SUB as u64),
                "bucket {i} bound math wrapped outside the top bucket"
            );
            exclusive.wrapping_sub(1)
        }
    }

    /// Number of buckets ([`LogHistogram::bucket_lower`] /
    /// [`LogHistogram::bucket_upper`] accept `0..bucket_count()`).
    pub fn bucket_count() -> usize {
        LOG_HIST_BUCKETS
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples (the conservation hook: per
    /// component, this must equal the engine's cumulative latency).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample (exact, not a bucket bound).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Percentile upper bound from the bucketed distribution: the
    /// inclusive upper edge of the sub-bucket containing the requested
    /// quantile (≤12.5% above the true value). Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                // Never report past the actually observed maximum.
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The standard serving-tail triple: (p50, p99, p999).
    pub fn tail(&self) -> (u64, u64, u64) {
        (
            self.percentile(0.50),
            self.percentile(0.99),
            self.percentile(0.999),
        )
    }

    /// Adds every sample of `other` into `self` (epoch / worker
    /// aggregation).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Geometric mean of a slice of strictly positive values.
///
/// This is the aggregate the paper uses for speedups ("we report the
/// geometric mean of speedup ... for the top-10, top-15 and all 20
/// benchmarks").
///
/// # Panics
///
/// Panics if any value is not strictly positive, or the slice is empty.
///
/// # Example
///
/// ```
/// use dve_sim::stats::geomean;
///
/// let g = geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let mut log_sum = 0.0;
    for &v in values {
        assert!(
            v > 0.0 && v.is_finite(),
            "geomean requires positive finite values, got {v}"
        );
        log_sum += v.ln();
    }
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        // Each small value has its own bucket, so every percentile
        // bound is the exact value.
        assert_eq!(h.percentile(1.0 / 8.0), 0);
        assert_eq!(h.percentile(1.0), 7);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), (0..8).sum::<u64>() as u128);
    }

    #[test]
    fn log_histogram_percentile_bound_is_tight() {
        let mut h = LogHistogram::new();
        for _ in 0..999 {
            h.record(1000);
        }
        h.record(1_000_000);
        let p50 = h.percentile(0.5);
        assert!(
            (1000..=1125).contains(&p50),
            "p50 bound {p50} within 12.5% of 1000"
        );
        let p999 = h.percentile(0.999);
        assert!((1000..=1125).contains(&p999), "p999 bound {p999}");
        assert_eq!(h.percentile(1.0), 1_000_000, "max clamps the top bucket");
        let (t50, t99, t999) = h.tail();
        assert_eq!((t50, t99, t999), (p50, h.percentile(0.99), p999));
    }

    #[test]
    fn log_histogram_merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [0u64, 3, 17, 900, 65_536, u64::MAX] {
            a.record(v);
            both.record(v);
        }
        for v in [5u64, 12_345, 1 << 40] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), 9);
    }

    #[test]
    fn log_histogram_empty_and_extremes() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(u64::MAX);
        assert_eq!(h.percentile(0.5), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn log_histogram_bucket_roundtrip() {
        // Exhaustive audit of the bound math, both ends of every
        // bucket: each bucket's inclusive lower and upper bound must
        // map back into that bucket, the buckets must tile the u64
        // range contiguously (no gap, no overlap, no off-by-one at any
        // octave boundary), and the top bucket's inclusive upper bound
        // must be exactly u64::MAX.
        assert_eq!(LogHistogram::bucket_count(), LOG_HIST_BUCKETS);
        for i in 0..LOG_HIST_BUCKETS {
            let lo = LogHistogram::bucket_lower(i);
            let hi = LogHistogram::bucket_upper(i);
            assert!(lo <= hi, "bucket {i}: inverted bounds [{lo}, {hi}]");
            assert_eq!(LogHistogram::bucket_index(lo), i, "bucket {i} lower {lo}");
            assert_eq!(LogHistogram::bucket_index(hi), i, "bucket {i} upper {hi}");
            if i > 0 {
                let prev_hi = LogHistogram::bucket_upper(i - 1);
                assert_eq!(
                    lo,
                    prev_hi + 1,
                    "buckets {} and {i} must tile contiguously",
                    i - 1
                );
            }
            // The first value past the bucket belongs to the next one.
            if i + 1 < LOG_HIST_BUCKETS {
                assert_eq!(LogHistogram::bucket_index(hi + 1), i + 1, "bucket {i}");
            }
        }
        assert_eq!(LogHistogram::bucket_lower(0), 0, "range starts at 0");
        assert_eq!(
            LogHistogram::bucket_upper(LOG_HIST_BUCKETS - 1),
            u64::MAX,
            "top bucket's inclusive bound is u64::MAX"
        );
    }

    #[test]
    fn log_histogram_bounds_bracket_recorded_values() {
        // Spot-check mid-range octaves with values straddling every
        // sub-bucket edge: the recorded value must fall inside its
        // bucket's [lower, upper] interval.
        let mut values = vec![0u64, 1, 7, 8, 9, 15, 16, 255, 256, 4095, 4096];
        for shift in [10u32, 20, 33, 47, 62, 63] {
            let base = 1u64 << shift;
            for delta in [0u64, 1, base / 8, base / 8 + 1, base / 2, base - 1] {
                values.push(base + delta);
            }
        }
        values.push(u64::MAX);
        for v in values {
            let i = LogHistogram::bucket_index(v);
            let lo = LogHistogram::bucket_lower(i);
            let hi = LogHistogram::bucket_upper(i);
            assert!(
                (lo..=hi).contains(&v),
                "value {v} filed in bucket {i} with bounds [{lo}, {hi}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn log_histogram_bucket_bounds_reject_bad_index() {
        LogHistogram::bucket_upper(LOG_HIST_BUCKETS);
    }

    #[test]
    fn geomean_matches_by_hand() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_rejects_empty() {
        geomean(&[]);
    }
}
