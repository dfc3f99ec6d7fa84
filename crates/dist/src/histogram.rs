//! Constant-memory streaming histogram with logarithmic buckets.

use crate::Cdf;
use serde::{Deserialize, Serialize};

/// A log-bucketed streaming histogram over positive values (ms).
///
/// This is the data structure behind the paper's *online updating process*
/// (§III.B.2): as task results return to the query handler, their
/// post-queuing times are recorded here, and the deadline estimator reads the
/// updated quantiles. Buckets grow geometrically, so relative quantile error
/// is bounded by the configured `growth` factor (default 1 %) using constant
/// memory regardless of sample count.
///
/// Counts are `f64` so the histogram supports exponential decay
/// ([`LogHistogram::decay`]), letting estimates track drifting servers — the
/// heterogeneity-capture mechanism the paper relies on.
///
/// # Example
///
/// ```
/// use tailguard_dist::{Cdf, LogHistogram};
///
/// let mut h = LogHistogram::new();
/// for i in 1..=1000 {
///     h.record(i as f64 / 100.0); // 0.01 .. 10.0 ms
/// }
/// let q = h.quantile(0.99);
/// assert!((q - 9.9).abs() / 9.9 < 0.02);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogHistogram {
    min_value: f64,
    log_growth: f64,
    counts: Vec<f64>,
    underflow: f64,
    total: f64,
    sum: f64,
}

impl LogHistogram {
    /// Default lowest resolvable value: 0.1 µs.
    pub const DEFAULT_MIN: f64 = 1e-4;
    /// Default highest resolvable value: 100 s.
    pub const DEFAULT_MAX: f64 = 1e5;
    /// Default bucket growth factor: 1 % relative resolution.
    pub const DEFAULT_GROWTH: f64 = 1.01;

    /// Creates a histogram with default range (0.1 µs – 100 s) and 1 %
    /// relative resolution.
    pub fn new() -> Self {
        Self::with_range(Self::DEFAULT_MIN, Self::DEFAULT_MAX, Self::DEFAULT_GROWTH)
    }

    /// Creates a histogram covering `[min_value, max_value]` with the given
    /// geometric bucket `growth` factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_value < max_value` and `growth > 1`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "log-ratio of validated positive bounds: `as` maps negatives to 0 and the result is min-clamped to the bucket range right after"
    )]
    #[expect(
        clippy::cast_sign_loss,
        reason = "log-ratio of validated positive bounds: `as` maps negatives to 0 and the result is min-clamped to the bucket range right after"
    )]
    pub fn with_range(min_value: f64, max_value: f64, growth: f64) -> Self {
        assert!(
            min_value > 0.0 && min_value < max_value,
            "require 0 < min < max"
        );
        assert!(growth > 1.0, "growth must exceed 1");
        let log_growth = growth.ln();
        let buckets = ((max_value / min_value).ln() / log_growth).ceil() as usize + 1;
        LogHistogram {
            min_value,
            log_growth,
            counts: vec![0.0; buckets],
            underflow: 0.0,
            total: 0.0,
            sum: 0.0,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "log-ratio of validated positive bounds: `as` maps negatives to 0 and the result is min-clamped to the bucket range right after"
    )]
    #[expect(
        clippy::cast_sign_loss,
        reason = "log-ratio of validated positive bounds: `as` maps negatives to 0 and the result is min-clamped to the bucket range right after"
    )]
    fn bucket_of(&self, x: f64) -> Option<usize> {
        if x < self.min_value {
            return None;
        }
        let idx = ((x / self.min_value).ln() / self.log_growth) as usize;
        // tg-lint: allow(unsigned-sub) -- bucket tables hold at least one entry by construction and indices are min-clamped to the last bucket
        Some(idx.min(self.counts.len() - 1))
    }

    /// The representative value (geometric bucket midpoint) of bucket `idx`.
    fn bucket_value(&self, idx: usize) -> f64 {
        self.min_value * ((idx as f64 + 0.5) * self.log_growth).exp()
    }

    /// Records one observation. Non-finite or negative values are ignored;
    /// values below the histogram floor land in an underflow bucket that
    /// reports as the floor.
    #[expect(
        clippy::indexing_slicing,
        reason = "`bucket_of` returns an index already min-clamped to the last bucket"
    )]
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        match self.bucket_of(x) {
            Some(i) => self.counts[i] += 1.0,
            None => self.underflow += 1.0,
        }
        self.total += 1.0;
        self.sum += x;
    }

    /// Total (possibly decayed) observation weight.
    pub fn count(&self) -> f64 {
        self.total
    }

    /// True when nothing has been recorded (or everything decayed away).
    pub fn is_empty(&self) -> bool {
        self.total <= 0.0
    }

    /// Mean of recorded values (weighted by decay).
    pub fn mean(&self) -> f64 {
        if self.total > 0.0 {
            self.sum / self.total
        } else {
            0.0
        }
    }

    /// Multiplies all counts by `factor ∈ [0, 1]`, implementing exponential
    /// forgetting of old observations.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` lies in `[0, 1]`.
    pub fn decay(&mut self, factor: f64) {
        assert!((0.0..=1.0).contains(&factor), "factor must be in [0,1]");
        for c in &mut self.counts {
            *c *= factor;
        }
        self.underflow *= factor;
        self.total *= factor;
        self.sum *= factor;
    }

    /// Adds all observations of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics when the histograms have different bucket layouts.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket layouts differ"
        );
        assert!(
            (self.min_value - other.min_value).abs() < f64::EPSILON
                && (self.log_growth - other.log_growth).abs() < f64::EPSILON,
            "bucket layouts differ"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Clears all observations.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0.0);
        self.underflow = 0.0;
        self.total = 0.0;
        self.sum = 0.0;
    }

    /// Freezes the current contents into an immutable [`CdfSnapshot`] with
    /// `O(log B)` `cdf`/`quantile` queries (B = bucket count).
    ///
    /// The deadline estimator rebuilds snapshots periodically (the paper's
    /// background recomputation of `x_p^u(k_f)`, §III.B.2) rather than
    /// scanning the live histogram on every query.
    pub fn snapshot(&self) -> CdfSnapshot {
        let mut values = Vec::with_capacity(self.counts.len() + 1);
        let mut cumprob = Vec::with_capacity(self.counts.len() + 1);
        if self.total > 0.0 {
            let mut acc = self.underflow;
            if self.underflow > 0.0 {
                values.push(self.min_value);
                cumprob.push(acc / self.total);
            }
            for (i, c) in self.counts.iter().enumerate() {
                if *c > 0.0 {
                    acc += c;
                    values.push(self.bucket_value(i));
                    cumprob.push((acc / self.total).min(1.0));
                }
            }
            if let Some(last) = cumprob.last_mut() {
                *last = 1.0;
            }
        }
        CdfSnapshot { values, cumprob }
    }
}

/// An immutable, binary-searchable freeze of a [`LogHistogram`].
///
/// # Example
///
/// ```
/// use tailguard_dist::{Cdf, LogHistogram};
///
/// let mut h = LogHistogram::new();
/// for i in 1..=100 { h.record(i as f64); }
/// let snap = h.snapshot();
/// assert!((snap.quantile(0.5) - 50.0).abs() / 50.0 < 0.02);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CdfSnapshot {
    values: Vec<f64>,  // ascending representative values
    cumprob: Vec<f64>, // matching cumulative probabilities, last == 1
}

impl CdfSnapshot {
    /// True when the source histogram held no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of distinct populated buckets.
    pub fn len(&self) -> usize {
        self.values.len()
    }
}

impl Cdf for CdfSnapshot {
    #[expect(
        clippy::indexing_slicing,
        reason = "bucket tables hold at least one entry by construction and indices are min-clamped to the last bucket"
    )]
    fn cdf(&self, x: f64) -> f64 {
        if self.values.is_empty() || x < self.values[0] {
            return 0.0;
        }
        let idx = self.values.partition_point(|&v| v <= x);
        self.cumprob[idx - 1]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "bucket tables hold at least one entry by construction and indices are min-clamped to the last bucket"
    )]
    fn quantile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        let idx = self.cumprob.partition_point(|&c| c < p);
        // tg-lint: allow(unsigned-sub) -- bucket tables hold at least one entry by construction and indices are min-clamped to the last bucket
        self.values[idx.min(self.values.len() - 1)]
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Cdf for LogHistogram {
    fn cdf(&self, x: f64) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        if x < 0.0 {
            return 0.0;
        }
        let mut acc = self.underflow;
        if let Some(limit) = self.bucket_of(x) {
            for (i, c) in self.counts.iter().enumerate() {
                if i > limit {
                    break;
                }
                acc += c;
            }
        } else if x < self.min_value {
            // below the floor: only underflow mass counts (approximately).
            return (self.underflow / self.total).min(1.0);
        }
        (acc / self.total).min(1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if self.total <= 0.0 {
            return 0.0;
        }
        let target = p * self.total;
        let mut acc = self.underflow;
        if acc >= target && self.underflow > 0.0 {
            return self.min_value;
        }
        for (i, c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.bucket_value(i);
            }
        }
        // All mass sits below p due to rounding; return the top bucket value.
        // tg-lint: allow(unsigned-sub) -- bucket tables hold at least one entry by construction and indices are min-clamped to the last bucket
        self.bucket_value(self.counts.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distribution, Exponential, LogNormal};
    use tailguard_simcore::SimRng;

    #[test]
    fn quantiles_track_analytic_distribution() {
        let d = LogNormal::new(0.0, 0.8);
        let mut rng = SimRng::seed(1);
        let mut h = LogHistogram::new();
        for _ in 0..300_000 {
            h.record(d.sample(&mut rng));
        }
        for &p in &[0.5, 0.9, 0.99, 0.999] {
            let rel = (h.quantile(p) - d.quantile(p)).abs() / d.quantile(p);
            assert!(rel < 0.05, "p={p} rel={rel}");
        }
    }

    #[test]
    fn mean_tracks() {
        let d = Exponential::with_mean(2.0);
        let mut rng = SimRng::seed(2);
        let mut h = LogHistogram::new();
        for _ in 0..100_000 {
            h.record(d.sample(&mut rng));
        }
        assert!((h.mean() - 2.0).abs() < 0.05);
    }

    #[test]
    fn cdf_quantile_consistency() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000 {
            h.record(i as f64 / 100.0);
        }
        for &p in &[0.1, 0.5, 0.9, 0.99] {
            let q = h.quantile(p);
            assert!(h.cdf(q) >= p - 1e-9, "p={p} q={q} cdf={}", h.cdf(q));
        }
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.cdf(1.0), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn ignores_garbage_values() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(f64::INFINITY);
        assert!(h.is_empty());
    }

    #[test]
    fn underflow_values_report_floor() {
        let mut h = LogHistogram::new();
        h.record(1e-7); // below the 1e-4 floor
        assert_eq!(h.count(), 1.0);
        assert_eq!(h.quantile(0.5), LogHistogram::DEFAULT_MIN);
    }

    #[test]
    fn overflow_values_clamp_to_top_bucket() {
        let mut h = LogHistogram::with_range(0.001, 10.0, 1.05);
        h.record(1e9);
        assert!(h.quantile(1.0) >= 10.0 * 0.9);
    }

    #[test]
    fn decay_forgets_old_mode() {
        let mut h = LogHistogram::new();
        for _ in 0..1000 {
            h.record(1.0);
        }
        // New mode at 10ms; decay old mass hard each batch.
        for _ in 0..200 {
            h.decay(0.9);
            for _ in 0..10 {
                h.record(10.0);
            }
        }
        let med = h.quantile(0.5);
        assert!((med - 10.0).abs() / 10.0 < 0.05, "median {med}");
    }

    #[test]
    fn merge_combines_mass() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for _ in 0..100 {
            a.record(1.0);
            b.record(100.0);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200.0);
        let med = a.quantile(0.499);
        assert!((med - 1.0).abs() < 0.05, "median {med}");
        let p75 = a.quantile(0.75);
        assert!((p75 - 100.0).abs() / 100.0 < 0.05, "p75 {p75}");
    }

    #[test]
    #[should_panic(expected = "bucket layouts differ")]
    fn merge_rejects_mismatched_layout() {
        let mut a = LogHistogram::with_range(0.001, 10.0, 1.05);
        let b = LogHistogram::new();
        a.merge(&b);
    }

    #[test]
    fn reset_clears() {
        let mut h = LogHistogram::new();
        h.record(1.0);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.cdf(2.0), 0.0);
    }

    #[test]
    fn snapshot_matches_live_histogram() {
        let d = LogNormal::new(0.0, 0.6);
        let mut rng = SimRng::seed(21);
        let mut h = LogHistogram::new();
        for _ in 0..100_000 {
            h.record(d.sample(&mut rng));
        }
        let snap = h.snapshot();
        for &p in &[0.1, 0.5, 0.9, 0.99, 0.999] {
            let a = h.quantile(p);
            let b = snap.quantile(p);
            assert!((a - b).abs() / a < 1e-9, "p={p} live={a} snap={b}");
        }
        for &x in &[0.3, 1.0, 2.5, 6.0] {
            assert!((h.cdf(x) - snap.cdf(x)).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn empty_snapshot_benign() {
        let snap = LogHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.len(), 0);
        assert_eq!(snap.cdf(1.0), 0.0);
        assert_eq!(snap.quantile(0.99), 0.0);
    }

    #[test]
    fn snapshot_cdf_monotone() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 10.0);
        }
        let snap = h.snapshot();
        let mut last = 0.0;
        let mut x = 0.05;
        while x < 120.0 {
            let c = snap.cdf(x);
            assert!(c >= last);
            last = c;
            x *= 1.1;
        }
        assert_eq!(snap.cdf(1e6), 1.0);
    }

    #[test]
    fn relative_resolution_bound() {
        // Every recorded value must be reproduced within one growth factor.
        let mut rng = SimRng::seed(3);
        for _ in 0..200 {
            let x = 10f64.powf(rng.f64() * 8.0 - 4.0); // 1e-4 .. 1e4
            let mut h = LogHistogram::new();
            h.record(x);
            let q = h.quantile(1.0);
            assert!(
                (q / x).ln().abs() <= LogHistogram::DEFAULT_GROWTH.ln(),
                "x={x} q={q}"
            );
        }
    }
}
