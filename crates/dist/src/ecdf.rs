//! Empirical cumulative distribution functions.

use crate::Cdf;
use serde::{Deserialize, Serialize};

/// An empirical CDF built from a finite sample (ms).
///
/// This is the paper's *offline estimation process* (§III.B.2): a workload
/// trace is replayed on a single unloaded server, the task post-queuing times
/// are collected, and the resulting `Ecdf` serves as the initial
/// `F_l(t)` for every server `l`.
///
/// `quantile(p)` returns the smallest sample `x` with `cdf(x) >= p`
/// (the standard right-continuous inverse), so that the order-statistics math
/// in [`crate::order_stats`] never extrapolates past observed data.
///
/// # Example
///
/// ```
/// use tailguard_dist::{Cdf, Ecdf};
///
/// let e = Ecdf::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
/// assert_eq!(e.cdf(2.0), 0.5);
/// assert_eq!(e.quantile(0.5), 2.0);
/// assert_eq!(e.mean(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
    mean: f64,
}

impl Ecdf {
    /// Builds an ECDF from samples. Non-finite samples are dropped.
    ///
    /// # Panics
    ///
    /// Panics when no finite samples remain.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        assert!(!samples.is_empty(), "ecdf needs at least one finite sample");
        samples.sort_by(f64::total_cmp);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Ecdf {
            sorted: samples,
            mean,
        }
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Cdf for Ecdf {
    /// Fraction of samples `<= x`.
    fn cdf(&self, x: f64) -> f64 {
        // partition_point gives the count of samples <= x via strict
        // comparison on the sorted vector.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The smallest sample `q` with `cdf(q) >= p`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "rank of a [0,1]-clamped percentile over n samples: ceil result is in 0..=n, clamped before use"
    )]
    #[expect(
        clippy::cast_sign_loss,
        reason = "rank of a [0,1]-clamped percentile over n samples: ceil result is in 0..=n, clamped before use"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "guarded: `rank` is clamped to 1..=n and the empty case returns early above"
    )]
    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if p == 0.0 {
            return self.sorted[0];
        }
        // Rank ceil(p * n), 1-based; index rank-1.
        let rank = (p * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        self.sorted[idx]
    }
}

impl FromIterator<f64> for Ecdf {
    /// # Panics
    ///
    /// Panics when the iterator yields no finite samples.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Ecdf::from_samples(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_step_function() {
        let e = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(100.0), 1.0);
    }

    #[test]
    fn quantile_is_right_continuous_inverse() {
        let e = Ecdf::from_samples(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.2), 10.0);
        assert_eq!(e.quantile(0.2001), 20.0);
        assert_eq!(e.quantile(1.0), 50.0);
        // quantile(cdf(x)) == x for sample points
        for x in [10.0, 20.0, 30.0, 40.0, 50.0] {
            assert_eq!(e.quantile(e.cdf(x)), x);
        }
    }

    #[test]
    fn mean_is_the_sample_mean() {
        let e = Ecdf::from_samples(vec![2.0, 4.0, 6.0]);
        assert_eq!(e.mean(), 4.0);
    }

    #[test]
    fn drops_non_finite() {
        let e = Ecdf::from_samples(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.cdf(1.0), 0.5);
        assert_eq!(e.quantile(1.0), 2.0);
        assert_eq!(e.mean(), 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one finite sample")]
    fn empty_panics() {
        let _ = Ecdf::from_samples(vec![f64::NAN]);
    }

    #[test]
    fn from_iterator() {
        let e: Ecdf = (1..=100).map(|i| i as f64).collect();
        assert_eq!(e.cdf(50.0), 0.5);
        assert_eq!(e.quantile(0.99), 99.0);
        assert_eq!(e.quantile(0.991), 100.0);
    }

    #[test]
    fn large_sample_quantile_close_to_analytic() {
        use crate::{Distribution, Exponential};
        use tailguard_simcore::SimRng;
        let d = Exponential::with_mean(1.0);
        let mut rng = SimRng::seed(42);
        let e: Ecdf = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        for &p in &[0.5, 0.9, 0.99] {
            let rel = (e.quantile(p) - d.quantile(p)).abs() / d.quantile(p);
            assert!(rel < 0.05, "p={p} rel={rel}");
        }
    }
}
