//! Analytic service-time distributions.

use crate::Cdf;
use core::fmt;
use std::sync::Arc;
use tailguard_simcore::SimRng;

/// A continuous, non-negative distribution of task service times (ms).
///
/// All implementors provide exact sampling via inverse-transform (so a single
/// `f64` uniform draw produces one sample, keeping simulations cheap and
/// reproducible), plus analytic `cdf`, `quantile` and `mean` where they
/// exist.
///
/// # Example
///
/// ```
/// use tailguard_dist::{Cdf, Distribution, Exponential};
/// use tailguard_simcore::SimRng;
///
/// let d = Exponential::with_mean(2.0);
/// let mut rng = SimRng::seed(1);
/// let x = d.sample(&mut rng);
/// assert!(x >= 0.0);
/// assert!((d.cdf(d.quantile(0.99)) - 0.99).abs() < 1e-9);
/// ```
pub trait Distribution: Cdf + fmt::Debug + Send + Sync {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution mean.
    fn mean(&self) -> f64;
}

/// A shared, dynamically typed distribution handle.
pub type DynDistribution = Arc<dyn Distribution>;

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

/// The exponential distribution, parameterized by its mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean (ms).
    ///
    /// # Panics
    ///
    /// Panics unless `mean` is finite and positive.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential { mean }
    }
}

impl Cdf for Exponential {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-x / self.mean).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            f64::INFINITY
        } else {
            -self.mean * (1.0 - p).ln()
        }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -self.mean * rng.open01().ln()
    }

    fn mean(&self) -> f64 {
        self.mean
    }
}

// ---------------------------------------------------------------------------
// Pareto
// ---------------------------------------------------------------------------

/// The Pareto (type I) distribution with scale `x_m` and shape `alpha`.
///
/// Used by the paper (§IV.B) as a burstier alternative to Poisson
/// inter-arrival times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are finite and positive.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        assert!(shape.is_finite() && shape > 0.0, "shape must be positive");
        Pareto { scale, shape }
    }

    /// Creates a Pareto distribution with the given mean and shape
    /// `alpha > 1` (mean exists only then).
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0` and `shape > 1`.
    pub fn with_mean(mean: f64, shape: f64) -> Self {
        assert!(shape > 1.0, "mean finite only for shape > 1");
        assert!(mean > 0.0, "mean must be positive");
        Pareto::new(mean * (shape - 1.0) / shape, shape)
    }

    /// The scale parameter `x_m` (the distribution minimum).
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Cdf for Pareto {
    fn cdf(&self, x: f64) -> f64 {
        if x <= self.scale {
            0.0
        } else {
            1.0 - (self.scale / x).powf(self.shape)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            return f64::INFINITY;
        }
        self.scale * (1.0 - p).powf(-1.0 / self.shape)
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.scale * rng.open01().powf(-1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Scaled
// ---------------------------------------------------------------------------

/// A distribution divided by a positive factor — used by the testbed to
/// compress "Pi time" into wall time while preserving the shape exactly.
#[derive(Debug, Clone)]
pub struct Scaled<D> {
    inner: D,
    divisor: f64,
}

impl<D: Distribution> Scaled<D> {
    /// Wraps `inner`, dividing every sample (and quantile, and mean) by
    /// `divisor`.
    ///
    /// # Panics
    ///
    /// Panics unless `divisor` is finite and positive.
    pub fn new(inner: D, divisor: f64) -> Self {
        assert!(
            divisor.is_finite() && divisor > 0.0,
            "divisor must be positive"
        );
        Scaled { inner, divisor }
    }
}

impl<D: Distribution> Cdf for Scaled<D> {
    fn cdf(&self, x: f64) -> f64 {
        self.inner.cdf(x * self.divisor)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.inner.quantile(p) / self.divisor
    }
}

impl<D: Distribution> Distribution for Scaled<D> {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.inner.sample(rng) / self.divisor
    }

    fn mean(&self) -> f64 {
        self.inner.mean() / self.divisor
    }
}

// ---------------------------------------------------------------------------
// Deterministic
// ---------------------------------------------------------------------------

/// A point mass: every sample equals `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a point mass at `value` (ms).
    ///
    /// # Panics
    ///
    /// Panics unless `value` is finite and non-negative.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "value must be non-negative"
        );
        Deterministic { value }
    }
}

impl Cdf for Deterministic {
    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }

    fn quantile(&self, _p: f64) -> f64 {
        self.value
    }
}

impl Distribution for Deterministic {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }
}

// ---------------------------------------------------------------------------
// Mixture
// ---------------------------------------------------------------------------

/// A finite mixture of distributions — the calibration workhorse for the
/// bimodal Tailbench workloads (fast common path + slow tail mode).
///
/// # Example
///
/// ```
/// use tailguard_dist::{Distribution, Exponential, Mixture};
///
/// // 97% fast requests, 3% slow outliers.
/// let m = Mixture::new(vec![
///     (0.97, Box::new(Exponential::with_mean(0.2)) as Box<dyn Distribution>),
///     (0.03, Box::new(Exponential::with_mean(2.0))),
/// ]);
/// assert!((m.mean() - (0.97 * 0.2 + 0.03 * 2.0)).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct Mixture {
    weights: Vec<f64>,
    cumulative: Vec<f64>,
    components: Vec<Box<dyn Distribution>>,
}

impl Mixture {
    /// Creates a mixture from `(weight, component)` pairs. Weights are
    /// normalized to sum to one.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty or any weight is negative/non-finite or
    /// all weights are zero.
    pub fn new(parts: Vec<(f64, Box<dyn Distribution>)>) -> Self {
        assert!(!parts.is_empty(), "mixture needs at least one component");
        let total: f64 = parts.iter().map(|(w, _)| *w).sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive value"
        );
        assert!(
            parts.iter().all(|(w, _)| w.is_finite() && *w >= 0.0),
            "weights must be non-negative"
        );
        let mut weights = Vec::with_capacity(parts.len());
        let mut cumulative = Vec::with_capacity(parts.len());
        let mut components = Vec::with_capacity(parts.len());
        let mut acc = 0.0;
        for (w, c) in parts {
            let w = w / total;
            acc += w;
            weights.push(w);
            cumulative.push(acc);
            components.push(c);
        }
        // Guard against accumulated rounding.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Mixture {
            weights,
            cumulative,
            components,
        }
    }
}

impl Cdf for Mixture {
    fn cdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.cdf(x))
            .sum()
    }
    // quantile: default bisection from the Cdf trait (no closed form).
}

impl Distribution for Mixture {
    #[expect(
        clippy::indexing_slicing,
        reason = "mixture components are validated non-empty at construction"
    )]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.f64();
        let idx = match self.cumulative.iter().position(|&c| u < c) {
            Some(i) => i,
            // tg-lint: allow(unsigned-sub) -- mixture components are validated non-empty at construction
            None => self.components.len() - 1,
        };
        self.components[idx].sample(rng)
    }

    fn mean(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, c)| w * c.mean())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &dyn Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_and_quantile() {
        let d = Exponential::with_mean(2.0);
        assert!((sample_mean(&d, 200_000, 1) - 2.0).abs() < 0.02);
        assert!((d.quantile(0.5) - 2.0 * core::f64::consts::LN_2).abs() < 1e-12);
        assert!((d.cdf(d.quantile(0.99)) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn pareto_mean_and_tail() {
        let d = Pareto::with_mean(1.0, 1.5);
        assert!((d.mean() - 1.0).abs() < 1e-12);
        // Pareto is heavy-tailed: p99.9 much larger than mean.
        assert!(d.quantile(0.999) > 20.0);
        let sm = sample_mean(&d, 2_000_000, 3);
        assert!((sm - 1.0).abs() < 0.2, "heavy tail sample mean {sm}");
    }

    #[test]
    fn pareto_cdf_quantile_roundtrip() {
        let d = Pareto::new(0.5, 2.5);
        for &p in &[0.1, 0.5, 0.9, 0.99, 0.9999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn scaled_divides_consistently() {
        let s = Scaled::new(Exponential::with_mean(10.0), 4.0);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.quantile(0.9) - Exponential::with_mean(10.0).quantile(0.9) / 4.0).abs() < 1e-12);
        assert!((s.cdf(2.5) - Exponential::with_mean(10.0).cdf(10.0)).abs() < 1e-12);
        let mut rng = SimRng::seed(9);
        let m = (0..100_000).map(|_| s.sample(&mut rng)).sum::<f64>() / 100_000.0;
        assert!((m - 2.5).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "divisor must be positive")]
    fn scaled_rejects_zero() {
        let _ = Scaled::new(Exponential::with_mean(1.0), 0.0);
    }

    #[test]
    fn deterministic_is_a_point_mass() {
        let d = Deterministic::new(1.5);
        let mut rng = SimRng::seed(5);
        assert_eq!(d.sample(&mut rng), 1.5);
        assert_eq!(d.quantile(0.01), 1.5);
        assert_eq!(d.quantile(0.99), 1.5);
        assert_eq!(d.cdf(1.4), 0.0);
        assert_eq!(d.cdf(1.5), 1.0);
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let m = Mixture::new(vec![
            (
                3.0,
                Box::new(Deterministic::new(1.0)) as Box<dyn Distribution>,
            ),
            (1.0, Box::new(Deterministic::new(5.0))),
        ]);
        assert!((m.mean() - 2.0).abs() < 1e-12);
        assert!((m.cdf(1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mixture_cdf_and_default_quantile_agree() {
        let m = Mixture::new(vec![
            (
                0.9,
                Box::new(Exponential::with_mean(0.2)) as Box<dyn Distribution>,
            ),
            (0.1, Box::new(Exponential::with_mean(2.0))),
        ]);
        for &p in &[0.1, 0.5, 0.9, 0.99, 0.9999] {
            let q = m.quantile(p);
            assert!(
                (m.cdf(q) - p).abs() < 1e-6,
                "p={p}, q={q}, cdf={}",
                m.cdf(q)
            );
        }
    }

    #[test]
    fn mixture_sampling_matches_weights() {
        let m = Mixture::new(vec![
            (
                0.8,
                Box::new(Deterministic::new(1.0)) as Box<dyn Distribution>,
            ),
            (0.2, Box::new(Deterministic::new(2.0))),
        ]);
        let mut rng = SimRng::seed(7);
        let n = 100_000;
        let ones = (0..n).filter(|_| m.sample(&mut rng) == 1.0).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_mixture_panics() {
        let _ = Mixture::new(vec![]);
    }

    #[test]
    fn cdf_default_quantile_bisection_works() {
        // Use a type whose quantile comes from the trait default.
        struct Weird;
        impl fmt::Debug for Weird {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "Weird")
            }
        }
        impl Cdf for Weird {
            fn cdf(&self, x: f64) -> f64 {
                // CDF of Exp(mean=3) computed oddly.
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-x / 3.0).exp()
                }
            }
        }
        let w = Weird;
        let exact = Exponential::with_mean(3.0);
        for &p in &[0.1, 0.5, 0.99] {
            assert!((w.quantile(p) - exact.quantile(p)).abs() < 1e-9);
        }
        assert_eq!(w.quantile(0.0), 0.0);
    }
}
