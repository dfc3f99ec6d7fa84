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
// LogNormal
// ---------------------------------------------------------------------------

/// The log-normal distribution: `ln X ~ N(mu, sigma^2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal from the parameters of the underlying normal.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma` is finite and positive and `mu` is finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "mu must be finite");
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
        LogNormal { mu, sigma }
    }

    /// The `mu` parameter of the underlying normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The `sigma` parameter of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Cdf for LogNormal {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            standard_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        (self.mu + self.sigma * inverse_normal_cdf(p)).exp()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.quantile(rng.open01())
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
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

    /// The shape parameter `alpha`.
    pub fn shape(&self) -> f64 {
        self.shape
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
// Uniform
// ---------------------------------------------------------------------------

/// The continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo >= 0.0 && lo < hi, "require 0 <= lo < hi");
        Uniform { lo, hi }
    }
}

impl Cdf for Uniform {
    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.lo + (self.hi - self.lo) * p.clamp(0.0, 1.0)
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.f64()
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
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
// Shifted
// ---------------------------------------------------------------------------

/// A distribution translated right by a constant offset — models a fixed
/// component (e.g. network round-trip) on top of a random service time.
#[derive(Debug, Clone)]
pub struct Shifted<D> {
    offset: f64,
    inner: D,
}

impl<D: Distribution> Shifted<D> {
    /// Wraps `inner`, adding `offset` ms to every sample.
    ///
    /// # Panics
    ///
    /// Panics unless `offset` is finite and non-negative.
    pub fn new(offset: f64, inner: D) -> Self {
        assert!(
            offset.is_finite() && offset >= 0.0,
            "offset must be non-negative"
        );
        Shifted { offset, inner }
    }
}

impl<D: Distribution> Cdf for Shifted<D> {
    fn cdf(&self, x: f64) -> f64 {
        self.inner.cdf(x - self.offset)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.offset + self.inner.quantile(p)
    }
}

impl<D: Distribution> Distribution for Shifted<D> {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.offset + self.inner.sample(rng)
    }

    fn mean(&self) -> f64 {
        self.offset + self.inner.mean()
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
/// use tailguard_dist::{Distribution, LogNormal, Mixture};
///
/// // 97% fast requests, 3% slow outliers.
/// let m = Mixture::new(vec![
///     (0.97, Box::new(LogNormal::new(-1.5, 0.3)) as Box<dyn Distribution>),
///     (0.03, Box::new(LogNormal::new(0.7, 0.1))),
/// ]);
/// assert!(m.mean() > 0.0);
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

    /// Number of mixture components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when the mixture has no components (never: construction forbids
    /// it), provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The normalized component weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
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

// ---------------------------------------------------------------------------
// Normal helpers
// ---------------------------------------------------------------------------

/// The standard normal CDF, accurate to ~1e-7 (Abramowitz & Stegun 7.1.26).
pub(crate) fn standard_normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * x.abs() / core::f64::consts::SQRT_2);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-(x * x) / 2.0).exp();
    if x >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// The inverse standard normal CDF (Acklam's algorithm, ~1e-9 relative
/// error), refined with one Halley step against [`standard_normal_cdf`].
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1)`.
pub(crate) fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must lie strictly in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = standard_normal_cdf(x) - p;
    let u = e * (2.0 * core::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
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
    fn lognormal_mean_matches() {
        let d = LogNormal::new(-1.0, 0.5);
        let analytic = (-1.0f64 + 0.125).exp();
        assert!((d.mean() - analytic).abs() < 1e-12);
        assert!((sample_mean(&d, 200_000, 2) - analytic).abs() < 0.01 * analytic);
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
    fn uniform_basics() {
        let d = Uniform::new(1.0, 3.0);
        assert_eq!(d.mean(), 2.0);
        assert_eq!(d.quantile(0.25), 1.5);
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(5.0), 1.0);
        let mut rng = SimRng::seed(4);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((1.0..3.0).contains(&x));
        }
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
    fn shifted_adds_offset_everywhere() {
        let d = Shifted::new(1.0, Exponential::with_mean(2.0));
        assert!((d.mean() - 3.0).abs() < 1e-12);
        assert!((d.quantile(0.5) - (1.0 + 2.0 * core::f64::consts::LN_2)).abs() < 1e-12);
        assert_eq!(d.cdf(0.5), 0.0);
        let mut rng = SimRng::seed(6);
        assert!(d.sample(&mut rng) >= 1.0);
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
        assert_eq!(m.len(), 2);
        assert!((m.weights()[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mixture_cdf_and_default_quantile_agree() {
        let m = Mixture::new(vec![
            (
                0.9,
                Box::new(LogNormal::new(-1.7, 0.1)) as Box<dyn Distribution>,
            ),
            (0.1, Box::new(LogNormal::new(0.5, 0.2))),
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
    fn normal_cdf_reference_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((standard_normal_cdf(1.0) - 0.8413447461).abs() < 1e-6);
        assert!((standard_normal_cdf(-1.96) - 0.0249979).abs() < 1e-5);
        assert!((standard_normal_cdf(2.326347874) - 0.99).abs() < 1e-6);
    }

    #[test]
    fn inverse_normal_roundtrip() {
        for &p in &[0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999] {
            let x = inverse_normal_cdf(p);
            assert!(
                (standard_normal_cdf(x) - p).abs() < 1e-7,
                "p={p} x={x} cdf={}",
                standard_normal_cdf(x)
            );
        }
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
