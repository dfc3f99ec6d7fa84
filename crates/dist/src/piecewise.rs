//! Piecewise-linear quantile-function distributions.

use crate::{Cdf, Distribution};
use serde::{Deserialize, Serialize};
use tailguard_simcore::SimRng;

/// A distribution defined directly by control points of its quantile
/// function `Q(p)`, linearly interpolated between them.
///
/// This is the calibration vehicle for the Tailbench workload models: the
/// paper's Table II pins down the mean task service time and the unloaded
/// 99th/99.9th/99.99th percentile tail values, and a piecewise quantile
/// function reproduces those *exactly by construction* while the remaining
/// control points shape the CDF body to match Fig. 3.
///
/// For a piecewise-linear `Q`, the mean has the closed form
/// `E[X] = ∫₀¹ Q(p) dp = Σ (p_{i+1}-p_i)·(x_i+x_{i+1})/2`, which
/// [`PiecewiseQuantile::calibrate_mean`] exploits to hit a target mean
/// analytically by moving one interior control point.
///
/// # Example
///
/// ```
/// use tailguard_dist::{Cdf, Distribution, PiecewiseQuantile};
///
/// let d = PiecewiseQuantile::new(vec![
///     (0.0, 0.1),
///     (0.5, 0.2),
///     (0.99, 0.5),
///     (1.0, 1.0),
/// ]).unwrap();
/// assert_eq!(d.quantile(0.99), 0.5);
/// assert!((d.cdf(0.5) - 0.99).abs() < 1e-12);
/// ```
#[derive(Clone)]
pub struct PiecewiseQuantile {
    points: Vec<(f64, f64)>,
    /// `guide[j]` counts the control points with `p ≤ j/GUIDE_SLOTS`, so a
    /// draw's segment search starts there and scans forward. Derived from
    /// the probabilities alone, so neither equality, `Debug` nor the
    /// serialized form carries it.
    guide: [usize; GUIDE_SLOTS + 1],
}

/// Slots in [`PiecewiseQuantile`]'s segment guide. A draw scans only the
/// control points inside its slot: at most three for the Tailbench models,
/// whose 0.99, 0.999 and 0.9999 points share the last.
const GUIDE_SLOTS: usize = 64;

impl PartialEq for PiecewiseQuantile {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

impl std::fmt::Debug for PiecewiseQuantile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PiecewiseQuantile")
            .field("points", &self.points)
            .finish()
    }
}

impl Serialize for PiecewiseQuantile {
    fn to_node(&self) -> serde::Node {
        serde::Node::Map(vec![("points".to_owned(), self.points.to_node())])
    }
}

impl Deserialize for PiecewiseQuantile {
    fn from_node(node: &serde::Node) -> Result<Self, serde::DeError> {
        let points = Vec::from_node(serde::field(node, "points")?)?;
        PiecewiseQuantile::new(points).map_err(|e| serde::DeError(e.to_string()))
    }
}

/// Error building a [`PiecewiseQuantile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PiecewiseError {
    /// Fewer than two control points were supplied.
    TooFewPoints,
    /// The first point must have `p = 0` and the last `p = 1`.
    BadEndpoints,
    /// Probabilities must be strictly increasing.
    ProbabilitiesNotIncreasing,
    /// Values must be non-negative and non-decreasing.
    ValuesNotMonotone,
    /// A value was NaN or infinite.
    NonFiniteValue,
}

impl std::fmt::Display for PiecewiseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            PiecewiseError::TooFewPoints => "need at least two control points",
            PiecewiseError::BadEndpoints => "first point must be p=0 and last p=1",
            PiecewiseError::ProbabilitiesNotIncreasing => {
                "probabilities must be strictly increasing"
            }
            PiecewiseError::ValuesNotMonotone => "values must be non-negative and non-decreasing",
            PiecewiseError::NonFiniteValue => "control points must be finite",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for PiecewiseError {}

impl PiecewiseQuantile {
    /// Builds a distribution from `(p, x)` control points.
    ///
    /// # Errors
    ///
    /// Returns a [`PiecewiseError`] when the points are not a valid quantile
    /// function: at least two points, `p` strictly increasing from exactly 0
    /// to exactly 1, `x` finite, non-negative and non-decreasing.
    #[expect(
        clippy::float_cmp,
        reason = "the endpoints are exactly 0 and 1 by documented contract"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch; `windows(2)` yields two-element slices, and `points[0]` follows the length check above"
    )]
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, PiecewiseError> {
        if points.len() < 2 {
            return Err(PiecewiseError::TooFewPoints);
        }
        // tg-lint: allow(unsigned-sub) -- control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch
        if points[0].0 != 0.0 || points[points.len() - 1].0 != 1.0 {
            return Err(PiecewiseError::BadEndpoints);
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(PiecewiseError::ProbabilitiesNotIncreasing);
            }
        }
        for &(p, x) in &points {
            if !p.is_finite() || !x.is_finite() {
                return Err(PiecewiseError::NonFiniteValue);
            }
        }
        if points[0].1 < 0.0 || points.windows(2).any(|w| w[1].1 < w[0].1) {
            return Err(PiecewiseError::ValuesNotMonotone);
        }
        let guide = std::array::from_fn(|j| {
            points.partition_point(|&(p, _)| p <= j as f64 / GUIDE_SLOTS as f64)
        });
        Ok(PiecewiseQuantile { points, guide })
    }

    /// The control points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Exact mean: `Σ (p_{i+1}-p_i)(x_i+x_{i+1})/2`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`windows(2)` yields two-element slices"
    )]
    fn exact_mean(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0)
            .sum()
    }

    /// Moves the `x` value of the interior control point at `adjust_idx` so
    /// that the distribution mean equals `target_mean` exactly, solving the
    /// (linear) mean equation in closed form.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the required value when it would violate
    /// monotonicity against the neighboring control points (i.e. the target
    /// mean is not reachable by moving this point alone).
    ///
    /// # Panics
    ///
    /// Panics when `adjust_idx` is not an interior index.
    #[expect(
        clippy::indexing_slicing,
        reason = "control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch"
    )]
    pub fn calibrate_mean(mut self, adjust_idx: usize, target_mean: f64) -> Result<Self, f64> {
        assert!(
            // tg-lint: allow(unsigned-sub) -- control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch
            adjust_idx > 0 && adjust_idx < self.points.len() - 1,
            "adjust_idx must be interior"
        );
        // mean = C + x_k * (p_{k+1} - p_{k-1}) / 2, linear in x_k.
        // tg-lint: allow(unsigned-sub) -- control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch
        let (p_prev, x_prev) = self.points[adjust_idx - 1];
        let (_, _) = self.points[adjust_idx];
        let (p_next, x_next) = self.points[adjust_idx + 1];
        let weight = (p_next - p_prev) / 2.0;
        let current = self.exact_mean();
        let x_k = self.points[adjust_idx].1;
        let needed = x_k + (target_mean - current) / weight;
        if needed < x_prev || needed > x_next {
            return Err(needed);
        }
        self.points[adjust_idx].1 = needed;
        Ok(self)
    }
}

impl PiecewiseQuantile {
    /// The anchor probabilities used by [`PiecewiseQuantile::fit`] when none
    /// are supplied: body + the tail points the TailGuard math consumes
    /// (`p^{1/k}` for k = 1, 10, 100 at p = 0.99).
    pub const DEFAULT_ANCHORS: [f64; 8] = [0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1.0];

    /// Fits a piecewise-quantile model to measured latency samples: the
    /// empirical quantiles at `anchors` become the control points (plus the
    /// sample minimum at `p = 0`).
    ///
    /// This is the calibration path for users replacing the built-in
    /// Tailbench models with their own measurements (the paper's offline
    /// estimation process, productized).
    ///
    /// # Errors
    ///
    /// Returns a [`PiecewiseError`] when no finite samples are provided or
    /// the anchors are not strictly increasing within `(0, 1]` ending at 1.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "rank is ceil'd then clamped to 1.0..=n before truncation"
    )]
    #[expect(
        clippy::cast_sign_loss,
        reason = "rank is ceil'd then clamped to 1.0..=n before truncation"
    )]
    #[expect(
        clippy::expect_used,
        reason = "is_empty is checked first in this chain; the 1.0 endpoint is exact by contract"
    )]
    #[expect(
        clippy::float_cmp,
        reason = "is_empty is checked first in this chain; the 1.0 endpoint is exact by contract"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`windows(2)` yields two-element slices; `anchors[0]` follows the `is_empty` check in the same chain, and `sorted` is non-empty after the early return above; control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch"
    )]
    pub fn fit(samples: &[f64], anchors: &[f64]) -> Result<Self, PiecewiseError> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        if sorted.is_empty() {
            return Err(PiecewiseError::TooFewPoints);
        }
        sorted.sort_by(f64::total_cmp);
        if anchors.is_empty()
            || anchors.windows(2).any(|w| w[1] <= w[0])
            || anchors[0] <= 0.0
            || *anchors.last().expect("non-empty") != 1.0
        {
            return Err(PiecewiseError::ProbabilitiesNotIncreasing);
        }
        let n = sorted.len();
        let mut points = Vec::with_capacity(anchors.len() + 1);
        points.push((0.0, sorted[0]));
        let mut last_x = sorted[0];
        for &p in anchors {
            let rank = (p * n as f64).ceil().clamp(1.0, n as f64) as usize;
            // Enforce monotone values (duplicate empirical quantiles are
            // nudged by keeping the running max).
            let x = sorted[rank - 1].max(last_x);
            last_x = x;
            points.push((p, x));
        }
        PiecewiseQuantile::new(points)
    }
}

impl Cdf for PiecewiseQuantile {
    #[expect(
        clippy::float_cmp,
        reason = "`x1 == x0` detects an exactly repeated control value; interpolating across it would divide by zero"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch"
    )]
    fn cdf(&self, x: f64) -> f64 {
        let first = self.points[0].1;
        // tg-lint: allow(unsigned-sub) -- control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch
        let last = self.points[self.points.len() - 1].1;
        if x < first {
            return 0.0;
        }
        if x >= last {
            return 1.0;
        }
        // Find the last segment whose left value is <= x.
        let mut i = self
            .points
            .partition_point(|&(_, v)| v <= x)
            .saturating_sub(1);
        // Skip flat runs: pick the right-most point with this x to keep the
        // CDF right-continuous.
        while i + 1 < self.points.len() && self.points[i + 1].1 <= x {
            i += 1;
        }
        let (p0, x0) = self.points[i];
        let (p1, x1) = self.points[i + 1];
        if x1 == x0 {
            p1
        } else {
            p0 + (p1 - p0) * (x - x0) / (x1 - x0)
        }
    }

    #[expect(
        clippy::float_cmp,
        reason = "`p1 == p0` detects an exactly repeated control probability; interpolating across it would divide by zero"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "p is clamped to [0, 1], so ⌊p·GUIDE_SLOTS⌋ lies in 0..=GUIDE_SLOTS (and a NaN casts to 0)"
    )]
    #[expect(
        clippy::cast_sign_loss,
        reason = "p is clamped to [0, 1], so ⌊p·GUIDE_SLOTS⌋ lies in 0..=GUIDE_SLOTS (and a NaN casts to 0)"
    )]
    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        // The count of points with `pp ≤ p` (what `partition_point` finds):
        // at least the guide's count at `⌊p·64⌋/64 ≤ p`, and the points
        // between are scanned.
        let mut i = self.guide[(p * GUIDE_SLOTS as f64) as usize];
        while self.points.get(i).is_some_and(|&(pp, _)| pp <= p) {
            i += 1;
        }
        // tg-lint: allow(unsigned-sub) -- control points are validated at construction (>= 2 points, endpoints pinned at p=0 and p=1) and indices are guarded/clamped by the surrounding branch
        let i = i.clamp(1, self.points.len() - 1);
        let (p0, x0) = self.points[i - 1];
        let (p1, x1) = self.points[i];
        if p1 == p0 {
            x1
        } else {
            x0 + (x1 - x0) * (p - p0) / (p1 - p0)
        }
    }
}

impl Distribution for PiecewiseQuantile {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.quantile(rng.f64())
    }

    fn mean(&self) -> f64 {
        self.exact_mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> PiecewiseQuantile {
        PiecewiseQuantile::new(vec![(0.0, 1.0), (0.5, 2.0), (1.0, 4.0)]).unwrap()
    }

    #[test]
    fn quantile_interpolates() {
        let d = simple();
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(0.25), 1.5);
        assert_eq!(d.quantile(0.5), 2.0);
        assert_eq!(d.quantile(0.75), 3.0);
        assert_eq!(d.quantile(1.0), 4.0);
    }

    #[test]
    fn cdf_inverts_quantile() {
        let d = simple();
        for &p in &[0.0, 0.1, 0.3, 0.5, 0.77, 0.999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12, "p={p}");
        }
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(4.0), 1.0);
        assert_eq!(d.cdf(100.0), 1.0);
    }

    #[test]
    fn mean_closed_form() {
        let d = simple();
        // segments: [0,0.5] avg 1.5 -> 0.75 ; [0.5,1] avg 3 -> 1.5 ; total 2.25
        assert!((d.mean() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn sample_mean_matches() {
        use tailguard_simcore::SimRng;
        let d = simple();
        let mut rng = SimRng::seed(1);
        let n = 200_000;
        let m: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((m - 2.25).abs() < 0.01);
    }

    #[test]
    fn calibrate_mean_exact() {
        let d = simple().calibrate_mean(1, 2.4).unwrap();
        assert!((d.mean() - 2.4).abs() < 1e-12);
        // quantile targets at other points untouched
        assert_eq!(d.quantile(1.0), 4.0);
        assert_eq!(d.quantile(0.0), 1.0);
    }

    #[test]
    fn calibrate_mean_infeasible_reports_needed_value() {
        let err = simple().calibrate_mean(1, 10.0).unwrap_err();
        assert!(err > 4.0);
    }

    #[test]
    fn flat_segment_cdf_right_continuous() {
        let d =
            PiecewiseQuantile::new(vec![(0.0, 1.0), (0.3, 2.0), (0.7, 2.0), (1.0, 3.0)]).unwrap();
        // Atom of mass 0.4 at x=2: cdf(2) must jump to 0.7.
        assert!((d.cdf(2.0) - 0.7).abs() < 1e-12);
        assert!((d.cdf(1.9999) - 0.3).abs() < 1e-3);
        assert_eq!(d.quantile(0.5), 2.0);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            PiecewiseQuantile::new(vec![(0.0, 1.0)]).unwrap_err(),
            PiecewiseError::TooFewPoints
        );
        assert_eq!(
            PiecewiseQuantile::new(vec![(0.1, 1.0), (1.0, 2.0)]).unwrap_err(),
            PiecewiseError::BadEndpoints
        );
        assert_eq!(
            PiecewiseQuantile::new(vec![(0.0, 1.0), (0.5, 2.0), (0.5, 3.0), (1.0, 4.0)])
                .unwrap_err(),
            PiecewiseError::ProbabilitiesNotIncreasing
        );
        assert_eq!(
            PiecewiseQuantile::new(vec![(0.0, 2.0), (1.0, 1.0)]).unwrap_err(),
            PiecewiseError::ValuesNotMonotone
        );
        assert_eq!(
            PiecewiseQuantile::new(vec![(0.0, f64::NAN), (1.0, 1.0)]).unwrap_err(),
            PiecewiseError::NonFiniteValue
        );
    }

    #[test]
    fn fit_recovers_known_distribution() {
        use crate::Distribution;
        use tailguard_simcore::SimRng;
        let truth = PiecewiseQuantile::new(vec![
            (0.0, 0.1),
            (0.5, 0.2),
            (0.9, 0.4),
            (0.99, 0.9),
            (1.0, 1.5),
        ])
        .unwrap();
        let mut rng = SimRng::seed(8);
        let samples: Vec<f64> = (0..400_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted =
            PiecewiseQuantile::fit(&samples, &PiecewiseQuantile::DEFAULT_ANCHORS).expect("fit");
        for &p in &[0.5, 0.9, 0.99] {
            let rel = (fitted.quantile(p) - truth.quantile(p)).abs() / truth.quantile(p);
            assert!(rel < 0.02, "p={p} rel={rel}");
        }
        assert!((fitted.mean() - truth.mean()).abs() / truth.mean() < 0.05);
    }

    #[test]
    fn fit_validates_inputs() {
        assert!(PiecewiseQuantile::fit(&[], &[0.5, 1.0]).is_err());
        assert!(PiecewiseQuantile::fit(&[f64::NAN], &[0.5, 1.0]).is_err());
        assert!(PiecewiseQuantile::fit(&[1.0, 2.0], &[0.9, 0.5, 1.0]).is_err());
        assert!(PiecewiseQuantile::fit(&[1.0, 2.0], &[0.5, 0.9]).is_err()); // no 1.0
        assert!(PiecewiseQuantile::fit(&[1.0, 2.0], &[]).is_err());
    }

    #[test]
    fn fit_handles_constant_samples() {
        let fitted =
            PiecewiseQuantile::fit(&[3.0; 100], &PiecewiseQuantile::DEFAULT_ANCHORS).expect("fit");
        assert_eq!(fitted.quantile(0.5), 3.0);
        assert_eq!(fitted.quantile(0.9999), 3.0);
        assert!((fitted.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_points_are_exact() {
        // The Table II calibration property: tail control points reproduce
        // exactly through quantile().
        let d = PiecewiseQuantile::new(vec![
            (0.0, 0.10),
            (0.5, 0.17),
            (0.99, 0.219),
            (0.999, 0.247),
            (0.9999, 0.473),
            (1.0, 0.70),
        ])
        .unwrap();
        assert_eq!(d.quantile(0.99), 0.219);
        assert_eq!(d.quantile(0.999), 0.247);
        assert_eq!(d.quantile(0.9999), 0.473);
    }
}
