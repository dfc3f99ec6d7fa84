//! Query fanout distributions.

use serde::{Deserialize, Serialize};
use tailguard_simcore::SimRng;

/// A discrete distribution over query fanouts `k_f`.
///
/// The paper's main simulation mix (§IV.B) uses fanouts {1, 10, 100} with
/// probability *inversely proportional to the fanout* — P(1)=100/111,
/// P(10)=10/111, P(100)=1/111 — so that each fanout type contributes the
/// same expected number of tasks, mirroring the Facebook observation that
/// small fanouts dominate query counts.
///
/// # Example
///
/// ```
/// use tailguard_workload::FanoutDist;
/// use tailguard_simcore::SimRng;
///
/// let d = FanoutDist::paper_mix();
/// let mut rng = SimRng::seed(1);
/// let k = d.sample(&mut rng);
/// assert!(k == 1 || k == 10 || k == 100);
/// assert!((d.mean() - 300.0 / 111.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FanoutDist {
    fanouts: Vec<u32>,
    cumulative: Vec<f64>,
    mean: f64,
}

impl FanoutDist {
    /// Builds a fanout distribution from `(fanout, weight)` pairs; weights
    /// are normalized.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is empty, any fanout is zero, any weight is
    /// negative or non-finite, or all weights are zero.
    pub fn new(entries: Vec<(u32, f64)>) -> Self {
        assert!(!entries.is_empty(), "need at least one fanout");
        assert!(
            entries.iter().all(|&(k, _)| k >= 1),
            "fanouts must be at least 1"
        );
        assert!(
            entries.iter().all(|&(_, w)| w.is_finite() && w >= 0.0),
            "weights must be non-negative"
        );
        let total: f64 = entries.iter().map(|&(_, w)| w).sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut fanouts = Vec::with_capacity(entries.len());
        let mut cumulative = Vec::with_capacity(entries.len());
        let mut acc = 0.0;
        let mut mean = 0.0;
        for (k, w) in &entries {
            let p = w / total;
            acc += p;
            mean += f64::from(*k) * p;
            fanouts.push(*k);
            cumulative.push(acc);
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        FanoutDist {
            fanouts,
            cumulative,
            mean,
        }
    }

    /// The paper's §IV.B mix: fanouts {1, 10, 100} with P(k) ∝ 1/k.
    pub fn paper_mix() -> Self {
        FanoutDist::new(vec![(1, 100.0), (10, 10.0), (100, 1.0)])
    }

    /// A scaled variant of the paper mix for arbitrary cluster sizes:
    /// fanouts {1, N/10, N} with P(k) ∝ 1/k (used by the N=1000 extension
    /// experiment).
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a positive multiple of 10.
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "a literal non-zero divisor; `n` is asserted a positive multiple of 10 above"
    )]
    pub fn paper_mix_scaled(n: u32) -> Self {
        assert!(
            n >= 10 && n.is_multiple_of(10),
            "n must be a positive multiple of 10"
        );
        FanoutDist::new(vec![(1, f64::from(n)), (n / 10, 10.0), (n, 1.0)])
    }

    /// Every query fans out to exactly `k` tasks (the OLDI case of §IV.C,
    /// where each query touches every server).
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero.
    pub fn fixed(k: u32) -> Self {
        FanoutDist::new(vec![(k, 1.0)])
    }

    /// A Facebook-like distribution: `P(k) ∝ 1/k` over `1..=max_fanout`,
    /// yielding roughly 60–65 % of queries with fanout below 20 for
    /// `max_fanout = 300` (§II.A cites 65 % under 20).
    ///
    /// # Panics
    ///
    /// Panics when `max_fanout` is zero.
    pub fn facebook_like(max_fanout: u32) -> Self {
        assert!(max_fanout >= 1, "max_fanout must be at least 1");
        let entries = (1..=max_fanout).map(|k| (k, 1.0 / f64::from(k))).collect();
        FanoutDist::new(entries)
    }

    /// Draws a fanout.
    #[expect(
        clippy::indexing_slicing,
        reason = "fanout/cumulative tables are built in lockstep by the validated constructor; indices are min-clamped to the last entry"
    )]
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        let u = rng.f64();
        let idx = self
            .cumulative
            .partition_point(|&c| c <= u)
            // tg-lint: allow(unsigned-sub) -- fanout/cumulative tables are built in lockstep by the validated constructor; indices are min-clamped to the last entry
            .min(self.fanouts.len() - 1);
        self.fanouts[idx]
    }

    /// Expected fanout `E[k_f]` — the factor converting query rate to task
    /// rate in the load formula `ρ = λ·E[k_f]·T_m/N`.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distinct fanout values, ascending as supplied.
    pub fn support(&self) -> &[u32] {
        &self.fanouts
    }

    /// The largest possible fanout.
    #[expect(
        clippy::expect_used,
        reason = "the constructor asserts at least one fanout entry"
    )]
    pub fn max_fanout(&self) -> u32 {
        *self.fanouts.iter().max().expect("non-empty")
    }

    /// The probability of drawing `k`.
    #[expect(
        clippy::indexing_slicing,
        reason = "fanout/cumulative tables are built in lockstep by the validated constructor; indices are min-clamped to the last entry"
    )]
    pub fn probability_of(&self, k: u32) -> f64 {
        let mut prev = 0.0;
        for (i, &f) in self.fanouts.iter().enumerate() {
            let p = self.cumulative[i] - prev;
            if f == k {
                return p;
            }
            prev = self.cumulative[i];
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_probabilities() {
        let d = FanoutDist::paper_mix();
        assert!((d.probability_of(1) - 100.0 / 111.0).abs() < 1e-12);
        assert!((d.probability_of(10) - 10.0 / 111.0).abs() < 1e-12);
        assert!((d.probability_of(100) - 1.0 / 111.0).abs() < 1e-12);
        assert_eq!(d.probability_of(7), 0.0);
        assert_eq!(d.max_fanout(), 100);
    }

    #[test]
    fn paper_mix_equalizes_task_mass() {
        // Each type contributes ~1/3 of tasks: k * P(k) equal across types.
        let d = FanoutDist::paper_mix();
        let masses: Vec<f64> = [1u32, 10, 100]
            .iter()
            .map(|&k| f64::from(k) * d.probability_of(k))
            .collect();
        assert!((masses[0] - masses[1]).abs() < 1e-12);
        assert!((masses[1] - masses[2]).abs() < 1e-12);
    }

    #[test]
    fn sampling_frequencies_match() {
        let d = FanoutDist::paper_mix();
        let mut rng = SimRng::seed(1);
        let n = 500_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(d.sample(&mut rng)).or_insert(0u64) += 1;
        }
        for &k in &[1u32, 10, 100] {
            let freq = counts[&k] as f64 / n as f64;
            let expect = d.probability_of(k);
            assert!((freq - expect).abs() < 0.005, "k={k} freq={freq}");
        }
    }

    #[test]
    fn fixed_always_returns_k() {
        let d = FanoutDist::fixed(32);
        let mut rng = SimRng::seed(2);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 32);
        }
        assert_eq!(d.mean(), 32.0);
    }

    #[test]
    fn facebook_like_mostly_small() {
        let d = FanoutDist::facebook_like(300);
        let under20: f64 = (1..20).map(|k| d.probability_of(k)).sum();
        assert!(under20 > 0.5, "under20 = {under20}");
        assert_eq!(d.support().len(), 300);
    }

    #[test]
    fn scaled_mix_shape() {
        let d = FanoutDist::paper_mix_scaled(1000);
        assert_eq!(d.support(), &[1, 100, 1000]);
        // P(k) ∝ 1/k relationship preserved.
        let p1 = d.probability_of(1);
        let p1000 = d.probability_of(1000);
        assert!((p1 / p1000 - 1000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "fanouts must be at least 1")]
    fn zero_fanout_rejected() {
        let _ = FanoutDist::new(vec![(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "weights must not all be zero")]
    fn zero_weights_rejected() {
        let _ = FanoutDist::new(vec![(1, 0.0)]);
    }

    #[test]
    fn mean_formula() {
        let d = FanoutDist::new(vec![(2, 1.0), (4, 1.0)]);
        assert_eq!(d.mean(), 3.0);
    }
}
