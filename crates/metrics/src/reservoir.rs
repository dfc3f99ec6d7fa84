//! Exact-percentile latency reservoirs.

use serde::{Deserialize, Serialize};
use std::fmt;
use tailguard_simcore::SimDuration;

/// The nearest rank of the `p`-quantile among `n` sorted samples: `⌈p·n⌉`
/// with `p` clamped to `[0, 1]` and the rank to `1..=n` (0 when `n` is 0).
/// [`LatencyReservoir::percentile`] reads the sample at this rank.
///
/// `n − nearest_rank(p, n)`, the samples ranked above the quantile, never
/// decreases as `n` grows. So once more than `N − nearest_rank(p, N)` of at
/// most `N` samples exceed a bound, the final quantile exceeds it too,
/// however many samples end up recorded.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the ceiling of p·n with p in [0, 1] lies in 0..=n, so the cast is exact"
)]
#[expect(
    clippy::cast_sign_loss,
    reason = "the ceiling of p·n with p in [0, 1] lies in 0..=n, so the cast is exact"
)]
pub fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.max(1).min(n)
}

/// A reservoir of latency samples with exact percentile queries.
///
/// The paper's conclusions hinge on 99th-percentile comparisons between
/// queuing policies, sometimes for query types that make up < 1 % of
/// traffic; approximate sketches would blur exactly the signal under study,
/// so the reservoir keeps every sample and sorts lazily on the first
/// percentile query after an insert.
///
/// Samples live in three tiers, ordered by construction: a count of zero
/// samples (a task that finds its server idle waits exactly 0 ns, about
/// `1 − ρ` of all pre-dequeue waits), 4 bytes each for samples in
/// `1..2³²` ns (up to 4.29 s, far past any SLO the paper studies), and 8
/// bytes each for longer ones. Every zero ranks below every
/// 4-byte sample and every 4-byte sample below every 8-byte one, so the
/// sorted tiers read in turn are the sorted samples.
///
/// # Example
///
/// ```
/// use tailguard_metrics::LatencyReservoir;
/// use tailguard_simcore::SimDuration;
///
/// let mut r = LatencyReservoir::new();
/// for ms in 1..=100 {
///     r.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(r.percentile(0.99), SimDuration::from_millis(99));
/// assert_eq!(r.len(), 100);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyReservoir {
    /// Samples of exactly 0 ns.
    zeros: usize,
    /// Samples in `1..2³²` ns.
    small: Vec<u32>,
    /// Samples of at least 2³² ns.
    large: Vec<u64>,
    /// Whether a record since the last sort may have left `small` or
    /// `large` out of ascending order.
    unsorted: bool,
    sum: u128,
}

impl LatencyReservoir {
    /// Creates an empty reservoir.
    pub fn new() -> Self {
        LatencyReservoir::default()
    }

    /// Records one latency sample.
    /// `d` is a virtual-time duration (nanosecond domain).
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        match u32::try_from(ns) {
            Ok(0) => self.zeros += 1,
            Ok(small) => {
                self.small.push(small);
                self.unsorted = true;
            }
            Err(_) => {
                self.large.push(ns);
                self.unsorted = true;
            }
        }
        self.sum += u128::from(ns);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.zeros + self.small.len() + self.large.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The exact `p`-quantile (`p ∈ [0, 1]`) using the nearest-rank method
    /// (rank `⌈p·n⌉`) — the same convention as `tailguard_dist::Ecdf`.
    ///
    /// Returns [`SimDuration::ZERO`] on an empty reservoir.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        let n = self.len();
        if n == 0 {
            return SimDuration::ZERO;
        }
        self.ensure_sorted();
        // Ranks 1..=zeros are the zeros, the next ones the 4-byte tier.
        let rank = nearest_rank(p, n);
        let Some(i) = rank.checked_sub(self.zeros + 1) else {
            return SimDuration::ZERO;
        };
        let ns = match self.small.get(i) {
            Some(&ns) => u64::from(ns),
            None => self
                .large
                .get(i.saturating_sub(self.small.len()))
                .copied()
                .unwrap_or_default(),
        };
        SimDuration::from_nanos(ns)
    }

    /// Arithmetic mean of the samples ([`SimDuration::ZERO`] when empty).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "guarded by the is_empty() early return above; a mean of u64 ns samples fits u64"
    )]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "guarded by the is_empty() early return above; a mean of u64 ns samples fits u64"
    )]
    pub fn mean(&self) -> SimDuration {
        if self.is_empty() {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum / self.len() as u128) as u64)
    }

    /// Largest sample ([`SimDuration::ZERO`] when empty).
    pub fn max(&mut self) -> SimDuration {
        self.ensure_sorted();
        let ns = match (self.large.last(), self.small.last()) {
            (Some(&ns), _) => ns,
            (None, Some(&ns)) => u64::from(ns),
            (None, None) => 0,
        };
        SimDuration::from_nanos(ns)
    }

    /// Smallest sample ([`SimDuration::ZERO`] when empty).
    pub fn min(&mut self) -> SimDuration {
        self.ensure_sorted();
        let ns = match (self.zeros, self.small.first(), self.large.first()) {
            (1.., _, _) => 0,
            (0, Some(&ns), _) => u64::from(ns),
            (0, None, Some(&ns)) => ns,
            (0, None, None) => 0,
        };
        SimDuration::from_nanos(ns)
    }

    /// Fraction of samples strictly greater than `threshold` — the measured
    /// SLO violation rate.
    pub fn exceed_ratio(&self, threshold: SimDuration) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let t = threshold.as_nanos();
        // No zero exceeds a threshold, and every 8-byte sample exceeds one
        // that fits the 4-byte tier.
        let over = match u32::try_from(t) {
            Ok(t) => self.small.iter().filter(|&&s| s > t).count() + self.large.len(),
            Err(_) => self.large.iter().filter(|&&s| s > t).count(),
        };
        over as f64 / self.len() as f64
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        self.zeros = 0;
        self.small.clear();
        self.large.clear();
        self.unsorted = false;
        self.sum = 0;
    }

    /// Absorbs all samples of `other`.
    pub fn merge(&mut self, other: &LatencyReservoir) {
        self.zeros += other.zeros;
        self.small.extend_from_slice(&other.small);
        self.large.extend_from_slice(&other.large);
        self.unsorted = true;
        self.sum += other.sum;
    }

    /// Produces a compact summary row of the current contents.
    pub fn summary(&mut self) -> LatencySummary {
        LatencySummary {
            count: self.len() as u64,
            mean: self.mean(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            max: self.max(),
        }
    }

    /// The samples in ascending order. Sorts the reservoir first, so its
    /// `Debug` form afterwards depends only on the samples it holds.
    pub fn ascending(&mut self) -> impl Iterator<Item = SimDuration> + '_ {
        self.ensure_sorted();
        std::iter::repeat_n(0, self.zeros)
            .chain(self.small.iter().map(|&ns| u64::from(ns)))
            .chain(self.large.iter().copied())
            .map(SimDuration::from_nanos)
    }

    fn ensure_sorted(&mut self) {
        if self.unsorted {
            self.small.sort_unstable();
            self.large.sort_unstable();
            self.unsorted = false;
        }
    }
}

impl Extend<SimDuration> for LatencyReservoir {
    fn extend<I: IntoIterator<Item = SimDuration>>(&mut self, iter: I) {
        for d in iter {
            self.record(d);
        }
    }
}

impl FromIterator<SimDuration> for LatencyReservoir {
    fn from_iter<I: IntoIterator<Item = SimDuration>>(iter: I) -> Self {
        let mut r = LatencyReservoir::new();
        r.extend(iter);
        r
    }
}

/// A compact one-line latency summary (count, mean, p50/p95/p99, max).
///
/// `Display` renders the durations in milliseconds, ready for the experiment
/// tables printed by the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Mean latency.
    pub mean: SimDuration,
    /// Median latency.
    pub p50: SimDuration,
    /// 95th percentile latency.
    pub p95: SimDuration,
    /// 99th percentile latency.
    pub p99: SimDuration,
    /// Maximum latency.
    pub max: SimDuration,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={:<9} mean={:>9.3}ms p50={:>9.3}ms p95={:>9.3}ms p99={:>9.3}ms max={:>9.3}ms",
            self.count,
            self.mean.as_millis_f64(),
            self.p50.as_millis_f64(),
            self.p95.as_millis_f64(),
            self.p99.as_millis_f64(),
            self.max.as_millis_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut r: LatencyReservoir = (1..=10).map(ms).collect();
        assert_eq!(r.percentile(0.0), ms(1));
        assert_eq!(r.percentile(0.1), ms(1));
        assert_eq!(r.percentile(0.11), ms(2));
        assert_eq!(r.percentile(0.5), ms(5));
        assert_eq!(r.percentile(0.99), ms(10));
        assert_eq!(r.percentile(1.0), ms(10));
    }

    #[test]
    fn samples_above_the_rank_never_decrease_with_n() {
        for p in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let mut above = 0;
            for n in 1..=1_000_000 {
                let rank = nearest_rank(p, n);
                assert!((1..=n).contains(&rank), "p {p} n {n}: rank {rank}");
                assert!(n - rank >= above, "p {p}: n − rank fell at n = {n}");
                above = n - rank;
            }
        }
        assert_eq!(nearest_rank(0.99, 0), 0);
    }

    #[test]
    fn empty_reservoir_is_benign() {
        let mut r = LatencyReservoir::new();
        assert!(r.is_empty());
        assert_eq!(r.percentile(0.99), SimDuration::ZERO);
        assert_eq!(r.mean(), SimDuration::ZERO);
        assert_eq!(r.max(), SimDuration::ZERO);
        assert_eq!(r.min(), SimDuration::ZERO);
        assert_eq!(r.exceed_ratio(ms(1)), 0.0);
    }

    #[test]
    fn mean_is_exact() {
        let r: LatencyReservoir = [2, 4, 6, 8].into_iter().map(ms).collect();
        assert_eq!(r.mean(), ms(5));
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut r = LatencyReservoir::new();
        r.record(ms(5));
        assert_eq!(r.percentile(0.5), ms(5));
        r.record(ms(1));
        assert_eq!(r.percentile(0.5), ms(1));
        r.record(ms(9));
        assert_eq!(r.percentile(0.5), ms(5));
        assert_eq!(r.min(), ms(1));
        assert_eq!(r.max(), ms(9));
    }

    #[test]
    fn exceed_ratio_counts_strictly_greater() {
        let r: LatencyReservoir = (1..=100).map(ms).collect();
        assert_eq!(r.exceed_ratio(ms(99)), 0.01);
        assert_eq!(r.exceed_ratio(ms(100)), 0.0);
        assert_eq!(r.exceed_ratio(ms(0)), 1.0);
    }

    #[test]
    fn merge_combines() {
        let mut a: LatencyReservoir = (1..=50).map(ms).collect();
        let b: LatencyReservoir = (51..=100).map(ms).collect();
        a.merge(&b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.percentile(0.99), ms(99));
        assert_eq!(a.mean(), SimDuration::from_micros(50_500));
    }

    #[test]
    fn clear_resets() {
        let mut r: LatencyReservoir = (1..=3).map(ms).collect();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.mean(), SimDuration::ZERO);
    }

    #[test]
    fn summary_fields_consistent() {
        let mut r: LatencyReservoir = (1..=100).map(ms).collect();
        let s = r.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, ms(50));
        assert_eq!(s.p95, ms(95));
        assert_eq!(s.p99, ms(99));
        assert_eq!(s.max, ms(100));
        let line = s.to_string();
        assert!(line.contains("n=100"));
        assert!(line.contains("p99="));
    }

    #[test]
    fn samples_below_2_32_ns_take_4_bytes_and_zeros_none() {
        let mut r = LatencyReservoir::new();
        for _ in 0..10_000 {
            r.record(SimDuration::ZERO);
        }
        assert_eq!((r.small.capacity(), r.large.capacity()), (0, 0));
        let n = 100_000;
        for i in 1..=n {
            r.record(SimDuration::from_nanos(i * 42_000)); // up to 4.2e9 < 2³²
        }
        let heap_bytes = r.small.capacity() * std::mem::size_of_val(&r.small[0])
            + r.large.capacity() * std::mem::size_of::<u64>();
        assert!(heap_bytes <= 4 * r.small.capacity());
        assert_eq!(r.len(), n as usize + 10_000);
    }

    #[test]
    fn ascending_is_sorted() {
        let mut r: LatencyReservoir = [5, 1, 4, 2, 3].into_iter().map(ms).collect();
        let s: Vec<SimDuration> = r.ascending().collect();
        assert_eq!(s, (1..=5).map(ms).collect::<Vec<_>>());
    }
}
