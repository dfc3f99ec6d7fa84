//! Deterministic, splittable randomness.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seedable random-number generator with deterministic stream splitting.
///
/// Every stochastic component of a simulation (arrival process, service
/// times, fanout draws, server selection, …) should own its own `SimRng`
/// derived from the experiment's master seed via [`SimRng::split`]. That way
/// adding samples to one component never perturbs another, and any run is
/// reproducible from a single `u64`.
///
/// # Example
///
/// ```
/// use tailguard_simcore::SimRng;
///
/// let mut master = SimRng::seed(42);
/// let mut arrivals = master.split();
/// let mut services = master.split();
/// let a1 = arrivals.f64();
/// let s1 = services.f64();
///
/// // Re-creating from the same seed reproduces both streams exactly.
/// let mut master2 = SimRng::seed(42);
/// assert_eq!(master2.split().f64(), a1);
/// assert_eq!(master2.split().f64(), s1);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator. Successive calls yield
    /// distinct, deterministic streams.
    pub fn split(&mut self) -> SimRng {
        SimRng::seed(self.inner.random::<u64>())
    }

    /// A uniform sample from `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// A uniform sample from the open interval `(0, 1)`, safe as input to
    /// inverse-CDF transforms that take `ln`.
    #[inline]
    pub fn open01(&mut self) -> f64 {
        loop {
            let u = self.inner.random::<f64>();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics when `bound` is zero.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        self.inner.random_range(0..bound)
    }

    /// A uniform `u64`.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        self.inner.random::<u64>()
    }

    /// `true` with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Samples `k` distinct indices uniformly from `[0, n)`, in random order.
    ///
    /// # Panics
    ///
    /// Panics when `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        rand::seq::index::sample(&mut self.inner, n, k).into_vec()
    }

    /// [`SimRng::sample_distinct`] into a buffer the caller owns: replaces
    /// `out`'s contents with the same `k` indices the same draws give, and
    /// allocates only when `out` must grow.
    ///
    /// # Panics
    ///
    /// Panics when `k > n` or `n` exceeds `u32::MAX + 1`.
    #[inline]
    pub fn sample_distinct_into(&mut self, n: usize, k: usize, out: &mut Vec<u32>) {
        assert!(k <= n, "cannot sample {k} distinct values from {n}");
        rand::seq::index::sample_into(&mut self.inner, n, k, out);
    }

    /// Access to the underlying `rand` generator for use with external
    /// distribution adaptors.
    pub fn raw(&mut self) -> &mut impl Rng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_later_use() {
        let mut m1 = SimRng::seed(9);
        let mut c1 = m1.split();
        let _ = m1.u64(); // perturb the master afterwards
        let v1: Vec<u64> = (0..8).map(|_| c1.u64()).collect();

        let mut m2 = SimRng::seed(9);
        let mut c2 = m2.split();
        let v2: Vec<u64> = (0..8).map(|_| c2.u64()).collect();
        assert_eq!(v1, v2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn open01_never_zero() {
        let mut r = SimRng::seed(4);
        for _ in 0..10_000 {
            assert!(r.open01() > 0.0);
        }
    }

    #[test]
    fn index_bounds() {
        let mut r = SimRng::seed(5);
        for _ in 0..1_000 {
            assert!(r.index(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "index bound must be positive")]
    fn index_zero_panics() {
        SimRng::seed(0).index(0);
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut r = SimRng::seed(11);
        for _ in 0..100 {
            let mut v = r.sample_distinct(50, 10);
            assert_eq!(v.len(), 10);
            assert!(v.iter().all(|&i| i < 50));
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), 10);
        }
    }

    #[test]
    fn sample_distinct_full_population() {
        let mut r = SimRng::seed(12);
        let mut v = r.sample_distinct(5, 5);
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_distinct_into_draws_what_sample_distinct_draws() {
        let (mut a, mut b) = (SimRng::seed(15), SimRng::seed(15));
        let mut out = vec![7u32; 3]; // stale contents are replaced
        for &(n, k) in &[(100, 10), (100, 40), (5, 5), (8, 0), (1000, 3)] {
            b.sample_distinct_into(n, k, &mut out);
            let want: Vec<u32> = a.sample_distinct(n, k).iter().map(|&i| i as u32).collect();
            assert_eq!(out, want, "n={n} k={k}");
        }
        assert_eq!(a.u64(), b.u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(13);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn chance_rate_roughly_matches() {
        let mut r = SimRng::seed(14);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }
}
