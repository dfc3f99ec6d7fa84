//! Fanout order statistics — Eqs. (1) and (2) of the paper.
//!
//! A query with fanout `k_f` completes when its **slowest** task completes.
//! If task `k` is served by server `n(k)` whose unloaded task response time
//! has CDF `F_{n(k)}^u`, the unloaded query latency CDF is the product
//!
//! ```text
//! F_Q^u(t; k_f) = Π_{k=1..k_f} F_{n(k)}^u(t)          (Eq. 1)
//! ```
//!
//! and the unloaded `p`-th percentile query tail latency is
//!
//! ```text
//! x_p^u(k_f) = F_Q^{u,-1}(p/100)                      (Eq. 2)
//! ```
//!
//! For a homogeneous cluster (`F_l = F` for all `l`) the inverse has the
//! closed form `x_p^u(k) = F^{-1}(p^{1/k})`; for heterogeneous clusters we
//! solve the product equation by bisection.

use crate::Cdf;

/// The per-task percentile a single task must meet so that the max of `k`
/// i.i.d. tasks meets percentile `p`: `p^(1/k)`.
///
/// This is the "1 % task tail becomes a 63.4 % query tail at fanout 100"
/// arithmetic from the paper's introduction, inverted.
///
/// # Example
///
/// ```
/// let q = tailguard_dist::order_stats::per_task_percentile(0.99, 100);
/// assert!((q - 0.9999).abs() < 1e-6);
/// ```
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1]` and `k >= 1`.
pub fn per_task_percentile(p: f64, k: u32) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "p must lie in (0,1]");
    assert!(k >= 1, "fanout must be at least 1");
    p.powf(1.0 / f64::from(k))
}

/// Eq. (1): the unloaded query-latency CDF at `t` for tasks dispatched to
/// servers with the given CDFs (one entry per task; repeat a server's CDF if
/// it receives several tasks).
pub fn unloaded_query_cdf<C: Cdf + ?Sized>(server_cdfs: &[&C], t: f64) -> f64 {
    server_cdfs.iter().map(|c| c.cdf(t)).product()
}

/// Eq. (2), homogeneous case: the unloaded `p`-quantile of the slowest of
/// `k` i.i.d. tasks with common CDF `cdf`: `F^{-1}(p^{1/k})`.
///
/// # Example
///
/// ```
/// use tailguard_dist::{Exponential, order_stats};
///
/// let f = Exponential::with_mean(1.0);
/// let x1 = order_stats::homogeneous_quantile(&f, 0.99, 1);
/// let x100 = order_stats::homogeneous_quantile(&f, 0.99, 100);
/// assert!(x100 > x1); // larger fanout needs a larger latency allowance
/// ```
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1]` and `k >= 1`.
pub fn homogeneous_quantile<C: Cdf + ?Sized>(cdf: &C, p: f64, k: u32) -> f64 {
    cdf.quantile(per_task_percentile(p, k))
}

/// Eq. (2), heterogeneous case: solves `Π_i F_i(t) = p` for `t` by bisection.
///
/// `server_cdfs` holds one CDF reference per task of the query (the paper's
/// mapping `n(k)`).
///
/// Returns the smallest `t` (within `tol` relative error) whose product CDF
/// reaches `p`.
///
/// # Example
///
/// ```
/// use tailguard_dist::{Cdf, Exponential, order_stats};
///
/// let fast = Exponential::with_mean(0.5);
/// let slow = Exponential::with_mean(2.0);
/// let cdfs: Vec<&dyn Cdf> = vec![&fast, &slow];
/// let x = order_stats::heterogeneous_quantile(&cdfs, 0.99);
/// // Dominated by the slow server but strictly above its solo p99.
/// assert!(x > slow.quantile(0.99));
/// ```
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1]` and at least one CDF is supplied.
#[expect(
    clippy::cast_possible_truncation,
    reason = "server/fanout counts are far below 2^31; powi exponents stay exact"
)]
pub fn heterogeneous_quantile<C: Cdf + ?Sized>(server_cdfs: &[&C], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "p must lie in (0,1]");
    assert!(!server_cdfs.is_empty(), "need at least one server CDF");

    // Fast path: identical quantile bound gives a bracket start. Upper bound:
    // every marginal must individually reach p^(1/k) at the answer, so the
    // max of per-server quantiles at p^(1/k) is an upper bound.
    let per_task = per_task_percentile(p, server_cdfs.len() as u32);
    let mut hi = server_cdfs
        .iter()
        .map(|c| c.quantile(per_task))
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    // Guard against quantile under-reporting on discrete CDFs.
    let mut guard = 0;
    while unloaded_query_cdf(server_cdfs, hi) < p {
        hi *= 2.0;
        guard += 1;
        if guard > 100 {
            return hi;
        }
    }
    let mut lo = 0.0_f64;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if unloaded_query_cdf(server_cdfs, mid) >= p {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo <= 1e-9 * hi.max(1.0) {
            break;
        }
    }
    hi
}

/// Eq. (2) over a *multiset* of server CDFs: solves
/// `Π_i F_i(t)^{c_i} = p` for `t` by bisection, where `c_i` is the number of
/// the query's tasks dispatched to servers sharing CDF `F_i`.
///
/// This is the form the deadline estimator actually evaluates: servers in a
/// cluster share a CDF (exactly, in the homogeneous simulations; per
/// heterogeneous cluster group in the SaS testbed), so a fanout-100 query is
/// `F(t)^100` rather than a 100-element product.
///
/// # Example
///
/// ```
/// use tailguard_dist::{Cdf, Exponential, order_stats};
///
/// let f = Exponential::with_mean(1.0);
/// let grouped = order_stats::grouped_quantile(&[(&f, 100)], 0.99);
/// let hom = order_stats::homogeneous_quantile(&f, 0.99, 100);
/// assert!((grouped - hom).abs() / hom < 1e-9);
/// ```
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1]`, at least one group is supplied, and all
/// counts are positive.
#[expect(
    clippy::cast_possible_wrap,
    reason = "server/fanout counts are far below 2^31; powi exponents stay exact"
)]
pub fn grouped_quantile<C: Cdf + ?Sized>(groups: &[(&C, u32)], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "p must lie in (0,1]");
    assert!(!groups.is_empty(), "need at least one server group");
    assert!(
        groups.iter().all(|&(_, c)| c > 0),
        "group counts must be positive"
    );
    let total: u32 = groups.iter().map(|&(_, c)| c).sum();
    let product = |t: f64| -> f64 {
        groups
            .iter()
            .map(|&(c, n)| c.cdf(t).powi(n as i32))
            .product()
    };
    let per_task = per_task_percentile(p, total);
    let mut hi = groups
        .iter()
        .map(|&(c, _)| c.quantile(per_task))
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let mut guard = 0;
    while product(hi) < p {
        hi *= 2.0;
        guard += 1;
        if guard > 100 {
            return hi;
        }
    }
    let mut lo = 0.0_f64;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if product(mid) >= p {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo <= 1e-9 * hi.max(1.0) {
            break;
        }
    }
    hi
}

/// The probability that the slowest of `k` i.i.d. tasks exceeds `t`, given
/// the single-task exceedance probability `q = P(task > t)`:
/// `1 - (1 - q)^k`.
///
/// This is the paper's introduction example: `q = 0.01, k = 100` gives
/// ≈ 0.634.
///
/// # Example
///
/// ```
/// let p = tailguard_dist::order_stats::query_violation_probability(0.01, 100);
/// assert!((p - 0.634).abs() < 0.001);
/// ```
///
/// # Panics
///
/// Panics unless `q ∈ [0, 1]` and `k >= 1`.
#[expect(
    clippy::cast_possible_wrap,
    reason = "server/fanout counts are far below 2^31; powi exponents stay exact"
)]
pub fn query_violation_probability(q: f64, k: u32) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must lie in [0,1]");
    assert!(k >= 1, "fanout must be at least 1");
    1.0 - (1.0 - q).powi(k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distribution, Ecdf, Exponential, LogNormal};
    use tailguard_simcore::SimRng;

    #[test]
    fn paper_intro_example() {
        // 1% task violation at k=1 stays 1%; at k=100 it becomes 63.4%.
        assert!((query_violation_probability(0.01, 1) - 0.01).abs() < 1e-12);
        assert!((query_violation_probability(0.01, 100) - 0.634).abs() < 1e-3);
        // And the budget to bring k=100 back to 1%: per-task 0.9999.
        assert!((per_task_percentile(0.99, 100) - 0.9999).abs() < 1e-6);
        assert!((query_violation_probability(1.0 - 0.9999, 100) - 0.01).abs() < 1e-4);
    }

    #[test]
    fn homogeneous_quantile_monotone_in_fanout() {
        let f = LogNormal::new(-1.0, 0.4);
        let x1 = homogeneous_quantile(&f, 0.99, 1);
        let x10 = homogeneous_quantile(&f, 0.99, 10);
        let x100 = homogeneous_quantile(&f, 0.99, 100);
        assert!(x1 < x10 && x10 < x100);
    }

    #[test]
    fn heterogeneous_reduces_to_homogeneous() {
        let f = Exponential::with_mean(1.0);
        for k in [1usize, 5, 50] {
            let cdfs: Vec<&Exponential> = std::iter::repeat_n(&f, k).collect();
            let het = heterogeneous_quantile(&cdfs, 0.99);
            let hom = homogeneous_quantile(&f, 0.99, k as u32);
            assert!((het - hom).abs() / hom < 1e-6, "k={k} het={het} hom={hom}");
        }
    }

    #[test]
    fn heterogeneous_dominated_by_slowest() {
        let fast = Exponential::with_mean(0.1);
        let slow = Exponential::with_mean(5.0);
        let cdfs: Vec<&Exponential> = vec![&fast, &slow];
        let x = heterogeneous_quantile(&cdfs, 0.99);
        assert!(x > slow.quantile(0.99));
        assert!(x < slow.quantile(0.999));
    }

    #[test]
    fn product_cdf_matches_monte_carlo() {
        let a = Exponential::with_mean(1.0);
        let b = LogNormal::new(0.0, 0.5);
        let mut rng = SimRng::seed(10);
        let n = 200_000;
        let t = 2.5;
        let hits = (0..n)
            .filter(|_| a.sample(&mut rng).max(b.sample(&mut rng)) <= t)
            .count();
        let mc = hits as f64 / n as f64;
        let cdfs: Vec<&dyn crate::Cdf> = vec![&a, &b];
        let analytic = unloaded_query_cdf(&cdfs, t);
        assert!((mc - analytic).abs() < 0.005, "mc={mc} analytic={analytic}");
    }

    #[test]
    fn works_with_ecdfs() {
        let d = Exponential::with_mean(1.0);
        let mut rng = SimRng::seed(11);
        let e: Ecdf = (0..300_000).map(|_| d.sample(&mut rng)).collect();
        let hom = homogeneous_quantile(&e, 0.99, 10);
        let analytic = homogeneous_quantile(&d, 0.99, 10);
        assert!(
            (hom - analytic).abs() / analytic < 0.1,
            "ecdf={hom} analytic={analytic}"
        );
    }

    #[test]
    fn quantile_at_k1_is_marginal_quantile() {
        let f = Exponential::with_mean(1.0);
        assert!((homogeneous_quantile(&f, 0.95, 1) - f.quantile(0.95)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p must lie in (0,1]")]
    fn rejects_zero_percentile() {
        let f = Exponential::with_mean(1.0);
        let _ = homogeneous_quantile(&f, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "need at least one server CDF")]
    fn rejects_empty_server_list() {
        let cdfs: Vec<&Exponential> = vec![];
        let _ = heterogeneous_quantile(&cdfs, 0.99);
    }

    #[test]
    fn grouped_matches_flat_heterogeneous() {
        let fast = Exponential::with_mean(0.2);
        let slow = Exponential::with_mean(2.0);
        let grouped = grouped_quantile(&[(&fast, 3), (&slow, 2)], 0.99);
        let flat: Vec<&Exponential> = vec![&fast, &fast, &fast, &slow, &slow];
        let het = heterogeneous_quantile(&flat, 0.99);
        assert!((grouped - het).abs() / het < 1e-6);
    }

    #[test]
    fn grouped_single_group_is_homogeneous() {
        let f = LogNormal::new(-1.0, 0.3);
        for k in [1u32, 10, 100, 1000] {
            let g = grouped_quantile(&[(&f, k)], 0.99);
            let h = homogeneous_quantile(&f, 0.99, k);
            assert!((g - h).abs() / h < 1e-6, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "group counts must be positive")]
    fn grouped_rejects_zero_count() {
        let f = Exponential::with_mean(1.0);
        let _ = grouped_quantile(&[(&f, 0)], 0.99);
    }

    #[test]
    fn violation_probability_monotone_in_k() {
        let mut last = 0.0;
        for k in [1, 2, 5, 10, 100, 1000] {
            let v = query_violation_probability(0.001, k);
            assert!(v >= last);
            last = v;
        }
    }
}
