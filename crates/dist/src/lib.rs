//! Probability toolkit for the TailGuard reproduction.
//!
//! TailGuard's task-decomposition step (paper §III.B) turns a query tail
//! latency SLO into a per-task queuing deadline using the *unloaded* task
//! response-time distributions of the task servers:
//!
//! * Eq. (1): `F_Q^u(t; k_f) = Π_k F_{n(k)}^u(t)` — the CDF of the slowest of
//!   `k_f` parallel tasks is the product of the per-server CDFs,
//! * Eq. (2): `x_p^u(k_f) = F_Q^{u,-1}(p/100)` — the unloaded query tail
//!   percentile is the inverse of that product CDF.
//!
//! This crate supplies everything those equations need:
//!
//! * [`Distribution`] — analytic service-time distributions (exponential,
//!   log-normal, Pareto, uniform, deterministic, shifted, mixtures) with
//!   exact `cdf`/`quantile`,
//! * [`Ecdf`] — empirical CDFs built from samples (the paper's offline
//!   estimation process),
//! * [`LogHistogram`] — a constant-memory streaming histogram used for the
//!   paper's *online updating process* (§III.B.2),
//! * [`order_stats`] — the fanout order-statistics solver for Eqs. (1)–(2),
//!   for both homogeneous and heterogeneous server populations.
//!
//! All values are in **milliseconds** unless stated otherwise; conversion to
//! [`tailguard_simcore::SimDuration`] happens at the workload boundary.

mod continuous;
mod ecdf;
mod histogram;
pub mod order_stats;
mod piecewise;

pub use continuous::{
    Deterministic, Distribution, DynDistribution, Exponential, LogNormal, Mixture, Pareto, Scaled,
    Shifted, Uniform,
};
pub use ecdf::Ecdf;
pub use histogram::{CdfSnapshot, LogHistogram};
pub use piecewise::{PiecewiseError, PiecewiseQuantile};

/// A cumulative distribution function over non-negative values (ms).
///
/// Implemented by every analytic [`Distribution`], by [`Ecdf`], and by
/// [`LogHistogram`], so that the order-statistics solver in [`order_stats`]
/// can combine offline estimates with online-updated ones transparently.
pub trait Cdf {
    /// `P(X <= x)`. Must be non-decreasing in `x`, `0` for `x < 0` and tend
    /// to `1` as `x → ∞`.
    fn cdf(&self, x: f64) -> f64;

    /// The smallest `x` with `cdf(x) >= p`, for `p ∈ [0, 1]`.
    ///
    /// The default implementation bisects over `cdf`; implementors with an
    /// analytic inverse should override it.
    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p == 0.0 {
            return 0.0;
        }
        // Find an upper bracket, then bisect.
        let mut hi = 1.0_f64;
        let mut iter = 0;
        while self.cdf(hi) < p {
            hi *= 2.0;
            iter += 1;
            if iter > 200 {
                return hi; // distribution never reaches p within f64 range
            }
        }
        let mut lo = 0.0_f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) >= p {
                hi = mid;
            } else {
                lo = mid;
            }
            if hi - lo <= f64::EPSILON * hi.max(1.0) {
                break;
            }
        }
        hi
    }
}
