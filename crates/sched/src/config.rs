//! Shared configuration types: service classes, clusters, admission control.
//!
//! These types used to live in the simulator crate; they moved here so the
//! simulator and the tokio testbed configure the *same* scheduling core.

use std::fmt;
use std::sync::Arc;
use tailguard_dist::{Distribution, DynDistribution};
use tailguard_simcore::SimDuration;

/// A service class: a tail-latency SLO at a percentile.
///
/// The paper expresses SLOs as "the `p`-th percentile query latency must not
/// exceed `x_p^SLO`"; the evaluation uses `p = 99` throughout.
///
/// # Example
///
/// ```
/// use tailguard_sched::ClassSpec;
/// use tailguard_simcore::SimDuration;
///
/// let class = ClassSpec::p99(SimDuration::from_millis_f64(1.0));
/// assert_eq!(class.percentile, 0.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSpec {
    /// The tail latency SLO `x_p^SLO`.
    pub slo: SimDuration,
    /// The percentile `p` as a fraction in (0, 1), e.g. `0.99`.
    pub percentile: f64,
}

impl ClassSpec {
    /// Creates a class SLO.
    ///
    /// # Panics
    ///
    /// Panics unless `percentile ∈ (0, 1)` and the SLO is positive.
    /// `slo` is a virtual-time duration (nanosecond domain).
    pub fn new(slo: SimDuration, percentile: f64) -> Self {
        assert!(
            percentile > 0.0 && percentile < 1.0,
            "percentile must lie in (0,1)"
        );
        assert!(!slo.is_zero(), "SLO must be positive");
        ClassSpec { slo, percentile }
    }

    /// A 99th-percentile SLO — the paper's standard setting.
    /// `slo` is a virtual-time duration (nanosecond domain).
    pub fn p99(slo: SimDuration) -> Self {
        ClassSpec::new(slo, 0.99)
    }

    /// This class's SLO scaled by `factor` (e.g. the paper's lower class at
    /// `1.5 × x99`).
    pub fn scaled(&self, factor: f64) -> Self {
        ClassSpec::new(self.slo.mul_f64(factor), self.percentile)
    }
}

/// The task-server cluster: size and per-server unloaded service-time
/// distributions.
#[derive(Clone)]
pub struct ClusterSpec {
    servers: usize,
    service: Vec<DynDistribution>,
}

impl fmt::Debug for ClusterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSpec")
            .field("servers", &self.servers)
            .field("heterogeneous", &(self.service.len() > 1))
            .finish()
    }
}

impl ClusterSpec {
    /// A homogeneous cluster: `n` servers sharing one service distribution
    /// (the paper's simulation setting, §IV.A).
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn homogeneous(n: usize, service: impl Distribution + 'static) -> Self {
        assert!(n > 0, "cluster needs at least one server");
        ClusterSpec {
            servers: n,
            service: vec![Arc::new(service)],
        }
    }

    /// A heterogeneous cluster with one distribution per server (the SaS
    /// testbed setting, §IV.E).
    ///
    /// # Panics
    ///
    /// Panics when `dists` is empty.
    pub fn heterogeneous(dists: Vec<DynDistribution>) -> Self {
        assert!(!dists.is_empty(), "cluster needs at least one server");
        ClusterSpec {
            servers: dists.len(),
            service: dists,
        }
    }

    /// Number of task servers `N`.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The service distribution of server `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= servers()`.
    #[expect(
        clippy::indexing_slicing,
        reason = "asserted `i < servers` above; `service` holds 1 or `servers` entries by construction"
    )]
    pub fn service_of(&self, i: usize) -> &DynDistribution {
        assert!(i < self.servers, "server index out of range");
        if self.service.len() == 1 {
            &self.service[0]
        } else {
            &self.service[i]
        }
    }

    /// The longest task service time any server can draw, in ms: the
    /// largest `quantile(1.0)` over the servers' distributions (infinite
    /// for an unbounded one).
    pub fn max_service_ms(&self) -> f64 {
        self.service
            .iter()
            .map(|d| d.quantile(1.0))
            .fold(0.0, f64::max)
    }

    /// Mean task service time averaged over servers, in ms.
    #[expect(
        clippy::indexing_slicing,
        reason = "`service` holds 1 or `servers` entries by construction; this branch has exactly one"
    )]
    pub fn mean_service_ms(&self) -> f64 {
        if self.service.len() == 1 {
            self.service[0].mean()
        } else {
            self.service.iter().map(|d| d.mean()).sum::<f64>() / self.service.len() as f64
        }
    }
}

/// Query admission control parameters (§III.C).
///
/// The paper: "The query handler can update the task deadline violation
/// ratio in a given moving time window. When the ratio exceeds R_th,
/// upcoming queries are rejected, till the ratio falls back below R_th
/// again. The moving time window can be set to be the same as the time
/// window in which the tail latency SLOs should be guaranteed."
///
/// The window is the moving *time* window the paper specifies: events age
/// out of it on their own, so the controller re-admits even when total
/// rejection stops all dequeues (a count window would freeze there; see
/// DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Moving *time* window over task-dequeue outcomes (the paper sizes it
    /// as 1 000 queries' worth of time for the Masstree OLDI case).
    pub window: SimDuration,
    /// Deadline-violation ratio threshold `R_th` above which new queries
    /// are rejected (the paper finds 1.7 % at the maximum acceptable load).
    pub threshold: f64,
    /// Minimum dequeue events inside the window before the controller may
    /// reject (guards against noise right after start-up or idle spells).
    pub min_samples: usize,
    /// Hysteresis: once rejecting, admission resumes only when the ratio
    /// falls below `resume_threshold` (≤ `threshold`), letting the backlog
    /// drain before new load is accepted. Defaults to `threshold` (no
    /// hysteresis).
    pub resume_threshold: f64,
}

impl AdmissionConfig {
    /// Creates an admission-control configuration with a default
    /// `min_samples` of 50 and the paper's time-based window.
    ///
    /// # Panics
    ///
    /// Panics unless the window is positive and the threshold lies in
    /// `(0, 1)`.
    /// `window` is a virtual-time duration (nanosecond domain).
    pub fn new(window: SimDuration, threshold: f64) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must lie in (0,1)"
        );
        AdmissionConfig {
            window,
            threshold,
            min_samples: 50,
            resume_threshold: threshold,
        }
    }

    /// Overrides the minimum sample count (builder-style).
    pub fn with_min_samples(mut self, min_samples: usize) -> Self {
        self.min_samples = min_samples;
        self
    }

    /// Enables hysteresis (builder-style).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < resume_threshold <= threshold`.
    pub fn with_resume_threshold(mut self, resume_threshold: f64) -> Self {
        assert!(
            resume_threshold > 0.0 && resume_threshold <= self.threshold,
            "resume threshold must lie in (0, threshold]"
        );
        self.resume_threshold = resume_threshold;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_dist::Deterministic;

    #[test]
    fn class_spec_validation() {
        let c = ClassSpec::p99(SimDuration::from_millis(1));
        assert_eq!(c.percentile, 0.99);
        let low = c.scaled(1.5);
        assert_eq!(low.slo, SimDuration::from_micros(1500));
    }

    #[test]
    #[should_panic(expected = "percentile must lie in (0,1)")]
    fn class_spec_rejects_bad_percentile() {
        let _ = ClassSpec::new(SimDuration::from_millis(1), 1.0);
    }

    #[test]
    fn homogeneous_cluster_shares_distribution() {
        let c = ClusterSpec::homogeneous(10, Deterministic::new(0.5));
        assert_eq!(c.servers(), 10);
        assert_eq!(c.mean_service_ms(), 0.5);
        assert_eq!(c.service_of(9).mean(), 0.5);
    }

    #[test]
    fn heterogeneous_cluster_per_server() {
        let c = ClusterSpec::heterogeneous(vec![
            Arc::new(Deterministic::new(1.0)) as DynDistribution,
            Arc::new(Deterministic::new(3.0)),
        ]);
        assert_eq!(c.mean_service_ms(), 2.0);
        assert_eq!(c.service_of(1).mean(), 3.0);
    }

    #[test]
    fn max_service_is_the_slowest_servers_upper_end() {
        let c = ClusterSpec::heterogeneous(vec![
            // Uniform on [1, 4]: its mean is below the other server's 3.
            Arc::new(tailguard_dist::PiecewiseQuantile::new(vec![(0.0, 1.0), (1.0, 4.0)]).unwrap())
                as DynDistribution,
            Arc::new(Deterministic::new(3.0)),
        ]);
        assert_eq!(c.max_service_ms(), 4.0);
        let c = ClusterSpec::homogeneous(5, tailguard_dist::Exponential::with_mean(1.0));
        assert!(c.max_service_ms().is_infinite());
    }

    #[test]
    #[should_panic(expected = "server index out of range")]
    fn service_of_bounds() {
        let c = ClusterSpec::homogeneous(2, Deterministic::new(1.0));
        let _ = c.service_of(2);
    }

    #[test]
    fn admission_config_validation() {
        let a = AdmissionConfig::new(SimDuration::from_millis(10), 0.017).with_min_samples(10);
        assert_eq!(a.window, SimDuration::from_millis(10));
        assert_eq!(a.min_samples, 10);
    }

    #[test]
    #[should_panic(expected = "threshold must lie in (0,1)")]
    fn admission_rejects_bad_threshold() {
        let _ = AdmissionConfig::new(SimDuration::from_millis(10), 1.5);
    }

    #[test]
    #[should_panic(expected = "resume threshold must lie in (0, threshold]")]
    fn admission_rejects_bad_resume_threshold() {
        let _ = AdmissionConfig::new(SimDuration::from_millis(10), 0.02).with_resume_threshold(0.5);
    }
}
