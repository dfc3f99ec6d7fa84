//! Offered / accepted / rejected load accounting.

use serde::{Deserialize, Serialize};
use tailguard_simcore::{SimDuration, SimTime};

/// Load and utilization accounting for a simulated cluster run.
///
/// The paper defines load as the fraction of aggregate server capacity
/// consumed: `ρ = λ · E[k_f] · T_m / N`. During a run we measure it directly
/// as total busy time across servers divided by `N · elapsed`. Admission
/// control (Fig. 7) additionally splits offered work into accepted and
/// rejected parts, each reported in the same load units.
///
/// # Example
///
/// ```
/// use tailguard_metrics::LoadStats;
/// use tailguard_simcore::{SimDuration, SimTime};
///
/// let mut ls = LoadStats::new(2);
/// ls.query_offered();
/// ls.query_accepted();
/// ls.record_busy(SimDuration::from_millis(30));        // accepted work
/// ls.record_rejected_work(SimDuration::from_millis(10));
/// let elapsed = SimTime::from_millis(100);
/// assert!((ls.accepted_load(elapsed) - 0.15).abs() < 1e-12);
/// assert!((ls.rejected_load(elapsed) - 0.05).abs() < 1e-12);
/// assert!((ls.offered_load(elapsed) - 0.20).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadStats {
    servers: usize,
    busy: SimDuration,
    rejected_work: SimDuration,
    queries_offered: u64,
    queries_accepted: u64,
    tasks_dispatched: u64,
    tasks_completed: u64,
    deadline_misses: u64,
}

impl LoadStats {
    /// Creates accounting for a cluster of `servers` task servers.
    ///
    /// # Panics
    ///
    /// Panics when `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        LoadStats {
            servers,
            busy: SimDuration::ZERO,
            rejected_work: SimDuration::ZERO,
            queries_offered: 0,
            queries_accepted: 0,
            tasks_dispatched: 0,
            tasks_completed: 0,
            deadline_misses: 0,
        }
    }

    /// Counts one offered query.
    pub fn query_offered(&mut self) {
        self.queries_offered += 1;
    }

    /// Counts one admitted query.
    pub fn query_accepted(&mut self) {
        self.queries_accepted += 1;
    }

    /// Counts one dispatched task.
    pub fn task_dispatched(&mut self) {
        self.tasks_dispatched += 1;
    }

    /// Counts one completed task, noting whether it missed its queuing
    /// deadline.
    pub fn task_completed(&mut self, missed_deadline: bool) {
        self.tasks_completed += 1;
        if missed_deadline {
            self.deadline_misses += 1;
        }
    }

    /// Adds service time actually executed on some server.
    /// `service` is a virtual-time duration (nanosecond domain).
    pub fn record_busy(&mut self, service: SimDuration) {
        self.busy += service;
    }

    /// Adds service time that *would have been* executed had the query not
    /// been rejected (used to report the rejected load in Fig. 7).
    /// `service` is a virtual-time duration (nanosecond domain).
    pub fn record_rejected_work(&mut self, service: SimDuration) {
        self.rejected_work += service;
    }

    /// Accepted (executed) load over `elapsed`: busy time / (N · elapsed).
    /// `elapsed` is virtual time (nanosecond domain).
    pub fn accepted_load(&self, elapsed: SimTime) -> f64 {
        self.load_of(self.busy, elapsed)
    }

    /// Load equivalent of the rejected work over `elapsed`.
    /// `elapsed` is virtual time (nanosecond domain).
    pub fn rejected_load(&self, elapsed: SimTime) -> f64 {
        self.load_of(self.rejected_work, elapsed)
    }

    /// Offered load = accepted + rejected.
    /// `elapsed` is virtual time (nanosecond domain).
    pub fn offered_load(&self, elapsed: SimTime) -> f64 {
        self.accepted_load(elapsed) + self.rejected_load(elapsed)
    }

    fn load_of(&self, work: SimDuration, elapsed: SimTime) -> f64 {
        let denom = elapsed.as_nanos() as f64 * self.servers as f64;
        if denom <= 0.0 {
            0.0
        } else {
            work.as_nanos() as f64 / denom
        }
    }

    /// Offered queries.
    pub fn queries_offered_count(&self) -> u64 {
        self.queries_offered
    }

    /// Accepted queries.
    pub fn queries_accepted_count(&self) -> u64 {
        self.queries_accepted
    }

    /// Rejected queries.
    pub fn queries_rejected_count(&self) -> u64 {
        self.queries_offered.saturating_sub(self.queries_accepted)
    }

    /// Dispatched tasks.
    pub fn tasks_dispatched_count(&self) -> u64 {
        self.tasks_dispatched
    }

    /// Completed tasks.
    pub fn tasks_completed_count(&self) -> u64 {
        self.tasks_completed
    }

    /// Completed tasks that missed their queuing deadline.
    pub fn deadline_miss_count(&self) -> u64 {
        self.deadline_misses
    }

    /// Fraction of completed tasks that missed their queuing deadline.
    pub fn deadline_miss_ratio(&self) -> f64 {
        if self.tasks_completed == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.tasks_completed as f64
        }
    }

    /// Cluster size.
    pub fn servers(&self) -> usize {
        self.servers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_is_busy_over_capacity() {
        let mut ls = LoadStats::new(4);
        ls.record_busy(SimDuration::from_millis(200));
        let load = ls.accepted_load(SimTime::from_millis(100));
        assert!((load - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_gives_zero_load() {
        let mut ls = LoadStats::new(1);
        ls.record_busy(SimDuration::from_millis(5));
        assert_eq!(ls.accepted_load(SimTime::ZERO), 0.0);
    }

    #[test]
    fn offered_is_accepted_plus_rejected() {
        let mut ls = LoadStats::new(10);
        ls.record_busy(SimDuration::from_millis(300));
        ls.record_rejected_work(SimDuration::from_millis(100));
        let t = SimTime::from_millis(1000);
        assert!((ls.offered_load(t) - (ls.accepted_load(t) + ls.rejected_load(t))).abs() < 1e-15);
    }

    #[test]
    fn query_counters() {
        let mut ls = LoadStats::new(1);
        for _ in 0..10 {
            ls.query_offered();
        }
        for _ in 0..7 {
            ls.query_accepted();
        }
        assert_eq!(ls.queries_rejected_count(), 3);
    }

    #[test]
    fn deadline_miss_ratio() {
        let mut ls = LoadStats::new(1);
        ls.task_completed(false);
        ls.task_completed(true);
        ls.task_completed(false);
        ls.task_completed(false);
        assert_eq!(ls.deadline_miss_ratio(), 0.25);
        assert_eq!(ls.deadline_miss_count(), 1);
        assert_eq!(ls.tasks_completed_count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = LoadStats::new(0);
    }
}
