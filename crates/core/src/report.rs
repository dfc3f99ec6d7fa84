//! Results of a simulation run.

use crate::spec::ClassSpec;
use std::collections::BTreeMap;
use std::fmt;
use tailguard_metrics::{LatencyReservoir, LoadStats};
use tailguard_policy::Policy;
use tailguard_sched::{HealthStats, LifecycleStats, RobustnessStats};
use tailguard_simcore::{SimDuration, SimTime};

// The per-type key lives in the shared scheduling core (which does the
// per-type accounting); re-exported so `tailguard::QueryTypeKey` keeps
// working.
pub use tailguard_sched::QueryTypeKey;

/// Everything measured during one simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// The policy that produced this report.
    pub policy: Policy,
    /// The class SLOs the run was configured with.
    pub classes: Vec<ClassSpec>,
    /// Query latencies per class (post-warm-up).
    pub query_latency_by_class: BTreeMap<u8, LatencyReservoir>,
    /// Query latencies per `(class, fanout)` type (post-warm-up).
    pub query_latency_by_type: BTreeMap<QueryTypeKey, LatencyReservoir>,
    /// Request latencies keyed by the class of the request's first query
    /// (only populated for multi-query requests).
    pub request_latency_by_class: BTreeMap<u8, LatencyReservoir>,
    /// Task pre-dequeuing times (queuing delay before reaching the server).
    pub pre_dequeue: LatencyReservoir,
    /// Load accounting (busy time, accepted/rejected work, miss counts).
    pub load: LoadStats,
    /// Executed service time per server — lets experiments report per-server
    /// or per-cluster utilization (Fig. 9's x-axis is the Server-room
    /// cluster's load).
    pub busy_by_server: Vec<SimDuration>,
    /// Simulated time at the last processed event.
    pub elapsed: SimTime,
    /// Queries whose latency was recorded (arrived after warm-up and were
    /// admitted).
    pub completed_queries: u64,
    /// Queries rejected by admission control.
    pub rejected_queries: u64,
    /// Total discrete events the engine processed during the run (the
    /// denominator-free basis for events/sec throughput reporting).
    pub events_processed: u64,
    /// Fault/hedge/partial counters (all zero without a fault plan or
    /// mitigation config).
    pub robustness: RobustnessStats,
    /// Latencies of partially completed queries, kept out of the per-class
    /// SLO reservoirs so graceful degradation cannot flatter the tail.
    pub partial_latency: LatencyReservoir,
    /// Task lifecycle accounting from the durable state store: end-of-run
    /// state gauges plus lease/reclaim/duplicate/stale counters (reclaims
    /// and suppressions are zero without a lease TTL or fault plan).
    pub lifecycle: LifecycleStats,
    /// Health-tracking counters (ejections, readmissions, probes, rerouted
    /// tasks, floor denials); all zero without a
    /// [`HealthConfig`](tailguard_sched::HealthConfig).
    pub health: HealthStats,
    /// Final per-server EWMA health scores (empty without health tracking;
    /// servers that never completed a task report 0).
    pub server_health: Vec<f64>,
    /// Times the adaptive estimator rolled its observation window (always
    /// zero without an [`AdaptiveWindow`](tailguard_sched::AdaptiveWindow)).
    pub estimator_window_rolls: u64,
    /// Budget-table lookups while stamping deadlines (Eq. 6).
    pub budget_lookups: u64,
    /// Online budget-table rebuilds from refreshed CDFs (§III.B.2).
    pub estimator_refreshes: u64,
    /// Distinct `(class, fanout)` budgets cached at the end of the run.
    pub cached_budgets: u64,
}

impl SimReport {
    /// Minimum per-type sample count for a type to participate in SLO
    /// verdicts; tinier types are statistically meaningless.
    pub const MIN_TYPE_SAMPLES: usize = 20;

    /// The measured `p`-th percentile query latency of `class`
    /// ([`SimDuration::ZERO`] if the class saw no queries).
    pub fn class_tail(&mut self, class: u8, p: f64) -> SimDuration {
        self.query_latency_by_class
            .get_mut(&class)
            .map_or(SimDuration::ZERO, |r| r.percentile(p))
    }

    /// The measured tail of one `(class, fanout)` type at that class's
    /// configured percentile.
    #[expect(
        clippy::indexing_slicing,
        reason = "per-class/per-server tables are sized from the scenario spec; `class` ids come from those same specs"
    )]
    pub fn type_tail(&mut self, class: u8, fanout: u32) -> SimDuration {
        let p = self.classes[class as usize].percentile;
        self.query_latency_by_type
            .get_mut(&QueryTypeKey { class, fanout })
            .map_or(SimDuration::ZERO, |r| r.percentile(p))
    }

    /// True when **every** query type with at least
    /// [`Self::MIN_TYPE_SAMPLES`] samples meets its class SLO — the paper's
    /// acceptance criterion for a load point.
    #[expect(
        clippy::expect_used,
        reason = "the key was listed from this same map two lines up"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "per-class/per-server tables are sized from the scenario spec; `class` ids come from those same specs"
    )]
    pub fn meets_all_slos(&mut self) -> bool {
        let classes = self.classes.clone();
        let keys: Vec<QueryTypeKey> = self
            .query_latency_by_type
            .iter()
            .filter(|(_, r)| r.len() >= Self::MIN_TYPE_SAMPLES)
            .map(|(k, _)| *k)
            .collect();
        keys.into_iter().all(|k| {
            let spec = classes[k.class as usize];
            let tail = self
                .query_latency_by_type
                .get_mut(&k)
                .expect("key just listed")
                .percentile(spec.percentile);
            tail <= spec.slo
        })
    }

    /// Measured (accepted) load: executed busy time over cluster capacity.
    pub fn accepted_load(&self) -> f64 {
        self.load.accepted_load(self.elapsed)
    }

    /// Load equivalent of admission-rejected work.
    pub fn rejected_load(&self) -> f64 {
        self.load.rejected_load(self.elapsed)
    }

    /// Offered load = accepted + rejected.
    pub fn offered_load(&self) -> f64 {
        self.load.offered_load(self.elapsed)
    }

    /// Mean utilization of a contiguous server range (e.g. one hardware
    /// cluster of the SaS testbed).
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or empty, or when no time has
    /// elapsed.
    #[expect(
        clippy::indexing_slicing,
        reason = "server ranges come from the scenario's cluster layout, bounded by busy_by_server's length"
    )]
    pub fn server_range_load(&self, range: std::ops::Range<usize>) -> f64 {
        assert!(!range.is_empty() && range.end <= self.busy_by_server.len());
        assert!(self.elapsed > SimTime::ZERO, "no simulated time elapsed");
        let busy: f64 = self.busy_by_server[range.clone()]
            .iter()
            .map(|d| d.as_nanos() as f64)
            .sum();
        busy / (self.elapsed.as_nanos() as f64 * range.len() as f64)
    }

    /// Fraction of dequeued tasks that missed their queuing deadline.
    pub fn deadline_miss_ratio(&self) -> f64 {
        self.load.deadline_miss_ratio()
    }

    /// A human-readable multi-line summary (one row per query type).
    #[expect(
        clippy::indexing_slicing,
        reason = "per-class/per-server tables are sized from the scenario spec; `class` ids come from those same specs; `k` was read from this map's own iterator"
    )]
    pub fn render_table(&mut self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "policy={} load={:.1}% miss={:.2}% completed={} rejected={}",
            self.policy,
            self.accepted_load() * 100.0,
            self.deadline_miss_ratio() * 100.0,
            self.completed_queries,
            self.rejected_queries
        );
        let keys: Vec<QueryTypeKey> = self.query_latency_by_type.keys().copied().collect();
        for k in keys {
            let spec = self.classes[k.class as usize];
            let tail = self.type_tail(k.class, k.fanout);
            let n = self.query_latency_by_type[&k].len();
            let _ = writeln!(
                out,
                "  class {} fanout {:>4}: p{:>4.1} = {:>8.3} ms (SLO {:>8.3} ms, n={})",
                k.class,
                k.fanout,
                spec.percentile * 100.0,
                tail.as_millis_f64(),
                spec.slo.as_millis_f64(),
                n
            );
        }
        out
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SimReport[{} — {} queries, load {:.1}%]",
            self.policy,
            self.completed_queries,
            self.accepted_load() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_simcore::SimDuration;

    fn report_with_type(class: u8, fanout: u32, samples: Vec<u64>) -> SimReport {
        let mut by_type = BTreeMap::new();
        let mut by_class = BTreeMap::new();
        let res: LatencyReservoir = samples
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .collect();
        by_type.insert(QueryTypeKey { class, fanout }, res.clone());
        by_class.insert(class, res);
        SimReport {
            policy: Policy::TfEdf,
            classes: vec![ClassSpec::p99(SimDuration::from_millis(10))],
            query_latency_by_class: by_class,
            query_latency_by_type: by_type,
            request_latency_by_class: BTreeMap::new(),
            pre_dequeue: LatencyReservoir::new(),
            load: LoadStats::new(4),
            busy_by_server: vec![SimDuration::ZERO; 4],
            elapsed: SimTime::from_millis(1000),
            completed_queries: samples.len() as u64,
            rejected_queries: 0,
            events_processed: 0,
            robustness: RobustnessStats::default(),
            partial_latency: LatencyReservoir::new(),
            lifecycle: LifecycleStats::default(),
            health: HealthStats::default(),
            server_health: Vec::new(),
            estimator_window_rolls: 0,
            budget_lookups: 0,
            estimator_refreshes: 0,
            cached_budgets: 0,
        }
    }

    #[test]
    fn meets_slos_passes_under_slo() {
        let mut r = report_with_type(0, 10, (1..=100).collect());
        // p99 = 99ms > 10ms SLO → fails
        assert!(!r.meets_all_slos());
        let mut ok = report_with_type(0, 10, vec![5; 100]);
        assert!(ok.meets_all_slos());
    }

    #[test]
    fn tiny_types_ignored_in_verdict() {
        let mut r = report_with_type(0, 100, vec![9999; SimReport::MIN_TYPE_SAMPLES - 1]);
        assert!(
            r.meets_all_slos(),
            "under-sampled type must not fail the verdict"
        );
    }

    #[test]
    fn class_tail_and_type_tail() {
        let mut r = report_with_type(1, 10, (1..=100).collect());
        r.classes = vec![
            ClassSpec::p99(SimDuration::from_millis(10)),
            ClassSpec::p99(SimDuration::from_millis(10)),
        ];
        assert_eq!(r.class_tail(1, 0.5), SimDuration::from_millis(50));
        assert_eq!(r.type_tail(1, 10), SimDuration::from_millis(99));
        assert_eq!(r.class_tail(7, 0.5), SimDuration::ZERO);
    }

    #[test]
    fn render_table_contains_rows() {
        let mut r = report_with_type(0, 10, vec![5; 100]);
        let t = r.render_table();
        assert!(t.contains("class 0 fanout   10"));
        assert!(t.contains("TailGuard"));
    }
}
