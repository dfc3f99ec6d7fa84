//! Publishing a finished run into the [`Registry`], once, for both
//! runtimes.

use crate::registry::EventTally;
use crate::{BinaryRecorder, Registry, SloConfig, SloMonitor, SloSnapshot};
use tailguard_sched::{ClassSpec, HealthStats, LifecycleStats, RobustnessStats};

/// The end-of-run facts a driver hands [`publish_run`] next to its
/// recorded event stream. Durations and scores are in the producing
/// runtime's own time domain (virtual for the simulator, compressed wall
/// for the testbed).
#[derive(Debug, Clone, Copy)]
pub struct RunSummary<'a> {
    /// Fault/hedge/partial counters from the scheduling core.
    pub robustness: &'a RobustnessStats,
    /// Lease/fencing gauges and counters from the task state store.
    pub lifecycle: &'a LifecycleStats,
    /// Health-tracking counters.
    pub health: &'a HealthStats,
    /// Final per-server health scores; empty without health tracking, which
    /// keeps every health metric out of the registry.
    pub server_health: &'a [f64],
    /// Adaptive-estimator window rolls; `None` when no adaptive window is
    /// configured, which keeps the metric out of the registry.
    pub window_rolls: Option<u64>,
    /// Budget-table lookups while stamping deadlines (Eq. 6).
    pub budget_lookups: u64,
    /// Online budget-table rebuilds from refreshed CDFs (§III.B.2).
    pub estimator_refreshes: u64,
    /// Distinct `(class, fanout)` budgets cached at the end of the run.
    pub cached_budgets: u64,
    /// Recorded queries completed.
    pub completed_queries: u64,
    /// Time of the last processed event, in milliseconds.
    pub elapsed_ms: f64,
    /// Final dequeue-time deadline-miss ratio.
    pub deadline_miss_ratio: f64,
}

/// Distills a finished run into `registry`: decodes each retained record
/// once, straight from the ring, and feeds it to a [`SloMonitor`]
/// (configured by `slo`, or by [`SloConfig::for_classes`]) and to the
/// event-derived counters and histograms in the same pass — no decoded
/// copy of the recording is built. Then sets
/// the mitigation, lifecycle, SLO, health, estimator and
/// run-level metrics under the one `tailguard_*` naming scheme. Health and
/// adaptive-estimator metrics exist exactly when their features are
/// configured, so feature-off registries keep their shape. Returns the
/// sealed monitor's state.
///
/// Everything event-derived describes the *retained* stream, in ring
/// order. After capacity eviction that is a suffix of the run
/// (`tailguard_trace_events_dropped_total` says so). After tail-aware
/// sampling it is the kept queries' bundles in the order they were
/// released, each at its query's completion — not the run, and not in
/// time order — so the monitor's buckets, burn rates and alerts and the
/// event-derived counters describe that retained stream, not the run.
pub fn publish_run(
    registry: &mut Registry,
    recorder: &BinaryRecorder,
    classes: &[ClassSpec],
    slo: Option<SloConfig>,
    run: &RunSummary<'_>,
) -> SloSnapshot {
    let mut monitor = SloMonitor::new(slo.unwrap_or_else(|| SloConfig::for_classes(classes)));
    let mut tally = EventTally::default();
    recorder.for_each_event(|ev| {
        monitor.observe(&ev);
        tally.observe(&ev);
    });
    monitor.finish();
    tally.publish(registry);
    registry.ingest_robustness(run.robustness);
    registry.ingest_lifecycle(run.lifecycle);
    monitor.publish(registry);
    if !run.server_health.is_empty() {
        for (server, score) in run.server_health.iter().enumerate() {
            registry.gauge_set(
                &format!("tailguard_server_health{{server=\"{server}\"}}"),
                "Per-server EWMA health score (observed service time, seconds)",
                *score,
            );
        }
        registry.counter_set(
            "tailguard_ejections_total",
            "Servers ejected from dispatch by the health tracker",
            run.health.ejections,
        );
        registry.counter_set(
            "tailguard_readmissions_total",
            "Ejected servers readmitted after recovering",
            run.health.readmissions,
        );
        registry.counter_set(
            "tailguard_health_probes_total",
            "Tasks sent to ejected servers as recovery probes",
            run.health.probes,
        );
        registry.counter_set(
            "tailguard_health_rerouted_total",
            "Arrivals diverted away from ejected servers",
            run.health.rerouted_tasks,
        );
    }
    if let Some(rolls) = run.window_rolls {
        registry.counter_set(
            "tailguard_estimator_window_rolls_total",
            "Adaptive estimator window rolls (decay + budget-table rebuild)",
            rolls,
        );
    }
    registry.counter_set(
        "tailguard_estimator_budget_lookups_total",
        "Budget-table lookups while stamping deadlines (Eq. 6)",
        run.budget_lookups,
    );
    registry.counter_set(
        "tailguard_estimator_refreshes_total",
        "Online budget-table rebuilds from refreshed CDFs (§III.B.2)",
        run.estimator_refreshes,
    );
    registry.gauge_set(
        "tailguard_estimator_cached_budgets",
        "Distinct (class, fanout) budgets currently cached",
        run.cached_budgets as f64,
    );
    registry.counter_set(
        "tailguard_run_queries_completed_total",
        "Recorded (post-warm-up) queries completed",
        run.completed_queries,
    );
    registry.gauge_set(
        "tailguard_run_elapsed_ms",
        "Virtual time at the last processed event",
        run.elapsed_ms,
    );
    registry.gauge_set(
        "tailguard_run_deadline_miss_ratio",
        "Final dequeue-time deadline-miss ratio",
        run.deadline_miss_ratio,
    );
    if recorder.dropped() > 0 {
        registry.counter_set(
            "tailguard_trace_events_dropped_total",
            "Events evicted by the ring recorder's capacity bound",
            recorder.dropped(),
        );
    }
    if recorder.sampled_out() > 0 {
        registry.counter_set(
            "tailguard_trace_events_sampled_out_total",
            "Healthy-query events discarded by tail-aware sampling",
            recorder.sampled_out(),
        );
    }
    monitor.snapshot()
}
