//! Reference implementations for the oracle tests in
//! `tests/observability.rs`: the timeline builder and the run publisher
//! as they were before analysis became one pass. Kept deliberately
//! simple — two `BTreeMap`s and linear attempt scans; a decoded
//! `Vec<TraceEvent>` walked once by the SLO monitor and once by the
//! registry — so the optimised versions have something independent to
//! equal.
//!
//! One line differs from the original builder: `attempt_mut` no longer
//! asserts that the task's recorded owner is `query`. On a truncated ring
//! that assertion fails in debug builds for events whose query lost its
//! `QueryAdmitted` (the task was never enqueued in the recording, so it
//! has no owner), and those events are exactly what the oracle feeds it.

use std::collections::BTreeMap;
use tailguard_repro::obs::{
    AttemptRecord, BinaryRecorder, QueryTimeline, Registry, RunSummary, SloConfig, SloMonitor,
    SloSnapshot,
};
use tailguard_repro::sched::{ClassSpec, QueryId, TaskId, TraceEvent};

/// The timeline builder as it was: every event looks its query up in a
/// `BTreeMap` and scans the query's attempts for its task.
pub fn reference_build_timelines(events: &[TraceEvent]) -> BTreeMap<QueryId, QueryTimeline> {
    let mut timelines: BTreeMap<QueryId, QueryTimeline> = BTreeMap::new();
    let mut task_owner: BTreeMap<TaskId, QueryId> = BTreeMap::new();
    for ev in events {
        match *ev {
            TraceEvent::QueryAdmitted {
                at,
                query,
                class,
                fanout,
                deadline,
            } => {
                timelines.insert(
                    query,
                    QueryTimeline {
                        query,
                        class,
                        fanout,
                        admitted_at: at,
                        deadline,
                        attempts: Vec::with_capacity(fanout as usize),
                        budget_denials: 0,
                    },
                );
            }
            TraceEvent::TaskEnqueued {
                at,
                task,
                slot,
                query,
                class: _,
                server,
                kind,
                deadline,
            } => {
                if let Some(tl) = timelines.get_mut(&query) {
                    // A second enqueue of a known task is a lease reclaim
                    // bouncing the attempt back into its queue: reopen the
                    // existing record instead of inventing a new attempt.
                    if let Some(a) = tl.attempts.iter_mut().find(|a| a.task == task) {
                        a.enqueued_at = at;
                        a.dequeued_at = None;
                        a.waited = None;
                        a.slack_ns = None;
                        continue;
                    }
                    task_owner.insert(task, query);
                    tl.attempts.push(AttemptRecord {
                        task,
                        slot,
                        server,
                        kind,
                        reclaims: 0,
                        enqueued_at: at,
                        deadline,
                        dequeued_at: None,
                        waited: None,
                        slack_ns: None,
                        missed_deadline: false,
                        completed_at: None,
                        busy: None,
                        won: false,
                        cancelled_at: None,
                        lost_at: None,
                    });
                }
            }
            TraceEvent::TaskDequeued {
                at,
                task,
                query,
                waited,
                slack_ns,
                ..
            } => {
                if let Some(a) = attempt_mut(&mut timelines, &task_owner, query, task) {
                    a.dequeued_at = Some(at);
                    a.waited = Some(waited);
                    a.slack_ns = Some(slack_ns);
                }
            }
            TraceEvent::DeadlineMissed { task, query, .. } => {
                if let Some(a) = attempt_mut(&mut timelines, &task_owner, query, task) {
                    a.missed_deadline = true;
                }
            }
            TraceEvent::TaskCompleted {
                at,
                task,
                query,
                busy,
                won,
                ..
            } => {
                if let Some(a) = attempt_mut(&mut timelines, &task_owner, query, task) {
                    a.completed_at = Some(at);
                    a.busy = Some(busy);
                    a.won = won;
                }
            }
            TraceEvent::TaskCancelled {
                at, task, query, ..
            } => {
                if let Some(a) = attempt_mut(&mut timelines, &task_owner, query, task) {
                    a.cancelled_at = Some(at);
                }
            }
            TraceEvent::TaskLost {
                at, task, query, ..
            } => {
                if let Some(a) = attempt_mut(&mut timelines, &task_owner, query, task) {
                    a.lost_at = Some(at);
                }
            }
            TraceEvent::LeaseReclaimed { task, query, .. } => {
                if let Some(a) = attempt_mut(&mut timelines, &task_owner, query, task) {
                    a.reclaims += 1;
                }
            }
            TraceEvent::HedgeBudgetExhausted { query, .. } => {
                if let Some(tl) = timelines.get_mut(&query) {
                    tl.budget_denials += 1;
                }
            }
            TraceEvent::HedgeIssued { .. }
            | TraceEvent::QueryRejected { .. }
            | TraceEvent::AdmissionPause { .. }
            | TraceEvent::AdmissionResume { .. }
            | TraceEvent::DuplicateSuppressed { .. }
            | TraceEvent::StaleCommitRejected { .. }
            | TraceEvent::ServerEjected { .. }
            | TraceEvent::ServerReadmitted { .. } => {}
        }
    }
    timelines
}

fn attempt_mut<'a>(
    timelines: &'a mut BTreeMap<QueryId, QueryTimeline>,
    task_owner: &BTreeMap<TaskId, QueryId>,
    query: QueryId,
    task: TaskId,
) -> Option<&'a mut AttemptRecord> {
    // The original asserted `task_owner.get(&task) == Some(&query)` here
    // (see the module docs); the map is still filled as it was.
    let _ = (task_owner, query);
    timelines
        .get_mut(&query)?
        .attempts
        .iter_mut()
        .find(|a| a.task == task)
}

/// `publish_run` as it was: the recording decoded into one
/// `Vec<TraceEvent>`, replayed through the monitor, then through the
/// registry.
pub fn reference_publish_run(
    registry: &mut Registry,
    recorder: &BinaryRecorder,
    classes: &[ClassSpec],
    slo: Option<SloConfig>,
    run: &RunSummary<'_>,
) -> SloSnapshot {
    let events = recorder.events();
    let mut monitor = SloMonitor::new(slo.unwrap_or_else(|| SloConfig::for_classes(classes)));
    monitor.ingest(&events);
    monitor.finish();
    registry.ingest_events(&events);
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
