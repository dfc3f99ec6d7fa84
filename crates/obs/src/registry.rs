//! The metrics registry and its serializers.
//!
//! One naming scheme, used verbatim by the Prometheus text exposition, the
//! JSON snapshots, and the CLI `--json` outputs:
//!
//! * `tailguard_<noun>_<verb>_total` — monotone counters
//!   (`tailguard_queries_admitted_total`,
//!   `tailguard_mitigation_hedges_issued_total`, …);
//! * `tailguard_<noun>` — gauges (`tailguard_queue_depth`);
//! * `tailguard_<phase>_ms` — log-bucketed latency histograms in
//!   *milliseconds*, the unit every distribution in this repo uses
//!   (`tailguard_queue_wait_ms`, `tailguard_service_ms`,
//!   `tailguard_dequeue_slack_ms{class="0"}`);
//! * time series are named like the gauge they sample and live in the JSON
//!   snapshot (`series`), each point `(at_ns, value)` on the virtual/wall
//!   clock of the producing runtime.
//!
//! Lifecycle counters (`tailguard_queries_*`, `tailguard_tasks_*`) are
//! derived from the trace-event stream by [`Registry::ingest_events`]
//! (or by [`publish_run`](crate::publish_run), straight off the ring);
//! mitigation counters (`tailguard_mitigation_*`) come from the handler's
//! [`RobustnessStats`] via [`Registry::ingest_robustness`]; estimator and
//! run-level counters are set by the driver. The two families overlap in
//! spirit but not in name, so a scrape never sees the same fact under two
//! spellings.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tailguard_dist::{Cdf, LogHistogram};
use tailguard_sched::units;
use tailguard_sched::{AttemptKind, LifecycleStats, RobustnessStats, TraceEvent};
use tailguard_simcore::SimTime;

/// Fixed `le` boundaries (ms) for the Prometheus histogram exposition,
/// log-spaced like the underlying [`LogHistogram`] buckets (which are far
/// finer; these are the wire-format summary).
const EXPO_BOUNDS_MS: [f64; 9] = [0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0, 1000.0];

#[derive(Debug)]
struct Entry<T> {
    help: &'static str,
    value: T,
}

/// A shareable registry handle: the testbed's handlers update it while
/// the run is live, and the caller reads it afterwards.
pub type SharedRegistry = Arc<Mutex<Registry>>;

/// Creates a fresh [`SharedRegistry`].
pub fn shared_registry() -> SharedRegistry {
    Arc::new(Mutex::new(Registry::new()))
}

/// Counters, gauges, log-bucketed histograms, and time series under one
/// roof. All mutation is by full metric name (labels included, e.g.
/// `tailguard_dequeue_slack_ms{class="0"}`); names are created on first
/// touch and iterated in sorted order, so serialization is deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, Entry<u64>>,
    gauges: BTreeMap<String, Entry<f64>>,
    histograms: BTreeMap<String, Entry<LogHistogram>>,
    series: BTreeMap<String, Entry<Vec<(u64, f64)>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, help: &'static str, delta: u64) {
        let entry = self
            .counters
            .entry(name.to_string())
            .or_insert(Entry { help, value: 0 });
        entry.value += delta;
    }

    /// Sets a counter to an externally accumulated value (e.g. a counter
    /// the scheduling core already maintains).
    pub fn counter_set(&mut self, name: &str, help: &'static str, value: u64) {
        self.counters
            .insert(name.to_string(), Entry { help, value });
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, help: &'static str, value: f64) {
        self.gauges.insert(name.to_string(), Entry { help, value });
    }

    /// Records one observation (in ms) into a histogram, creating it with
    /// the default log-bucket layout first.
    pub fn histogram_record(&mut self, name: &str, help: &'static str, value_ms: f64) {
        let entry = self.histograms.entry(name.to_string()).or_insert(Entry {
            help,
            value: LogHistogram::new(),
        });
        entry.value.record(value_ms);
    }

    /// Appends a `(at, value)` sample to a time series.
    /// `at` is virtual time (nanosecond domain).
    pub fn series_push(&mut self, name: &str, help: &'static str, at: SimTime, value: f64) {
        let entry = self.series.entry(name.to_string()).or_insert(Entry {
            help,
            value: Vec::new(),
        });
        entry.value.push((at.as_nanos(), value));
    }

    /// A counter's current value, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|e| e.value)
    }

    /// A gauge's current value, if it exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|e| e.value)
    }

    /// A histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name).map(|e| &e.value)
    }

    /// A time series' samples, if it exists.
    pub fn series(&self, name: &str) -> Option<&[(u64, f64)]> {
        self.series.get(name).map(|e| e.value.as_slice())
    }

    /// Derives the lifecycle counters and per-phase latency histograms
    /// from a trace-event stream: admission/rejection/enqueue/dequeue/miss
    /// counts, queue-wait and service-time histograms (the Eq. 6 split of
    /// query latency into pre-dequeuing wait vs. service), hedge-copy
    /// queue wait, and signed dequeue slack split into a per-class slack
    /// histogram (`slack ≥ 0`) and a lateness histogram (`|slack|` of
    /// misses).
    pub fn ingest_events(&mut self, events: &[TraceEvent]) {
        let mut tally = EventTally::default();
        for ev in events {
            tally.observe(ev);
        }
        tally.publish(self);
    }

    /// Merges a locally accumulated histogram into a named one, creating
    /// the name only when there is something to merge (so batched
    /// ingestion exposes exactly the names per-event recording would).
    fn histogram_merge(&mut self, name: &str, help: &'static str, h: LogHistogram) {
        if h.is_empty() {
            return;
        }
        let entry = self.histograms.entry(name.to_string()).or_insert(Entry {
            help,
            value: LogHistogram::new(),
        });
        entry.value.merge(&h);
    }

    /// Publishes the handler's [`RobustnessStats`] under the
    /// `tailguard_mitigation_*` names.
    pub fn ingest_robustness(&mut self, rs: &RobustnessStats) {
        self.counter_set(
            "tailguard_mitigation_hedges_issued_total",
            "Hedge copies issued (budget threshold crossed)",
            rs.hedges_issued,
        );
        self.counter_set(
            "tailguard_mitigation_hedge_wins_total",
            "Hedge copies that beat the original",
            rs.hedge_wins,
        );
        self.counter_set(
            "tailguard_mitigation_retries_total",
            "Retry copies issued for fault-lost tasks",
            rs.retries,
        );
        self.counter_set(
            "tailguard_mitigation_task_wins_total",
            "Attempts that resolved their slot first",
            rs.task_wins,
        );
        self.counter_set(
            "tailguard_mitigation_cancelled_tasks_total",
            "Attempts discarded because their slot was already resolved",
            rs.cancelled_tasks,
        );
        self.counter_set(
            "tailguard_mitigation_tasks_lost_total",
            "Attempts lost to injected faults or worker failures",
            rs.tasks_lost_to_faults,
        );
        self.counter_set(
            "tailguard_mitigation_partial_completions_total",
            "Queries that completed at quorum with missing results",
            rs.partial_completions,
        );
        self.counter_set(
            "tailguard_mitigation_failed_queries_total",
            "Queries whose every task was lost",
            rs.failed_queries,
        );
        self.counter_set(
            "tailguard_mitigation_budget_exhausted_total",
            "Hedges/retries denied by the per-class outstanding-duplicate cap",
            rs.budget_exhausted,
        );
    }

    /// Publishes the state store's [`LifecycleStats`]: end-of-run task
    /// state gauges plus lease/reclaim/duplicate/stale counters. The
    /// counter names shared with [`Registry::ingest_events`] are
    /// *overwritten* with the store's authoritative values (the stats
    /// survive ring-recorder eviction; the values agree whenever no events
    /// were dropped), so calling both in either order is safe.
    pub fn ingest_lifecycle(&mut self, lc: &LifecycleStats) {
        self.gauge_set(
            "tailguard_tasks_queued",
            "Task attempts still queued at end of run",
            lc.queued as f64,
        );
        self.gauge_set(
            "tailguard_tasks_leased",
            "Task attempts holding an uncommitted lease at end of run",
            lc.leased as f64,
        );
        self.gauge_set(
            "tailguard_tasks_running",
            "Task attempts in service at end of run",
            lc.running as f64,
        );
        self.counter_set(
            "tailguard_tasks_state_completed_total",
            "Task attempts whose commit was accepted by the state store",
            lc.completed,
        );
        self.counter_set(
            "tailguard_tasks_state_failed_total",
            "Task attempts that terminally failed (lost or cancelled)",
            lc.failed,
        );
        self.counter_set(
            "tailguard_leases_issued_total",
            "Leases issued at dequeue (one per dispatch)",
            lc.leases_issued,
        );
        self.counter_set(
            "tailguard_leases_reclaimed_total",
            "Expired leases reclaimed (attempt re-enqueued or cancelled)",
            lc.reclaims,
        );
        self.counter_set(
            "tailguard_duplicates_suppressed_total",
            "Redelivered results suppressed by idempotent commit",
            lc.duplicates_suppressed,
        );
        self.counter_set(
            "tailguard_stale_commits_rejected_total",
            "Zombie results fenced off by lease-token mismatch",
            lc.stale_commits_rejected,
        );
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` plus samples; histograms as cumulative
    /// `_bucket{le=…}`/`_sum`/`_count` at log-spaced boundaries). Time
    /// series expose their most recent sample as a gauge — the full series
    /// lives in [`Registry::snapshot`].
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, e) in &self.counters {
            let (base, labels) = split_labels(name);
            if base != last_base {
                out.push_str(&format!(
                    "# HELP {base} {}\n# TYPE {base} counter\n",
                    e.help
                ));
                last_base = base.to_string();
            }
            out.push_str(&format!("{base}{labels} {}\n", e.value));
        }
        for (name, e) in &self.gauges {
            let (base, labels) = split_labels(name);
            if base != last_base {
                out.push_str(&format!("# HELP {base} {}\n# TYPE {base} gauge\n", e.help));
                last_base = base.to_string();
            }
            out.push_str(&format!("{base}{labels} {}\n", fmt_f64(e.value)));
        }
        for (name, e) in &self.series {
            let (base, labels) = split_labels(name);
            let Some(&(_, latest)) = e.value.last() else {
                continue;
            };
            if base != last_base {
                out.push_str(&format!(
                    "# HELP {base} {} (latest sample)\n# TYPE {base} gauge\n",
                    e.help
                ));
                last_base = base.to_string();
            }
            out.push_str(&format!("{base}{labels} {}\n", fmt_f64(latest)));
        }
        for (name, e) in &self.histograms {
            let (base, labels) = split_labels(name);
            if base != last_base {
                out.push_str(&format!(
                    "# HELP {base} {}\n# TYPE {base} histogram\n",
                    e.help
                ));
                last_base = base.to_string();
            }
            let h = &e.value;
            let total = units::sat_f64_to_u64(h.count());
            for le in EXPO_BOUNDS_MS {
                let cum = units::sat_f64_to_u64(h.cdf(le) * h.count());
                out.push_str(&format!(
                    "{base}_bucket{} {cum}\n",
                    with_le(labels, &fmt_f64(le))
                ));
            }
            out.push_str(&format!(
                "{base}_bucket{} {total}\n",
                with_le(labels, "+Inf")
            ));
            out.push_str(&format!(
                "{base}_sum{labels} {}\n",
                fmt_f64(h.mean() * h.count())
            ));
            out.push_str(&format!("{base}_count{labels} {total}\n"));
        }
        out
    }

    /// A serializable snapshot of everything in the registry; histograms
    /// are summarized as count/mean/p50/p99/max quantiles.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, e)| CounterSnapshot {
                    name: name.clone(),
                    value: e.value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, e)| GaugeSnapshot {
                    name: name.clone(),
                    value: e.value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, e)| HistogramSnapshot {
                    name: name.clone(),
                    count: units::sat_f64_to_u64(e.value.count()),
                    mean_ms: e.value.mean(),
                    p50_ms: e.value.quantile(0.50),
                    p99_ms: e.value.quantile(0.99),
                })
                .collect(),
            series: self
                .series
                .iter()
                .map(|(name, e)| SeriesSnapshot {
                    name: name.clone(),
                    points: e
                        .value
                        .iter()
                        .map(|&(at_ns, value)| SeriesPoint { at_ns, value })
                        .collect(),
                })
                .collect(),
        }
    }

    /// The snapshot as pretty-printed JSON.
    #[expect(
        clippy::expect_used,
        reason = "pure in-memory serialization of plain structs cannot fail"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("registry snapshot serializes")
    }
}

/// Splits `name{labels}` into `(base, "{labels}")` (labels may be empty).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => name.split_at(i),
        None => (name, ""),
    }
}

/// Merges an `le` label into an existing (possibly empty) label set.
fn with_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!(
            "{}le=\"{le}\"}}",
            labels.strip_suffix('}').unwrap_or(labels).to_string() + ","
        )
    }
}

/// Formats an f64 the way Prometheus expects (no trailing `.0` noise for
/// integers, plain decimal otherwise).
#[expect(
    clippy::cast_possible_truncation,
    reason = "display-only truncation: the value was just checked integral and below 1e15"
)]
#[expect(
    clippy::float_cmp,
    reason = "an exact integrality test: an integral float equals its own `trunc` bit for bit"
)]
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One counter in a [`RegistrySnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct CounterSnapshot {
    /// Metric name (labels included).
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// One gauge in a [`RegistrySnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct GaugeSnapshot {
    /// Metric name (labels included).
    pub name: String,
    /// Current value.
    pub value: f64,
}

/// One histogram summary in a [`RegistrySnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSnapshot {
    /// Metric name (labels included).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Mean observation (ms).
    pub mean_ms: f64,
    /// Median (ms).
    pub p50_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
}

/// One time series in a [`RegistrySnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct SeriesSnapshot {
    /// Series name.
    pub name: String,
    /// Samples, oldest first.
    pub points: Vec<SeriesPoint>,
}

/// One sample of a [`SeriesSnapshot`].
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SeriesPoint {
    /// Sample time in nanoseconds on the producing runtime's clock.
    pub at_ns: u64,
    /// Sampled value.
    pub value: f64,
}

/// A point-in-time copy of a [`Registry`], serializable to JSON.
#[derive(Debug, Clone, Serialize)]
pub struct RegistrySnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// All time series, sorted by name.
    pub series: Vec<SeriesSnapshot>,
}

/// The event-derived counters and histograms, accumulated in plain
/// fields and published with one registry touch per metric name instead
/// of a string-keyed map lookup per event; the result is the same either
/// way. The one implementation behind both entry points:
/// [`Registry::ingest_events`] feeds it a slice, [`publish_run`](crate::publish_run)
/// the ring's records as it decodes them.
#[derive(Default)]
pub(crate) struct EventTally {
    admitted: u64,
    rejected: u64,
    enqueued: u64,
    dequeued: u64,
    missed: u64,
    cancelled: u64,
    completed: u64,
    lost: u64,
    pauses: u64,
    resumes: u64,
    reclaimed: u64,
    dup_suppressed: u64,
    stale_rejected: u64,
    ejections: u64,
    readmissions: u64,
    budget_denials: u64,
    queue_wait: LogHistogram,
    hedge_wait: LogHistogram,
    service: LogHistogram,
    slack_by_class: BTreeMap<u8, LogHistogram>,
    lateness_by_class: BTreeMap<u8, LogHistogram>,
}

impl EventTally {
    /// Folds one event into the tally.
    pub(crate) fn observe(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::QueryAdmitted { .. } => self.admitted += 1,
            TraceEvent::QueryRejected { .. } => self.rejected += 1,
            TraceEvent::TaskEnqueued { .. } => self.enqueued += 1,
            TraceEvent::TaskDequeued {
                class,
                kind,
                waited,
                slack_ns,
                ..
            } => {
                self.dequeued += 1;
                self.queue_wait.record(waited.as_millis_f64());
                if kind == AttemptKind::Hedge {
                    self.hedge_wait.record(waited.as_millis_f64());
                }
                let slack_ms = slack_ns as f64 / 1e6;
                if slack_ns >= 0 {
                    self.slack_by_class
                        .entry(class)
                        .or_default()
                        .record(slack_ms);
                } else {
                    self.lateness_by_class
                        .entry(class)
                        .or_default()
                        .record(-slack_ms);
                }
            }
            TraceEvent::DeadlineMissed { .. } => self.missed += 1,
            TraceEvent::HedgeIssued { .. } => {}
            TraceEvent::TaskCancelled { .. } => self.cancelled += 1,
            TraceEvent::TaskCompleted { busy, .. } => {
                self.completed += 1;
                self.service.record(busy.as_millis_f64());
            }
            TraceEvent::TaskLost { .. } => self.lost += 1,
            TraceEvent::AdmissionPause { .. } => self.pauses += 1,
            TraceEvent::AdmissionResume { .. } => self.resumes += 1,
            TraceEvent::LeaseReclaimed { .. } => self.reclaimed += 1,
            TraceEvent::DuplicateSuppressed { .. } => self.dup_suppressed += 1,
            TraceEvent::StaleCommitRejected { .. } => self.stale_rejected += 1,
            TraceEvent::ServerEjected { .. } => self.ejections += 1,
            TraceEvent::ServerReadmitted { .. } => self.readmissions += 1,
            TraceEvent::HedgeBudgetExhausted { .. } => self.budget_denials += 1,
        }
    }

    /// Publishes the tally into `registry`.
    pub(crate) fn publish(self, registry: &mut Registry) {
        // Metric names appear exactly when their events did, matching the
        // previous per-event behaviour.
        let counters: [(&str, &'static str, u64); 16] = [
            (
                "tailguard_queries_admitted_total",
                "Queries that passed admission control",
                self.admitted,
            ),
            (
                "tailguard_queries_rejected_total",
                "Queries turned away by admission control",
                self.rejected,
            ),
            (
                "tailguard_tasks_enqueued_total",
                "Task attempts enqueued (originals, hedges, retries)",
                self.enqueued,
            ),
            (
                "tailguard_tasks_dequeued_total",
                "Task attempts that entered service",
                self.dequeued,
            ),
            (
                "tailguard_tasks_deadline_missed_total",
                "Task attempts that dequeued past their deadline t_D",
                self.missed,
            ),
            (
                "tailguard_tasks_cancelled_at_dequeue_total",
                "Queued attempts discarded because their slot had resolved",
                self.cancelled,
            ),
            (
                "tailguard_tasks_completed_total",
                "Task attempts that finished service",
                self.completed,
            ),
            (
                "tailguard_tasks_lost_total",
                "In-service attempts lost to faults or worker failures",
                self.lost,
            ),
            (
                "tailguard_admission_pauses_total",
                "Admission flips from admitting to rejecting",
                self.pauses,
            ),
            (
                "tailguard_admission_resumes_total",
                "Admission flips from rejecting back to admitting",
                self.resumes,
            ),
            (
                "tailguard_leases_reclaimed_total",
                "Expired leases reclaimed (attempt re-enqueued or cancelled)",
                self.reclaimed,
            ),
            (
                "tailguard_duplicates_suppressed_total",
                "Redelivered results suppressed by idempotent commit",
                self.dup_suppressed,
            ),
            (
                "tailguard_stale_commits_rejected_total",
                "Zombie results fenced off by lease-token mismatch",
                self.stale_rejected,
            ),
            (
                "tailguard_trace_server_ejections_total",
                "Server-ejection flips narrated into the trace stream",
                self.ejections,
            ),
            (
                "tailguard_trace_server_readmissions_total",
                "Server-readmission flips narrated into the trace stream",
                self.readmissions,
            ),
            (
                "tailguard_trace_budget_denials_total",
                "Hedges/retries denied by an empty per-class token bucket",
                self.budget_denials,
            ),
        ];
        for (name, help, count) in counters {
            if count > 0 {
                registry.counter_add(name, help, count);
            }
        }
        registry.histogram_merge(
            "tailguard_queue_wait_ms",
            "Pre-dequeuing wait per task attempt",
            self.queue_wait,
        );
        registry.histogram_merge(
            "tailguard_hedge_wait_ms",
            "Pre-dequeuing wait of hedge copies",
            self.hedge_wait,
        );
        registry.histogram_merge(
            "tailguard_service_ms",
            "Service time per completed task attempt",
            self.service,
        );
        for (class, h) in self.slack_by_class {
            registry.histogram_merge(
                &format!("tailguard_dequeue_slack_ms{{class=\"{class}\"}}"),
                "Deadline slack at dequeue (on-time attempts)",
                h,
            );
        }
        for (class, h) in self.lateness_by_class {
            registry.histogram_merge(
                &format!("tailguard_dequeue_lateness_ms{{class=\"{class}\"}}"),
                "How far past t_D late attempts dequeued",
                h,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_simcore::SimDuration;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut r = Registry::new();
        r.counter_add("tailguard_queries_admitted_total", "h", 2);
        r.counter_add("tailguard_queries_admitted_total", "h", 3);
        r.gauge_set("tailguard_queue_depth", "h", 7.0);
        r.histogram_record("tailguard_service_ms", "h", 1.5);
        r.series_push("tailguard_miss_ratio", "h", SimTime::from_millis(5), 0.25);
        assert_eq!(r.counter("tailguard_queries_admitted_total"), Some(5));
        assert_eq!(r.gauge("tailguard_queue_depth"), Some(7.0));
        assert_eq!(
            r.histogram("tailguard_service_ms").unwrap().count().round(),
            1.0
        );
        assert_eq!(
            r.series("tailguard_miss_ratio"),
            Some(&[(5_000_000u64, 0.25)][..])
        );
    }

    #[test]
    fn exposition_has_types_help_and_buckets() {
        let mut r = Registry::new();
        r.counter_add("tailguard_tasks_dequeued_total", "Dequeues", 4);
        r.gauge_set("tailguard_queue_depth", "Depth", 2.0);
        for v in [0.02, 0.2, 2.0, 20.0] {
            r.histogram_record("tailguard_queue_wait_ms", "Wait", v);
        }
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE tailguard_tasks_dequeued_total counter"));
        assert!(text.contains("tailguard_tasks_dequeued_total 4"));
        assert!(text.contains("# TYPE tailguard_queue_depth gauge"));
        assert!(text.contains("# TYPE tailguard_queue_wait_ms histogram"));
        assert!(text.contains("tailguard_queue_wait_ms_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("tailguard_queue_wait_ms_count 4"));
        // Cumulative buckets are monotone.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("tailguard_queue_wait_ms_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn labeled_histograms_share_one_type_line() {
        let mut r = Registry::new();
        r.histogram_record("tailguard_dequeue_slack_ms{class=\"0\"}", "Slack", 1.0);
        r.histogram_record("tailguard_dequeue_slack_ms{class=\"1\"}", "Slack", 2.0);
        let text = r.prometheus_text();
        assert_eq!(
            text.matches("# TYPE tailguard_dequeue_slack_ms histogram")
                .count(),
            1
        );
        assert!(text.contains("tailguard_dequeue_slack_ms_bucket{class=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("tailguard_dequeue_slack_ms_count{class=\"1\"} 1"));
    }

    #[test]
    fn ingest_events_builds_lifecycle_counters_and_phase_histograms() {
        let mut r = Registry::new();
        let events = [
            TraceEvent::QueryAdmitted {
                at: SimTime::ZERO,
                query: 0,
                class: 0,
                fanout: 1,
                deadline: SimTime::from_millis(1),
            },
            TraceEvent::TaskDequeued {
                at: SimTime::ZERO,
                task: 0,
                slot: 0,
                query: 0,
                class: 0,
                kind: AttemptKind::Original,
                server: 0,
                token: tailguard_sched::LeaseToken(1),
                waited: SimDuration::from_millis(2),
                slack_ns: -1_000_000,
            },
            TraceEvent::TaskCompleted {
                at: SimTime::from_millis(3),
                task: 0,
                slot: 0,
                query: 0,
                server: 0,
                busy: SimDuration::from_millis(3),
                won: true,
            },
            TraceEvent::LeaseReclaimed {
                at: SimTime::from_millis(4),
                task: 1,
                query: 1,
                server: 0,
                token: tailguard_sched::LeaseToken(2),
            },
            TraceEvent::DuplicateSuppressed {
                at: SimTime::from_millis(5),
                task: 0,
                query: 0,
                server: 0,
            },
        ];
        r.ingest_events(&events);
        assert_eq!(r.counter("tailguard_queries_admitted_total"), Some(1));
        assert_eq!(r.counter("tailguard_tasks_dequeued_total"), Some(1));
        assert_eq!(r.counter("tailguard_leases_reclaimed_total"), Some(1));
        assert_eq!(r.counter("tailguard_duplicates_suppressed_total"), Some(1));
        assert!(r.histogram("tailguard_queue_wait_ms").is_some());
        assert!(r.histogram("tailguard_service_ms").is_some());
        assert!(
            r.histogram("tailguard_dequeue_lateness_ms{class=\"0\"}")
                .is_some(),
            "negative slack lands in the lateness histogram"
        );
    }

    #[test]
    fn ingest_lifecycle_publishes_gauges_and_counters() {
        let mut r = Registry::new();
        // Simulate the event-derived value being present first: the
        // authoritative store value must overwrite it.
        r.counter_add("tailguard_leases_reclaimed_total", "h", 1);
        let lc = LifecycleStats {
            queued: 2,
            leased: 1,
            running: 3,
            completed: 40,
            failed: 5,
            leases_issued: 48,
            reclaims: 6,
            duplicates_suppressed: 7,
            stale_commits_rejected: 8,
        };
        r.ingest_lifecycle(&lc);
        assert_eq!(r.gauge("tailguard_tasks_queued"), Some(2.0));
        assert_eq!(r.gauge("tailguard_tasks_leased"), Some(1.0));
        assert_eq!(r.gauge("tailguard_tasks_running"), Some(3.0));
        assert_eq!(r.counter("tailguard_tasks_state_completed_total"), Some(40));
        assert_eq!(r.counter("tailguard_tasks_state_failed_total"), Some(5));
        assert_eq!(r.counter("tailguard_leases_issued_total"), Some(48));
        assert_eq!(r.counter("tailguard_leases_reclaimed_total"), Some(6));
        assert_eq!(r.counter("tailguard_duplicates_suppressed_total"), Some(7));
        assert_eq!(r.counter("tailguard_stale_commits_rejected_total"), Some(8));
    }

    #[test]
    fn json_snapshot_serializes() {
        let mut r = Registry::new();
        r.counter_add("tailguard_queries_admitted_total", "h", 1);
        r.histogram_record("tailguard_service_ms", "h", 0.5);
        r.series_push("tailguard_queue_depth", "h", SimTime::from_millis(1), 3.0);
        let json = r.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v.get("counters").unwrap().is_array());
        assert!(v.get("series").unwrap().is_array());
    }
}
