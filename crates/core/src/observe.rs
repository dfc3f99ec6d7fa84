//! Observed simulation runs: [`run_simulation`](crate::run_simulation)
//! with the flight recorder on.
//!
//! [`run_simulation_observed`] drives the exact same event loop as the
//! plain entry point, but installs a bounded [`BinaryRecorder`] sink as
//! the handler's [`TraceSink`](tailguard_sched::TraceSink) — events are
//! encoded into a fixed-width binary layout on the hot path and decoded
//! back only here, at analysis time — samples [`SimSnapshot`]s at a
//! configurable virtual-time cadence, and distills everything into a
//! [`Registry`] ([`publish_run`], shared with the testbed) — the one place
//! the CLI `--json` output, the Prometheus exposition, and the JSON
//! snapshot dumps all read from.
//!
//! The observed run is still fully deterministic in `(config.seed,
//! input)`: tracing draws no randomness and snapshot events touch no
//! handler state. Relative to the unobserved run only `events_processed`
//! differs (snapshot events are engine events too); every latency,
//! load, and count in the report is identical.

use crate::cluster::run_with_observer;
use crate::report::SimReport;
use crate::spec::{RequestInput, SimConfig};
use serde::Serialize;
use tailguard_obs::{
    publish_run, BinaryRecorder, Registry, RunSummary, SamplerConfig, SloConfig, SloSnapshot,
};
use tailguard_simcore::{SimDuration, SimTime};

/// Default [`BinaryRecorder`] capacity: at 51 bytes per encoded event
/// this bounds the recording near 51 MiB while still holding every event
/// of the golden-pin-sized runs (10 000 queries ≈ 60 000 events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// Always-on flight-recorder capacity: the last 16 384 events (~817 KiB
/// encoded), sized so ring, staging blocks, and recycled allocations stay
/// cache-resident. Recording overhead is dominated by *retention volume*,
/// not encoding — filling [`DEFAULT_RING_CAPACITY`]'s tens of megabytes
/// first-touches cold pages and roughly doubles the recording cost, while
/// a ring at this bound recycles warm blocks and stays within the ≤15%
/// always-on budget (tgbench's `obs.recording_overhead_pct` measures this
/// capacity; DESIGN.md §12 gives the full-capacity figure). Use the full
/// capacity when the analysis needs the whole run (`tailguard trace`,
/// `sim --json`); use this bound when tracing stays on and only the
/// recent window matters.
pub const FLIGHT_RING_CAPACITY: usize = 1 << 14;

/// One sample of the cluster's state at a point in virtual time.
///
/// Instantaneous fields (`queued_tasks`, `servers_busy`) describe the
/// moment; the rest are the handler's cumulative counters, so deltas
/// between consecutive snapshots give per-interval rates.
#[derive(Debug, Clone, Serialize)]
pub struct SimSnapshot {
    /// Virtual time of the sample in nanoseconds.
    pub at_ns: u64,
    /// Tasks queued across all per-server queues (not yet in service).
    pub queued_tasks: u64,
    /// Servers with a task in service.
    pub servers_busy: u64,
    /// Cumulative queries offered to admission control.
    pub queries_offered: u64,
    /// Cumulative queries admitted.
    pub queries_accepted: u64,
    /// Cumulative queries rejected.
    pub queries_rejected: u64,
    /// Cumulative task attempts moved into service.
    pub tasks_dispatched: u64,
    /// Cumulative task attempts that finished service.
    pub tasks_completed: u64,
    /// Cumulative dequeue-time deadline misses (§III.C's signal).
    pub deadline_misses: u64,
    /// Cumulative deadline-miss ratio over dequeue outcomes.
    pub deadline_miss_ratio: f64,
}

/// Tuning knobs for [`run_simulation_observed`].
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// Most recent events the [`BinaryRecorder`] retains
    /// ([`DEFAULT_RING_CAPACITY`] by default).
    pub ring_capacity: usize,
    /// Virtual-time interval between [`SimSnapshot`]s; must be positive
    /// (a zero cadence would re-arm the snapshot at the same instant
    /// forever). `None` picks the admission window when one is configured
    /// (so the sampling cadence matches the controller's decision cadence)
    /// and 10 ms otherwise.
    pub snapshot_every: Option<SimDuration>,
    /// Tail-aware sampling in front of the recorder: interesting queries
    /// (misses, hedges, retries, losses, reclaims, slow dequeues) are
    /// retained whole, healthy ones at the configured per-mille rate.
    /// `None` (the default) records every event.
    ///
    /// The registry's event-derived counters and histograms and the SLO
    /// monitor are built from the retained stream, so with sampling on
    /// they describe the kept queries, not the run. The stream is also in
    /// bundle order (each kept query's events released at its
    /// completion), not time order, so the monitor's windows are those of
    /// the retained stream too. The report and the `tailguard_run_*` and
    /// `tailguard_mitigation_*` metrics come from the handler and still
    /// cover the whole run.
    pub sampler: Option<SamplerConfig>,
    /// SLO-monitor windowing. `None` (the default) uses the default
    /// windows with the attainment target derived from the class specs
    /// (the strictest — lowest — percentile across classes).
    pub slo: Option<SloConfig>,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            ring_capacity: DEFAULT_RING_CAPACITY,
            snapshot_every: None,
            sampler: None,
            slo: None,
        }
    }
}

/// A completed observed run: the ordinary report plus everything the
/// observability layer captured alongside it.
#[derive(Debug)]
pub struct ObservedRun {
    /// The same measurements an unobserved [`crate::run_simulation`] of
    /// this config/input produces (only `events_processed` differs, since
    /// snapshot sampling adds engine events).
    pub report: SimReport,
    /// The binary flight recorder with the retained lifecycle events —
    /// feed [`BinaryRecorder::events`] (decoded on demand) to
    /// `tailguard_obs::build_timelines` or the exporters.
    pub recorder: BinaryRecorder,
    /// Lifecycle counters, per-phase latency histograms, estimator and
    /// mitigation counters, SLO attainment/burn-rate metrics, and the
    /// queue-depth/miss-ratio series, ready for
    /// `Registry::prometheus_text` or `Registry::to_json`.
    pub registry: Registry,
    /// Virtual-time samples, oldest first; never empty (a final snapshot
    /// is always taken at the last event time).
    pub snapshots: Vec<SimSnapshot>,
    /// The sealed SLO monitor's state: per-class attainment, burn rates,
    /// windowed slack percentiles, and every alert raised.
    pub slo: SloSnapshot,
}

/// The snapshot cadence when [`ObsOptions::snapshot_every`] is `None`:
/// the admission window if admission control is on, else 10 ms.
fn default_snapshot_interval(config: &SimConfig) -> SimDuration {
    config
        .admission
        .map_or_else(|| SimDuration::from_millis(10), |a| a.window)
}

/// Runs one simulation with the flight recorder on.
///
/// Behaves exactly like [`crate::run_simulation`] — same panics, same
/// determinism guarantee, same measurements — and additionally returns the
/// recorded event stream, the snapshot series, and the populated metrics
/// [`Registry`].
///
/// # Panics
///
/// Panics where [`crate::run_simulation`] does, on the same input; and
/// before the run starts when [`ObsOptions::snapshot_every`] is
/// `Some(SimDuration::ZERO)`.
///
/// # Example
///
/// ```
/// use tailguard::{run_simulation_observed, ClassSpec, ClusterSpec, ObsOptions, SimConfig, SimInput};
/// use tailguard_dist::Deterministic;
/// use tailguard_policy::Policy;
/// use tailguard_simcore::SimDuration;
/// use tailguard_workload::{ArrivalProcess, FanoutDist, QueryMix, Trace};
///
/// let trace = Trace::generate(
///     "obs",
///     &ArrivalProcess::poisson(0.5),
///     &QueryMix::single(FanoutDist::paper_mix()),
///     500,
///     7,
/// );
/// let cfg = SimConfig::new(
///     ClusterSpec::homogeneous(100, Deterministic::new(0.5)),
///     vec![ClassSpec::p99(SimDuration::from_millis_f64(5.0))],
///     Policy::TfEdf,
/// ).with_warmup(0);
/// let run = run_simulation_observed(&cfg, &SimInput::from_trace(&trace), &ObsOptions::default());
/// assert!(!run.snapshots.is_empty());
/// assert!(run.registry.counter("tailguard_queries_admitted_total").unwrap_or(0) > 0);
/// ```
pub fn run_simulation_observed(
    config: &SimConfig,
    input: impl IntoIterator<Item = RequestInput>,
    opts: &ObsOptions,
) -> ObservedRun {
    assert!(
        !opts.snapshot_every.is_some_and(SimDuration::is_zero),
        "snapshot cadence must be positive"
    );
    let recorder = BinaryRecorder::with_capacity(opts.ring_capacity);
    let every = opts
        .snapshot_every
        .unwrap_or_else(|| default_snapshot_interval(config));
    let sink = match opts.sampler {
        Some(sampler) => recorder.sink_sampled(sampler),
        None => recorder.sink(),
    };
    let (report, snapshots) = run_with_observer(config, input.into_iter(), Some(sink), Some(every));
    // The recording is decoded once, here at analysis time; the hot path
    // only saw fixed-width binary appends.
    let mut registry = Registry::new();
    let slo = publish_run(
        &mut registry,
        &recorder,
        &config.classes,
        opts.slo,
        &RunSummary {
            robustness: &report.robustness,
            lifecycle: &report.lifecycle,
            health: &report.health,
            server_health: &report.server_health,
            window_rolls: config.adaptive.map(|_| report.estimator_window_rolls),
            budget_lookups: report.budget_lookups,
            estimator_refreshes: report.estimator_refreshes,
            cached_budgets: report.cached_budgets,
            completed_queries: report.completed_queries,
            elapsed_ms: report.elapsed.as_millis_f64(),
            deadline_miss_ratio: report.deadline_miss_ratio(),
        },
    );
    registry.counter_set(
        "tailguard_run_events_processed_total",
        "Discrete events the engine processed (snapshots included)",
        report.events_processed,
    );
    registry.gauge_set(
        "tailguard_run_accepted_load",
        "Executed busy time over cluster capacity",
        report.accepted_load(),
    );
    for s in &snapshots {
        let at = SimTime::from_nanos(s.at_ns);
        registry.series_push(
            "tailguard_queue_depth",
            "Tasks queued across all per-server queues",
            at,
            s.queued_tasks as f64,
        );
        registry.series_push(
            "tailguard_servers_busy",
            "Servers with a task in service",
            at,
            s.servers_busy as f64,
        );
        registry.series_push(
            "tailguard_deadline_miss_ratio",
            "Cumulative dequeue-time deadline-miss ratio",
            at,
            s.deadline_miss_ratio,
        );
    }
    ObservedRun {
        report,
        recorder,
        registry,
        snapshots,
        slo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_simulation;
    use crate::spec::QuerySpec;
    use crate::spec::{AdmissionConfig, ClassSpec, ClusterSpec, RequestInput, SimInput};
    use tailguard_dist::Deterministic;
    use tailguard_obs::build_timelines;
    use tailguard_policy::Policy;
    use tailguard_workload::{ArrivalProcess, FanoutDist, QueryMix, Trace};

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    fn small_config() -> SimConfig {
        SimConfig::new(
            ClusterSpec::homogeneous(8, Deterministic::new(1.0)),
            vec![ClassSpec::p99(ms(20.0))],
            Policy::TfEdf,
        )
        .with_warmup(0)
    }

    fn small_input(queries: usize) -> SimInput {
        let trace = Trace::generate(
            "observe",
            &ArrivalProcess::poisson(1.0),
            &QueryMix::single(FanoutDist::new(vec![(1, 0.4), (2, 0.3), (4, 0.3)])),
            queries,
            11,
        );
        SimInput::from_trace(&trace)
    }

    #[test]
    #[should_panic(expected = "snapshot cadence must be positive")]
    fn a_zero_snapshot_cadence_is_rejected_before_the_run() {
        let opts = ObsOptions {
            snapshot_every: Some(SimDuration::ZERO),
            ..ObsOptions::default()
        };
        run_simulation_observed(&small_config(), &small_input(10), &opts);
    }

    #[test]
    fn observed_report_matches_unobserved_except_event_count() {
        let cfg = small_config();
        let input = small_input(300);
        let mut plain = run_simulation(&cfg, &input);
        let observed = run_simulation_observed(&cfg, &input, &ObsOptions::default());
        let mut obs_report = observed.report;
        assert_eq!(plain.completed_queries, obs_report.completed_queries);
        assert_eq!(plain.rejected_queries, obs_report.rejected_queries);
        assert_eq!(plain.elapsed, obs_report.elapsed);
        assert_eq!(plain.class_tail(0, 0.99), obs_report.class_tail(0, 0.99));
        assert_eq!(
            plain.load.deadline_miss_count(),
            obs_report.load.deadline_miss_count()
        );
        // Snapshot sampling adds events but never removes any.
        assert!(obs_report.events_processed >= plain.events_processed);
    }

    #[test]
    fn observed_run_emits_snapshots_and_metrics() {
        let cfg = small_config();
        let input = small_input(300);
        let run = run_simulation_observed(
            &cfg,
            &input,
            &ObsOptions {
                snapshot_every: Some(ms(5.0)),
                ..ObsOptions::default()
            },
        );
        assert!(run.snapshots.len() > 1, "periodic sampling ran");
        // Snapshots are time-ordered and cumulative counters are monotone.
        for w in run.snapshots.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
            assert!(w[0].tasks_completed <= w[1].tasks_completed);
        }
        let last = run.snapshots.last().unwrap();
        assert_eq!(last.at_ns, run.report.elapsed.as_nanos());
        assert_eq!(
            run.registry.counter("tailguard_queries_admitted_total"),
            Some(run.report.load.queries_accepted_count())
        );
        assert!(run
            .registry
            .counter("tailguard_estimator_budget_lookups_total")
            .is_some());
        assert!(run.registry.series("tailguard_queue_depth").is_some());
    }

    #[test]
    fn empty_input_still_yields_one_snapshot() {
        let run = run_simulation_observed(
            &small_config(),
            &SimInput::default(),
            &ObsOptions::default(),
        );
        assert_eq!(run.snapshots.len(), 1);
        assert!(run.recorder.is_empty());
    }

    #[test]
    fn recorded_timelines_are_complete() {
        let cfg = small_config();
        let input = small_input(200);
        let run = run_simulation_observed(&cfg, &input, &ObsOptions::default());
        assert_eq!(run.recorder.dropped(), 0, "default capacity holds the run");
        let timelines = build_timelines(&run.recorder.events());
        assert_eq!(
            timelines.len() as u64,
            run.report.load.queries_accepted_count()
        );
        for tl in timelines.values() {
            assert!(tl.is_complete(), "query {} incomplete", tl.query);
            assert_eq!(tl.attempts.len(), tl.fanout as usize);
        }
    }

    #[test]
    fn admission_window_is_the_default_cadence() {
        let window = ms(25.0);
        let cfg =
            small_config().with_admission(AdmissionConfig::new(window, 0.5).with_min_samples(1000));
        assert_eq!(default_snapshot_interval(&cfg), window);
        assert_eq!(default_snapshot_interval(&small_config()), ms(10.0));
    }

    #[test]
    fn snapshot_sampling_resumes_after_idle_gaps() {
        // Two bursts separated by a long idle gap: sampling stops when the
        // cluster drains and re-arms on the next arrival.
        let cfg = SimConfig::new(
            ClusterSpec::homogeneous(1, Deterministic::new(2.0)),
            vec![ClassSpec::p99(ms(50.0))],
            Policy::Fifo,
        )
        .with_warmup(0);
        let input = SimInput {
            requests: [0u64, 1, 2, 1_000, 1_001]
                .iter()
                .map(|&t| RequestInput {
                    arrival: SimTime::from_millis(t),
                    queries: QuerySpec::new(0, 1).into(),
                })
                .collect(),
        };
        let run = run_simulation_observed(
            &cfg,
            &input,
            &ObsOptions {
                snapshot_every: Some(ms(1.0)),
                ..ObsOptions::default()
            },
        );
        let times: Vec<u64> = run.snapshots.iter().map(|s| s.at_ns).collect();
        assert!(
            times
                .iter()
                .any(|&t| t > SimTime::from_millis(1_000).as_nanos()),
            "second burst sampled: {times:?}"
        );
        // The idle gap is not blanketed with useless samples: far fewer
        // snapshots than the gap would hold at the 1 ms cadence.
        assert!(
            run.snapshots.len() < 100,
            "idle gap oversampled: {} snapshots",
            run.snapshots.len()
        );
    }
}
