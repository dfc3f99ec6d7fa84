//! The query handler: the testbed's transport under the shared driver.
//!
//! Deadline stamping, per-node queuing, admission control, dequeue-time
//! miss detection, fanout aggregation, copies and lease reclaims all live
//! in [`tailguard_sched::Driver`] and its [`QueryHandler`] — the same loop
//! and state machine the discrete-event simulator runs. This module owns
//! only what is genuinely testbed: the channel event loop, wall-clock
//! timestamps and timers, the record ranges sent to edge nodes, and the
//! sensing aggregates (records, temperature, humidity).

use crate::node::{TaskAssignment, TaskOutcome, TaskResult};
use crate::runner::TestbedConfig;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::task::Poll;
use tailguard_metrics::LatencyReservoir;
use tailguard_obs::{publish_run, BinaryRecorder, RunSummary, SharedRegistry};
use tailguard_sched::units;
use tailguard_sched::{
    AdmissionConfig, Begun, ClassSpec, CommitOutcome, DeadlineEstimator, DispatchedTask, Driver,
    LeaseToken, QueryArrival, QueryHandler, SchedStats, Timer, Transport,
};
use tailguard_simcore::{SimDuration, SimTime};
use tokio::sync::mpsc;
use tokio::time::Instant;

/// A query delivered to the handler by the load generator.
#[derive(Debug, Clone)]
pub(crate) struct IncomingQuery {
    /// Service class (A=0, B=1, C=2).
    pub class: u8,
    /// Target edge nodes, one per task.
    pub servers: Vec<u32>,
    /// Per-task record ranges `(start_day, days)`.
    pub ranges: Vec<(u32, u32)>,
}

/// What the handler gathers around the scheduling core's measurements.
/// Durations are in the scaled wall domain.
#[derive(Debug, Default)]
pub(crate) struct HandlerOutput {
    pub post_queuing_by_node: Vec<LatencyReservoir>,
    pub elapsed: SimDuration,
    pub records_retrieved: u64,
    /// Sum of per-task mean temperatures — the aggregator's running merge
    /// (used to report a fleet-wide mean reading).
    pub temperature_sum: f64,
    pub humidity_sum: f64,
    pub task_results: u64,
    /// Tasks whose worker panicked (counted on top of `tasks_lost_to_faults`).
    pub worker_panics: u64,
    /// Node reports the driver fenced off (stale or duplicate).
    pub fenced_reports: u64,
    /// Task rows the driver still held when the run ended.
    pub task_rows_held: u32,
    /// The flight recorder, when `config.registry` is set.
    pub recorder: Option<BinaryRecorder>,
}

/// Runs the query handler until `config.queries` queries have finished,
/// returning the scheduling core's measurements and its own.
///
/// `queries` delivers load-generator queries; `results` delivers node
/// completions; `node_txs` are the per-node task channels. The estimator
/// must already be seeded (offline calibration) and, like the per-class
/// SLOs in `scaled_classes`, works in the scaled wall-clock millisecond
/// domain. When `config.registry` is set, the handler records lifecycle
/// events into a [`BinaryRecorder`] and keeps the registry current:
/// queue-depth and miss-ratio series during the run (so a live `/metrics`
/// scrape sees them), full counters/histograms at the end, all in the
/// *compressed* wall domain (`tailguard_run_time_scale` converts).
pub(crate) async fn query_handler(
    config: &TestbedConfig,
    scaled_classes: Vec<ClassSpec>,
    estimator: DeadlineEstimator,
    mut queries: mpsc::UnboundedReceiver<IncomingQuery>,
    mut results: mpsc::UnboundedReceiver<TaskResult>,
    node_txs: Vec<mpsc::UnboundedSender<TaskAssignment>>,
) -> (SchedStats, HandlerOutput) {
    let n = node_txs.len();
    // Compress the admission window like every other duration; the
    // thresholds and hysteresis pass through.
    let admission = config.admission.map(|a| AdmissionConfig {
        window: SimDuration::from_millis_f64(a.window.as_millis_f64() / config.time_scale),
        ..a
    });
    let mut core = QueryHandler::new(
        config.policy,
        scaled_classes.clone(),
        n,
        estimator,
        admission,
    );
    // Hedge thresholds and quorums are fractions of budget and fanout, and
    // health thresholds ratios against the live cluster median: all
    // dimensionless, so they pass through uncompressed.
    if let Some(mitigation) = config.mitigation {
        core = core.with_mitigation(mitigation);
    }
    // The lease TTL is a Pi-time knob like the SLOs; compress it into the
    // wall domain the handler's timers run in.
    if let Some(ttl) = config.lease_ttl {
        let scaled = units::scale_ns(ttl.as_nanos(), config.time_scale.recip());
        core = core.with_lease(SimDuration::from_nanos(scaled));
    }
    if let Some(hc) = config.health {
        core = core.with_health(hc);
    }
    let registry = config.registry.as_ref();
    let recorder =
        registry.map(|_| BinaryRecorder::with_capacity(tailguard::DEFAULT_RING_CAPACITY));
    if let Some(rec) = &recorder {
        core = core.with_trace_sink(rec.sink());
    }
    // Results processed since the last live registry sample; sampling every
    // 64 keeps the registry mutex off the per-task hot path.
    let mut results_since_sample = 0u32;

    let epoch = Instant::now();
    let nodes = Nodes {
        epoch,
        txs: node_txs,
        timers: BinaryHeap::new(),
    };
    let mut driver = Driver::new(core, nodes);
    let mut out = HandlerOutput {
        post_queuing_by_node: (0..n).map(|_| LatencyReservoir::new()).collect(),
        ..HandlerOutput::default()
    };

    let to_sim = |i: Instant| -> SimTime {
        SimTime::from_nanos(units::sat_u128_to_u64(i.duration_since(epoch).as_nanos()))
    };
    let finished = |core: &QueryHandler| {
        let stats = core.stats();
        let failed = stats.robustness.partial_completions + stats.robustness.failed_queries;
        stats.completed_queries + stats.rejected_queries + failed
    };
    while finished(driver.handler()) < config.queries as u64 {
        // Biased three-way select, hand-rolled at the poll level: node
        // results are always drained before timers (a completion can make
        // a pending hedge or reclaim moot), and timers before new queries
        // (completions free servers, so this keeps queue depth honest);
        // the loop ends when both channels are closed and drained.
        let mut timer_sleep = driver
            .transport
            .timers
            .peek()
            .map(|Reverse((at, _))| Box::pin(tokio::time::sleep_until(*at)));
        let event = std::future::poll_fn(|cx| {
            let mut results_closed = false;
            match results.poll_recv(cx) {
                Poll::Ready(Some(result)) => return Poll::Ready(HandlerEvent::Result(result)),
                Poll::Ready(None) => results_closed = true,
                Poll::Pending => {}
            }
            if let Some(sleep) = timer_sleep.as_mut() {
                if sleep.as_mut().poll(cx).is_ready() {
                    return Poll::Ready(HandlerEvent::TimerDue);
                }
            }
            match queries.poll_recv(cx) {
                Poll::Ready(Some(query)) => return Poll::Ready(HandlerEvent::Query(query)),
                Poll::Ready(None) if results_closed => return Poll::Ready(HandlerEvent::Closed),
                Poll::Ready(None) | Poll::Pending => {}
            }
            Poll::Pending
        })
        .await;
        let wall = Instant::now();
        let now = to_sim(wall);
        match event {
            HandlerEvent::Result(result) => {
                let (task, token) = (result.task_id as u32, LeaseToken(result.lease));
                // Measured from the dispatch instant the node echoed back:
                // a late report's row may have retired.
                let post_queuing = SimDuration::from_nanos(units::sat_u128_to_u64(
                    wall.duration_since(result.dispatched_at).as_nanos(),
                ));
                // Commit under the result's fencing token FIRST: busy
                // accounting, estimator updates (§III.B.2), work
                // conservation, and aggregation happen in the core only
                // when the commit lands. A redelivered or zombie result
                // must not double-count records or node latency either, so
                // the aggregates below are gated the same way. Lost (fault
                // episode) or Failed (worker panic): no payload, no
                // busy/estimator update — the core frees the server, plans
                // a retry if configured, and resolves the query as failed
                // when no live attempt remains.
                let ok = result.outcome == TaskOutcome::Ok;
                let commit = driver.report(now, task, token, ok.then_some(post_queuing));
                if commit != CommitOutcome::Committed {
                    out.fenced_reports += 1;
                } else if ok {
                    out.post_queuing_by_node[result.node as usize].record(post_queuing);
                    out.records_retrieved += result.records as u64;
                    out.temperature_sum += f64::from(result.mean_temperature);
                    out.humidity_sum += f64::from(result.mean_humidity);
                    out.task_results += 1;
                }
                out.worker_panics += u64::from(result.outcome == TaskOutcome::Failed);
                // A finished query needs no driving here — the sas workload
                // has no request chaining, and its accounting already
                // happened in the core.
                while driver.drain(now).is_some() {}
                if let Some(reg) = registry {
                    results_since_sample += 1;
                    if results_since_sample >= 64 {
                        results_since_sample = 0;
                        sample_registry(reg, driver.handler(), to_sim(Instant::now()));
                    }
                }
            }
            // The earliest timer; any other due one fires next time round,
            // after the results that arrived meanwhile.
            HandlerEvent::TimerDue => {
                if let Some(Reverse((_, timer))) = driver.transport.timers.pop() {
                    driver.on_timer(now, timer);
                    while driver.drain(now).is_some() {}
                }
            }
            HandlerEvent::Query(query) => {
                let arrival = QueryArrival {
                    class: query.class,
                    targets: &query.servers,
                    // No size oracle on a live testbed: nodes measure
                    // their own service times.
                    sizes: None,
                    budget_override: None,
                    task_budgets: None,
                    record: true,
                };
                driver.admit(now, arrival, &query.ranges, ());
                while driver.drain(now).is_some() {}
            }
            HandlerEvent::Closed => break, // both channels closed
        }
    }

    let elapsed = SimDuration::from_nanos(units::sat_u128_to_u64(epoch.elapsed().as_nanos()));
    out.elapsed = elapsed;
    if let Some(reg) = registry {
        let end = SimTime::from_nanos(elapsed.as_nanos());
        sample_registry(reg, driver.handler(), end);
    }
    out.task_rows_held = driver.rows_held();
    let core = driver.into_handler();
    let adaptive = core.estimator().adaptive().is_some();
    // Consuming the core flushes its staged trace records into the
    // recorder, which `publish_run` then decodes once.
    let stats = core.into_stats();
    if let (Some(reg), Some(rec)) = (registry, &recorder) {
        publish_run(
            &mut reg.lock().unwrap(),
            rec,
            &scaled_classes,
            None,
            &RunSummary {
                robustness: &stats.robustness,
                lifecycle: &stats.lifecycle,
                health: &stats.health,
                server_health: &stats.server_health,
                window_rolls: adaptive.then_some(stats.estimator_window_rolls),
                budget_lookups: stats.budget_lookups,
                estimator_refreshes: stats.estimator_refreshes,
                cached_budgets: stats.cached_budgets,
                completed_queries: stats.completed_queries,
                elapsed_ms: elapsed.as_millis_f64(),
                deadline_miss_ratio: stats.load.deadline_miss_ratio(),
            },
        );
    }
    out.recorder = recorder;
    (stats, out)
}

/// Pushes one live sample of queue depth, busy nodes, and miss ratio into
/// the shared registry (as time series, whose latest point the Prometheus
/// exposition surfaces as a gauge).
fn sample_registry(reg: &SharedRegistry, core: &QueryHandler, now: SimTime) {
    let mut reg = reg.lock().unwrap();
    reg.series_push(
        "tailguard_queue_depth",
        "Tasks queued across all per-node queues",
        now,
        core.queued_tasks() as f64,
    );
    reg.series_push(
        "tailguard_servers_busy",
        "Edge nodes with a task in service",
        now,
        core.servers_busy() as f64,
    );
    reg.series_push(
        "tailguard_deadline_miss_ratio",
        "Cumulative dequeue-time deadline-miss ratio",
        now,
        core.stats().load.deadline_miss_ratio(),
    );
}

/// The testbed's transport: the edge-node channels and the one wall
/// timer heap. A task's row is its record range `(start_day, days)`.
struct Nodes {
    epoch: Instant,
    txs: Vec<mpsc::UnboundedSender<TaskAssignment>>,
    /// Armed timers, earliest first; at one instant a hedge check comes
    /// before a lease expiry, as [`Timer`] orders them.
    timers: BinaryHeap<Reverse<(Instant, Timer)>>,
}

impl Transport for Nodes {
    type Row = (u32, u32);
    type Tag = ();

    fn begin(&mut self, _now: SimTime, d: DispatchedTask, (start_day, days): (u32, u32)) -> Begun {
        // A closed node channel means shutdown is racing completion; the
        // expected-queries accounting still terminates the loop.
        let _ = self.txs[d.server as usize].send(TaskAssignment {
            task_id: u64::from(d.task),
            start_day,
            days,
            lease: d.lease.0,
            dispatched_at: Instant::now(),
        });
        Begun::Runs
    }

    fn arm(&mut self, at: SimTime, timer: Timer) {
        let at = self.epoch + std::time::Duration::from_nanos(at.as_nanos());
        self.timers.push(Reverse((at, timer)));
    }

    /// A copy fetches the same record range; nodes have no size oracle.
    fn copy(&mut self, _: SimTime, _: u32, range: (u32, u32)) -> ((u32, u32), Option<SimDuration>) {
        (range, None)
    }
}

/// Outcome of one biased poll over the handler's inputs.
enum HandlerEvent {
    /// A node completed (or lost) a task.
    Result(TaskResult),
    /// The earliest armed timer came due.
    TimerDue,
    /// The load generator produced a query.
    Query(IncomingQuery),
    /// Both channels closed and drained.
    Closed,
}
