//! The query handler: a tokio driver over the shared scheduling core.
//!
//! Deadline stamping, per-node queuing, admission control, dequeue-time
//! miss detection, and fanout aggregation all live in
//! [`tailguard_sched::QueryHandler`] — the same state machine the
//! discrete-event simulator drives. This module owns only what is
//! genuinely testbed: the channel event loop, wall-clock timestamps, the
//! per-task record ranges sent to edge nodes, and the sensing aggregates
//! (records, temperature, humidity).

use crate::node::{TaskAssignment, TaskOutcome, TaskResult};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use tailguard_metrics::LatencyReservoir;
use tailguard_obs::{publish_run, BinaryRecorder, RunSummary, SharedRegistry};
use tailguard_policy::Policy;
use tailguard_sched::units;
use tailguard_sched::{
    AdmissionConfig, AdmitDecision, AttemptKind, ClassSpec, CommitOutcome, DeadlineEstimator,
    DispatchedTask, HealthConfig, LeaseToken, MitigationConfig, QueryArrival, QueryHandler,
    SchedStats, TaskCompletion,
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

/// Everything the handler hands back when the run completes. Durations
/// are in the scaled wall domain.
#[derive(Debug)]
pub(crate) struct HandlerOutput {
    /// The scheduling core's measurements: latencies, load, and the
    /// robustness, lifecycle and health counters.
    pub stats: SchedStats,
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
}

pub(crate) struct HandlerConfig {
    pub policy: Policy,
    pub scaled_classes: Vec<ClassSpec>, // per class, wall-scaled SLOs
    pub admission: Option<AdmissionConfig>, // window in the scaled domain
    pub mitigation: Option<MitigationConfig>, // hedging/retry/partial quorum
    pub health: Option<HealthConfig>,   // gray-failure ejection (dimensionless)
    pub expected_queries: u64,
    /// Lease TTL in the *scaled* wall domain. When set, every dispatch
    /// issues a fencing token and arms a reclaim timer; a node that goes
    /// silent past the TTL has its task re-enqueued with the original
    /// deadline, and any late result it still sends is fenced off.
    pub lease_ttl: Option<SimDuration>,
    /// When set, the handler records lifecycle events into a
    /// [`BinaryRecorder`] and keeps this registry current: queue-depth and
    /// miss-ratio series during the run (so a live `/metrics` scrape sees
    /// them), full counters/histograms at the end. All durations are in
    /// the *compressed* wall domain (`tailguard_run_time_scale` converts).
    pub registry: Option<SharedRegistry>,
}

/// Runs the query handler until `expected_queries` queries have completed
/// or been rejected.
///
/// `queries` delivers load-generator queries; `results` delivers node
/// completions; `node_txs` are the per-node task channels. The estimator
/// must already be seeded (offline calibration) and works in the scaled
/// wall-clock millisecond domain.
pub(crate) async fn query_handler(
    cfg: HandlerConfig,
    estimator: DeadlineEstimator,
    mut queries: mpsc::UnboundedReceiver<IncomingQuery>,
    mut results: mpsc::UnboundedReceiver<TaskResult>,
    node_txs: Vec<mpsc::UnboundedSender<TaskAssignment>>,
) -> HandlerOutput {
    let n = node_txs.len();
    let mut core = QueryHandler::new(
        cfg.policy,
        cfg.scaled_classes.clone(),
        n,
        estimator,
        cfg.admission,
    );
    if let Some(mitigation) = cfg.mitigation {
        core = core.with_mitigation(mitigation);
    }
    if let Some(ttl) = cfg.lease_ttl {
        core = core.with_lease(ttl);
    }
    if let Some(hc) = cfg.health {
        core = core.with_health(hc);
    }
    let recorder = cfg
        .registry
        .as_ref()
        .map(|_| BinaryRecorder::with_capacity(tailguard::DEFAULT_RING_CAPACITY));
    if let Some(rec) = &recorder {
        core = core.with_trace_sink(rec.sink());
    }
    // Results processed since the last live registry sample; sampling every
    // 64 keeps the registry mutex off the per-task hot path.
    let mut results_since_sample = 0u32;
    let mut started: Vec<DispatchedTask> = Vec::new();

    let epoch = Instant::now();
    let mut nodes = Nodes {
        epoch,
        txs: node_txs,
        tasks: Vec::new(),
        lease_heap: BinaryHeap::new(),
    };
    let mut post_queuing_by_node: Vec<LatencyReservoir> =
        (0..n).map(|_| LatencyReservoir::new()).collect();
    let mut records_retrieved = 0u64;
    let mut temperature_sum = 0.0f64;
    let mut humidity_sum = 0.0f64;
    let mut task_results = 0u64;
    let mut worker_panics = 0u64;
    // Pending hedge thresholds: (wall deadline, slot task id), earliest
    // first. Stale entries (slot already resolved) are dropped when due.
    let mut hedge_heap: BinaryHeap<Reverse<(Instant, u32)>> = BinaryHeap::new();

    let to_sim = |i: Instant| -> SimTime {
        SimTime::from_nanos(units::sat_u128_to_u64(i.duration_since(epoch).as_nanos()))
    };

    loop {
        {
            let stats = core.stats();
            let finished = stats.completed_queries
                + stats.rejected_queries
                + stats.robustness.partial_completions
                + stats.robustness.failed_queries;
            if finished >= cfg.expected_queries {
                break;
            }
        }
        // Biased four-way select, hand-rolled at the poll level: node
        // results are always drained before hedge timers (a completion can
        // make a pending hedge moot), hedges before lease reclaims (both
        // are timers, but a hedge can resolve the slot a reclaim would
        // touch), and all of those before new queries (completions free
        // servers, so this keeps queue depth honest); the loop ends when
        // both channels are closed and drained.
        let mut hedge_sleep = hedge_heap
            .peek()
            .map(|Reverse((at, _))| Box::pin(tokio::time::sleep_until(*at)));
        let mut lease_sleep = nodes
            .lease_heap
            .peek()
            .map(|Reverse((at, _))| Box::pin(tokio::time::sleep_until(*at)));
        let event = std::future::poll_fn(|cx| {
            let mut results_closed = false;
            match results.poll_recv(cx) {
                std::task::Poll::Ready(Some(result)) => {
                    return std::task::Poll::Ready(HandlerEvent::Result(result))
                }
                std::task::Poll::Ready(None) => results_closed = true,
                std::task::Poll::Pending => {}
            }
            if let Some(sleep) = hedge_sleep.as_mut() {
                if sleep.as_mut().poll(cx).is_ready() {
                    return std::task::Poll::Ready(HandlerEvent::HedgeDue);
                }
            }
            if let Some(sleep) = lease_sleep.as_mut() {
                if sleep.as_mut().poll(cx).is_ready() {
                    return std::task::Poll::Ready(HandlerEvent::LeaseDue);
                }
            }
            match queries.poll_recv(cx) {
                std::task::Poll::Ready(Some(query)) => {
                    return std::task::Poll::Ready(HandlerEvent::Query(query))
                }
                std::task::Poll::Ready(None) if results_closed => {
                    return std::task::Poll::Ready(HandlerEvent::Closed)
                }
                std::task::Poll::Ready(None) | std::task::Poll::Pending => {}
            }
            std::task::Poll::Pending
        })
        .await;
        match event {
            HandlerEvent::Result(result) if result.outcome == TaskOutcome::Ok => {
                let node = result.node as usize;
                let task = result.task_id as u32;
                let now = Instant::now();
                let post_queuing = SimDuration::from_nanos(units::sat_u128_to_u64(
                    now.duration_since(
                        nodes.tasks[task as usize]
                            .dispatched_at
                            .expect("result implies dispatch"),
                    )
                    .as_nanos(),
                ));
                // Commit under the result's fencing token FIRST: busy
                // accounting, estimator updates (§III.B.2), work
                // conservation, and aggregation happen in the core only
                // when the commit lands. A redelivered or zombie result
                // (its lease was reclaimed and the task re-issued) must
                // not double-count records or node latency either, so the
                // driver-side aggregates below are gated the same way.
                let now = to_sim(now);
                let completion =
                    core.on_task_complete(now, task, LeaseToken(result.lease), post_queuing);
                if completion.commit == CommitOutcome::Committed {
                    post_queuing_by_node[node].record(post_queuing);
                    records_retrieved += result.records as u64;
                    temperature_sum += f64::from(result.mean_temperature);
                    humidity_sum += f64::from(result.mean_humidity);
                    task_results += 1;
                }
                nodes.apply(&mut core, now, completion);
                if let Some(reg) = &cfg.registry {
                    results_since_sample += 1;
                    if results_since_sample >= 64 {
                        results_since_sample = 0;
                        sample_registry(reg, &core, to_sim(Instant::now()));
                    }
                }
            }
            HandlerEvent::Result(result) => {
                // Lost (fault episode) or Failed (worker panic): no
                // payload, no busy/estimator update — the core frees the
                // server, plans a retry if configured, and resolves the
                // query as failed when no live attempt remains.
                if result.outcome == TaskOutcome::Failed {
                    worker_panics += 1;
                }
                let now = to_sim(Instant::now());
                let lost = core.on_task_lost(now, result.task_id as u32, LeaseToken(result.lease));
                nodes.apply(&mut core, now, lost);
            }
            HandlerEvent::HedgeDue => {
                let wall = Instant::now();
                let now = to_sim(wall);
                while let Some(slot) = pop_due(&mut hedge_heap, wall) {
                    // Slot already resolved or at its attempt cap → the
                    // timer is stale; drop it.
                    if let Some(server) = core.copy_target(now, slot) {
                        nodes.issue_copy(&mut core, now, slot, server, AttemptKind::Hedge);
                    }
                }
            }
            HandlerEvent::LeaseDue => {
                let wall = Instant::now();
                let now = to_sim(wall);
                while let Some((task, token)) = pop_due(&mut nodes.lease_heap, wall) {
                    // The core validates the token against the store: a
                    // task that committed, failed, or re-leased since this
                    // timer was armed is left alone. A genuine expiry
                    // reclaims the lease, begins the task again with its
                    // ORIGINAL deadline, and may start the freed node on
                    // its next queued task (often the reclaimed one, whose
                    // dispatch re-arms its lease timer).
                    if let Some(Some(d)) = core.on_lease_expired(now, task, LeaseToken(token)) {
                        nodes.dispatch(d);
                    }
                }
            }
            HandlerEvent::Query(query) => {
                let decision = core.on_query_arrival(
                    to_sim(Instant::now()),
                    QueryArrival {
                        class: query.class,
                        targets: &query.servers,
                        // No size oracle on a live testbed: nodes measure
                        // their own service times.
                        sizes: None,
                        budget_override: None,
                        task_budgets: None,
                        record: true,
                    },
                    &mut started,
                );
                if let AdmitDecision::Admitted { query: id } = decision {
                    nodes
                        .tasks
                        .extend(query.ranges.iter().map(|&range| NodeTask {
                            range,
                            dispatched_at: None,
                        }));
                    for (task, at) in core.hedge_checks(id) {
                        hedge_heap.push(Reverse((
                            epoch + std::time::Duration::from_nanos(at.as_nanos()),
                            task,
                        )));
                    }
                    for &d in &started {
                        nodes.dispatch(d);
                    }
                }
            }
            HandlerEvent::Closed => break, // both channels closed
        }
    }

    let elapsed = SimDuration::from_nanos(units::sat_u128_to_u64(epoch.elapsed().as_nanos()));
    if let Some(reg) = &cfg.registry {
        sample_registry(reg, &core, SimTime::from_nanos(elapsed.as_nanos()));
    }
    let budget_lookups = core.estimator().budget_lookup_count();
    let estimator_refreshes = core.estimator().refresh_count();
    let cached_budgets = core.estimator().cached_budget_count() as u64;
    let adaptive = core.estimator().adaptive().is_some();
    // Consuming the core flushes its staged trace records into the
    // recorder, which `publish_run` then decodes once.
    let stats = core.into_stats();
    if let (Some(reg), Some(rec)) = (&cfg.registry, &recorder) {
        publish_run(
            &mut reg.lock().unwrap(),
            rec,
            &cfg.scaled_classes,
            None,
            &RunSummary {
                robustness: &stats.robustness,
                lifecycle: &stats.lifecycle,
                health: &stats.health,
                server_health: &stats.server_health,
                window_rolls: adaptive.then_some(stats.estimator_window_rolls),
                budget_lookups,
                estimator_refreshes,
                cached_budgets,
                completed_queries: stats.completed_queries,
                elapsed_ms: elapsed.as_millis_f64(),
                deadline_miss_ratio: stats.load.deadline_miss_ratio(),
            },
        );
    }
    HandlerOutput {
        stats,
        post_queuing_by_node,
        elapsed,
        records_retrieved,
        temperature_sum,
        humidity_sum,
        task_results,
        worker_panics,
    }
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

/// What the driver knows about one task, indexed by the core's sequential
/// task id: what to fetch, and when the node started on it.
struct NodeTask {
    /// Record range `(start_day, days)`.
    range: (u32, u32),
    dispatched_at: Option<Instant>,
}

/// The driver's side of a dispatch: the edge-node channels, the per-task
/// state, and the lease-reclaim timers.
struct Nodes {
    epoch: Instant,
    txs: Vec<mpsc::UnboundedSender<TaskAssignment>>,
    tasks: Vec<NodeTask>,
    /// Pending lease expiries: (wall expiry, (task, token)). Entries whose
    /// token no longer matches the store (task committed, failed, or
    /// already reclaimed) are no-ops when due — the core rejects them.
    lease_heap: BinaryHeap<Reverse<(Instant, (u32, u64))>>,
}

impl Nodes {
    /// Sends a task the core just moved into service to its edge node,
    /// arming its lease-reclaim timer when leasing is on.
    fn dispatch(&mut self, d: DispatchedTask) {
        let task = &mut self.tasks[d.task as usize];
        task.dispatched_at = Some(Instant::now());
        let (start_day, days) = task.range;
        if let Some(expiry) = d.lease_expires_at {
            self.lease_heap.push(Reverse((
                self.epoch + std::time::Duration::from_nanos(expiry.as_nanos()),
                (d.task, d.lease.0),
            )));
        }
        // A closed node channel means shutdown is racing completion; the
        // expected-queries accounting still terminates the loop.
        let _ = self.txs[d.server as usize].send(TaskAssignment {
            task_id: u64::from(d.task),
            start_day,
            days,
            lease: d.lease.0,
        });
    }

    /// Issues a hedge or retry copy of `slot` on `server`: same record
    /// range, fresh attempt.
    fn issue_copy(
        &mut self,
        core: &mut QueryHandler,
        now: SimTime,
        slot: u32,
        server: u32,
        kind: AttemptKind,
    ) {
        let (task, dispatched) = core.issue_duplicate(now, slot, server, None, kind);
        debug_assert_eq!(task as usize, self.tasks.len());
        self.tasks.push(NodeTask {
            range: self.tasks[slot as usize].range,
            dispatched_at: None,
        });
        if let Some(d) = dispatched {
            self.dispatch(d);
        }
    }

    /// Applies the fallout of an attempt ending: the freed node's next
    /// task, then the retry the core planned for a lost one. A finished
    /// query needs no driving here — the sas workload has no request
    /// chaining, and its accounting already happened in the core.
    fn apply(&mut self, core: &mut QueryHandler, now: SimTime, ended: TaskCompletion) {
        if let Some(d) = ended.next {
            self.dispatch(d);
        }
        if let Some(retry) = ended.retry {
            self.issue_copy(core, now, retry.slot, retry.server, AttemptKind::Retry);
        }
    }
}

/// Pops the earliest timer of `heap` if it is due by `wall`.
fn pop_due<T: Ord>(heap: &mut BinaryHeap<Reverse<(Instant, T)>>, wall: Instant) -> Option<T> {
    let Reverse((at, _)) = heap.peek()?;
    if *at > wall {
        return None;
    }
    heap.pop().map(|Reverse((_, what))| what)
}

/// Outcome of one biased poll over the handler's inputs.
enum HandlerEvent {
    /// A node completed (or lost) a task.
    Result(TaskResult),
    /// The earliest pending hedge threshold elapsed.
    HedgeDue,
    /// The earliest pending lease expiry elapsed.
    LeaseDue,
    /// The load generator produced a query.
    Query(IncomingQuery),
    /// Both channels closed and drained.
    Closed,
}
