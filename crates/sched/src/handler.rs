//! The runtime-agnostic query-handler state machine.
//!
//! [`QueryHandler`] owns everything the TailGuard query handler of Fig. 2
//! does between "a query arrives" and "its slowest task returns": deadline
//! stamping (`t_D = t_0 + T_b`, Eq. 6) via the [`DeadlineEstimator`],
//! per-server [`PolicyQueue`]s under the configured [`Policy`], window-based
//! admission with hysteresis (§III.C), dequeue-time deadline-miss detection
//! feeding the admission window, fanout aggregation (slowest-task-wins),
//! and per-class latency/load accounting.
//!
//! It is a pure event-driven core: every method takes `now` as an argument
//! and the handler holds no clock, RNG, or I/O. The discrete-event
//! simulator drives it from its event list; the tokio testbed drives it
//! from channel events under a real or paused clock. Drivers own what is
//! genuinely theirs — the sim draws placements/service times and schedules
//! `Finish` events; the testbed sends task assignments to edge-node tasks
//! and measures real post-queuing times.

use crate::admission::AdmissionController;
use crate::config::{AdmissionConfig, ClassSpec};
use crate::estimator::DeadlineEstimator;
use crate::health::{HealthConfig, HealthStats, HealthTracker};
use crate::mitigation::{MitigationConfig, RobustnessStats};
use crate::trace::{TraceEvent, TraceSink};
use crate::units;
use std::collections::BTreeMap;
use tailguard_lifecycle::{
    AttemptKind, CommitOutcome, IdRing, LeaseToken, LifecycleStats, TaskStateStore,
};
use tailguard_metrics::{LatencyReservoir, LoadStats};
use tailguard_policy::{DeadlineRule, Policy, PolicyQueue, QueuedTask, ServiceClass, TaskQueue};
use tailguard_simcore::{SimDuration, SimTime};

/// Handler-local query identifier, assigned sequentially from 0.
pub type QueryId = u32;

/// Handler-local task identifier, assigned sequentially from 0 across all
/// queries (fanout tasks of one query get consecutive ids in target order).
pub type TaskId = u32;

/// A query *type*: the paper measures tail latency separately per
/// `(class, fanout)` pair, because meeting the SLO "for queries as a whole
/// does not guarantee that queries of individual types can meet" it
/// (§IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryTypeKey {
    /// Service class index.
    pub class: u8,
    /// Query fanout.
    pub fanout: u32,
}

/// One query arrival, as the driver presents it to the handler.
///
/// Placement (and, for the simulator, pre-drawn service times) stay with
/// the driver: the handler never touches an RNG.
#[derive(Debug, Clone, Copy)]
pub struct QueryArrival<'a> {
    /// Service class index.
    pub class: u8,
    /// Target servers, one per task (`len()` = fanout `k_f`).
    pub targets: &'a [u32],
    /// Optional per-task size hints aligned with `targets` — the simulator
    /// passes its pre-drawn service times so size-aware policies (SJF) can
    /// order on them; the testbed has no oracle and passes `None`.
    pub sizes: Option<&'a [SimDuration]>,
    /// Overrides the estimator-derived pre-dequeuing budget `T_b` (request
    /// decomposition, Eq. 7).
    pub budget_override: Option<SimDuration>,
    /// Per-task budget overrides aligned with `targets` (footnote-4
    /// ablation). Takes precedence over `budget_override`.
    pub task_budgets: Option<&'a [SimDuration]>,
    /// Whether this query's latencies count toward the report (false during
    /// the simulator's warm-up prefix).
    pub record: bool,
}

/// The admission verdict for one query arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// The query was admitted and its tasks enqueued; tasks that landed on
    /// idle servers were started immediately (reported via the `started`
    /// out-parameter of [`QueryHandler::on_query_arrival`]).
    Admitted {
        /// The id assigned to the admitted query.
        query: QueryId,
    },
    /// The query was rejected by admission control; no state was created.
    Rejected,
}

/// A task entering service on a server — the driver's cue to begin the
/// actual work (schedule a `Finish` event; send the node an assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchedTask {
    /// The task now in service.
    pub task: TaskId,
    /// The server serving it.
    pub server: u32,
    /// The fencing token of the lease this dispatch runs under. The driver
    /// must hand it back with the result ([`QueryHandler::on_task_complete`]
    /// / [`QueryHandler::on_task_lost`]) so a stale incarnation's report can
    /// be rejected.
    pub lease: LeaseToken,
    /// When that lease expires, if a TTL is configured
    /// ([`QueryHandler::with_lease`]) — the driver calls
    /// [`QueryHandler::on_lease_expired`] then (virtual time in the
    /// simulator; a wall timer in the testbed).
    pub lease_expires_at: Option<SimTime>,
}

/// A fully aggregated query (its slowest task just completed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryDone {
    /// The completed query.
    pub query: QueryId,
    /// Its service class.
    pub class: u8,
    /// Its fanout.
    pub fanout: u32,
    /// Arrival-to-last-task latency.
    pub latency: SimDuration,
    /// Whether the latency was recorded into the handler's reservoirs.
    pub recorded: bool,
    /// Whether the query completed gracefully degraded — at its partial
    /// quorum, with fewer than `fanout` task results (its latency then goes
    /// to [`SchedStats::partial_latency`], not the SLO reservoirs).
    pub partial: bool,
}

/// The driver's cue to reissue a fault-lost task on a backup server: call
/// [`QueryHandler::issue_duplicate`] with this slot and server (the
/// simulator first draws a fresh service time for the backup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPlan {
    /// The logical task (slot) to reissue.
    pub slot: TaskId,
    /// The chosen backup server.
    pub server: u32,
}

/// Everything that follows from one attempt ending — a completion
/// ([`QueryHandler::on_task_complete`]) or a loss
/// ([`QueryHandler::on_task_lost`]). The driver acts on the fields in
/// declaration order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCompletion {
    /// The freed server's next task, if its queue was non-empty (work
    /// conservation: popped *before* any successor query is issued). A lost
    /// task frees its server too — blackout drops are failures of the
    /// *task*, and the server keeps draining.
    pub next: Option<DispatchedTask>,
    /// A retry to issue, when the attempt was lost and the mitigation
    /// config allows one.
    pub retry: Option<RetryPlan>,
    /// The finished query, when this ending resolved its last outstanding
    /// slot.
    pub done: Option<QueryDone>,
    /// The fencing verdict. Only [`CommitOutcome::Committed`] reports were
    /// applied; for `Duplicate`/`Stale` the report was suppressed (every
    /// other field is `None`) and the driver must discard its payload too.
    pub commit: CommitOutcome,
}

/// How an attempt ended (see `QueryHandler::end_attempt`).
#[derive(Clone, Copy)]
enum End {
    /// Its server returned a result after `busy` of service.
    Completed {
        token: LeaseToken,
        busy: SimDuration,
    },
    /// A fault or a worker failure lost it in service.
    Lost { token: LeaseToken },
    /// Its slot resolved while it waited: discarded at dequeue or reclaim.
    Cancelled,
}

/// Measurements the handler accumulates; extracted with
/// [`QueryHandler::into_stats`] when the run completes.
#[derive(Debug)]
pub struct SchedStats {
    /// Query latencies per class (recorded queries only).
    pub query_latency_by_class: BTreeMap<u8, LatencyReservoir>,
    /// Query latencies per `(class, fanout)` type (recorded queries only).
    pub query_latency_by_type: BTreeMap<QueryTypeKey, LatencyReservoir>,
    /// Task pre-dequeuing times (queuing delay before entering service).
    pub pre_dequeue: LatencyReservoir,
    /// Load accounting (busy time, accepted/rejected work, miss counts).
    pub load: LoadStats,
    /// Executed service time per server.
    pub busy_by_server: Vec<SimDuration>,
    /// Queries completed with `record` set.
    pub completed_queries: u64,
    /// Queries rejected by admission control.
    pub rejected_queries: u64,
    /// Admission reject→admit transitions (rejection *stopped* after the
    /// window recovered or drained).
    pub admission_resumes: u64,
    /// Fault/hedge/partial counters (all zero without faults/mitigation).
    pub robustness: RobustnessStats,
    /// Latencies of partially completed queries (recorded separately from
    /// the per-class SLO reservoirs so degradation cannot flatter the tail).
    pub partial_latency: LatencyReservoir,
    /// Lifecycle gauges/counters from the task state store (leases issued,
    /// reclaims, fenced commits). Filled by [`QueryHandler::into_stats`];
    /// read live via [`QueryHandler::lifecycle`].
    pub lifecycle: LifecycleStats,
    /// Health/ejection counters (all zero without a health config). Filled
    /// by [`QueryHandler::into_stats`]; read live via
    /// [`QueryHandler::health`].
    pub health: HealthStats,
    /// Final per-server health scores (EWMA of observed post-queuing
    /// times, ms). Empty without a health config.
    pub server_health: Vec<f64>,
    /// Adaptive-estimator window rolls (0 without
    /// [`crate::AdaptiveWindow`]). Filled by [`QueryHandler::into_stats`].
    pub estimator_window_rolls: u64,
    /// Budget-table lookups while stamping deadlines (Eq. 6). Filled by
    /// [`QueryHandler::into_stats`].
    pub budget_lookups: u64,
    /// Online budget-table rebuilds from refreshed CDFs (§III.B.2). Filled
    /// by [`QueryHandler::into_stats`].
    pub estimator_refreshes: u64,
    /// Distinct `(class, fanout)` budgets cached at the end of the run.
    /// Filled by [`QueryHandler::into_stats`].
    pub cached_budgets: u64,
}

struct QueryMeta {
    class: u8,
    fanout: u32,
    started_at: SimTime,
    record: bool,
    /// First slot id; the query's slots are `first_task..first_task+fanout`.
    first_task: TaskId,
    /// One past the newest attempt serving the query (originals and
    /// hedge/retry copies): once the store has retired every id below it,
    /// nothing can name this query again and its row retires too.
    tasks_end: TaskId,
    /// Unresolved slots (not tasks: hedge copies do not inflate it).
    outstanding: u32,
    /// Slots resolved by a completed attempt (the rest were lost).
    completed_slots: u32,
    /// Completed slots needed to finish (equals `fanout` without a
    /// [`MitigationConfig::partial_quorum`]).
    quorum: u32,
}

struct ServerSlot {
    queue: PolicyQueue,
    in_service: Option<TaskId>,
}

/// The TailGuard scheduling core shared by the simulator and the testbed.
///
/// # Example
///
/// A driver is three calls: present arrivals, start the dispatched tasks,
/// report completions.
///
/// ```
/// use tailguard_policy::Policy;
/// use tailguard_sched::{
///     AdmitDecision, ClassSpec, ClusterSpec, DeadlineEstimator, EstimatorMode, QueryArrival,
///     QueryHandler,
/// };
/// use tailguard_dist::Deterministic;
/// use tailguard_simcore::{SimDuration, SimTime};
///
/// let cluster = ClusterSpec::homogeneous(2, Deterministic::new(1.0));
/// let classes = vec![ClassSpec::p99(SimDuration::from_millis(10))];
/// let estimator = DeadlineEstimator::new(&cluster, classes.clone(), EstimatorMode::Analytic);
/// let mut handler = QueryHandler::new(Policy::TfEdf, classes, 2, estimator, None);
///
/// let mut started = Vec::new();
/// let decision = handler.on_query_arrival(
///     SimTime::ZERO,
///     QueryArrival {
///         class: 0,
///         targets: &[0, 1],
///         sizes: None,
///         budget_override: None,
///         task_budgets: None,
///         record: true,
///     },
///     &mut started,
/// );
/// assert!(matches!(decision, AdmitDecision::Admitted { .. }));
/// assert_eq!(started.len(), 2); // both servers were idle
///
/// // The slowest task completes the query; each result carries the lease
/// // token its dispatch ran under, so stale incarnations can be fenced.
/// let ms = SimDuration::from_millis(1);
/// let first =
///     handler.on_task_complete(SimTime::ZERO + ms, started[0].task, started[0].lease, ms);
/// assert!(first.done.is_none());
/// let last =
///     handler.on_task_complete(SimTime::ZERO + ms, started[1].task, started[1].lease, ms);
/// assert_eq!(last.done.expect("query aggregated").latency, ms);
/// ```
pub struct QueryHandler {
    policy: Policy,
    classes: Vec<ClassSpec>,
    estimator: DeadlineEstimator,
    servers: Vec<ServerSlot>,
    /// The durable lifecycle store: per-attempt state machine, slot
    /// bookkeeping, lease issuance, and fenced commits.
    store: TaskStateStore,
    /// One row per admitted query not yet retired, by query id.
    queries: IdRing<QueryMeta>,
    admission: Option<AdmissionController>,
    mitigation: Option<MitigationConfig>,
    health: Option<HealthTracker>,
    /// Outstanding hedge+retry copies per class, for the
    /// [`MitigationConfig::hedge_budget`] token bucket.
    outstanding_dups: Vec<u32>,
    stats: SchedStats,
    /// The flight-recorder sink, when one is installed: every event goes
    /// to it as it happens (see [`QueryHandler::trace`]).
    sink: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for QueryHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandler")
            .field("policy", &self.policy)
            .field("servers", &self.servers.len())
            .field("queries", &self.queries.end())
            .field("tasks", &self.store.len())
            .finish()
    }
}

impl QueryHandler {
    /// Creates a handler for `servers` task servers under `policy`.
    ///
    /// The estimator is built by the driver (the simulator seeds it from
    /// analytic CDFs or an offline RNG pass; the testbed calibrates it with
    /// live probes) and handed over here; from then on the handler feeds it
    /// observed post-queuing times (§III.B.2's online updating process).
    ///
    /// # Panics
    ///
    /// Panics when `classes` is empty or `servers` is zero.
    pub fn new(
        policy: Policy,
        classes: Vec<ClassSpec>,
        servers: usize,
        estimator: DeadlineEstimator,
        admission: Option<AdmissionConfig>,
    ) -> Self {
        assert!(!classes.is_empty(), "need at least one class");
        let class_count = classes.len();
        QueryHandler {
            policy,
            classes,
            estimator,
            servers: (0..servers)
                .map(|_| ServerSlot {
                    queue: PolicyQueue::new(policy),
                    in_service: None,
                })
                .collect(),
            store: TaskStateStore::new(None),
            queries: IdRing::new(),
            admission: admission.map(AdmissionController::new),
            mitigation: None,
            health: None,
            outstanding_dups: vec![0; class_count],
            stats: SchedStats {
                query_latency_by_class: BTreeMap::new(),
                query_latency_by_type: BTreeMap::new(),
                pre_dequeue: LatencyReservoir::new(),
                load: LoadStats::new(servers),
                busy_by_server: vec![SimDuration::ZERO; servers],
                completed_queries: 0,
                rejected_queries: 0,
                admission_resumes: 0,
                robustness: RobustnessStats::default(),
                partial_latency: LatencyReservoir::new(),
                lifecycle: LifecycleStats::default(),
                health: HealthStats::default(),
                server_health: Vec::new(),
                estimator_window_rolls: 0,
                budget_lookups: 0,
                estimator_refreshes: 0,
                cached_budgets: 0,
            },
            sink: None,
        }
    }

    /// Installs a flight-recorder sink (see [`TraceSink`]). Without one the
    /// handler builds no events at all.
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Hands the event `event` builds to the installed sink before the
    /// caller goes on; without a sink the event is never built, so an
    /// untraced run pays one branch per emission point.
    #[inline]
    fn trace(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &mut self.sink {
            sink.record(&event());
        }
    }

    /// Enables straggler/fault mitigation (hedging, retries, partial
    /// quorum). Without it the handler behaves exactly as before: one
    /// attempt per task, queries complete when every task returns.
    pub fn with_mitigation(mut self, mitigation: MitigationConfig) -> Self {
        self.mitigation = Some(mitigation);
        self
    }

    /// Enables per-server health scoring with hysteresis-gated outlier
    /// ejection (see [`HealthTracker`]). Tasks aimed at an ejected server
    /// are diverted to the least-loaded healthy server (keeping their
    /// stamped deadline — Eq. 6 stamps once, at arrival), except for the
    /// periodic recovery probe; backup selection for hedges and retries
    /// also skips ejected servers. Without it the handler behaves exactly
    /// as before.
    pub fn with_health(mut self, config: HealthConfig) -> Self {
        self.health = Some(HealthTracker::new(config, self.servers.len()));
        self
    }

    /// The health tracker, when health scoring is enabled.
    pub fn health(&self) -> Option<&HealthTracker> {
        self.health.as_ref()
    }

    /// Enables lease expiry: every dispatch's lease carries
    /// `expires_at = now + ttl`, and the driver is expected to call
    /// [`QueryHandler::on_lease_expired`] at that instant so crashed
    /// servers' work is reclaimed. Without a TTL leases never expire and
    /// the handler behaves exactly as before (fencing stays active but can
    /// never reject anything, since no lease is ever superseded).
    /// `ttl` is a virtual-time duration (nanosecond domain).
    pub fn with_lease(mut self, ttl: SimDuration) -> Self {
        self.store.set_lease_ttl(Some(ttl));
        self
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "dense per-server table sized at construction; `server` ids come from the admitted placement or a backup scan over the same table — an out-of-range id is a driver bug where the documented panic is the designed failure mode"
    )]
    fn server(&mut self, server: u32) -> &mut ServerSlot {
        &mut self.servers[server as usize]
    }

    /// The row of a query that still has an attempt row in the store.
    fn query(&self, query: QueryId) -> &QueryMeta {
        self.queries.row(query)
    }

    /// Outstanding hedge+retry copies of `query`'s class (the
    /// [`MitigationConfig::hedge_budget`] token bucket).
    #[expect(
        clippy::indexing_slicing,
        reason = "one counter per class, sized at construction; `class` was range-checked when its query was admitted"
    )]
    fn dups(&mut self, query: QueryId) -> &mut u32 {
        let class = self.query(query).class;
        &mut self.outstanding_dups[class as usize]
    }

    /// Handles one query arrival at `now`: admission (§III.C), deadline
    /// stamping (Eq. 6), and task enqueue/dispatch.
    ///
    /// Tasks landing on idle servers enter service immediately and are
    /// appended to `started` (cleared first; reusing one buffer across calls
    /// keeps the hot path allocation-free) in target order — the driver must
    /// begin their actual work. On rejection no state is created and the
    /// query's would-be work (from `sizes`, if given) is accounted as
    /// rejected load.
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range, a target server index is out of
    /// range, or `sizes`/`task_budgets` lengths disagree with `targets`.
    /// `now` is virtual time (nanosecond domain).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "guarded: the ceil'd product is clamped to `1..=fanout` immediately, so any NaN/overflow truncation is erased by the clamp; `TaskId` is u32 by design: a run mints fewer than 2^32 attempts"
    )]
    #[expect(
        clippy::cast_sign_loss,
        reason = "guarded: the ceil'd product is clamped to `1..=fanout` immediately, so any NaN/overflow truncation is erased by the clamp"
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "`arrival.class` was range-checked against `classes` at the top of this function"
    )]
    pub fn on_query_arrival(
        &mut self,
        now: SimTime,
        arrival: QueryArrival<'_>,
        started: &mut Vec<DispatchedTask>,
    ) -> AdmitDecision {
        started.clear();
        assert!(
            (arrival.class as usize) < self.classes.len(),
            "query class {} out of range",
            arrival.class
        );
        if let Some(sizes) = arrival.sizes {
            assert_eq!(
                sizes.len(),
                arrival.targets.len(),
                "size hint count must equal fanout"
            );
        }
        self.stats.load.query_offered();

        if self.admission_rejects(now) {
            self.stats.rejected_queries += 1;
            if let Some(sizes) = arrival.sizes {
                for &svc in sizes {
                    self.stats.load.record_rejected_work(svc);
                }
            }
            self.trace(|| TraceEvent::QueryRejected {
                at: now,
                class: arrival.class,
                fanout: units::sat_usize_to_u32(arrival.targets.len()),
            });
            return AdmitDecision::Rejected;
        }
        self.stats.load.query_accepted();

        // Eq. 6 (or the baseline's rule): the shared queuing deadline.
        let fanout = units::sat_usize_to_u32(arrival.targets.len());
        let budget = match arrival.budget_override {
            Some(b) => b,
            None => match self.policy.deadline_rule() {
                DeadlineRule::SloOnly => self.classes[arrival.class as usize].slo,
                // FIFO/PRIQ ignore deadlines for ordering; we still stamp
                // the TailGuard deadline so miss accounting is comparable.
                DeadlineRule::SloAndFanout | DeadlineRule::Unused => {
                    self.estimator
                        .budget(arrival.class, fanout, arrival.targets)
                }
            },
        };
        let deadline = now + budget;
        if let Some(tb) = arrival.task_budgets {
            assert_eq!(
                tb.len(),
                arrival.targets.len(),
                "task budget count must equal fanout"
            );
        }

        // Graceful degradation (when configured): the query may complete
        // "partial" once a quorum of its slots has a result.
        let quorum = match self.mitigation.as_ref().and_then(|m| m.partial_quorum) {
            Some(f) => ((f64::from(fanout) * f).ceil() as u32).clamp(1, fanout),
            None => fanout,
        };
        let hedge_after = self.mitigation.as_ref().and_then(|m| m.hedge_after);

        self.retire_queries();
        let first_task = self.store.len() as TaskId;
        let query = self.queries.push(QueryMeta {
            class: arrival.class,
            fanout,
            started_at: now,
            record: arrival.record,
            first_task,
            tasks_end: first_task.saturating_add(fanout),
            outstanding: fanout,
            completed_slots: 0,
            quorum,
        });
        self.trace(|| TraceEvent::QueryAdmitted {
            at: now,
            query,
            class: arrival.class,
            fanout,
            deadline,
        });

        for (idx, &server) in arrival.targets.iter().enumerate() {
            // Outlier ejection: a task aimed at an ejected server diverts
            // to the least-loaded healthy server (every `probe_every`-th
            // task still goes through as a recovery probe). The deadline
            // below is stamped from the *requested* placement — Eq. 6
            // stamps once, at arrival; diversion must not re-budget.
            let divert = match &mut self.health {
                Some(h) => h.should_divert(server as usize),
                None => false,
            };
            let server = if divert {
                self.least_loaded(|i| i == server).unwrap_or(server)
            } else {
                server
            };
            // Footnote-4 ablation hook: per-task deadlines when provided
            // (the lengths were checked equal above).
            let task_budget = arrival
                .task_budgets
                .and_then(|tb| tb.get(idx))
                .map_or(budget, |&b| b);
            // Deadline-aware hedge trigger: a fraction of the queuing
            // budget after arrival (the remaining budget has crossed
            // the threshold once it fires).
            let hedge_at = hedge_after.map(|f| now + task_budget.mul_f64(f));
            let task = self
                .store
                .push_original(query, server, now + task_budget, hedge_at);
            self.stats.load.task_dispatched();
            let size = arrival.sizes.and_then(|s| s.get(idx)).copied();
            started.extend(self.enqueue(now, task, size));
        }
        AdmitDecision::Admitted { query }
    }

    /// Retires, oldest first, the queries whose every attempt the store has
    /// retired — which takes all their slots resolved, i.e. the query done.
    /// Only an attempt row ever leads back to a query's row.
    // tg-lint: hot(retire)
    fn retire_queries(&mut self) {
        let first_live = self.store.first_live();
        while self
            .queries
            .front()
            .is_some_and(|q| q.tasks_end <= first_live)
        {
            self.queries.pop_front();
        }
    }
    // tg-lint: endhot

    /// The one way an attempt begins — an original at arrival, a hedge or
    /// retry copy, or a reclaimed attempt beginning again: it queues on its
    /// server under its slot's deadline `t_D`, stamped once at arrival and
    /// never re-derived, or enters service at once when that server is idle
    /// (an immediate dequeue, by definition on time).
    fn enqueue(
        &mut self,
        now: SimTime,
        task: TaskId,
        size: Option<SimDuration>,
    ) -> Option<DispatchedTask> {
        let rec = self.store.attempt(task);
        let class = self.query(rec.query).class;
        let deadline = self.store.slot(task).deadline;
        self.trace(|| TraceEvent::TaskEnqueued {
            at: now,
            task,
            slot: rec.slot,
            query: rec.query,
            class,
            server: rec.server,
            kind: rec.kind,
            deadline,
        });
        let mut entry = QueuedTask::new(u64::from(task), ServiceClass(class), deadline, now);
        if let Some(size) = size {
            entry = entry.with_size_hint(size);
        }
        if self.server(rec.server).in_service.is_none() {
            Some(self.start(now, rec.server, entry))
        } else {
            self.server(rec.server).queue.push(entry);
            None
        }
    }

    /// Handles the completion of `task` at `now` under the lease `token`
    /// its dispatch carried, where `busy` is the service time the server
    /// actually spent on it (the simulator's drawn service; the testbed's
    /// measured dispatch→result time).
    ///
    /// The commit is fenced first: a redelivered result of an already
    /// terminal attempt is suppressed idempotently, and a result from a
    /// reclaimed (zombie) incarnation is rejected by token mismatch — both
    /// return without touching server state, accounting, or aggregation,
    /// and the driver must discard the result's payload (see
    /// [`TaskCompletion::commit`]). A report that arrives after its
    /// attempt's row has retired (see [`QueryHandler::first_live_task`]) is
    /// fenced the same way.
    ///
    /// For a committed result, in order: busy/estimator accounting, work
    /// conservation (the freed server pulls its next task — reported in
    /// [`TaskCompletion::next`] *before* any successor work, so a chained
    /// query cannot jump the queue), then fanout aggregation.
    ///
    /// # Panics
    ///
    /// Panics when `task` is unknown; debug-asserts a committed result's
    /// task is the task in service at its server.
    /// `now` is virtual time (nanosecond domain).
    pub fn on_task_complete(
        &mut self,
        now: SimTime,
        task: TaskId,
        token: LeaseToken,
        busy: SimDuration,
    ) -> TaskCompletion {
        self.end_attempt(now, task, End::Completed { token, busy })
    }

    /// Handles the loss of `task` — in service at its server under the
    /// lease `token` — to an injected fault (blackout drop) or a worker
    /// failure. The loss report is fenced exactly like a commit: a stale
    /// incarnation's loss (its lease was already reclaimed) or a redundant
    /// report for a terminal attempt is a no-op. For a committed loss the
    /// server is freed (no busy time is recorded: the work produced nothing
    /// the estimator should learn from), and the slot either retries on a
    /// backup server (see [`TaskCompletion::retry`]), keeps waiting for
    /// another live attempt, or — with every attempt exhausted — resolves
    /// as lost, possibly finishing the query as partial or failed.
    ///
    /// # Panics
    ///
    /// Panics when `task` is unknown; debug-asserts a committed loss's task
    /// is in service.
    /// `now` is virtual time (nanosecond domain).
    pub fn on_task_lost(
        &mut self,
        now: SimTime,
        task: TaskId,
        token: LeaseToken,
    ) -> TaskCompletion {
        self.end_attempt(now, task, End::Lost { token })
    }

    /// The one way an attempt ends: fence the report in the store, trace
    /// it, return a copy's budget token, free the server, then settle the
    /// slot — a loser of an already-resolved slot only counts as cancelled;
    /// the first completion wins it; a loss retries, waits for a live
    /// sibling, or resolves it as lost. The only place slots resolve.
    // tg-lint: hot(complete)
    fn end_attempt(&mut self, now: SimTime, task: TaskId, end: End) -> TaskCompletion {
        // A retired attempt has no row; the store still fences its report.
        let rec = (!self.store.is_retired(task)).then(|| self.store.attempt(task));
        let (token, commit) = match end {
            End::Completed { token, .. } => (token, self.store.commit(task, token)),
            End::Lost { token } => (token, self.store.fail(task, token)),
            End::Cancelled => {
                self.store.cancel(task);
                (LeaseToken::NONE, CommitOutcome::Committed)
            }
        };
        let mut ended = TaskCompletion {
            next: None,
            retry: None,
            done: None,
            commit,
        };
        let (Some(rec), CommitOutcome::Committed) = (rec, commit) else {
            // Narrated with the attempt's identity: its row's, or — for a
            // zombie reporting after the row retired — its reclaimed
            // lease's. (A redelivery that late is counted only.)
            let who = rec
                .map(|rec| (rec.query, rec.server))
                .or_else(|| self.store.reclaimed(token).map(|l| (l.query, l.server)));
            if let Some((query, server)) = who {
                let at = now;
                self.trace(|| {
                    if commit == CommitOutcome::Duplicate {
                        TraceEvent::DuplicateSuppressed {
                            at,
                            task,
                            query,
                            server,
                        }
                    } else {
                        TraceEvent::StaleCommitRejected {
                            at,
                            task,
                            query,
                            server,
                            token,
                        }
                    }
                });
            }
            return ended;
        };
        let (query, server, slot) = (rec.query, rec.server, rec.slot);
        let in_service = !matches!(end, End::Cancelled);
        debug_assert!(
            !in_service || self.server(server).in_service == Some(task),
            "a committed report implies the task is in service at its server"
        );
        if rec.kind != AttemptKind::Original {
            let dups = self.dups(query);
            debug_assert!(*dups > 0, "token-bucket underflow");
            *dups = dups.saturating_sub(1);
        }
        let was_resolved = self.store.slot(task).resolved;
        if let End::Completed { busy, .. } = end {
            self.record_service(now, server, busy);
        }
        // Emitted before the freed server's next dequeue so the stream reads
        // completion-then-dequeue at equal timestamps.
        let at = now;
        self.trace(|| match end {
            End::Completed { busy, .. } => TraceEvent::TaskCompleted {
                at,
                task,
                slot,
                query,
                server,
                busy,
                won: !was_resolved,
            },
            End::Lost { .. } => TraceEvent::TaskLost {
                at,
                task,
                slot,
                query,
                server,
            },
            End::Cancelled => TraceEvent::TaskCancelled {
                at,
                task,
                slot,
                query,
                server,
            },
        });
        if in_service {
            ended.next = self.on_server_free(now, server);
        }
        // Whether this ending resolves the slot, and if so whether as lost.
        let resolves_lost = if was_resolved {
            // The slot already has a winner (a cancelled attempt's always
            // does): the work may have been done — busy accounting stands —
            // but its outcome is ignored.
            self.stats.robustness.cancelled_tasks += 1;
            None
        } else if matches!(end, End::Completed { .. }) {
            // First completion wins the slot.
            self.stats.robustness.task_wins += 1;
            if rec.kind == AttemptKind::Hedge {
                self.stats.robustness.hedge_wins += 1;
            }
            Some(false)
        } else {
            debug_assert!(in_service, "only resolved slots cancel attempts");
            self.stats.robustness.tasks_lost_to_faults += 1;
            if self.mitigation.is_some_and(|m| m.retry_lost) {
                ended.retry = self
                    .copy_target(now, slot)
                    .map(|server| RetryPlan { slot, server });
            }
            // With no retry and no live sibling every attempt is gone.
            (ended.retry.is_none() && self.store.slot(slot).live == 0).then_some(true)
        };
        if let Some(lost) = resolves_lost {
            self.store.resolve(slot);
            ended.done = self.resolve_slot(now, query, lost);
            let meta = self.query(query);
            if ended.done.is_some() && meta.outstanding > 0 {
                // The query finished early, at its quorum, so its
                // unresolved straggler slots resolve now — their in-flight
                // attempts become losers, cancelled at completion or
                // dequeue. (A query that finished with no slot outstanding
                // has every slot resolved already.)
                let first = meta.first_task;
                for straggler in first..first + meta.fanout {
                    self.store.resolve(straggler);
                }
            }
        }
        ended
    }

    /// Busy/estimator/health accounting for a committed completion.
    #[expect(
        clippy::indexing_slicing,
        reason = "dense per-server table sized at construction, indexed by the server a committed attempt was dispatched to"
    )]
    fn record_service(&mut self, now: SimTime, server: u32, busy: SimDuration) {
        self.stats.load.record_busy(busy);
        self.stats.busy_by_server[server as usize] += busy;
        // Online updating process (§III.B.2): the handler learns the
        // server's post-queuing time distribution from returned results.
        self.estimator.record_post_queuing(server as usize, busy);
        // The health tracker watches the same completion stream. Ejection
        // flips happen inside its amortized evaluation, so they surface
        // here — drained even when tracing is off to keep the buffer empty.
        if let Some(h) = &mut self.health {
            h.observe(server as usize, busy);
        }
        while let Some((server, ejected)) = self
            .health
            .as_mut()
            .and_then(HealthTracker::take_transition)
        {
            self.trace(|| {
                if ejected {
                    TraceEvent::ServerEjected { at: now, server }
                } else {
                    TraceEvent::ServerReadmitted { at: now, server }
                }
            });
        }
    }
    // tg-lint: endhot

    /// Releases `server` and pulls its next queued task into service, if
    /// any. Queued attempts whose slot was already resolved (hedge losers,
    /// stragglers of early-quorum queries) are discarded here — the
    /// cancel-at-dequeue that a [`PolicyQueue`] without arbitrary removal
    /// supports.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "queue entries carry the `TaskId` this handler pushed, widened to u64 by the policy crate"
    )]
    fn on_server_free(&mut self, now: SimTime, server: u32) -> Option<DispatchedTask> {
        self.server(server).in_service = None;
        loop {
            let entry = self.server(server).queue.pop()?;
            let task = entry.task_id as TaskId;
            if !self.store.slot(task).resolved {
                return Some(self.start(now, server, entry));
            }
            self.end_attempt(now, task, End::Cancelled);
        }
    }

    /// The hedge checks a just-admitted `query` needs: each of its tasks
    /// with the instant its hedge copy becomes due (see
    /// [`QueryHandler::copy_target`]). Empty unless hedging is configured.
    /// The instants are virtual time (nanosecond domain).
    pub fn hedge_checks(&self, query: QueryId) -> impl Iterator<Item = (TaskId, SimTime)> + '_ {
        let meta = self.query(query);
        let hedging = self.mitigation.is_some_and(|m| m.hedge_after.is_some());
        let tasks = meta.first_task..meta.first_task + if hedging { meta.fanout } else { 0 };
        tasks.filter_map(|task| Some((task, self.store.slot(task).hedge_at?)))
    }

    /// Picks a backup server for one more copy of the slot of `task` — a
    /// hedge when its check comes due, a retry after a loss — if one is
    /// still worthwhile: the slot is unresolved, attempts remain under
    /// [`MitigationConfig::max_attempts`], the class has token-bucket
    /// budget left ([`MitigationConfig::hedge_budget`]), and an untried
    /// healthy server exists. The driver follows up with
    /// [`QueryHandler::issue_duplicate`]. A budget denial counts in
    /// [`RobustnessStats::budget_exhausted`] and is narrated as
    /// [`TraceEvent::HedgeBudgetExhausted`] at `now`.
    /// `now` is virtual time (nanosecond domain).
    pub fn copy_target(&mut self, now: SimTime, task: TaskId) -> Option<u32> {
        let m = self.mitigation?;
        if self.store.is_retired(task) {
            return None; // its slot resolved before the row could retire
        }
        let slot_state = self.store.slot(task);
        if slot_state.resolved || slot_state.attempts >= m.max_attempts {
            return None;
        }
        let rec = self.store.attempt(task);
        if m.hedge_budget
            .is_some_and(|cap| *self.dups(rec.query) >= cap)
        {
            self.stats.robustness.budget_exhausted += 1;
            let class = self.query(rec.query).class;
            self.trace(|| TraceEvent::HedgeBudgetExhausted {
                at: now,
                slot: rec.slot,
                query: rec.query,
                class,
            });
            return None;
        }
        // The slot's own server and every server a copy already tried are
        // out.
        let origin = self.store.attempt(rec.slot).server;
        let tried = &self.store.slot(task).extra_servers;
        self.least_loaded(|i| i == origin || tried.contains(&i))
    }

    /// The least-loaded server (queue depth + in-service occupancy, lowest
    /// index breaking ties — deterministic) that `skip` does not exclude
    /// and that is not ejected; `None` when no such server exists.
    fn least_loaded(&self, skip: impl Fn(u32) -> bool) -> Option<u32> {
        let ejected = |i: u32| {
            self.health
                .as_ref()
                .is_some_and(|h| h.is_ejected(i as usize))
        };
        (0u32..)
            .zip(&self.servers)
            .filter(|&(i, _)| !skip(i) && !ejected(i))
            .min_by_key(|(_, s)| s.queue.len() + usize::from(s.in_service.is_some()))
            .map(|(i, _)| i)
    }

    /// Issues a hedge or retry copy of `slot` (an original task id) on
    /// `server`, with an optional size hint (the simulator's fresh service
    /// draw for the backup). Returns the new attempt's task id and, when
    /// the backup server was idle, the dispatch the driver must begin.
    ///
    /// # Panics
    ///
    /// Debug-asserts the slot is unresolved and `kind` is not
    /// [`AttemptKind::Original`].
    /// `now` is virtual time (nanosecond domain).
    pub fn issue_duplicate(
        &mut self,
        now: SimTime,
        slot: TaskId,
        server: u32,
        size: Option<SimDuration>,
        kind: AttemptKind,
    ) -> (TaskId, Option<DispatchedTask>) {
        let query = self.store.attempt(slot).query;
        let task = self.store.push_duplicate(slot, server, kind);
        self.queries.row_mut(query).tasks_end = task + 1;
        match kind {
            AttemptKind::Hedge => self.stats.robustness.hedges_issued += 1,
            AttemptKind::Retry => self.stats.robustness.retries += 1,
            AttemptKind::Original => {}
        }
        *self.dups(query) += 1;
        self.stats.load.task_dispatched();
        if kind == AttemptKind::Hedge {
            self.trace(|| TraceEvent::HedgeIssued {
                at: now,
                task,
                slot,
                query,
                server,
            });
        }
        (task, self.enqueue(now, task, size))
    }

    /// Handles an expired lease check for `task` at `now`: the driver
    /// schedules this at the dispatch's
    /// [`DispatchedTask::lease_expires_at`] instant.
    ///
    /// A lease still active under exactly `token` past its expiry is
    /// **reclaimed**: the incarnation is presumed dead (crashed node,
    /// swallowed result), the attempt returns to `Queued`, and — unless its
    /// slot already resolved, in which case it is cancelled outright — it
    /// begins again on its server with the slot's *original* deadline `t_D`
    /// (Eq. 6 stamps the queuing deadline once, at arrival; recovery must
    /// not grant a crashed task fresh budget). The suspected server is then
    /// freed, so its queue keeps draining. If the presumed-dead incarnation
    /// later reports anyway (false suspicion), its stale token fences it
    /// off.
    ///
    /// Returns `None` — a no-op — for a lease that was already committed,
    /// superseded, or has not yet expired; for a reclaim, `Some` of the
    /// freed server's next dispatch (often the reclaimed task itself, under
    /// a new lease), which the driver must start.
    /// `now` is virtual time (nanosecond domain).
    pub fn on_lease_expired(
        &mut self,
        now: SimTime,
        task: TaskId,
        token: LeaseToken,
    ) -> Option<Option<DispatchedTask>> {
        if !self.store.reclaim_expired(task, token, now) {
            return None;
        }
        let rec = self.store.attempt(task);
        debug_assert_eq!(
            self.server(rec.server).in_service,
            Some(task),
            "a reclaimed lease implies the task was in service at its server"
        );
        self.trace(|| TraceEvent::LeaseReclaimed {
            at: now,
            task,
            query: rec.query,
            server: rec.server,
            token,
        });
        if self.store.slot(task).resolved {
            // The slot resolved while this attempt sat on the dead server:
            // nothing left to recover.
            self.end_attempt(now, task, End::Cancelled);
        } else {
            // Queues behind itself: the server still counts as serving it.
            let started = self.enqueue(now, task, None);
            debug_assert!(started.is_none());
        }
        Some(self.on_server_free(now, rec.server))
    }

    /// Dequeues `entry` into service on `server`: miss detection at dequeue
    /// time (`t_dequeue > t_D`), window/load accounting, pre-dequeue wait
    /// recording, and lease issuance — the dispatch runs under a fresh
    /// fencing token from here on.
    // tg-lint: hot(dequeue)
    #[expect(
        clippy::cast_possible_truncation,
        reason = "queue entries carry the `TaskId` this handler pushed, widened to u64 by the policy crate"
    )]
    fn start(&mut self, now: SimTime, server: u32, entry: QueuedTask) -> DispatchedTask {
        let missed = now > entry.deadline;
        self.stats.load.task_completed(missed);
        if let Some(adm) = &mut self.admission {
            adm.record(now, missed);
        }
        let waited = now.saturating_since(entry.enqueued_at);
        let task = entry.task_id as TaskId;
        let rec = self.store.attempt(task);
        let query = rec.query;
        let QueryMeta { record, class, .. } = *self.query(query);
        if record {
            self.stats.pre_dequeue.record(waited);
        }
        let lease = self.store.lease(task, now);
        self.store.mark_running(task);
        self.trace(|| TraceEvent::TaskDequeued {
            at: now,
            task,
            slot: rec.slot,
            query,
            class,
            kind: rec.kind,
            server,
            token: lease,
            waited,
            // Signed: negative exactly when this dequeue is a miss.
            slack_ns: units::signed_ns_delta(entry.deadline.as_nanos(), now.as_nanos()),
        });
        if missed {
            self.trace(|| TraceEvent::DeadlineMissed {
                at: now,
                task,
                query,
                server,
                late_by: now.saturating_since(entry.deadline),
            });
        }
        self.server(server).in_service = Some(task);
        DispatchedTask {
            task,
            server,
            lease,
            lease_expires_at: self.store.lease_expiry(task),
        }
    }
    // tg-lint: endhot

    /// Accounts one resolved slot of `query` (won by a completion, or lost
    /// with every attempt exhausted) and finishes the query when its quorum
    /// is met or no slots remain — the generalized slowest-task-wins
    /// aggregation (quorum = fanout without a partial-quorum config).
    fn resolve_slot(&mut self, now: SimTime, query: QueryId, lost: bool) -> Option<QueryDone> {
        let meta = self.queries.row_mut(query);
        meta.outstanding = meta.outstanding.saturating_sub(1);
        if !lost {
            meta.completed_slots += 1;
        }
        if meta.completed_slots < meta.quorum && meta.outstanding > 0 {
            return None;
        }
        let latency = now.saturating_since(meta.started_at);
        let (class, fanout, recorded) = (meta.class, meta.fanout, meta.record);
        let completed = meta.completed_slots;
        let partial = completed < fanout;
        if recorded {
            if completed == 0 {
                // Nothing came back: the query failed outright.
                self.stats.robustness.failed_queries += 1;
            } else if partial {
                self.stats.robustness.partial_completions += 1;
                self.stats.partial_latency.record(latency);
            } else {
                self.stats
                    .query_latency_by_class
                    .entry(class)
                    .or_default()
                    .record(latency);
                self.stats
                    .query_latency_by_type
                    .entry(QueryTypeKey { class, fanout })
                    .or_default()
                    .record(latency);
                self.stats.completed_queries += 1;
            }
        }
        Some(QueryDone {
            query,
            class,
            fanout,
            latency,
            recorded,
            partial,
        })
    }

    /// Whether admission turns away a query arriving at `now`; a flip of
    /// that state is narrated as a pause or a resume.
    fn admission_rejects(&mut self, now: SimTime) -> bool {
        let Some(adm) = &mut self.admission else {
            return false;
        };
        let was_rejecting = adm.is_rejecting();
        let rejects = adm.rejects(now);
        self.stats.admission_resumes = adm.resumes();
        if rejects != was_rejecting {
            self.trace(|| {
                if rejects {
                    TraceEvent::AdmissionPause { at: now }
                } else {
                    TraceEvent::AdmissionResume { at: now }
                }
            });
        }
        rejects
    }

    /// The task currently in service at `server`, if any.
    #[expect(
        clippy::indexing_slicing,
        reason = "dense per-server/per-query/per-class tables sized at construction; `server` ids come from the admitted placement, `query`/`class` ids are minted/validated at admission — an out-of-range id is an internal-invariant breach where the documented panic is the designed failure mode"
    )]
    pub fn task_in_service(&self, server: u32) -> Option<TaskId> {
        self.servers[server as usize].in_service
    }

    /// Total tasks waiting in per-server queues right now (excludes tasks
    /// in service) — the queue-depth gauge the observability snapshots
    /// sample.
    pub fn queued_tasks(&self) -> usize {
        self.servers.iter().map(|s| s.queue.len()).sum()
    }

    /// Servers currently serving a task.
    pub fn servers_busy(&self) -> usize {
        self.servers
            .iter()
            .filter(|s| s.in_service.is_some())
            .count()
    }

    /// The live lifecycle gauges/counters from the task state store.
    pub fn lifecycle(&self) -> &LifecycleStats {
        self.store.stats()
    }

    /// Total queries admitted so far (query ids are `0..query_count()`).
    pub fn query_count(&self) -> usize {
        self.queries.end() as usize
    }

    /// The first query id whose row has not retired: a driver's per-query
    /// table can drop everything below it.
    pub fn first_live_query(&self) -> QueryId {
        self.queries.base()
    }

    /// The first task id whose row has not retired: a driver's per-task
    /// table can drop everything below it. Timers and reports that still
    /// name a lower id are answered as fenced no-ops.
    pub fn first_live_task(&self) -> TaskId {
        self.store.first_live()
    }

    /// The accumulated measurements, live.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// The deadline estimator (e.g. to inspect cache statistics).
    pub fn estimator(&self) -> &DeadlineEstimator {
        &self.estimator
    }

    /// Consumes the handler, returning its measurements (with the final
    /// lifecycle, health, and estimator gauges/counters folded in).
    pub fn into_stats(self) -> SchedStats {
        let mut stats = self.stats;
        stats.lifecycle = self.store.stats().clone();
        if let Some(h) = &self.health {
            stats.health = h.stats().clone();
            stats.server_health = h.scores().to_vec();
        }
        stats.estimator_window_rolls = self.estimator.window_roll_count();
        stats.budget_lookups = self.estimator.budget_lookup_count();
        stats.estimator_refreshes = self.estimator.refresh_count();
        stats.cached_budgets = self.estimator.cached_budget_count() as u64;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterSpec;
    use crate::estimator::EstimatorMode;
    use tailguard_dist::Deterministic;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    fn handler(n: usize, policy: Policy, admission: Option<AdmissionConfig>) -> QueryHandler {
        let cluster = ClusterSpec::homogeneous(n, Deterministic::new(1.0));
        let classes = vec![ClassSpec::p99(ms(10.0))];
        let estimator = DeadlineEstimator::new(&cluster, classes.clone(), EstimatorMode::Analytic);
        QueryHandler::new(policy, classes, n, estimator, admission)
    }

    /// A lease-free dispatch of `task` on `server` under token `lease`.
    fn dispatch_of(task: TaskId, server: u32, lease: u64) -> DispatchedTask {
        DispatchedTask {
            task,
            server,
            lease: LeaseToken(lease),
            lease_expires_at: None,
        }
    }

    fn arrival<'a>(targets: &'a [u32], record: bool) -> QueryArrival<'a> {
        QueryArrival {
            class: 0,
            targets,
            sizes: None,
            budget_override: None,
            task_budgets: None,
            record,
        }
    }

    #[test]
    fn idle_servers_start_immediately_in_target_order() {
        let mut h = handler(3, Policy::TfEdf, None);
        let mut started = Vec::new();
        let d = h.on_query_arrival(SimTime::ZERO, arrival(&[2, 0], true), &mut started);
        assert_eq!(d, AdmitDecision::Admitted { query: 0 });
        assert_eq!(started, vec![dispatch_of(0, 2, 1), dispatch_of(1, 0, 2)]);
        assert_eq!(h.task_in_service(2), Some(0));
        assert_eq!(h.task_in_service(1), None);
    }

    #[test]
    fn busy_server_queues_then_work_conserves() {
        let mut h = handler(1, Policy::Fifo, None);
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        assert_eq!(started.len(), 1);
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        assert!(started.is_empty(), "server busy: task must queue");

        let done = h.on_task_complete(SimTime::from_millis(3), 0, LeaseToken(1), ms(3.0));
        // Work conservation: the queued task enters service...
        assert_eq!(done.next, Some(dispatch_of(1, 0, 2)));
        assert_eq!(done.commit, CommitOutcome::Committed);
        // ...and the first query aggregates.
        let q = done.done.expect("fanout-1 query done");
        assert_eq!(q.query, 0);
        assert_eq!(q.latency, ms(3.0));
        // The second task waited 3ms in queue.
        assert_eq!(h.stats().pre_dequeue.clone().percentile(1.0), ms(3.0));
    }

    #[test]
    fn aggregation_is_slowest_task_wins() {
        let mut h = handler(2, Policy::TfEdf, None);
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0, 1], true), &mut started);
        let first = h.on_task_complete(
            SimTime::from_millis(1),
            started[0].task,
            started[0].lease,
            ms(1.0),
        );
        assert!(first.done.is_none(), "one task still outstanding");
        let last = h.on_task_complete(
            SimTime::from_millis(7),
            started[1].task,
            started[1].lease,
            ms(7.0),
        );
        let q = last.done.expect("all tasks returned");
        assert_eq!(q.latency, ms(7.0), "query latency = slowest task");
        assert_eq!(h.stats().completed_queries, 1);
    }

    #[test]
    fn unrecorded_queries_complete_without_counting() {
        let mut h = handler(1, Policy::Fifo, None);
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], false), &mut started);
        let done = h.on_task_complete(SimTime::from_millis(1), 0, LeaseToken(1), ms(1.0));
        let q = done.done.expect("aggregates regardless");
        assert!(!q.recorded);
        assert_eq!(h.stats().completed_queries, 0);
        assert!(h.stats().query_latency_by_class.is_empty());
        assert_eq!(h.stats().pre_dequeue.len(), 0);
    }

    #[test]
    fn admission_rejects_and_accounts_rejected_work() {
        let adm = AdmissionConfig::new(ms(100.0), 0.1).with_min_samples(1);
        let mut h = handler(1, Policy::TfEdf, Some(adm));
        let mut started = Vec::new();
        // Occupy the server, then queue a query with an already-expired
        // deadline: its dequeue at t=1ms is a detected miss.
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        h.on_query_arrival(
            SimTime::ZERO,
            QueryArrival {
                budget_override: Some(SimDuration::ZERO),
                ..arrival(&[0], true)
            },
            &mut started,
        );
        let next = h
            .on_task_complete(SimTime::from_millis(1), 0, LeaseToken(1), ms(1.0))
            .next;
        assert_eq!(next, Some(dispatch_of(1, 0, 2)));

        // Miss ratio 1/2 > 0.1 → the next arrival is rejected.
        let sizes = [ms(4.0)];
        let d = h.on_query_arrival(
            SimTime::from_millis(1),
            QueryArrival {
                sizes: Some(&sizes),
                ..arrival(&[0], true)
            },
            &mut started,
        );
        assert_eq!(d, AdmitDecision::Rejected);
        assert!(started.is_empty());
        assert_eq!(h.stats().rejected_queries, 1);
        assert_eq!(h.stats().load.queries_rejected_count(), 1);
        assert!(h.stats().load.rejected_load(SimTime::from_millis(100)) > 0.0);
        assert_eq!(h.query_count(), 2, "rejected query creates no state");
    }

    #[test]
    fn busy_and_estimator_accounting_per_server() {
        let mut h = handler(2, Policy::TfEdf, None);
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[1], true), &mut started);
        h.on_task_complete(SimTime::from_millis(5), 0, LeaseToken(1), ms(5.0));
        assert_eq!(h.stats().busy_by_server[0], SimDuration::ZERO);
        assert_eq!(h.stats().busy_by_server[1], ms(5.0));
        assert_eq!(h.stats().load.tasks_completed_count(), 1);
    }

    #[test]
    fn sjf_orders_queue_by_size_hint() {
        let mut h = handler(1, Policy::Sjf, None);
        let mut started = Vec::new();
        // Occupy the server, then queue a long and a short task.
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let long = [ms(9.0)];
        let short = [ms(2.0)];
        h.on_query_arrival(
            SimTime::ZERO,
            QueryArrival {
                sizes: Some(&long),
                ..arrival(&[0], true)
            },
            &mut started,
        );
        h.on_query_arrival(
            SimTime::ZERO,
            QueryArrival {
                sizes: Some(&short),
                ..arrival(&[0], true)
            },
            &mut started,
        );
        let next = h
            .on_task_complete(SimTime::from_millis(1), 0, LeaseToken(1), ms(1.0))
            .next;
        assert_eq!(
            next,
            Some(dispatch_of(2, 0, 2)),
            "SJF must pick the short task first"
        );
    }

    #[test]
    fn hedge_copy_wins_and_original_is_cancelled() {
        let mut h = handler(2, Policy::TfEdf, None)
            .with_mitigation(MitigationConfig::new().with_hedge_after(0.5));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let (_, due) = h
            .hedge_checks(0)
            .next()
            .expect("original has a hedge check");
        assert!(due > SimTime::ZERO);
        assert_eq!(
            h.copy_target(due, 0),
            Some(1),
            "idle server 1 is the backup"
        );

        let (hedge, dispatched) = h.issue_duplicate(due, 0, 1, None, AttemptKind::Hedge);
        assert_eq!(dispatched, Some(dispatch_of(1, 1, 2)));
        assert_eq!(h.copy_target(due, 0), None, "attempt cap reached");

        // The hedge returns first: it wins and completes the query.
        let win = h.on_task_complete(due + ms(1.0), hedge, LeaseToken(2), ms(1.0));
        let q = win.done.expect("hedge completion finishes the query");
        assert!(!q.partial);
        assert_eq!(h.stats().robustness.hedges_issued, 1);
        assert_eq!(h.stats().robustness.hedge_wins, 1);
        assert_eq!(h.stats().completed_queries, 1);

        // The straggling original is a loser: no double aggregation.
        let lose = h.on_task_complete(due + ms(5.0), 0, LeaseToken(1), ms(5.0));
        assert!(lose.done.is_none());
        assert_eq!(
            lose.commit,
            CommitOutcome::Committed,
            "a loser still commits"
        );
        assert_eq!(h.stats().robustness.cancelled_tasks, 1);
        assert_eq!(h.stats().completed_queries, 1);
    }

    #[test]
    fn partial_quorum_completes_early_and_separately() {
        let mut h = handler(3, Policy::TfEdf, None)
            .with_mitigation(MitigationConfig::new().with_partial_quorum(0.5));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0, 1, 2], true), &mut started);
        // ceil(0.5 × 3) = 2 of 3 tasks suffice.
        assert!(h
            .on_task_complete(SimTime::from_millis(1), 0, LeaseToken(1), ms(1.0))
            .done
            .is_none());
        let q = h
            .on_task_complete(SimTime::from_millis(2), 1, LeaseToken(2), ms(2.0))
            .done
            .expect("quorum reached");
        assert!(q.partial);
        assert_eq!(q.latency, ms(2.0));
        assert_eq!(h.stats().robustness.partial_completions, 1);
        assert_eq!(h.stats().partial_latency.len(), 1);
        assert_eq!(
            h.stats().completed_queries,
            0,
            "partial is not a full SLO hit"
        );
        // The straggler resolves as a loser.
        assert!(h
            .on_task_complete(SimTime::from_millis(9), 2, LeaseToken(3), ms(9.0))
            .done
            .is_none());
        assert_eq!(h.stats().robustness.cancelled_tasks, 1);
    }

    #[test]
    fn lost_task_retries_on_backup_and_completes() {
        let mut h = handler(2, Policy::TfEdf, None).with_mitigation(MitigationConfig::new());
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let lost = h.on_task_lost(SimTime::from_millis(1), 0, LeaseToken(1));
        assert_eq!(lost.retry, Some(RetryPlan { slot: 0, server: 1 }));
        assert!(lost.done.is_none());
        assert_eq!(h.stats().robustness.tasks_lost_to_faults, 1);

        let (retry, dispatched) =
            h.issue_duplicate(SimTime::from_millis(1), 0, 1, None, AttemptKind::Retry);
        let retry_lease = dispatched.expect("idle backup dispatches").lease;
        let q = h
            .on_task_complete(SimTime::from_millis(3), retry, retry_lease, ms(2.0))
            .done
            .expect("retry completes the query");
        assert!(!q.partial, "all slots have results");
        assert_eq!(q.latency, ms(3.0), "latency counts from arrival");
        assert_eq!(h.stats().robustness.retries, 1);
        assert_eq!(h.stats().completed_queries, 1);
    }

    #[test]
    fn lost_task_without_mitigation_fails_the_query() {
        let mut h = handler(2, Policy::TfEdf, None);
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let lost = h.on_task_lost(SimTime::from_millis(1), 0, LeaseToken(1));
        assert_eq!(lost.retry, None, "no mitigation → no retry");
        let q = lost.done.expect("sole slot resolved as lost");
        assert!(q.partial);
        assert_eq!(h.stats().robustness.failed_queries, 1);
        assert_eq!(h.stats().robustness.tasks_lost_to_faults, 1);
        assert_eq!(h.stats().completed_queries, 0);
        assert_eq!(h.stats().partial_latency.len(), 0, "no result, no latency");
    }

    #[test]
    fn queued_loser_is_cancelled_at_dequeue() {
        let mut h = handler(2, Policy::TfEdf, None)
            .with_mitigation(MitigationConfig::new().with_hedge_after(0.1));
        let mut started = Vec::new();
        // Filler occupies server 1 so the hedge has to queue behind it.
        h.on_query_arrival(SimTime::ZERO, arrival(&[1], true), &mut started);
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let (_, dispatched) =
            h.issue_duplicate(SimTime::from_millis(1), 1, 1, None, AttemptKind::Hedge);
        assert_eq!(dispatched, None, "server 1 busy: hedge queues");

        // The original wins; then server 1 frees and must discard the
        // queued hedge instead of starting it.
        h.on_task_complete(SimTime::from_millis(2), 1, LeaseToken(2), ms(2.0));
        let filler = h.on_task_complete(SimTime::from_millis(3), 0, LeaseToken(1), ms(3.0));
        assert_eq!(filler.next, None, "queued loser discarded, queue empty");
        assert_eq!(h.stats().robustness.cancelled_tasks, 1);
        assert_eq!(
            h.stats().load.tasks_completed_count(),
            2,
            "the cancelled hedge never counts as a dequeue"
        );
    }

    #[test]
    fn expired_lease_reclaims_and_fences_the_zombie() {
        let mut h = handler(1, Policy::TfEdf, None).with_lease(ms(2.0));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let d = started[0];
        assert_eq!(d.lease_expires_at, Some(SimTime::ZERO + ms(2.0)));

        // Not yet expired: the check is a no-op.
        assert!(h
            .on_lease_expired(SimTime::from_millis(1), d.task, d.lease)
            .is_none());

        // Expired: the task is reclaimed and immediately re-dispatched on
        // the freed server under a new lease.
        let again = h
            .on_lease_expired(SimTime::from_millis(2), d.task, d.lease)
            .flatten()
            .expect("reclaimed task re-dispatches");
        assert_eq!(again.task, d.task);
        assert!(again.lease > d.lease, "re-dispatch gets a newer token");
        assert_eq!(h.lifecycle().reclaims, 1);
        // A second check against the superseded token is fenced.
        assert!(h
            .on_lease_expired(SimTime::from_millis(3), d.task, d.lease)
            .is_none());
        assert_eq!(h.lifecycle().reclaims, 1);

        // The zombie incarnation's late result is fenced off...
        let stale = h.on_task_complete(SimTime::from_millis(3), d.task, d.lease, ms(3.0));
        assert_eq!(stale.commit, CommitOutcome::Stale);
        assert!(stale.done.is_none() && stale.next.is_none());
        assert_eq!(h.stats().completed_queries, 0);

        // ...and the live incarnation completes the query exactly once.
        let win = h.on_task_complete(SimTime::from_millis(4), d.task, again.lease, ms(2.0));
        assert_eq!(win.commit, CommitOutcome::Committed);
        assert!(win.done.is_some());
        let dup = h.on_task_complete(SimTime::from_millis(5), d.task, again.lease, ms(2.0));
        assert_eq!(dup.commit, CommitOutcome::Duplicate);
        assert_eq!(h.stats().completed_queries, 1, "no double counting");
        assert_eq!(h.lifecycle().stale_commits_rejected, 1);
        assert_eq!(h.lifecycle().duplicates_suppressed, 1);
    }

    #[test]
    fn stale_loss_report_is_fenced_too() {
        let mut h = handler(2, Policy::TfEdf, None)
            .with_mitigation(MitigationConfig::new())
            .with_lease(ms(2.0));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let d = started[0];
        let again = h
            .on_lease_expired(SimTime::from_millis(2), d.task, d.lease)
            .flatten()
            .expect("reclaim re-dispatches");
        // A loss notification from the presumed-dead incarnation must not
        // trigger a retry or free the server a second time.
        let stale = h.on_task_lost(SimTime::from_millis(3), d.task, d.lease);
        assert_eq!(
            stale,
            TaskCompletion {
                next: None,
                retry: None,
                done: None,
                commit: CommitOutcome::Stale
            }
        );
        assert_eq!(h.stats().robustness.tasks_lost_to_faults, 0);

        let q = h
            .on_task_complete(SimTime::from_millis(4), d.task, again.lease, ms(2.0))
            .done
            .expect("live incarnation completes");
        assert!(!q.partial);
    }

    #[test]
    fn reclaim_of_a_resolved_slot_cancels_instead_of_reenqueueing() {
        let mut h = handler(2, Policy::TfEdf, None)
            .with_mitigation(MitigationConfig::new().with_hedge_after(0.1))
            .with_lease(ms(5.0));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let d = started[0];
        // A hedge on server 1 wins the slot while the original hangs.
        let (hedge, dispatched) =
            h.issue_duplicate(SimTime::from_millis(1), 0, 1, None, AttemptKind::Hedge);
        let hedge_lease = dispatched.expect("idle backup dispatches").lease;
        h.on_task_complete(SimTime::from_millis(2), hedge, hedge_lease, ms(1.0));
        assert_eq!(h.stats().completed_queries, 1);

        // The original's lease expires: nothing left to recover, so the
        // reclaim cancels it rather than re-enqueueing.
        let next = h.on_lease_expired(SimTime::from_millis(5), d.task, d.lease);
        assert_eq!(next, Some(None), "reclaimed, no queued work to start");
        assert_eq!(h.lifecycle().reclaims, 1);
        assert_eq!(h.stats().robustness.cancelled_tasks, 1);
        assert_eq!(h.task_in_service(0), None, "suspected server was freed");
    }

    /// A test sink sharing its event log through an `Arc` so the handler
    /// can own one clone while the test reads the other.
    #[derive(Debug, Default, Clone)]
    struct TestSink(std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>);

    impl TraceSink for TestSink {
        fn record(&mut self, event: &TraceEvent) {
            self.0.lock().unwrap().push(*event);
        }
    }

    #[test]
    fn late_events_on_a_retired_task_keep_their_answers() {
        let sink = TestSink::default();
        let mut h = handler(2, Policy::TfEdf, None)
            .with_mitigation(MitigationConfig::new().with_hedge_after(0.5))
            .with_lease(ms(2.0))
            .with_trace_sink(Box::new(sink.clone()));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let d = started[0];
        let again = h
            .on_lease_expired(SimTime::from_millis(2), d.task, d.lease)
            .flatten()
            .expect("reclaim re-dispatches");
        let won = h.on_task_complete(SimTime::from_millis(3), d.task, again.lease, ms(1.0));
        assert!(won.done.is_some());
        assert_eq!((h.first_live_task(), h.first_live_query()), (0, 0));
        // The next admission retires the finished task, then its query.
        h.on_query_arrival(SimTime::from_millis(4), arrival(&[1], true), &mut started);
        h.on_query_arrival(SimTime::from_millis(4), arrival(&[1], true), &mut started);
        assert_eq!((h.first_live_task(), h.first_live_query()), (1, 1));
        assert_eq!(h.query_count(), 3, "ids stay dense");

        let at = SimTime::from_millis(5);
        let stale = h.on_task_complete(at, d.task, d.lease, ms(5.0));
        assert_eq!(stale.commit, CommitOutcome::Stale);
        let dup = h.on_task_lost(at, d.task, again.lease);
        assert_eq!(dup.commit, CommitOutcome::Duplicate);
        assert!(stale.next.is_none() && dup.next.is_none() && dup.retry.is_none());
        assert!(h.on_lease_expired(at, d.task, again.lease).is_none());
        assert_eq!(h.copy_target(at, d.task), None);
        let life = h.lifecycle();
        assert_eq!(
            (life.stale_commits_rejected, life.duplicates_suppressed),
            (1, 1)
        );
        // The zombie is narrated in full from its reclaimed lease; the
        // redelivery is counted only.
        let events = sink.0.lock().unwrap();
        let late: Vec<_> = events.iter().filter(|e| e.at() == at).collect();
        assert_eq!(
            late,
            [&TraceEvent::StaleCommitRejected {
                at,
                task: d.task,
                query: 0,
                server: 0,
                token: d.lease,
            }]
        );
    }

    #[test]
    fn trace_stream_covers_the_basic_lifecycle() {
        let sink = TestSink::default();
        let mut h = handler(1, Policy::Fifo, None).with_trace_sink(Box::new(sink.clone()));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        h.on_task_complete(SimTime::from_millis(3), 0, LeaseToken(1), ms(3.0));

        let events = sink.0.lock().unwrap();
        let kinds: Vec<&str> = events.iter().map(TraceEvent::kind_name).collect();
        assert_eq!(
            kinds,
            vec![
                "query_admitted",
                "task_enqueued",
                "task_dequeued", // idle server: immediate dequeue
                "query_admitted",
                "task_enqueued", // server busy: waits
                "task_completed",
                "task_dequeued", // work conservation after the completion
            ]
        );
        // The queued task's dequeue carries its wait and positive slack.
        match events[6] {
            TraceEvent::TaskDequeued {
                task,
                waited,
                slack_ns,
                ..
            } => {
                assert_eq!(task, 1);
                assert_eq!(waited, ms(3.0));
                assert!(slack_ns > 0, "dequeue within budget has positive slack");
            }
            ref other => panic!("expected TaskDequeued, got {other:?}"),
        }
    }

    /// A [`TestSink`] that asks for its events in batches of 4096.
    struct Batching(TestSink);

    impl TraceSink for Batching {
        fn record(&mut self, event: &TraceEvent) {
            self.0.record(event);
        }

        fn batch_hint(&self) -> usize {
            4096
        }
    }

    #[test]
    fn each_event_reaches_the_sink_before_its_call_returns() {
        let sink = TestSink::default();
        let mut h =
            handler(1, Policy::Fifo, None).with_trace_sink(Box::new(Batching(sink.clone())));
        let recorded = || sink.0.lock().unwrap().len();
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        assert_eq!(recorded(), 3, "admitted, enqueued, dequeued");
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        assert_eq!(recorded(), 5, "admitted, enqueued");
        h.on_task_complete(SimTime::from_millis(3), 0, LeaseToken(1), ms(3.0));
        assert_eq!(recorded(), 7, "completed, dequeued");
        drop(h);
        assert_eq!(recorded(), 7, "nothing was held back for the drop");
    }

    #[test]
    fn trace_records_misses_hedges_and_cancellations() {
        let sink = TestSink::default();
        let mut h = handler(2, Policy::TfEdf, None)
            .with_mitigation(MitigationConfig::new().with_hedge_after(0.5))
            .with_trace_sink(Box::new(sink.clone()));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        let (_, due) = h.hedge_checks(0).next().unwrap();
        let (hedge, _) = h.issue_duplicate(due, 0, 1, None, AttemptKind::Hedge);
        h.on_task_complete(due + ms(1.0), hedge, LeaseToken(2), ms(1.0));
        h.on_task_complete(due + ms(5.0), 0, LeaseToken(1), ms(5.0));

        let events = sink.0.lock().unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::HedgeIssued { slot: 0, .. })));
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::TaskEnqueued {
                    kind: AttemptKind::Hedge,
                    ..
                }
            )),
            "the hedge copy gets its own enqueue event"
        );
        // The hedge wins; the original's completion is a loser.
        assert!(events.iter().any(
            |e| matches!(e, TraceEvent::TaskCompleted { task, won: true, .. } if *task == hedge)
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::TaskCompleted {
                task: 0,
                won: false,
                ..
            }
        )));
    }

    #[test]
    fn trace_records_admission_edges() {
        let adm = AdmissionConfig::new(ms(100.0), 0.1).with_min_samples(1);
        let sink = TestSink::default();
        let mut h = handler(1, Policy::TfEdf, Some(adm)).with_trace_sink(Box::new(sink.clone()));
        let mut started = Vec::new();
        // Queue a doomed query behind a filler so its dequeue is a miss.
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        h.on_query_arrival(
            SimTime::ZERO,
            QueryArrival {
                budget_override: Some(SimDuration::ZERO),
                ..arrival(&[0], true)
            },
            &mut started,
        );
        h.on_task_complete(SimTime::from_millis(1), 0, LeaseToken(1), ms(1.0));
        // Miss ratio 1/2 > 0.1: this arrival flips admission to rejecting.
        h.on_query_arrival(SimTime::from_millis(1), arrival(&[0], true), &mut started);
        // After the window expires, admission resumes and admits again.
        h.on_query_arrival(SimTime::from_millis(500), arrival(&[0], true), &mut started);

        let events = sink.0.lock().unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::DeadlineMissed { task: 1, .. })));
        let pause = events
            .iter()
            .position(|e| matches!(e, TraceEvent::AdmissionPause { .. }))
            .expect("admission paused");
        let resume = events
            .iter()
            .position(|e| matches!(e, TraceEvent::AdmissionResume { .. }))
            .expect("admission resumed");
        assert!(pause < resume);
        assert!(events[pause..resume]
            .iter()
            .any(|e| matches!(e, TraceEvent::QueryRejected { .. })));
    }

    #[test]
    fn queue_depth_accessors_track_occupancy() {
        let mut h = handler(2, Policy::Fifo, None);
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        h.on_query_arrival(SimTime::ZERO, arrival(&[0, 1], true), &mut started);
        assert_eq!(h.queued_tasks(), 1, "one task waits behind server 0");
        assert_eq!(h.servers_busy(), 2);
        h.on_task_complete(SimTime::from_millis(1), 0, LeaseToken(1), ms(1.0));
        assert_eq!(h.queued_tasks(), 0);
    }

    #[test]
    fn hedge_budget_caps_outstanding_duplicates() {
        let mut h = handler(4, Policy::TfEdf, None).with_mitigation(
            MitigationConfig::new()
                .with_hedge_after(0.5)
                .with_max_attempts(4)
                .with_hedge_budget(1),
        );
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        h.on_query_arrival(SimTime::ZERO, arrival(&[1], true), &mut started);

        // The first hedge fits the bucket; the second is denied while it
        // is outstanding.
        let (_, due) = h.hedge_checks(0).next().unwrap();
        let target = h.copy_target(due, 0).expect("budget available");
        let (hedge, dispatched) = h.issue_duplicate(due, 0, target, None, AttemptKind::Hedge);
        let lease = dispatched.expect("idle backup dispatches").lease;
        assert_eq!(h.copy_target(due, 1), None, "bucket exhausted");
        assert_eq!(h.stats().robustness.budget_exhausted, 1);

        // The hedge resolving returns its token; hedging works again.
        h.on_task_complete(due + ms(1.0), hedge, lease, ms(1.0));
        assert!(h.copy_target(due, 1).is_some(), "token returned");
        assert_eq!(h.stats().robustness.budget_exhausted, 1);
    }

    #[test]
    fn hedge_budget_denies_retries_of_lost_tasks() {
        let mut h = handler(3, Policy::TfEdf, None)
            .with_mitigation(MitigationConfig::new().with_hedge_budget(1));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        h.on_query_arrival(SimTime::ZERO, arrival(&[1], true), &mut started);

        // First loss retries (token taken); the second is denied and its
        // query fails outright.
        let first = h.on_task_lost(SimTime::from_millis(1), 0, LeaseToken(1));
        assert!(first.retry.is_some());
        let plan = first.retry.unwrap();
        h.issue_duplicate(
            SimTime::from_millis(1),
            plan.slot,
            plan.server,
            None,
            AttemptKind::Retry,
        );
        let second = h.on_task_lost(SimTime::from_millis(1), 1, LeaseToken(2));
        assert_eq!(second.retry, None, "bucket exhausted: no retry");
        assert!(second.done.is_some(), "slot resolves as lost instead");
        assert_eq!(h.stats().robustness.budget_exhausted, 1);
        assert_eq!(h.stats().robustness.failed_queries, 1);
    }

    #[test]
    fn ejected_server_diverts_arrivals_and_probes() {
        let cfg = HealthConfig::new()
            .with_min_observations(4)
            .with_eval_every(4)
            .with_probe_every(3);
        let mut h = handler(3, Policy::TfEdf, None).with_health(cfg);
        let mut started = Vec::new();

        // Teach the tracker that server 2 is a 10× outlier (draining
        // chained dispatches, since diverted tasks may queue).
        for round in 0..20u64 {
            let t = SimTime::from_millis(10 * round);
            h.on_query_arrival(t, arrival(&[0, 1, 2], false), &mut started);
            let mut pending = started.clone();
            while let Some(d) = pending.pop() {
                let busy = if d.server == 2 { ms(2.0) } else { ms(0.2) };
                let c = h.on_task_complete(t + busy, d.task, d.lease, busy);
                pending.extend(c.next);
            }
        }
        assert!(h.health().unwrap().is_ejected(2));

        // Tasks aimed at server 2 now divert to a healthy server, except
        // every 3rd, which probes. (The teaching loop already diverted
        // some post-ejection arrivals, so counters are compared as deltas.)
        let base = h.health().unwrap().stats().clone();
        let mut dispatched_servers = Vec::new();
        for i in 0..6u64 {
            let t = SimTime::from_millis(1000 + i);
            h.on_query_arrival(t, arrival(&[2], false), &mut started);
            let d = started[0];
            dispatched_servers.push(d.server);
            h.on_task_complete(t + ms(0.2), d.task, d.lease, ms(0.2));
        }
        assert!(
            dispatched_servers.iter().filter(|&&s| s != 2).count() == 4
                && dispatched_servers.iter().filter(|&&s| s == 2).count() == 2,
            "4 diverted, 2 probes, got {dispatched_servers:?}"
        );
        let hs = h.health().unwrap().stats();
        assert_eq!(hs.probes - base.probes, 2);
        assert_eq!(hs.rerouted_tasks - base.rerouted_tasks, 4);

        let stats = h.into_stats();
        assert_eq!(stats.health.ejections, 1);
        assert_eq!(stats.server_health.len(), 3);
        assert!(stats.server_health[2] > stats.server_health[0]);
    }

    #[test]
    fn backup_selection_skips_ejected_servers() {
        let cfg = HealthConfig::new()
            .with_min_observations(4)
            .with_eval_every(4);
        let mut h = handler(3, Policy::TfEdf, None)
            .with_health(cfg)
            .with_mitigation(MitigationConfig::new().with_hedge_after(0.5));
        let mut started = Vec::new();
        for round in 0..20u64 {
            let t = SimTime::from_millis(10 * round);
            h.on_query_arrival(t, arrival(&[0, 1, 2], false), &mut started);
            let mut pending = started.clone();
            while let Some(d) = pending.pop() {
                let busy = if d.server == 1 { ms(2.0) } else { ms(0.2) };
                let c = h.on_task_complete(t + busy, d.task, d.lease, busy);
                pending.extend(c.next);
            }
        }
        assert!(h.health().unwrap().is_ejected(1));

        // A hedge for a task on server 0 must pick server 2, never the
        // ejected server 1 (even though both are idle).
        h.on_query_arrival(
            SimTime::from_millis(1000),
            arrival(&[0], false),
            &mut started,
        );
        let slot = started[0].task;
        assert_eq!(h.copy_target(SimTime::from_millis(1000), slot), Some(2));
    }

    #[test]
    fn trace_records_health_transitions_and_budget_denials() {
        // Ejection/readmission flips surface in the trace stream.
        let cfg = HealthConfig::new()
            .with_min_observations(4)
            .with_eval_every(4)
            .with_probe_every(3);
        let sink = TestSink::default();
        let mut h = handler(3, Policy::TfEdf, None)
            .with_health(cfg)
            .with_trace_sink(Box::new(sink.clone()));
        let mut started = Vec::new();
        for round in 0..20u64 {
            let t = SimTime::from_millis(10 * round);
            h.on_query_arrival(t, arrival(&[0, 1, 2], false), &mut started);
            let mut pending = started.clone();
            while let Some(d) = pending.pop() {
                let busy = if d.server == 2 { ms(2.0) } else { ms(0.2) };
                let c = h.on_task_complete(t + busy, d.task, d.lease, busy);
                pending.extend(c.next);
            }
        }
        assert!(h.health().unwrap().is_ejected(2));
        {
            let events = sink.0.lock().unwrap();
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::ServerEjected { server: 2, .. })),
                "ejection flip missing from the trace"
            );
        }
        // Fast probe completions heal the score until readmission, which
        // must surface in the trace as well.
        for i in 0..200u64 {
            let t = SimTime::from_millis(1000 + i);
            h.on_query_arrival(t, arrival(&[2], false), &mut started);
            let d = started[0];
            h.on_task_complete(t + ms(0.2), d.task, d.lease, ms(0.2));
            if !h.health().unwrap().is_ejected(2) {
                break;
            }
        }
        assert!(!h.health().unwrap().is_ejected(2), "server never healed");
        assert!(
            sink.0
                .lock()
                .unwrap()
                .iter()
                .any(|e| matches!(e, TraceEvent::ServerReadmitted { server: 2, .. })),
            "readmission flip missing from the trace"
        );

        // A hedge denied by the empty token bucket is narrated too.
        let sink = TestSink::default();
        let mut h = handler(4, Policy::TfEdf, None)
            .with_mitigation(
                MitigationConfig::new()
                    .with_hedge_after(0.5)
                    .with_max_attempts(4)
                    .with_hedge_budget(1),
            )
            .with_trace_sink(Box::new(sink.clone()));
        let mut started = Vec::new();
        h.on_query_arrival(SimTime::ZERO, arrival(&[0], true), &mut started);
        h.on_query_arrival(SimTime::ZERO, arrival(&[1], true), &mut started);
        let (_, due) = h.hedge_checks(0).next().unwrap();
        let target = h.copy_target(due, 0).expect("budget available");
        h.issue_duplicate(due, 0, target, None, AttemptKind::Hedge);
        assert_eq!(h.copy_target(due, 1), None, "bucket exhausted");
        assert!(
            sink.0
                .lock()
                .unwrap()
                .iter()
                .any(|e| matches!(e, TraceEvent::HedgeBudgetExhausted { slot: 1, .. })),
            "budget denial missing from the trace"
        );
    }

    #[test]
    #[should_panic(expected = "query class 3 out of range")]
    fn class_out_of_range_panics() {
        let mut h = handler(1, Policy::Fifo, None);
        let mut started = Vec::new();
        h.on_query_arrival(
            SimTime::ZERO,
            QueryArrival {
                class: 3,
                ..arrival(&[0], true)
            },
            &mut started,
        );
    }

    #[test]
    #[should_panic(expected = "task budget count must equal fanout")]
    fn task_budget_mismatch_panics() {
        let mut h = handler(2, Policy::TfEdf, None);
        let mut started = Vec::new();
        let budgets = [ms(1.0)];
        h.on_query_arrival(
            SimTime::ZERO,
            QueryArrival {
                task_budgets: Some(&budgets),
                ..arrival(&[0, 1], true)
            },
            &mut started,
        );
    }
}
