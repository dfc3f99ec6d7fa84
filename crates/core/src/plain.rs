//! The plain-run engine: a run in which nothing couples the servers,
//! computed as N independent single-server queues.
//!
//! A run is *plain* when every request carries one query, the estimator is
//! the analytic one, and there is no admission control, fault plan, lease,
//! mitigation, health tracking or adaptive window. Then nothing one server
//! does reaches another: a query's placement, service times and `t_D` are
//! fixed when it arrives, and a server's dequeues depend only on its own
//! arrivals and finishes (the M/G/1-per-server view). [`run_plain`]
//! computes such a run without the event list, the driver, the handler or
//! the lifecycle store, and returns the [`SimReport`] that the event loop
//! of [`crate::run_simulation`] returns for it, field for field, because
//! every draw, stamp and dequeue is the event loop's.
//!
//! The engine takes the requests in arrival order, with their placement
//! and service already drawn in issue order from the same split streams
//! ([`Draws`]: a max-load search draws them once for all its probes, which
//! differ only in their arrival instants). Each task goes to its server,
//! which first catches up: every finish that fires before the arrival
//! frees it and dequeues its next task. A server's queue is ranked
//! by `(Policy::queue_key, task id)`; a server receives its tasks in id
//! order, so the id breaks ties as the event loop's insertion counter
//! does. A query's latency is known once its last task dequeues. Only the
//! queries with a task still queued, and the queued tasks, are held. What
//! a run records of its latencies is its [`Watch`]'s: a full report's
//! reservoirs ([`Record`]), or a verdict's counts.
//!
//! **The one tie that matters.** A finish and an arrival due at the same
//! nanosecond on one server fire in the order the event loop scheduled them
//! (DESIGN.md §10). Arrival `A_i` was scheduled when `A_{i−1}` fired,
//! before `A_{i−1}`'s own tasks began; a finish, when the event that began
//! its task fired. So the finish fires first exactly when its task's
//! beginning event fired before `A_{i−1}`: when fewer than `i` arrivals had
//! fired by then. Every task in service carries that count.

use crate::draws::Draws;
use crate::report::SimReport;
use crate::spec::{ClassSpec, ClusterSpec, RequestInput};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use tailguard_metrics::{LatencyReservoir, LoadStats};
use tailguard_policy::{DeadlineRule, Policy, ServiceClass};
use tailguard_sched::{
    units, DeadlineEstimator, EstimatorMode, HealthStats, IdRing, LifecycleStats, QueryTypeKey,
    RobustnessStats,
};
use tailguard_simcore::{SimDuration, SimTime};

/// What a plain run reads of its configuration: the fields of a
/// [`crate::SimConfig`] with nothing that couples servers set. There is no
/// field for admission, faults, leases, mitigation, health, an adaptive
/// window or an online estimator.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct PlainRun<'a> {
    /// The task-server cluster.
    pub cluster: &'a ClusterSpec,
    /// Service classes, indexed by `QuerySpec::class`.
    pub classes: &'a [ClassSpec],
    /// The queuing policy.
    pub policy: Policy,
    /// Master seed of the placement and service streams.
    pub seed: u64,
    /// Initial queries whose latencies go unrecorded.
    pub warmup_queries: usize,
}

/// What [`run_plain_tapped`] tells its caller, as the engine decides it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlainEvent {
    /// Task `task` (numbered as the event loop numbers it) entered service
    /// on `server` at `at`, `waited` after its query arrived, for its drawn
    /// `service`.
    Dequeued {
        server: u32,
        task: u32,
        at: SimTime,
        waited: SimDuration,
        service: SimDuration,
    },
    /// Query `query` finished `latency` after it arrived.
    Finished { query: u32, latency: SimDuration },
}

/// Sees what a plain run decides, and may end it early. Every method is
/// empty by default.
pub(crate) trait Watch {
    /// Task `task` entered service on `server` at `at`, `waited` after its
    /// query arrived, for its drawn `service`; `recorded` unless the query
    /// was warm-up.
    fn dequeued(
        &mut self,
        _server: u32,
        _task: u32,
        _at: SimTime,
        _waited: SimDuration,
        _service: SimDuration,
        _recorded: bool,
    ) {
    }

    /// Query `query`, of type `key`, finished `latency` after it arrived;
    /// `recorded` unless it was warm-up. Queries finish in the order their
    /// last task dequeues, not in time order.
    fn finished(
        &mut self,
        _query: u32,
        _key: QueryTypeKey,
        _latency: SimDuration,
        _recorded: bool,
    ) {
    }

    /// True once the rest of the run can no longer change what the watch
    /// decides. The run then stops before its next request, and its report
    /// covers only part of the input.
    fn settled(&self) -> bool {
        false
    }
}

/// The latencies a full report holds: every recorded wait before a
/// dequeue, and every recorded query's latency by class and by type.
#[derive(Default)]
pub(crate) struct Record {
    pre_dequeue: LatencyReservoir,
    by_class: BTreeMap<u8, LatencyReservoir>,
    by_type: BTreeMap<QueryTypeKey, LatencyReservoir>,
    completed: u64,
}

impl Watch for Record {
    fn dequeued(
        &mut self,
        _: u32,
        _: u32,
        _: SimTime,
        waited: SimDuration,
        _: SimDuration,
        recorded: bool,
    ) {
        if recorded {
            self.pre_dequeue.record(waited);
        }
    }

    fn finished(&mut self, _: u32, key: QueryTypeKey, latency: SimDuration, recorded: bool) {
        if recorded {
            self.by_class.entry(key.class).or_default().record(latency);
            self.by_type.entry(key).or_default().record(latency);
            self.completed += 1;
        }
    }
}

/// A [`Record`] that also tells a closure of every [`PlainEvent`].
struct Tap<F> {
    record: Record,
    tap: F,
}

impl<F: FnMut(PlainEvent)> Watch for Tap<F> {
    fn dequeued(
        &mut self,
        server: u32,
        task: u32,
        at: SimTime,
        waited: SimDuration,
        service: SimDuration,
        rec: bool,
    ) {
        self.record.dequeued(server, task, at, waited, service, rec);
        (self.tap)(PlainEvent::Dequeued {
            server,
            task,
            at,
            waited,
            service,
        });
    }

    fn finished(&mut self, query: u32, key: QueryTypeKey, latency: SimDuration, rec: bool) {
        self.record.finished(query, key, latency, rec);
        (self.tap)(PlainEvent::Finished { query, latency });
    }
}

/// What every plain run counts, whatever its watch: the report's fields
/// besides the latency reservoirs.
pub(crate) struct Totals {
    pub(crate) load: LoadStats,
    busy_by_server: Vec<SimDuration>,
    elapsed: SimTime,
    arrivals: u64,
    tasks: u32,
    estimator: DeadlineEstimator,
}

impl Totals {
    /// The report of a run that `record` watched.
    pub(crate) fn report(self, run: PlainRun<'_>, record: Record) -> SimReport {
        let tasks = u64::from(self.tasks);
        let estimator = &self.estimator;
        SimReport {
            policy: run.policy,
            classes: run.classes.to_vec(),
            query_latency_by_class: record.by_class,
            query_latency_by_type: record.by_type,
            request_latency_by_class: BTreeMap::new(),
            pre_dequeue: record.pre_dequeue,
            load: self.load,
            busy_by_server: self.busy_by_server,
            elapsed: self.elapsed,
            completed_queries: record.completed,
            rejected_queries: 0,
            // One arrival per request and one finish per task.
            events_processed: self.arrivals + tasks,
            // Every task wins its slot, and every dispatch runs under a
            // lease that commits.
            robustness: RobustnessStats {
                task_wins: tasks,
                ..RobustnessStats::default()
            },
            partial_latency: LatencyReservoir::new(),
            lifecycle: LifecycleStats {
                completed: tasks,
                leases_issued: tasks,
                ..LifecycleStats::default()
            },
            health: HealthStats::default(),
            server_health: Vec::new(),
            estimator_window_rolls: estimator.window_roll_count(),
            budget_lookups: estimator.budget_lookup_count(),
            estimator_refreshes: estimator.refresh_count(),
            cached_budgets: estimator.cached_budget_count() as u64,
        }
    }
}

/// Runs a plain run on `draws` with request `i` arriving at
/// `arrivals[i]`, to completion unless `watch` settles first. A full run
/// watched by a [`Record`] reports what [`crate::run_simulation`] reports
/// for the same configuration and input.
///
/// # Panics
///
/// Panics unless there is one arrival per request and they are in order,
/// and wherever [`crate::run_simulation`] panics on the same input.
#[expect(
    clippy::indexing_slicing,
    reason = "the draws hold `fanout` tasks per query, and `place` checked every target against the cluster the server table is sized from"
)]
pub(crate) fn run_plain<W: Watch>(
    run: PlainRun<'_>,
    arrivals: &[SimTime],
    draws: &Draws,
    watch: &mut W,
) -> Totals {
    assert_eq!(
        arrivals.len(),
        draws.queries.len(),
        "a plain run needs one arrival per request"
    );
    let n = run.cluster.servers();
    let mut estimator =
        DeadlineEstimator::new(run.cluster, run.classes.to_vec(), EstimatorMode::Analytic);
    let mut twin = Twin {
        arrivals,
        warmup: run.warmup_queries,
        servers: (0..n).map(|_| Server::default()).collect(),
        pending: IdRing::new(),
        watch,
        load: LoadStats::new(n),
        busy_by_server: vec![SimDuration::ZERO; n],
        elapsed: SimTime::ZERO,
    };
    let (mut fired, mut tasks, mut last) = (0u64, 0u32, SimTime::ZERO);
    // tg-lint: hot(event-loop)
    for (i, (&now, spec)) in arrivals.iter().zip(&draws.queries).enumerate() {
        if twin.watch.settled() {
            break;
        }
        fired += 1;
        assert!(now >= last, "a plain run's requests arrive in order");
        last = now;
        twin.elapsed = twin.elapsed.max(now);
        if !spec.issued {
            continue;
        }
        let first = tasks as usize;
        let targets = &draws.servers[first..first + spec.fanout as usize];
        let class = spec.class;
        assert!(
            usize::from(class) < run.classes.len(),
            "query class {class} out of range"
        );
        twin.load.query_offered();
        twin.load.query_accepted();
        let own = draws.budgets.get(&i);
        // Eq. 6, as the handler stamps it.
        let budget = match own.and_then(|b| b.query) {
            Some(b) => b,
            None => match run.policy.deadline_rule() {
                DeadlineRule::SloOnly => run.classes[usize::from(class)].slo,
                DeadlineRule::SloAndFanout | DeadlineRule::Unused => {
                    estimator.budget(class, spec.fanout, targets)
                }
            },
        };
        let task_budgets = own.and_then(|b| b.tasks.as_deref());
        let query = twin.pending.push(Pending {
            arrival: now,
            class,
            fanout: spec.fanout,
            waiting: spec.fanout,
            done_at: now,
        });
        for (idx, &server) in targets.iter().enumerate() {
            let service = draws.services[first + idx];
            let budget = task_budgets
                .and_then(|tb| tb.get(idx))
                .map_or(budget, |&b| b);
            let deadline = now + budget;
            twin.load.task_dispatched();
            twin.catch_up(server, now, i);
            let key = run.policy.queue_key(ServiceClass(class), deadline, service);
            let task = Queued {
                rank: u128::from(key) << 64 | u128::from(tasks),
                deadline,
                service,
                query,
                task: tasks,
            };
            tasks += 1;
            if twin.servers[server as usize].busy.is_none() {
                twin.start(server, task, now, i + 1);
            } else {
                twin.servers[server as usize].queue.push(Reverse(task));
            }
        }
    }
    // Past the last arrival every server drains.
    for server in 0..units::sat_usize_to_u32(n) {
        if twin.watch.settled() {
            break;
        }
        twin.catch_up(server, SimTime::MAX, usize::MAX);
    }
    // tg-lint: endhot
    Totals {
        load: twin.load,
        busy_by_server: twin.busy_by_server,
        elapsed: twin.elapsed,
        arrivals: fired,
        tasks,
        estimator,
    }
}

/// [`run_plain`] on `input` to completion, telling `tap` of
/// every dequeue and every finished query: the engine's decisions, for
/// comparison with the event loop's trace.
///
/// # Panics
///
/// Panics on a request with more than one query or out of arrival order,
/// and wherever [`crate::run_simulation`] panics on the same input.
#[doc(hidden)]
pub fn run_plain_tapped(
    run: PlainRun<'_>,
    input: impl IntoIterator<Item = RequestInput>,
    tap: impl FnMut(PlainEvent),
) -> SimReport {
    let (arrivals, draws) = Draws::of(&run, input.into_iter().map(|r| (r.arrival, r)));
    let mut watch = Tap {
        record: Record::default(),
        tap,
    };
    run_plain(run, &arrivals, &draws, &mut watch).report(run, watch.record)
}

/// A task waiting at its server, ranked `queue_key << 64 | task`. Ranks
/// are unique, so the derived order is the rank's.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Queued {
    rank: u128,
    deadline: SimTime,
    service: SimDuration,
    query: u32,
    task: u32,
}

/// The task a server is serving: when it finishes, and how many arrivals
/// had fired when the event that began it fired.
#[derive(Debug, Clone, Copy)]
struct Busy {
    until: SimTime,
    fired: usize,
}

/// A server's queue, least rank first, and the task it is serving.
#[derive(Default)]
struct Server {
    queue: BinaryHeap<Reverse<Queued>>,
    busy: Option<Busy>,
}

/// A query with a task not yet dequeued.
struct Pending {
    arrival: SimTime,
    class: u8,
    fanout: u32,
    /// Its tasks not yet dequeued.
    waiting: u32,
    /// The latest finish among its dequeued tasks.
    done_at: SimTime,
}

/// The servers, the queries in flight and the counts of one run.
struct Twin<'a, W> {
    arrivals: &'a [SimTime],
    warmup: usize,
    servers: Vec<Server>,
    pending: IdRing<Pending>,
    watch: &'a mut W,
    load: LoadStats,
    busy_by_server: Vec<SimDuration>,
    /// The latest event so far: an arrival or a task's finish.
    elapsed: SimTime,
}

#[expect(
    clippy::indexing_slicing,
    reason = "per-server tables are sized from the cluster, and `place` checked every server a task names"
)]
impl<W: Watch> Twin<'_, W> {
    /// Brings `server` up to arrival `A_i`, due at `now`: each finish that
    /// fires before `A_i` frees the server, which dequeues its next task.
    fn catch_up(&mut self, server: u32, now: SimTime, i: usize) {
        while let Some(busy) = self.servers[server as usize].busy {
            if busy.until > now || (busy.until == now && busy.fired >= i) {
                return;
            }
            let slot = &mut self.servers[server as usize];
            slot.busy = None;
            let Some(Reverse(next)) = slot.queue.pop() else {
                return;
            };
            let fired = self.fired_by(busy, i);
            self.start(server, next, busy.until, fired);
        }
    }

    /// How many arrivals have fired when the finish of `busy` fires, given
    /// that it fires before `A_to`. `A_k`, `k = busy.fired`, was scheduled
    /// by the time the task began (when `A_{k−1}` fired), so before the
    /// finish, and fires first if it is due by then; every later arrival
    /// is scheduled after the finish and fires first only if due earlier.
    fn fired_by(&self, busy: Busy, to: usize) -> usize {
        let k = busy.fired;
        match self.arrivals.get(k) {
            Some(&a) if a <= busy.until => {
                let to = to.min(self.arrivals.len());
                let later = self.arrivals.get(k + 1..to).unwrap_or_default();
                k + 1 + due_before(later, busy.until)
            }
            _ => k,
        }
    }

    /// Puts `task` into service on `server` at `now`; `fired` arrivals had
    /// fired when the event that began it fired.
    fn start(&mut self, server: u32, task: Queued, now: SimTime, fired: usize) {
        let until = now + task.service;
        self.load.task_completed(now > task.deadline);
        self.load.record_busy(task.service);
        self.busy_by_server[server as usize] += task.service;
        self.servers[server as usize].busy = Some(Busy { until, fired });
        self.elapsed = self.elapsed.max(until);
        let recorded = task.query as usize >= self.warmup;
        let query = self.pending.row_mut(task.query);
        let waited = now.saturating_since(query.arrival);
        query.done_at = query.done_at.max(until);
        query.waiting = query.waiting.saturating_sub(1);
        let done = query.waiting == 0;
        self.watch
            .dequeued(server, task.task, now, waited, task.service, recorded);
        if done {
            self.finish(task.query, recorded);
        }
    }

    /// Tells the watch the latency of `query`, whose last task just
    /// dequeued, and retires the finished queries at the front.
    fn finish(&mut self, query: u32, recorded: bool) {
        let row = self.pending.row(query);
        let latency = row.done_at.saturating_since(row.arrival);
        let key = QueryTypeKey {
            class: row.class,
            fanout: row.fanout,
        };
        self.watch.finished(query, key, latency, recorded);
        while self.pending.front().is_some_and(|q| q.waiting == 0) {
            self.pending.pop_front();
        }
    }
}

/// How many of `arrivals`, in order, are due before `t`: a galloping
/// search from the front, so a count of `c` costs `O(log c)` however long
/// the slice.
fn due_before(arrivals: &[SimTime], t: SimTime) -> usize {
    let (mut lo, mut width) = (0usize, 1);
    loop {
        let hi = lo.saturating_add(width).min(arrivals.len());
        let window = arrivals.get(lo..hi).unwrap_or_default();
        match window.last() {
            Some(&last) if last < t => {
                lo = hi;
                width *= 2;
            }
            _ => return lo + window.partition_point(|&a| a < t),
        }
    }
}
