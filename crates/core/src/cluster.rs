//! The discrete-event cluster simulator.
//!
//! The simulator's [`Transport`] under the shared [`Driver`] and its
//! [`QueryHandler`], which implement the TailGuard query processing model
//! of Fig. 2: deadline stamping (`t_D = t_0 + T_b`, Eq. 6), per-server
//! policy queues, dequeue-time deadline-miss detection (§III.C),
//! window-based admission, and fanout aggregation. This module owns only
//! what is genuinely simulation: the event list, the RNG streams that draw
//! placements and service times, failure injection, warm-up accounting,
//! and the sequential request chaining of Fig. 1.

use crate::observe::SimSnapshot;
use crate::report::SimReport;
use crate::spec::{ClusterSpec, QueryChain, QuerySpec, RequestInput, SimConfig};
use std::collections::BTreeMap;
use tailguard_faults::{DispatchOutcome, FaultPlan, FinishOutcome};
use tailguard_metrics::LatencyReservoir;
use tailguard_sched::{
    Begun, DeadlineEstimator, DispatchedTask, Driver, EstimatorMode, LeaseToken, QueryArrival,
    QueryHandler, Timer, TraceSink, Transport,
};
use tailguard_simcore::{Scheduler, SimDuration, SimRng, SimTime};

/// Runs one simulation to completion and returns the measurements.
///
/// `input` yields the requests in arrival order: a caller's `&SimInput`,
/// or a scenario's [`Scenario::requests`](crate::Scenario::requests),
/// which the run pulls one at a time and never holds whole.
///
/// The run is fully deterministic in `(config.seed, input)`: service times
/// and placements are drawn from split RNG streams in request-arrival order,
/// so replaying the same input under different policies compares them on
/// identical work (the variance-reduction setup behind the paper's policy
/// comparisons).
///
/// # Panics
///
/// Panics, when the run reaches the offending query, on a query with
/// - a class outside `config.classes`;
/// - a fanout of 0, or over the cluster's `N` servers;
/// - an explicit placement ([`QuerySpec::servers`]) whose length is not
///   the fanout, or that names a server outside `0..N`;
/// - per-task budgets ([`QuerySpec::task_budgets`]) whose count is not the
///   fanout.
///
/// # Example
///
/// ```
/// use tailguard::{run_simulation, ClassSpec, ClusterSpec, SimConfig, SimInput};
/// use tailguard_policy::Policy;
/// use tailguard_simcore::SimDuration;
/// use tailguard_workload::{ArrivalProcess, FanoutDist, QueryMix, Trace};
/// use tailguard_workload::TailbenchWorkload;
///
/// let trace = Trace::generate(
///     "quick",
///     &ArrivalProcess::poisson(0.5),
///     &QueryMix::single(FanoutDist::paper_mix()),
///     2_000,
///     7,
/// );
/// let cfg = SimConfig::new(
///     ClusterSpec::homogeneous(100, TailbenchWorkload::Masstree.service_dist()),
///     vec![ClassSpec::p99(SimDuration::from_millis_f64(1.0))],
///     Policy::TfEdf,
/// ).with_warmup(100);
/// let mut report = run_simulation(&cfg, &SimInput::from_trace(&trace));
/// assert!(report.completed_queries > 0);
/// assert!(report.meets_all_slos());
/// ```
pub fn run_simulation(
    config: &SimConfig,
    input: impl IntoIterator<Item = RequestInput>,
) -> SimReport {
    run_with_observer(config, input.into_iter(), None, None).0
}

/// Runs one simulation with a caller-supplied trace sink and *nothing
/// else* from the observability layer: no snapshot events, no registry
/// ingest, no decoding. The report — including `events_processed` — is
/// identical to [`run_simulation`]'s; the only added cost is the sink's
/// own recording, which is exactly what tgbench's
/// `obs.recording_overhead_pct` row measures. Use
/// [`crate::run_simulation_observed`] for the full metrics/snapshot
/// pipeline.
///
/// # Panics
///
/// Panics where [`run_simulation`] does, on the same input.
pub fn run_simulation_traced(
    config: &SimConfig,
    input: impl IntoIterator<Item = RequestInput>,
    sink: Box<dyn TraceSink>,
) -> SimReport {
    run_with_observer(config, input.into_iter(), Some(sink), None).0
}

/// The shared run loop behind [`run_simulation`] and
/// [`crate::run_simulation_observed`]: the report, plus the snapshots
/// sampled every `snapshot_every` of virtual time. Without a `sink` the
/// handler builds no trace event, and without a cadence no snapshot event
/// enters the event list, so the report — `events_processed` included — is
/// the unobserved run's.
pub(crate) fn run_with_observer(
    config: &SimConfig,
    requests: impl Iterator<Item = RequestInput>,
    sink: Option<Box<dyn TraceSink>>,
    snapshot_every: Option<SimDuration>,
) -> (SimReport, Vec<SimSnapshot>) {
    let mut master = SimRng::seed(config.seed);
    let placement_rng = master.split();
    let service_rng = master.split();
    let mut estimator_rng = master.split();

    let mut estimator = DeadlineEstimator::new(
        &config.cluster,
        config.classes.clone(),
        config.estimator.clone(),
    );
    if let EstimatorMode::Online {
        offline_samples, ..
    } = config.estimator
    {
        estimator.seed_offline(&config.cluster, offline_samples, &mut estimator_rng);
    }
    if let Some(aw) = config.adaptive {
        estimator = estimator.with_adaptive(aw);
    }

    let mut handler = QueryHandler::new(
        config.policy,
        config.classes.clone(),
        config.cluster.servers(),
        estimator,
        config.admission,
    );
    if let Some(mitigation) = config.mitigation {
        handler = handler.with_mitigation(mitigation);
    }
    if let Some(ttl) = config.lease {
        handler = handler.with_lease(ttl);
    }
    if let Some(hc) = config.health {
        handler = handler.with_health(hc);
    }
    if let Some(sink) = sink {
        handler = handler.with_trace_sink(sink);
    }
    let sim = ClusterSim {
        config,
        // An empty plan is normalized to "no plan" so the hot path stays
        // the config-gated single schedule_in either way.
        faults: config.faults.as_ref().filter(|p| !p.is_empty()),
        service_rng,
        events: Scheduler::new(),
    };
    let mut run = Run {
        config,
        driver: Driver::new(handler, sim),
        placement_rng,
        targets_scratch: Vec::new(),
        services_scratch: Vec::new(),
        requests,
        next: None,
        chains: BTreeMap::new(),
        arrived: 0,
        request_latency_by_class: BTreeMap::new(),
        snapshot_every,
        snapshot_pending: false,
        snapshots: Vec::new(),
        last_activity: SimTime::ZERO,
    };

    run.pull(SimTime::ZERO);
    let mut events = 0u64;
    // tg-lint: hot(event-loop)
    while let Some(scheduled) = run.events().pop() {
        events += 1;
        let (now, ev) = (scheduled.at(), scheduled.event);
        let arrival = matches!(ev, Ev::Arrive);
        run.handle(now, ev);
        run.settle(now);
        // An arrival's fallout settles before the snapshot is armed.
        if arrival {
            run.schedule_snapshot(now);
        }
    }
    // tg-lint: endhot
    // `last_activity` equals the last event's time on unobserved runs
    // (every event updates it); on observed runs it excludes any snapshot
    // that fired after the final completion, keeping `elapsed` — and with
    // it every load ratio — identical to the unobserved run.
    let elapsed = run.last_activity;
    // Observed runs always end with one final snapshot at the last event
    // time, so even an empty or snapshot-free run yields ≥ 1 snapshot.
    // Trailing idle samples past `elapsed` are superseded by it.
    if run.snapshot_every.is_some() {
        run.snapshots.retain(|s| s.at_ns <= elapsed.as_nanos());
        run.take_snapshot(elapsed);
    }
    let stats = run.driver.into_handler().into_stats();
    let report = SimReport {
        policy: config.policy,
        classes: config.classes.clone(),
        query_latency_by_class: stats.query_latency_by_class,
        query_latency_by_type: stats.query_latency_by_type,
        request_latency_by_class: run.request_latency_by_class,
        pre_dequeue: stats.pre_dequeue,
        load: stats.load,
        busy_by_server: stats.busy_by_server,
        elapsed,
        completed_queries: stats.completed_queries,
        rejected_queries: stats.rejected_queries,
        events_processed: events,
        robustness: stats.robustness,
        partial_latency: stats.partial_latency,
        lifecycle: stats.lifecycle,
        health: stats.health,
        server_health: stats.server_health,
        estimator_window_rolls: stats.estimator_window_rolls,
        budget_lookups: stats.budget_lookups,
        estimator_refreshes: stats.estimator_refreshes,
        cached_budgets: stats.cached_budgets,
    };
    (report, run.snapshots)
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The request [`Run::next`] holds arrives (its first query is issued).
    Arrive,
    /// The work dispatched for `task` on `server` under `token` finishes.
    /// The token fences the result: a reclaim between dispatch and finish
    /// turns this into a stale commit the handler rejects. `busy` is the
    /// effective dispatch→finish delay of *this* attempt (nominal service
    /// plus any fault hold/slowdown) — carried in the event rather than in
    /// per-task state because a reclaimed task can be re-dispatched with a
    /// different effective delay while a zombie finish is still in flight.
    Finish {
        server: u32,
        task: u32,
        token: LeaseToken,
        busy: SimDuration,
    },
    /// A hedge check or lease expiry the driver armed.
    Timer(Timer),
    /// Observed runs only: sample a [`SimSnapshot`] of the cluster state.
    Snapshot,
}

/// The driver's tag of each admitted query: when its request arrived,
/// and for a request of several queries (Fig. 1 chaining), its arrival
/// number, its key in [`Run::chains`].
#[derive(Debug, Clone, Copy)]
struct Tag {
    started: SimTime,
    chain: Option<u64>,
}

/// [`Scheduler`] lanes of the events the simulator schedules in time
/// order: the arrival chain (one pending `Ev::Arrive`), lease expiries and
/// hedge checks. `Ev::Finish` and `Ev::Snapshot` go on the heap.
const ARRIVAL_LANE: usize = 0;
const LEASE_LANE: usize = 1;
const HEDGE_LANE: usize = 2;

/// The simulator's transport: the event list, the fault plan, and the
/// service-time stream.
struct ClusterSim<'a> {
    config: &'a SimConfig,
    /// Interval fault episodes, if configured (empty plans normalized away).
    faults: Option<&'a FaultPlan>,
    service_rng: SimRng,
    /// The future-event list.
    events: Scheduler<Ev>,
}

/// Draws one nominal service time for `server` from the cluster's service
/// distribution (fault episodes apply later, at dispatch time).
pub(crate) fn draw_service(cluster: &ClusterSpec, rng: &mut SimRng, server: u32) -> SimDuration {
    SimDuration::from_millis_f64(cluster.service_of(server as usize).sample(rng))
}

/// Fills `out` with the servers `spec` fans out to on a cluster of `n`:
/// its explicit placement, or `k_f` distinct servers drawn from `rng`.
pub(crate) fn place(n: usize, spec: &QuerySpec, rng: &mut SimRng, out: &mut Vec<u32>) {
    match spec.servers() {
        Some(s) => {
            assert_eq!(
                s.len(),
                spec.fanout as usize,
                "explicit placement length must equal fanout"
            );
            assert!(
                s.iter().all(|&i| (i as usize) < n),
                "placement server index out of range"
            );
            out.clear();
            out.extend_from_slice(s);
        }
        None => {
            assert!(
                spec.fanout as usize <= n,
                "fanout {} exceeds cluster size {n}",
                spec.fanout
            );
            // tg-lint: hot(admit)
            rng.sample_distinct_into(n, spec.fanout as usize, out);
            // tg-lint: endhot
        }
    }
}

impl<'a> Transport for ClusterSim<'a> {
    /// The nominal service draw: a reclaimed task re-dispatches from it, so
    /// reclaims cannot compound fault holds.
    type Row = SimDuration;
    type Tag = Tag;

    /// Without a fault plan this is exactly one `schedule_in`; with one,
    /// the task can be swallowed by an active crash, dropped by an active
    /// blackout, or its completion deferred by stall/restart/slowdown.
    fn begin(&mut self, now: SimTime, d: DispatchedTask, service: SimDuration) -> Begun {
        let outcome = match self.faults {
            None => DispatchOutcome::Runs(service),
            Some(faults) => faults.at_dispatch(d.server, now, service),
        };
        // The effective delay rides in the event so busy/estimator
        // accounting at completion observes the fault.
        let delay = match outcome {
            DispatchOutcome::Swallowed => return Begun::Swallowed,
            DispatchOutcome::Dropped => return Begun::Dropped,
            DispatchOutcome::Runs(delay) => delay,
        };
        let finish = Ev::Finish {
            server: d.server,
            task: d.task,
            token: d.lease,
            busy: delay,
        };
        self.events.schedule_in(now, delay, finish);
        Begun::Runs
    }

    /// Each timer kind waits in its own lane: leases are armed at
    /// `now + ttl`, so always in time order, and hedge checks at
    /// `now + f·T_b`, out of order only when `T_b` shrinks.
    fn arm(&mut self, at: SimTime, timer: Timer) {
        let lane = match timer {
            Timer::Lease(..) => LEASE_LANE,
            Timer::Hedge(_) => HEDGE_LANE,
        };
        self.events.schedule_in_lane(lane, at, Ev::Timer(timer));
    }

    /// A fresh service draw, which doubles as the copy's size hint.
    fn copy(
        &mut self,
        _: SimTime,
        server: u32,
        _: SimDuration,
    ) -> (SimDuration, Option<SimDuration>) {
        let service = draw_service(&self.config.cluster, &mut self.service_rng, server);
        (service, Some(service))
    }
}

/// One run: the driver over [`ClusterSim`], plus the input, placement,
/// warm-up, request chaining and snapshots.
struct Run<'a, I> {
    config: &'a SimConfig,
    driver: Driver<ClusterSim<'a>>,
    placement_rng: SimRng,
    // Per-query scratch, reused across issue_query calls so the hot path
    // does not allocate per query.
    targets_scratch: Vec<u32>,
    services_scratch: Vec<SimDuration>,
    /// The requests not yet pulled, in arrival order.
    requests: I,
    /// The pulled request whose `Ev::Arrive` is scheduled.
    next: Option<RequestInput>,
    /// The requests of several queries with one in flight, by arrival
    /// number: their queries, and the index of that one.
    chains: BTreeMap<u64, (QueryChain, usize)>,
    /// The requests that have arrived.
    arrived: u64,
    request_latency_by_class: BTreeMap<u8, LatencyReservoir>,
    /// Snapshot cadence in virtual time; `None` for unobserved runs (the
    /// default), which then schedule no `Ev::Snapshot` events at all.
    snapshot_every: Option<SimDuration>,
    /// True while an `Ev::Snapshot` sits in the heap — keeps at most one
    /// pending so a burst of arrivals cannot pile up samplers.
    snapshot_pending: bool,
    snapshots: Vec<SimSnapshot>,
    /// Time of the last *simulation* event (arrival/finish/hedge-check).
    /// Reported as `elapsed` so a trailing snapshot firing after the
    /// cluster drained cannot stretch observed runs' load denominators.
    last_activity: SimTime,
}

impl<'a, I: Iterator<Item = RequestInput>> Run<'a, I> {
    fn events(&mut self) -> &mut Scheduler<Ev> {
        &mut self.driver.transport.events
    }

    /// Pulls the next request and schedules its arrival, no earlier than `now`.
    fn pull(&mut self, now: SimTime) {
        self.next = self.requests.next();
        if let Some(next) = &self.next {
            let at = next.arrival.max(now);
            self.events().schedule_in_lane(ARRIVAL_LANE, at, Ev::Arrive);
        }
    }

    /// Issues `spec` for the request `tag` names; `false` if it is rejected.
    fn issue_query(&mut self, now: SimTime, spec: &QuerySpec, tag: Tag) -> bool {
        let n = self.config.cluster.servers();
        place(n, spec, &mut self.placement_rng, &mut self.targets_scratch);
        // Service times drawn now, in issue order, for cross-policy
        // alignment — and so rejected work can be accounted.
        self.services_scratch.clear();
        let (cluster, rng) = (&self.config.cluster, &mut self.driver.transport.service_rng);
        let draw = |&s: &u32| draw_service(cluster, rng, s);
        self.services_scratch
            .extend(self.targets_scratch.iter().map(draw));

        // Warm-up counts admitted queries: the first ones go unrecorded.
        let admitted = self.driver.handler().stats().load.queries_accepted_count();
        let record = admitted >= self.config.warmup_queries as u64;
        let arrival = QueryArrival {
            class: spec.class,
            targets: &self.targets_scratch,
            // The drawn services double as size hints so size-aware
            // policies (SJF) can order on them.
            sizes: Some(&self.services_scratch),
            budget_override: spec.budget_override(),
            task_budgets: spec.task_budgets(),
            record,
        };
        // On rejection no state is created: the query terminates its
        // request (no successors).
        self.driver.admit(now, arrival, &self.services_scratch, tag)
    }

    /// Runs the current event's fallout, chaining each request whose query
    /// finishes, until it settles.
    fn settle(&mut self, now: SimTime) {
        while let Some(at) = self.driver.drain(now) {
            self.chain(now, at);
        }
    }

    fn finish_task(
        &mut self,
        now: SimTime,
        server: u32,
        task: u32,
        token: LeaseToken,
        busy: SimDuration,
    ) {
        let outcome = match self.driver.transport.faults {
            None => FinishOutcome::Delivered { duplicate: false },
            // This event was scheduled at its own dispatch + `busy`, so
            // `now - busy` is when *this* work was dispatched — also for a
            // zombie whose attempt has been reclaimed and dispatched again
            // since.
            Some(faults) => faults.at_finish(server, now - busy, now),
        };
        let (busy, twice) = match outcome {
            FinishOutcome::Swallowed => return,
            // The sim analog of a node failing mid-reply with a NACK.
            FinishOutcome::Lost => (None, false),
            FinishOutcome::Delivered { duplicate } => (Some(busy), duplicate),
        };
        self.driver.report(now, task, token, busy);
        if twice {
            // At-least-once delivery: the same result (same lease token)
            // arrives a second time; the state store suppresses it.
            self.driver.report(now, task, token, busy);
        }
    }

    /// Samples the cluster's instantaneous and cumulative state at `now`.
    fn take_snapshot(&mut self, now: SimTime) {
        let handler = self.driver.handler();
        let load = &handler.stats().load;
        self.snapshots.push(SimSnapshot {
            at_ns: now.as_nanos(),
            queued_tasks: handler.queued_tasks() as u64,
            servers_busy: handler.servers_busy() as u64,
            queries_offered: load.queries_offered_count(),
            queries_accepted: load.queries_accepted_count(),
            queries_rejected: load.queries_rejected_count(),
            tasks_dispatched: load.tasks_dispatched_count(),
            tasks_completed: load.tasks_completed_count(),
            deadline_misses: load.deadline_miss_count(),
            deadline_miss_ratio: load.deadline_miss_ratio(),
        });
    }

    /// Arms the next `Ev::Snapshot` if the run is observed and none is
    /// pending. Called from arrivals (so sampling resumes after an idle
    /// gap) and from the snapshot handler itself while work remains — when
    /// the cluster drains with no arrivals left, no snapshot is re-armed
    /// and the event list can empty.
    fn schedule_snapshot(&mut self, now: SimTime) {
        if self.snapshot_pending {
            return;
        }
        if let Some(every) = self.snapshot_every {
            self.snapshot_pending = true;
            self.events().schedule_in(now, every, Ev::Snapshot);
        }
    }

    /// Sequential request chaining (Fig. 1): the query `tag` names
    /// finished, so a request of several queries issues its next one
    /// (partial and failed completions advance the chain too — the
    /// request does not stall on a degraded answer).
    fn chain(&mut self, now: SimTime, tag: Tag) {
        if let Some((queries, index)) = tag.chain.and_then(|key| self.chains.remove(&key)) {
            self.advance(now, tag, queries, index + 1);
        }
    }

    /// Issues query `index` of the request `tag` names, keeping a chain's
    /// queries while it is in flight; past a chain's last query, records
    /// the request's latency. A rejected query ends its request.
    fn advance(&mut self, now: SimTime, tag: Tag, queries: QueryChain, index: usize) {
        let Some(spec) = queries.get(index) else {
            if let Some(first) = queries.first() {
                let latency = now.saturating_since(tag.started);
                let class = self.request_latency_by_class.entry(first.class);
                class.or_default().record(latency);
            }
            return;
        };
        if let (true, Some(key)) = (self.issue_query(now, spec, tag), tag.chain) {
            self.chains.insert(key, (queries, index));
        }
    }

    /// Applies one event. Its fallout is left queued in the driver for
    /// [`Run::settle`].
    fn handle(&mut self, now: SimTime, ev: Ev) {
        // Only a real reclaim counts as activity among lease expiries (see
        // below), so lease-only runs keep `elapsed` — and every load
        // ratio — identical to lease-free ones.
        if !matches!(ev, Ev::Snapshot | Ev::Timer(Timer::Lease(..))) {
            self.last_activity = now;
        }
        match ev {
            Ev::Arrive => {
                if let Some(request) = self.next.take() {
                    // The next arrival is scheduled before this one's fallout.
                    self.pull(now);
                    self.arrived += 1;
                    let chain = (request.queries.len() > 1).then_some(self.arrived);
                    let tag = Tag {
                        started: now,
                        chain,
                    };
                    self.advance(now, tag, request.queries, 0);
                }
            }
            Ev::Finish {
                server,
                task,
                token,
                busy,
            } => self.finish_task(now, server, task, token, busy),
            Ev::Timer(timer) => {
                if self.driver.on_timer(now, timer) {
                    self.last_activity = now;
                }
            }
            Ev::Snapshot => {
                self.snapshot_pending = false;
                self.take_snapshot(now);
                let handler = self.driver.handler();
                if handler.queued_tasks() > 0 || handler.servers_busy() > 0 {
                    self.schedule_snapshot(now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AdmissionConfig, ClassSpec, ClusterSpec, SimInput};
    use tailguard_dist::Deterministic;
    use tailguard_policy::Policy;
    use tailguard_workload::{ArrivalProcess, FanoutDist, QueryMix, Trace};

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    fn det_cluster(n: usize, service_ms: f64) -> ClusterSpec {
        ClusterSpec::homogeneous(n, Deterministic::new(service_ms))
    }

    fn one_query_input(arrivals_ms: &[u64], class: u8, fanout: u32) -> SimInput {
        SimInput {
            requests: arrivals_ms
                .iter()
                .map(|&t| RequestInput {
                    arrival: SimTime::from_millis(t),
                    queries: QuerySpec::new(class, fanout).into(),
                })
                .collect(),
        }
    }

    #[test]
    fn single_query_latency_is_service_time_when_idle() {
        let cfg = SimConfig::new(
            det_cluster(4, 2.0),
            vec![ClassSpec::p99(ms(10.0))],
            Policy::Fifo,
        )
        .with_warmup(0);
        let input = one_query_input(&[0], 0, 4);
        let mut report = run_simulation(&cfg, &input);
        assert_eq!(report.completed_queries, 1);
        // All four tasks run in parallel on idle servers: latency = 2ms.
        assert_eq!(report.class_tail(0, 0.99), ms(2.0));
        assert_eq!(report.deadline_miss_ratio(), 0.0);
    }

    #[test]
    fn queueing_serializes_on_one_server() {
        // Two fanout-1 queries arrive together on a 1-server cluster.
        let cfg = SimConfig::new(
            det_cluster(1, 3.0),
            vec![ClassSpec::p99(ms(100.0))],
            Policy::Fifo,
        )
        .with_warmup(0);
        let input = one_query_input(&[0, 0], 0, 1);
        let mut report = run_simulation(&cfg, &input);
        assert_eq!(report.completed_queries, 2);
        // Latencies 3ms and 6ms → p99 = 6ms, median 3ms.
        assert_eq!(report.class_tail(0, 0.99), ms(6.0));
        assert_eq!(report.class_tail(0, 0.5), ms(3.0));
        // The second task waited 3ms.
        assert_eq!(report.pre_dequeue.percentile(1.0), ms(3.0));
    }

    #[test]
    fn work_conservation_no_idle_with_backlog() {
        // Many queries on a small deterministic cluster: total busy time
        // must equal tasks × service.
        let cfg = SimConfig::new(
            det_cluster(2, 1.0),
            vec![ClassSpec::p99(ms(1000.0))],
            Policy::TfEdf,
        )
        .with_warmup(0);
        let arrivals: Vec<u64> = (0..100).collect();
        let input = one_query_input(&arrivals, 0, 2);
        let report = run_simulation(&cfg, &input);
        let busy_ms = report.accepted_load() * report.elapsed.as_millis_f64() * 2.0;
        assert!((busy_ms - 200.0).abs() < 1e-6, "busy {busy_ms}");
    }

    #[test]
    fn deterministic_across_runs_and_policies_share_work() {
        let trace = Trace::generate(
            "d",
            &ArrivalProcess::poisson(1.0),
            &QueryMix::single(FanoutDist::paper_mix()),
            2_000,
            3,
        );
        let input = SimInput::from_trace(&trace);
        let base = SimConfig::new(
            ClusterSpec::homogeneous(
                100,
                tailguard_workload::TailbenchWorkload::Masstree.service_dist(),
            ),
            vec![ClassSpec::p99(ms(1.0))],
            Policy::TfEdf,
        )
        .with_warmup(0);

        let mut a = run_simulation(&base, &input);
        let mut b = run_simulation(&base, &input);
        assert_eq!(a.class_tail(0, 0.99), b.class_tail(0, 0.99));
        assert_eq!(a.completed_queries, b.completed_queries);

        // Different policy, same total work (same draws).
        let fifo = run_simulation(&base.clone().with_policy(Policy::Fifo), &input);
        let work_a = a.accepted_load() * a.elapsed.as_millis_f64();
        let work_f = fifo.accepted_load() * fifo.elapsed.as_millis_f64();
        assert!((work_a - work_f).abs() < 1e-6);
    }

    #[test]
    fn warmup_discards_prefix() {
        let cfg = SimConfig::new(
            det_cluster(1, 1.0),
            vec![ClassSpec::p99(ms(100.0))],
            Policy::Fifo,
        )
        .with_warmup(5);
        let input = one_query_input(&[0, 10, 20, 30, 40, 50, 60], 0, 1);
        let report = run_simulation(&cfg, &input);
        assert_eq!(report.completed_queries, 2); // 7 issued − 5 warm-up
    }

    #[test]
    fn edf_reorders_for_tight_deadline() {
        // One server busy; a loose-deadline task queued, then a tight one.
        // TF-EDF must serve the tight one first; FIFO must not.
        let cluster = det_cluster(1, 10.0);
        let classes = vec![ClassSpec::p99(ms(1000.0)), ClassSpec::p99(ms(12.0))];
        let input = SimInput {
            requests: vec![
                RequestInput {
                    arrival: SimTime::ZERO,
                    queries: QuerySpec::new(0, 1).into(), // occupies the server
                },
                RequestInput {
                    arrival: SimTime::from_millis(1),
                    queries: QuerySpec::new(0, 1).into(), // loose
                },
                RequestInput {
                    arrival: SimTime::from_millis(2),
                    queries: QuerySpec::new(1, 1).into(), // tight
                },
            ],
        };
        let run = |policy: Policy| {
            let cfg = SimConfig::new(cluster.clone(), classes.clone(), policy).with_warmup(0);
            let mut r = run_simulation(&cfg, &input);
            (
                r.class_tail(0, 1.0).as_millis_f64(),
                r.class_tail(1, 1.0).as_millis_f64(),
            )
        };
        let (_, tight_fifo) = run(Policy::Fifo);
        let (_, tight_edf) = run(Policy::TfEdf);
        assert!(
            tight_edf < tight_fifo,
            "EDF must prioritize the tight class: {tight_edf} vs {tight_fifo}"
        );
    }

    #[test]
    fn priq_prefers_class_zero() {
        let cluster = det_cluster(1, 10.0);
        let classes = vec![ClassSpec::p99(ms(1000.0)), ClassSpec::p99(ms(1000.0))];
        let input = SimInput {
            requests: vec![
                RequestInput {
                    arrival: SimTime::ZERO,
                    queries: QuerySpec::new(1, 1).into(),
                },
                RequestInput {
                    arrival: SimTime::from_millis(1),
                    queries: QuerySpec::new(1, 1).into(),
                },
                RequestInput {
                    arrival: SimTime::from_millis(2),
                    queries: QuerySpec::new(0, 1).into(),
                },
            ],
        };
        let cfg = SimConfig::new(cluster, classes, Policy::Priq).with_warmup(0);
        let mut r = run_simulation(&cfg, &input);
        // Class 0 arrived last but jumps the queued class-1 task:
        // finishes at 20ms (latency 18), class-1 queued finishes at 30 (29).
        assert_eq!(r.class_tail(0, 1.0), ms(18.0));
        assert_eq!(r.class_tail(1, 1.0), ms(29.0));
    }

    #[test]
    fn admission_control_rejects_under_overload() {
        // Overload a single slow server; with a tight threshold the
        // controller must start rejecting queries.
        let cfg = SimConfig::new(
            det_cluster(1, 5.0),
            vec![ClassSpec::p99(ms(6.0))],
            Policy::TfEdf,
        )
        .with_admission(
            AdmissionConfig::new(SimDuration::from_millis(100), 0.05).with_min_samples(5),
        )
        .with_warmup(0);
        let arrivals: Vec<u64> = (0..200).collect(); // 1/ms vs capacity 0.2/ms
        let input = one_query_input(&arrivals, 0, 1);
        let report = run_simulation(&cfg, &input);
        assert!(
            report.rejected_queries > 80,
            "rejected only {}",
            report.rejected_queries
        );
        assert!(report.rejected_load() > 0.0);
        assert!(report.offered_load() > report.accepted_load());
    }

    #[test]
    fn multi_query_requests_run_sequentially() {
        // A 3-query request on an idle cluster: request latency = 3 × 2ms.
        let cfg = SimConfig::new(
            det_cluster(2, 2.0),
            vec![ClassSpec::p99(ms(100.0))],
            Policy::TfEdf,
        )
        .with_warmup(0);
        let input = SimInput {
            requests: vec![RequestInput {
                arrival: SimTime::ZERO,
                queries: vec![QuerySpec::new(0, 2); 3].into(),
            }],
        };
        let mut report = run_simulation(&cfg, &input);
        assert_eq!(report.completed_queries, 3);
        let req = report
            .request_latency_by_class
            .get_mut(&0)
            .expect("request latency recorded");
        assert_eq!(req.percentile(1.0), ms(6.0));
    }

    #[test]
    fn chained_query_cannot_double_start_a_server() {
        // Regression: a request's successor query issued at completion time
        // must not start on a server that still has queued work, nor
        // double-occupy the server that just freed up.
        let cfg = SimConfig::new(
            det_cluster(1, 4.0),
            vec![ClassSpec::p99(ms(1000.0))],
            Policy::TfEdf,
        )
        .with_warmup(0);
        let input = SimInput {
            requests: vec![
                RequestInput {
                    arrival: SimTime::ZERO,
                    queries: vec![QuerySpec::new(0, 1), QuerySpec::new(0, 1)].into(),
                },
                RequestInput {
                    arrival: SimTime::from_millis(1),
                    queries: QuerySpec::new(0, 1).into(),
                },
            ],
        };
        let mut report = run_simulation(&cfg, &input);
        assert_eq!(report.completed_queries, 3);
        // Serialized on one server: busy 12ms total, queued task (arrived
        // at 1ms) runs second (finishes at 8ms, latency 7ms), chained query
        // runs last (finishes at 12ms, its own latency 12-4=8ms).
        assert_eq!(report.class_tail(0, 1.0), ms(8.0));
        let req = report
            .request_latency_by_class
            .get_mut(&0)
            .expect("request recorded");
        assert_eq!(req.percentile(1.0), ms(12.0));
    }

    #[test]
    fn explicit_placement_is_honored() {
        // Pin both tasks to server 0: they serialize (latency 2·service).
        let cfg = SimConfig::new(
            det_cluster(4, 2.0),
            vec![ClassSpec::p99(ms(100.0))],
            Policy::Fifo,
        )
        .with_warmup(0);
        let input = SimInput {
            requests: vec![RequestInput {
                arrival: SimTime::ZERO,
                queries: QuerySpec::new(0, 2).with_servers(vec![0, 0]).into(),
            }],
        };
        let mut report = run_simulation(&cfg, &input);
        assert_eq!(report.class_tail(0, 1.0), ms(4.0));
    }

    #[test]
    fn budget_override_controls_deadline() {
        // Zero budget → any queued task is late; generous budget → on time.
        let mk_input = |budget: SimDuration| SimInput {
            requests: vec![
                RequestInput {
                    arrival: SimTime::ZERO,
                    queries: QuerySpec::new(0, 1).into(),
                },
                RequestInput {
                    arrival: SimTime::ZERO,
                    queries: QuerySpec::new(0, 1).with_budget_override(budget).into(),
                },
            ],
        };
        let cfg = SimConfig::new(
            det_cluster(1, 5.0),
            vec![ClassSpec::p99(ms(100.0))],
            Policy::TfEdf,
        )
        .with_warmup(0);
        let tight = run_simulation(&cfg, &mk_input(SimDuration::ZERO));
        assert!(tight.deadline_miss_ratio() > 0.0);
        let loose = run_simulation(&cfg, &mk_input(ms(50.0)));
        assert_eq!(loose.deadline_miss_ratio(), 0.0);
    }

    #[test]
    fn per_task_budgets_order_the_queue() {
        // Footnote-4 ablation hook: two tasks of one query pinned to one
        // busy server, with per-task budgets reversing arrival order.
        let cfg = SimConfig::new(
            det_cluster(1, 5.0),
            vec![ClassSpec::p99(ms(1000.0))],
            Policy::TfEdf,
        )
        .with_warmup(0);
        let input = SimInput {
            requests: vec![
                RequestInput {
                    arrival: SimTime::ZERO,
                    queries: QuerySpec::new(0, 1).into(), // occupies the server
                },
                RequestInput {
                    arrival: SimTime::from_millis(1),
                    // Second task far more urgent than the first.
                    queries: QuerySpec::new(0, 2)
                        .with_servers(vec![0, 0])
                        .with_task_budgets(vec![ms(100.0), ms(1.0)])
                        .into(),
                },
            ],
        };
        let report = run_simulation(&cfg, &input);
        // Pre-dequeue times: urgent task waited 4ms (served first at t=5),
        // lax task waited 9ms (served at t=10).
        let mut pre = report.pre_dequeue.clone();
        assert_eq!(pre.percentile(1.0), ms(9.0));
        let sorted: Vec<SimDuration> = pre.ascending().collect();
        assert_eq!(sorted[1], ms(4.0));
    }

    #[test]
    fn a_zombie_finish_is_judged_against_its_own_dispatch() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        // One task on one server. Dispatched at 0 into a restart that holds
        // it until 5 ms (due at 6); its 4 ms lease expires first, so it is
        // reclaimed and dispatched again at 4 (also due at 6). A crash
        // began at 1 ms — after the first dispatch, before the second.
        let at = SimTime::from_millis;
        let plan = FaultPlan::new()
            .with_episode(FaultEpisode::new(0, at(0), at(5), FaultKind::Restart))
            .with_episode(FaultEpisode::new(0, at(1), at(2), FaultKind::Crash));
        let cfg = SimConfig::new(
            det_cluster(1, 1.0),
            vec![ClassSpec::p99(ms(100.0))],
            Policy::TfEdf,
        )
        .with_warmup(0)
        .with_lease(ms(4.0))
        .with_faults(plan);
        let mut report = run_simulation(&cfg, &one_query_input(&[0], 0, 1));
        assert_eq!(report.lifecycle.reclaims, 1);
        // The crash interrupted the zombie's work, so its result is
        // swallowed — measured from the second dispatch it would look
        // untouched, be delivered, and only then be fenced as stale.
        assert_eq!(report.lifecycle.stale_commits_rejected, 0);
        assert_eq!(report.lifecycle.leases_issued, 2);
        assert_eq!(report.completed_queries, 1);
        assert_eq!(report.class_tail(0, 1.0), ms(6.0));
    }

    #[test]
    fn a_chained_request_admitted_while_a_report_unwinds_finds_its_rows() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        // One server, blacked out from 0.5 ms on. Q0's task was dispatched
        // at 0 and reports lost at 1 ms; the task queued behind it opens a
        // three-query request, each query lost at dispatch and chaining the
        // next — three admissions, each retiring rows, all inside the
        // handling of Q0's one report. Q0's own request must still resolve
        // when that unwinds.
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            0,
            SimTime::from_micros(500),
            SimTime::from_millis(10),
            FaultKind::Drop,
        ));
        let cfg = SimConfig::new(
            det_cluster(1, 1.0),
            vec![ClassSpec::p99(ms(100.0))],
            Policy::TfEdf,
        )
        .with_warmup(0)
        .with_faults(plan);
        let input = SimInput {
            requests: vec![
                RequestInput {
                    arrival: SimTime::ZERO,
                    queries: vec![QuerySpec::new(0, 1), QuerySpec::new(0, 1)].into(),
                },
                RequestInput {
                    arrival: SimTime::ZERO,
                    queries: vec![QuerySpec::new(0, 1); 3].into(),
                },
            ],
        };
        let mut report = run_simulation(&cfg, &input);
        assert_eq!(report.completed_queries, 0);
        assert_eq!(report.robustness.failed_queries, 5);
        assert_eq!(report.robustness.tasks_lost_to_faults, 5);
        // Both requests ran to their last query, all at 1 ms.
        let req = report
            .request_latency_by_class
            .get_mut(&0)
            .expect("request latency recorded");
        assert_eq!(req.len(), 2);
        assert_eq!(req.percentile(1.0), ms(1.0));
    }

    #[test]
    fn chained_requests_survive_fault_storms_with_every_recovery_path_on() {
        use tailguard_sched::MitigationConfig;
        // Rows retire at every admission, and with faults an admission can
        // nest inside a report's fallout (the test above). Blackouts, crash
        // storms, retries, hedges, early quorums and lease reclaims at once
        // on a small cluster make that happen in every combination; each
        // run must account for every query and finish every request.
        for seed in 0..40 {
            let horizon = SimDuration::from_millis(300);
            let plan = FaultPlan::generate_crash_storm(seed, 4, horizon, 30, 6.0)
                .episodes()
                .iter()
                .fold(FaultPlan::generate(seed, 4, horizon, 40, 6.0), |plan, e| {
                    plan.with_episode(*e)
                });
            let cfg = SimConfig::new(
                det_cluster(4, 1.0),
                vec![ClassSpec::p99(ms(20.0))],
                Policy::TfEdf,
            )
            .with_warmup(0)
            .with_seed(seed)
            .with_lease(ms(3.0))
            .with_mitigation(
                MitigationConfig::new()
                    .with_hedge_after(0.1)
                    .with_retry_lost(true)
                    .with_max_attempts(3)
                    .with_partial_quorum(0.5),
            )
            .with_faults(plan);
            let input = SimInput {
                requests: (0..200)
                    .map(|i| RequestInput {
                        arrival: SimTime::from_millis(i),
                        queries: vec![QuerySpec::new(0, 1 + (i as u32 + seed as u32) % 3); 3]
                            .into(),
                    })
                    .collect(),
            };
            let report = run_simulation(&cfg, &input);
            let rb = &report.robustness;
            assert_eq!(
                report.completed_queries + rb.partial_completions + rb.failed_queries,
                600,
                "seed {seed}"
            );
            let requests = &report.request_latency_by_class[&0];
            assert_eq!(requests.len(), 200, "seed {seed}");
        }
    }

    #[test]
    fn a_hundred_thousand_deep_drop_cascade_fits_a_small_stack() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        // One server, blacked out from 0.5 ms on, and 100 000 single-query
        // requests at t = 0. The first task reports lost at 1 ms; the freed
        // server's next dispatch is dropped on the spot, which frees it
        // again — one report whose fallout is 99 999 more losses. A driver
        // that recursed per loss overflowed this 256 KiB stack.
        const N: u64 = 100_000;
        let plan = FaultPlan::new().with_episode(FaultEpisode::new(
            0,
            SimTime::from_micros(500),
            SimTime::from_millis(3_600_000),
            FaultKind::Drop,
        ));
        let cfg = SimConfig::new(
            det_cluster(1, 1.0),
            vec![ClassSpec::p99(ms(100.0))],
            Policy::TfEdf,
        )
        .with_warmup(0)
        .with_faults(plan);
        let input = one_query_input(&vec![0; N as usize], 0, 1);
        let report = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || run_simulation(&cfg, &input))
            .expect("spawn the small-stack runner")
            .join()
            .expect("the run completes");
        assert_eq!(report.completed_queries, 0);
        assert_eq!(report.robustness.failed_queries, N);
        assert_eq!(report.robustness.tasks_lost_to_faults, N);
        assert_eq!(report.load.queries_offered_count(), N);
    }

    /// Server 0's dequeues in a traced run of `input`, as (class, instant).
    fn dequeues_on_server_0(cfg: &SimConfig, input: &SimInput) -> Vec<(u8, SimTime)> {
        use std::sync::{Arc, Mutex};
        use tailguard_sched::TraceEvent;
        struct Collect(Arc<Mutex<Vec<(u8, SimTime)>>>);
        impl TraceSink for Collect {
            fn record(&mut self, event: &TraceEvent) {
                if let TraceEvent::TaskDequeued {
                    at,
                    class,
                    server: 0,
                    ..
                } = *event
                {
                    self.0.lock().expect("trace lock").push((class, at));
                }
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        run_simulation_traced(cfg, input, Box::new(Collect(Arc::clone(&seen))));
        let seen = seen.lock().expect("trace lock").clone();
        seen
    }

    #[test]
    fn a_finish_and_an_arrival_at_one_instant_fire_in_scheduling_order() {
        // Server 0 serves 2 ms tasks under T-EDFQ. At 0 a loose query puts
        // two tasks on it: one starts and finishes at 2 ms, one (L) queues.
        // A tight task (T, deadline 3 ms) arrives at 2 ms, as the first
        // finishes. If T's arrival fires first, T is queued when server 0
        // frees and jumps L; if the finish fires first, L dequeues before T
        // is there.
        let cfg = SimConfig::new(
            det_cluster(2, 2.0),
            vec![ClassSpec::p99(ms(1000.0)), ClassSpec::p99(ms(1.0))],
            Policy::TEdf,
        )
        .with_warmup(0);
        let request = |at_ms: u64, class: u8, servers: Vec<u32>| RequestInput {
            arrival: SimTime::from_millis(at_ms),
            queries: QuerySpec::new(class, servers.len() as u32)
                .with_servers(servers)
                .into(),
        };
        let at = SimTime::from_millis;
        // The arrival at 2 ms follows the one at 0 directly, so it was
        // scheduled when that one fired, before its tasks began: it fires
        // before the finish.
        let arrival_first = SimInput {
            requests: vec![request(0, 0, vec![0, 0]), request(2, 1, vec![0])],
        };
        assert_eq!(
            dequeues_on_server_0(&cfg, &arrival_first),
            [(0, at(0)), (1, at(2)), (0, at(4))]
        );
        // With an arrival at 1 ms in between (on server 1), the one at 2 ms
        // was scheduled at 1 ms, after the finish: the finish fires first.
        let finish_first = SimInput {
            requests: vec![
                request(0, 0, vec![0, 0]),
                request(1, 0, vec![1]),
                request(2, 1, vec![0]),
            ],
        };
        assert_eq!(
            dequeues_on_server_0(&cfg, &finish_first),
            [(0, at(0)), (0, at(2)), (1, at(4))]
        );
    }

    #[test]
    fn empty_input_is_benign() {
        let cfg = SimConfig::new(
            det_cluster(2, 1.0),
            vec![ClassSpec::p99(ms(10.0))],
            Policy::Fifo,
        );
        let report = run_simulation(&cfg, &SimInput::default());
        assert_eq!(report.completed_queries, 0);
        assert_eq!(report.elapsed, SimTime::ZERO);
    }
}
