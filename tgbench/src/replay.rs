//! Per-layer replays: the operations one workload asked of each layer,
//! reconstructed from its captured `TraceEvent` stream and fed back into
//! that layer's public API, alone, under a timer.
//!
//! Every replay has two passes. The *build* pass walks the trace once and
//! lowers it to the layer's own operation stream (and, where the layer is
//! deterministic, checks that the layer reproduces what the trace says
//! happened). The *timed* pass executes that stream on a fresh instance
//! inside a span, several times; nothing but the layer's own calls runs
//! under the timer.
//!
//! Limits, stated once: a replay runs the layer in isolation, so caches
//! are warmer than in the run itself, and calls the run makes through
//! accessors (`store.attempt()`, `slot()`) are not replayed. What the
//! replays fail to account for shows up as `bench.attributed_share` < 1.

use crate::sim::cold_budgets;
use crate::spans::Spans;
use crate::workloads::SimCase;
use std::collections::BTreeMap;
use std::hint::black_box;
use tailguard::{FaultPlan, SimConfig};
use tailguard_lifecycle::{AttemptKind, LeaseToken, LifecycleStats, TaskStateStore};
use tailguard_metrics::{LatencyReservoir, TimedRatio};
use tailguard_policy::{QueuedTask, ServiceClass, TaskQueue};
use tailguard_sched::{
    DispatchedTask, HealthTracker, QueryArrival, QueryHandler, TraceEvent, TraceSink,
};
use tailguard_simcore::{Scheduler, SimDuration, SimRng, SimTime};

/// Repetitions of each timed pass; the ledger reports their median.
pub const REPLAY_REPS: usize = 3;

// --- capture -----------------------------------------------------------------

/// The sink the traced pass installs: appends every event to a shared
/// vector, taking batches so the handler pays one virtual call per 4096
/// events rather than one per event.
pub struct CaptureSink(pub std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>);

impl TraceSink for CaptureSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().expect("capture lock").push(*event);
    }

    fn batch_hint(&self) -> usize {
        4096
    }

    fn record_batch(&mut self, events: &[TraceEvent]) {
        self.0
            .lock()
            .expect("capture lock")
            .extend_from_slice(events);
    }
}

// --- shared lowering ---------------------------------------------------------

/// True when `events[i]` (a `TaskEnqueued` or `TaskCancelled` of `task`)
/// directly follows that task's `LeaseReclaimed` — the reclaim path, which
/// re-enqueues or cancels an attempt that already exists.
fn follows_reclaim(events: &[TraceEvent], i: usize, task: u32) -> bool {
    i > 0 && matches!(events[i - 1], TraceEvent::LeaseReclaimed { task: t, .. } if t == task)
}

/// The query arrivals of a run, in order, as the handler saw them.
pub struct Arrivals {
    /// (time, class, fanout, admitted, recorded, offset into `targets`).
    pub queries: Vec<(SimTime, u8, u32, bool, bool, usize)>,
    /// Target servers of every query, flattened. A rejected query's
    /// placement is not in the trace; it gets servers `0..fanout`, which
    /// the layers treat alike on the homogeneous clusters used here.
    pub targets: Vec<u32>,
}

impl Arrivals {
    pub fn of(events: &[TraceEvent], warmup: usize) -> Arrivals {
        let mut a = Arrivals {
            queries: Vec::new(),
            targets: Vec::new(),
        };
        let mut admitted = 0usize;
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                TraceEvent::QueryAdmitted {
                    at, class, fanout, ..
                } => {
                    a.queries
                        .push((at, class, fanout, true, admitted >= warmup, a.targets.len()));
                    admitted += 1;
                }
                TraceEvent::QueryRejected { at, class, fanout } => {
                    a.queries
                        .push((at, class, fanout, false, false, a.targets.len()));
                    a.targets.extend(0..fanout);
                }
                TraceEvent::TaskEnqueued {
                    task,
                    server,
                    kind: AttemptKind::Original,
                    ..
                } if !follows_reclaim(events, i, task) => a.targets.push(server),
                _ => {}
            }
        }
        a
    }

    fn targets_of(&self, q: usize) -> &[u32] {
        let (_, _, fanout, _, _, start) = self.queries[q];
        &self.targets[start..start + fanout as usize]
    }
}

/// (server, service time) of every completed task, in order.
fn completions(events: &[TraceEvent]) -> Vec<(u32, SimDuration)> {
    events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::TaskCompleted { server, busy, .. } => Some((server, busy)),
            _ => None,
        })
        .collect()
}

/// Per-task bookkeeping most replays need: the lease token each task
/// currently runs under and when each token's dispatch happened.
#[derive(Default)]
struct Dispatches {
    current: Vec<u64>,
    at: Vec<SimTime>,
}

impl Dispatches {
    fn dispatch(&mut self, task: u32, token: LeaseToken, at: SimTime) {
        let (task, token) = (task as usize, token.0 as usize);
        if self.current.len() <= task {
            self.current.resize(task + 1, 0);
        }
        if self.at.len() <= token {
            self.at.resize(token + 1, SimTime::ZERO);
        }
        self.current[task] = token as u64;
        self.at[token] = at;
    }

    fn token_of(&self, task: u32) -> LeaseToken {
        LeaseToken(self.current[task as usize])
    }

    fn dispatched_at(&self, token: LeaseToken) -> SimTime {
        self.at[token.0 as usize]
    }
}

// --- simcore: the event heap ---------------------------------------------------

/// Payload the size of the simulator's own event enum (32 bytes), so the
/// heap moves as many bytes per sift as it does in the run.
type HeapPayload = [u64; 4];

pub struct HeapReplay {
    /// Engine events replayed; each is one push and one pop.
    pub events: u64,
    pub depth_max: u64,
    pub secs: Vec<f64>,
}

/// Rebuilds the engine's schedule/pop sequence — the arrival chain, one
/// finish per dispatch that reported back, one lease check per dispatch,
/// one hedge check per original task — and replays it into a bare
/// `Scheduler`. Each engine event contributes a push at the time it was
/// scheduled and a pop at the time it fired; pops take whatever is
/// earliest, as the engine does.
pub fn heap(spans: &mut Spans, events: &[TraceEvent], case: &SimCase) -> HeapReplay {
    // (time ns, is_pop); sorting puts a push before a pop of the same time.
    let mut ops: Vec<(u64, bool)> = Vec::with_capacity(events.len());
    let mut event = |scheduled: SimTime, fires: SimTime| {
        ops.push((scheduled.as_nanos(), false));
        ops.push((fires.as_nanos().max(scheduled.as_nanos()), true));
    };
    let mut prev = SimTime::ZERO;
    for r in &case.input.requests {
        event(prev, r.arrival);
        prev = prev.max(r.arrival);
    }
    let ttl = case.config.lease;
    let hedge_after = case.config.mitigation.and_then(|m| m.hedge_after);
    let mut d = Dispatches::default();
    for ev in events {
        match *ev {
            TraceEvent::QueryAdmitted {
                at,
                fanout,
                deadline,
                ..
            } => {
                if let Some(f) = hedge_after {
                    let check = at + deadline.saturating_since(at).mul_f64(f);
                    (0..fanout).for_each(|_| event(at, check));
                }
            }
            TraceEvent::TaskDequeued {
                at, task, token, ..
            } => {
                d.dispatch(task, token, at);
                if let Some(ttl) = ttl {
                    event(at, at + ttl);
                }
            }
            TraceEvent::TaskCompleted { at, task, .. } | TraceEvent::TaskLost { at, task, .. } => {
                let started = d.dispatched_at(d.token_of(task));
                // A loss reported at dispatch time is not an engine event.
                if at > started {
                    event(started, at);
                }
            }
            TraceEvent::StaleCommitRejected { at, token, .. } => event(d.dispatched_at(token), at),
            _ => {}
        }
    }
    ops.sort_unstable();
    let (mut depth, mut depth_max) = (0u64, 0u64);
    for &(_, pop) in &ops {
        if pop {
            depth -= 1;
        } else {
            depth += 1;
            depth_max = depth_max.max(depth);
        }
    }
    let secs = spans.time_reps("simcore.heap", REPLAY_REPS, || {
        let mut heap: Scheduler<HeapPayload> = Scheduler::new();
        for &(t, pop) in &ops {
            if pop {
                black_box(heap.pop());
            } else {
                heap.schedule_at(SimTime::from_nanos(t), [t; 4]);
            }
        }
        black_box(heap.len());
    });
    HeapReplay {
        events: ops.len() as u64 / 2,
        depth_max,
        secs,
    }
}

pub struct PlacementReplay {
    pub draws: u64,
    pub secs: Vec<f64>,
}

/// The placement draws: `sample_distinct(N, k_f)` once per arrival, as the
/// simulator does for inputs that carry no explicit placement.
pub fn placement(spans: &mut Spans, arrivals: &Arrivals, config: &SimConfig) -> PlacementReplay {
    let servers = config.cluster.servers();
    let secs = spans.time_reps("simcore.placement", REPLAY_REPS, || {
        let mut rng = SimRng::seed(config.seed);
        for &(_, _, fanout, ..) in &arrivals.queries {
            black_box(rng.sample_distinct(servers, fanout as usize));
        }
    });
    PlacementReplay {
        draws: arrivals.queries.len() as u64,
        secs,
    }
}

// --- policy: the per-server task queues ------------------------------------------

enum QueueOp {
    Push(u32, QueuedTask),
    Pop(u32),
}

pub struct QueueReplay {
    pub pushes: u64,
    pub pops: u64,
    /// `TaskEnqueued` events whose server was idle: the handler starts
    /// those directly and the queue never sees them.
    pub bypassed: u64,
    pub enqueued_events: u64,
    pub depth_mean: f64,
    pub depth_max: u64,
    /// Every replayed pop returned the task the trace says was dequeued.
    pub order_matches: bool,
    pub secs: Vec<f64>,
}

/// Replays each server's enqueue/dequeue/cancel sequence, with the real
/// deadlines, into `Policy::new_queue()`.
pub fn queues(spans: &mut Spans, events: &[TraceEvent], config: &SimConfig) -> QueueReplay {
    let servers = config.cluster.servers();
    let fresh =
        || -> Vec<Box<dyn TaskQueue>> { (0..servers).map(|_| config.policy.new_queue()).collect() };
    let mut live = fresh();
    let mut ops: Vec<QueueOp> = Vec::new();
    let mut r = QueueReplay {
        pushes: 0,
        pops: 0,
        bypassed: 0,
        enqueued_events: 0,
        depth_mean: 0.0,
        depth_max: 0,
        order_matches: true,
        secs: Vec::new(),
    };
    let mut depth_sum = 0u64;
    let pop_expecting = |live: &mut Vec<Box<dyn TaskQueue>>,
                         ops: &mut Vec<QueueOp>,
                         r: &mut QueueReplay,
                         server: u32,
                         task: Option<u32>| {
        let got = live[server as usize].pop().map(|t| t.task_id);
        r.order_matches &= got == task.map(u64::from);
        ops.push(QueueOp::Pop(server));
    };
    let mut i = 0;
    while i < events.len() {
        match events[i] {
            TraceEvent::TaskEnqueued {
                at,
                task,
                class,
                server,
                deadline,
                ..
            } => {
                r.enqueued_events += 1;
                let started_directly = !follows_reclaim(events, i, task)
                    && matches!(events.get(i + 1),
                        Some(TraceEvent::TaskDequeued { task: t, .. }) if *t == task);
                if started_directly {
                    r.bypassed += 1;
                    i += 1; // its TaskDequeued is not a queue pop either
                } else {
                    let entry = QueuedTask::new(u64::from(task), ServiceClass(class), deadline, at);
                    live[server as usize].push(entry.clone());
                    let depth = live[server as usize].len() as u64;
                    depth_sum += depth;
                    r.depth_max = r.depth_max.max(depth);
                    ops.push(QueueOp::Push(server, entry));
                }
            }
            TraceEvent::TaskDequeued { task, server, .. } => {
                pop_expecting(&mut live, &mut ops, &mut r, server, Some(task));
            }
            TraceEvent::TaskCancelled { task, server, .. } => {
                if !follows_reclaim(events, i, task) {
                    pop_expecting(&mut live, &mut ops, &mut r, server, Some(task));
                } else if live[server as usize].is_empty() {
                    // Cancelled on reclaim; the freed server then finds
                    // its queue empty.
                    pop_expecting(&mut live, &mut ops, &mut r, server, None);
                }
            }
            TraceEvent::TaskCompleted { server, .. } | TraceEvent::TaskLost { server, .. }
                if live[server as usize].is_empty() =>
            {
                // The freed server asks its queue for work and gets none.
                pop_expecting(&mut live, &mut ops, &mut r, server, None);
            }
            _ => {}
        }
        i += 1;
    }
    for op in &ops {
        match op {
            QueueOp::Push(..) => r.pushes += 1,
            QueueOp::Pop(..) => r.pops += 1,
        }
    }
    r.depth_mean = depth_sum as f64 / r.pushes.max(1) as f64;
    r.order_matches &= live.iter().all(|q| q.is_empty());
    drop(live);
    r.secs = spans.time_reps("policy.queue", REPLAY_REPS, || {
        let mut qs = fresh();
        for op in &ops {
            match op {
                QueueOp::Push(server, entry) => qs[*server as usize].push(entry.clone()),
                QueueOp::Pop(server) => {
                    black_box(qs[*server as usize].pop());
                }
            }
        }
    });
    r
}

// --- lifecycle: the task state store -----------------------------------------------

enum StoreOp {
    PushOriginal(u32, u32, SimTime, Option<SimTime>),
    PushDuplicate(u32, u32, AttemptKind),
    /// `lease` + `mark_running`: the two calls every dispatch makes.
    Dispatch(u32, SimTime),
    Commit(u32, LeaseToken),
    Fail(u32, LeaseToken),
    Cancel(u32),
    Reclaim(u32, LeaseToken, SimTime),
}

pub struct StoreReplay {
    pub ops: u64,
    pub stats: LifecycleStats,
    pub secs: Vec<f64>,
}

/// Replays every state transition into a fresh `TaskStateStore`. With a
/// lease TTL, each dispatch also gets the no-op `reclaim_expired` call its
/// lease check makes after the work has committed.
pub fn store(spans: &mut Spans, events: &[TraceEvent], config: &SimConfig) -> StoreReplay {
    let hedge_after = config.mitigation.and_then(|m| m.hedge_after);
    let leased = config.lease.is_some();
    let mut d = Dispatches::default();
    let mut ops: Vec<StoreOp> = Vec::with_capacity(events.len());
    let mut calls = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let before = ops.len();
        match *ev {
            TraceEvent::TaskEnqueued {
                at,
                task,
                slot,
                query,
                server,
                kind,
                deadline,
                ..
            } if !follows_reclaim(events, i, task) => ops.push(match kind {
                AttemptKind::Original => StoreOp::PushOriginal(
                    query,
                    server,
                    deadline,
                    hedge_after.map(|f| at + deadline.saturating_since(at).mul_f64(f)),
                ),
                AttemptKind::Hedge | AttemptKind::Retry => {
                    StoreOp::PushDuplicate(slot, server, kind)
                }
            }),
            TraceEvent::TaskDequeued {
                at, task, token, ..
            } => {
                d.dispatch(task, token, at);
                ops.push(StoreOp::Dispatch(task, at));
                calls += 1; // two calls, one op
            }
            TraceEvent::TaskCompleted { at, task, .. } => {
                let token = d.token_of(task);
                ops.push(StoreOp::Commit(task, token));
                if leased {
                    ops.push(StoreOp::Reclaim(task, token, at));
                }
            }
            TraceEvent::DuplicateSuppressed { task, .. } => {
                ops.push(StoreOp::Commit(task, d.token_of(task)));
            }
            TraceEvent::StaleCommitRejected { task, token, .. } => {
                ops.push(StoreOp::Commit(task, token));
            }
            TraceEvent::TaskLost { at, task, .. } => {
                let token = d.token_of(task);
                ops.push(StoreOp::Fail(task, token));
                if leased {
                    ops.push(StoreOp::Reclaim(task, token, at));
                }
            }
            TraceEvent::TaskCancelled { task, .. } => ops.push(StoreOp::Cancel(task)),
            TraceEvent::LeaseReclaimed {
                at, task, token, ..
            } => ops.push(StoreOp::Reclaim(task, token, at)),
            _ => {}
        }
        calls += (ops.len() - before) as u64;
    }
    let run = || {
        let mut s = TaskStateStore::new(config.lease);
        for op in &ops {
            match *op {
                StoreOp::PushOriginal(query, server, deadline, hedge_at) => {
                    black_box(s.push_original(query, server, deadline, hedge_at));
                }
                StoreOp::PushDuplicate(slot, server, kind) => {
                    black_box(s.push_duplicate(slot, server, kind));
                }
                StoreOp::Dispatch(task, at) => {
                    black_box(s.lease(task, at));
                    s.mark_running(task);
                }
                StoreOp::Commit(task, token) => {
                    black_box(s.commit(task, token));
                }
                StoreOp::Fail(task, token) => {
                    black_box(s.fail(task, token));
                }
                StoreOp::Cancel(task) => s.cancel(task),
                StoreOp::Reclaim(task, token, at) => {
                    black_box(s.reclaim_expired(task, token, at));
                }
            }
        }
        s
    };
    let mut stats = LifecycleStats::default();
    let secs = spans.time_reps("lifecycle.store", REPLAY_REPS, || {
        stats = run().stats().clone();
    });
    StoreReplay {
        ops: calls,
        stats,
        secs,
    }
}

// --- sched.estimator and dist -------------------------------------------------------

pub struct EstimatorReplay {
    pub lookups: u64,
    pub lookup_secs: Vec<f64>,
    pub records: u64,
    pub record_secs: Vec<f64>,
    pub refreshes: u64,
}

/// Warm `budget()` per admitted query and `record_post_queuing` per
/// completed task, against an estimator built the way the run builds it.
pub fn estimator(
    spans: &mut Spans,
    events: &[TraceEvent],
    arrivals: &Arrivals,
    config: &SimConfig,
    types: &[(u8, u32)],
) -> EstimatorReplay {
    let completions = completions(events);
    let mut r = EstimatorReplay {
        lookups: arrivals.queries.iter().filter(|q| q.3).count() as u64,
        lookup_secs: Vec::new(),
        records: completions.len() as u64,
        record_secs: Vec::new(),
        refreshes: 0,
    };
    spans.enter("sched.estimator");
    for _ in 0..REPLAY_REPS {
        let mut est = cold_budgets(config, types);
        let ((), lookup) = spans.time("lookups", || {
            for (q, &(_, class, fanout, admitted, ..)) in arrivals.queries.iter().enumerate() {
                if admitted {
                    black_box(est.budget(class, fanout, arrivals.targets_of(q)));
                }
            }
        });
        let ((), record) = spans.time("records", || {
            for &(server, busy) in &completions {
                est.record_post_queuing(server as usize, busy);
            }
        });
        r.lookup_secs.push(lookup);
        r.record_secs.push(record);
        r.refreshes = est.refresh_count();
    }
    spans.exit();
    r
}

pub struct DistReplay {
    pub calls: u64,
    pub secs: Vec<f64>,
}

/// Cold Eq. 1/2 solves: one `budget()` per query type on an estimator
/// that has never answered.
pub fn dist_solve(spans: &mut Spans, config: &SimConfig, types: &[(u8, u32)]) -> DistReplay {
    spans.enter("dist.solve");
    let secs = (0..REPLAY_REPS)
        .map(|_| {
            let mut est = crate::sim::build_estimator(config);
            spans
                .time("rep", || {
                    for &(class, fanout) in types {
                        black_box(est.budget(class, fanout, &[]));
                    }
                })
                .1
        })
        .collect();
    spans.exit();
    DistReplay {
        calls: types.len() as u64,
        secs,
    }
}

/// The service-time draws: one per task of every arrival, admitted or
/// not, plus one per hedge or retry copy.
pub fn dist_sample(
    spans: &mut Spans,
    events: &[TraceEvent],
    arrivals: &Arrivals,
    config: &SimConfig,
) -> DistReplay {
    let mut servers = arrivals.targets.clone();
    servers.extend(events.iter().enumerate().filter_map(|(i, ev)| match *ev {
        TraceEvent::TaskEnqueued {
            task, server, kind, ..
        } if kind != AttemptKind::Original && !follows_reclaim(events, i, task) => Some(server),
        _ => None,
    }));
    let secs = spans.time_reps("dist.sample", REPLAY_REPS, || {
        let mut rng = SimRng::seed(config.seed);
        for &s in &servers {
            black_box(config.cluster.service_of(s as usize).sample(&mut rng));
        }
    });
    DistReplay {
        calls: servers.len() as u64,
        secs,
    }
}

// --- faults ------------------------------------------------------------------------

enum FaultOp {
    Dispatch(u32, SimTime, SimDuration),
    Finish(u32, SimTime, SimTime),
}

pub struct FaultReplay {
    pub lookups: u64,
    pub secs: Vec<f64>,
}

/// The `FaultPlan` questions the simulator asks per dispatch and per
/// finish, in its own order and with its own early exits.
pub fn faults(spans: &mut Spans, events: &[TraceEvent], plan: &FaultPlan) -> FaultReplay {
    let mut d = Dispatches::default();
    let mut ops: Vec<FaultOp> = Vec::new();
    // Service time of a dispatch that never reported back: any plausible
    // value does, `completion_delay` scans the plan the same either way.
    let typical = SimDuration::from_micros(200);
    for ev in events {
        match *ev {
            TraceEvent::TaskDequeued {
                at,
                task,
                token,
                server,
                ..
            } => {
                d.dispatch(task, token, at);
                ops.push(FaultOp::Dispatch(server, at, typical));
            }
            TraceEvent::TaskCompleted {
                at, task, server, ..
            }
            | TraceEvent::TaskLost {
                at, task, server, ..
            } => ops.push(FaultOp::Finish(
                server,
                d.dispatched_at(d.token_of(task)),
                at,
            )),
            TraceEvent::StaleCommitRejected {
                at, token, server, ..
            } => ops.push(FaultOp::Finish(server, d.dispatched_at(token), at)),
            _ => {}
        }
    }
    let mut lookups = 0u64;
    let secs = spans.time_reps("faults.plan", REPLAY_REPS, || {
        let mut n = 0u64;
        for op in &ops {
            match *op {
                FaultOp::Dispatch(server, at, service) => {
                    n += 1;
                    if plan.crashed(server, at) {
                        continue;
                    }
                    n += 1;
                    if plan.drops(server, at) {
                        continue;
                    }
                    n += 1;
                    black_box(plan.completion_delay(server, at, service));
                }
                FaultOp::Finish(server, from, at) => {
                    n += 1;
                    if plan.crash_started_within(server, from, at) {
                        continue;
                    }
                    n += 2;
                    if plan.drops(server, at) || plan.restart_loses(server, at) {
                        continue;
                    }
                    n += 1;
                    black_box(plan.duplicates(server, at));
                }
            }
        }
        lookups = n;
    });
    FaultReplay { lookups, secs }
}

// --- metrics: reservoirs and the admission window ------------------------------------

enum MetricOp {
    Wait(SimDuration),
    Query(u8, u32, SimDuration),
}

pub struct ReservoirReplay {
    pub records: u64,
    /// Query latencies recorded — must equal the run's completed queries.
    pub query_records: u64,
    pub secs: Vec<f64>,
    pub percentile_secs: Vec<f64>,
}

/// The latency records a run makes: one pre-dequeue wait per dispatch and
/// two per completed query (by class and by type), for recorded queries.
pub fn reservoirs(
    spans: &mut Spans,
    events: &[TraceEvent],
    arrivals: &Arrivals,
) -> ReservoirReplay {
    // Admitted queries only, indexed by query id.
    let admitted: Vec<_> = arrivals.queries.iter().filter(|q| q.3).collect();
    let mut outstanding: Vec<u32> = admitted.iter().map(|q| q.2).collect();
    let mut ops: Vec<MetricOp> = Vec::new();
    let mut query_records = 0u64;
    for ev in events {
        match *ev {
            TraceEvent::TaskDequeued { query, waited, .. } if admitted[query as usize].4 => {
                ops.push(MetricOp::Wait(waited));
            }
            TraceEvent::TaskCompleted {
                at,
                query,
                won: true,
                ..
            } => {
                let left = &mut outstanding[query as usize];
                *left -= 1;
                let &&(t0, class, fanout, _, recorded, _) = &admitted[query as usize];
                if *left == 0 && recorded {
                    ops.push(MetricOp::Query(class, fanout, at.saturating_since(t0)));
                    query_records += 1;
                }
            }
            _ => {}
        }
    }
    let run = || {
        let mut waits = LatencyReservoir::new();
        let mut by_class: BTreeMap<u8, LatencyReservoir> = BTreeMap::new();
        let mut by_type: BTreeMap<(u8, u32), LatencyReservoir> = BTreeMap::new();
        for op in &ops {
            match *op {
                MetricOp::Wait(w) => waits.record(w),
                MetricOp::Query(class, fanout, latency) => {
                    by_class.entry(class).or_default().record(latency);
                    by_type.entry((class, fanout)).or_default().record(latency);
                }
            }
        }
        black_box(waits.len());
        (by_class, by_type)
    };
    let mut filled = None;
    let secs = spans.time_reps("metrics.reservoir", REPLAY_REPS, || filled = Some(run()));
    let (by_class, by_type) = filled.expect("REPLAY_REPS > 0");
    // What a caller pays for the report's tails: the first percentile of
    // each reservoir sorts it.
    let percentile_secs = (0..REPLAY_REPS)
        .map(|_| {
            let (mut c, mut t) = (by_class.clone(), by_type.clone());
            spans
                .time("metrics.percentile", || {
                    for r in c.values_mut().chain(t.values_mut()) {
                        black_box(r.percentile(0.99));
                    }
                })
                .1
        })
        .collect();
    ReservoirReplay {
        records: ops.len() as u64 + query_records,
        query_records,
        secs,
        percentile_secs,
    }
}

pub struct WindowReplay {
    pub ops: u64,
    pub secs: Vec<f64>,
}

/// The admission controller's use of its `TimedRatio`: one record per
/// dequeue, one length-and-ratio query per arrival.
pub fn window(spans: &mut Spans, events: &[TraceEvent], width: SimDuration) -> WindowReplay {
    // (time, Some(missed)) for a dequeue, (time, None) for an arrival.
    let ops: Vec<(SimTime, Option<bool>)> = events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::TaskDequeued { at, slack_ns, .. } => Some((at, Some(slack_ns < 0))),
            TraceEvent::QueryAdmitted { at, .. } | TraceEvent::QueryRejected { at, .. } => {
                Some((at, None))
            }
            _ => None,
        })
        .collect();
    let secs = spans.time_reps("metrics.window", REPLAY_REPS, || {
        let mut w = TimedRatio::new(width);
        for &(at, op) in &ops {
            match op {
                Some(missed) => w.record(at, missed),
                None => {
                    black_box(w.len(at));
                    black_box(w.ratio(at));
                }
            }
        }
    });
    WindowReplay {
        ops: ops.len() as u64,
        secs,
    }
}

// --- sched.health --------------------------------------------------------------------

pub struct HealthReplay {
    pub observes: u64,
    pub secs: Vec<f64>,
}

/// `HealthTracker::observe` per completed task, draining transitions as
/// the handler does.
pub fn health(
    spans: &mut Spans,
    events: &[TraceEvent],
    config: &SimConfig,
) -> Option<HealthReplay> {
    let hc = config.health?;
    let completions = completions(events);
    let secs = spans.time_reps("sched.health", REPLAY_REPS, || {
        let mut h = HealthTracker::new(hc, config.cluster.servers());
        for &(server, busy) in &completions {
            h.observe(server as usize, busy);
            while let Some(t) = h.take_transition() {
                black_box(t);
            }
        }
    });
    Some(HealthReplay {
        observes: completions.len() as u64,
        secs,
    })
}

// --- sched.handler -------------------------------------------------------------------

enum HandlerOp {
    Arrive(usize),
    Complete(SimTime, u32, LeaseToken, SimDuration),
}

pub struct HandlerReplay {
    pub calls: u64,
    pub completed: u64,
    pub rejected: u64,
    pub deadline_miss_ratio: f64,
    pub secs: Vec<f64>,
}

/// Drives a fresh `QueryHandler` through the captured arrival/completion
/// sequence with the captured placements. Fault-free workloads only: the
/// handler is deterministic, so it re-makes every admission and dispatch
/// decision of the run, and the caller checks that it did.
pub fn handler(
    spans: &mut Spans,
    events: &[TraceEvent],
    arrivals: &Arrivals,
    config: &SimConfig,
    types: &[(u8, u32)],
) -> HandlerReplay {
    let mut d = Dispatches::default();
    let mut ops: Vec<HandlerOp> = Vec::new();
    let mut next_query = 0usize;
    for ev in events {
        match *ev {
            TraceEvent::QueryAdmitted { .. } | TraceEvent::QueryRejected { .. } => {
                ops.push(HandlerOp::Arrive(next_query));
                next_query += 1;
            }
            TraceEvent::TaskDequeued {
                at, task, token, ..
            } => d.dispatch(task, token, at),
            TraceEvent::TaskCompleted { at, task, busy, .. } => {
                ops.push(HandlerOp::Complete(at, task, d.token_of(task), busy));
            }
            _ => {}
        }
    }
    let mut r = HandlerReplay {
        calls: ops.len() as u64,
        completed: 0,
        rejected: 0,
        deadline_miss_ratio: 0.0,
        secs: Vec::new(),
    };
    spans.enter("sched.handler");
    for _ in 0..REPLAY_REPS {
        let mut h = QueryHandler::new(
            config.policy,
            config.classes.clone(),
            config.cluster.servers(),
            cold_budgets(config, types),
            config.admission,
        );
        let mut started: Vec<DispatchedTask> = Vec::new();
        let ((), secs) = spans.time("rep", || {
            for op in &ops {
                match *op {
                    HandlerOp::Arrive(q) => {
                        let (at, class, _, _, record, _) = arrivals.queries[q];
                        let arrival = QueryArrival {
                            class,
                            targets: arrivals.targets_of(q),
                            sizes: None,
                            budget_override: None,
                            task_budgets: None,
                            record,
                        };
                        black_box(h.on_query_arrival(at, arrival, &mut started));
                    }
                    HandlerOp::Complete(at, task, token, busy) => {
                        black_box(h.on_task_complete(at, task, token, busy));
                    }
                }
            }
        });
        r.secs.push(secs);
        let stats = h.stats();
        r.completed = stats.completed_queries;
        r.rejected = stats.rejected_queries;
        r.deadline_miss_ratio = stats.load.deadline_miss_ratio();
    }
    spans.exit();
    r
}
