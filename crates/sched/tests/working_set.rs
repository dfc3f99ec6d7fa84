//! The handler's working set follows the work in flight, not the length of
//! the run — and where it cannot, the limit is the documented one.
//!
//! A small event-driven driver (the simulator's loop without its fault
//! plan, request chaining or reports) pushes a long Poisson arrival stream
//! through one [`QueryHandler`] and, at every arrival, measures the rows
//! the handler still holds: task ids minted minus
//! [`QueryHandler::first_live_task`], and query ids minted minus
//! [`QueryHandler::first_live_query`].

use tailguard_policy::Policy;
use tailguard_sched::{
    AdmitDecision, AttemptKind, ClassSpec, ClusterSpec, CommitOutcome, DeadlineEstimator,
    DispatchedTask, EstimatorMode, LeaseToken, MitigationConfig, QueryArrival, QueryHandler,
    TaskCompletion,
};
use tailguard_simcore::{Engine, Scheduler, SimDuration, SimRng, SimTime, Simulation};
use tailguard_workload::{ArrivalProcess, FanoutDist, QueryMix, TailbenchWorkload, Trace};

const SERVERS: usize = 100;
const LOAD: f64 = 0.5;
/// Rows a fault-free run may hold at once, of either kind. The window runs
/// from the oldest unfinished task to the newest, so it is what is in
/// flight plus what finished out of order behind the oldest: a small
/// multiple of servers × queue depth. The run below peaks at 441 tasks in
/// flight (under 5 per server) and holds 906 task rows and 218 query rows
/// at most, of 536 375 and 200 000 minted; sixteen rows per server leaves
/// room for another seed.
const BOUND: u64 = 16 * SERVERS as u64;
/// The same under the storm, where the oldest unfinished task can be one
/// that waits out a 5 ms outage on a dead server's queue while originals
/// and hedge copies are minted at ≈ 0.4 rows/µs: it holds 4 240 task rows
/// at most, of 728 639 minted.
const STORM_BOUND: u64 = 64 * SERVERS as u64;

#[derive(Clone, Copy)]
enum Ev {
    Arrive(usize),
    Finish {
        task: u32,
        lease: LeaseToken,
        busy: SimDuration,
    },
    LeaseCheck {
        task: u32,
        lease: LeaseToken,
    },
    HedgeCheck(u32),
}

/// What goes wrong on the way from a dispatch to its result.
#[derive(Clone, Copy)]
enum Trouble {
    None,
    /// A rolling storm: each server is down for 5 ms of every 250 (a
    /// dispatch to it vanishes) and, half a period later, 30× slow for
    /// 5 ms (its lease expires long before its result arrives, so the
    /// result comes back as a zombie's).
    Storm,
    /// The n-th dispatch of the run vanishes, once.
    SwallowDispatch(u64),
}

struct Driver {
    handler: QueryHandler,
    trace: Trace,
    cluster: ClusterSpec,
    placement: SimRng,
    service: SimRng,
    trouble: Trouble,
    dispatches: u64,
    started: Vec<DispatchedTask>,
    /// The task of the swallowed dispatch of [`Trouble::SwallowDispatch`].
    pinned: Option<u32>,
    tasks_held_max: u64,
    queries_held_max: u64,
    depth_max: usize,
    late_stale: u64,
}

impl Driver {
    fn tasks_minted(&self) -> u64 {
        let st = self.handler.lifecycle();
        st.queued + st.leased + st.running + st.completed + st.failed
    }

    fn tasks_held(&self) -> u64 {
        self.tasks_minted() - u64::from(self.handler.first_live_task())
    }

    fn queries_held(&self) -> u64 {
        self.handler.query_count() as u64 - u64::from(self.handler.first_live_query())
    }

    fn dispatch(&mut self, now: SimTime, d: DispatchedTask, sched: &mut Scheduler<Ev>) {
        self.dispatches += 1;
        if let Some(at) = d.lease_expires_at {
            let (task, lease) = (d.task, d.lease);
            sched.schedule_at(at, Ev::LeaseCheck { task, lease });
        }
        let ms = self
            .cluster
            .service_of(d.server as usize)
            .sample(&mut self.service);
        let mut busy = SimDuration::from_millis_f64(ms);
        match self.trouble {
            Trouble::None => {}
            Trouble::Storm => {
                let phase = (now.as_nanos() / 5_000_000 + u64::from(d.server)) % 50;
                if phase == 0 {
                    return;
                }
                if phase == 25 {
                    busy = busy.mul_f64(30.0);
                }
            }
            Trouble::SwallowDispatch(nth) => {
                if self.dispatches == nth {
                    self.pinned = Some(d.task);
                    return;
                }
            }
        }
        let (task, lease) = (d.task, d.lease);
        sched.schedule_in(now, busy, Ev::Finish { task, lease, busy });
    }

    fn apply(&mut self, now: SimTime, ended: TaskCompletion, sched: &mut Scheduler<Ev>) {
        if let Some(next) = ended.next {
            self.dispatch(now, next, sched);
        }
        if let Some(retry) = ended.retry {
            self.issue_copy(now, retry.slot, retry.server, AttemptKind::Retry, sched);
        }
    }

    fn issue_copy(
        &mut self,
        now: SimTime,
        slot: u32,
        server: u32,
        kind: AttemptKind,
        sched: &mut Scheduler<Ev>,
    ) {
        let (_, dispatched) = self.handler.issue_duplicate(now, slot, server, None, kind);
        if let Some(d) = dispatched {
            self.dispatch(now, d, sched);
        }
    }
}

impl Simulation for Driver {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Arrive(i) => {
                if let Some(next) = self.trace.records.get(i + 1) {
                    sched.schedule_at(next.arrival(), Ev::Arrive(i + 1));
                }
                let query = self.trace.records[i];
                let targets: Vec<u32> = self
                    .placement
                    .sample_distinct(SERVERS, query.fanout as usize)
                    .into_iter()
                    .map(|s| s as u32)
                    .collect();
                let mut started = std::mem::take(&mut self.started);
                let decision = self.handler.on_query_arrival(
                    now,
                    QueryArrival {
                        class: query.class,
                        targets: &targets,
                        sizes: None,
                        budget_override: None,
                        task_budgets: None,
                        record: true,
                    },
                    &mut started,
                );
                let AdmitDecision::Admitted { query } = decision else {
                    panic!("no admission control configured");
                };
                let checks: Vec<_> = self.handler.hedge_checks(query).collect();
                for (task, at) in checks {
                    sched.schedule_at(at, Ev::HedgeCheck(task));
                }
                for &d in &started {
                    self.dispatch(now, d, sched);
                }
                self.started = started;
                // Rows retire at admission, so this is where the window
                // is at its widest.
                self.tasks_held_max = self.tasks_held_max.max(self.tasks_held());
                self.queries_held_max = self.queries_held_max.max(self.queries_held());
                self.depth_max = self
                    .depth_max
                    .max(self.handler.queued_tasks() + self.handler.servers_busy());
            }
            Ev::Finish { task, lease, busy } => {
                let late = task < self.handler.first_live_task();
                let ended = self.handler.on_task_complete(now, task, lease, busy);
                if late {
                    assert_eq!(ended.commit, CommitOutcome::Stale, "only zombies are late");
                    self.late_stale += 1;
                }
                self.apply(now, ended, sched);
            }
            Ev::LeaseCheck { task, lease } => {
                if let Some(Some(d)) = self.handler.on_lease_expired(now, task, lease) {
                    self.dispatch(now, d, sched);
                }
            }
            Ev::HedgeCheck(task) => {
                if let Some(server) = self.handler.copy_target(now, task) {
                    self.issue_copy(now, task, server, AttemptKind::Hedge, sched);
                }
            }
        }
    }
}

/// Runs `queries` arrivals of the paper's fanout mix at load 0.5 on 100
/// Masstree servers to the end of the event list.
fn run(queries: usize, lease: Option<SimDuration>, hedge: bool, trouble: Trouble) -> Driver {
    let workload = TailbenchWorkload::Masstree;
    let fanout = FanoutDist::paper_mix();
    let rate = LOAD * SERVERS as f64 / (fanout.mean() * workload.mean_service_ms());
    let trace = Trace::generate(
        "working-set",
        &ArrivalProcess::poisson(rate),
        &QueryMix::single(fanout),
        queries,
        11,
    );
    let cluster = ClusterSpec::homogeneous(SERVERS, workload.service_dist());
    let classes = vec![ClassSpec::p99(SimDuration::from_millis(1))];
    let estimator = DeadlineEstimator::new(&cluster, classes.clone(), EstimatorMode::Analytic);
    let mut handler = QueryHandler::new(Policy::TfEdf, classes, SERVERS, estimator, None);
    if let Some(ttl) = lease {
        handler = handler.with_lease(ttl);
    }
    if hedge {
        handler = handler.with_mitigation(MitigationConfig::new().with_hedge_after(0.5));
    }
    let mut rng = SimRng::seed(5);
    let mut engine = Engine::new(Driver {
        handler,
        trace,
        cluster,
        placement: rng.split(),
        service: rng.split(),
        trouble,
        dispatches: 0,
        started: Vec::new(),
        pinned: None,
        tasks_held_max: 0,
        queries_held_max: 0,
        depth_max: 0,
        late_stale: 0,
    });
    let first = engine.state().trace.records[0].arrival();
    engine.scheduler_mut().schedule_at(first, Ev::Arrive(0));
    engine.run_to_completion();
    engine.into_state()
}

#[test]
fn a_fault_free_run_holds_only_the_work_in_flight() {
    let d = run(200_000, None, false, Trouble::None);
    assert_eq!(d.handler.stats().completed_queries, 200_000);
    assert!(d.tasks_minted() > 500_000, "{}", d.tasks_minted());
    assert!(
        d.depth_max <= 5 * SERVERS,
        "{} tasks in flight",
        d.depth_max
    );
    assert!(
        d.tasks_held_max <= BOUND && d.queries_held_max <= BOUND,
        "held at most {} task rows and {} query rows",
        d.tasks_held_max,
        d.queries_held_max
    );
}

#[test]
fn a_crash_storm_under_a_short_lease_stays_bounded() {
    let lease = SimDuration::from_millis(1);
    let d = run(200_000, Some(lease), true, Trouble::Storm);
    let life = d.handler.lifecycle();
    let robust = &d.handler.stats().robustness;
    assert!(life.reclaims > 1_000 && robust.hedges_issued > 1_000);
    // The storm's zombies do report after their attempt's row has gone,
    // and the store still fences them.
    assert!(d.late_stale > 100, "{} late zombies", d.late_stale);
    assert!(life.stale_commits_rejected >= d.late_stale);
    assert_eq!(d.handler.stats().completed_queries, 200_000);
    // The one table that outlives its rows is the store's reclaimed
    // tokens, one per reclaim and never pruned: 7 366 entries here, about
    // 1 % of the 728 639 rows minted — it follows the storm, not the run.
    assert!(life.reclaims * 50 <= d.tasks_minted(), "{}", life.reclaims);
    assert!(
        d.tasks_held_max <= STORM_BOUND && d.queries_held_max <= BOUND,
        "held at most {} task rows and {} query rows",
        d.tasks_held_max,
        d.queries_held_max
    );
}

#[test]
fn without_leases_a_swallowed_dispatch_pins_the_window() {
    // The documented limit: nothing ever ends the swallowed attempt, so its
    // row — and every row minted after it — stays, exactly as before rows
    // could retire at all.
    let d = run(20_000, None, false, Trouble::SwallowDispatch(10_000));
    let task = u64::from(d.pinned.expect("the dispatch was swallowed"));
    // The pin sits at the swallowed task (or just before it: a task queued
    // behind it on the dead server never runs either) ...
    let pin = u64::from(d.handler.first_live_task());
    assert!(
        pin <= task && task - pin <= BOUND,
        "pinned at {pin}, not {task}"
    );
    // ... and everything minted since is held: most of the run.
    assert_eq!(d.tasks_held(), d.tasks_minted() - pin);
    assert!(d.tasks_held() > 40_000, "{}", d.tasks_held());
    assert!(d.queries_held() > 1_000, "{}", d.queries_held());
    assert!(d.handler.stats().completed_queries < 20_000);
}
