//! The handler's working set follows the work in flight, not the length of
//! the run — and where it cannot, the limit is the documented one.
//!
//! The shared [`Driver`] over a small test [`Transport`] (the simulator's
//! without its fault plan, request chaining or reports) pushes a long
//! Poisson arrival stream through one [`QueryHandler`] and, at every
//! arrival, measures the rows the handler still holds: task ids minted
//! minus [`QueryHandler::first_live_task`], and query ids minted minus
//! [`QueryHandler::first_live_query`].

use tailguard_policy::Policy;
use tailguard_sched::{
    Begun, ClassSpec, ClusterSpec, CommitOutcome, DeadlineEstimator, DispatchedTask, Driver,
    EstimatorMode, LeaseToken, MitigationConfig, QueryArrival, QueryHandler, Timer, Transport,
};
use tailguard_simcore::{Scheduler, SimDuration, SimRng, SimTime};
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
    Timer(Timer),
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

/// The test's runtime: an event heap, the service draw and the trouble.
struct Net {
    events: Scheduler<Ev>,
    cluster: ClusterSpec,
    service: SimRng,
    trouble: Trouble,
    dispatches: u64,
    /// The task of the swallowed dispatch of [`Trouble::SwallowDispatch`].
    pinned: Option<u32>,
}

impl Transport for Net {
    type Row = ();
    type Tag = ();

    fn begin(&mut self, now: SimTime, d: DispatchedTask, (): ()) -> Begun {
        self.dispatches += 1;
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
                    return Begun::Swallowed;
                }
                if phase == 25 {
                    busy = busy.mul_f64(30.0);
                }
            }
            Trouble::SwallowDispatch(nth) => {
                if self.dispatches == nth {
                    self.pinned = Some(d.task);
                    return Begun::Swallowed;
                }
            }
        }
        let (task, lease) = (d.task, d.lease);
        self.events
            .schedule_in(now, busy, Ev::Finish { task, lease, busy });
        Begun::Runs
    }

    fn arm(&mut self, at: SimTime, timer: Timer) {
        self.events.schedule_at(at, Ev::Timer(timer));
    }

    fn copy(&mut self, _: SimTime, _: u32, (): ()) -> ((), Option<SimDuration>) {
        ((), None)
    }
}

fn tasks_minted(handler: &QueryHandler) -> u64 {
    let st = handler.lifecycle();
    st.queued + st.leased + st.running + st.completed + st.failed
}

fn tasks_held(handler: &QueryHandler) -> u64 {
    tasks_minted(handler) - u64::from(handler.first_live_task())
}

fn queries_held(handler: &QueryHandler) -> u64 {
    handler.query_count() as u64 - u64::from(handler.first_live_query())
}

/// A finished run and the peaks measured along the way.
struct Outcome {
    handler: QueryHandler,
    pinned: Option<u32>,
    tasks_held_max: u64,
    queries_held_max: u64,
    depth_max: usize,
    late_stale: u64,
}

impl Outcome {
    fn tasks_minted(&self) -> u64 {
        tasks_minted(&self.handler)
    }

    fn tasks_held(&self) -> u64 {
        tasks_held(&self.handler)
    }

    fn queries_held(&self) -> u64 {
        queries_held(&self.handler)
    }
}

/// Runs `queries` arrivals of the paper's fanout mix at load 0.5 on 100
/// Masstree servers to the end of the event list.
fn run(queries: usize, lease: Option<SimDuration>, hedge: bool, trouble: Trouble) -> Outcome {
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
    let mut placement = rng.split();
    let net = Net {
        events: Scheduler::new(),
        cluster,
        service: rng.split(),
        trouble,
        dispatches: 0,
        pinned: None,
    };
    let mut driver = Driver::new(handler, net);
    let (mut tasks_held_max, mut queries_held_max, mut depth_max) = (0, 0, 0);
    let mut late_stale = 0;
    let first = trace.records[0].arrival();
    driver.transport.events.schedule_at(first, Ev::Arrive(0));
    while let Some(event) = driver.transport.events.pop() {
        let now = event.at();
        match event.event {
            Ev::Arrive(i) => {
                if let Some(next) = trace.records.get(i + 1) {
                    let events = &mut driver.transport.events;
                    events.schedule_at(next.arrival(), Ev::Arrive(i + 1));
                }
                let query = trace.records[i];
                let targets: Vec<u32> = placement
                    .sample_distinct(SERVERS, query.fanout as usize)
                    .into_iter()
                    .map(|s| s as u32)
                    .collect();
                let arrival = QueryArrival {
                    class: query.class,
                    targets: &targets,
                    sizes: None,
                    budget_override: None,
                    task_budgets: None,
                    record: true,
                };
                let admitted = driver.handler().query_count();
                driver.admit(now, arrival, &vec![(); targets.len()], ());
                assert!(
                    driver.handler().query_count() > admitted,
                    "no admission control configured"
                );
                // Rows retire at admission, so this is where the window
                // is at its widest.
                let h = driver.handler();
                tasks_held_max = tasks_held_max.max(tasks_held(h));
                queries_held_max = queries_held_max.max(queries_held(h));
                depth_max = depth_max.max(h.queued_tasks() + h.servers_busy());
            }
            Ev::Finish { task, lease, busy } => {
                let late = task < driver.handler().first_live_task();
                let commit = driver.report(now, task, lease, Some(busy));
                if late {
                    assert_eq!(commit, CommitOutcome::Stale, "only zombies are late");
                    late_stale += 1;
                }
            }
            Ev::Timer(timer) => {
                driver.on_timer(now, timer);
            }
        }
        while driver.drain(now).is_some() {}
    }
    let pinned = driver.transport.pinned;
    Outcome {
        handler: driver.into_handler(),
        pinned,
        tasks_held_max,
        queries_held_max,
        depth_max,
        late_stale,
    }
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
