//! A conservation law as an oracle that shares no code with the engine.
//!
//! A server that is work-conserving, non-preemptive and serves every task
//! to completion holds unfinished work whose time integral is `Σ (W·S +
//! S²/2)` over its tasks (`W` the wait, `S` the service), and that integral
//! does not depend on the order of service. So `Σ W·S` at every server
//! equals what FIFO would give on the same arrivals and services, which a
//! Lindley recursion computes from those alone. Each event-loop run here is
//! traced: a task's server and arrival come from its enqueue, its wait from
//! its dequeue, and its service is the `busy` time its completion reports.
//! A plain-engine run tells its dequeues: the server, the wait since the
//! query arrived (so the arrival is the dequeue minus the wait) and the
//! drawn service. A paused-time testbed run is read from its flight
//! recorder like an event-loop trace; there a task's service is the
//! dispatch-to-result time its node took, on the clock's 1 ms grid. The
//! two sides must agree in `u128` ns², with no tolerance, whatever the
//! policy orders by.
//!
//! A server that idles after a finish, serves a task longer than its
//! service, or holds a queued task back breaks the law at the first
//! server where a task waits across it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tailguard_repro::obs::shared_registry;
use tailguard_repro::policy::Policy;
use tailguard_repro::sched::{TraceEvent, TraceSink};
use tailguard_repro::simcore::SimDuration;
use tailguard_repro::tailguard::{
    run_plain_tapped, run_simulation_traced, scenarios, AdmissionConfig, PlainEvent, PlainRun,
    Scenario, SimConfig, SimInput,
};
use tailguard_repro::testbed::{run_testbed, TestbedConfig, TestbedMode};
use tailguard_repro::workload::{ArrivalProcess, TailbenchWorkload};

/// Collects every event of a traced run.
struct Collect(Arc<Mutex<Vec<TraceEvent>>>);

impl TraceSink for Collect {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().expect("trace lock").push(*event);
    }
}

/// One task as the trace saw it, in ns of virtual time.
#[derive(Default)]
struct Task {
    server: u32,
    enqueued: u64,
    dequeued: Option<u64>,
    service: Option<u64>,
}

/// `Σ W·S` of FIFO on one server's `(arrival, service)` tasks.
fn fifo_wait_work(mut tasks: Vec<(u64, u64)>) -> u128 {
    tasks.sort_unstable();
    let (mut sum, mut wait, mut last) = (0u128, 0u64, (0u64, 0u64));
    for (i, &(arrival, service)) in tasks.iter().enumerate() {
        if i > 0 {
            wait = (wait + last.1).saturating_sub(arrival - last.0);
        }
        sum += u128::from(wait) * u128::from(service);
        last = (arrival, service);
    }
    sum
}

/// One served task, in ns of virtual time.
struct Served {
    server: u32,
    arrival: u64,
    wait: u64,
    service: u64,
}

/// Requires `Σ W·S` of `served` at each of `servers` servers to equal
/// FIFO's on the same arrivals and services.
fn assert_law(servers: usize, served: &[Served], case: &str) {
    let mut observed = vec![0u128; servers];
    let mut arrivals = vec![Vec::new(); servers];
    for task in served {
        observed[task.server as usize] += u128::from(task.wait) * u128::from(task.service);
        arrivals[task.server as usize].push((task.arrival, task.service));
    }
    let total: u128 = observed.iter().sum();
    assert!(
        total > 0,
        "{case}: no task waited, so the law shows nothing"
    );
    for (server, (got, arrivals)) in observed.into_iter().zip(arrivals).enumerate() {
        let want = fifo_wait_work(arrivals);
        assert_eq!(
            got, want,
            "{case}: server {server}'s Σ W·S differs from FIFO's"
        );
    }
}

/// Runs `config` on `input` traced and requires the law at every server;
/// returns the number of queries the run rejected.
fn assert_conserved(config: &SimConfig, input: &SimInput, case: &str) -> usize {
    let events = Arc::new(Mutex::new(Vec::new()));
    run_simulation_traced(config, input, Box::new(Collect(Arc::clone(&events))));
    let events = events.lock().expect("trace lock");
    let traced = served_tasks(&events, case);
    assert_law(config.cluster.servers(), &traced.served, case);
    assert_eq!(
        traced.unserved, 0,
        "{case}: tasks enqueued but never served"
    );
    traced.rejected
}

/// What a trace tells of its tasks.
struct Traced {
    /// The served tasks: server and arrival from the enqueue, wait from
    /// the dequeue, service from the `busy` the completion reports.
    served: Vec<Served>,
    /// Tasks enqueued but never dequeued or completed.
    unserved: usize,
    /// Queries rejected.
    rejected: usize,
}

/// Reads each task of a trace off its enqueue, dequeue and completion.
fn served_tasks(events: &[TraceEvent], case: &str) -> Traced {
    let mut tasks: BTreeMap<u32, Task> = BTreeMap::new();
    let mut rejected = 0;
    for event in events.iter() {
        match *event {
            TraceEvent::TaskEnqueued {
                at, task, server, ..
            } => {
                let old = tasks.insert(
                    task,
                    Task {
                        server,
                        enqueued: at.as_nanos(),
                        ..Task::default()
                    },
                );
                assert!(old.is_none(), "{case}: task {task} enqueued twice");
            }
            TraceEvent::TaskDequeued { at, task, .. } => {
                let t = tasks.get_mut(&task).expect("dequeued after enqueue");
                assert!(t.dequeued.is_none(), "{case}: task {task} dequeued twice");
                t.dequeued = Some(at.as_nanos());
            }
            TraceEvent::TaskCompleted { task, busy, .. } => {
                let t = tasks.get_mut(&task).expect("completed after enqueue");
                t.service = Some(busy.as_nanos());
            }
            TraceEvent::QueryRejected { .. } => rejected += 1,
            _ => {}
        }
    }
    let mut served = Vec::new();
    let mut unserved = 0;
    for task in tasks.values() {
        let (Some(dequeued), Some(service)) = (task.dequeued, task.service) else {
            unserved += 1;
            continue;
        };
        served.push(Served {
            server: task.server,
            arrival: task.enqueued,
            wait: dequeued - task.enqueued,
            service,
        });
    }
    Traced {
        served,
        unserved,
        rejected,
    }
}

/// Runs `config` on `input` on the plain-run engine and requires the law
/// at every server.
fn assert_plain_conserved(config: &SimConfig, input: &SimInput, case: &str) {
    let run = PlainRun {
        cluster: &config.cluster,
        classes: &config.classes,
        policy: config.policy,
        seed: config.seed,
        warmup_queries: config.warmup_queries,
    };
    let mut served = Vec::new();
    run_plain_tapped(run, input, |event| {
        if let PlainEvent::Dequeued {
            server,
            at,
            waited,
            service,
            ..
        } = event
        {
            served.push(Served {
                server,
                arrival: (at - waited).as_nanos(),
                wait: waited.as_nanos(),
                service: service.as_nanos(),
            });
        }
    });
    assert_law(config.cluster.servers(), &served, case);
}

fn two_class() -> Scenario {
    scenarios::two_class(
        TailbenchWorkload::Masstree,
        1.0,
        ArrivalProcess::poisson(1.0),
    )
}

#[test]
fn the_lindley_recursion_is_fifo() {
    // Arrivals at 0, 1, 1 and 10 with services 3, 1, 2 and 1 wait 0, 2,
    // 3 and 0 ns, in any input order: Σ W·S = 2·1 + 3·2.
    let tasks = vec![(10, 1), (1, 2), (0, 3), (1, 1)];
    assert_eq!(fifo_wait_work(tasks), 8);
}

#[test]
fn every_policy_conserves_work() {
    let s = two_class();
    let input = s.input(0.45, 3_000);
    for policy in Policy::WITH_EXTENSIONS {
        let config = s.config(policy).with_warmup(0);
        assert_conserved(&config, &input, &format!("{policy:?}"));
    }
}

#[test]
fn every_policy_conserves_work_on_the_plain_engine() {
    let s = two_class();
    let input = s.input(0.45, 3_000);
    for policy in Policy::WITH_EXTENSIONS {
        let config = s.config(policy).with_warmup(0);
        assert_plain_conserved(&config, &input, &format!("plain {policy:?}"));
    }
}

#[test]
fn every_policy_conserves_work_over_admitted_tasks() {
    let s = two_class();
    let input = s.input(0.7, 3_000);
    let window = SimDuration::from_millis_f64(30.0 / s.rate_for_load(0.5));
    for policy in Policy::WITH_EXTENSIONS {
        let config = s
            .config(policy)
            .with_admission(AdmissionConfig::new(window, 0.01))
            .with_warmup(0);
        let rejected = assert_conserved(&config, &input, &format!("{policy:?} admission"));
        assert!(rejected > 0, "{policy:?}: admission rejected nothing");
    }
}

#[test]
fn every_policy_conserves_work_on_the_sas_cluster() {
    let s = scenarios::sas_testbed();
    let input = s.input(0.5, 1_500);
    for policy in Policy::WITH_EXTENSIONS {
        let config = s.config(policy).with_warmup(0);
        assert_conserved(&config, &input, &format!("SaS {policy:?}"));
    }
}

#[test]
fn every_policy_conserves_work_on_the_paused_testbed() {
    const TICK_NS: u64 = 1_000_000;
    for policy in Policy::WITH_EXTENSIONS {
        let case = format!("testbed {policy:?}");
        let config = TestbedConfig {
            policy,
            queries: 600,
            target_load: 0.5,
            calibration_probes: 5,
            store_days: 35,
            mode: TestbedMode::PausedTime,
            registry: Some(shared_registry()),
            ..TestbedConfig::default()
        };
        let report = run_testbed(&config);
        let recorder = report.recorder.expect("an observed run keeps its recorder");
        assert_eq!(recorder.dropped(), 0, "{case}: the ring dropped events");
        let traced = served_tasks(&recorder.events(), &case);
        assert!(
            traced.served.iter().all(|t| [t.arrival, t.wait, t.service]
                .iter()
                .all(|ns| ns % TICK_NS == 0)),
            "{case}: a task time off the 1 ms tick grid"
        );
        assert_law(32, &traced.served, &case);
        assert_eq!(
            traced.unserved, 0,
            "{case}: tasks enqueued but never served"
        );
    }
}
