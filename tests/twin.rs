//! The plain-run engine against the event loop.
//!
//! A plain run (one query per request, the analytic estimator, no
//! admission, faults, leases, mitigation, health or adaptive window) is N
//! independent server queues, and the max-load search and load sweeps run
//! it on `run_plain_tapped`'s engine rather than on `run_simulation`'s
//! event loop. Here both run the same configurations and must agree
//! exactly: the whole `SimReport` (every reservoir's samples, sorted), each
//! query's latency and each server's dequeue order with its instants. The
//! event loop's side comes from its trace.
//!
//! The cases cover every policy including SJF, several seeds, loads from
//! 0.2 to 1.5 times the TF-EDFQ max load, the heterogeneous SaS-testbed
//! cluster, explicit placements, budget overrides and per-task budgets,
//! and deterministic service on a time lattice, where a finish and an
//! arrival due at the same nanosecond on one server are common.
//!
//! The default cases take seconds. Longer ones are `#[ignore]`d; run them
//! with
//!
//! ```text
//! cargo test --release --test twin -- --ignored
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use tailguard_repro::dist::{Deterministic, DynDistribution};
use tailguard_repro::policy::Policy;
use tailguard_repro::sched::{TraceEvent, TraceSink};
use tailguard_repro::simcore::{SimDuration, SimRng, SimTime};
use tailguard_repro::tailguard::{
    run_plain_tapped, run_simulation, run_simulation_traced, scenarios, AdmissionConfig, ClassSpec,
    ClusterSpec, DriftKind, DriftPlan, FaultPlan, HealthConfig, MitigationConfig, PlainEvent,
    PlainRun, QuerySpec, RequestInput, Scenario, SimConfig, SimInput, SimReport,
};
use tailguard_repro::workload::{ArrivalProcess, TailbenchWorkload};

/// `maxload_search`'s TF-EDFQ max load on the two-class scenario (seed 1,
/// 100 000 queries per probe), the unit of the load axis.
const TWO_CLASS_MAX_LOAD: f64 = 0.492_968_75;

/// Offered loads as multiples of the max load.
const LOAD_FACTORS: [f64; 4] = [0.2, 0.6, 1.0, 1.5];

/// What one run decided.
#[derive(Debug, PartialEq)]
struct Decisions {
    /// The report's `Debug` print, every reservoir sorted first.
    report: String,
    /// The per-class and per-type latency samples and the pre-dequeue
    /// samples, each sorted.
    samples: String,
    /// Reclaims, copies (hedges and retries), ejections and rejections.
    interventions: [u64; 4],
    /// Each query's latency, by query id.
    latency: BTreeMap<u32, SimDuration>,
    /// Each server's dequeues in order: task id and instant.
    dequeues: Vec<Vec<(u32, SimTime)>>,
}

/// `report`, printed with its samples in order, so that two reports print
/// alike exactly when every field holds the same values; its latency and
/// pre-dequeue samples alone, printed alike; and its interventions.
fn printed(mut report: SimReport) -> (String, String, [u64; 4]) {
    let reservoirs = report
        .query_latency_by_class
        .values_mut()
        .chain(report.query_latency_by_type.values_mut())
        .chain(report.request_latency_by_class.values_mut())
        .chain([&mut report.pre_dequeue, &mut report.partial_latency]);
    for reservoir in reservoirs {
        // Sorting the reservoir makes its `Debug` form a function of its
        // samples alone.
        let _sorted = reservoir.ascending();
    }
    let samples = format!(
        "{:?}\n{:?}\n{:?}",
        report.query_latency_by_class, report.query_latency_by_type, report.pre_dequeue
    );
    let rb = &report.robustness;
    let interventions = [
        report.lifecycle.reclaims,
        rb.hedges_issued + rb.retries,
        report.health.ejections,
        report.rejected_queries,
    ];
    (format!("{report:#?}"), samples, interventions)
}

/// Collects every event of a traced run.
struct Collect(Arc<Mutex<Vec<TraceEvent>>>);

impl TraceSink for Collect {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().expect("trace lock").push(*event);
    }
}

/// The event loop's decisions, and how many of its dequeues took a queued
/// task at an instant when a request arrived: a finish and an arrival due
/// at the same nanosecond.
fn event_loop(config: &SimConfig, input: &SimInput) -> (Decisions, usize) {
    let (report, samples, interventions) = printed(run_simulation(config, input));
    let arrivals: BTreeSet<SimTime> = input.requests.iter().map(|r| r.arrival).collect();
    let mut ties = 0;
    let events = Arc::new(Mutex::new(Vec::new()));
    run_simulation_traced(config, input, Box::new(Collect(Arc::clone(&events))));
    let events = events.lock().expect("trace lock");
    let mut dequeues = vec![Vec::new(); config.cluster.servers()];
    let (mut admitted, mut done) = (BTreeMap::new(), BTreeMap::<u32, SimTime>::new());
    for event in events.iter() {
        match *event {
            TraceEvent::QueryAdmitted { at, query, .. } => {
                admitted.insert(query, at);
            }
            TraceEvent::TaskDequeued {
                at,
                task,
                server,
                waited,
                ..
            } => {
                dequeues[server as usize].push((task, at));
                ties += usize::from(!waited.is_zero() && arrivals.contains(&at));
            }
            TraceEvent::TaskCompleted { at, query, .. } => {
                let last = done.entry(query).or_insert(at);
                *last = (*last).max(at);
            }
            _ => {}
        }
    }
    let latency = done
        .into_iter()
        .map(|(query, at)| (query, at.saturating_since(admitted[&query])))
        .collect();
    let decisions = Decisions {
        report,
        samples,
        interventions,
        latency,
        dequeues,
    };
    (decisions, ties)
}

fn twin(config: &SimConfig, input: impl IntoIterator<Item = RequestInput>) -> Decisions {
    let run = PlainRun {
        cluster: &config.cluster,
        classes: &config.classes,
        policy: config.policy,
        seed: config.seed,
        warmup_queries: config.warmup_queries,
    };
    let mut dequeues = vec![Vec::new(); config.cluster.servers()];
    let mut latency = BTreeMap::new();
    let report = run_plain_tapped(run, input, |event| match event {
        PlainEvent::Dequeued {
            server, task, at, ..
        } => dequeues[server as usize].push((task, at)),
        PlainEvent::Finished { query, latency: l } => {
            latency.insert(query, l);
        }
    });
    let (report, samples, interventions) = printed(report);
    Decisions {
        report,
        samples,
        interventions,
        latency,
        dequeues,
    }
}

/// Panics with the first line where `want` and `got` differ.
fn assert_same_lines(want: &str, got: &str, what: &str) {
    if let Some((w, g)) = want.lines().zip(got.lines()).find(|(w, g)| w != g) {
        panic!("{what} differ: `{w}` against `{g}`");
    }
    assert_eq!(want, got, "{what} differ");
}

/// Runs `config` on `input` through both engines and requires the same
/// decisions; returns the event loop's count of same-instant ties.
fn assert_twin(config: &SimConfig, input: &SimInput, case: &str) -> usize {
    let ((want, ties), got) = (event_loop(config, input), twin(config, input));
    assert_same_lines(&want.report, &got.report, &format!("{case}: reports"));
    assert_same_decisions(&want, &got, case);
    ties
}

/// Requires equal dequeue orders and per-query latencies.
fn assert_same_decisions(want: &Decisions, got: &Decisions, case: &str) {
    for (server, (w, g)) in want.dequeues.iter().zip(&got.dequeues).enumerate() {
        if let Some(at) = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i)) {
            panic!(
                "{case}: server {server}'s dequeue {at} differs: event loop {:?}, twin {:?}",
                w.get(at),
                g.get(at)
            );
        }
    }
    if let Some(query) = want
        .latency
        .keys()
        .chain(got.latency.keys())
        .find(|q| want.latency.get(q) != got.latency.get(q))
    {
        panic!(
            "{case}: query {query}'s latency differs: event loop {:?}, twin {:?}",
            want.latency.get(query),
            got.latency.get(query)
        );
    }
}

fn two_class(seed: u64) -> Scenario {
    let mut s = scenarios::two_class(
        TailbenchWorkload::Masstree,
        1.0,
        ArrivalProcess::poisson(1.0),
    );
    s.seed = seed;
    s
}

/// The scenario's probe at `load`, as the max-load search runs it.
fn probe(s: &Scenario, policy: Policy, load: f64, queries: usize) {
    let input = s.input(load, queries);
    let config = s.config(policy).with_warmup(queries / 20);
    let case = format!("{} {policy:?} seed {} load {load}", s.label, s.seed);
    assert_twin(&config, &input, &case);
}

fn every_policy_seed_and_load(queries: usize, seeds: &[u64]) {
    for &seed in seeds {
        let s = two_class(seed);
        for policy in Policy::WITH_EXTENSIONS {
            for factor in LOAD_FACTORS {
                probe(&s, policy, factor * TWO_CLASS_MAX_LOAD, queries);
            }
        }
    }
}

#[test]
fn every_policy_seed_and_load_matches_the_event_loop() {
    every_policy_seed_and_load(1_500, &[1, 2, 3]);
}

#[test]
#[ignore = "long"]
fn every_policy_seed_and_load_matches_the_event_loop_long() {
    every_policy_seed_and_load(40_000, &[1, 2, 3, 4, 5]);
}

fn heterogeneous_sas_cluster(queries: usize, seeds: &[u64]) {
    for &seed in seeds {
        let mut s = scenarios::sas_testbed();
        s.seed = seed;
        for policy in Policy::WITH_EXTENSIONS {
            for load in [0.1, 0.3, 0.5] {
                probe(&s, policy, load, queries);
            }
        }
    }
}

#[test]
fn heterogeneous_sas_cluster_matches_the_event_loop() {
    heterogeneous_sas_cluster(800, &[1, 2, 3]);
}

#[test]
#[ignore = "long"]
fn heterogeneous_sas_cluster_matches_the_event_loop_long() {
    heterogeneous_sas_cluster(20_000, &[1, 2, 3, 4, 5]);
}

/// Hand-built requests on six servers with 1 ms deterministic service:
/// arrivals on a lattice of `step` (gaps of 0, 1 or 2 steps, so several
/// requests often arrive together), fanouts 1–3, explicit placements
/// (repeats allowed) for half the queries, budget overrides and per-task
/// budgets in whole milliseconds for some, and an empty request now and
/// then.
fn lattice_input(seed: u64, requests: usize, step: SimDuration) -> SimInput {
    let mut rng = SimRng::seed(seed);
    let ms = SimDuration::from_millis;
    let mut at = SimTime::ZERO;
    let requests = (0..requests)
        .map(|_| {
            at += step * rng.index(3) as u64;
            if rng.chance(0.01) {
                return RequestInput {
                    arrival: at,
                    queries: Vec::new().into(),
                };
            }
            let fanout = 1 + rng.index(3) as u32;
            let mut query = QuerySpec::new(rng.index(2) as u8, fanout);
            if rng.chance(0.5) {
                query = query.with_servers((0..fanout).map(|_| rng.index(6) as u32).collect());
            }
            match rng.index(4) {
                0 => query = query.with_budget_override(ms(rng.index(4) as u64)),
                1 => {
                    query = query
                        .with_task_budgets((0..fanout).map(|_| ms(rng.index(4) as u64)).collect());
                }
                _ => {}
            }
            RequestInput {
                arrival: at,
                queries: query.into(),
            }
        })
        .collect();
    SimInput { requests }
}

/// Runs [`lattice_input`] on six servers of 1 ms each, and on a cluster
/// mixing 1 ms, 0.5 ms and zero-time servers, where a task can begin and
/// finish at one instant, between arrivals due at that instant.
fn deterministic_lattice(requests: usize, seeds: &[u64]) {
    let mixed: Vec<DynDistribution> = [1.0, 1.0, 0.5, 0.5, 0.0, 0.0]
        .into_iter()
        .map(|ms| Arc::new(Deterministic::new(ms)) as DynDistribution)
        .collect();
    let clusters = [
        ClusterSpec::homogeneous(6, Deterministic::new(1.0)),
        ClusterSpec::heterogeneous(mixed),
    ];
    let classes = vec![
        ClassSpec::p99(SimDuration::from_millis(3)),
        ClassSpec::p99(SimDuration::from_millis(5)),
    ];
    let mut ties = 0;
    for &seed in seeds {
        // Mean fanout 2 at one request per step: offered loads 0.67, 0.83
        // and 1.11 on the 1 ms servers.
        for step_us in [500, 400, 300] {
            let input = lattice_input(seed, requests, SimDuration::from_micros(step_us));
            for (c, cluster) in clusters.iter().enumerate() {
                for policy in Policy::WITH_EXTENSIONS {
                    let config = SimConfig::new(cluster.clone(), classes.clone(), policy)
                        .with_seed(seed)
                        .with_warmup(requests / 50);
                    let case = format!("lattice {c} {policy:?} seed {seed} step {step_us} µs");
                    ties += assert_twin(&config, &input, &case);
                }
            }
        }
    }
    assert!(ties > 100, "only {ties} same-instant finishes and arrivals");
}

#[test]
fn deterministic_service_with_same_instant_finishes_and_arrivals_matches_the_event_loop() {
    deterministic_lattice(600, &[1, 2, 3]);
}

#[test]
#[ignore = "long"]
fn deterministic_service_with_same_instant_finishes_and_arrivals_matches_the_event_loop_long() {
    deterministic_lattice(20_000, &[1, 2, 3, 4, 5, 6, 7, 8]);
}

#[test]
fn an_empty_input_matches_the_event_loop() {
    let s = two_class(1);
    let config = s.config(Policy::TfEdf);
    assert_twin(&config, &SimInput::default(), "empty input");
}

/// `base` with each optional layer on, one at a time, configured so that
/// it can never act on a two-class Masstree run: every layer is present on
/// the event loop's path, and none may change a decision.
fn inert_layers(base: &SimConfig) -> Vec<(&'static str, SimConfig)> {
    let never = MitigationConfig::new().with_hedge_after(1e6);
    let whole = MitigationConfig::new().with_partial_quorum(1.0);
    let admission = AdmissionConfig::new(SimDuration::from_millis(10), 0.999_999);
    vec![
        (
            "10 s lease",
            base.clone().with_lease(SimDuration::from_millis(10_000)),
        ),
        (
            "no hedge",
            base.clone().with_mitigation(MitigationConfig::new()),
        ),
        ("hedge after 1e6 T_b", base.clone().with_mitigation(never)),
        ("quorum 1.0", base.clone().with_mitigation(whole)),
        (
            "empty fault plan",
            base.clone().with_faults(FaultPlan::new()),
        ),
        ("R_th 0.999999", base.clone().with_admission(admission)),
        (
            "default health",
            base.clone().with_health(HealthConfig::new()),
        ),
    ]
}

/// Each inert layer on the event loop must decide exactly as the plain
/// engine does without it: the same latency and pre-dequeue samples, the
/// same per-query latencies and per-server dequeue orders, and no reclaim,
/// copy, ejection or rejection. Only `events_processed` and the lease
/// counters may differ, through the timers the layers arm.
#[test]
fn inert_layers_decide_as_the_plain_engine() {
    let s = two_class(1);
    for policy in [Policy::TfEdf, Policy::Fifo] {
        for load in [0.3, 0.45] {
            let input = s.input(load, 4_000);
            let base = s.config(policy).with_warmup(200);
            let want = twin(&base, &input);
            for (layer, config) in inert_layers(&base) {
                let case = format!("{layer}, {policy:?} at load {load}");
                let (got, _) = event_loop(&config, &input);
                assert_same_lines(&got.samples, &want.samples, &format!("{case}: samples"));
                assert_same_decisions(&got, &want, &case);
                assert_eq!(got.interventions, [0; 4], "{case}: a layer acted");
            }
        }
    }
}

/// A traced run's whole printed report and its trace.
fn report_and_trace(
    config: &SimConfig,
    input: impl IntoIterator<Item = RequestInput>,
) -> (String, Vec<TraceEvent>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let report = run_simulation_traced(config, input, Box::new(Collect(Arc::clone(&events))));
    let trace = events.lock().expect("trace lock").clone();
    (printed(report).0, trace)
}

/// A run fed a scenario's stream, which it draws one request at a time,
/// must equal the run fed the same requests held whole, on both engines.
#[test]
fn a_scenario_stream_runs_as_its_held_input() {
    let diurnal = DriftPlan::new(vec![DriftKind::Diurnal {
        period: SimDuration::from_millis(40),
        amplitude: 0.6,
    }]);
    let scenarios = [
        two_class(1),
        scenarios::sas_testbed(),
        two_class(2).with_drift(diurnal),
    ];
    let queries = 1_500;
    for s in &scenarios {
        for policy in Policy::WITH_EXTENSIONS {
            let load = 0.8 * TWO_CLASS_MAX_LOAD;
            let config = s.config(policy).with_warmup(queries / 20);
            let held = s.input(load, queries);
            let case = format!("{} {policy:?}", s.label);
            let (want, want_trace) = report_and_trace(&config, &held);
            let (got, got_trace) = report_and_trace(&config, s.requests(load, queries));
            assert_same_lines(&want, &got, &format!("{case}: reports"));
            assert!(want_trace == got_trace, "{case}: traces differ");
            let plain = run_simulation(&config, s.requests(load, queries));
            assert_same_lines(&want, &printed(plain).0, &format!("{case}: untraced"));
            let (want, got) = (
                twin(&config, &held),
                twin(&config, s.requests(load, queries)),
            );
            assert_same_lines(&want.report, &got.report, &format!("{case}: plain"));
        }
    }
}
