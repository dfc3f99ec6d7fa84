//! Property-based invariants of the cluster simulator, checked against
//! randomized workloads and an independent analytical model.
//!
//! `proptest` here is the offline stand-in under `third_party/proptest`
//! (version `0.0.0-offline-stub`): inputs are still randomized
//! deterministically per seed, but shrinking is crude and case coverage is
//! well below upstream proptest's — treat these as randomized smoke tests
//! of the invariants, not exhaustive property checks. See
//! `third_party/README.md`.

use proptest::prelude::*;
use tailguard_repro::dist::Deterministic;
use tailguard_repro::policy::Policy;
use tailguard_repro::simcore::{SimDuration, SimTime};
use tailguard_repro::tailguard::{
    run_simulation, ClassSpec, ClusterSpec, QuerySpec, RequestInput, SimConfig, SimInput,
};

fn ms(v: f64) -> SimDuration {
    SimDuration::from_millis_f64(v)
}

/// Lindley's recursion for a single FIFO server with deterministic
/// service: the independent ground truth for the simulator.
fn lindley_fifo_latencies(arrivals_us: &[u64], service: SimDuration) -> Vec<SimDuration> {
    let mut free_at = SimTime::ZERO;
    let mut out = Vec::with_capacity(arrivals_us.len());
    for &a in arrivals_us {
        let arrival = SimTime::from_micros(a);
        let start = if free_at > arrival { free_at } else { arrival };
        let done = start + service;
        out.push(done.saturating_since(arrival));
        free_at = done;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-server FIFO latencies match Lindley's recursion exactly.
    #[test]
    fn fifo_matches_lindley(
        mut arrivals in proptest::collection::vec(0u64..50_000, 1..80),
        service_us in 100u64..5_000,
    ) {
        arrivals.sort_unstable();
        let service = SimDuration::from_micros(service_us);
        let cfg = SimConfig::new(
            ClusterSpec::homogeneous(1, Deterministic::new(service.as_millis_f64())),
            vec![ClassSpec::p99(ms(10_000.0))],
            Policy::Fifo,
        )
        .with_warmup(0);
        let input = SimInput {
            requests: arrivals
                .iter()
                .map(|&a| RequestInput {
                    arrival: SimTime::from_micros(a),
                    queries: QuerySpec::new(0, 1).into(),
                })
                .collect(),
        };
        let mut report = run_simulation(&cfg, &input);
        let expected = lindley_fifo_latencies(&arrivals, service);
        let mut expected_sorted: Vec<u64> =
            expected.iter().map(|d| d.as_nanos()).collect();
        expected_sorted.sort_unstable();
        let got = report
            .query_latency_by_class
            .get_mut(&0)
            .expect("latencies recorded")
            .ascending()
            .map(SimDuration::as_nanos)
            .collect::<Vec<u64>>();
        prop_assert_eq!(got, expected_sorted);
    }

    /// Conservation: every admitted query completes, none twice.
    #[test]
    fn query_conservation(
        arrivals in proptest::collection::vec(0u64..20_000, 1..120),
        fanout in 1u32..8,
        policy_idx in 0usize..4,
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let n = arrivals.len() as u64;
        let cfg = SimConfig::new(
            ClusterSpec::homogeneous(8, Deterministic::new(0.7)),
            vec![ClassSpec::p99(ms(10_000.0))],
            Policy::ALL[policy_idx],
        )
        .with_warmup(0);
        let input = SimInput {
            requests: arrivals
                .iter()
                .map(|&a| RequestInput {
                    arrival: SimTime::from_micros(a),
                    queries: QuerySpec::new(0, fanout).into(),
                })
                .collect(),
        };
        let report = run_simulation(&cfg, &input);
        prop_assert_eq!(report.completed_queries, n);
        prop_assert_eq!(report.rejected_queries, 0);
        prop_assert_eq!(report.load.tasks_dispatched_count(), n * u64::from(fanout));
        prop_assert_eq!(report.load.tasks_completed_count(), n * u64::from(fanout));
    }

    /// Busy time equals dispatched work exactly (work conservation), and
    /// utilization never exceeds 1.
    #[test]
    fn work_conservation(
        arrivals in proptest::collection::vec(0u64..30_000, 1..100),
        service_us in 50u64..2_000,
        servers in 1usize..6,
    ) {
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let service_ms = service_us as f64 / 1_000.0;
        let cfg = SimConfig::new(
            ClusterSpec::homogeneous(servers, Deterministic::new(service_ms)),
            vec![ClassSpec::p99(ms(10_000.0))],
            Policy::TfEdf,
        )
        .with_warmup(0);
        let fanout = 1u32.max(servers as u32 / 2);
        let input = SimInput {
            requests: arrivals
                .iter()
                .map(|&a| RequestInput {
                    arrival: SimTime::from_micros(a),
                    queries: QuerySpec::new(0, fanout).into(),
                })
                .collect(),
        };
        let report = run_simulation(&cfg, &input);
        let busy_ms: f64 = report
            .busy_by_server
            .iter()
            .map(|d| d.as_millis_f64())
            .sum();
        let expected = arrivals.len() as f64 * f64::from(fanout) * service_ms;
        prop_assert!((busy_ms - expected).abs() < 1e-6);
        let load = report.accepted_load();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&load), "load {}", load);
    }

    /// Conservation under arbitrary fault plans and mitigation settings:
    /// every dispatched task attempt resolves exactly one way (wins its
    /// slot, is cancelled as a duplicate/straggler, or is lost to a
    /// fault), and every admitted query resolves exactly once (full,
    /// partial, or failed).
    #[test]
    fn fault_conservation(
        arrivals in proptest::collection::vec(0u64..20_000, 1..100),
        fanout in 1u32..8,
        n_episodes in 0usize..6,
        fault_seed in 0u64..1_000,
        mitigation_mode in 0usize..3,
        policy_idx in 0usize..4,
    ) {
        use tailguard_repro::tailguard::{FaultPlan, MitigationConfig};
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let n = arrivals.len() as u64;
        let plan = if n_episodes == 0 {
            FaultPlan::new() // normalised away: exercises the empty-plan path
        } else {
            FaultPlan::generate(fault_seed, 8, SimDuration::from_millis(30), n_episodes, 3.0)
        };
        let mut cfg = SimConfig::new(
            ClusterSpec::homogeneous(8, Deterministic::new(0.7)),
            vec![ClassSpec::p99(ms(10.0))],
            Policy::ALL[policy_idx],
        )
        .with_warmup(0)
        .with_faults(plan);
        cfg = match mitigation_mode {
            0 => cfg, // no mitigation: lost tasks stay lost
            1 => cfg.with_mitigation(MitigationConfig::new().with_hedge_after(0.5)),
            _ => cfg.with_mitigation(
                MitigationConfig::new()
                    .with_hedge_after(0.3)
                    .with_partial_quorum(0.75),
            ),
        };
        let input = SimInput {
            requests: arrivals
                .iter()
                .map(|&a| RequestInput {
                    arrival: SimTime::from_micros(a),
                    queries: QuerySpec::new(0, fanout).into(),
                })
                .collect(),
        };
        let report = run_simulation(&cfg, &input);
        let r = &report.robustness;
        // Task-attempt conservation.
        prop_assert_eq!(
            r.task_wins + r.cancelled_tasks + r.tasks_lost_to_faults,
            report.load.tasks_dispatched_count()
        );
        // Query conservation: admitted = completed + partial + failed.
        prop_assert_eq!(
            report.completed_queries + r.partial_completions + r.failed_queries,
            n
        );
        prop_assert_eq!(report.rejected_queries, 0);
    }

    /// Conservation under crash/restart/duplicate-delivery storms with a
    /// lease armed: crashes swallow in-flight tasks *silently* (no loss
    /// notification), yet no admitted query is lost — the expired lease
    /// reclaims the task and re-enqueues it with its original deadline —
    /// and none is double-counted — redelivered results and zombie
    /// completions are fenced by token mismatch.
    #[test]
    fn crash_conservation(
        arrivals in proptest::collection::vec(0u64..20_000, 1..100),
        fanout in 1u32..8,
        n_episodes in 1usize..6,
        fault_seed in 0u64..1_000,
        lease_ms in 2u64..20,
        policy_idx in 0usize..4,
    ) {
        use tailguard_repro::tailguard::FaultPlan;
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let n = arrivals.len() as u64;
        let plan = FaultPlan::generate_crash_storm(
            fault_seed,
            8,
            SimDuration::from_millis(30),
            n_episodes,
            3.0,
        );
        let cfg = SimConfig::new(
            ClusterSpec::homogeneous(8, Deterministic::new(0.7)),
            vec![ClassSpec::p99(ms(10.0))],
            Policy::ALL[policy_idx],
        )
        .with_warmup(0)
        .with_faults(plan)
        .with_lease(SimDuration::from_millis(lease_ms));
        let input = SimInput {
            requests: arrivals
                .iter()
                .map(|&a| RequestInput {
                    arrival: SimTime::from_micros(a),
                    queries: QuerySpec::new(0, fanout).into(),
                })
                .collect(),
        };
        let report = run_simulation(&cfg, &input);
        let r = &report.robustness;
        let lc = &report.lifecycle;
        // Query conservation: every admitted query resolves exactly once.
        prop_assert_eq!(
            report.completed_queries + r.partial_completions + r.failed_queries,
            n
        );
        prop_assert_eq!(report.rejected_queries, 0);
        // Nothing is left live in the state store at the end of the run.
        prop_assert_eq!(lc.queued + lc.leased + lc.running, 0);
        // Attempt conservation, unchanged by reclaims: every attempt ever
        // created reaches exactly one terminal outcome (win / cancel /
        // loss) no matter how many times its lease expired and the task
        // was re-enqueued in between.
        prop_assert_eq!(
            r.task_wins + r.cancelled_tasks + r.tasks_lost_to_faults,
            report.load.tasks_dispatched_count()
        );
        // Reclaims re-dequeue the same attempt, so the dequeue counter
        // exceeds the attempt counter by exactly the reclaim count.
        prop_assert_eq!(
            report.load.tasks_completed_count(),
            report.load.tasks_dispatched_count() + lc.reclaims
        );
    }

    /// Gray-failure resilience: under arbitrary degrade-ramp/flap drift
    /// plans, health-gated ejection with recovery probing (plus a capped
    /// hedge budget) conserves every query and every task attempt, and
    /// the tracker never shrinks the dispatchable pool below the
    /// partial-quorum hard floor.
    #[test]
    fn health_ejection_conserves_and_respects_floor(
        arrivals in proptest::collection::vec(0u64..20_000, 1..100),
        fanout in 1u32..8,
        n_episodes in 1usize..6,
        fault_seed in 0u64..1_000,
        frac_pct in 50u64..100,
        policy_idx in 0usize..4,
    ) {
        use tailguard_repro::tailguard::{FaultPlan, HealthConfig, MitigationConfig};
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let n = arrivals.len() as u64;
        let plan = FaultPlan::generate_drift(
            fault_seed,
            8,
            SimDuration::from_millis(30),
            n_episodes,
            3.0,
        );
        let frac = frac_pct as f64 / 100.0;
        let cfg = SimConfig::new(
            ClusterSpec::homogeneous(8, Deterministic::new(0.7)),
            vec![ClassSpec::p99(ms(10.0))],
            Policy::ALL[policy_idx],
        )
        .with_warmup(0)
        .with_faults(plan)
        .with_health(
            HealthConfig::new()
                .with_min_observations(5)
                .with_eval_every(8)
                .with_probe_every(3)
                .with_min_healthy_fraction(frac),
        )
        .with_mitigation(
            MitigationConfig::new()
                .with_hedge_after(0.5)
                .with_hedge_budget(2),
        );
        let input = SimInput {
            requests: arrivals
                .iter()
                .map(|&a| RequestInput {
                    arrival: SimTime::from_micros(a),
                    queries: QuerySpec::new(0, fanout).into(),
                })
                .collect(),
        };
        let report = run_simulation(&cfg, &input);
        let r = &report.robustness;
        // Query conservation: diversion, probing, and budget-denied hedges
        // never lose or double-count a query.
        prop_assert_eq!(
            report.completed_queries + r.partial_completions + r.failed_queries,
            n
        );
        prop_assert_eq!(report.rejected_queries, 0);
        // Task-attempt conservation still holds with rerouting in the path.
        prop_assert_eq!(
            r.task_wins + r.cancelled_tasks + r.tasks_lost_to_faults,
            report.load.tasks_dispatched_count()
        );
        // Quorum floor: ejections minus readmissions is the number of
        // currently ejected servers, which may never push the healthy
        // count below ceil(frac × 8).
        let h = &report.health;
        prop_assert!(h.ejections >= h.readmissions);
        let min_healthy = (frac * 8.0).ceil() as u64;
        prop_assert!(
            8 - (h.ejections - h.readmissions) >= min_healthy,
            "floor violated: {} ejected with floor {}",
            h.ejections - h.readmissions,
            min_healthy
        );
        prop_assert_eq!(report.server_health.len(), 8);
    }

    /// The EDF policies never produce a *worse* tail than FIFO for the
    /// tightest-budget class when that class is a minority sharing with
    /// loose background traffic.
    #[test]
    fn edf_helps_urgent_minority(seed in 0u64..40) {
        use tailguard_repro::workload::{ArrivalProcess, FanoutDist, QueryMix, Trace, ClassShare};
        let mix = QueryMix::new(vec![
            ClassShare { class: 0, probability: 0.2, fanout: FanoutDist::fixed(4) },
            ClassShare { class: 1, probability: 0.8, fanout: FanoutDist::fixed(4) },
        ]);
        let trace = Trace::generate(
            "prop",
            &ArrivalProcess::poisson(1.4),
            &mix,
            3_000,
            seed,
        );
        let mk = |policy| {
            SimConfig::new(
                ClusterSpec::homogeneous(
                    8,
                    tailguard_repro::dist::Exponential::with_mean(1.0),
                ),
                vec![ClassSpec::p99(ms(4.0)), ClassSpec::p99(ms(40.0))],
                policy,
            )
            .with_warmup(100)
        };
        let input = SimInput::from_trace(&trace);
        let mut edf = run_simulation(&mk(Policy::TfEdf), &input);
        let mut fifo = run_simulation(&mk(Policy::Fifo), &input);
        let edf_tail = edf.class_tail(0, 0.95);
        let fifo_tail = fifo.class_tail(0, 0.95);
        // Allow 10% noise margin; the urgent class must not be hurt.
        prop_assert!(
            edf_tail.as_millis_f64() <= fifo_tail.as_millis_f64() * 1.10,
            "EDF {} vs FIFO {}", edf_tail, fifo_tail
        );
    }
}
