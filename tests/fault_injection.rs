//! Fault injection end to end: the ISSUE-3 acceptance checks.
//!
//! The headline claim (mirrored by `cargo bench --bench fault_matrix`,
//! which writes `BENCH_faults.json`): under a standard slowdown episode —
//! 10 of 100 servers serving at 8× for the whole run — TF-EDFQ *without*
//! mitigation misses a 5 ms p99 SLO by orders of magnitude, while TF-EDFQ
//! *with* deadline-aware hedging meets it. The remaining tests pin the
//! determinism and sim/testbed-agreement guarantees of the fault layer.

use tailguard_repro::policy::Policy;
use tailguard_repro::simcore::{SimDuration, SimTime};
use tailguard_repro::tailguard::{
    run_indexed, run_simulation, scenarios, FaultEpisode, FaultKind, FaultPlan, MitigationConfig,
    Scenario,
};
use tailguard_repro::testbed::{run_testbed, TestbedConfig, TestbedMode};
use tailguard_repro::workload::{FanoutDist, QueryMix, TailbenchWorkload};

const SLO_MS: f64 = 5.0;
const LOAD: f64 = 0.4;

/// The bench scenario: masstree, 100 servers, fixed fanout 10, 5 ms SLO.
fn slow_rack_scenario() -> Scenario {
    let mut s = scenarios::single_class(TailbenchWorkload::Masstree, SLO_MS, 100);
    s.mix = QueryMix::single(FanoutDist::fixed(10));
    s
}

/// 10 of the 100 servers serve at 8× for the whole run.
fn slow_rack_plan() -> FaultPlan {
    let plan: FaultPlan = (0..10)
        .map(|server| {
            FaultEpisode::new(
                server,
                SimTime::ZERO,
                SimTime::from_millis(3_600_000),
                FaultKind::Slowdown { factor: 8.0 },
            )
        })
        .collect();
    plan
}

/// ISSUE acceptance: with the standard slowdown episode enabled, TF-EDFQ
/// with hedging meets a p99 SLO that TF-EDFQ without hedging misses.
/// Asserted with tolerance: the unmitigated miss must exceed 2× the SLO
/// and the hedged run must stay under 80% of it (the measured values are
/// ~1950 ms vs ~2.6 ms, so both margins are wide).
#[test]
fn hedging_rescues_p99_under_slowdown() {
    let scenario = slow_rack_scenario();
    let queries = 12_000;
    let input = scenario.input(LOAD, queries);
    let base = || {
        scenario
            .config(Policy::TfEdf)
            .with_warmup(queries / 20)
            .with_faults(slow_rack_plan())
    };

    let mut faulty = run_simulation(&base(), &input);
    let faulty_p99 = faulty.class_tail(0, 0.99).as_millis_f64();
    assert!(
        faulty_p99 > 2.0 * SLO_MS,
        "unmitigated TF-EDFQ should miss the {SLO_MS} ms SLO badly, got p99 = {faulty_p99:.3} ms"
    );

    let mitigated_cfg = base().with_mitigation(MitigationConfig::new().with_hedge_after(0.5));
    let mut mitigated = run_simulation(&mitigated_cfg, &input);
    let mitigated_p99 = mitigated.class_tail(0, 0.99).as_millis_f64();
    assert!(
        mitigated_p99 < 0.8 * SLO_MS,
        "hedged TF-EDFQ should meet the {SLO_MS} ms SLO with margin, got p99 = {mitigated_p99:.3} ms"
    );

    // Hedging actually happened and won races; a slowdown loses no tasks.
    let r = &mitigated.robustness;
    assert!(r.hedges_issued > 0, "no hedges issued");
    assert!(r.hedge_wins > 0, "hedges never won");
    assert_eq!(r.tasks_lost_to_faults, 0);
    // Everything after warmup completes fully (slowdowns delay, never lose).
    assert_eq!(mitigated.completed_queries, (queries - queries / 20) as u64);
}

/// ISSUE acceptance: the same `FaultPlan` produces identical fault/hedge
/// counters (and identical reports) whether cells run serially or on
/// eight worker threads.
#[test]
fn fault_counters_identical_across_jobs() {
    let scenario = slow_rack_scenario();
    let plan = slow_rack_plan();
    let policies = [Policy::Fifo, Policy::Priq, Policy::TEdf, Policy::TfEdf];
    let run = |jobs: usize| {
        run_indexed(&policies, jobs, |_, &policy| {
            let input = scenario.input(LOAD, 3_000);
            let cfg = scenario
                .config(policy)
                .with_warmup(100)
                .with_faults(plan.clone())
                .with_mitigation(MitigationConfig::new().with_hedge_after(0.5));
            let report = run_simulation(&cfg, &input);
            (
                report.robustness.clone(),
                report.completed_queries,
                report.load.tasks_dispatched_count(),
            )
        })
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial, parallel);
    // Sanity: the cells actually exercised the fault machinery.
    assert!(serial.iter().all(|(r, ..)| r.hedges_issued > 0));
}

/// The simulator and the tokio testbed consume the same `FaultPlan` type
/// with the same semantics: under an identical blackout plan (drop
/// episodes on the first four servers for the whole run) both runtimes
/// lose tasks, issue deadline-aware retries, and still resolve every
/// query exactly once (full, partial, or failed).
#[test]
fn sim_and_testbed_count_faults_alike() {
    let queries = 300usize;
    let load = 0.3;
    let plan: FaultPlan = (0..4)
        .map(|server| {
            FaultEpisode::new(
                server,
                SimTime::ZERO,
                SimTime::from_millis(3_600_000),
                FaultKind::Drop,
            )
        })
        .collect();
    let mitigation = MitigationConfig::new(); // retry lost tasks, no hedging

    let tb_config = TestbedConfig {
        policy: Policy::TfEdf,
        queries,
        target_load: load,
        calibration_probes: 20,
        store_days: 35,
        mode: TestbedMode::PausedTime,
        faults: Some(plan.clone()),
        mitigation: Some(mitigation),
        ..TestbedConfig::default()
    };
    let tb = run_testbed(&tb_config);

    let scenario = scenarios::sas_testbed();
    let cfg = scenario
        .config(Policy::TfEdf)
        .with_warmup(0)
        .with_faults(plan)
        .with_mitigation(mitigation);
    let input = scenario.input(load, queries);
    let sim = run_simulation(&cfg, &input);

    for (name, lost, retries, resolved) in [
        (
            "testbed",
            tb.robustness.tasks_lost_to_faults,
            tb.robustness.retries,
            tb.completed_queries
                + tb.rejected_queries
                + tb.robustness.partial_completions
                + tb.robustness.failed_queries,
        ),
        (
            "sim",
            sim.robustness.tasks_lost_to_faults,
            sim.robustness.retries,
            sim.completed_queries
                + sim.rejected_queries
                + sim.robustness.partial_completions
                + sim.robustness.failed_queries,
        ),
    ] {
        assert!(lost > 0, "{name}: blackout lost no tasks");
        assert!(retries > 0, "{name}: lost tasks were never retried");
        assert_eq!(
            resolved, queries as u64,
            "{name}: every query must resolve exactly once"
        );
    }
}

/// Crash recovery is runtime-agnostic: under an identical crash plan
/// (nodes 0–3 down for the first stretch of the run) with a lease TTL
/// armed, both the simulator and the tokio testbed reclaim expired
/// leases, re-enqueue the swallowed tasks, and still resolve every
/// query exactly once with nothing left live in the state store.
#[test]
fn sim_and_testbed_recover_from_crashes_alike() {
    let queries = 300usize;
    let load = 0.3;
    let plan: FaultPlan = (0..4)
        .map(|server| {
            FaultEpisode::new(
                server,
                SimTime::ZERO,
                SimTime::from_millis(3_000),
                FaultKind::Crash,
            )
        })
        .collect();
    let lease = SimDuration::from_millis(500);

    let tb_config = TestbedConfig {
        policy: Policy::TfEdf,
        queries,
        target_load: load,
        calibration_probes: 20,
        store_days: 35,
        mode: TestbedMode::PausedTime,
        faults: Some(plan.clone()),
        lease_ttl: Some(lease),
        ..TestbedConfig::default()
    };
    let tb = run_testbed(&tb_config);

    let scenario = scenarios::sas_testbed();
    let cfg = scenario
        .config(Policy::TfEdf)
        .with_warmup(0)
        .with_faults(plan)
        .with_lease(lease);
    let input = scenario.input(load, queries);
    let sim = run_simulation(&cfg, &input);

    for (name, lc, resolved) in [
        (
            "testbed",
            &tb.lifecycle,
            tb.completed_queries
                + tb.rejected_queries
                + tb.robustness.partial_completions
                + tb.robustness.failed_queries,
        ),
        (
            "sim",
            &sim.lifecycle,
            sim.completed_queries
                + sim.rejected_queries
                + sim.robustness.partial_completions
                + sim.robustness.failed_queries,
        ),
    ] {
        assert!(lc.reclaims > 0, "{name}: crash never expired a lease");
        assert_eq!(
            resolved, queries as u64,
            "{name}: every query must resolve exactly once despite crashes"
        );
        assert_eq!(
            lc.queued + lc.leased + lc.running,
            0,
            "{name}: attempts left live in the state store"
        );
    }
}

/// An empty fault plan is normalised away: configuring `FaultPlan::new()`
/// yields the bit-identical report of a run with no plan at all (the
/// golden-pin guarantee).
#[test]
fn empty_fault_plan_is_identical_to_none() {
    let scenario = slow_rack_scenario();
    let input = scenario.input(LOAD, 2_000);
    let mut plain = run_simulation(&scenario.config(Policy::TfEdf), &input);
    let mut empty = run_simulation(
        &scenario.config(Policy::TfEdf).with_faults(FaultPlan::new()),
        &input,
    );
    assert_eq!(plain.completed_queries, empty.completed_queries);
    assert_eq!(plain.robustness, empty.robustness);
    assert_eq!(
        plain.class_tail(0, 0.99).as_micros(),
        empty.class_tail(0, 0.99).as_micros()
    );
    assert_eq!(
        plain.load.tasks_dispatched_count(),
        empty.load.tasks_dispatched_count()
    );
}
