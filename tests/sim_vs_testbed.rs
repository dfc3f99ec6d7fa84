//! Differential test: the discrete-event simulator and the tokio testbed
//! drive the *same* scheduling core (`tailguard_sched::QueryHandler`)
//! through the *same* workload plan (`scenarios::sas_testbed().input(...)`),
//! so their accounting must agree wherever timing does not intervene.
//!
//! What is exactly comparable: the class/fanout/placement sequence is the
//! identical `SimInput` on both sides, so with admission disabled the
//! per-class completed-query counts must match one for one. What is only
//! loosely comparable: latencies (the testbed measures emulated nodes under
//! a compressed tokio clock, the simulator draws service times directly),
//! so those get order-of-magnitude bounds only.

use tailguard_repro::policy::Policy;
use tailguard_repro::simcore::SimDuration;
use tailguard_repro::tailguard::{run_simulation, scenarios, AdmissionConfig};
use tailguard_repro::testbed::{run_testbed, TestbedConfig, TestbedMode};

const QUERIES: usize = 400;

fn testbed_config(load: f64, queries: usize) -> TestbedConfig {
    TestbedConfig {
        policy: Policy::TfEdf,
        queries,
        target_load: load,
        calibration_probes: 20,
        store_days: 35,
        mode: TestbedMode::PausedTime,
        ..TestbedConfig::default()
    }
}

#[test]
fn same_workload_same_counts_without_admission() {
    let load = 0.3;

    let mut tb = run_testbed(&testbed_config(load, QUERIES));
    assert_eq!(tb.completed_queries, QUERIES as u64);
    assert_eq!(tb.rejected_queries, 0);

    let scenario = scenarios::sas_testbed();
    let cfg = scenario.config(Policy::TfEdf).with_warmup(0);
    let input = scenario.input(load, QUERIES);
    let mut sim = run_simulation(&cfg, &input);
    assert_eq!(sim.completed_queries, QUERIES as u64);
    assert_eq!(sim.rejected_queries, 0);
    assert_eq!(
        sim.load.queries_offered_count(),
        sim.load.queries_accepted_count()
    );

    // The identical SimInput drives both runtimes, so each class completes
    // exactly the same number of queries on each side.
    for class in 0..3u8 {
        let s = sim
            .query_latency_by_class
            .get(&class)
            .map_or(0, tailguard_repro::metrics::LatencyReservoir::len);
        let t = tb
            .latency_by_class
            .get(&class)
            .map_or(0, tailguard_repro::metrics::LatencyReservoir::len);
        assert_eq!(s, t, "class {class}: sim completed {s}, testbed {t}");
        assert!(s > 0, "class {class} saw no traffic");
    }

    // Latency agreement is loose by design: same service distributions, but
    // the testbed adds record retrieval and clock-compression rounding.
    for class in 0..3u8 {
        let s = sim.class_tail(class, 0.99).as_millis_f64();
        let t = tb.class_p99_ms(class);
        assert!(
            s > 0.0 && t > 0.0 && s / t < 5.0 && t / s < 5.0,
            "class {class} p99 diverged: sim {s:.1} ms vs testbed {t:.1} ms"
        );
    }
}

#[test]
fn drifting_gray_failure_agrees_across_runtimes() {
    // Non-stationary differential: the same flash-crowd drift plan shapes
    // the workload on both sides (the testbed applies it to the scenario
    // before generating the load plan, so the query sequences are
    // identical), the same degrade-ramp turns two server-room nodes gray,
    // and the same health config ejects them. Counts must agree exactly;
    // the health machinery must engage on both runtimes.
    use tailguard_repro::faults::{FaultEpisode, FaultKind, FaultPlan};
    use tailguard_repro::simcore::SimTime;
    use tailguard_repro::tailguard::{AdaptiveWindow, DriftKind, DriftPlan, HealthConfig};

    let load = 0.3;
    let drift = DriftPlan::new(vec![DriftKind::FlashCrowd {
        start: SimTime::from_millis(2_000),
        end: SimTime::from_millis(10_000),
        factor: 1.5,
    }]);
    let faults: FaultPlan = (0..2)
        .map(|node| {
            FaultEpisode::new(
                node,
                SimTime::from_millis(500),
                SimTime::from_millis(100_000_000),
                FaultKind::DegradeRamp { peak: 15.0 },
            )
        })
        .collect();
    let health = HealthConfig::new()
        .with_min_observations(5)
        .with_eval_every(16)
        .with_thresholds(2.5, 1.4);
    let adaptive = AdaptiveWindow::new(500, 0.5);

    let mut tb_cfg = testbed_config(load, QUERIES);
    tb_cfg.drift = Some(drift.clone());
    tb_cfg.faults = Some(faults.clone());
    tb_cfg.health = Some(health);
    tb_cfg.adaptive = Some(adaptive);
    let tb = run_testbed(&tb_cfg);
    assert_eq!(
        tb.completed_queries
            + tb.rejected_queries
            + tb.robustness.partial_completions
            + tb.robustness.failed_queries,
        QUERIES as u64,
        "testbed lost queries under drift + ejection"
    );
    assert!(tb.health.ejections > 0, "testbed never ejected a gray node");
    assert!(tb.health.rerouted_tasks > 0, "testbed never rerouted");
    assert_eq!(tb.server_health.len(), 32);

    let scenario = scenarios::sas_testbed().with_drift(drift);
    let cfg = scenario
        .config(Policy::TfEdf)
        .with_warmup(0)
        .with_faults(faults)
        .with_health(health)
        .with_adaptive(adaptive);
    let input = scenario.input(load, QUERIES);
    let sim = run_simulation(&cfg, &input);
    assert_eq!(
        sim.completed_queries
            + sim.rejected_queries
            + sim.robustness.partial_completions
            + sim.robustness.failed_queries,
        QUERIES as u64,
        "simulator lost queries under drift + ejection"
    );
    assert!(sim.health.ejections > 0, "simulator never ejected");
    assert!(sim.health.rerouted_tasks > 0, "simulator never rerouted");
    assert_eq!(sim.server_health.len(), 32);

    // The identical drifted SimInput drives both runtimes: per-class
    // completed counts agree one for one (placement may differ — diversion
    // reacts to each runtime's own observed times — but completion
    // accounting may not).
    for class in 0..3u8 {
        let s = sim
            .query_latency_by_class
            .get(&class)
            .map_or(0, tailguard_repro::metrics::LatencyReservoir::len);
        let t = tb
            .latency_by_class
            .get(&class)
            .map_or(0, tailguard_repro::metrics::LatencyReservoir::len);
        assert_eq!(s, t, "class {class}: sim completed {s}, testbed {t}");
    }
}

#[test]
fn same_admission_config_rejects_on_both_runtimes() {
    // One AdmissionConfig value flows to both drivers unchanged (the
    // testbed rescales only the window into its compressed clock): the
    // same time-window variant with the same thresholds must trip
    // rejection on both sides at 140 % offered load, and both sides must
    // conserve queries exactly.
    let load = 1.4;
    let admission = AdmissionConfig::new(SimDuration::from_millis(20_000), 0.02);

    let mut tb_cfg = testbed_config(load, QUERIES);
    tb_cfg.admission = Some(admission);
    let tb = run_testbed(&tb_cfg);
    assert!(tb.rejected_queries > 0, "testbed never rejected");
    assert_eq!(tb.completed_queries + tb.rejected_queries, QUERIES as u64);

    let scenario = scenarios::sas_testbed();
    let cfg = scenario
        .config(Policy::TfEdf)
        .with_warmup(0)
        .with_admission(admission);
    let input = scenario.input(load, QUERIES);
    let sim = run_simulation(&cfg, &input);
    assert!(sim.rejected_queries > 0, "simulator never rejected");
    assert_eq!(
        sim.completed_queries + sim.rejected_queries,
        QUERIES as u64,
        "simulator lost queries"
    );
    assert_eq!(
        sim.load.queries_offered_count(),
        sim.load.queries_accepted_count() + sim.rejected_queries
    );
    assert!(sim.rejected_load() > 0.0);
}
