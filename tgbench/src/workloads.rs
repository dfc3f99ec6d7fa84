//! The six workloads. Each is a fixed scenario plus a query count; the
//! only run-to-run input is `--seed`, which becomes `Scenario::seed` (and
//! the fault-plan / testbed seed), so the program only ever sees the
//! generated `SimInput` / `FaultPlan`.

use tailguard::{
    scenarios, AdaptiveWindow, AdmissionConfig, EstimatorMode, FaultPlan, HealthConfig,
    MaxLoadOptions, MitigationConfig, Scenario, SimConfig, SimInput,
};
use tailguard_policy::Policy;
use tailguard_simcore::SimDuration;
use tailguard_testbed::{TestbedConfig, TestbedMode};
use tailguard_workload::{ArrivalProcess, FanoutDist, QueryMix, TailbenchWorkload};

/// `--quick` shrinks every query count to this share (a smoke pass, not a
/// measurement).
pub const QUICK_SCALE: f64 = 0.02;

/// The simulated workloads' variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    Steady,
    Overload,
    Storm,
    Observed,
}

/// What a workload name selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sim(SimKind),
    MaxLoad,
    Testbed,
}

impl Workload {
    /// Resolves a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "sim_steady" => Workload::Sim(SimKind::Steady),
            "sim_overload" => Workload::Sim(SimKind::Overload),
            "sim_storm" => Workload::Sim(SimKind::Storm),
            "sim_observed" => Workload::Sim(SimKind::Observed),
            "maxload_search" => Workload::MaxLoad,
            "testbed_live" => Workload::Testbed,
            _ => return None,
        })
    }
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(200)
}

// --- simulated workloads ---------------------------------------------------

/// Everything `run_simulation*` needs for one simulated workload.
pub struct SimCase {
    pub scenario: Scenario,
    pub load: f64,
    pub config: SimConfig,
    pub input: SimInput,
}

impl SimCase {
    pub fn queries(&self) -> usize {
        self.input.query_count()
    }
}

/// Admission control for `sim_overload`, pinned from one Fig. 7
/// calibration (`fig7_admission_control` at this commit: maximum
/// acceptable load 54.8 %, task deadline-miss ratio there 0.68 %). The
/// window is ~30 queries' worth of time at that load, `R_th` is 80 % of
/// the boundary miss ratio, and admission resumes at 30 % of `R_th`.
/// Constants, never recalibrated per run: recalibrating would let a
/// scheduling change hide behind a moved threshold.
fn overload_admission() -> AdmissionConfig {
    AdmissionConfig::new(SimDuration::from_millis_f64(9.6), 0.0054).with_resume_threshold(0.00162)
}

/// `fault_recovery`'s storm density: 3 episodes per 1000 queries, mean
/// 10 ms, over the run's expected length (~22 queries/ms at this load).
fn crash_storm(seed: u64, queries: usize) -> FaultPlan {
    let horizon_ms = (queries as f64 / 22.0).max(100.0);
    FaultPlan::generate_crash_storm(
        seed ^ 0x5707,
        100,
        SimDuration::from_millis_f64(horizon_ms),
        queries * 3 / 1000,
        10.0,
    )
}

fn sim_scenario(kind: SimKind, seed: u64) -> (Scenario, f64, usize) {
    let masstree = TailbenchWorkload::Masstree;
    let (mut scenario, load, queries) = match kind {
        SimKind::Steady => (scenarios::single_class(masstree, 1.0, 100), 0.5, 1_000_000),
        SimKind::Observed => (scenarios::single_class(masstree, 1.0, 100), 0.5, 500_000),
        SimKind::Overload => {
            let (hi, lo) = scenarios::fig6_slos(masstree);
            (scenarios::oldi_two_class(masstree, hi, lo), 0.70, 60_000)
        }
        SimKind::Storm => {
            let mut s = scenarios::single_class(masstree, 5.0, 100);
            s.mix = QueryMix::single(FanoutDist::fixed(10));
            (s, 0.4, 100_000)
        }
    };
    scenario.seed = seed;
    (scenario, load, queries)
}

/// Builds scenario, input and config for a simulated workload — the work
/// `setup_s` times (together with the cold estimator budgets).
pub fn sim_case(kind: SimKind, seed: u64, scale: f64) -> SimCase {
    let (scenario, load, base) = sim_scenario(kind, seed);
    let queries = scaled(base, scale);
    let input = scenario.input(load, queries);
    let mut config = scenario.config(Policy::TfEdf).with_warmup(queries / 20);
    match kind {
        SimKind::Steady | SimKind::Observed => {}
        SimKind::Overload => config = config.with_admission(overload_admission()),
        SimKind::Storm => {
            config = config
                .with_faults(crash_storm(seed, queries))
                .with_lease(SimDuration::from_millis(1))
                .with_mitigation(MitigationConfig::new().with_hedge_after(0.5))
                .with_health(HealthConfig::new())
                .with_adaptive(AdaptiveWindow::new(10_000, 0.5))
                .with_estimator(EstimatorMode::online_default());
        }
    }
    SimCase {
        scenario,
        load,
        config,
        input,
    }
}

/// Options of every max-load search the benchmark runs: the paper's
/// brackets and warm-up, tolerance 0.01, `queries` per probe.
pub fn search_opts(queries: usize) -> MaxLoadOptions {
    MaxLoadOptions {
        queries,
        tolerance: 0.01,
        ..MaxLoadOptions::default()
    }
}

/// Queries per probe of the untimed TF-EDFQ max-load search that gives
/// every simulated workload its `max_load` (fewer on the fanout-100 OLDI
/// scenario, where a probe costs 100 tasks per query).
pub fn capacity_probe_queries(kind: SimKind, scale: f64) -> usize {
    let base = match kind {
        SimKind::Overload => 10_000,
        _ => 100_000,
    };
    scaled(base, scale)
}

// --- max-load search ---------------------------------------------------------

/// The Fig. 5 search: four policies, two classes.
pub struct MaxLoadCase {
    pub scenario: Scenario,
    pub opts: MaxLoadOptions,
    pub jobs: usize,
}

pub fn maxload_case(seed: u64, scale: f64) -> MaxLoadCase {
    let mut scenario = scenarios::two_class(
        TailbenchWorkload::Masstree,
        1.0,
        ArrivalProcess::poisson(1.0),
    );
    scenario.seed = seed;
    MaxLoadCase {
        scenario,
        opts: search_opts(scaled(100_000, scale)),
        jobs: tailguard::default_jobs().min(4),
    }
}

/// Simulations one `max_load` call ran, from its result (the search does
/// not report it): one probe when the upper bracket passes, otherwise both
/// brackets plus the bisection steps.
pub fn maxload_probes(result: f64, opts: &MaxLoadOptions) -> u64 {
    if result >= opts.hi {
        return 1;
    }
    let (mut width, mut steps) = (opts.hi - opts.lo, 0);
    while width > opts.tolerance {
        width *= 0.5;
        steps += 1;
    }
    2 + steps
}

// --- live testbed ------------------------------------------------------------

/// Offered load and time compression of `testbed_live`.
pub const TESTBED_LOAD: f64 = 0.4;
pub const TESTBED_TIME_SCALE: f64 = 25.0;

/// The real-time tokio testbed, sized so its open-loop generator runs for
/// about `seconds` of wall time (the query count follows from the offered
/// rate). Calibration uses 20 probes per node, as the testbed's own tests
/// do, not the default 40: it is paid once per run and `testbed_live`
/// makes several. `--quick` trims it and the sensor stores further.
pub fn testbed_config(seed: u64, seconds: f64, scale: f64) -> TestbedConfig {
    let per_wall_s =
        scenarios::sas_testbed().rate_for_load(TESTBED_LOAD) * 1000.0 * TESTBED_TIME_SCALE;
    let defaults = TestbedConfig::default();
    let quick = scale < 1.0;
    TestbedConfig {
        policy: Policy::TfEdf,
        queries: ((per_wall_s * seconds) as usize).max(100),
        target_load: TESTBED_LOAD,
        time_scale: TESTBED_TIME_SCALE,
        calibration_probes: if quick { 4 } else { 20 },
        store_days: if quick { 35 } else { defaults.store_days },
        mode: TestbedMode::RealTime,
        seed,
        ..defaults
    }
}
