//! Gray-failure resilience under non-stationary load: the data behind
//! `BENCH_drift.json` at the repository root.
//!
//! The scenario is the paper's single-class Masstree cluster with a
//! diurnal load curve on top, except a tenth of the servers *degrade
//! gradually* partway through the run — a `DegradeRamp` episode ramps
//! their service times toward a peak slowdown, then a persistent
//! `Slowdown` holds them there (the classic gray failure: no crash, no
//! NACK, just creeping latency). Each degraded server's utilization
//! crosses 1, so its queue grows without bound and the class p99 blows
//! through the SLO.
//!
//! The cells compare the three responses, measured strictly *after* the
//! degradation is in full effect (warm-up discards the first half of the
//! run):
//!
//! * `static` — the online estimator keeps its cumulative CDFs: stamped
//!   budgets still reflect the healthy cluster, and tasks keep landing on
//!   the degraded servers.
//! * `adaptive` — windowed/decayed CDFs re-converge on the degraded
//!   service times, so deadlines become honest again — but placement is
//!   unchanged, so the degraded queues still diverge.
//! * `adaptive_ejection` — health-tracked ejection diverts arrivals off
//!   the outlier servers (recovery probes keep checking on them), and the
//!   adaptive estimator re-converges on the healthy remainder: the class
//!   re-attains its SLO.
//!
//! Run with `cargo bench --bench drift_resilience`. Knobs:
//! `TG_BENCH_SCALE` scales the query count, `TG_JOBS` caps the parallel
//! worker count. Results are bit-identical for any `TG_JOBS` value.

use tailguard::{
    run_indexed, run_simulation, scenarios, AdaptiveWindow, DriftKind, DriftPlan, EstimatorMode,
    FaultEpisode, FaultKind, FaultPlan, HealthConfig, Scenario,
};
use tailguard_bench::{header, jobs, scaled, FigureCsv};
use tailguard_policy::Policy;
use tailguard_simcore::{SimDuration, SimTime};
use tailguard_workload::{FanoutDist, QueryMix, TailbenchWorkload};

/// The headline SLO: class-0 p99 must stay under 5 ms.
const SLO_MS: f64 = 5.0;
const LOAD: f64 = 0.4;
const FANOUT: u32 = 10;
const SERVERS: usize = 100;
/// Servers that turn gray.
const DEGRADED: u32 = 10;
/// Peak service-time multiplier of the degraded servers. At 40% load a
/// degraded server runs at 0.4 × 8 = 3.2 offered utilization — its queue
/// diverges unless arrivals are diverted elsewhere.
const PEAK: f64 = 8.0;

fn scenario() -> Scenario {
    let mut s = scenarios::single_class(TailbenchWorkload::Masstree, SLO_MS, SERVERS);
    s.mix = QueryMix::single(FanoutDist::fixed(FANOUT));
    s
}

/// ~22 queries/ms arrive at 40% load (see `fault_recovery`), so size all
/// drift/fault windows to the scaled run length.
fn horizon_ms(queries: usize) -> f64 {
    (queries as f64 / 22.0).max(200.0)
}

/// The gray failure: servers `0..DEGRADED` ramp from healthy to `PEAK`×
/// over `[0.25, 0.40)` of the horizon, then hold `PEAK`× for the rest of
/// the run.
fn gray_failure(queries: usize) -> FaultPlan {
    let h = horizon_ms(queries);
    let ramp_start = SimTime::from_millis_f64(h * 0.25);
    let ramp_end = SimTime::from_millis_f64(h * 0.40);
    let far = SimTime::from_millis_f64(h * 100.0);
    (0..DEGRADED)
        .flat_map(|server| {
            [
                FaultEpisode::new(
                    server,
                    ramp_start,
                    ramp_end,
                    FaultKind::DegradeRamp { peak: PEAK },
                ),
                FaultEpisode::new(server, ramp_end, far, FaultKind::Slowdown { factor: PEAK }),
            ]
        })
        .collect()
}

/// A mild diurnal load curve shared by every cell, so the comparison runs
/// under non-stationary arrivals rather than a convenient constant rate.
fn diurnal(queries: usize) -> DriftPlan {
    DriftPlan::new(vec![DriftKind::Diurnal {
        period: SimDuration::from_millis_f64(horizon_ms(queries) / 2.0),
        amplitude: 0.25,
    }])
}

struct Cell {
    label: &'static str,
    p99_ms: f64,
    completed: u64,
    ejections: u64,
    readmissions: u64,
    probes: u64,
    rerouted: u64,
    window_rolls: u64,
}

fn repo_root() -> std::path::PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    cwd.ancestors()
        .find(|a| a.join("Cargo.toml").exists() && a.join("crates").exists())
        .map(std::path::Path::to_path_buf)
        .unwrap_or(cwd)
}

fn main() {
    header(
        "drift_resilience",
        "gray failures (beyond-paper)",
        "post-onset p99 vs SLO when a tenth of the cluster degrades: static vs adaptive vs adaptive + health ejection",
    );
    let queries = scaled(20_000);
    let scenario = scenario().with_drift(diurnal(queries));
    let adaptive = AdaptiveWindow::new(20_000, 0.25);
    // (label, faulted, adaptive estimator, health ejection)
    let cells: Vec<(&'static str, bool, bool, bool)> = vec![
        ("healthy", false, false, false),
        ("static", true, false, false),
        ("adaptive", true, true, false),
        ("adaptive_ejection", true, true, true),
    ];
    let results: Vec<Cell> = run_indexed(&cells, jobs(), |_, &(label, faulted, adapt, eject)| {
        let input = scenario.input(LOAD, queries);
        // Measure strictly post-onset: the first half of the run (the
        // healthy prefix, the ramp, and the adaptation transient) is
        // warm-up; recorded latencies come from the degraded steady state.
        let mut config = scenario
            .config(Policy::TfEdf)
            .with_warmup(queries / 2)
            .with_estimator(EstimatorMode::Online {
                refresh_every: 2_000,
                offline_samples: 2_000,
            });
        if faulted {
            config = config.with_faults(gray_failure(queries));
        }
        if adapt {
            config = config.with_adaptive(adaptive);
        }
        if eject {
            config = config.with_health(HealthConfig::new());
        }
        let mut report = run_simulation(&config, &input);
        Cell {
            label,
            p99_ms: report.class_tail(0, 0.99).as_millis_f64(),
            completed: report.completed_queries,
            ejections: report.health.ejections,
            readmissions: report.health.readmissions,
            probes: report.health.probes,
            rerouted: report.health.rerouted_tasks,
            window_rolls: report.estimator_window_rolls,
        }
    });

    let mut csv = FigureCsv::create(
        "bench_drift_resilience",
        &[
            "cell",
            "p99_ms",
            "completed",
            "ejections",
            "readmissions",
            "probes",
            "rerouted",
            "window_rolls",
        ],
    );
    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>9} {:>9}  (SLO p99 = {SLO_MS} ms post-onset, {} queries/cell)",
        "cell", "p99(ms)", "completed", "ejections", "rerouted", "rolls", queries
    );
    for c in &results {
        let verdict = if c.p99_ms <= SLO_MS { "ok" } else { "VIOLATED" };
        println!(
            "{:<20} {:>10.3} {:>10} {:>10} {:>9} {:>9}  {}",
            c.label, c.p99_ms, c.completed, c.ejections, c.rerouted, c.window_rolls, verdict
        );
        csv.labeled_row(
            c.label,
            &[
                c.p99_ms,
                c.completed as f64,
                c.ejections as f64,
                c.readmissions as f64,
                c.probes as f64,
                c.rerouted as f64,
                c.window_rolls as f64,
            ],
        );
    }
    println!("csv: {}", csv.finish());

    let (healthy, stat, adapt, eject) = (&results[0], &results[1], &results[2], &results[3]);
    println!(
        "gray failure of {DEGRADED}/{SERVERS} servers at {PEAK}x: static p99 {:.3} ms vs \
         adaptive+ejection {:.3} ms (healthy {:.3} ms, SLO {SLO_MS} ms); \
         {} ejections, {} probes, {} window rolls",
        stat.p99_ms,
        eject.p99_ms,
        healthy.p99_ms,
        eject.ejections,
        eject.probes,
        eject.window_rolls
    );

    // Machine-readable record at the repo root.
    let mut rows = String::new();
    for c in &results {
        rows.push_str(&format!(
            "    {{\"cell\": \"{}\", \"p99_ms\": {:.6}, \"meets_slo\": {}, \"completed\": {}, \"ejections\": {}, \"readmissions\": {}, \"probes\": {}, \"rerouted_tasks\": {}, \"window_rolls\": {}}},\n",
            c.label,
            c.p99_ms,
            c.p99_ms <= SLO_MS,
            c.completed,
            c.ejections,
            c.readmissions,
            c.probes,
            c.rerouted,
            c.window_rolls
        ));
    }
    rows.pop();
    rows.pop(); // trailing ",\n"
    let json = format!(
        "{{\n  \"bench\": \"drift_resilience\",\n  \"scenario\": {{\"workload\": \"masstree\", \"servers\": {SERVERS}, \"fanout\": {FANOUT}, \"slo_p99_ms\": {SLO_MS}, \"load\": {LOAD}, \"diurnal_amplitude\": 0.25}},\n  \"gray_failure\": {{\"degraded_servers\": {DEGRADED}, \"peak_slowdown\": {PEAK}, \"onset_frac\": 0.25, \"full_effect_frac\": 0.40}},\n  \"queries_per_cell\": {queries},\n  \"claim\": {{\"static_p99_ms\": {:.6}, \"static_meets_slo\": {}, \"adaptive_p99_ms\": {:.6}, \"ejection_p99_ms\": {:.6}, \"ejection_meets_slo\": {}, \"healthy_p99_ms\": {:.6}, \"ejections\": {}, \"recovery_probes\": {}}},\n  \"cells\": [\n{rows}\n  ]\n}}\n",
        stat.p99_ms,
        stat.p99_ms <= SLO_MS,
        adapt.p99_ms,
        eject.p99_ms,
        eject.p99_ms <= SLO_MS,
        healthy.p99_ms,
        eject.ejections,
        eject.probes
    );
    let path = repo_root().join("BENCH_drift.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
