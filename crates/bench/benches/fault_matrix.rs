//! Robustness under a standard slowdown episode: every queuing policy runs
//! healthy, under the fault, and under the fault with deadline-aware
//! hedging — the data behind `BENCH_faults.json` at the repository root.
//!
//! The episode: 10 of 100 servers serve at 8× their calibrated service
//! time for the whole run (a degraded-rack scenario — at 40% offered load
//! the slowed servers saturate, so unmitigated tails explode). Mitigation
//! hedges a task to the least-loaded backup once half its Eq. 6 queuing
//! budget has elapsed and takes the first completion.
//!
//! Run with `cargo bench --bench fault_matrix`. Knobs: `TG_BENCH_SCALE`
//! scales the query count, `TG_JOBS` caps the parallel worker count.
//! Results are bit-identical for any `TG_JOBS` value.

use tailguard::{
    run_indexed, run_simulation, scenarios, FaultEpisode, FaultKind, FaultPlan, MitigationConfig,
    Scenario,
};
use tailguard_bench::{header, jobs, scaled, FigureCsv};
use tailguard_policy::Policy;
use tailguard_simcore::SimTime;
use tailguard_workload::{FanoutDist, QueryMix, TailbenchWorkload};

/// The headline SLO: class-0 p99 must stay under 5 ms.
const SLO_MS: f64 = 5.0;
const LOAD: f64 = 0.4;
const FANOUT: u32 = 10;
const SLOW_SERVERS: u32 = 10;
const SLOW_FACTOR: f64 = 8.0;

fn scenario() -> Scenario {
    let mut s = scenarios::single_class(TailbenchWorkload::Masstree, SLO_MS, 100);
    // Fixed fanout keeps every query exposed to the slow rack with the
    // same probability, which makes the p99 shift interpretable.
    s.mix = QueryMix::single(FanoutDist::fixed(FANOUT));
    s
}

fn plan() -> FaultPlan {
    (0..SLOW_SERVERS)
        .map(|server| {
            FaultEpisode::new(
                server,
                SimTime::ZERO,
                SimTime::from_millis(3_600_000), // whole run
                FaultKind::Slowdown {
                    factor: SLOW_FACTOR,
                },
            )
        })
        .collect()
}

fn mitigation() -> MitigationConfig {
    MitigationConfig::new().with_hedge_after(0.5)
}

struct Cell {
    policy: Policy,
    mode: &'static str,
    p99_ms: f64,
    completed: u64,
    partial: u64,
    failed: u64,
    lost: u64,
    hedges: u64,
    hedge_wins: u64,
    retries: u64,
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
        "fault_matrix",
        "robustness (beyond-paper)",
        "p99 under a 10-server 8x slowdown episode: healthy vs faulty vs hedged, per policy",
    );
    let queries = scaled(20_000);
    let scenario = scenario();
    let plan = plan();
    let policies = [Policy::Fifo, Policy::Priq, Policy::TEdf, Policy::TfEdf];
    const MODES: [&str; 3] = ["healthy", "faulty", "mitigated"];
    let cells: Vec<(Policy, usize)> = policies
        .iter()
        .flat_map(|&p| (0..MODES.len()).map(move |m| (p, m)))
        .collect();
    let results: Vec<Cell> = run_indexed(&cells, jobs(), |_, &(policy, mode)| {
        let input = scenario.input(LOAD, queries);
        let mut config = scenario.config(policy).with_warmup(queries / 20);
        if mode >= 1 {
            config = config.with_faults(plan.clone());
        }
        if mode == 2 {
            config = config.with_mitigation(mitigation());
        }
        let mut report = run_simulation(&config, &input);
        let r = report.robustness.clone();
        Cell {
            policy,
            mode: MODES[mode],
            p99_ms: report.class_tail(0, 0.99).as_millis_f64(),
            completed: report.completed_queries,
            partial: r.partial_completions,
            failed: r.failed_queries,
            lost: r.tasks_lost_to_faults,
            hedges: r.hedges_issued,
            hedge_wins: r.hedge_wins,
            retries: r.retries,
        }
    });

    let mut csv = FigureCsv::create(
        "bench_fault_matrix",
        &[
            "cell",
            "p99_ms",
            "completed",
            "partial",
            "failed",
            "lost",
            "hedges",
            "hedge_wins",
            "retries",
        ],
    );
    println!(
        "{:<10} {:<9} {:>10}  (SLO p99 = {SLO_MS} ms at {}% load, {} queries/cell)",
        "policy",
        "mode",
        "p99(ms)",
        LOAD * 100.0,
        queries
    );
    for c in &results {
        let verdict = if c.p99_ms <= SLO_MS { "ok" } else { "VIOLATED" };
        println!(
            "{:<10} {:<9} {:>10.3}  {}",
            c.policy.name(),
            c.mode,
            c.p99_ms,
            verdict
        );
        csv.labeled_row(
            &format!("{}/{}", c.policy.name(), c.mode),
            &[
                c.p99_ms,
                c.completed as f64,
                c.partial as f64,
                c.failed as f64,
                c.lost as f64,
                c.hedges as f64,
                c.hedge_wins as f64,
                c.retries as f64,
            ],
        );
    }
    println!("csv: {}", csv.finish());

    let find = |policy: Policy, mode: &str| {
        results
            .iter()
            .find(|c| c.policy == policy && c.mode == mode)
            .expect("cell present")
    };
    let faulty = find(Policy::TfEdf, "faulty");
    let mitigated = find(Policy::TfEdf, "mitigated");
    println!(
        "TF-EDFQ under the episode: p99 {:.3} ms unmitigated vs {:.3} ms hedged (SLO {SLO_MS} ms)",
        faulty.p99_ms, mitigated.p99_ms
    );

    // Machine-readable record at the repo root.
    let mut rows = String::new();
    for c in &results {
        rows.push_str(&format!(
            "    {{\"policy\": \"{}\", \"mode\": \"{}\", \"p99_ms\": {:.6}, \"completed\": {}, \"partial\": {}, \"failed\": {}, \"tasks_lost\": {}, \"hedges_issued\": {}, \"hedge_wins\": {}, \"retries\": {}}},\n",
            c.policy.name(),
            c.mode,
            c.p99_ms,
            c.completed,
            c.partial,
            c.failed,
            c.lost,
            c.hedges,
            c.hedge_wins,
            c.retries
        ));
    }
    rows.pop();
    rows.pop(); // trailing ",\n"
    let json = format!(
        "{{\n  \"bench\": \"fault_matrix\",\n  \"scenario\": {{\"workload\": \"masstree\", \"servers\": 100, \"fanout\": {FANOUT}, \"slo_p99_ms\": {SLO_MS}, \"load\": {LOAD}}},\n  \"fault\": {{\"kind\": \"slowdown\", \"factor\": {SLOW_FACTOR}, \"servers\": {SLOW_SERVERS}, \"whole_run\": true}},\n  \"mitigation\": {{\"hedge_after\": 0.5, \"max_attempts\": 2}},\n  \"queries_per_cell\": {queries},\n  \"claim\": {{\"tfedf_faulty_p99_ms\": {:.6}, \"tfedf_mitigated_p99_ms\": {:.6}, \"faulty_meets_slo\": {}, \"mitigated_meets_slo\": {}}},\n  \"cells\": [\n{rows}\n  ]\n}}\n",
        faulty.p99_ms,
        mitigated.p99_ms,
        faulty.p99_ms <= SLO_MS,
        mitigated.p99_ms <= SLO_MS
    );
    let path = repo_root().join("BENCH_faults.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
