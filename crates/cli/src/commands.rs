//! CLI subcommand implementations.
//!
//! Every command is a pure function from parsed [`Args`] to a printable
//! `String`, so the full surface is unit-testable without spawning
//! processes. Each command reads the options its mode uses through typed
//! [`Args`] accessors, then calls [`Args::finish`], which rejects every
//! option it did not read, before any simulation, calibration or trace
//! draw starts.

use crate::args::{self, ArgError, Args};
use serde::Serialize;
use std::collections::BTreeMap;
use std::ops::Bound::{self, Excluded, Included};
use tailguard::{
    default_jobs, max_load_many, run_indexed, run_simulation, run_simulation_observed, scenarios,
    sweep_loads, AdmissionConfig, ClassSpec, ClusterSpec, DriftKind, DriftPlan, EstimatorMode,
    FaultEpisode, FaultKind, FaultPlan, MaxLoadOptions, MitigationConfig, ObsOptions, Scenario,
    SimConfig, SimInput, SimReport,
};
use tailguard_dist::{Cdf, LogHistogram, PiecewiseQuantile};
use tailguard_obs::{
    build_timelines, events_to_csv, events_to_jsonl, miss_ratio_timeline, server_transitions,
    slack_by_type, slowest_queries, QueryTimeline, Registry, SloSnapshot,
};
use tailguard_policy::Policy;
use tailguard_simcore::{SimDuration, SimTime};
use tailguard_testbed::{run_testbed, TestbedConfig, TestbedMode, HISTORY_DAYS};
use tailguard_workload::{ArrivalProcess, FanoutDist, QueryMix, TailbenchWorkload, Trace};

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

/// The offered loads the simulator accepts: (0, 1.5].
const LOAD_RANGE: (Bound<f64>, Bound<f64>) = (Excluded(0.0), Included(1.5));

/// The open unit interval (0, 1), for ratios and attainment targets.
const OPEN_UNIT: (Bound<f64>, Bound<f64>) = (Excluded(0.0), Excluded(1.0));

/// A nonzero share of a whole, (0, 1].
const SHARE: (Bound<f64>, Bound<f64>) = (Excluded(0.0), Included(1.0));

/// Worker-thread count for parallel commands: `--jobs N`, defaulting to the
/// machine's available parallelism. `--jobs 1` forces the serial path
/// (results are bit-identical either way).
fn jobs_from(args: &Args) -> Result<usize, ArgError> {
    args.count("jobs", default_jobs(), 1..)
}

/// The run length: `--queries`, at least 1.
fn queries_from(args: &Args, default: usize) -> Result<usize, ArgError> {
    args.count("queries", default, 1..)
}

/// The offered load of a single run: `--load`, 0.4 by default.
fn load_from(args: &Args) -> Result<f64, ArgError> {
    args.real_in("load", 0.4, LOAD_RANGE)
}

/// The cluster size: `--servers`, 100 by default.
fn servers_from(args: &Args) -> Result<u32, ArgError> {
    args.count("servers", 100, 1..)
}

pub(crate) fn workload_from(name: &str) -> Result<TailbenchWorkload, ArgError> {
    match name.to_ascii_lowercase().as_str() {
        "masstree" => Ok(TailbenchWorkload::Masstree),
        "shore" => Ok(TailbenchWorkload::Shore),
        "xapian" => Ok(TailbenchWorkload::Xapian),
        other => Err(err(format!(
            "unknown workload `{other}` (expected masstree|shore|xapian)"
        ))),
    }
}

pub(crate) fn policy_from(name: &str) -> Result<Policy, ArgError> {
    match name.to_ascii_lowercase().as_str() {
        "fifo" => Ok(Policy::Fifo),
        "priq" => Ok(Policy::Priq),
        "tedf" | "t-edf" | "t-edfq" => Ok(Policy::TEdf),
        "tfedf" | "tf-edf" | "tf-edfq" | "tailguard" => Ok(Policy::TfEdf),
        "sjf" => Ok(Policy::Sjf),
        other => Err(err(format!(
            "unknown policy `{other}` (expected fifo|priq|tedf|tfedf|sjf)"
        ))),
    }
}

fn policies_from(arg: Option<&str>) -> Result<Vec<Policy>, ArgError> {
    match arg {
        None | Some("all") => Ok(Policy::ALL.to_vec()),
        Some(list) => list.split(',').map(|p| policy_from(p.trim())).collect(),
    }
}

/// The fanout model, `--fanout`; the models that depend on the cluster
/// size read `--servers`.
fn fanout_from(args: &Args) -> Result<FanoutDist, ArgError> {
    match args.get_or("fanout", "paper") {
        "paper" => Ok(FanoutDist::paper_mix()),
        "oldi" => Ok(FanoutDist::fixed(servers_from(args)?)),
        "facebook" => Ok(FanoutDist::facebook_like(servers_from(args)?.min(300))),
        other => {
            if let Some(k) = other.strip_prefix("fixed:") {
                match k.parse::<u32>() {
                    Ok(0) => Err(err("--fanout fixed:<k> needs k ≥ 1")),
                    Ok(k) => Ok(FanoutDist::fixed(k)),
                    Err(_) => Err(err(format!("--fanout fixed:{k}: not an integer"))),
                }
            } else {
                Err(err(format!(
                    "unknown fanout model `{other}` (expected paper|oldi|facebook|fixed:<k>)"
                )))
            }
        }
    }
}

/// The fanouts `budgets` and `calibrate` tabulate: `--fanouts`, integers
/// ≥ 1, by default 1, 10 and 100.
fn fanouts_from(args: &Args) -> Result<Vec<u32>, ArgError> {
    args.counts("fanouts", &[1, 10, 100], 1..)
}

/// The per-class SLOs — `--slos a,b,…`, else `--slo` (1 ms) — as p99
/// classes, with their count.
fn classes_from(args: &Args) -> Result<(u8, Vec<ClassSpec>), ArgError> {
    let slos = if args.get("slos").is_some() {
        args.durations_ms("slos", &[])?
    } else {
        vec![args.duration_ms("slo", 1.0)?]
    };
    let n = u8::try_from(slos.len()).map_err(|_| err("--slos takes at most 255 classes"))?;
    Ok((n, slos.into_iter().map(ClassSpec::p99).collect()))
}

/// The arrival process, `--arrival poisson|pareto`, at `rate` queries/ms.
fn arrival_from(args: &Args, rate: f64) -> Result<ArrivalProcess, ArgError> {
    match args.get_or("arrival", "poisson") {
        "poisson" => Ok(ArrivalProcess::poisson(rate)),
        "pareto" => Ok(ArrivalProcess::pareto(rate)),
        other => Err(err(format!(
            "unknown arrival `{other}` (expected poisson|pareto)"
        ))),
    }
}

/// `--admission <window_ms>:<threshold>`: the §III.C window (a duration)
/// and miss-ratio threshold (in (0, 1)), resuming at 0.3× the threshold.
fn admission_from(arg: Option<&str>) -> Result<Option<AdmissionConfig>, ArgError> {
    let Some(spec) = arg else {
        return Ok(None);
    };
    let (w, t) = spec
        .split_once(':')
        .ok_or_else(|| err("--admission expects `<window_ms>:<threshold>`, e.g. 10:0.017"))?;
    let (wkey, tkey) = ("admission window", "admission threshold");
    let window = args::duration(wkey, args::number(wkey, w)?)?;
    let threshold = args::in_range(tkey, args::number(tkey, t)?, &OPEN_UNIT)?;
    Ok(Some(
        AdmissionConfig::new(window, threshold).with_resume_threshold(threshold * 0.3),
    ))
}

/// Builds a [`Scenario`] from the workload, cluster size, SLO, fanout,
/// arrival and seed options.
fn scenario_from(args: &Args) -> Result<Scenario, ArgError> {
    let workload = workload_from(args.get_or("workload", "masstree"))?;
    let servers = servers_from(args)?;
    let (class_count, classes) = classes_from(args)?;
    let fanout = fanout_from(args)?;
    if fanout.max_fanout() > servers {
        return Err(err(format!(
            "fanout {} exceeds --servers {servers}",
            fanout.max_fanout()
        )));
    }
    Ok(Scenario {
        label: format!("{workload} via CLI"),
        cluster: ClusterSpec::homogeneous(servers as usize, workload.service_dist()),
        classes,
        mix: QueryMix::equiprobable(class_count, fanout),
        arrival: arrival_from(args, 1.0)?,
        mean_task_work_ms: workload.mean_service_ms(),
        placement: None,
        seed: args.seed(1)?,
        drift: None,
    })
}

/// Builds the optional workload drift plan from `--drift diurnal|flashcrowd`.
///
/// `diurnal` modulates the arrival rate by `1 + a·sin(2πt/p)` with period
/// `--drift-period` (ms, default 5000) and amplitude `--drift-amplitude`
/// (default 0.25); `flashcrowd` multiplies the rate by `--drift-factor`
/// (default 2) inside [`--drift-from`, `--drift-to`) (ms, default
/// [1000, 5000)). Omitting `--drift` leaves the trace bit-identical to a
/// drift-free run.
fn drift_plan_from(args: &Args) -> Result<Option<DriftPlan>, ArgError> {
    let Some(kind) = args.get("drift") else {
        return Ok(None);
    };
    let component = match kind {
        "diurnal" => DriftKind::Diurnal {
            period: args.duration_ms("drift-period", 5_000.0)?,
            amplitude: args.real_in("drift-amplitude", 0.25, 0.0..1.0)?,
        },
        "flashcrowd" => {
            let start = args.time_ms("drift-from", 1_000.0)?;
            let end = args.time_ms("drift-to", 5_000.0)?;
            if end <= start {
                return Err(err("--drift-from/--drift-to need 0 <= from < to (ms)"));
            }
            DriftKind::FlashCrowd {
                start,
                end,
                factor: args.positive("drift-factor", 2.0)?,
            }
        }
        other => {
            return Err(err(format!(
                "unknown drift `{other}` (expected diurnal|flashcrowd)"
            )))
        }
    };
    Ok(Some(DriftPlan::new(vec![component])))
}

/// One simulation at one load, as `sim`, `trace` and `slo` set it up.
struct Run {
    scenario: Scenario,
    policy: Policy,
    load: f64,
    queries: usize,
    config: SimConfig,
}

/// Reads the options of one run of `scenario`: policy, load, length,
/// admission and estimator. The report discards a twentieth of the run as
/// warm-up unless [`Run::read_warmup`] reads `--warmup`.
fn run_from(args: &Args, scenario: Scenario, default_queries: usize) -> Result<Run, ArgError> {
    let policy = policy_from(args.get_or("policy", "tfedf"))?;
    let load = load_from(args)?;
    let queries = queries_from(args, default_queries)?;
    let mut config = scenario.config(policy).with_warmup(queries / 20);
    if let Some(adm) = admission_from(args.get("admission"))? {
        config = config.with_admission(adm);
    }
    if args.flag("online") {
        config = config.with_estimator(EstimatorMode::online_default());
    }
    Ok(Run {
        scenario,
        policy,
        load,
        queries,
        config,
    })
}

impl Run {
    /// Reads `--warmup`. Only the report and the metrics derived from it
    /// discard warm-up queries, so only outputs that print them read it.
    fn read_warmup(mut self, args: &Args) -> Result<Run, ArgError> {
        let warmup = args.count("warmup", self.queries / 20, 0..)?;
        self.config = self.config.with_warmup(warmup);
        Ok(self)
    }

    /// The run's workload, drawn from the scenario.
    fn input(&self) -> SimInput {
        self.scenario.input(self.load, self.queries)
    }
}

#[derive(Serialize)]
struct SimSummary {
    policy: String,
    offered_load: f64,
    measured_load: f64,
    rejected_load: f64,
    deadline_miss_ratio: f64,
    completed_queries: u64,
    rejected_queries: u64,
    meets_all_slos: bool,
    class_p99_ms: Vec<f64>,
    /// Uniformly named observability metrics — the same `tailguard_*`
    /// names the testbed serves on `/metrics` (counters as integers,
    /// gauges as floats); DESIGN.md §12 documents the naming scheme.
    /// Includes the estimator counters (`tailguard_estimator_*`) and the
    /// mitigation counters (`tailguard_mitigation_*`).
    metrics: BTreeMap<String, serde_json::Value>,
    /// The SLO monitor's sealed state (attainment, burn rates, alerts)
    /// when the run was observed; absent on unobserved paths.
    slo: Option<SloSnapshot>,
}

fn summarize(report: &mut SimReport, offered: f64) -> SimSummary {
    let class_p99_ms = (0..report.classes.len() as u8)
        .map(|c| report.class_tail(c, 0.99).as_millis_f64())
        .collect();
    SimSummary {
        policy: report.policy.name().to_string(),
        offered_load: offered,
        measured_load: report.accepted_load(),
        rejected_load: report.rejected_load(),
        deadline_miss_ratio: report.deadline_miss_ratio(),
        completed_queries: report.completed_queries,
        rejected_queries: report.rejected_queries,
        meets_all_slos: report.meets_all_slos(),
        class_p99_ms,
        metrics: BTreeMap::new(),
        slo: None,
    }
}

/// Flattens a registry's counters and gauges into one `name -> value`
/// map under the exact names `/metrics` exposes, so JSON consumers and
/// Prometheus scrapers read the same schema.
fn uniform_metrics(registry: &Registry) -> BTreeMap<String, serde_json::Value> {
    let snap = registry.snapshot();
    let mut map = BTreeMap::new();
    for c in snap.counters {
        map.insert(c.name, serde_json::Value::U64(c.value));
    }
    for g in snap.gauges {
        map.insert(g.name, serde_json::Value::F64(g.value));
    }
    map
}

/// `tailguard sim` — run one simulation and report per-type tails.
pub fn cmd_sim(args: &Args) -> Result<String, ArgError> {
    let mut scenario = scenario_from(args)?;
    if let Some(drift) = drift_plan_from(args)? {
        scenario = scenario.with_drift(drift);
    }
    let sim = run_from(args, scenario, 100_000)?.read_warmup(args)?;
    let json = args.flag("json");
    args.finish()?;
    let input = sim.input();
    if json {
        // Observed run: same report (snapshot sampling only adds engine
        // events), plus the registry whose counters/gauges fill the
        // uniformly named `metrics` object.
        let run = run_simulation_observed(&sim.config, &input, &ObsOptions::default());
        let mut report = run.report;
        let mut summary = summarize(&mut report, sim.load);
        summary.metrics = uniform_metrics(&run.registry);
        summary.slo = Some(run.slo);
        serde_json::to_string_pretty(&summary).map_err(|e| err(e.to_string()))
    } else {
        let mut report = run_simulation(&sim.config, &input);
        Ok(format!(
            "{} @ offered load {:.1}%\n{}",
            sim.scenario.label,
            sim.load * 100.0,
            report.render_table()
        ))
    }
}

/// `tailguard maxload` — bisect for the max load meeting all SLOs.
///
/// With `--jobs N` (default: available parallelism) the per-policy
/// bisections run concurrently; results are identical to `--jobs 1`.
pub fn cmd_maxload(args: &Args) -> Result<String, ArgError> {
    let scenario = scenario_from(args)?;
    let policies = policies_from(args.get("policies"))?;
    let jobs = jobs_from(args)?;
    let opts = MaxLoadOptions {
        queries: queries_from(args, 100_000)?,
        tolerance: args.positive("tolerance", 0.01)?,
        ..MaxLoadOptions::default()
    };
    let json = args.flag("json");
    args.finish()?;
    let rows: Vec<(String, f64)> = max_load_many(&scenario, &policies, &opts, jobs)
        .into_iter()
        .map(|(policy, load)| (policy.name().to_string(), load))
        .collect();
    if json {
        let map: std::collections::BTreeMap<_, _> = rows.into_iter().collect();
        serde_json::to_string_pretty(&map).map_err(|e| err(e.to_string()))
    } else {
        let mut out = format!("{} — max load meeting all SLOs:\n", scenario.label);
        for (name, load) in rows {
            out.push_str(&format!("  {name:<10} {:>5.1}%\n", load * 100.0));
        }
        Ok(out)
    }
}

/// `tailguard sweep` — per-class p99 at a list of loads (Fig. 6 style),
/// with an ASCII chart of the curves against the tightest SLO.
///
/// With `--jobs N` (default: available parallelism) the load points run
/// concurrently; output is identical to `--jobs 1`.
pub fn cmd_sweep(args: &Args) -> Result<String, ArgError> {
    let scenario = scenario_from(args)?;
    let policy = policy_from(args.get_or("policy", "tfedf"))?;
    let jobs = jobs_from(args)?;
    let default_loads: Vec<f64> = (4..=12).map(|i| i as f64 * 0.05).collect();
    let loads = args.reals_in("loads", &default_loads, LOAD_RANGE)?;
    let opts = MaxLoadOptions {
        queries: queries_from(args, 40_000)?,
        ..MaxLoadOptions::default()
    };
    args.finish()?;
    let points = sweep_loads(&scenario, policy, &loads, &opts, jobs);
    let mut out = format!("{} under {policy}\n{:>8}", scenario.label, "load");
    for c in 0..scenario.classes.len() {
        out.push_str(&format!(" {:>14}", format!("class{c} p99(ms)")));
    }
    out.push_str("   SLOs\n");
    let mut per_class_series: Vec<Vec<f64>> = vec![Vec::new(); scenario.classes.len()];
    for point in &points {
        out.push_str(&format!("{:>7.0}%", point.load * 100.0));
        for c in 0..scenario.classes.len() as u8 {
            out.push_str(&format!(
                " {:>14.3}",
                point.tails_by_class[&c].as_millis_f64()
            ));
        }
        out.push_str(&format!(
            "   {}\n",
            if point.meets { "ok" } else { "VIOLATED" }
        ));
        per_class_series
            .iter_mut()
            .zip(0..scenario.classes.len() as u8)
            .for_each(|(series, c)| {
                series.push(point.tails_by_class[&c].as_millis_f64());
            });
    }
    let named: Vec<(String, Vec<f64>)> = per_class_series
        .into_iter()
        .enumerate()
        .map(|(c, ys)| (format!("class{c}"), ys))
        .collect();
    let named_refs: Vec<(&str, Vec<f64>)> = named
        .iter()
        .map(|(n, ys)| (n.as_str(), ys.clone()))
        .collect();
    let tightest_slo = scenario
        .classes
        .iter()
        .map(|c| c.slo.as_millis_f64())
        .fold(f64::INFINITY, f64::min);
    let xs: Vec<f64> = loads.iter().map(|l| l * 100.0).collect();
    out.push('\n');
    out.push_str(&crate::chart::ascii_chart(
        &xs,
        &named_refs,
        Some(tightest_slo),
        12,
    ));
    Ok(out)
}

/// `tailguard testbed` — run the tokio SaS testbed.
pub fn cmd_testbed(args: &Args) -> Result<String, ArgError> {
    let cfg = TestbedConfig {
        policy: policy_from(args.get_or("policy", "tfedf"))?,
        queries: queries_from(args, 2_000)?,
        target_load: load_from(args)?,
        time_scale: args.positive("scale", 25.0)?,
        calibration_probes: args.count("probes", 40, 0..)?,
        seed: args.seed(0x5A5_7E57)?,
        // The paper's eighteen months; the store's u32 minute stamps would
        // wrap long before u32::MAX days anyway.
        store_days: args.count("store-days", 90, 1..=HISTORY_DAYS as usize)?,
        mode: if args.flag("realtime") {
            TestbedMode::RealTime
        } else {
            TestbedMode::PausedTime
        },
        ..TestbedConfig::default()
    };
    args.finish()?;
    let mut report = run_testbed(&cfg);
    let mut out = format!(
        "SaS testbed, {} @ {:.0}% target load ({} queries)\n",
        report.policy,
        cfg.target_load * 100.0,
        report.completed_queries
    );
    out.push_str("per-cluster post-queuing (mean/p95/p99 ms, load):\n");
    for c in &report.clusters {
        out.push_str(&format!(
            "  {:<12} {:>6.0} {:>6.0} {:>6.0}  {:>5.1}%\n",
            c.name,
            c.mean_ms,
            c.p95_ms,
            c.p99_ms,
            c.load * 100.0
        ));
    }
    let slos = report.slos.clone();
    for class in 0..3u8 {
        out.push_str(&format!(
            "  class {} p99 {:>6.0} ms (SLO {:>5.0} ms)\n",
            (b'A' + class) as char,
            report.class_p99_ms(class),
            slos[class as usize].as_millis_f64()
        ));
    }
    Ok(out)
}

/// One `(policy, fault mode)` cell of the fault matrix.
#[derive(Serialize)]
struct FaultCell {
    policy: String,
    mode: &'static str,
    p99_ms: f64,
    miss_ratio: f64,
    /// Median of the dequeue-slack histogram (on-time attempts, ms),
    /// from the cell's flight recording.
    slack_p50_ms: f64,
    /// 99th percentile of the same histogram (ms).
    slack_p99_ms: f64,
    completed: u64,
    rejected: u64,
    partial: u64,
    failed: u64,
    tasks_lost: u64,
    hedges_issued: u64,
    hedge_wins: u64,
    retries: u64,
    /// Expired leases reclaimed (tasks re-enqueued after a crash swallowed
    /// them); zero unless the cell armed a lease.
    reclaims: u64,
    /// Redelivered results suppressed idempotently.
    dup_suppressed: u64,
}

/// Builds the injected fault plan from `--fault`, `--fault-from` and
/// `--fault-to` (ms): one episode on each of the first `--fault-servers`
/// servers or, for `--fault random`, `--episodes` episodes from
/// `FaultPlan::generate`. Slowdowns take `--factor`; so do the gray-failure
/// kinds: `--fault ramp` ramps toward `--factor`× across the episode, and
/// `--fault flap` alternates degraded and healthy phases each lasting
/// `--flap-period` (ms).
fn fault_plan_from(args: &Args, servers: u32, seed: u64) -> Result<FaultPlan, ArgError> {
    let start = args.time_ms("fault-from", 0.0)?;
    let end = args.time_ms("fault-to", 3_600_000.0)?;
    if end <= start {
        return Err(err("--fault-from/--fault-to need 0 <= from < to (ms)"));
    }
    let factor = || args.real_in("factor", 8.0, (Excluded(1.0), Excluded(f64::INFINITY)));
    let kind = match args.get_or("fault", "slowdown") {
        "random" => {
            let episodes = args.count("episodes", 10, 1..)?;
            let span_ms = end.as_millis_f64() - start.as_millis_f64();
            let mean_len = (span_ms / episodes as f64).max(1.0);
            return Ok(FaultPlan::generate(
                seed ^ 0xFA17,
                servers,
                end.saturating_since(SimTime::ZERO),
                episodes,
                mean_len,
            ));
        }
        "slowdown" => FaultKind::Slowdown { factor: factor()? },
        "stall" => FaultKind::Stall,
        "drop" => FaultKind::Drop,
        "crash" => FaultKind::Crash,
        "restart" => FaultKind::Restart,
        "dup" => FaultKind::DuplicateDelivery,
        // Gray failures: service times creep up toward `--factor`×
        // across the episode instead of jumping — the classic fail-slow.
        "ramp" => FaultKind::DegradeRamp { peak: factor()? },
        // Intermittent gray failure: the server alternates degraded
        // (`--factor`×) and healthy every `--flap-period` ms.
        "flap" => FaultKind::Flap {
            factor: factor()?,
            period: args.duration_ms("flap-period", 200.0)?,
        },
        other => {
            return Err(err(format!(
            "unknown fault kind `{other}` (expected slowdown|stall|drop|crash|restart|dup|ramp|flap|random)"
        )))
        }
    };
    let affected: u32 = args.count(
        "fault-servers",
        (servers as usize / 10).max(1),
        1..=servers as usize,
    )?;
    let mut plan = FaultPlan::new();
    for server in 0..affected {
        plan = plan.with_episode(FaultEpisode::new(server, start, end, kind));
    }
    Ok(plan)
}

/// `tailguard faults` — fault matrix × policy sweep: each policy runs
/// healthy, under the injected faults, and under faults + mitigation
/// (hedging/retry/optional partial quorum). Cells run `--jobs`-parallel;
/// output is bit-identical for any `--jobs` value.
pub fn cmd_faults(args: &Args) -> Result<String, ArgError> {
    let scenario = scenario_from(args)?;
    let policies = policies_from(args.get("policies"))?;
    let jobs = jobs_from(args)?;
    let load = load_from(args)?;
    let queries = queries_from(args, 10_000)?;
    let plan = fault_plan_from(args, servers_from(args)?, scenario.seed)?;
    // Crash/restart episodes swallow in-flight work silently (crash) or
    // lose it on landing (restart) — only a lease notices the former. The
    // faulty and mitigated cells arm one automatically for those kinds.
    // A lease must outlast the longest service a live task can take under
    // the plan, or the store reclaims and redispatches live tasks without
    // end. The default TTL is the widest class SLO (past it the query has
    // missed anyway, so reclaiming is free), or twice that longest service
    // where the SLO does not exceed it. `--lease-ms` overrides the default
    // and must exceed the longest service; `--lease-ms 0` keeps the
    // default.
    let lease_ms = args.real_in("lease-ms", 0.0, 0.0..f64::INFINITY)?;
    let given_ttl = if lease_ms > 0.0 {
        Some(args::duration("lease-ms", lease_ms)?)
    } else {
        None
    };
    let mut mitigation = MitigationConfig::new()
        .with_hedge_after(args.positive("hedge", 0.5)?)
        .with_max_attempts(args.count("attempts", 2, 1..)?);
    if args.get("quorum").is_some() {
        mitigation = mitigation.with_partial_quorum(args.real_in("quorum", 1.0, SHARE)?);
    }
    let json = args.flag("json");
    args.finish()?;
    let (service_ms, slowdown) = (scenario.cluster.max_service_ms(), plan.max_slowdown());
    let longest = SimDuration::from_millis_f64(service_ms * slowdown);
    let crashy = plan
        .episodes()
        .iter()
        .any(|e| matches!(e.kind, FaultKind::Crash | FaultKind::Restart));
    let lease_ttl = match given_ttl {
        Some(ttl) if ttl <= longest => {
            return Err(err(format!(
                "--lease-ms {lease_ms} must exceed {:.3} ms, the longest service a task can \
                 take under the fault plan ({service_ms} ms × slowdown {slowdown})",
                longest.as_millis_f64()
            )))
        }
        Some(ttl) => Some(ttl),
        None if crashy => scenario.classes.iter().map(|c| c.slo).max().map(|slo| {
            if slo > longest {
                slo
            } else {
                longest.mul_f64(2.0)
            }
        }),
        None => None,
    };

    const MODES: [&str; 3] = ["healthy", "faulty", "mitigated"];
    let cells: Vec<(Policy, usize)> = policies
        .iter()
        .flat_map(|&p| (0..MODES.len()).map(move |m| (p, m)))
        .collect();
    let warmup = queries / 20;
    let results: Vec<FaultCell> = run_indexed(&cells, jobs, |_, &(policy, mode)| {
        let input = scenario.input(load, queries);
        let mut config = scenario.config(policy).with_warmup(warmup);
        if mode >= 1 {
            config = config.with_faults(plan.clone());
            if let Some(ttl) = lease_ttl {
                config = config.with_lease(ttl);
            }
        }
        if mode == 2 {
            config = config.with_mitigation(mitigation);
        }
        // Observed run: the report is identical to an unobserved one
        // (only `events_processed` differs), and the registry's per-class
        // `tailguard_dequeue_slack_ms` histograms feed the slack column.
        let run = run_simulation_observed(&config, &input, &ObsOptions::default());
        let mut report = run.report;
        let p99_ms = report.class_tail(0, 0.99).as_millis_f64();
        let mut slack = LogHistogram::new();
        for c in 0..report.classes.len() as u8 {
            if let Some(h) = run
                .registry
                .histogram(&format!("tailguard_dequeue_slack_ms{{class=\"{c}\"}}"))
            {
                slack.merge(h);
            }
        }
        let (slack_p50_ms, slack_p99_ms) = if slack.is_empty() {
            (0.0, 0.0)
        } else {
            (slack.quantile(0.50), slack.quantile(0.99))
        };
        let r = &report.robustness;
        FaultCell {
            policy: policy.name().to_string(),
            mode: MODES[mode],
            p99_ms,
            miss_ratio: report.deadline_miss_ratio(),
            slack_p50_ms,
            slack_p99_ms,
            completed: report.completed_queries,
            rejected: report.rejected_queries,
            partial: r.partial_completions,
            failed: r.failed_queries,
            tasks_lost: r.tasks_lost_to_faults,
            hedges_issued: r.hedges_issued,
            hedge_wins: r.hedge_wins,
            retries: r.retries,
            reclaims: report.lifecycle.reclaims,
            dup_suppressed: report.lifecycle.duplicates_suppressed,
        }
    });
    if json {
        return serde_json::to_string_pretty(&results).map_err(|e| err(e.to_string()));
    }
    let mut out = format!(
        "{} @ load {:.0}% — fault matrix ({} × healthy/faulty/mitigated)\n",
        scenario.label,
        load * 100.0,
        policies.len()
    );
    out.push_str(&format!(
        "{:<10} {:<9} {:>10} {:>7} {:>15} {:>9} {:>8} {:>7} {:>6} {:>7} {:>6} {:>8} {:>8} {:>6}\n",
        "policy",
        "mode",
        "p99(ms)",
        "miss%",
        "slack p50/p99",
        "completed",
        "partial",
        "failed",
        "lost",
        "hedges",
        "wins",
        "retries",
        "reclaims",
        "dups"
    ));
    for c in &results {
        out.push_str(&format!(
            "{:<10} {:<9} {:>10.3} {:>6.2}% {:>15} {:>9} {:>8} {:>7} {:>6} {:>7} {:>6} {:>8} {:>8} {:>6}\n",
            c.policy,
            c.mode,
            c.p99_ms,
            c.miss_ratio * 100.0,
            format!("{:.2}/{:.2}", c.slack_p50_ms, c.slack_p99_ms),
            c.completed,
            c.partial,
            c.failed,
            c.tasks_lost,
            c.hedges_issued,
            c.hedge_wins,
            c.retries,
            c.reclaims,
            c.dup_suppressed
        ));
    }
    Ok(out)
}

/// What `trace` prints: exactly one output mode.
enum TraceOutput {
    /// `--export jsonl|csv`: the raw event stream.
    Export(fn(&[tailguard_sched::TraceEvent]) -> String),
    /// `--metrics`: the Prometheus text exposition.
    Metrics,
    /// `--json`: recording counts, registry, snapshots and SLO state.
    Json,
    /// `--query <id>`: one query's timeline.
    Query(u32),
    /// The `top` slowest queries, slack by query type, the miss-ratio
    /// timeline in `bin`-wide bins, and the SLO monitor.
    Summary { top: usize, bin: SimDuration },
}

/// Reads `trace`'s output mode: the first of `--export`, `--metrics`,
/// `--json` and `--query` given, else the summary. The options of the
/// other modes stay unread, so giving two is an error.
fn trace_output_from(args: &Args) -> Result<TraceOutput, ArgError> {
    if let Some(format) = args.get("export") {
        return match format {
            "jsonl" => Ok(TraceOutput::Export(events_to_jsonl)),
            "csv" => Ok(TraceOutput::Export(events_to_csv)),
            other => Err(err(format!("unknown --export `{other}` (jsonl|csv)"))),
        };
    }
    if args.flag("metrics") {
        return Ok(TraceOutput::Metrics);
    }
    if args.flag("json") {
        return Ok(TraceOutput::Json);
    }
    if args.get("query").is_some() {
        return Ok(TraceOutput::Query(args.count("query", 0, 0..)?));
    }
    Ok(TraceOutput::Summary {
        top: args.count("top", 5, 0..)?,
        bin: args.duration_ms("bin", 50.0)?,
    })
}

/// `tailguard trace` — flight-record one simulation and summarize the
/// recording: top-`k` slowest queries with their full per-task timelines,
/// the dequeue-slack histogram per `(class, fanout)` query type, and the
/// miss-ratio timeline. `--query <id>` reconstructs one query's timeline,
/// `--export jsonl|csv` dumps the raw event stream, `--metrics` prints
/// the Prometheus text exposition, and `--json` emits the registry
/// snapshot plus the virtual-time snapshot series.
pub fn cmd_trace(args: &Args) -> Result<String, ArgError> {
    let sim = run_from(args, scenario_from(args)?, 20_000)?;
    let output = trace_output_from(args)?;
    // The registry holds the report's gauges, so the outputs that print it
    // depend on the warm-up; the event stream does not.
    let sim = match output {
        TraceOutput::Metrics | TraceOutput::Json => sim.read_warmup(args)?,
        _ => sim,
    };
    let mut opts = ObsOptions {
        ring_capacity: args.count("ring", tailguard::DEFAULT_RING_CAPACITY, 1..)?,
        ..ObsOptions::default()
    };
    // Snapshots add no event to the stream; only the outputs that count or
    // print them read their cadence.
    let snapshots_shown = !matches!(output, TraceOutput::Export(_) | TraceOutput::Query(_));
    if snapshots_shown && args.get("snapshot-every").is_some() {
        opts.snapshot_every = Some(args.duration_ms("snapshot-every", 10.0)?);
    }
    if args.get("sample").is_some() || args.get("slow-after").is_some() {
        opts.sampler = Some(tailguard_obs::SamplerConfig {
            keep_permille: args.count("sample", 10, 0..=1000)?,
            slow_after: args.duration_ms("slow-after", 20.0)?,
        });
    }
    args.finish()?;

    let run = run_simulation_observed(&sim.config, &sim.input(), &opts);
    let events = run.recorder.events();
    let (top, bin) = match output {
        TraceOutput::Export(export) => return Ok(export(&events)),
        TraceOutput::Metrics => return Ok(run.registry.prometheus_text()),
        TraceOutput::Json => {
            use serde::Serialize as _;
            let doc = serde_json::Value::Map(vec![
                (
                    "events_recorded".to_string(),
                    serde_json::Value::U64(run.recorder.total_recorded()),
                ),
                (
                    "events_retained".to_string(),
                    serde_json::Value::U64(run.recorder.len() as u64),
                ),
                (
                    "events_dropped".to_string(),
                    serde_json::Value::U64(run.recorder.dropped()),
                ),
                (
                    "events_sampled_out".to_string(),
                    serde_json::Value::U64(run.recorder.sampled_out()),
                ),
                ("registry".to_string(), run.registry.snapshot().to_node()),
                ("snapshots".to_string(), run.snapshots.to_node()),
                ("slo".to_string(), run.slo.to_node()),
            ]);
            return serde_json::to_string_pretty(&doc).map_err(|e| err(e.to_string()));
        }
        TraceOutput::Query(qid) => {
            let timelines = build_timelines(&events);
            let tl = timelines.get(&qid).ok_or_else(|| {
                err(format!(
                    "query {qid} is not in the recording ({} queries recorded; \
                     a larger --ring retains more of the run)",
                    timelines.len()
                ))
            })?;
            return Ok(render_timeline(tl));
        }
        TraceOutput::Summary { top, bin } => (top, bin),
    };

    let timelines = build_timelines(&events);
    let mut out = format!(
        "{} under {} @ offered load {:.1}% — flight recording\n",
        sim.scenario.label,
        sim.policy.name(),
        sim.load * 100.0
    );
    out.push_str(&format!(
        "events: {} recorded, {} retained ({} dropped, {} sampled out); snapshots: {}\n",
        run.recorder.total_recorded(),
        run.recorder.len(),
        run.recorder.dropped(),
        run.recorder.sampled_out(),
        run.snapshots.len()
    ));
    let complete = timelines.values().filter(|t| t.is_complete()).count();
    out.push_str(&format!(
        "queries: {} in recording, {} with complete timelines\n",
        timelines.len(),
        complete
    ));
    if run.recorder.dropped() > 0 {
        out.push_str(
            "warning: ring capacity exceeded — this summary covers a suffix of the run \
             (raise --ring to retain everything)\n",
        );
    }

    let slowest = slowest_queries(&timelines, top);
    out.push_str(&format!("\ntop {} slowest queries:\n", slowest.len()));
    for tl in slowest {
        for line in render_timeline(tl).lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }

    out.push_str("\ndequeue slack by query type (class, fanout):\n");
    out.push_str(&format!(
        "{:>6} {:>7} {:>9} {:>7} {:>13} {:>13} {:>12}\n",
        "class", "fanout", "dequeues", "miss%", "slack p50(ms)", "slack p99(ms)", "late p99(ms)"
    ));
    for ((class, fanout), s) in slack_by_type(&timelines) {
        let (p50, p99) = if s.slack.is_empty() {
            (0.0, 0.0)
        } else {
            (s.slack.quantile(0.50), s.slack.quantile(0.99))
        };
        let late_p99 = if s.lateness.is_empty() {
            0.0
        } else {
            s.lateness.quantile(0.99)
        };
        out.push_str(&format!(
            "{class:>6} {fanout:>7} {:>9} {:>6.2}% {p50:>13.3} {p99:>13.3} {late_p99:>12.3}\n",
            s.dequeues,
            s.miss_ratio() * 100.0
        ));
    }

    let bins = miss_ratio_timeline(&events, bin);
    // Coarsen long timelines so the chart stays readable.
    let group = bins.len().div_ceil(60).max(1);
    out.push_str(&format!(
        "\nmiss-ratio timeline (bin {:.0} ms):\n",
        bin.as_millis_f64() * group as f64
    ));
    for chunk in bins.chunks(group) {
        let start = chunk[0].start;
        let dequeues: u64 = chunk.iter().map(|b| b.dequeues).sum();
        let misses: u64 = chunk.iter().map(|b| b.misses).sum();
        let ratio = if dequeues == 0 {
            0.0
        } else {
            misses as f64 / dequeues as f64
        };
        let bar = "#".repeat((ratio * 40.0).round() as usize);
        out.push_str(&format!(
            "  +{:>8.0} ms {:>7.2}% (n={dequeues:<6}) {bar}\n",
            start.as_millis_f64(),
            ratio * 100.0
        ));
    }

    let transitions = server_transitions(&events);
    if !transitions.is_empty() {
        out.push_str("\ncluster events (health tracker):\n");
        for t in &transitions {
            out.push_str(&format!(
                "  {:>10.3} ms server {:>3} {}\n",
                t.at.as_millis_f64(),
                t.server,
                if t.ejected { "ejected" } else { "readmitted" }
            ));
        }
    }

    out.push_str(&render_slo(&run.slo));
    Ok(out)
}

/// Renders the SLO monitor's sealed state: the per-class attainment and
/// burn-rate table, then every multi-window burn alert in time order.
fn render_slo(slo: &SloSnapshot) -> String {
    let mut out = format!(
        "\nSLO attainment (target {:.2}%, bucket {:.0} ms, slow window {} buckets, burn alert ≥ {:.1}x):\n",
        slo.target * 100.0,
        slo.bucket_ns as f64 / 1e6,
        slo.slow_buckets,
        slo.burn_threshold
    );
    if slo.classes.is_empty() {
        out.push_str("  (no dequeues observed)\n");
        return out;
    }
    out.push_str(&format!(
        "{:>6} {:>9} {:>7} {:>11} {:>5} {:>9} {:>9} {:>7} {:>12} {:>12}\n",
        "class",
        "dequeues",
        "misses",
        "attainment",
        "met",
        "burn_fast",
        "burn_slow",
        "alerts",
        "slack p50",
        "slack p99"
    ));
    for c in &slo.classes {
        out.push_str(&format!(
            "{:>6} {:>9} {:>7} {:>10.3}% {:>5} {:>9.2} {:>9.2} {:>7} {:>9.3} ms {:>9.3} ms\n",
            c.class,
            c.dequeues,
            c.misses,
            c.attainment * 100.0,
            if c.met { "yes" } else { "NO" },
            c.fast_burn,
            c.slow_burn,
            c.alerts,
            c.slack_p50_ms,
            c.slack_p99_ms
        ));
    }
    if !slo.alerts.is_empty() {
        out.push_str("\nburn-rate alerts:\n");
        for a in &slo.alerts {
            out.push_str(&format!(
                "  {:>10.3} ms class {} fast {:.1}x slow {:.1}x\n",
                a.at_ns as f64 / 1e6,
                a.class,
                a.fast_burn,
                a.slow_burn
            ));
        }
    }
    out
}

/// `tailguard slo` — run one simulation under the online SLO monitor and
/// report per-class attainment, multi-window burn rates, windowed slack
/// percentiles, and every burn-rate alert. `--target` overrides the
/// attainment target (default: the strictest class percentile),
/// `--bucket`/`--slow-buckets` set the fast/slow windows, `--burn` the
/// alert threshold, and `--json` emits the full monitor snapshot.
pub fn cmd_slo(args: &Args) -> Result<String, ArgError> {
    // The monitor reads the event stream, which the warm-up does not change.
    let sim = run_from(args, scenario_from(args)?, 20_000)?;
    // Each option, when absent, keeps the monitor's default.
    let mut slo_config = tailguard_obs::SloConfig::for_classes(&sim.config.classes);
    slo_config.target = args.real_in("target", slo_config.target, OPEN_UNIT)?;
    slo_config.bucket = args.duration_ms("bucket", slo_config.bucket.as_millis_f64())?;
    slo_config.slow_buckets = args.count("slow-buckets", slo_config.slow_buckets, 1..)?;
    slo_config.burn_threshold = args.positive("burn", slo_config.burn_threshold)?;
    let json = args.flag("json");
    args.finish()?;
    let run = run_simulation_observed(
        &sim.config,
        &sim.input(),
        &ObsOptions {
            slo: Some(slo_config),
            ..ObsOptions::default()
        },
    );
    if json {
        return serde_json::to_string_pretty(&run.slo).map_err(|e| err(e.to_string()));
    }
    let mut out = format!(
        "{} under {} @ offered load {:.1}% — SLO monitor\n",
        sim.scenario.label,
        sim.policy.name(),
        sim.load * 100.0
    );
    out.push_str(&render_slo(&run.slo));
    Ok(out)
}

/// Renders one reconstructed query timeline: the admission/deadline line
/// followed by every attempt's enqueue → dequeue (with signed slack) →
/// completion/cancellation/loss, all relative to admission time `t_0`.
fn render_timeline(tl: &QueryTimeline) -> String {
    let t0 = tl.admitted_at;
    let rel = |t: SimTime| t.saturating_since(t0).as_millis_f64();
    let mut out = format!(
        "query {} class {} fanout {}: admitted t0={:.3} ms, deadline t_D=+{:.3} ms{}\n",
        tl.query,
        tl.class,
        tl.fanout,
        tl.admitted_at.as_millis_f64(),
        rel(tl.deadline),
        match tl.latency() {
            Some(l) => format!(", completed +{:.3} ms", l.as_millis_f64()),
            None => ", incomplete".to_string(),
        }
    );
    if tl.duplicate_attempts() > 0 {
        out.push_str(&format!(
            "  ({} hedge/retry copies issued)\n",
            tl.duplicate_attempts()
        ));
    }
    if tl.budget_denials > 0 {
        out.push_str(&format!(
            "  ({} hedge/retry copies denied: class budget exhausted)\n",
            tl.budget_denials
        ));
    }
    for a in &tl.attempts {
        out.push_str(&format!(
            "  task {:>6} srv {:>3} {:<8} enq +{:.3}",
            a.task,
            a.server,
            a.kind.name(),
            rel(a.enqueued_at)
        ));
        if let (Some(d), Some(slack_ns)) = (a.dequeued_at, a.slack_ns) {
            out.push_str(&format!(
                "  deq +{:.3} (slack {:+.3} ms{})",
                rel(d),
                slack_ns as f64 / 1e6,
                if a.missed_deadline { " MISS" } else { "" }
            ));
        }
        if let (Some(done), Some(busy)) = (a.completed_at, a.busy) {
            out.push_str(&format!(
                "  done +{:.3} (busy {:.3} ms){}",
                rel(done),
                busy.as_millis_f64(),
                if a.won { "" } else { " lost-race" }
            ));
        }
        if let Some(c) = a.cancelled_at {
            out.push_str(&format!("  cancelled +{:.3}", rel(c)));
        }
        if let Some(l) = a.lost_at {
            out.push_str(&format!("  LOST +{:.3}", rel(l)));
        }
        out.push('\n');
    }
    out
}

/// `tailguard gentrace` — generate a JSON query trace on stdout.
pub fn cmd_gentrace(args: &Args) -> Result<String, ArgError> {
    let fanout = fanout_from(args)?;
    let classes = args.count("classes", 1, 1..=usize::from(u8::MAX))?;
    let arrival = arrival_from(args, args.positive("rate", 1.0)?)?;
    let queries = queries_from(args, 10_000)?;
    let seed = args.seed(1)?;
    let format = args.get_or("format", "json");
    if !matches!(format, "json" | "csv") {
        return Err(err(format!("unknown --format `{format}` (json|csv)")));
    }
    args.finish()?;
    let trace = Trace::generate(
        "cli",
        &arrival,
        &QueryMix::equiprobable(classes, fanout),
        queries,
        seed,
    );
    if format == "csv" {
        Ok(trace.to_csv())
    } else {
        trace.to_json().map_err(|e| err(e.to_string()))
    }
}

/// `tailguard workloads` — the calibrated Table II statistics.
pub fn cmd_workloads(args: &Args) -> Result<String, ArgError> {
    let json = args.flag("json");
    args.finish()?;
    #[derive(Serialize)]
    struct Row {
        name: String,
        mean_ms: f64,
        x99_k1_ms: f64,
        x99_k10_ms: f64,
        x99_k100_ms: f64,
    }
    let rows: Vec<Row> = TailbenchWorkload::ALL
        .iter()
        .map(|w| Row {
            name: w.name().to_string(),
            mean_ms: w.mean_service_ms(),
            x99_k1_ms: w.unloaded_query_tail(0.99, 1),
            x99_k10_ms: w.unloaded_query_tail(0.99, 10),
            x99_k100_ms: w.unloaded_query_tail(0.99, 100),
        })
        .collect();
    if json {
        return serde_json::to_string_pretty(&rows).map_err(|e| err(e.to_string()));
    }
    let mut out = format!(
        "{:<10} {:>9} {:>9} {:>9} {:>9}   (paper Table II, reproduced)\n",
        "workload", "T_m", "x99(1)", "x99(10)", "x99(100)"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            r.name, r.mean_ms, r.x99_k1_ms, r.x99_k10_ms, r.x99_k100_ms
        ));
    }
    Ok(out)
}

/// `tailguard budgets` — show Eq. 6 pre-dequeuing budgets for a workload.
pub fn cmd_budgets(args: &Args) -> Result<String, ArgError> {
    let workload = workload_from(args.get_or("workload", "masstree"))?;
    let (class_count, classes) = classes_from(args)?;
    let fanouts = fanouts_from(args)?;
    args.finish()?;
    let cluster = ClusterSpec::homogeneous(
        *fanouts.iter().max().expect("non-empty") as usize,
        workload.service_dist(),
    );
    let mut out = format!(
        "{workload}: task pre-dequeuing budgets T_b = x99_SLO − x99_u(k)  (Eq. 6, ms)\n{:>10}",
        "fanout"
    );
    for class in &classes {
        out.push_str(&format!(
            " {:>12}",
            format!("SLO {}ms", class.slo.as_millis_f64())
        ));
    }
    out.push('\n');
    let mut est = tailguard::DeadlineEstimator::new(&cluster, classes, EstimatorMode::Analytic);
    for &k in &fanouts {
        out.push_str(&format!("{k:>10}"));
        for class in 0..class_count {
            out.push_str(&format!(
                " {:>12.3}",
                est.budget(class, k, &[]).as_millis_f64()
            ));
        }
        out.push('\n');
    }
    Ok(out)
}

/// `tailguard calibrate` — fit a service-time model to measured latencies.
///
/// Reads newline-separated latencies in milliseconds from `--samples
/// <path>` (the paper's offline estimation process, productized) and prints
/// the fitted piecewise-quantile control points plus the Table-II-style
/// statistics TailGuard consumes.
pub fn cmd_calibrate(args: &Args) -> Result<String, ArgError> {
    let path = args
        .get("samples")
        .ok_or_else(|| err("missing required option --samples <path>"))?;
    let anchors = PiecewiseQuantile::DEFAULT_ANCHORS;
    let anchors = args.reals_in("anchors", &anchors, SHARE)?;
    let json = args.flag("json");
    // The JSON form is the model alone, with no fanout table.
    let fanouts = if json {
        Vec::new()
    } else {
        fanouts_from(args)?
    };
    args.finish()?;
    let raw = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read --samples {path}: {e}")))?;
    let mut samples = Vec::new();
    for (lineno, line) in raw.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v: f64 = line
            .parse()
            .map_err(|_| err(format!("{path}:{}: `{line}` is not a number", lineno + 1)))?;
        samples.push(v);
    }
    let model = PiecewiseQuantile::fit(&samples, &anchors)
        .map_err(|e| err(format!("calibration failed: {e}")))?;
    if json {
        return serde_json::to_string_pretty(&model).map_err(|e| err(e.to_string()));
    }
    use tailguard_dist::{order_stats, Distribution};
    let mut out = format!(
        "fitted {} samples from {path}
control points (p, ms):
",
        samples.len()
    );
    for (p, x) in model.points() {
        out.push_str(&format!(
            "  ({p:.4}, {x:.4})
"
        ));
    }
    out.push_str(&format!(
        "mean T_m = {:.4} ms
",
        model.mean()
    ));
    for k in fanouts {
        out.push_str(&format!(
            "x99^u({k}) = {:.4} ms
",
            order_stats::homogeneous_quantile(&model, 0.99, k)
        ));
    }
    Ok(out)
}

/// `tailguard scenarios` — list built-in paper scenarios.
pub fn cmd_scenarios(args: &Args) -> Result<String, ArgError> {
    args.finish()?;
    let presets = [
        scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100).label,
        scenarios::two_class(
            TailbenchWorkload::Masstree,
            1.0,
            ArrivalProcess::poisson(1.0),
        )
        .label,
        scenarios::oldi_two_class(TailbenchWorkload::Masstree, 1.0, 1.5).label,
        scenarios::n1000_single_class(TailbenchWorkload::Masstree, 1.0).label,
        scenarios::four_class(TailbenchWorkload::Masstree, 1.0).label,
        scenarios::sas_testbed().label,
    ];
    let mut out = String::from("built-in paper scenarios (see `tailguard::scenarios`):\n");
    for p in presets {
        out.push_str(&format!("  - {p}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().copied()).expect("parse")
    }

    #[test]
    fn workload_and_policy_parsing() {
        assert_eq!(workload_from("Shore").unwrap(), TailbenchWorkload::Shore);
        assert!(workload_from("nope").is_err());
        assert_eq!(policy_from("tailguard").unwrap(), Policy::TfEdf);
        assert_eq!(policy_from("T-EDFQ").unwrap(), Policy::TEdf);
        assert_eq!(policy_from("sjf").unwrap(), Policy::Sjf);
        assert!(policy_from("lifo").is_err());
    }

    #[test]
    fn sim_runs_small() {
        let out = cmd_sim(&args(&[
            "--workload",
            "masstree",
            "--policy",
            "tfedf",
            "--load",
            "0.3",
            "--queries",
            "3000",
        ]))
        .expect("sim");
        assert!(out.contains("TailGuard"));
        assert!(out.contains("class 0"));
    }

    #[test]
    fn sim_json_summary_parses() {
        let out = cmd_sim(&args(&["--queries", "2000", "--load", "0.2", "--json"])).expect("sim");
        let v: serde_json::Value = serde_json::from_str(&out).expect("json");
        assert_eq!(v["policy"], "TailGuard");
        assert!(v["measured_load"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn sim_rejects_unknown_option() {
        let e = cmd_sim(&args(&["--polcy", "fifo"])).unwrap_err();
        assert!(e.0.contains("--polcy"));
    }

    #[test]
    fn sim_rejects_oversized_fanout() {
        let e = cmd_sim(&args(&["--fanout", "fixed:200", "--servers", "100"])).unwrap_err();
        assert!(e.0.contains("exceeds"));
    }

    #[test]
    fn sim_rejects_a_zero_fixed_fanout() {
        let e = cmd_sim(&args(&["--fanout", "fixed:0"])).unwrap_err();
        assert!(e.0.contains("k ≥ 1"), "{}", e.0);
    }

    #[test]
    fn sim_drift_runs_and_conserves() {
        for drift in ["diurnal", "flashcrowd"] {
            let out = cmd_sim(&args(&[
                "--queries",
                "2000",
                "--load",
                "0.2",
                "--drift",
                drift,
                "--json",
            ]))
            .expect("sim --drift");
            let v: serde_json::Value = serde_json::from_str(&out).expect("json");
            // 2000 offered minus the queries/20 = 100 warm-up discards.
            assert_eq!(v["completed_queries"].as_u64(), Some(1900), "{drift}");
        }
    }

    #[test]
    fn sim_drift_changes_trace_and_rejects_bad_specs() {
        let base = &["--queries", "2000", "--load", "0.2", "--json"];
        let plain = cmd_sim(&args(base)).expect("plain");
        // 2000 queries at 20% load span ~50 ms, so pin the spike window
        // inside the run (the [1000, 5000) ms default would miss it).
        let drifted = cmd_sim(&args(
            &[
                base as &[&str],
                &[
                    "--drift",
                    "flashcrowd",
                    "--drift-from",
                    "0",
                    "--drift-to",
                    "40",
                    "--drift-factor",
                    "3",
                ],
            ]
            .concat(),
        ))
        .expect("drifted");
        assert_ne!(plain, drifted, "flash crowd left the run unchanged");

        assert!(cmd_sim(&args(&["--drift", "eclipse"]))
            .unwrap_err()
            .0
            .contains("eclipse"));
        assert!(
            cmd_sim(&args(&["--drift", "diurnal", "--drift-amplitude", "1.5"]))
                .unwrap_err()
                .0
                .contains("--drift-amplitude")
        );
        assert!(
            cmd_sim(&args(&["--drift", "flashcrowd", "--drift-to", "0"]))
                .unwrap_err()
                .0
                .contains("--drift-to")
        );
    }

    #[test]
    fn maxload_two_policies() {
        let out = cmd_maxload(&args(&[
            "--policies",
            "tfedf,fifo",
            "--queries",
            "4000",
            "--tolerance",
            "0.1",
        ]))
        .expect("maxload");
        assert!(out.contains("TailGuard"));
        assert!(out.contains("FIFO"));
    }

    fn maxload_tolerance_error(tolerance: &str) -> String {
        let opts = ["--queries", "3000", "--policies", "tfedf", "--tolerance"];
        cmd_maxload(&args(&[&opts as &[&str], &[tolerance]].concat()))
            .unwrap_err()
            .0
    }

    #[test]
    fn maxload_rejects_a_zero_tolerance() {
        assert!(maxload_tolerance_error("0").contains("--tolerance"));
    }

    #[test]
    fn maxload_rejects_a_negative_tolerance() {
        assert!(maxload_tolerance_error("-1").contains("--tolerance"));
    }

    #[test]
    fn maxload_rejects_a_nan_tolerance() {
        assert!(maxload_tolerance_error("nan").contains("--tolerance"));
    }

    fn sweep_loads_error(loads: &str) -> String {
        cmd_sweep(&args(&["--queries", "1000", "--loads", loads]))
            .unwrap_err()
            .0
    }

    #[test]
    fn sweep_rejects_a_zero_load() {
        assert!(sweep_loads_error("0.2,0").contains("--loads must lie in (0, 1.5]"));
    }

    #[test]
    fn sweep_rejects_a_nan_load() {
        assert!(sweep_loads_error("nan").contains("--loads must lie in (0, 1.5]"));
    }

    #[test]
    fn sweep_rejects_a_load_above_the_sim_range() {
        assert!(sweep_loads_error("5").contains("--loads must lie in (0, 1.5]"));
    }

    /// The error `tailguard testbed --<flag> <value>` returns; validation
    /// fails before the testbed starts.
    fn testbed_error(flag: &str, value: &str) -> String {
        cmd_testbed(&args(&[flag, value])).unwrap_err().0
    }

    #[test]
    fn testbed_rejects_zero_queries() {
        assert!(testbed_error("--queries", "0").contains("--queries"));
    }

    #[test]
    fn testbed_rejects_a_zero_load() {
        assert!(testbed_error("--load", "0").contains("--load must lie in (0, 1.5]"));
    }

    #[test]
    fn testbed_rejects_a_nan_load() {
        assert!(testbed_error("--load", "nan").contains("--load must lie in (0, 1.5]"));
    }

    #[test]
    fn testbed_rejects_a_load_above_the_sim_range() {
        assert!(testbed_error("--load", "5").contains("--load must lie in (0, 1.5]"));
    }

    #[test]
    fn testbed_rejects_a_zero_scale() {
        assert!(testbed_error("--scale", "0").contains("--scale"));
    }

    #[test]
    fn testbed_rejects_a_negative_scale() {
        assert!(testbed_error("--scale", "-1").contains("--scale"));
    }

    #[test]
    fn testbed_rejects_zero_store_days() {
        assert!(testbed_error("--store-days", "0").contains("--store-days must lie in 1..=540"));
    }

    #[test]
    fn testbed_rejects_store_days_past_u32() {
        let e = testbed_error("--store-days", "5000000000");
        assert!(e.contains("--store-days must lie in 1..=540"), "{e}");
    }

    #[test]
    fn sweep_prints_rows() {
        let out = cmd_sweep(&args(&[
            "--loads",
            "0.2,0.4",
            "--queries",
            "3000",
            "--slos",
            "1.0,1.5",
        ]))
        .expect("sweep");
        assert!(out.contains("20%"));
        assert!(out.contains("40%"));
        assert!(out.contains("class1 p99"));
    }

    #[test]
    fn sweep_jobs_output_is_identical_to_serial() {
        let base = &[
            "--loads",
            "0.2,0.4,0.6",
            "--queries",
            "2000",
            "--slos",
            "1.0,1.5",
        ];
        let serial = cmd_sweep(&args(&[base as &[&str], &["--jobs", "1"]].concat())).expect("j1");
        let parallel = cmd_sweep(&args(&[base as &[&str], &["--jobs", "4"]].concat())).expect("j4");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn maxload_jobs_output_is_identical_to_serial() {
        let base = &[
            "--policies",
            "tfedf,fifo",
            "--queries",
            "3000",
            "--tolerance",
            "0.1",
        ];
        let serial = cmd_maxload(&args(&[base as &[&str], &["--jobs", "1"]].concat())).expect("j1");
        let parallel =
            cmd_maxload(&args(&[base as &[&str], &["--jobs", "3"]].concat())).expect("j3");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jobs_zero_is_rejected() {
        let e = cmd_sweep(&args(&["--jobs", "0", "--queries", "1000"])).unwrap_err();
        assert!(e.0.contains("--jobs"));
    }

    #[test]
    fn faults_matrix_runs_and_counts_are_consistent() {
        let out = cmd_faults(&args(&[
            "--policies",
            "tfedf",
            "--queries",
            "3000",
            "--fault",
            "drop",
            "--fault-servers",
            "5",
            "--json",
        ]))
        .expect("faults");
        let cells: serde_json::Value = serde_json::from_str(&out).expect("json");
        let cells = cells.as_array().unwrap();
        assert_eq!(cells.len(), 3); // healthy / faulty / mitigated
        let healthy = &cells[0];
        let faulty = &cells[1];
        let mitigated = &cells[2];
        assert_eq!(healthy["tasks_lost"].as_u64(), Some(0));
        assert_eq!(healthy["hedges_issued"].as_u64(), Some(0));
        assert!(faulty["tasks_lost"].as_u64().unwrap() > 0);
        assert!(mitigated["retries"].as_u64().unwrap() > 0);
        // The deadline-slack histogram column is populated from each
        // cell's flight recording.
        assert!(healthy["slack_p50_ms"].as_f64().unwrap() > 0.0);
        assert!(
            healthy["slack_p99_ms"].as_f64().unwrap() >= healthy["slack_p50_ms"].as_f64().unwrap()
        );
    }

    #[test]
    fn faults_jobs_output_is_identical_to_serial() {
        let base = &[
            "--policies",
            "tfedf,fifo",
            "--queries",
            "2000",
            "--fault",
            "slowdown",
            "--factor",
            "6",
        ];
        let serial = cmd_faults(&args(&[base as &[&str], &["--jobs", "1"]].concat())).expect("j1");
        let parallel =
            cmd_faults(&args(&[base as &[&str], &["--jobs", "8"]].concat())).expect("j8");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn faults_rejects_bad_specs() {
        assert!(cmd_faults(&args(&["--fault", "meteor"]))
            .unwrap_err()
            .0
            .contains("meteor"));
        assert!(cmd_faults(&args(&["--factor", "0.5"]))
            .unwrap_err()
            .0
            .contains("--factor"));
        assert!(cmd_faults(&args(&["--fault-servers", "500"]))
            .unwrap_err()
            .0
            .contains("--fault-servers"));
        assert!(cmd_faults(&args(&["--fault-to", "0"]))
            .unwrap_err()
            .0
            .contains("--fault-to"));
        assert!(cmd_faults(&args(&["--quorum", "1.5"]))
            .unwrap_err()
            .0
            .contains("--quorum"));
        assert!(
            cmd_faults(&args(&["--fault", "flap", "--flap-period", "0"]))
                .unwrap_err()
                .0
                .contains("--flap-period")
        );
    }

    #[test]
    fn faults_gray_kinds_degrade_the_faulty_cell() {
        // Ramp and flap inflate service times without losing tasks: the
        // faulty cell's tail worsens but conservation matches healthy.
        for (kind, extra) in [("ramp", &[][..]), ("flap", &["--flap-period", "5"][..])] {
            let out = cmd_faults(&args(
                &[
                    &[
                        "--policies",
                        "tfedf",
                        "--queries",
                        "3000",
                        "--fault",
                        kind,
                        "--factor",
                        "30",
                        "--fault-servers",
                        "10",
                        "--fault-to",
                        "200",
                        "--json",
                    ] as &[&str],
                    extra,
                ]
                .concat(),
            ))
            .expect(kind);
            let cells: serde_json::Value = serde_json::from_str(&out).expect("json");
            let cells = cells.as_array().unwrap();
            assert_eq!(cells.len(), 3, "{kind}");
            let (healthy, faulty) = (&cells[0], &cells[1]);
            assert_eq!(faulty["tasks_lost"].as_u64(), Some(0), "{kind}");
            assert_eq!(
                faulty["completed"].as_u64(),
                healthy["completed"].as_u64(),
                "{kind}"
            );
            assert!(
                faulty["p99_ms"].as_f64().unwrap() > healthy["p99_ms"].as_f64().unwrap(),
                "{kind}: gray failure left the tail unchanged"
            );
        }
    }

    #[test]
    fn faults_crash_arms_lease_and_reclaims() {
        let out = cmd_faults(&args(&[
            "--policies",
            "tfedf",
            "--queries",
            "3000",
            "--fault",
            "crash",
            "--fault-servers",
            "5",
            "--fault-to",
            "3000",
            "--json",
        ]))
        .expect("faults");
        let cells: serde_json::Value = serde_json::from_str(&out).expect("json");
        let cells = cells.as_array().unwrap();
        let healthy = &cells[0];
        let faulty = &cells[1];
        // The healthy cell runs without a lease: bit-identical to the
        // pre-lifecycle baseline, nothing reclaimed.
        assert_eq!(healthy["reclaims"].as_u64(), Some(0));
        // Crashes swallow tasks silently; only the (SLO-default) lease
        // gets them back, and conservation must hold afterwards: the
        // faulty cell resolves exactly as many recorded queries as the
        // healthy one (reclaim keeps retrying until the node recovers).
        assert!(faulty["reclaims"].as_u64().unwrap() > 0, "{faulty:?}");
        let accounted = |cell: &serde_json::Value| {
            cell["completed"].as_u64().unwrap()
                + cell["rejected"].as_u64().unwrap()
                + cell["partial"].as_u64().unwrap()
                + cell["failed"].as_u64().unwrap()
        };
        assert_eq!(accounted(faulty), accounted(healthy), "{faulty:?}");
    }

    #[test]
    fn faults_dup_suppresses_duplicates() {
        let out = cmd_faults(&args(&[
            "--policies",
            "tfedf",
            "--queries",
            "2000",
            "--fault",
            "dup",
            "--fault-servers",
            "10",
            "--json",
        ]))
        .expect("faults");
        let cells: serde_json::Value = serde_json::from_str(&out).expect("json");
        let cells = cells.as_array().unwrap();
        let faulty = &cells[1];
        assert!(faulty["dup_suppressed"].as_u64().unwrap() > 0, "{faulty:?}");
        // Duplicate delivery changes no outcome: every query completes.
        assert_eq!(faulty["completed"].as_u64(), cells[0]["completed"].as_u64());
    }

    #[test]
    fn faults_random_plan_runs() {
        let out = cmd_faults(&args(&[
            "--policies",
            "tfedf",
            "--queries",
            "2000",
            "--fault",
            "random",
            "--episodes",
            "6",
            "--fault-to",
            "2000",
        ]))
        .expect("faults");
        assert!(out.contains("healthy"));
        assert!(out.contains("mitigated"));
    }

    #[test]
    fn gentrace_emits_valid_csv() {
        let out = cmd_gentrace(&args(&["--queries", "20", "--format", "csv"])).expect("gentrace");
        let trace = Trace::from_csv(&out).expect("roundtrip");
        assert_eq!(trace.len(), 20);
        let e = cmd_gentrace(&args(&["--format", "yaml"])).unwrap_err();
        assert!(e.0.contains("yaml"));
    }

    #[test]
    fn gentrace_emits_valid_json() {
        let out = cmd_gentrace(&args(&["--queries", "50", "--rate", "2.0"])).expect("gentrace");
        let trace = Trace::from_json(&out).expect("roundtrip");
        assert_eq!(trace.len(), 50);
    }

    #[test]
    fn trace_summarizes_flight_recording() {
        let out = cmd_trace(&args(&[
            "--queries",
            "2000",
            "--load",
            "0.5",
            "--top",
            "3",
            "--servers",
            "20",
            "--fanout",
            "fixed:4",
        ]))
        .expect("trace");
        assert!(out.contains("flight recording"));
        assert!(out.contains("slowest queries"));
        assert!(out.contains("dequeue slack by query type"));
        assert!(out.contains("miss-ratio timeline"));
        assert!(out.contains("deadline t_D=+"));
    }

    #[test]
    fn trace_reconstructs_any_query_timeline() {
        // Admission is off and warmup queries are recorded too, so every
        // offered query id is reconstructable.
        for qid in ["0", "7", "499"] {
            let out = cmd_trace(&args(&[
                "--queries",
                "500",
                "--servers",
                "20",
                "--fanout",
                "fixed:4",
                "--query",
                qid,
            ]))
            .expect("trace --query");
            assert!(out.contains(&format!("query {qid} class")));
            assert!(out.contains("task"));
            assert!(out.contains("deq +"));
        }
        let e = cmd_trace(&args(&[
            "--queries",
            "10",
            "--servers",
            "20",
            "--fanout",
            "fixed:4",
            "--query",
            "999999",
        ]))
        .unwrap_err();
        assert!(e.0.contains("not in the recording"));
    }

    #[test]
    fn trace_exports_jsonl_and_csv() {
        let jsonl = cmd_trace(&args(&[
            "--queries",
            "200",
            "--servers",
            "20",
            "--fanout",
            "fixed:4",
            "--export",
            "jsonl",
        ]))
        .expect("jsonl");
        for line in jsonl.lines().take(10) {
            let v: serde_json::Value = serde_json::from_str(line).expect("json line");
            assert!(v.get("event").is_some());
        }
        let csv = cmd_trace(&args(&[
            "--queries",
            "200",
            "--servers",
            "20",
            "--fanout",
            "fixed:4",
            "--export",
            "csv",
        ]))
        .expect("csv");
        assert!(csv.starts_with(tailguard_obs::CSV_HEADER));
        let e = cmd_trace(&args(&["--export", "parquet"])).unwrap_err();
        assert!(e.0.contains("parquet"));
    }

    #[test]
    fn trace_metrics_and_json_outputs() {
        let text = cmd_trace(&args(&[
            "--queries",
            "500",
            "--servers",
            "20",
            "--fanout",
            "fixed:4",
            "--metrics",
        ]))
        .expect("metrics");
        assert!(text.contains("# TYPE tailguard_queries_admitted_total counter"));
        assert!(text.contains("# TYPE tailguard_queue_wait_ms histogram"));
        let json = cmd_trace(&args(&[
            "--queries",
            "500",
            "--servers",
            "20",
            "--fanout",
            "fixed:4",
            "--snapshot-every",
            "5",
            "--json",
        ]))
        .expect("json");
        let v: serde_json::Value = serde_json::from_str(&json).expect("parse");
        assert!(v["events_recorded"].as_u64().unwrap() > 0);
        assert!(!v["snapshots"].as_array().unwrap().is_empty());
        assert!(v["registry"]["counters"].as_array().is_some());
    }

    #[test]
    fn sim_json_exposes_uniform_metrics() {
        let json = cmd_sim(&args(&[
            "--queries",
            "2000",
            "--servers",
            "20",
            "--fanout",
            "fixed:4",
            "--json",
        ]))
        .expect("sim --json");
        let v: serde_json::Value = serde_json::from_str(&json).expect("parse");
        let metrics = &v["metrics"];
        assert!(metrics.is_object());
        for name in [
            "tailguard_estimator_budget_lookups_total",
            "tailguard_mitigation_hedges_issued_total",
            "tailguard_queries_admitted_total",
            "tailguard_run_deadline_miss_ratio",
        ] {
            assert!(metrics.get(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn workloads_table() {
        let out = cmd_workloads(&args(&[])).expect("workloads");
        assert!(out.contains("Masstree"));
        assert!(out.contains("0.473"));
        let json = cmd_workloads(&args(&["--json"])).expect("json");
        let v: serde_json::Value = serde_json::from_str(&json).expect("parse");
        assert_eq!(v.as_array().unwrap().len(), 3);
    }

    #[test]
    fn budgets_decrease_with_fanout() {
        let out = cmd_budgets(&args(&["--workload", "masstree", "--slo", "1.0"])).expect("b");
        assert!(out.contains("Eq. 6"));
        // Rows for fanouts 1, 10, 100 present.
        assert!(out.contains("\n         1"));
        assert!(out.contains("\n       100"));
    }

    #[test]
    fn testbed_small_run() {
        let out = cmd_testbed(&args(&[
            "--queries",
            "150",
            "--load",
            "0.2",
            "--probes",
            "10",
            "--store-days",
            "35",
        ]))
        .expect("testbed");
        assert!(out.contains("Server-room"));
        assert!(out.contains("class A"));
    }

    #[test]
    fn admission_spec_parsing() {
        assert!(admission_from(Some("10:0.017")).unwrap().is_some());
        assert!(admission_from(Some("banana")).is_err());
        assert!(admission_from(Some("10:2.0")).is_err());
        assert!(admission_from(None).unwrap().is_none());
    }

    #[test]
    fn calibrate_fits_sample_file() {
        use tailguard_dist::Distribution;
        use tailguard_simcore::SimRng;
        let dir = std::env::temp_dir().join("tailguard-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("samples.txt");
        let d = TailbenchWorkload::Masstree.service_dist();
        let mut rng = SimRng::seed(5);
        let mut body = String::from(
            "# masstree-like samples
",
        );
        for _ in 0..100_000 {
            body.push_str(&format!(
                "{}
",
                d.sample(&mut rng)
            ));
        }
        std::fs::write(&path, body).unwrap();
        let out = cmd_calibrate(&args(&["--samples", path.to_str().unwrap()])).expect("fit");
        assert!(out.contains("mean T_m = 0.17"), "{out}");
        assert!(out.contains("x99^u(100)"), "{out}");
        let json =
            cmd_calibrate(&args(&["--samples", path.to_str().unwrap(), "--json"])).expect("fit");
        let _: serde_json::Value = serde_json::from_str(&json).expect("json");
    }

    #[test]
    fn calibrate_reports_bad_file() {
        let e = cmd_calibrate(&args(&["--samples", "/nonexistent/x.txt"])).unwrap_err();
        assert!(e.0.contains("cannot read"));
    }

    #[test]
    fn scenarios_listing() {
        let out = cmd_scenarios(&args(&[])).expect("scenarios");
        assert!(out.contains("SaS testbed twin"));
    }
}
