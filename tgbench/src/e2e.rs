//! The untraced pass: end-to-end metrics, measured with nothing of the
//! benchmark's own in the way — the default `NullSink`, no spans.
//!
//! Host-time metrics are medians over repetitions timed after one warm
//! run; repetitions continue until `--seconds` of measured time have
//! passed (never fewer than [`MIN_REPS`]). Simulated metrics come from the
//! same repetitions and must be bit-identical across them.

use crate::host::{cpu_seconds, peak_rss_bytes};
use crate::outcome::Outcome;
use crate::sim::{cold_budgets, query_types, run_once, SimSummary};
use crate::workloads::{
    capacity_probe_queries, maxload_case, maxload_probes, search_opts, sim_case, testbed_config,
    MaxLoadCase, SimKind,
};
use std::time::Instant;
use tailguard::{max_load, max_load_many, measure_at_load};
use tailguard_policy::Policy;
use tailguard_testbed::run_testbed;

/// Fewest timed repetitions behind a reported median.
const MIN_REPS: usize = 5;
/// Set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 5;

const MIB: f64 = 1024.0 * 1024.0;

/// Times `rep` repeatedly after one untimed warm call: at least
/// [`MIN_REPS`] times, and until `seconds` of timed work have accumulated.
/// Returns each repetition's (wall s, CPU s).
fn timed_reps(seconds: f64, mut rep: impl FnMut()) -> Vec<(f64, f64)> {
    rep();
    let mut out = Vec::new();
    let mut total = 0.0;
    while out.len() < MIN_REPS || total < seconds {
        let (cpu0, t0) = (cpu_seconds(), Instant::now());
        rep();
        let wall = t0.elapsed().as_secs_f64();
        out.push((wall, cpu_seconds() - cpu0));
        total += wall;
    }
    out
}

/// Seconds of each of [`SETUP_REPS`] calls of `setup`, after one untimed
/// call (the first set-up in a process also pays for the allocator's first
/// pages, which doubles it at random). Returns the last call's product
/// too, so measuring set-up costs no extra build.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = Some(setup());
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), secs)
}

/// `queries_per_s` and `cpu_us_per_query` as medians over the timed
/// repetitions, each of which processed `queries` queries.
fn put_rates(out: &mut Outcome, reps: &[(f64, f64)], queries: u64) {
    let q = queries as f64;
    out.put_median("queries_per_s", reps.iter().map(|r| q / r.0).collect());
    out.put_median(
        "cpu_us_per_query",
        reps.iter().map(|r| r.1 * 1e6 / q).collect(),
    );
}

fn put_latency_metrics(out: &mut Outcome, s: &SimSummary) {
    out.put("query_p50_ms", s.p50_ms);
    out.put("query_p99_ms", s.p99_ms);
    out.put("slo_ratio_worst", s.slo_ratio_worst);
    out.put("slo_met_share", s.slo_met_share());
    out.put("served_share", s.served_share());
    println!("# class-0 latency samples: {}", s.class0_samples);
}

/// One simulated workload, untraced.
pub fn run_sim(kind: SimKind, seed: u64, seconds: f64, scale: f64) -> Outcome {
    let mut out = Outcome::default();
    let (case, setup_secs) = timed_setup(|| {
        let case = sim_case(kind, seed, scale);
        let types = query_types(&case.input);
        std::hint::black_box(cold_budgets(&case.config, &types));
        case
    });

    let mut summaries: Vec<SimSummary> = Vec::new();
    let reps = timed_reps(seconds, || {
        let mut report = run_once(kind, &case);
        summaries.push(SimSummary::of(
            &mut report,
            case.queries(),
            case.config.warmup_queries,
        ));
    });
    // The warm run's summary is first; every timed one must equal it.
    let s = summaries[0].clone();
    out.check(
        "simulated results identical across repetitions",
        summaries.iter().all(|x| *x == s),
    );
    out.check(
        "query conservation: completed+rejected+failed+partial+unresolved == offered",
        s.conserved,
    );
    if case.config.lease.is_some() || case.config.faults.is_none() {
        out.check("no query left unresolved", s.unresolved == 0);
    }

    put_rates(&mut out, &reps, s.completed);
    out.put_median("setup_s", setup_secs);
    put_latency_metrics(&mut out, &s);
    // Untimed: TF-EDFQ's capacity on this workload's own scenario.
    let opts = search_opts(capacity_probe_queries(kind, scale));
    out.put("max_load", max_load(&case.scenario, Policy::TfEdf, &opts));
    out.put("peak_rss_mb", peak_rss_bytes() / MIB);
    out.attempted = s.offered * reps.len() as u64;
    out.failed = s.unresolved * reps.len() as u64;
    out
}

/// The Fig. 5 search over four policies, untraced.
pub fn run_maxload(seed: u64, seconds: f64, scale: f64) -> Outcome {
    let mut out = Outcome::default();
    let (
        MaxLoadCase {
            scenario,
            opts,
            jobs,
        },
        setup_secs,
    ) = timed_setup(|| {
        let case = maxload_case(seed, scale);
        let input = case.scenario.input(0.5, case.opts.queries);
        let config = case.scenario.config(Policy::TfEdf);
        std::hint::black_box(cold_budgets(&config, &query_types(&input)));
        case
    });

    let mut results: Vec<Vec<(Policy, f64)>> = Vec::new();
    let reps = timed_reps(seconds, || {
        results.push(max_load_many(&scenario, &Policy::ALL, &opts, jobs));
    });
    out.check(
        "max loads identical across repetitions",
        results.iter().all(|r| *r == results[0]),
    );
    let probes: u64 = results[0]
        .iter()
        .map(|&(_, load)| maxload_probes(load, &opts))
        .sum();
    let simulated = probes * opts.queries as u64;
    let tedf = results[0]
        .iter()
        .find(|(p, _)| *p == Policy::TfEdf)
        .map_or(opts.lo, |&(_, load)| load);

    // The claim behind `max_load`, re-run: at that load every query type
    // meets its SLO. The same run supplies the latency metrics.
    let mut at_max = measure_at_load(&scenario, Policy::TfEdf, tedf, &opts);
    out.check(
        "every SLO met at the reported max load",
        at_max.meets_all_slos(),
    );
    let warmup = (opts.queries as f64 * opts.warmup_fraction) as usize;
    let s = SimSummary::of(&mut at_max, opts.queries, warmup);
    out.check(
        "query conservation at max load",
        s.conserved && s.unresolved == 0,
    );

    put_rates(&mut out, &reps, simulated);
    out.put_median("setup_s", setup_secs);
    put_latency_metrics(&mut out, &s);
    out.put("max_load", tedf);
    out.put("peak_rss_mb", peak_rss_bytes() / MIB);
    out.attempted = simulated * reps.len() as u64;
    out
}

/// Back-to-back live runs behind each `testbed_live` median. A host stall
/// of a second or two — they happen on shared VMs — ruins the p99 of
/// whichever run it hits; with three, the median run still stands.
const TESTBED_SEGMENTS: u64 = 3;

/// The live tokio testbed, untraced: [`TESTBED_SEGMENTS`] open-loop runs
/// on the wall clock sharing `seconds` of serving time, each with its own
/// calibration; every metric is the median over the runs.
pub fn run_testbed_live(seed: u64, seconds: f64, scale: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut samples: Vec<(&str, Vec<f64>)> = [
        "queries_per_s",
        "cpu_us_per_query",
        "setup_s",
        "query_p50_ms",
        "query_p99_ms",
        "slo_ratio_worst",
        "slo_met_share",
        "served_share",
    ]
    .map(|name| (name, Vec::new()))
    .into();
    let (mut conserved, mut panics, mut class0_samples) = (true, 0, 0);
    for segment in 0..TESTBED_SEGMENTS {
        let config = testbed_config(
            seed.wrapping_add(segment << 32),
            seconds / TESTBED_SEGMENTS as f64,
            scale,
        );
        let (cpu0, t0) = (cpu_seconds(), Instant::now());
        let mut report = run_testbed(&config);
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
        let measured_s = report.elapsed_wall_ms / 1000.0;

        let offered = config.queries as u64;
        let completed = report.completed_queries as f64;
        let r = &report.robustness;
        let resolved = report.completed_queries
            + report.rejected_queries
            + r.failed_queries
            + r.partial_completions;
        conserved &= resolved == offered;
        panics += report.worker_panics;
        out.attempted += offered;
        out.failed += offered - resolved.min(offered);

        // As in the simulator's summary: a class with fewer than 1000
        // samples (class C here) has too few beyond its p99 to judge.
        let floor = report
            .latency_by_class
            .values()
            .map(tailguard_metrics::LatencyReservoir::len)
            .max()
            .unwrap_or(0)
            .min(1000);
        let (mut over_slo, mut worst) = (0.0, 0.0f64);
        for (class, slo) in report.slos.clone().iter().enumerate() {
            let class = class as u8;
            let Some(res) = report.latency_by_class.get(&class) else {
                continue;
            };
            over_slo += res.exceed_ratio(*slo) * res.len() as f64;
            if res.len() >= floor {
                worst = worst.max(report.class_p99_ms(class) / slo.as_millis_f64());
            }
        }
        let class0 = report.latency_by_class.get_mut(&0).expect("class 0 ran");
        class0_samples += class0.len();
        // Calibration and store generation are set-up, not serving; their
        // (sleep-dominated) CPU is charged to the queries all the same.
        let values = [
            completed / measured_s,
            cpu * 1e6 / completed,
            wall - measured_s,
            class0.percentile(0.5).as_millis_f64(),
            class0.percentile(0.99).as_millis_f64(),
            worst,
            (completed - over_slo) / offered as f64,
            completed / offered as f64,
        ];
        for ((_, v), x) in samples.iter_mut().zip(values) {
            v.push(x);
        }
    }
    out.check("query conservation on the testbed", conserved);
    out.check("no worker panicked", panics == 0);
    println!("# class-0 latency samples: {class0_samples}");
    for (name, values) in samples {
        out.put_median(name, values);
    }
    // The live cluster cannot be searched on the wall clock; its capacity
    // is that of its simulation twin (same scenario, TF-EDFQ).
    let mut twin = tailguard::scenarios::sas_testbed();
    twin.seed = seed;
    let opts = search_opts(if scale < 1.0 { 2_000 } else { 40_000 });
    out.put("max_load", max_load(&twin, Policy::TfEdf, &opts));
    out.put("peak_rss_mb", peak_rss_bytes() / MIB);
    out
}
