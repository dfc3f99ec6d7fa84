//! Observability overhead: what does tracing cost the simulator hot path?
//!
//! Five single-thread measurements over the same fixed-seed scenario as
//! `perf_throughput`'s `single_sim_serial` (Masstree single-class, N=100,
//! load 0.5). Every overhead figure uses the same baseline and the same
//! direction: `wall(variant) / wall(nullsink) − 1`, so the rows are
//! directly comparable (an earlier revision mixed recording-only and
//! full-pipeline denominators, which made the "sink only" row read
//! *higher* than the full recorder).
//!
//!  - `nullsink` — plain [`run_simulation`]: the default `NullSink` with
//!    the cached `trace_on: false` fast path. This is the path every
//!    existing caller takes; the PR-4 acceptance bound is <2% regression
//!    against the committed seed baseline (`BENCH_throughput.json`).
//!  - `binrecorder` — [`run_simulation_traced`] into the
//!    [`BinaryRecorder`] at [`FLIGHT_RING_CAPACITY`]: batched event
//!    delivery, fixed-width encode into a staging buffer, one block-move
//!    flush into the ring per `FLUSH_EVENTS` batch, ring and staging
//!    block cache-resident. Recording only — no snapshots, no decode, no
//!    registry. The always-on configuration and the PR-9 headline row;
//!    acceptance is ≤15% over `nullsink`.
//!  - `binrecorder_fullring` — the same recorder at
//!    [`DEFAULT_RING_CAPACITY`], which retains this run's entire ~28 MiB
//!    event stream. Identical encode path; the extra cost over
//!    `binrecorder` is purely retention volume (cold first-touch pages),
//!    the price of whole-run analysis (`tailguard trace`), not of
//!    recording per se.
//!  - `binrecorder_sampled` — the flight-capacity recorder with
//!    tail-aware sampling at the default 1% healthy keep rate: per-query
//!    staging adds bookkeeping but the retained volume shrinks ~50×.
//!  - `observed_pipeline` — [`run_simulation_observed`] with default
//!    options: full-capacity recording plus snapshot sampling, post-run
//!    decode, the SLO monitor, and registry ingestion. The end-to-end
//!    cost of `tailguard trace`/`slo`, not a recording figure.
//!
//! Results go to `BENCH_obs.json` at the repo root; if the committed
//! `BENCH_throughput.json` is present, the nullsink row is also compared
//! against its `single_sim_serial` queries/sec.
//!
//! Run with `cargo bench --bench obs_overhead`. `TG_BENCH_SCALE` scales
//! the query count. `TG_OBS_BUDGET_PCT=<pct>` turns the run into a CI
//! smoke check: exit non-zero if the `binrecorder` overhead exceeds the
//! budget.

use std::time::Instant;
use tailguard::{
    run_simulation, run_simulation_observed, run_simulation_traced, scenarios, ObsOptions,
    DEFAULT_RING_CAPACITY, FLIGHT_RING_CAPACITY,
};
use tailguard_bench::{header, scaled};
use tailguard_obs::{BinaryRecorder, SamplerConfig};
use tailguard_policy::Policy;
use tailguard_workload::TailbenchWorkload;

#[derive(Clone)]
struct Measurement {
    label: String,
    wall_secs: f64,
    events: u64,
    queries_completed: u64,
    trace_events: u64,
}

impl Measurement {
    fn queries_per_sec(&self) -> f64 {
        self.queries_completed as f64 / self.wall_secs
    }

    fn overhead_pct(&self, baseline: &Measurement) -> f64 {
        (self.wall_secs / baseline.wall_secs - 1.0) * 100.0
    }
}

/// Best-of-15 per variant with the repetitions interleaved round-robin and
/// the in-round order *shuffled* every round (fixed-seed xorshift, so runs
/// are reproducible). Interleaving spreads slow drift in shared-host CPU
/// speed across all variants. The shuffle matters more than it looks: with
/// a fixed or merely rotated order each variant's *predecessor* is
/// constant, and the allocator/page state a predecessor leaves behind
/// biases the successor's reading by several points (a variant that frees
/// tens of MiB hands its successor pre-faulted pages; one that allocates
/// nothing hands it cold ones). Shuffling lets every variant sample many
/// predecessors and best-of-N keep its fairest draw. Each variant gets one
/// warm run first.
fn measure_interleaved(
    variants: &mut [(&str, &mut dyn FnMut() -> (u64, u64, u64))],
) -> Vec<Measurement> {
    for (_, run) in variants.iter_mut() {
        let _ = run(); // warm
    }
    let n = variants.len();
    let mut best: Vec<Option<Measurement>> = variants.iter().map(|_| None).collect();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut order: Vec<usize> = (0..n).collect();
    for _round in 0..15 {
        for j in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(j, (state % (j as u64 + 1)) as usize);
        }
        for k in 0..n {
            let i = order[k];
            let (label, run) = &mut variants[i];
            let start = Instant::now();
            let (events, queries_completed, trace_events) = run();
            let wall_secs = start.elapsed().as_secs_f64();
            if best[i].as_ref().is_none_or(|b| wall_secs < b.wall_secs) {
                best[i] = Some(Measurement {
                    label: label.to_string(),
                    wall_secs,
                    events,
                    queries_completed,
                    trace_events,
                });
            }
        }
    }
    best.into_iter().map(|m| m.expect("measured")).collect()
}

fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
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
        "obs_overhead",
        "PR-4/PR-9 observability",
        "NullSink vs binary recording vs full pipeline on the simulator hot path (best of 15)",
    );
    let queries = scaled(60_000);
    let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
    let input = scenario.input(0.5, queries);
    let config = scenario.config(Policy::TfEdf).with_warmup(queries / 20);

    let mut run_null = || {
        let report = run_simulation(&config, &input);
        (report.events_processed, report.completed_queries, 0)
    };
    let mut run_bin = || {
        let recorder = BinaryRecorder::with_capacity(FLIGHT_RING_CAPACITY);
        let report = run_simulation_traced(&config, &input, recorder.sink());
        (
            report.events_processed,
            report.completed_queries,
            recorder.total_recorded(),
        )
    };
    let mut run_bin_fullring = || {
        let recorder = BinaryRecorder::with_capacity(DEFAULT_RING_CAPACITY);
        let report = run_simulation_traced(&config, &input, recorder.sink());
        (
            report.events_processed,
            report.completed_queries,
            recorder.total_recorded(),
        )
    };
    let mut run_bin_sampled = || {
        let recorder = BinaryRecorder::with_capacity(FLIGHT_RING_CAPACITY);
        let sink = recorder.sink_sampled(SamplerConfig::default());
        let report = run_simulation_traced(&config, &input, sink);
        (
            report.events_processed,
            report.completed_queries,
            recorder.total_recorded(),
        )
    };
    let mut run_observed = || {
        let run = run_simulation_observed(&config, &input, &ObsOptions::default());
        (
            run.report.events_processed,
            run.report.completed_queries,
            run.recorder.total_recorded(),
        )
    };
    let measured = measure_interleaved(&mut [
        ("nullsink", &mut run_null),
        ("binrecorder", &mut run_bin),
        ("binrecorder_fullring", &mut run_bin_fullring),
        ("binrecorder_sampled", &mut run_bin_sampled),
        ("observed_pipeline", &mut run_observed),
    ]);
    let nullsink = measured[0].clone();

    for m in &measured {
        let overhead = if m.label == "nullsink" {
            String::new()
        } else {
            format!("  {:+.1}% vs nullsink", m.overhead_pct(&nullsink))
        };
        println!(
            "{:<20} {:>10.0} queries/s  ({:.3}s wall, {} engine events, {} trace events){overhead}",
            m.label,
            m.queries_per_sec(),
            m.wall_secs,
            m.events,
            m.trace_events
        );
    }
    let bin_pct = measured[1].overhead_pct(&nullsink);
    let bin_fullring_pct = measured[2].overhead_pct(&nullsink);
    let bin_sampled_pct = measured[3].overhead_pct(&nullsink);
    let observed_pct = measured[4].overhead_pct(&nullsink);
    println!("binary recording overhead vs nullsink: {bin_pct:+.1}% (acceptance: <=15%)");

    // Regression check against the committed seed throughput baseline.
    let root = repo_root();
    let seed_delta_pct = std::fs::read_to_string(root.join("BENCH_throughput.json"))
        .ok()
        .as_deref()
        .and_then(|text| json_number(text, "queries_per_sec"))
        .map(|seed_qps| {
            let pct = (nullsink.queries_per_sec() / seed_qps - 1.0) * 100.0;
            println!(
                "nullsink vs committed seed baseline: {:.0} vs {seed_qps:.0} queries/s \
                 ({pct:+.1}%, acceptance: no worse than -2% on comparable hardware)",
                nullsink.queries_per_sec()
            );
            pct
        });

    let mut rows = String::new();
    for m in &measured {
        rows.push_str(&format!(
            "    {{\"label\": \"{}\", \"wall_secs\": {:.4}, \"events\": {}, \"queries_completed\": {}, \"trace_events\": {}, \"queries_per_sec\": {:.0}}},\n",
            m.label, m.wall_secs, m.events, m.queries_completed, m.trace_events, m.queries_per_sec()
        ));
    }
    rows.pop();
    rows.pop(); // trailing ",\n"
    let seed_field = match seed_delta_pct {
        Some(pct) => format!("{pct:.1}"),
        None => "null".to_string(),
    };
    let out = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"queries\": {queries},\n  \
         \"binrecorder_overhead_pct\": {bin_pct:.1},\n  \
         \"binrecorder_fullring_overhead_pct\": {bin_fullring_pct:.1},\n  \
         \"binrecorder_sampled_overhead_pct\": {bin_sampled_pct:.1},\n  \
         \"observed_pipeline_overhead_pct\": {observed_pct:.1},\n  \
         \"nullsink_vs_seed_baseline_pct\": {seed_field},\n  \
         \"measurements\": [\n{rows}\n  ]\n}}\n"
    );
    let path = root.join("BENCH_obs.json");
    std::fs::write(&path, out).expect("write BENCH_obs.json");
    println!("wrote {}", path.display());

    // CI smoke mode: fail the run if binary recording blew its budget.
    if let Some(budget) = std::env::var("TG_OBS_BUDGET_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        if bin_pct > budget {
            eprintln!(
                "FAIL: binrecorder overhead {bin_pct:+.1}% exceeds the TG_OBS_BUDGET_PCT budget of {budget}%"
            );
            std::process::exit(1);
        }
        println!("binrecorder overhead {bin_pct:+.1}% within the {budget}% budget");
    }
}
