//! `tailguard` — the command-line interface to the TailGuard reproduction.
//!
//! ```text
//! tailguard sim       run one cluster simulation
//! tailguard maxload   bisect for the max load meeting all SLOs
//! tailguard sweep     per-class p99 across a list of loads
//! tailguard faults    fault matrix × policy sweep with mitigation
//! tailguard testbed   run the tokio Sensing-as-a-Service testbed
//! tailguard trace     flight-record a run and summarize/export the trace
//! tailguard slo       run the online SLO monitor and report burn rates
//! tailguard gentrace  generate a JSON query trace on stdout
//! tailguard workloads print the calibrated Table II statistics
//! tailguard budgets   show Eq. 6 pre-dequeuing budgets
//! tailguard scenarios list built-in paper scenarios
//! ```

// Printing reports to stdout is the CLI's job.
#![allow(clippy::print_stdout)]
mod args;
mod chart;
mod commands;

use args::Args;
use std::process::ExitCode;

const HELP: &str = "\
tailguard — TailGuard (ICDCS 2023) reproduction CLI

USAGE:
    tailguard <command> [options]

COMMANDS (an option the invocation does not read is an error):
    sim        Run one cluster simulation and print per-type tails
               <scenario> <run> --warmup <n> --json  --drift diurnal
               --drift-period <ms> --drift-amplitude <a> | --drift flashcrowd
               --drift-from <ms> --drift-to <ms> --drift-factor <x>
    maxload    Bisect for the maximum load meeting all SLOs  <scenario>
               --policies all|<p,p,...> --queries <n> --tolerance <frac>
               --jobs <n> (policies in parallel) --json
    sweep      Per-class p99 at each load  <scenario> --policy <p>
               --loads <f,f,...> --queries <n> --jobs <n> (loads in parallel)
    faults     Fault matrix: each policy healthy / faulty / mitigated
               <scenario> --policies ... --load <frac> --queries <n>
               --fault slowdown|ramp|flap (--factor <x>; flap: --flap-period
               <ms>) | stall|drop|crash|restart|dup (all: --fault-servers <n>)
               | random (--episodes <n>)  --fault-from <ms> --fault-to <ms>
               --lease-ms <ms> (crash-recovery lease TTL, above the longest
               service under the plan; crash/restart default to the widest
               class SLO or twice that service if longer)  --hedge <frac>
               --attempts <n> --quorum <frac> --jobs <n> --json
    testbed    Run the tokio SaS testbed (32 nodes, 4 clusters)  --policy <p>
               --load <frac> --queries <n> --scale <x> --probes <n>
               --store-days <n> --seed <n> --realtime
    trace      Flight-record one simulation  <scenario> <run> --ring <events>
               --sample <permille> --slow-after <ms> (tail-aware sampling),
               and one output: timelines, slack and miss-ratio summary (--top
               <k> --bin <ms> --snapshot-every <ms>) | --query <id> | --export
               jsonl|csv | --metrics or --json (--warmup <n> --snapshot-every
               <ms>)
    slo        Run one simulation under the online SLO attainment monitor:
               per-class attainment, multi-window burn rates, alerts
               <scenario> <run> --target <frac> --bucket <ms>
               --slow-buckets <n> --burn <x> --json
    gentrace   Generate a JSON or CSV query trace on stdout  --rate <q/ms>
               --queries <n> --classes <n> --seed <n> --arrival poisson|pareto
               --format json|csv --fanout paper|fixed:<k>|oldi|facebook
               (oldi, facebook: --servers <n>)
    workloads  Print the calibrated Tailbench statistics (Table II)  --json
    calibrate  Fit a service-time model to measured latencies
               --samples <path> --anchors <p,...> --fanouts <k,...> | --json
    budgets    Print Eq. 6 task budgets  --workload ... --slos <ms,...> |
               --slo <ms>  --fanouts <k,...>
    scenarios  List built-in paper scenarios
    <scenario> --workload masstree|shore|xapian --servers <n> --slos <ms,...>
               | --slo <ms>  --fanout paper|oldi|facebook|fixed:<k>
               --arrival poisson|pareto --seed <n>
    <run>      --policy fifo|priq|tedf|tfedf|sjf --load <frac> --queries <n>
               --admission <window_ms>:<threshold> --online

EXAMPLES:
    tailguard sim --workload masstree --policy tfedf --load 0.38
    tailguard faults --fault slowdown --factor 8 --policies tfedf,fifo
    tailguard maxload --workload xapian --slos 10,15 --fanout oldi --policies all
    tailguard testbed --policy tfedf --load 0.42
    tailguard trace --policy tfedf --load 0.4 --top 5
    tailguard slo --policy tfedf --load 0.5 --burn 2
    tailguard trace --export jsonl --queries 5000 > events.jsonl
    tailguard gentrace --rate 2 --queries 100000 > trace.json
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "-h" || raw[0] == "help" {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let command = raw[0].clone();
    let parsed = match Args::parse(raw.into_iter().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(stray) = parsed.positional().first() {
        eprintln!("error: unexpected positional argument `{stray}`");
        return ExitCode::FAILURE;
    }
    let result = match command.as_str() {
        "sim" => commands::cmd_sim(&parsed),
        "maxload" => commands::cmd_maxload(&parsed),
        "sweep" => commands::cmd_sweep(&parsed),
        "faults" => commands::cmd_faults(&parsed),
        "testbed" => commands::cmd_testbed(&parsed),
        "trace" => commands::cmd_trace(&parsed),
        "slo" => commands::cmd_slo(&parsed),
        "gentrace" => commands::cmd_gentrace(&parsed),
        "workloads" => commands::cmd_workloads(&parsed),
        "budgets" => commands::cmd_budgets(&parsed),
        "scenarios" => commands::cmd_scenarios(&parsed),
        "calibrate" => commands::cmd_calibrate(&parsed),
        other => Err(args::ArgError(format!(
            "unknown command `{other}` — run `tailguard --help`"
        ))),
    };
    match result {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
