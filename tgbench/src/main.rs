//! `tgbench` — the repository's benchmark.
//!
//! ```text
//! tgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! runs one workload in this process and prints its metrics, its output
//! checks and — as the last line — one JSON result. `--trace 0` measures
//! the end-to-end metrics with nothing of the benchmark's in the way;
//! `--trace 1` captures the workload's `TraceEvent` stream once and
//! replays each layer's operations into that layer's public API to
//! produce the per-layer cost ledger.
//!
//! Without `--workload` it runs every workload, untraced and traced, each
//! in its own child process, writes `results/latest.json`, appends one
//! line to `results/history.jsonl`, and exits non-zero if any output check
//! failed. `--selfcheck` does that twice and compares the two (A/A).
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! the replay method.

mod e2e;
mod host;
mod ledger;
mod outcome;
mod replay;
mod replay_obs;
mod sim;
mod spans;
mod spec;
mod suite;
mod workloads;

use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, QUICK_SCALE};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub workload: Option<String>,
    pub traced: bool,
    pub seconds: Option<f64>,
    pub quick: bool,
    pub out: PathBuf,
    pub selfcheck: bool,
}

fn usage() -> String {
    "usage: tgbench [--seed N] [--workload NAME] [--trace 0|1 | --traced] [--seconds S] \
     [--quick] [--out DIR] [--selfcheck]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        traced: false,
        seconds: None,
        quick: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results"),
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload" => args.workload = Some(value()?.clone()),
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Some(s);
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result.
fn run_one(spec: &Spec, args: &Args, name: &str) -> Result<bool, String> {
    let workload = Workload::parse(name)
        .filter(|_| spec.workloads.iter().any(|w| w == name))
        .ok_or_else(|| format!("unknown workload {name}; known: {:?}", spec.workloads))?;
    let scale = if args.quick { QUICK_SCALE } else { 1.0 };
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 0.05 } else { spec.run_seconds });
    println!(
        "# workload {name} seed {} trace {}",
        args.seed,
        u8::from(args.traced)
    );
    let outcome = if args.traced {
        ledger::run(workload, name, args.seed, seconds, scale, &args.out)
    } else {
        match workload {
            Workload::Sim(kind) => e2e::run_sim(kind, args.seed, seconds, scale),
            Workload::MaxLoad => e2e::run_maxload(args.seed, seconds, scale),
            Workload::Testbed => e2e::run_testbed_live(args.seed, seconds, scale),
        }
    };
    outcome.print(spec.metrics(args.traced), args.traced);
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let ok = match &args.workload {
        Some(name) => run_one(&spec, &args, name),
        None if args.selfcheck => suite::selfcheck(&spec, &args),
        None => suite::run_all(&spec, &args).map(|r| r.correct),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("tgbench: an output check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("tgbench: {e}");
            ExitCode::from(2)
        }
    }
}
