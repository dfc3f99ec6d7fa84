//! The whole benchmark in one command: every workload, untraced then
//! traced, each in its own child process (so `peak_rss_mb` and cold-start
//! numbers belong to one workload), sequentially. Writes
//! `results/latest.json`, appends to `results/history.jsonl`, and — for
//! `--selfcheck` — runs twice and compares the runs against the bounds in
//! `BENCHMARK.json`.

use crate::host::{git_sha, median, quantile, rustc_version};
use crate::spec::{MetricDef, Spec};
use crate::Args;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::Command;

/// End-to-end metrics that are simulated, hence exactly repeatable on
/// every workload but the live testbed.
const SIMULATED: [&str; 6] = [
    "query_p50_ms",
    "query_p99_ms",
    "slo_ratio_worst",
    "slo_met_share",
    "served_share",
    "max_load",
];
const LIVE_WORKLOAD: &str = "testbed_live";

/// One child run, parsed.
struct ChildRun {
    values: BTreeMap<String, f64>,
    detail: Value,
    correct: bool,
}

/// Everything one pass over all workloads measured.
pub struct SuiteResult {
    pub correct: bool,
    /// workload → trace mode (`false` = end-to-end) → metric → value.
    runs: BTreeMap<String, BTreeMap<bool, ChildRun>>,
}

fn run_child(args: &Args, workload: &str, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    // stderr is inherited; wait_with_output reaps the child.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        values: BTreeMap::new(),
        detail: Value::Null,
        correct: false,
    };
    let mut last = "";
    for line in stdout.lines() {
        last = line;
        if let Some(json) = line.strip_prefix("#detail ") {
            run.detail = serde_json::from_str(json).unwrap_or(Value::Null);
        } else if !line.starts_with('{') {
            println!("{line}");
            let mut words = line.split(' ');
            if let (Some(name), Some(value), Some(_unit), None) =
                (words.next(), words.next(), words.next(), words.next())
            {
                if let Ok(v) = value.parse::<f64>() {
                    run.values.insert(name.to_string(), v);
                }
            }
        }
    }
    let result: Value = serde_json::from_str(last).unwrap_or(Value::Null);
    run.correct =
        output.status.success() && result.get("correct").and_then(Value::as_bool) == Some(true);
    if !run.correct {
        println!(
            "check FAILED {workload} (trace {}) did not pass",
            u8::from(traced)
        );
    }
    Ok(run)
}

fn metrics_json(run: &ChildRun, defs: &[MetricDef], with_samples: bool) -> Value {
    Value::Map(
        defs.iter()
            .filter_map(|d| {
                let v = *run.values.get(&d.name)?;
                let mut entry = Value::F64(v);
                if with_samples {
                    let mut fields = vec![
                        ("value".to_string(), Value::F64(v)),
                        ("unit".to_string(), Value::Str(d.unit.clone())),
                    ];
                    if let Some(Value::Map(stats)) = run.detail.get(&d.name) {
                        fields.extend(stats.iter().cloned());
                    }
                    entry = Value::Map(fields);
                }
                Some((d.name.clone(), entry))
            })
            .collect(),
    )
}

impl SuiteResult {
    /// `header` fields, then every workload's metrics — as bare values for
    /// the history line, with units and raw samples for `latest.json`.
    fn to_json(&self, spec: &Spec, header: &[(String, Value)], with_samples: bool) -> Value {
        let workloads = self
            .runs
            .iter()
            .map(|(name, modes)| {
                let mut fields = Vec::new();
                for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                    if let Some(run) = modes.get(&traced) {
                        fields.push((
                            key.to_string(),
                            metrics_json(run, spec.metrics(traced), with_samples),
                        ));
                    }
                }
                (name.clone(), Value::Map(fields))
            })
            .collect();
        let mut fields = header.to_vec();
        fields.push(("workloads".into(), Value::Map(workloads)));
        Value::Map(fields)
    }

    fn value(&self, workload: &str, traced: bool, metric: &str) -> Option<f64> {
        self.runs
            .get(workload)?
            .get(&traced)?
            .values
            .get(metric)
            .copied()
    }
}

fn measure(spec: &Spec, args: &Args) -> Result<SuiteResult, String> {
    let mut result = SuiteResult {
        correct: true,
        runs: BTreeMap::new(),
    };
    for workload in &spec.workloads {
        for traced in [false, true] {
            let run = run_child(args, workload, traced)?;
            result.correct &= run.correct;
            result
                .runs
                .entry(workload.clone())
                .or_default()
                .insert(traced, run);
        }
    }
    Ok(result)
}

/// Runs every workload once, records the results.
pub fn run_all(spec: &Spec, args: &Args) -> Result<SuiteResult, String> {
    let result = measure(spec, args)?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let header = [
        ("git_sha".to_string(), Value::Str(git_sha())),
        ("rustc".to_string(), Value::Str(rustc_version())),
        (
            "nproc".to_string(),
            Value::U64(tailguard::default_jobs() as u64),
        ),
        ("seed".to_string(), Value::U64(args.seed)),
        ("quick".to_string(), Value::Bool(args.quick)),
        ("correct".to_string(), Value::Bool(result.correct)),
    ];
    let latest = args.out.join("latest.json");
    let pretty = serde_json::to_string_pretty(&result.to_json(spec, &header, true)).expect("json");
    std::fs::write(&latest, pretty + "\n").map_err(|e| format!("{}: {e}", latest.display()))?;
    let history = args.out.join("history.jsonl");
    let line = serde_json::to_string(&result.to_json(spec, &header, false)).expect("json");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("{}: {e}", history.display()))?;
    println!(
        "# wrote {} and appended to {}",
        latest.display(),
        history.display()
    );
    Ok(result)
}

/// Passes per side of the A/A comparison. One pass a side is not enough on
/// a shared machine: whole passes land on different host speed levels
/// (seen: 733k against 1069k queries/s for the same binary and seed).
const SELFCHECK_PASSES: usize = 3;

/// A/A: measures the same tree [`SELFCHECK_PASSES`] times a side, the sides
/// alternating, and fails when the two sides' medians of any end-to-end
/// metric differ by more than its bound, or when anything that must repeat
/// exactly (simulated metrics, trace-derived counts) does not. Prints every
/// metric's medians, difference and range, so a bound too tight for this
/// machine is seen here and not by the next PR.
pub fn selfcheck(spec: &Spec, args: &Args) -> Result<bool, String> {
    let mut sides: [Vec<SuiteResult>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..SELFCHECK_PASSES {
        for side in &mut sides {
            side.push(measure(spec, args)?);
        }
    }
    let passes = || sides.iter().flatten();
    let mut ok = passes().all(|p| p.correct);
    println!("# selfcheck: workload metric median_a median_b difference bound min..max verdict");
    for workload in &spec.workloads {
        let live = workload == LIVE_WORKLOAD;
        let values = |side: &[SuiteResult], traced: bool, metric: &str| -> Vec<f64> {
            side.iter()
                .filter_map(|p| p.value(workload, traced, metric))
                .collect()
        };
        for d in &spec.end_to_end {
            let (a, b) = (
                values(&sides[0], false, &d.name),
                values(&sides[1], false, &d.name),
            );
            if a.len() + b.len() < 2 * SELFCHECK_PASSES {
                ok = false;
                println!("selfcheck {workload} {} missing FAILED", d.name);
                continue;
            }
            let (x, y) = (median(&a), median(&b));
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let (lo, hi) = (quantile(&all, 0.0), quantile(&all, 1.0));
            let difference = (y - x) / x.abs();
            let bound = d.bound.unwrap_or(0.0);
            let exact = !live && SIMULATED.contains(&d.name.as_str());
            let pass = if exact {
                lo == hi
            } else {
                difference.abs() <= bound
            };
            ok &= pass;
            println!(
                "selfcheck {workload} {} {x} {y} {difference:+.4} {bound} {lo}..{hi} {}",
                d.name,
                if pass { "ok" } else { "FAILED" }
            );
        }
        for d in spec.per_layer.iter().filter(|d| d.unit == "count" && !live) {
            let mut counts = passes().map(|p| p.value(workload, true, &d.name));
            let first = counts.next().flatten();
            if counts.any(|c| c != first) {
                ok = false;
                println!("selfcheck {workload} {} count differs FAILED", d.name);
            }
        }
    }
    println!("# selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
