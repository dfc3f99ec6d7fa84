//! Malformed option values make `tailguard` exit 1 with an error that
//! names the flag, and print nothing on stdout: every command reads all of
//! its options before a simulation or the testbed starts.
//!
//! Each numeric flag is fed the bad values that apply to its kind: NaN,
//! `inf` (where the kind must be finite), 0 (where it must be positive), a
//! negative value, a non-number and a value past the kind's range or
//! integer width. Durations also get a value that rounds to 0 ns.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Values every real-valued flag must reject.
const REAL_BAD: &[&str] = &["nan", "-1", "abc"];
/// Values every integer flag must reject.
const INT_BAD: &[&str] = &["nan", "-1", "abc", "1.5", "18446744073709551616"];
/// A duration of 0.1 ns rounds to 0 ns.
const SUB_NS: &str = "0.0000001";

/// `(command and fixed context, flag, extra bad values beyond its kind's)`.
/// The flag's value is appended after the context.
type Case = (
    &'static [&'static str],
    &'static str,
    &'static [&'static str],
);

const REALS: &[Case] = &[
    (&["sim"], "load", &["inf", "0", "5"]),
    (&["sim"], "slo", &["0", SUB_NS]),
    (&["sim"], "slos", &["0", "1,nan", SUB_NS]),
    (
        &["sim", "--drift", "diurnal"],
        "drift-period",
        &["0", SUB_NS],
    ),
    (
        &["sim", "--drift", "diurnal"],
        "drift-amplitude",
        &["inf", "1", "1.5"],
    ),
    (&["sim", "--drift", "flashcrowd"], "drift-from", &["inf"]),
    (&["sim", "--drift", "flashcrowd"], "drift-to", &["0"]),
    (
        &["sim", "--drift", "flashcrowd"],
        "drift-factor",
        &["inf", "0"],
    ),
    (&["maxload"], "tolerance", &["inf", "0"]),
    (&["sweep"], "loads", &["inf", "0", "5", "0.2,nan"]),
    (&["faults"], "factor", &["inf", "0", "1"]),
    (&["faults"], "fault-from", &["inf"]),
    (&["faults"], "fault-to", &["0"]),
    (
        &["faults", "--fault", "flap"],
        "flap-period",
        &["0", SUB_NS],
    ),
    (&["faults"], "lease-ms", &["inf", SUB_NS]),
    (&["faults"], "hedge", &["inf", "0"]),
    (&["faults"], "quorum", &["inf", "0", "1.5"]),
    (&["testbed"], "scale", &["inf", "0"]),
    (&["testbed"], "load", &["inf", "0", "5"]),
    (&["trace"], "bin", &["0", SUB_NS]),
    (&["trace"], "snapshot-every", &["0", SUB_NS]),
    (&["trace"], "slow-after", &["0", SUB_NS]),
    (&["slo"], "target", &["inf", "0", "1"]),
    (&["slo"], "bucket", &["0", SUB_NS]),
    (&["slo"], "burn", &["inf", "0"]),
    (&["gentrace"], "rate", &["inf", "0"]),
    (&["budgets"], "slos", &["0", SUB_NS]),
    (&["budgets"], "slo", &["0"]),
    (
        &["calibrate", "--samples", "missing.txt"],
        "anchors",
        &["0", "1.5"],
    ),
];

const INTS: &[Case] = &[
    (&["sim"], "servers", &["0", "4294967297"]),
    (&["sim"], "seed", &[]),
    (&["sim"], "queries", &["0"]),
    (&["sim"], "warmup", &[]),
    (&["maxload"], "queries", &["0"]),
    (&["maxload"], "jobs", &["0"]),
    (&["sweep"], "queries", &["0"]),
    (&["sweep"], "jobs", &["0"]),
    (&["faults"], "queries", &["0"]),
    (&["faults"], "fault-servers", &["0", "101", "4294967297"]),
    (&["faults", "--fault", "random"], "episodes", &["0"]),
    (&["faults"], "attempts", &["0", "4294967297"]),
    (&["testbed"], "queries", &["0"]),
    (&["testbed"], "probes", &[]),
    (&["testbed"], "store-days", &["0", "541", "5000000000"]),
    (&["trace"], "top", &[]),
    (&["trace"], "query", &["4294967296"]),
    (&["trace"], "ring", &["0"]),
    (&["trace"], "sample", &["1001", "65536"]),
    (&["slo"], "slow-buckets", &["0"]),
    (&["gentrace"], "queries", &["0"]),
    (&["gentrace"], "classes", &["0", "256", "257"]),
    (
        &["gentrace", "--fanout", "oldi"],
        "servers",
        &["0", "4294967297"],
    ),
    (
        &["budgets"],
        "fanouts",
        &["0", "2.5", "1,2.5", "4294967296"],
    ),
    (
        &["calibrate", "--samples", "missing.txt"],
        "fanouts",
        &["0", "2.5"],
    ),
];

/// Composite values: `--admission <window_ms>:<threshold>`.
const ADMISSION_BAD: &[&str] = &[
    "nan:0.01",
    "0:0.01",
    "-1:0.01",
    "abc:0.01",
    "0.0000001:0.01",
    "10:nan",
    "10:inf",
    "10:0",
    "10:1",
    "10:-1",
    "10:abc",
    "10",
];

/// Runs `tailguard args…` and returns `(exit code, stdout, stderr)`,
/// failing the test if the process outlives `limit`.
fn run(args: &[String], limit: Duration) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tailguard"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let start = Instant::now();
    while child.try_wait().expect("wait").is_none() {
        if start.elapsed() > limit {
            child.kill().ok();
            child.wait().ok();
            panic!("tailguard {} still ran after {limit:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let out = child.wait_with_output().expect("output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every `(args, flag)` pair must fail fast with exit 1, an `error:` line
/// naming `--flag`, and no stdout. The error is about the value: an option
/// the invocation does not read is a case that checks nothing.
fn assert_rejected<'a>(cases: impl IntoIterator<Item = (Vec<String>, &'a str)>) {
    let mut wrong = Vec::new();
    for (args, flag) in cases {
        let (code, stdout, stderr) = run(&args, Duration::from_secs(30));
        let named = stderr.starts_with("error: ")
            && !stderr.starts_with("error: unknown option")
            && stderr.contains(&format!("--{flag}"));
        if code != Some(1) || !named || !stdout.is_empty() {
            wrong.push(format!(
                "tailguard {}: exit {code:?}, stderr {:?}, {} bytes of stdout",
                args.join(" "),
                stderr.trim(),
                stdout.len()
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// `args` as owned strings, paired with the flag the error must name.
fn case<'a>(args: &[&str], flag: &'a str) -> (Vec<String>, &'a str) {
    (args.iter().map(ToString::to_string).collect(), flag)
}

/// Each case's context plus `--flag <value>`, for its kind's bad values
/// and its own.
fn table(cases: &[Case], kind_bad: &[&str]) -> Vec<(Vec<String>, &'static str)> {
    let mut out = Vec::new();
    for &(context, flag, extra) in cases {
        for &value in kind_bad.iter().chain(extra) {
            let (mut args, flag) = case(context, flag);
            args.extend([format!("--{flag}"), value.to_string()]);
            out.push((args, flag));
        }
    }
    out
}

#[test]
fn bad_reals_name_their_flag() {
    assert_rejected(table(REALS, REAL_BAD));
}

#[test]
fn bad_integers_name_their_flag() {
    assert_rejected(table(INTS, INT_BAD));
}

#[test]
fn bad_admission_specs_name_the_flag() {
    assert_rejected(
        ADMISSION_BAD
            .iter()
            .map(|&spec| case(&["sim", "--admission", spec], "admission")),
    );
}

/// Inputs that panicked, hung or ran with another value before every
/// value was read through a typed accessor.
#[test]
fn formerly_mishandled_inputs_are_errors() {
    assert_rejected([
        case(&["gentrace", "--rate", "nan"], "rate"),
        case(&["gentrace", "--rate", "inf"], "rate"),
        case(&["budgets", "--slos", "-1"], "slos"),
        case(&["budgets", "--slos", "nan"], "slos"),
        case(&["sim", "--slos", "nan"], "slos"),
        case(&["sim", "--admission", "nan:0.01"], "admission"),
        case(&["trace", "--bin", "nan"], "bin"),
        case(&["trace", "--snapshot-every", "nan"], "snapshot-every"),
        case(&["trace", "--snapshot-every", SUB_NS], "snapshot-every"),
        case(&["sim", "--slo", "abc"], "slo"),
        case(&["sim", "--load", "--queries", "300"], "load"),
        case(&["budgets", "--fanouts", "2.5"], "fanouts"),
        case(&["gentrace", "--classes", "257"], "classes"),
        case(&["gentrace", "--classes", "256"], "classes"),
        case(
            &["gentrace", "--fanout", "oldi", "--servers", "4294967297"],
            "servers",
        ),
        case(&["slo", "--bucket", "nan"], "bucket"),
        case(&["trace", "--slow-after", "nan"], "slow-after"),
        case(&["faults", "--fault-from", "nan"], "fault-from"),
        case(&["maxload", "--queries", "0"], "queries"),
        // A lease no longer than the longest service under the plan
        // (Masstree's 0.70 ms under the default 8× slowdown) reclaimed and
        // redispatched live tasks without end.
        case(
            &[
                "faults",
                "--queries",
                "1000",
                "--servers",
                "10",
                "--fanout",
                "fixed:2",
                "--policies",
                "tfedf",
                "--lease-ms",
                "0.5",
            ],
            "lease-ms",
        ),
        case(&["faults", "--lease-ms", "5.6"], "lease-ms"),
    ]);
}

#[test]
fn bare_value_options_and_valued_switches_are_errors() {
    assert_rejected([
        case(&["trace", "--bin", "--top", "2"], "bin"),
        case(&["sweep", "--loads"], "loads"),
        case(&["sim", "--json", "yes"], "json"),
        case(&["testbed", "--realtime=false"], "realtime"),
    ]);
}

/// Options a command once listed but never read are unknown: the error
/// comes before the testbed calibrates or a trace is drawn.
#[test]
fn options_a_command_ignores_are_unknown() {
    let cases = [
        case(&["testbed", "--json"], "json"),
        case(&["gentrace", "--workload", "masstree"], "workload"),
    ];
    for (args, flag) in &cases {
        let (code, stdout, stderr) = run(args, Duration::from_secs(5));
        assert!(
            code == Some(1)
                && stdout.is_empty()
                && stderr.starts_with(&format!("error: unknown option --{flag} ")),
            "tailguard {}: exit {code:?}, {stderr}",
            args.join(" ")
        );
    }
}
