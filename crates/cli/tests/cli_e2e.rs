//! End-to-end tests of the compiled `tailguard` binary: real process
//! spawns, real stdout/stderr, real exit codes.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tailguard"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn help_lists_all_commands() {
    let o = run(&["--help"]);
    assert!(o.status.success());
    let out = stdout(&o);
    for cmd in [
        "sim",
        "maxload",
        "sweep",
        "testbed",
        "trace",
        "gentrace",
        "workloads",
        "budgets",
        "calibrate",
        "scenarios",
    ] {
        assert!(out.contains(cmd), "help missing `{cmd}`");
    }
    // Bare invocation prints the same help.
    let bare = run(&[]);
    assert!(bare.status.success());
    assert_eq!(stdout(&bare), out);
}

#[test]
fn workloads_prints_table2() {
    let o = run(&["workloads"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("Masstree"));
    assert!(out.contains("0.473"));
}

#[test]
fn budgets_match_paper_worked_example() {
    let o = run(&["budgets", "--workload", "masstree", "--slos", "1.0,1.5"]);
    assert!(o.status.success());
    let out = stdout(&o);
    assert!(out.contains("0.527"), "class-I fanout-100 budget:\n{out}");
    assert!(out.contains("1.027"), "class-II fanout-100 budget:\n{out}");
}

#[test]
fn sim_small_run_reports_types() {
    let o = run(&[
        "sim",
        "--queries",
        "3000",
        "--load",
        "0.3",
        "--policy",
        "tailguard",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("policy=TailGuard"));
    assert!(out.contains("fanout  100"));
}

#[test]
fn gentrace_pipes_json_and_csv() {
    let json = run(&["gentrace", "--queries", "30", "--seed", "9"]);
    assert!(json.status.success());
    assert!(stdout(&json).trim_start().starts_with('{'));

    let csv = run(&[
        "gentrace",
        "--queries",
        "30",
        "--seed",
        "9",
        "--format",
        "csv",
    ]);
    assert!(csv.status.success());
    assert!(stdout(&csv).starts_with("arrival_ns,class,fanout"));
    assert_eq!(stdout(&csv).trim().lines().count(), 31); // header + 30 rows
}

#[test]
fn trace_smoke_summarizes_a_tiny_scenario() {
    let o = run(&[
        "trace",
        "--queries",
        "300",
        "--servers",
        "10",
        "--fanout",
        "fixed:2",
        "--top",
        "2",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("flight recording"), "{out}");
    assert!(out.contains("slowest queries"), "{out}");
    assert!(out.contains("miss-ratio timeline"), "{out}");
}

#[test]
fn unknown_command_fails_with_message() {
    let o = run(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("frobnicate"));
}

#[test]
fn typo_option_fails_with_suggestion_list() {
    let o = run(&["sim", "--laod", "0.4"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains("--laod"), "{err}");
    assert!(err.contains("--load"), "{err}");
}

#[test]
fn stray_positional_rejected() {
    let o = run(&["sim", "extra-arg"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("extra-arg"));
}

#[test]
fn json_output_is_machine_readable() {
    let o = run(&["sim", "--queries", "2000", "--load", "0.25", "--json"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let v: serde_json::Value = serde_json::from_str(stdout(&o).trim()).expect("valid json");
    assert_eq!(v["policy"], "TailGuard");
    assert!(v["meets_all_slos"].is_boolean());
}

/// Runs `tailguard args…`, failing the test if the process outlives
/// `limit`.
fn run_within(args: &[&str], limit: Duration) -> Output {
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
    child.wait_with_output().expect("output")
}

/// Shore's longest service (3 ms) exceeds its widest SLO (1 ms), so a crash
/// plan's default lease must be longer than the SLO: one no longer than the
/// service reclaimed and redispatched live tasks without end.
#[test]
fn faults_crash_default_lease_outlasts_the_longest_service() {
    let o = run_within(
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
            "--fault-to",
            "20",
            "--fault",
            "crash",
            "--workload",
            "shore",
            "--json",
        ],
        Duration::from_secs(10),
    );
    assert!(o.status.success(), "{}", stderr(&o));
    let cells: serde_json::Value = serde_json::from_str(&stdout(&o)).expect("json");
    let cells = cells.as_array().expect("cells");
    assert_eq!(cells.len(), 3);
    for cell in cells {
        assert_eq!(cell["completed"], cells[0]["completed"], "{cell:?}");
        // Only swallowed tasks come back through a reclaim.
        assert!(cell["reclaims"].as_u64() < Some(2_000), "{cell:?}");
    }
}
