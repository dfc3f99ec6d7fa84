//! Pins the exact stdout of a dozen valid invocations of the compiled
//! `tailguard` binary against committed text under `tests/pinned/`.
//!
//! Argument parsing may be rewritten freely; what a valid invocation
//! prints may not move. Every run is small (`--queries` ≤ 3 000, at most
//! two jobs) and deterministic in its seed. `faults` is pinned in its
//! `--json` form because the text form embeds the path of the CSV it
//! writes.
//!
//! If an output changes on purpose, regenerate its file with the command
//! in `CASES`, e.g. `tailguard sim --queries 2000 > tests/pinned/sim.txt`
//! (stdout ends with the newline `println!` adds).

use std::path::PathBuf;
use std::process::Command;

/// `(pinned file stem, arguments)`.
const CASES: &[(&str, &[&str])] = &[
    ("sim", &["sim", "--queries", "2000"]),
    ("sim_json", &["sim", "--queries", "2000", "--json"]),
    (
        "maxload_json",
        &[
            "maxload",
            "--json",
            "--queries",
            "2000",
            "--tolerance",
            "0.1",
            "--policies",
            "tfedf,fifo",
            "--jobs",
            "1",
        ],
    ),
    // Every policy on Pareto arrivals, the searches on two workers sharing
    // one draw of the load-free workload.
    (
        "maxload_pareto_json",
        &[
            "maxload",
            "--json",
            "--arrival",
            "pareto",
            "--policies",
            "tfedf,fifo,priq,tedf,sjf",
            "--queries",
            "3000",
            "--tolerance",
            "0.05",
            "--jobs",
            "2",
        ],
    ),
    (
        "sweep",
        &[
            "sweep",
            "--loads",
            "0.2,0.4",
            "--queries",
            "2000",
            "--jobs",
            "1",
        ],
    ),
    (
        "faults_json",
        &[
            "faults",
            "--json",
            "--queries",
            "1000",
            "--policies",
            "tfedf",
            "--jobs",
            "1",
        ],
    ),
    (
        "trace_top",
        &[
            "trace",
            "--top",
            "2",
            "--queries",
            "300",
            "--servers",
            "10",
            "--fanout",
            "fixed:2",
        ],
    ),
    (
        "trace_csv",
        &[
            "trace",
            "--export",
            "csv",
            "--queries",
            "50",
            "--servers",
            "10",
            "--fanout",
            "fixed:2",
        ],
    ),
    ("slo_json", &["slo", "--json", "--queries", "500"]),
    (
        "gentrace_csv",
        &["gentrace", "--format", "csv", "--queries", "20"],
    ),
    ("workloads", &["workloads"]),
    ("budgets", &["budgets", "--slos", "1,1.5"]),
    ("scenarios", &["scenarios"]),
];

fn pinned(stem: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/pinned")
        .join(format!("{stem}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn valid_invocations_print_the_pinned_text() {
    let mut moved = Vec::new();
    for &(stem, args) in CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_tailguard"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "tailguard {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8_lossy(&out.stdout);
        let want = pinned(stem);
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            moved.push(format!(
                "tailguard {} differs from tests/pinned/{stem}.txt at line {}:\n  got:  {:?}\n  want: {:?}",
                args.join(" "),
                line + 1,
                got.lines().nth(line),
                want.lines().nth(line)
            ));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}
