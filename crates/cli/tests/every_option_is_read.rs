//! Every option a `tailguard` invocation accepts changes what it prints.
//!
//! A command rejects each option it does not read, and the error lists
//! the ones it did (`unknown option --<key> (expected one of: …)`). Each
//! base invocation below takes that list from the binary itself and needs
//! a case for every key in it: two invocations that differ only in that
//! key and whose outcome (exit code and stdout) differs. Each mode that
//! reads its own set of keys (`sim --drift diurnal`, `faults --fault
//! crash`, `trace --metrics`, …) is a base of its own: a variant that
//! reads a key its base does not must match another base's list. Where
//! switching a base to another mode leaves an option it gives unread
//! (`trace --metrics --export csv`), the switch must be an error. Each key
//! must also appear in its command's `--help` block.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// The longest one invocation may run.
const LIMIT: Duration = Duration::from_secs(20);

/// The keys whose value cannot change stdout, with the reason.
const EXEMPT: &[(&str, &str)] = &[
    (
        "jobs",
        "parallel results are bit-identical for any worker count",
    ),
    (
        "realtime",
        "wall-clock output: two real-time runs differ whatever the options",
    ),
    (
        "store-days",
        "sizes each node's sensor history; in paused time a task's service \
         time is drawn from its cluster's distribution, so only memory and \
         scan work change",
    ),
];

/// `(key, a, b)`: the variants set `--key a` and `--key b`, where `None`
/// leaves the key out and `Some("")` gives it bare.
type Case = (&'static str, Option<&'static str>, Option<&'static str>);

/// A base invocation, split at spaces; the cases varied from it; and the
/// `(key, value)` switches to modes that do not read an option it gives.
type Mode = (
    &'static str,
    &'static [&'static [Case]],
    &'static [(&'static str, &'static str)],
);

const SCENARIO: &[Case] = &[
    ("workload", Some("masstree"), Some("shore")),
    ("servers", Some("10"), Some("20")),
    ("slos", Some("1,1.5"), Some("0.7,2")),
    ("slo", Some("1"), Some("2")),
    ("fanout", Some("fixed:2"), Some("fixed:3")),
    ("arrival", Some("poisson"), Some("pareto")),
    ("seed", Some("1"), Some("2")),
];

/// One run at one load; the bases run at load 0.9, where admission
/// control and the online estimator act within a short run.
const RUN: &[Case] = &[
    // One class at one fanout gives every task the same budget, so the
    // deadline orders only break FIFO's ties; SJF orders by service time.
    ("policy", Some("fifo"), Some("sjf")),
    ("load", Some("0.5"), Some("0.9")),
    ("queries", Some("800"), Some("1000")),
    ("admission", None, Some("1:0.001")),
    ("online", None, Some("")),
];

/// What `sim` reads in every drift mode.
const SIM: &[Case] = &[("warmup", Some("0"), Some("100")), ("json", None, Some(""))];

/// What `faults` reads for every fault kind.
const FAULTS: &[Case] = &[
    ("policies", Some("tfedf"), Some("fifo")),
    ("load", Some("0.3"), Some("0.5")),
    ("queries", Some("1000"), Some("1200")),
    ("fault-from", Some("0"), Some("10")),
    ("fault-to", Some("20"), Some("30")),
    ("lease-ms", Some("0"), Some("1.5")),
    ("hedge", Some("0.2"), Some("0.8")),
    ("attempts", Some("1"), Some("2")),
    ("quorum", None, Some("0.5")),
    ("json", None, Some("")),
];

/// What every `trace` output reads: the recording's ring and sampler.
const RECORDING: &[Case] = &[
    ("ring", Some("100"), Some("100000")),
    ("sample", None, Some("0")),
    ("slow-after", Some("0.01"), Some("100")),
];

/// `gentrace`'s options besides `--servers`.
const GENTRACE: &[Case] = &[
    ("rate", Some("1"), Some("2")),
    ("queries", Some("20"), Some("30")),
    ("classes", Some("1"), Some("2")),
    ("seed", Some("1"), Some("2")),
    ("arrival", Some("poisson"), Some("pareto")),
    ("format", Some("json"), Some("csv")),
];

const MODES: &[Mode] = &[
    (
        "sim --queries 1000 --servers 10 --fanout fixed:2 --load 0.9",
        &[SCENARIO, RUN, SIM, &[("drift", None, Some("diurnal"))]],
        &[],
    ),
    (
        "sim --queries 1000 --servers 10 --fanout fixed:2 --load 0.9 --drift diurnal",
        &[
            SCENARIO,
            RUN,
            SIM,
            &[
                ("drift", Some("diurnal"), Some("flashcrowd")),
                ("drift-period", Some("10"), Some("20")),
                ("drift-amplitude", Some("0.1"), Some("0.5")),
            ],
        ],
        &[],
    ),
    (
        "sim --queries 1000 --servers 10 --fanout fixed:2 --load 0.9 --drift flashcrowd \
         --drift-from 10 --drift-to 20",
        &[
            SCENARIO,
            RUN,
            SIM,
            &[
                ("drift-from", Some("5"), Some("10")),
                ("drift-to", Some("20"), Some("30")),
                ("drift-factor", Some("2"), Some("3")),
            ],
        ],
        &[("drift", "diurnal")],
    ),
    (
        "maxload --queries 1000 --servers 10 --fanout fixed:2 --policies tfedf --tolerance 0.01",
        &[
            SCENARIO,
            &[
                ("policies", Some("tfedf"), Some("fifo")),
                ("queries", Some("1000"), Some("2000")),
                ("tolerance", Some("0.05"), Some("0.01")),
                ("json", None, Some("")),
            ],
        ],
        &[],
    ),
    (
        "sweep --queries 1000 --servers 10 --fanout fixed:2 --loads 0.2,0.4",
        &[
            SCENARIO,
            &[
                ("policy", Some("fifo"), Some("tfedf")),
                ("loads", Some("0.2,0.4"), Some("0.2,0.5")),
                ("queries", Some("1000"), Some("2000")),
            ],
        ],
        &[],
    ),
    (
        "faults --queries 1000 --servers 10 --fanout fixed:2 --policies tfedf --fault-to 20",
        &[
            SCENARIO,
            FAULTS,
            &[
                ("fault", None, Some("ramp")),
                ("factor", Some("4"), Some("8")),
                ("fault-servers", Some("1"), Some("2")),
            ],
        ],
        &[],
    ),
    (
        "faults --queries 1000 --servers 10 --fanout fixed:2 --policies tfedf --fault-to 20 \
         --lease-ms 10 --fault crash",
        &[
            SCENARIO,
            FAULTS,
            &[
                ("fault", Some("crash"), Some("drop")),
                ("fault-servers", Some("1"), Some("2")),
            ],
        ],
        &[],
    ),
    (
        "faults --queries 1000 --servers 10 --fanout fixed:2 --policies tfedf --fault-to 20 \
         --fault flap",
        &[
            SCENARIO,
            FAULTS,
            &[
                ("fault", Some("flap"), Some("ramp")),
                ("factor", Some("4"), Some("8")),
                ("fault-servers", Some("1"), Some("2")),
                ("flap-period", Some("5"), Some("10")),
            ],
        ],
        &[],
    ),
    (
        "faults --queries 1000 --servers 10 --fanout fixed:2 --policies tfedf --fault-to 20 \
         --lease-ms 10 --fault random",
        &[
            SCENARIO,
            FAULTS,
            &[
                ("fault", Some("random"), Some("stall")),
                ("episodes", Some("3"), Some("6")),
            ],
        ],
        &[],
    ),
    (
        "testbed --queries 100 --probes 5 --store-days 2",
        &[&[
            ("policy", Some("fifo"), Some("tfedf")),
            ("load", Some("0.2"), Some("0.4")),
            ("queries", Some("100"), Some("120")),
            ("scale", Some("25"), Some("50")),
            ("probes", Some("5"), Some("10")),
            ("seed", Some("1"), Some("2")),
        ]],
        &[],
    ),
    (
        "trace --queries 1000 --servers 10 --fanout fixed:2 --load 0.9",
        &[
            SCENARIO,
            RUN,
            RECORDING,
            &[
                ("snapshot-every", Some("1"), Some("5")),
                ("top", Some("1"), Some("2")),
                ("bin", Some("10"), Some("20")),
                ("export", None, Some("csv")),
                ("metrics", None, Some("")),
                ("json", None, Some("")),
                ("query", None, Some("5")),
            ],
        ],
        &[],
    ),
    (
        "trace --queries 1000 --servers 10 --fanout fixed:2 --load 0.9 --export csv",
        &[
            SCENARIO,
            RUN,
            RECORDING,
            &[("export", Some("csv"), Some("jsonl"))],
        ],
        &[],
    ),
    (
        "trace --queries 1000 --servers 10 --fanout fixed:2 --load 0.9 --metrics",
        &[
            SCENARIO,
            RUN,
            RECORDING,
            &[
                ("metrics", Some(""), None),
                ("warmup", Some("0"), Some("100")),
                ("snapshot-every", Some("1"), Some("5")),
            ],
        ],
        &[("export", "csv")],
    ),
    (
        "trace --queries 1000 --servers 10 --fanout fixed:2 --load 0.9 --json",
        &[
            SCENARIO,
            RUN,
            RECORDING,
            &[
                ("json", Some(""), None),
                ("warmup", Some("0"), Some("100")),
                ("snapshot-every", Some("1"), Some("5")),
            ],
        ],
        &[("export", "csv"), ("metrics", "")],
    ),
    (
        "trace --queries 1000 --servers 10 --fanout fixed:2 --load 0.9 --query 850",
        &[
            SCENARIO,
            RUN,
            RECORDING,
            &[("query", Some("850"), Some("851"))],
        ],
        &[("export", "csv"), ("metrics", ""), ("json", "")],
    ),
    (
        "slo --queries 1000 --servers 10 --fanout fixed:2 --load 0.9",
        &[
            SCENARIO,
            RUN,
            &[
                ("target", Some("0.9"), Some("0.99")),
                ("bucket", Some("10"), Some("100")),
                ("slow-buckets", Some("2"), Some("10")),
                ("burn", Some("1"), Some("2")),
                ("json", None, Some("")),
            ],
        ],
        &[],
    ),
    (
        "gentrace --queries 20",
        &[GENTRACE, &[("fanout", Some("paper"), Some("fixed:3"))]],
        &[],
    ),
    (
        "gentrace --queries 20 --fanout oldi",
        &[
            GENTRACE,
            &[
                ("fanout", Some("oldi"), Some("facebook")),
                ("servers", Some("10"), Some("20")),
            ],
        ],
        &[],
    ),
    ("workloads", &[&[("json", None, Some(""))]], &[]),
    (
        "budgets",
        &[&[
            ("workload", Some("masstree"), Some("shore")),
            ("slos", Some("1"), Some("1,2")),
            ("slo", Some("1"), Some("2")),
            ("fanouts", Some("1,10"), Some("1,100")),
        ]],
        &[],
    ),
    (
        "calibrate --samples @a.txt",
        &[&[
            ("samples", Some("@a.txt"), Some("@b.txt")),
            ("anchors", Some("0.5,0.99,1"), Some("0.5,0.9,1")),
            ("fanouts", Some("1"), Some("10")),
            ("json", None, Some("")),
        ]],
        &[],
    ),
    (
        "calibrate --samples @a.txt --json",
        &[&[
            ("samples", Some("@a.txt"), Some("@b.txt")),
            ("anchors", Some("0.5,0.99,1"), Some("0.5,0.9,1")),
            ("json", Some(""), None),
        ]],
        &[],
    ),
    ("scenarios", &[], &[]),
];

/// This test's scratch directory.
fn scratch() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("every_option_is_read");
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Maps an `@name` argument to the path of a sample file for `calibrate`,
/// written on the way; `@b.txt` holds twice `@a.txt`'s latencies.
fn arg(token: &str) -> String {
    let Some(name) = token.strip_prefix('@') else {
        return token.to_string();
    };
    let path = scratch().join(name);
    let scale = if name == "a.txt" { 1.0 } else { 2.0 };
    let body: String = (1..=200)
        .map(|i| format!("{}\n", scale * f64::from(i) / 100.0))
        .collect();
    fs::write(&path, body).expect("write samples");
    path.to_string_lossy().into_owned()
}

/// `base`'s arguments.
fn tokens(base: &str) -> Vec<String> {
    base.split(' ').map(arg).collect()
}

/// `base` without `--key` (and its value), plus `--key value`.
fn variant(base: &str, key: &str, value: Option<&str>) -> Vec<String> {
    let flag = format!("--{key}");
    let mut out = Vec::new();
    let mut tokens = base.split(' ').peekable();
    while let Some(t) = tokens.next() {
        if t == flag {
            tokens.next_if(|v| !v.starts_with("--"));
        } else {
            out.push(arg(t));
        }
    }
    if let Some(v) = value {
        out.push(flag);
        if !v.is_empty() {
            out.push(arg(v));
        }
    }
    out
}

/// Runs `tailguard args…`, failing the test if it outlives [`LIMIT`]. The
/// output goes through files, so a long stdout cannot stall the child.
fn run(args: &[String]) -> Output {
    let (stdout, stderr) = (scratch().join("stdout"), scratch().join("stderr"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_tailguard"))
        .args(args)
        .stdout(File::create(&stdout).expect("stdout file"))
        .stderr(File::create(&stderr).expect("stderr file"))
        .spawn()
        .expect("binary runs");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if start.elapsed() > LIMIT {
            child.kill().ok();
            child.wait().ok();
            panic!("tailguard {} still ran after {LIMIT:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    Output {
        status,
        stdout: fs::read(&stdout).expect("stdout"),
        stderr: fs::read(&stderr).expect("stderr"),
    }
}

/// The keys `args` reads, from the error an unread option gets before
/// anything runs.
fn keys_read(args: &[String]) -> BTreeSet<String> {
    let mut probe = args.to_vec();
    probe.extend(["--no-such-option".to_string(), "1".to_string()]);
    let out = run(&probe);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.code() == Some(1) && out.stdout.is_empty(),
        "tailguard {}: {stderr}",
        probe.join(" ")
    );
    let list = stderr
        .strip_prefix("error: unknown option --no-such-option (expected one of: ")
        .and_then(|rest| rest.trim_end().strip_suffix(')'))
        .unwrap_or_else(|| panic!("tailguard {}: {stderr}", probe.join(" ")));
    list.split(", ")
        .filter_map(|k| k.strip_prefix("--"))
        .map(str::to_string)
        .collect()
}

/// Each command's `--help` block, with the `<scenario>` and `<run>`
/// groups it names appended.
fn help_blocks() -> BTreeMap<String, String> {
    let help = String::from_utf8_lossy(&run(&["--help".to_string()]).stdout).into_owned();
    let mut blocks: BTreeMap<String, String> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in help.lines() {
        let body = line.strip_prefix("    ");
        match body {
            Some(b) if !b.starts_with(' ') && !b.is_empty() => {
                let name = b.split_whitespace().next().expect("name").to_string();
                blocks.insert(name.clone(), line.to_string());
                current = Some(name);
            }
            Some(b) if !b.trim().is_empty() => {
                if let Some(name) = &current {
                    let block = blocks.get_mut(name).expect("block");
                    block.push('\n');
                    block.push_str(line);
                }
            }
            _ => current = None,
        }
    }
    let groups: Vec<(String, String)> = ["<scenario>", "<run>"]
        .iter()
        .map(|g| (g.to_string(), blocks.get(*g).cloned().unwrap_or_default()))
        .collect();
    for (name, block) in blocks.iter_mut() {
        for (group, text) in &groups {
            if name != group && block.contains(group.as_str()) {
                block.push('\n');
                block.push_str(text);
            }
        }
    }
    blocks
}

/// Whether `text` names `--key` itself, not a longer key it prefixes.
fn mentions(text: &str, key: &str) -> bool {
    let flag = format!("--{key}");
    text.match_indices(&flag).any(|(at, _)| {
        !text[at + flag.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
    })
}

#[test]
fn each_option_read_changes_the_outcome_and_is_in_help() {
    let exempt: BTreeSet<&str> = EXEMPT.iter().map(|&(k, _)| k).collect();
    let help = help_blocks();
    let mut wrong = Vec::new();
    // Each base's keys, per command, and each variant's keys with its base's.
    let mut bases: BTreeMap<&str, Vec<BTreeSet<String>>> = BTreeMap::new();
    let mut variants = Vec::new();
    for &(base, groups, switches) in MODES {
        let command = base.split(' ').next().expect("command");
        let read = keys_read(&tokens(base));
        let cases: Vec<Case> = groups.iter().flat_map(|g| g.iter().copied()).collect();
        let varied: BTreeSet<&str> = cases.iter().map(|&(k, _, _)| k).collect();
        let block = help.get(command).map_or("", String::as_str);
        for key in &read {
            let switched = switches.iter().any(|&(k, _)| k == key);
            if !varied.contains(key.as_str()) && !exempt.contains(key.as_str()) && !switched {
                wrong.push(format!("`{base}` reads --{key}, which no case varies"));
            }
            if !mentions(block, key) {
                wrong.push(format!("{command}'s help block omits --{key}"));
            }
        }
        for key in varied.iter().filter(|k| !read.contains(**k)) {
            wrong.push(format!("`{base}` never reads --{key}, which a case varies"));
        }
        for &(key, value) in switches {
            let args = variant(base, key, Some(value));
            let o = run(&args);
            let stderr = String::from_utf8_lossy(&o.stderr);
            if o.status.code() != Some(1) || !stderr.starts_with("error: unknown option --") {
                wrong.push(format!("tailguard {} is not an error", args.join(" ")));
            }
        }
        for (key, a, b) in cases {
            let (va, vb) = (variant(base, key, a), variant(base, key, b));
            for v in [&va, &vb] {
                variants.push((command, read.clone(), keys_read(v), v.join(" ")));
            }
            let (oa, ob) = (run(&va), run(&vb));
            if (oa.status.code(), &oa.stdout) == (ob.status.code(), &ob.stdout) {
                wrong.push(format!(
                    "--{key} leaves the outcome unchanged: tailguard {} / tailguard {}",
                    va.join(" "),
                    vb.join(" ")
                ));
            }
        }
        bases.entry(command).or_default().push(read);
    }
    for (command, base_read, read, args) in variants {
        if !read.is_subset(&base_read) && !bases[command].contains(&read) {
            wrong.push(format!(
                "tailguard {args} reads keys that neither its base nor another base reads"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
