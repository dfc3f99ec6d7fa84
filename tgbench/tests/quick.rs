//! Runs `tgbench --quick` end to end and checks its output against
//! `BENCHMARK.json`: every metric printed once with its unit, names
//! well-formed, the driver's one-line JSON result exact, span trees
//! well-formed.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_tgbench");

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json")
}

/// name → unit of the metrics under `key`.
fn units(contract: &Value, key: &str) -> BTreeMap<String, String> {
    contract
        .get(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads(contract: &Value) -> Vec<String> {
    contract
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("tgbench runs");
    assert!(
        out.status.success(),
        "tgbench {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `name value unit` lines of one section, checked for shape.
fn metric_lines<'a>(section: &[&'a str]) -> Vec<(&'a str, &'a str)> {
    let mut out = Vec::new();
    for line in section {
        if line.starts_with('#') || line.starts_with("check ") || line.starts_with('{') {
            continue;
        }
        let words: Vec<&str> = line.split(' ').collect();
        assert_eq!(words.len(), 3, "not `name value unit`: {line}");
        assert!(
            words[0]
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name in: {line}"
        );
        assert!(
            words[1].parse::<f64>().is_ok_and(f64::is_finite),
            "bad value in: {line}"
        );
        out.push((words[0], words[2]));
    }
    out
}

#[test]
fn quick_suite_prints_every_metric_once_and_writes_well_formed_spans() {
    let contract = contract();
    let (e2e, per_layer) = (
        units(&contract, "end_to_end"),
        units(&contract, "per_layer"),
    );
    let dir = scratch("quick_suite");
    let stdout = run(&[
        "--quick",
        "--seed",
        "1",
        "--out",
        dir.to_str().expect("path"),
    ]);
    assert!(
        !stdout.contains("FAILED"),
        "an output check failed:\n{stdout}"
    );

    // Split into one section per (workload, trace mode).
    let lines: Vec<&str> = stdout.lines().collect();
    let mut sections: BTreeMap<(String, bool), Vec<&str>> = BTreeMap::new();
    let mut current = None;
    for line in &lines {
        if let Some(rest) = line.strip_prefix("# workload ") {
            let words: Vec<&str> = rest.split(' ').collect();
            current = Some((words[0].to_string(), words[4] == "1"));
        } else if let Some(key) = &current {
            sections.entry(key.clone()).or_default().push(line);
        }
    }
    let names = workloads(&contract);
    assert_eq!(
        sections.len(),
        2 * names.len(),
        "one section per workload and mode"
    );

    let mut per_layer_seen = BTreeSet::new();
    for ((workload, traced), section) in &sections {
        assert!(names.contains(workload), "unknown workload {workload}");
        let table = if *traced { &per_layer } else { &e2e };
        let printed = metric_lines(section);
        let mut seen = BTreeSet::new();
        for (name, unit) in &printed {
            assert!(seen.insert(*name), "{workload}: {name} printed twice");
            assert_eq!(
                table.get(*name).map(String::as_str),
                Some(*unit),
                "{workload}: {name} is not in BENCHMARK.json with unit {unit}"
            );
        }
        if *traced {
            per_layer_seen.extend(seen.iter().map(|s| s.to_string()));
        } else {
            // Every end-to-end metric applies to every workload.
            assert_eq!(
                seen.len(),
                e2e.len(),
                "{workload}: end-to-end metrics missing"
            );
        }
    }
    // A per-layer metric is printed only where its layer does work; each
    // must do work on some workload.
    let missing: Vec<_> = per_layer
        .keys()
        .filter(|k| !per_layer_seen.contains(*k))
        .collect();
    assert!(
        missing.is_empty(),
        "per-layer metrics never printed: {missing:?}"
    );

    for name in &names {
        let path = dir.join(format!("spans-{name}.json"));
        let tree: Value =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("spans file"))
                .expect("json");
        let spans = tree.get("spans").and_then(Value::as_array).expect("spans");
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_u64).expect("span field");
        let mut child_ns = vec![0u64; spans.len()];
        let mut roots = 0;
        for (id, s) in spans.iter().enumerate() {
            assert_eq!(num(s, "id"), id as u64);
            assert_eq!(
                s.get("workload").and_then(Value::as_str),
                Some(name.as_str())
            );
            let (start, end) = (num(s, "start_ns"), num(s, "end_ns"));
            assert!(start <= end, "{name}: span {id} ends before it starts");
            match s.get("parent").and_then(Value::as_u64) {
                None => roots += 1,
                Some(p) => {
                    let p = p as usize;
                    assert!(p < id, "{name}: span {id} has no earlier parent");
                    let parent = &spans[p];
                    assert!(
                        num(parent, "start_ns") <= start && end <= num(parent, "end_ns"),
                        "{name}: span {id} escapes its parent"
                    );
                    child_ns[p] += end - start;
                }
            }
        }
        assert_eq!(roots, 1, "{name}: exactly one root span");
        for (id, s) in spans.iter().enumerate() {
            let dur = num(s, "end_ns") - num(s, "start_ns");
            assert!(
                child_ns[id] <= dur,
                "{name}: span {id} has negative self time"
            );
            assert_eq!(num(s, "self_ns"), dur - child_ns[id]);
        }
    }
    assert!(dir.join("latest.json").exists());
    let history = std::fs::read_to_string(dir.join("history.jsonl")).expect("history");
    assert_eq!(history.lines().count(), 1, "one history line per full run");
}

#[test]
fn one_workload_ends_with_the_driver_result_line() {
    let contract = contract();
    let dir = scratch("one_workload");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(&[
            "--workload",
            "sim_storm",
            "--seed",
            "3",
            "--seconds",
            "0.05",
            "--trace",
            trace,
            "--quick",
            "--out",
            dir.to_str().expect("path"),
        ]);
        let last = stdout.lines().last().expect("output");
        let result: Value = serde_json::from_str(last).expect("last line is JSON");
        let Value::Map(fields) = &result else {
            panic!("result is not an object: {last}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert!(
            result
                .get("attempted")
                .and_then(Value::as_u64)
                .expect("attempted")
                >= 1
        );
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Map(metrics)) = result.get("metrics") else {
            panic!("metrics is not an object: {last}");
        };
        let expected = units(&contract, key);
        assert_eq!(metrics.len(), expected.len(), "exactly the {key} metrics");
        for (name, entry) in metrics {
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                expected.get(name).map(String::as_str),
                "{name}"
            );
            assert!(
                entry.get("value").and_then(Value::as_f64).is_some(),
                "{name}"
            );
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(BIN)
        .args(["--workload", "nope"])
        .output()
        .expect("tgbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result for an unknown workload");
}
