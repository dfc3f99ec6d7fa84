//! End-to-end CLI contract: exit codes and output modes of the built
//! `tailguard-lint` binary (0 clean, 1 violations, 2 usage error).

use std::process::Command;

fn lint() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tailguard-lint"));
    // Integration tests run with CWD = crates/lint; the corpus is local.
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

#[test]
fn clean_corpus_exits_zero() {
    let out = lint()
        .args(["--paths", "fixtures/allowed"])
        .output()
        .expect("run tailguard-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn violations_exit_one_and_render_grepable_lines() {
    let out = lint()
        .args(["--paths", "fixtures/bad"])
        .output()
        .expect("run tailguard-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("fixtures/bad/unsigned_sub.rs:4:"),
        "{stdout}"
    );
    assert!(stdout.contains("unsigned-sub:"), "{stdout}");
}

#[test]
fn json_mode_emits_the_machine_report() {
    let out = lint()
        .args(["--paths", "fixtures/bad", "--json"])
        .output()
        .expect("run tailguard-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("{\n"), "{stdout}");
    assert!(stdout.contains("\"ok\": false"), "{stdout}");
}

#[test]
fn unknown_flag_exits_two() {
    let out = lint().arg("--bogus").output().expect("run tailguard-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn list_rules_names_the_whole_catalog() {
    let out = lint()
        .arg("--list-rules")
        .output()
        .expect("run tailguard-lint");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        ids,
        [
            "unsigned-sub",
            "hot-alloc",
            "pub-doc-drift",
            "malformed-allow"
        ],
        "{stdout}"
    );
}
