//! CLI entry point for `tailguard-lint`.
//!
//! ```text
//! tailguard-lint [--root DIR] [--json] [--list-rules] [--paths P...]
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

// Diagnostics on stdout are this binary's interface.
#![allow(clippy::print_stdout)]
use std::path::PathBuf;
use std::process::ExitCode;

use tailguard_lint::rules::ALL_RULES;
use tailguard_lint::{lint_paths, lint_workspace};

const USAGE: &str = "\
tailguard-lint: the workspace determinism checks clippy cannot state

USAGE:
    tailguard-lint [OPTIONS]

OPTIONS:
    --root <DIR>           Workspace root to lint (default: current directory)
    --paths <P>...         Lint these files/directories instead of the
                           workspace, with every rule enabled (fixture mode)
    --json                 Emit the machine-readable JSON report on stdout
    --list-rules           Print the rule catalog and exit
    -h, --help             Show this help

Suppress a finding with a justified control comment on (or right above)
the offending line:
    // tg-lint: allow(<rule>[, <rule>...]) -- <why this site is exempt>

Mark an event-loop hot region (polices per-event allocation via hot-alloc):
    // tg-lint: hot(<region-name>)
    ...
    // tg-lint: endhot
";

struct Options {
    root: PathBuf,
    paths: Vec<PathBuf>,
    json: bool,
    list_rules: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        paths: Vec::new(),
        json: false,
        list_rules: false,
    };
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--root" => {
                i += 1;
                let dir = args.get(i).ok_or("--root needs a directory")?;
                opts.root = PathBuf::from(dir);
            }
            "--paths" => {
                i += 1;
                while i < args.len() && !args[i].starts_with("--") {
                    opts.paths.push(PathBuf::from(&args[i]));
                    i += 1;
                }
                if opts.paths.is_empty() {
                    return Err("--paths needs at least one file or directory".to_string());
                }
                continue;
            }
            "-h" | "--help" => {
                return Err(String::new()); // triggers usage, exit 0 handled below
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wants_help = args.iter().any(|a| a == "-h" || a == "--help");
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if wants_help {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for &rule in ALL_RULES {
            println!("{:<16} {}", rule.id(), rule.summary());
        }
        return ExitCode::SUCCESS;
    }

    let result = if opts.paths.is_empty() {
        lint_workspace(&opts.root)
    } else {
        lint_paths(&opts.paths)
    };
    let report = match result {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
