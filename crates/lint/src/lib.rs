//! `tailguard-lint` — the determinism and panic-surface checks for the
//! TailGuard workspace that clippy cannot state.
//!
//! Every golden pin in this repository (sim reports, observed runs, the
//! metrics exposition) assumes the deterministic crates are *pure* and
//! never panic a query away. Most of that contract is a clippy lint set
//! (`cargo det-lint`, see docs/lint.md): wall clocks, hash-ordered
//! collections, `unwrap`, exact float comparison, lossy casts, indexing
//! and division. This crate keeps the rest — see [`rules::Rule`] — with a
//! hand-rolled scanner (no `syn`; the build environment is offline) and a
//! justified per-line escape hatch:
//!
//! ```text
//! // tg-lint: allow(unsigned-sub) -- `hi >= lo` is checked just above
//! ```
//!
//! The analyzer runs in two passes. Pass 1 ([`model`]) builds a
//! lightweight per-file model — `fn` items with signatures and docs,
//! local type ascriptions, `// tg-lint: hot(<label>)` regions, and the
//! file's identifier set. Pass 2 runs the rules in [`semantic`]
//! (`unsigned-sub`, `hot-alloc`, and the cross-file `pub-doc-drift`,
//! which uses a workspace-wide identifier index for reachability).
//!
//! Run it as `cargo run -p tailguard-lint` (optionally `-- --json`); it
//! exits non-zero if any rule fires.

pub mod config;
pub mod diagnostics;
pub mod model;
pub mod report;
pub mod rules;
pub mod scanner;
pub mod semantic;
pub mod types;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use config::{crate_config, CrateConfig, STRICT};
use report::Report;

/// Lints the workspace rooted at `root`: `src/` of every crate under
/// `crates/`, plus the root umbrella lib. `target/`, `third_party/`, and
/// the linter's own `fixtures/` are never scanned.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for name in sorted_dir_names(&crates_dir)? {
        let Some(cfg) = crate_config(&name) else {
            return Err(format!(
                "crate `{name}` is not in the embedded lint config \
                 (crates/lint/src/config.rs); classify it as \
                 Deterministic or Driver"
            ));
        };
        let src = crates_dir.join(&name).join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
            files
                .iter_mut()
                .filter(|(_, c)| c.is_none())
                .for_each(|(_, c)| *c = Some(*cfg));
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        let cfg = crate_config(".").ok_or("missing root crate config")?;
        collect_rs_files(&root_src, &mut files)?;
        files
            .iter_mut()
            .filter(|(_, c)| c.is_none())
            .for_each(|(_, c)| *c = Some(*cfg));
    }
    lint_files(root, &files)
}

/// Lints an explicit set of paths (files or directories) under the
/// strictest configuration — used for the fixture corpus. No cross-crate
/// index exists in this mode, so `pub-doc-drift` treats every pub fn as
/// reachable.
pub fn lint_paths(paths: &[PathBuf]) -> Result<Report, String> {
    let mut files: Vec<(PathBuf, Option<CrateConfig>)> = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(p, &mut files)?;
        } else {
            files.push((p.clone(), None));
        }
    }
    for (_, c) in &mut files {
        c.get_or_insert(STRICT);
    }
    lint_files(Path::new(""), &files)
}

/// One fully-scanned workspace source file, ready for pass 2.
struct LoadedFile {
    cfg: CrateConfig,
    scanned: scanner::ScannedFile,
    model: model::FileModel,
}

fn lint_files(root: &Path, files: &[(PathBuf, Option<CrateConfig>)]) -> Result<Report, String> {
    // Pass 1: scan and model every file.
    let mut loaded = Vec::with_capacity(files.len());
    for (path, cfg) in files {
        let cfg = cfg.as_ref().ok_or("file with no crate config")?;
        let source =
            fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let scanned = scanner::scan(&display_path(root, path), &source);
        let model = model::build(&scanned);
        loaded.push(LoadedFile {
            cfg: *cfg,
            scanned,
            model,
        });
    }

    // Cross-file index: per crate, the union of identifiers its files
    // mention. A pub fn is "reachable" for `pub-doc-drift` when any other
    // crate's set contains its name.
    let workspace_mode = loaded.iter().any(|f| f.cfg.name != STRICT.name);
    let mut per_crate: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    if workspace_mode {
        for f in &loaded {
            per_crate
                .entry(f.cfg.name)
                .or_default()
                .extend(f.model.idents.iter().cloned());
        }
    }
    let external_for = |own: &str| -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (name, idents) in &per_crate {
            if *name != own {
                out.extend(idents.iter().cloned());
            }
        }
        out
    };
    let mut external_cache: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();

    // Pass 2: rules.
    let mut violations = Vec::new();
    let mut allows = Vec::new();
    for f in &loaded {
        let external = if workspace_mode {
            Some(
                external_cache
                    .entry(f.cfg.name)
                    .or_insert_with(|| external_for(f.cfg.name))
                    as &BTreeSet<String>,
            )
        } else {
            None
        };
        let (mut d, mut a) = rules::check_file_with(&f.scanned, &f.model, &f.cfg, external);
        violations.append(&mut d);
        allows.append(&mut a);
    }
    Ok(Report::new(loaded.len() as u32, violations, allows))
}

/// Workspace-relative path with forward slashes (stable across platforms
/// for pinned output).
fn display_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Immediate subdirectory names of `dir`, sorted for a deterministic walk.
fn sorted_dir_names(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        if entry.path().is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    Ok(names)
}

/// Recursively collects `.rs` files under `dir` (sorted), tagging them
/// with no config yet (the caller assigns one).
fn collect_rs_files(
    dir: &Path,
    out: &mut Vec<(PathBuf, Option<CrateConfig>)>,
) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
            // Never descend into build output, vendored stubs, or the
            // linter's own test corpus.
            if matches!(name.as_deref(), Some("target" | "third_party" | "fixtures")) {
                continue;
            }
            collect_rs_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push((p, None));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_path_strips_root() {
        let root = Path::new("/ws");
        let p = Path::new("/ws/crates/sched/src/handler.rs");
        assert_eq!(display_path(root, p), "crates/sched/src/handler.rs");
    }
}
