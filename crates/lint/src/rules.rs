//! The rule catalog and the per-file rule engine.
//!
//! Each rule is a check over masked source lines (see
//! [`crate::scanner`]) and the file model; all rules skip test-only code,
//! and each can be suppressed per-line with a justified control comment:
//!
//! ```text
//! // tg-lint: allow(unsigned-sub) -- `hi >= lo` is checked just above
//! ```
//!
//! The justification after `--` is mandatory: an allow without one is
//! itself reported (`malformed-allow`), so every suppression in the tree
//! documents *why* the invariant does not apply at that site.

use std::collections::BTreeSet;

use crate::config::CrateConfig;
use crate::diagnostics::Diagnostic;
use crate::model::{is_hot_marker, FileModel};
use crate::scanner::ScannedFile;
use crate::semantic;

/// Every rule the analyzer knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unsigned `-` in deterministic library code (semantic pass).
    UnsignedSub,
    /// Heap allocation inside a `hot(<label>)` region (semantic pass).
    HotAlloc,
    /// A cross-crate `pub fn` whose time-typed params lack a documented
    /// unit (semantic pass).
    PubDocDrift,
    /// A `tg-lint:` comment that does not parse or lacks a justification.
    MalformedAllow,
}

/// All rules, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule::UnsignedSub,
    Rule::HotAlloc,
    Rule::PubDocDrift,
    Rule::MalformedAllow,
];

impl Rule {
    /// Stable kebab-case identifier (used in `allow(...)` and JSON).
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsignedSub => "unsigned-sub",
            Rule::HotAlloc => "hot-alloc",
            Rule::PubDocDrift => "pub-doc-drift",
            Rule::MalformedAllow => "malformed-allow",
        }
    }

    /// Parses a rule id as written inside `allow(...)`.
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// One-line description for `--list-rules` and docs.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::UnsignedSub => {
                "no unsigned `-` in deterministic library code (it underflows: \
                 a panic in debug, a wrapped huge value in release)"
            }
            Rule::HotAlloc => {
                "no per-event heap allocation inside `// tg-lint: \
                 hot(<label>)` regions (preallocate outside the event loop)"
            }
            Rule::PubDocDrift => {
                "pub fns used by other workspace crates must document the \
                 unit of time-typed params (ms/ns/micros/secs, virtual/wall)"
            }
            Rule::MalformedAllow => {
                "tg-lint allow comments must name known rules and carry a \
                 `-- justification`"
            }
        }
    }
}

/// An `allow` that was parsed successfully and suppressed at least zero
/// diagnostics; reported in `--json` so suppressions stay auditable.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// File the allow lives in.
    pub file: String,
    /// Line of the control comment.
    pub line: u32,
    /// Rule it suppresses.
    pub rule: Rule,
    /// The mandatory justification text.
    pub justification: String,
    /// Number of diagnostics it actually suppressed.
    pub used: u32,
}

struct ParsedAllow {
    target_line: u32,
    comment_line: u32,
    rules: Vec<Rule>,
    justification: String,
    used: u32,
}

/// Runs every applicable rule over one scanned file, building the model
/// internally. Single-file mode: every pub fn counts as reachable for
/// `pub-doc-drift` (no cross-crate index available).
pub fn check_file(file: &ScannedFile, cfg: &CrateConfig) -> (Vec<Diagnostic>, Vec<AllowRecord>) {
    let model = crate::model::build(file);
    check_file_with(file, &model, cfg, None)
}

/// Runs every applicable rule with a prebuilt model.
/// `external_idents` is the union of identifiers used by *other* crates
/// (drives `pub-doc-drift` reachability); `None` treats every pub fn as
/// reachable.
pub fn check_file_with(
    file: &ScannedFile,
    model: &FileModel,
    cfg: &CrateConfig,
    external_idents: Option<&BTreeSet<String>>,
) -> (Vec<Diagnostic>, Vec<AllowRecord>) {
    let mut diags = Vec::new();
    let mut allows: Vec<ParsedAllow> = Vec::new();

    for d in &file.directives {
        if is_hot_marker(&d.text) {
            continue; // consumed by the model pass (hot regions)
        }
        match parse_allow(&d.text) {
            Ok((rules, justification)) => allows.push(ParsedAllow {
                target_line: d.target_line,
                comment_line: d.line,
                rules,
                justification,
                used: 0,
            }),
            Err(msg) => diags.push(Diagnostic::new(
                Rule::MalformedAllow,
                &file.path,
                d.line,
                1,
                &d.text,
                &msg,
            )),
        }
    }
    for (line, msg) in &model.marker_errors {
        diags.push(Diagnostic::new(
            Rule::MalformedAllow,
            &file.path,
            *line,
            1,
            "",
            msg,
        ));
    }

    let cands = semantic::candidates(file, model, cfg, external_idents);

    for c in cands {
        if let Some(allow) = allows
            .iter_mut()
            .find(|a| a.target_line == c.line && a.rules.contains(&c.rule))
        {
            allow.used += 1;
            continue;
        }
        let snippet = file
            .lines
            .get(c.line.saturating_sub(1) as usize)
            .map_or("", |l| l.code.trim());
        diags.push(Diagnostic::new(
            c.rule, &file.path, c.line, c.col, snippet, &c.message,
        ));
    }

    // An allow that never fired is stale: surface it so suppressions are
    // removed when the underlying code is fixed.
    for a in &allows {
        if a.used == 0 {
            let ids: Vec<&str> = a.rules.iter().map(|r| r.id()).collect();
            diags.push(Diagnostic::new(
                Rule::MalformedAllow,
                &file.path,
                a.comment_line,
                1,
                "",
                &format!(
                    "stale allow({}): no matching violation on its target line",
                    ids.join(", ")
                ),
            ));
        }
    }

    let records = allows
        .iter()
        .flat_map(|a| {
            a.rules.iter().map(|&rule| AllowRecord {
                file: file.path.clone(),
                line: a.comment_line,
                rule,
                justification: a.justification.clone(),
                used: a.used,
            })
        })
        .collect();
    (diags, records)
}

/// Parses the text after `tg-lint:` into rules + justification.
fn parse_allow(text: &str) -> Result<(Vec<Rule>, String), String> {
    let text = text.trim();
    let rest = text
        .strip_prefix("allow")
        .ok_or_else(|| {
            format!(
                "unknown tg-lint directive `{text}`; expected `allow(<rule>) -- <justification>`"
            )
        })?
        .trim_start();
    let rest = rest.strip_prefix('(').ok_or("missing `(` after allow")?;
    let close = rest.find(')').ok_or("missing `)` in allow(...)")?;
    let (list, tail) = rest.split_at(close);
    let tail = &tail[1..];

    let mut rules = Vec::new();
    for raw in list.split(',') {
        let id = raw.trim();
        if id.is_empty() {
            return Err("empty rule name in allow(...)".to_string());
        }
        let rule = Rule::from_id(id).ok_or_else(|| format!("unknown rule `{id}` in allow(...)"))?;
        if rule == Rule::MalformedAllow {
            return Err("malformed-allow cannot itself be allowed".to_string());
        }
        rules.push(rule);
    }
    if rules.is_empty() {
        return Err("allow(...) names no rules".to_string());
    }

    let tail = tail.trim_start();
    let justification = tail.strip_prefix("--").map_or("", str::trim);
    if justification.is_empty() {
        return Err(
            "allow(...) requires a justification: `-- <why this site is exempt>`".to_string(),
        );
    }
    Ok((rules, justification.to_string()))
}

/// Runs the engine on raw source text (convenience for tests/fixtures).
pub fn check_source(path: &str, source: &str, cfg: &CrateConfig) -> Vec<Diagnostic> {
    let scanned = crate::scanner::scan(path, source);
    check_file(&scanned, cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::STRICT;

    fn diags(src: &str) -> Vec<Diagnostic> {
        check_source("t.rs", src, &STRICT)
    }

    const SUB: &str = "fn f(a: u64, b: u64) -> u64 {\n    a - b\n}\n";

    #[test]
    fn allow_with_justification_suppresses() {
        let src = SUB.replace(
            "    a - b",
            "    // tg-lint: allow(unsigned-sub) -- callers pass a >= b\n    a - b",
        );
        let d = diags(&src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_without_justification_is_malformed_and_does_not_suppress() {
        let src = SUB.replace(
            "    a - b",
            "    // tg-lint: allow(unsigned-sub)\n    a - b",
        );
        let d = diags(&src);
        assert!(d.iter().any(|d| d.rule == Rule::MalformedAllow));
        assert!(d.iter().any(|d| d.rule == Rule::UnsignedSub));
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// tg-lint: allow(unsigned-sub) -- nothing here\nlet x = 1;\n";
        let d = diags(src);
        assert!(d
            .iter()
            .any(|d| d.rule == Rule::MalformedAllow && d.message.contains("stale")));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(a: u64, b: u64) -> u64 {\n        a - b\n    }\n}\n";
        let d = diags(src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn multiple_rules_in_one_allow() {
        let src = "// tg-lint: hot(loop)\n\
                   fn f(a: u64, b: u64) -> Vec<u64> {\n\
                   // tg-lint: allow(hot-alloc, unsigned-sub) -- test harness shim\n\
                   vec![a - b]\n\
                   }\n\
                   // tg-lint: endhot\n";
        let d = diags(src);
        assert!(d.is_empty(), "{d:?}");
    }
}
