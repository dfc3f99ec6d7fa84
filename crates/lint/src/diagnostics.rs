//! Diagnostic type and human-readable rendering.

use crate::rules::Rule;

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the match.
    pub column: u32,
    /// The offending line (masked, trimmed) for context.
    pub snippet: String,
    /// Why this is a violation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic; trims the snippet to keep output compact.
    pub fn new(
        rule: Rule,
        file: &str,
        line: u32,
        column: u32,
        snippet: &str,
        message: &str,
    ) -> Self {
        const MAX_SNIPPET: usize = 120;
        let mut snippet = snippet.trim().to_string();
        if snippet.len() > MAX_SNIPPET {
            let mut cut = MAX_SNIPPET;
            while !snippet.is_char_boundary(cut) {
                cut -= 1;
            }
            snippet.truncate(cut);
            snippet.push_str("...");
        }
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            column,
            snippet,
            message: message.to_string(),
        }
    }

    /// `file:line:col: rule: message` — the human (non-`--json`) format.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}",
            self.file,
            self.line,
            self.column,
            self.rule.id(),
            self.message
        )
    }

    /// Stable sort key so output order never depends on walk order.
    pub fn sort_key(&self) -> (String, u32, u32, &'static str) {
        (self.file.clone(), self.line, self.column, self.rule.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_grep_friendly() {
        let d = Diagnostic::new(Rule::HotAlloc, "crates/x/src/a.rs", 3, 7, "code", "msg");
        assert_eq!(d.render(), "crates/x/src/a.rs:3:7: hot-alloc: msg");
    }

    #[test]
    fn long_snippets_truncate_cleanly() {
        let long = "x".repeat(300);
        let d = Diagnostic::new(Rule::HotAlloc, "f.rs", 1, 1, &long, "m");
        assert!(d.snippet.len() <= 123);
        assert!(d.snippet.ends_with("..."));
    }
}
