//! Machine-readable report: aggregation and hand-rolled JSON rendering.
//!
//! The JSON writer is ~60 lines instead of a serde dependency because the
//! linter must stay buildable with zero external crates; the output is
//! pretty-printed and fully sorted so tests can pin it byte-for-byte.

use crate::diagnostics::Diagnostic;
use crate::rules::{AllowRecord, Rule, ALL_RULES};

/// The result of linting a set of files.
#[derive(Debug)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: u32,
    /// All violations, sorted by (file, line, column, rule).
    pub violations: Vec<Diagnostic>,
    /// All parsed allow directives, sorted by (file, line, rule).
    pub allows: Vec<AllowRecord>,
}

impl Report {
    /// Builds a report, sorting everything into its stable order.
    pub fn new(
        files_scanned: u32,
        mut violations: Vec<Diagnostic>,
        mut allows: Vec<AllowRecord>,
    ) -> Self {
        violations.sort_by_key(super::diagnostics::Diagnostic::sort_key);
        allows.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule.id()).cmp(&(b.file.as_str(), b.line, b.rule.id()))
        });
        Report {
            files_scanned,
            violations,
            allows,
        }
    }

    /// True when the tree is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation count for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.violations.iter().filter(|d| d.rule == rule).count()
    }

    /// Human-readable rendering: one grep-able line per violation plus a
    /// per-rule summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.violations {
            out.push_str(&d.render());
            out.push('\n');
        }
        if !self.violations.is_empty() {
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} violation(s), {} allow(s)\n",
            self.files_scanned,
            self.violations.len(),
            self.allows.len()
        ));
        for &rule in ALL_RULES {
            let n = self.count(rule);
            if n > 0 {
                out.push_str(&format!("  {}: {}\n", rule.id(), n));
            }
        }
        out
    }

    /// Pretty-printed JSON; key order and array order are deterministic.
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object();
        w.field_u64("version", 1);
        w.field_u64("files_scanned", u64::from(self.files_scanned));
        w.field_bool("ok", self.ok());
        w.key("counts");
        w.open_object();
        for &rule in ALL_RULES {
            w.field_u64(rule.id(), self.count(rule) as u64);
        }
        w.close_object();
        w.key("violations");
        w.open_array();
        for d in &self.violations {
            w.open_object();
            w.field_str("rule", d.rule.id());
            w.field_str("file", &d.file);
            w.field_u64("line", u64::from(d.line));
            w.field_u64("column", u64::from(d.column));
            w.field_str("snippet", &d.snippet);
            w.field_str("message", &d.message);
            w.close_object();
        }
        w.close_array();
        w.key("allows");
        w.open_array();
        for a in &self.allows {
            w.open_object();
            w.field_str("rule", a.rule.id());
            w.field_str("file", &a.file);
            w.field_u64("line", u64::from(a.line));
            w.field_str("justification", &a.justification);
            w.field_u64("used", u64::from(a.used));
            w.close_object();
        }
        w.close_array();
        w.close_object();
        w.finish()
    }
}

/// Minimal pretty-printing JSON writer (objects, arrays, strings, u64,
/// bool — all the report needs).
struct JsonWriter {
    out: String,
    indent: usize,
    /// Whether the current container already has an entry (comma control).
    has_entry: Vec<bool>,
    /// Set after `key(...)`: the next open/scalar continues the same line.
    pending_key: bool,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            out: String::new(),
            indent: 0,
            has_entry: Vec::new(),
            pending_key: false,
        }
    }

    fn newline_and_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn begin_entry(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(has) = self.has_entry.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
        if self.indent > 0 {
            self.newline_and_indent();
        }
    }

    fn key(&mut self, name: &str) {
        self.begin_entry();
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\": ");
        self.pending_key = true;
    }

    fn open_object(&mut self) {
        self.begin_entry();
        self.out.push('{');
        self.indent += 1;
        self.has_entry.push(false);
    }

    fn close_object(&mut self) {
        let had = self.has_entry.pop().unwrap_or(false);
        self.indent -= 1;
        if had {
            self.newline_and_indent();
        }
        self.out.push('}');
    }

    fn open_array(&mut self) {
        self.begin_entry();
        self.out.push('[');
        self.indent += 1;
        self.has_entry.push(false);
    }

    fn close_array(&mut self) {
        let had = self.has_entry.pop().unwrap_or(false);
        self.indent -= 1;
        if had {
            self.newline_and_indent();
        }
        self.out.push(']');
    }

    fn field_str(&mut self, name: &str, value: &str) {
        self.key(name);
        self.begin_entry();
        self.out.push('"');
        for c in value.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn field_u64(&mut self, name: &str, value: u64) {
        self.key(name);
        self.begin_entry();
        self.out.push_str(&value.to_string());
    }

    fn field_bool(&mut self, name: &str, value: bool) {
        self.key(name);
        self.begin_entry();
        self.out.push_str(if value { "true" } else { "false" });
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_ok_and_stable() {
        let r = Report::new(3, Vec::new(), Vec::new());
        assert!(r.ok());
        let json = r.render_json();
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"violations\": []"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let d = Diagnostic::new(Rule::HotAlloc, "f.rs", 1, 1, "say \"hi\\\"", "a\tmessage");
        let r = Report::new(1, vec![d], Vec::new());
        let json = r.render_json();
        assert!(json.contains("say \\\"hi\\\\\\\""));
        assert!(json.contains("a\\tmessage"));
    }

    #[test]
    fn violations_sort_by_location() {
        let mk = |file: &str, line| Diagnostic::new(Rule::HotAlloc, file, line, 1, "", "m");
        let r = Report::new(
            2,
            vec![mk("b.rs", 1), mk("a.rs", 9), mk("a.rs", 2)],
            Vec::new(),
        );
        let order: Vec<(String, u32)> = r
            .violations
            .iter()
            .map(|d| (d.file.clone(), d.line))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs".to_string(), 2),
                ("a.rs".to_string(), 9),
                ("b.rs".to_string(), 1)
            ]
        );
    }
}
