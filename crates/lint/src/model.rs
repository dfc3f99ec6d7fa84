//! Pass 1 of the semantic analyzer: a lightweight per-file model.
//!
//! Built on top of the masked lines from [`crate::scanner`], the model
//! records just enough structure for the semantic rules in
//! [`crate::semantic`] to reason cross-line and cross-file without a real
//! parser:
//!
//! - every `fn` item: name, visibility, signature line, body line range,
//!   parameter names/types, attached doc comment text,
//! - `let name: T`, `const NAME: T`, and struct/enum field `name: T`
//!   ascriptions (the local type environment that types `-` operands),
//! - `// tg-lint: hot(<label>)` … `// tg-lint: endhot` region markers on
//!   the event-loop code the `hot-alloc` rule polices,
//! - the set of identifiers the file mentions (the cross-file usage index
//!   behind `pub-doc-drift`).
//!
//! The model is deliberately approximate: unknown stays unknown, and the
//! rules treat unknown conservatively per their own documented policy.

use std::collections::{BTreeMap, BTreeSet};

use crate::scanner::{find_words, ScannedFile};

/// One `fn` parameter with a visible type ascription.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (patterns more complex than `[mut] name` are skipped).
    pub name: String,
    /// The type text, whitespace-collapsed (e.g. `u64`, `&[u32]`,
    /// `SimDuration`).
    pub ty: String,
}

/// One `fn` item (free function, method, or trait default).
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// True only for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub sig_line: u32,
    /// Inclusive body line range; for bodyless trait signatures both
    /// bounds equal `sig_line`.
    pub body: (u32, u32),
    /// Parameters with visible type ascriptions, in order.
    pub params: Vec<Param>,
    /// Concatenated doc-comment text attached above the item (empty when
    /// undocumented).
    pub doc: String,
    /// True when the item sits in test-only code.
    pub in_test: bool,
}

/// A `let name: T` binding site.
#[derive(Debug, Clone)]
pub struct LetBind {
    /// 1-based line of the `let`.
    pub line: u32,
    /// Binding name.
    pub name: String,
    /// Ascribed type text.
    pub ty: String,
}

/// A `// tg-lint: hot(<label>)` … `// tg-lint: endhot` region.
#[derive(Debug, Clone)]
pub struct HotRegion {
    /// First line inside the region (the line after the opening marker).
    pub start: u32,
    /// Last line inside the region (the line before the closing marker).
    pub end: u32,
    /// The label given in `hot(<label>)`.
    pub label: String,
}

/// The per-file model produced by pass 1.
#[derive(Debug, Default)]
pub struct FileModel {
    /// All `fn` items, in source order.
    pub fns: Vec<FnInfo>,
    /// All `let name: T` ascriptions, in source order.
    pub lets: Vec<LetBind>,
    /// `const`/`static` name → type text.
    pub consts: BTreeMap<String, String>,
    /// Struct/enum field name → type text; `None` when two fields of the
    /// same name disagree (lookup then abstains).
    pub fields: BTreeMap<String, Option<String>>,
    /// Hot regions, in source order.
    pub hot_regions: Vec<HotRegion>,
    /// Every identifier token in the file's masked code.
    pub idents: BTreeSet<String>,
    /// Marker-syntax errors (unclosed/unopened/bad hot markers), as
    /// `(line, message)`; surfaced via `malformed-allow`.
    pub marker_errors: Vec<(u32, String)>,
}

impl FileModel {
    /// True when `line` is inside a hot region.
    pub fn in_hot_region(&self, line: u32) -> Option<&HotRegion> {
        self.hot_regions
            .iter()
            .find(|r| r.start <= line && line <= r.end)
    }

    /// The innermost `fn` whose body contains `line`.
    pub fn enclosing_fn(&self, line: u32) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.0 <= line && line <= f.body.1)
            .max_by_key(|f| f.body.0)
    }

    /// Resolves the type text of `name` as seen from `line`: the latest
    /// preceding `let` in the enclosing fn, else a parameter, else a
    /// const/static, else a same-file field (for `self.name` receivers the
    /// caller strips the `self.` prefix first).
    pub fn lookup_type(&self, name: &str, line: u32) -> Option<&str> {
        if let Some(f) = self.enclosing_fn(line) {
            if let Some(l) = self
                .lets
                .iter()
                .rfind(|l| l.name == name && l.line <= line && l.line >= f.body.0)
            {
                return Some(&l.ty);
            }
            if let Some(p) = f.params.iter().find(|p| p.name == name) {
                return Some(&p.ty);
            }
        }
        if let Some(ty) = self.consts.get(name) {
            return Some(ty);
        }
        None
    }

    /// Resolves the type text of a field by name (same-file structs only).
    pub fn lookup_field(&self, name: &str) -> Option<&str> {
        self.fields.get(name).and_then(|t| t.as_deref())
    }
}

/// True when a directive's text is a hot-region marker (`hot(<label>)`,
/// bare `hot`, or `endhot`) rather than an `allow` — the rule engine skips
/// these in its allow parser because this module consumes them.
pub fn is_hot_marker(text: &str) -> bool {
    let t = text.trim();
    if t == "endhot" {
        return true;
    }
    match t.strip_prefix("hot") {
        Some(rest) => rest.trim().is_empty() || rest.trim_start().starts_with('('),
        None => false,
    }
}

/// Builds the model for one scanned file.
pub fn build(file: &ScannedFile) -> FileModel {
    let mut m = FileModel::default();
    collect_idents(file, &mut m);
    collect_hot_regions(file, &mut m);
    collect_items(file, &mut m);
    m
}

fn collect_idents(file: &ScannedFile, m: &mut FileModel) {
    for line in &file.lines {
        let mut word = String::new();
        for c in line.code.chars() {
            if c.is_alphanumeric() || c == '_' {
                word.push(c);
            } else if !word.is_empty() {
                if !word.chars().next().is_some_and(|f| f.is_ascii_digit()) {
                    m.idents.insert(std::mem::take(&mut word));
                } else {
                    word.clear();
                }
            }
        }
        if !word.is_empty() && !word.chars().next().is_some_and(|f| f.is_ascii_digit()) {
            m.idents.insert(word);
        }
    }
}

fn collect_hot_regions(file: &ScannedFile, m: &mut FileModel) {
    let mut open: Option<(u32, String)> = None;
    for d in &file.directives {
        let text = d.text.trim();
        if let Some(rest) = text.strip_prefix("hot") {
            let rest = rest.trim();
            if text.starts_with("hotfix") || !(rest.is_empty() || rest.starts_with('(')) {
                continue; // not a hot marker; directive hygiene handles it
            }
            let label = rest
                .strip_prefix('(')
                .and_then(|r| r.strip_suffix(')'))
                .map_or("", str::trim);
            if label.is_empty() {
                m.marker_errors.push((
                    d.line,
                    "hot marker needs a label: `// tg-lint: hot(<region-name>)`".to_string(),
                ));
                continue;
            }
            if let Some((line, _)) = &open {
                m.marker_errors.push((
                    d.line,
                    format!("hot region opened on line {line} is still open; close it with `// tg-lint: endhot`"),
                ));
                continue;
            }
            open = Some((d.line, label.to_string()));
        } else if text == "endhot" {
            match open.take() {
                Some((line, label)) => m.hot_regions.push(HotRegion {
                    start: line + 1,
                    end: d.line.saturating_sub(1),
                    label,
                }),
                None => m.marker_errors.push((
                    d.line,
                    "endhot without a matching `// tg-lint: hot(<label>)`".to_string(),
                )),
            }
        }
    }
    if let Some((line, label)) = open {
        m.marker_errors.push((
            line,
            format!("hot region `{label}` is never closed with `// tg-lint: endhot`"),
        ));
    }
}

/// Single walk over the masked lines: tracks brace depth, recognizes
/// `fn`/`struct`/`enum`/`const`/`static`/`let` items, and assigns body
/// ranges by depth bookkeeping.
fn collect_items(file: &ScannedFile, m: &mut FileModel) {
    let mut depth: i32 = 0;
    // Open fn bodies: (depth before `{`, index into m.fns).
    let mut open_fns: Vec<(i32, usize)> = Vec::new();
    // Open struct/enum bodies: depth before `{`.
    let mut open_types: Vec<i32> = Vec::new();
    // A signature seen on an earlier line, waiting for its `{` or `;`.
    let mut pending_fn: Option<(usize, String)> = None;

    for line in &file.lines {
        let code = &line.code;

        if let Some((idx, sig)) = pending_fn.take() {
            let mut sig = sig;
            sig.push(' ');
            sig.push_str(code);
            match sig_terminator(&sig) {
                Some(true) => {
                    // The `{` of this fn is on the current line; the depth
                    // bookkeeping below sees it and needs the fn open.
                    finish_signature(&sig, idx, m);
                    open_fns.push((depth, idx));
                }
                Some(false) => {
                    finish_signature(&sig, idx, m);
                    m.fns[idx].body = (m.fns[idx].sig_line, m.fns[idx].sig_line);
                }
                None => pending_fn = Some((idx, sig)),
            }
        } else if let Some(pos) = find_words(code, "fn").next() {
            if let Some(name) = ident_after(code, pos + 2) {
                let idx = m.fns.len();
                m.fns.push(FnInfo {
                    name,
                    is_pub: is_bare_pub(&code[..pos]),
                    sig_line: line.number,
                    body: (line.number, line.number),
                    params: Vec::new(),
                    doc: doc_text_above(file, line.number),
                    in_test: line.in_test,
                });
                let sig = code.clone();
                match sig_terminator(&sig) {
                    Some(true) => {
                        finish_signature(&sig, idx, m);
                        open_fns.push((depth, idx));
                    }
                    Some(false) => {
                        finish_signature(&sig, idx, m);
                        m.fns[idx].body = (line.number, line.number);
                    }
                    None => pending_fn = Some((idx, sig)),
                }
            }
        }

        if find_words(code, "struct").next().is_some()
            || find_words(code, "enum").next().is_some()
            || find_words(code, "union").next().is_some()
        {
            if code.contains('{') {
                open_types.push(depth);
            } else if !code.contains(';') {
                // `struct X {` with the brace on the next line: treat the
                // following block as a type body too.
                open_types.push(depth);
            }
        }

        collect_let_const(code, line.number, m);
        if open_types.last().is_some_and(|&d| depth > d) || line_opens_type_body(code) {
            collect_field(code, m);
        }

        // Depth bookkeeping, closing fn/type bodies as braces unwind.
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    while open_fns.last().is_some_and(|&(d, _)| d >= depth) {
                        let (_, idx) = open_fns.pop().unwrap_or((0, 0));
                        m.fns[idx].body.1 = line.number;
                    }
                    while open_types.last().is_some_and(|&d| d >= depth) {
                        open_types.pop();
                    }
                }
                _ => {}
            }
        }
    }
    // Unterminated bodies (truncated file): close at EOF.
    let last = file.lines.last().map_or(1, |l| l.number);
    for (_, idx) in open_fns {
        m.fns[idx].body.1 = last;
    }
}

/// True when the line itself opens a struct/enum body whose fields start
/// on the same line (`struct P { x: u32 }`).
fn line_opens_type_body(code: &str) -> bool {
    (find_words(code, "struct").next().is_some() || find_words(code, "enum").next().is_some())
        && code.contains('{')
}

/// `Some(true)` when the accumulated signature reaches its body `{`,
/// `Some(false)` at a bodyless `;`, `None` while still incomplete.
fn sig_terminator(sig: &str) -> Option<bool> {
    let mut paren = 0i32;
    let mut angle = 0i32;
    let chars: Vec<char> = sig.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        match chars[i] {
            '(' | '[' => paren += 1,
            ')' | ']' => paren -= 1,
            '<' => angle += 1,
            '>' => {
                if i > 0 && chars[i - 1] == '-' {
                    // `->` return arrow, not a generic close.
                } else {
                    angle -= 1;
                }
            }
            '{' if paren == 0 && angle <= 0 => return Some(true),
            ';' if paren == 0 && angle <= 0 => return Some(false),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses the parameter list out of a completed signature string.
fn finish_signature(sig: &str, idx: usize, m: &mut FileModel) {
    let chars: Vec<char> = sig.chars().collect();
    // Find the param-list `(`: the first `(` at angle-depth 0 after `fn`.
    let fn_pos = find_words(sig, "fn").next().unwrap_or(0);
    let mut angle = 0i32;
    let mut start = None;
    let mut i = fn_pos;
    while i < chars.len() {
        match chars[i] {
            '<' => angle += 1,
            '>' => {
                if i > 0 && chars[i - 1] == '-' {
                } else {
                    angle -= 1;
                }
            }
            '(' if angle <= 0 => {
                start = Some(i);
                break;
            }
            _ => {}
        }
        i += 1;
    }
    let Some(start) = start else { return };
    // Matching close paren.
    let mut depth = 0i32;
    let mut end = None;
    for (j, &c) in chars.iter().enumerate().skip(start) {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(j);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(end) = end else { return };
    let params_text: String = chars[start + 1..end].iter().collect();
    m.fns[idx].params = parse_params(&params_text);
}

/// Splits a param list at top-level commas and keeps `name: Type` pairs.
fn parse_params(text: &str) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    let mut parts = Vec::new();
    for c in text.chars() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    for part in parts {
        let part = part.trim();
        let Some((name_part, ty_part)) = split_top_level_colon(part) else {
            continue; // `self`, `&mut self`, or a weird pattern
        };
        let name = name_part.trim().trim_start_matches("mut ").trim();
        if name.is_empty()
            || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
            || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            continue; // tuple/struct patterns — no single binding to type
        }
        params.push(Param {
            name: name.to_string(),
            ty: collapse_ws(ty_part.trim()),
        });
    }
    params
}

/// Splits `name: Type` at the first top-level single colon (ignores `::`).
fn split_top_level_colon(part: &str) -> Option<(&str, &str)> {
    let bytes: Vec<char> = part.chars().collect();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => depth -= 1,
            ':' if depth == 0 => {
                if bytes.get(i + 1) == Some(&':') {
                    i += 2;
                    continue;
                }
                let split = part.char_indices().nth(i).map(|(b, _)| b)?;
                return Some((&part[..split], &part[split + 1..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn collapse_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = false;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_space && !out.is_empty() {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out.trim_end().to_string()
}

/// Collects `let name: T`, `const NAME: T`, `static NAME: T` on one line.
fn collect_let_const(code: &str, line: u32, m: &mut FileModel) {
    for pos in find_words(code, "let") {
        if let Some((name, ty)) = binding_after(code, pos + 3) {
            m.lets.push(LetBind { line, name, ty });
        }
    }
    for kw in ["const", "static"] {
        for pos in find_words(code, kw) {
            if let Some((name, ty)) = binding_after(code, pos + kw.len()) {
                m.consts.insert(name, ty);
            }
        }
    }
}

/// Parses `[mut ]name: Type` starting after a keyword; the type ends at a
/// top-level `=`, `;`, or end of line.
fn binding_after(code: &str, from: usize) -> Option<(String, String)> {
    let rest = code.get(from..)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name_end = rest
        .char_indices()
        .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
        .map_or(rest.len(), |(i, _)| i);
    if name_end == 0 {
        return None;
    }
    let name = &rest[..name_end];
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    let after = rest[name_end..].trim_start();
    let after = after.strip_prefix(':')?;
    if after.starts_with(':') {
        return None; // `::` path, not an ascription
    }
    let mut depth = 0i32;
    let mut ty = String::new();
    for c in after.chars() {
        match c {
            '(' | '[' | '<' => depth += 1,
            ')' | ']' | '>' => depth -= 1,
            '=' | ';' if depth == 0 => break,
            _ => {}
        }
        ty.push(c);
    }
    let ty = collapse_ws(ty.trim());
    (!ty.is_empty()).then(|| (name.to_string(), ty))
}

/// Collects a `name: Type,` field line inside a struct/enum body.
fn collect_field(code: &str, m: &mut FileModel) {
    let t = code.trim();
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let t = t
        .strip_prefix("pub(crate) ")
        .or_else(|| t.strip_prefix("pub(super) "))
        .unwrap_or(t);
    let Some((name, ty)) = split_top_level_colon(t) else {
        return;
    };
    let name = name.trim();
    if name.is_empty()
        || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
    {
        return;
    }
    let ty = collapse_ws(ty.trim().trim_end_matches(',').trim());
    if ty.is_empty() || ty.contains('{') {
        return;
    }
    match m.fields.get(name) {
        None => {
            m.fields.insert(name.to_string(), Some(ty));
        }
        Some(Some(existing)) if *existing != ty => {
            m.fields.insert(name.to_string(), None);
        }
        _ => {}
    }
}

/// The identifier starting at/after `from` (skipping whitespace).
fn ident_after(code: &str, from: usize) -> Option<String> {
    let rest = code.get(from..)?.trim_start();
    let end = rest
        .char_indices()
        .find(|(_, c)| !(c.is_alphanumeric() || *c == '_'))
        .map_or(rest.len(), |(i, _)| i);
    (end > 0 && !rest[..1].chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then(|| rest[..end].to_string())
}

/// True when the text before `fn` carries a bare `pub` (not `pub(...)`).
fn is_bare_pub(before: &str) -> bool {
    for pos in find_words(before, "pub") {
        let after = before[pos + 3..].trim_start();
        if !after.starts_with('(') {
            return true;
        }
    }
    false
}

/// Concatenated doc text of the `///` run directly above `line`
/// (attribute lines between docs and the item are skipped).
fn doc_text_above(file: &ScannedFile, line: u32) -> String {
    let mut docs: Vec<&str> = Vec::new();
    let mut expect = line.saturating_sub(1);
    while expect >= 1 {
        let idx = (expect - 1) as usize;
        let code_blank = file
            .lines
            .get(idx)
            .is_some_and(|l| l.code.trim().is_empty() || l.code.trim_start().starts_with("#["));
        let comment = file
            .comments
            .iter()
            .rev()
            .find(|c| c.line == expect && !c.has_code_before);
        match comment {
            Some(c) if c.text.starts_with('/') => {
                docs.push(c.text.trim_start_matches('/').trim());
                expect -= 1;
            }
            // Control comments (`// tg-lint: hot(...)` region markers or
            // allows) may sit between an item and its docs: keep walking.
            Some(c) if c.text.trim_start().starts_with("tg-lint:") => {
                expect -= 1;
            }
            Some(_) => break, // plain comment ends the doc run
            None if code_blank
                && file
                    .lines
                    .get(idx)
                    .is_some_and(|l| l.code.trim_start().starts_with("#[")) =>
            {
                // Attribute line between docs and item: keep walking.
                expect -= 1;
            }
            // The last line of a multi-line attribute (rustfmt's layout of
            // a long `#[expect(..., reason = "...")]`): skip to its `#[`.
            None if file.lines.get(idx).is_some_and(|l| l.code.trim() == ")]") => {
                while expect > 1
                    && !file.lines[expect as usize - 1]
                        .code
                        .trim_start()
                        .starts_with("#[")
                {
                    expect -= 1;
                }
                expect -= 1;
            }
            None => break,
        }
    }
    docs.reverse();
    docs.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn model_of(src: &str) -> FileModel {
        build(&scan("t.rs", src))
    }

    #[test]
    fn docs_above_multiline_attributes_are_attached() {
        let m = model_of(
            "/// Waits `d` of virtual time.\n\
             #[expect(\n    clippy::indexing_slicing,\n    reason = \"fixture\"\n)]\n\
             pub fn wait(d: SimDuration) {}\n",
        );
        assert_eq!(m.fns[0].doc, "Waits `d` of virtual time.");
    }

    #[test]
    fn fn_signature_and_body_range() {
        let m = model_of(
            "/// Waits `delay_ms` milliseconds.\n\
             pub fn wait(delay_ms: u64, label: &str) -> u64 {\n\
                 let scaled: u64 = delay_ms * 2;\n\
                 scaled\n\
             }\n",
        );
        assert_eq!(m.fns.len(), 1);
        let f = &m.fns[0];
        assert_eq!(f.name, "wait");
        assert!(f.is_pub);
        assert_eq!(f.body, (2, 5));
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "delay_ms");
        assert_eq!(f.params[0].ty, "u64");
        assert!(f.doc.contains("milliseconds"));
        assert_eq!(m.lookup_type("scaled", 4), Some("u64"));
        assert_eq!(m.lookup_type("delay_ms", 3), Some("u64"));
    }

    #[test]
    fn pub_crate_is_not_externally_pub() {
        let m = model_of("pub(crate) fn helper(x: u32) {}\nfn private() {}\n");
        assert!(!m.fns[0].is_pub);
        assert!(!m.fns[1].is_pub);
    }

    #[test]
    fn multiline_signatures_parse() {
        let m = model_of("fn multi(\n    a: u64,\n    b: SimDuration,\n) -> bool {\n    true\n}\n");
        assert_eq!(m.fns[0].params.len(), 2);
        assert_eq!(m.fns[0].params[1].ty, "SimDuration");
        assert_eq!(m.fns[0].body.1, 6);
    }

    #[test]
    fn generic_fn_bounds_do_not_confuse_params() {
        let m = model_of("fn apply<F: Fn(u32) -> u64>(seed: u64, f: F) -> u64 { f(0) }\n");
        assert_eq!(m.fns[0].params.len(), 2);
        assert_eq!(m.fns[0].params[0].name, "seed");
        assert_eq!(m.fns[0].params[0].ty, "u64");
    }

    #[test]
    fn struct_fields_and_consts_are_collected() {
        let m = model_of(
            "const LIMIT: u32 = 7;\n\
             struct S {\n    pub count: u64,\n    ratio: f64,\n}\n",
        );
        assert_eq!(m.consts.get("LIMIT").map(String::as_str), Some("u32"));
        assert_eq!(m.lookup_field("count"), Some("u64"));
        assert_eq!(m.lookup_field("ratio"), Some("f64"));
    }

    #[test]
    fn conflicting_field_types_abstain() {
        let m = model_of("struct A { n: u64 }\nstruct B { n: u32 }\n");
        assert_eq!(m.lookup_field("n"), None);
    }

    #[test]
    fn hot_regions_parse_and_validate() {
        let m = model_of(
            "fn f() {\n\
             // tg-lint: hot(event-loop)\n\
             let x = 1;\n\
             // tg-lint: endhot\n\
             }\n",
        );
        assert_eq!(m.hot_regions.len(), 1);
        assert_eq!(m.hot_regions[0].label, "event-loop");
        assert!(m.in_hot_region(3).is_some());
        assert!(m.in_hot_region(5).is_none());
        assert!(m.marker_errors.is_empty());

        let bad = model_of("// tg-lint: hot(x)\nfn f() {}\n");
        assert_eq!(bad.marker_errors.len(), 1, "{:?}", bad.marker_errors);
        let orphan = model_of("// tg-lint: endhot\nfn f() {}\n");
        assert_eq!(orphan.marker_errors.len(), 1);
    }

    #[test]
    fn idents_index_tracks_usage() {
        let m = model_of("fn caller() { remote_helper(3); }\n");
        assert!(m.idents.contains("remote_helper"));
        assert!(!m.idents.contains("3"));
    }

    #[test]
    fn nested_fns_resolve_innermost() {
        let m = model_of(
            "fn outer(a: u64) {\n    fn inner(a: u32) {\n        let _ = a;\n    }\n    let _ = a;\n}\n",
        );
        assert_eq!(m.lookup_type("a", 3), Some("u32"));
        assert_eq!(m.lookup_type("a", 5), Some("u64"));
    }
}
