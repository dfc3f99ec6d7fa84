//! A hand-rolled Rust source scanner.
//!
//! The linter cannot use `syn` (the build environment is offline and this
//! crate is deliberately dependency-free), so this module implements the
//! small subset of Rust lexing the rules need:
//!
//! - masking of comments, string/char literals (including raw and byte
//!   strings) so rule patterns never match inside text,
//! - line comments are *captured* before masking so `// tg-lint: allow(..)`
//!   directives can be parsed out of them,
//! - a brace-depth pass that marks `#[cfg(test)]` modules and
//!   `#[test]`-family functions so rules can exempt test-only code.
//!
//! The scanner is line-oriented on output: every source line yields a
//! [`ScannedLine`] whose `code` field has the same length and column
//! positions as the original line, with non-code bytes blanked to spaces.

/// One source line after masking.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// 1-based line number.
    pub number: u32,
    /// The line with comments and literal contents replaced by spaces.
    /// Column positions match the original source line.
    pub code: String,
    /// True if the line sits inside a `#[cfg(test)]` module or a
    /// `#[test]`/`#[tokio::test]`/`#[bench]` item.
    pub in_test: bool,
}

/// A `tg-lint:` control comment found in the source.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line the comment appears on.
    pub line: u32,
    /// 1-based line the directive applies to (same line for trailing
    /// comments, the next non-blank code line for standalone ones).
    pub target_line: u32,
    /// Raw text after `tg-lint:`, trimmed.
    pub text: String,
}

/// A whole file after scanning.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Masked lines, in order.
    pub lines: Vec<ScannedLine>,
    /// All `tg-lint:` directives found in line comments.
    pub directives: Vec<Directive>,
    /// Every `//` comment, in order (doc comments included).
    pub comments: Vec<LineComment>,
}

/// The marker that introduces a lint control comment.
pub const DIRECTIVE_PREFIX: &str = "tg-lint:";

/// A captured `//` comment (before masking). The semantic pass reads
/// these to find doc comments (`///` lines arrive with a leading `/`).
#[derive(Debug, Clone)]
pub struct LineComment {
    /// 1-based line the comment appears on.
    pub line: u32,
    /// Text after the `//`, untrimmed.
    pub text: String,
    /// True when code precedes the comment on its line.
    pub has_code_before: bool,
}

/// Scans `source`, producing masked lines, test-region flags, and
/// `tg-lint:` directives.
pub fn scan(path: &str, source: &str) -> ScannedFile {
    let (masked, comments) = mask(source);
    let mut lines: Vec<ScannedLine> = masked
        .split('\n')
        .enumerate()
        .map(|(i, code)| ScannedLine {
            number: (i + 1) as u32,
            code: code.to_string(),
            in_test: false,
        })
        .collect();
    mark_test_regions(&mut lines);
    let directives = comments
        .iter()
        .filter_map(|c| parse_directive(c, &lines))
        .collect();
    ScannedFile {
        path: path.to_string(),
        lines,
        directives,
        comments,
    }
}

/// Replaces comments and literal contents with spaces (newlines kept so
/// line numbers and columns stay aligned) and collects line comments.
fn mask(source: &str) -> (String, Vec<LineComment>) {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut comments = Vec::new();
    let mut line: u32 = 1;
    let mut line_has_code = false;
    let mut i = 0usize;

    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == '\n' {
            out.push('\n');
            line += 1;
            line_has_code = false;
            i += 1;
        } else if c == '/' && next == Some('/') {
            // Line comment: capture its text, then blank it.
            let start = i + 2;
            let mut j = start;
            while j < bytes.len() && bytes[j] != '\n' {
                j += 1;
            }
            let text: String = bytes[start..j].iter().collect();
            comments.push(LineComment {
                line,
                text,
                has_code_before: line_has_code,
            });
            for _ in i..j {
                out.push(' ');
            }
            i = j;
        } else if c == '/' && next == Some('*') {
            // Block comment, possibly nested.
            let mut depth = 1u32;
            let mut j = i + 2;
            out.push(' ');
            out.push(' ');
            while j < bytes.len() && depth > 0 {
                if bytes[j] == '/' && bytes.get(j + 1) == Some(&'*') {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    j += 2;
                } else if bytes[j] == '*' && bytes.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    j += 2;
                } else {
                    if bytes[j] == '\n' {
                        line += 1;
                        line_has_code = false;
                    }
                    out.push(blank(bytes[j]));
                    j += 1;
                }
            }
            i = j;
        } else if c == '"' {
            i = mask_string(&bytes, i, &mut out, &mut line, &mut line_has_code);
        } else if (c == 'r' || c == 'b') && !prev_is_ident(&bytes, i) {
            if let Some(end) = raw_or_byte_literal_end(&bytes, i) {
                for &byte in &bytes[i..end] {
                    if byte == '\n' {
                        line += 1;
                        line_has_code = false;
                    }
                    out.push(blank(byte));
                }
                i = end;
            } else {
                line_has_code = true;
                out.push(c);
                i += 1;
            }
        } else if c == '\'' {
            if let Some(end) = char_literal_end(&bytes, i) {
                for _ in i..end {
                    out.push(' ');
                }
                i = end;
            } else {
                // A lifetime: keep the tick, scan on normally.
                line_has_code = true;
                out.push(c);
                i += 1;
            }
        } else {
            if !c.is_whitespace() {
                line_has_code = true;
            }
            out.push(c);
            i += 1;
        }
    }
    (out, comments)
}

/// Masks an ordinary `"..."` string starting at `i`; returns the index
/// one past the closing quote.
fn mask_string(
    bytes: &[char],
    i: usize,
    out: &mut String,
    line: &mut u32,
    line_has_code: &mut bool,
) -> usize {
    out.push(' ');
    let mut j = i + 1;
    while j < bytes.len() {
        match bytes[j] {
            '\\' => {
                // Keep newline bytes (string line-continuations) so line
                // numbering stays aligned.
                out.push(' ');
                if bytes.get(j + 1) == Some(&'\n') {
                    out.push('\n');
                    *line += 1;
                    *line_has_code = false;
                } else if j + 1 < bytes.len() {
                    out.push(' ');
                }
                j += 2;
            }
            '"' => {
                out.push(' ');
                return j + 1;
            }
            '\n' => {
                out.push('\n');
                *line += 1;
                *line_has_code = false;
                j += 1;
            }
            _ => {
                out.push(' ');
                j += 1;
            }
        }
    }
    j
}

fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// If `i` starts a raw string (`r"`, `r#"`), byte string (`b"`), raw byte
/// string (`br#"`), or byte char (`b'x'`), returns the index one past the
/// closing delimiter.
fn raw_or_byte_literal_end(bytes: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    let mut is_byte = false;
    if bytes[j] == 'b' {
        is_byte = true;
        j += 1;
    }
    let raw = bytes.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    if is_byte && !raw {
        match bytes.get(j) {
            Some('"') => return Some(plain_string_end(bytes, j)),
            Some('\'') => return char_literal_end(bytes, j).or(Some(j + 1)),
            _ => return None,
        }
    }
    if !raw {
        return None;
    }
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    while j < bytes.len() {
        if bytes[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(j)
}

/// End index (exclusive) of a plain `"..."` string starting at `start`.
fn plain_string_end(bytes: &[char], start: usize) -> usize {
    let mut j = start + 1;
    while j < bytes.len() {
        match bytes[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Distinguishes `'a'` / `'\n'` / `'\u{1F600}'` char literals from
/// lifetimes like `'static`. Returns the end index for a literal, `None`
/// for a lifetime.
fn char_literal_end(bytes: &[char], i: usize) -> Option<usize> {
    match bytes.get(i + 1) {
        Some('\\') => {
            // Escape: scan to the closing quote (bounded; `\u{...}` is the
            // longest escape form).
            let mut j = i + 2;
            let limit = (i + 12).min(bytes.len());
            while j < limit {
                if bytes[j] == '\'' {
                    return Some(j + 1);
                }
                j += 1;
            }
            Some(j)
        }
        Some(c) if *c != '\'' => {
            if bytes.get(i + 2) == Some(&'\'') {
                // 'x' — but 'a' followed by a quote could also be a
                // lifetime in `<'a>'`-free code; a single char bounded by
                // quotes is always a literal in practice.
                Some(i + 3)
            } else {
                None // lifetime
            }
        }
        _ => None,
    }
}

/// Marks lines inside `#[cfg(test)]` / `#[test]`-family items.
fn mark_test_regions(lines: &mut [ScannedLine]) {
    let mut depth: i32 = 0;
    let mut pending_test = false;
    // Depth *outside* the innermost test region, if any.
    let mut test_outer_depth: Option<i32> = None;

    for line in lines.iter_mut() {
        let mut in_test_here = test_outer_depth.is_some();
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c == '#' && chars.get(i + 1) == Some(&'[') {
                let (attr, end) = read_attr(&chars, i + 2);
                if attr_is_test(&attr) {
                    pending_test = true;
                }
                i = end;
                continue;
            }
            match c {
                '{' => {
                    depth += 1;
                    if pending_test {
                        pending_test = false;
                        if test_outer_depth.is_none() {
                            test_outer_depth = Some(depth - 1);
                            in_test_here = true;
                        }
                    }
                }
                '}' => {
                    depth -= 1;
                    if test_outer_depth == Some(depth) {
                        test_outer_depth = None;
                    }
                }
                ';' => {
                    // `#[cfg(test)] use ...;` or `#[cfg(test)] mod tests;`
                    // never opened a block: drop the pending flag.
                    pending_test = false;
                }
                _ => {}
            }
            i += 1;
        }
        line.in_test = in_test_here || test_outer_depth.is_some();
    }
}

/// Reads an attribute's bracketed content starting just past `#[`;
/// returns (content, index past the closing `]`).
fn read_attr(chars: &[char], start: usize) -> (String, usize) {
    let mut depth = 1i32;
    let mut j = start;
    let mut content = String::new();
    while j < chars.len() && depth > 0 {
        match chars[j] {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            c => content.push(c),
        }
        j += 1;
    }
    (content, j.min(chars.len()))
}

/// True for `#[test]`, `#[tokio::test(...)]`, `#[bench]`, and any
/// `#[cfg(...)]` whose predicate mentions `test`.
fn attr_is_test(attr: &str) -> bool {
    let attr = attr.trim();
    let head = attr
        .split(|c: char| c == '(' || c.is_whitespace())
        .next()
        .unwrap_or("");
    if head == "test" || head == "bench" || head.ends_with("::test") {
        return true;
    }
    if head == "cfg" {
        return contains_word(attr, "test");
    }
    false
}

/// True if `word` occurs in `text` with non-identifier characters (or the
/// text boundary) on both sides.
pub fn contains_word(text: &str, word: &str) -> bool {
    find_words(text, word).next().is_some()
}

/// Iterator over byte offsets of word-bounded occurrences of `word`.
pub fn find_words<'a>(text: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).filter_map(move |(pos, _)| {
        let before_ok = pos == 0 || !text[..pos].chars().next_back().is_some_and(is_ident);
        let after = &text[pos + word.len()..];
        let after_ok = !after.chars().next().is_some_and(is_ident);
        (before_ok && after_ok).then_some(pos)
    })
}

/// Parses a captured line comment into a [`Directive`], if it carries the
/// `tg-lint:` marker. Target resolution: trailing comments apply to their
/// own line; standalone comments to the next line with code.
fn parse_directive(comment: &LineComment, lines: &[ScannedLine]) -> Option<Directive> {
    let text = comment.text.trim();
    let rest = text.strip_prefix(DIRECTIVE_PREFIX)?.trim();
    let target_line = if comment.has_code_before {
        comment.line
    } else {
        lines
            .iter()
            .skip(comment.line as usize) // lines after the comment line
            .find(|l| !l.code.trim().is_empty())
            .map_or(comment.line, |l| l.number)
    };
    Some(Directive {
        line: comment.line,
        target_line,
        text: rest.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let src = "let x = \"Instant::now()\"; // Instant here too\nlet y = 1;\n";
        let f = scan("t.rs", src);
        assert!(!f.lines[0].code.contains("Instant"));
        assert!(f.lines[0].code.contains("let x ="));
        assert_eq!(f.lines[1].code, "let y = 1;");
    }

    #[test]
    fn masks_raw_and_byte_strings() {
        let src = "let a = r#\"thread_rng\"#; let b = b\"from_entropy\"; let c = br\"HashMap\";";
        let f = scan("t.rs", src);
        let code = &f.lines[0].code;
        assert!(!code.contains("thread_rng"));
        assert!(!code.contains("from_entropy"));
        assert!(!code.contains("HashMap"));
    }

    #[test]
    fn keeps_lifetimes_but_masks_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let f = scan("t.rs", src);
        assert!(f.lines[0].code.contains("<'a>"));
        assert!(!f.lines[0].code.contains("'x'"));
    }

    #[test]
    fn nested_block_comments_mask_across_lines() {
        let src = "/* outer /* SystemTime */ still comment */ let z = 2;\nInstant\n";
        let f = scan("t.rs", src);
        assert!(!f.lines[0].code.contains("SystemTime"));
        assert!(f.lines[0].code.contains("let z = 2;"));
        assert_eq!(f.lines[1].code.trim(), "Instant");
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn lib2() {}\n";
        let f = scan("t.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test, "inside mod tests");
        assert!(!f.lines[5].in_test, "after mod tests");
    }

    #[test]
    fn test_fn_variants_are_marked() {
        for attr in ["#[test]", "#[tokio::test(start_paused = true)]", "#[bench]"] {
            let src = format!("{attr}\nfn t() {{\n    body();\n}}\nfn lib() {{}}\n");
            let f = scan("t.rs", &src);
            assert!(f.lines[2].in_test, "{attr} body");
            assert!(!f.lines[4].in_test, "{attr} after");
        }
    }

    #[test]
    fn cfg_test_on_statement_does_not_leak() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {\n    body();\n}\n";
        let f = scan("t.rs", src);
        assert!(!f.lines[3].in_test);
    }

    #[test]
    fn directives_resolve_targets() {
        let src = "let a = 1; // tg-lint: allow(unsigned-sub) -- trailing\n\
                   // tg-lint: allow(hot-alloc) -- standalone\n\
                   let b = 2;\n";
        let f = scan("t.rs", src);
        assert_eq!(f.directives.len(), 2);
        assert_eq!(f.directives[0].target_line, 1);
        assert_eq!(f.directives[1].target_line, 3);
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("use std::time::Instant;", "Instant"));
        assert!(!contains_word("SimInstant::now()", "Instant"));
        assert!(!contains_word("Instantaneous", "Instant"));
    }
}
