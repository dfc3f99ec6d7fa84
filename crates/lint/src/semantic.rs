//! Pass 2 of the semantic analyzer: rules that need the file model.
//!
//! Three rules live here, each tied to a concrete SLO failure mode (see
//! docs/lint.md for the table):
//!
//! - **`unsigned-sub`** — unsigned `-` in deterministic library code: one
//!   bad timestamp underflows into a panic in debug or a wrapped, huge
//!   deadline in release.
//! - **`hot-alloc`** — heap allocation inside a `// tg-lint: hot(<label>)`
//!   region: the marked event-loop code where an allocation per event
//!   shows up directly in the tail.
//! - **`pub-doc-drift`** — a `pub fn` used by another workspace crate
//!   whose time-typed parameters are not documented with their unit
//!   (ms/ns/virtual/wall): the cross-crate misuse that produced the Pi→
//!   wall TTL scaling bug.
//!
//! Operand types come from deliberately conservative, local inference:
//! `unsigned-sub` skips fully-unknown operands (precision over recall —
//! flagged sites must be actionable).

use std::collections::BTreeSet;

use crate::config::CrateConfig;
use crate::model::{FileModel, Param};
use crate::rules::Rule;
use crate::scanner::{contains_word, find_words, ScannedFile};
use crate::types::Num;

/// A semantic finding before allow filtering (the engine in
/// [`crate::rules`] matches these against `allow` directives).
#[derive(Debug)]
pub struct Candidate {
    /// The rule that fired.
    pub rule: Rule,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Why this is a violation.
    pub message: String,
}

/// Runs all semantic rules over one modeled file. `external_idents` is the
/// union of identifiers used by *other* crates (for `pub-doc-drift`
/// reachability); `None` means treat every pub fn as reachable (fixture /
/// `--paths` mode).
pub fn candidates(
    file: &ScannedFile,
    model: &FileModel,
    cfg: &CrateConfig,
    external_idents: Option<&BTreeSet<String>>,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    let unsigned_sub = crate::config::rule_applies(Rule::UnsignedSub, cfg);
    let hot = crate::config::rule_applies(Rule::HotAlloc, cfg);
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        let chars: Vec<char> = line.code.chars().collect();
        if unsigned_sub {
            check_unsigned_sub(&chars, line.number, model, &mut out);
        }
        if hot {
            if let Some(region) = model.in_hot_region(line.number) {
                check_hot_alloc(&line.code, line.number, &region.label, &mut out);
            }
        }
    }
    if crate::config::rule_applies(Rule::PubDocDrift, cfg) {
        check_doc_drift(model, external_idents, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// unsigned-sub

fn check_unsigned_sub(chars: &[char], line: u32, model: &FileModel, out: &mut Vec<Candidate>) {
    for i in 0..chars.len() {
        if chars[i] != '-' {
            continue;
        }
        if chars.get(i + 1) == Some(&'>') {
            continue; // return arrow
        }
        // Exponent in a float literal: `1e-9`.
        if i >= 2 && (chars[i - 1] == 'e' || chars[i - 1] == 'E') && chars[i - 2].is_ascii_digit() {
            continue;
        }
        let Some(p) = prev_non_space(chars, i) else {
            continue;
        };
        if !(is_ident_char(chars[p]) || chars[p] == ')' || chars[p] == ']') {
            continue; // unary minus
        }
        let rhs_from = if chars.get(i + 1) == Some(&'=') {
            i + 2 // `-=`
        } else {
            i + 1
        };
        let Some((_, lhs)) = primary_before(chars, i) else {
            continue;
        };
        let Some((_, rhs)) = primary_after(chars, rhs_from) else {
            continue;
        };
        let lt = infer(&lhs, line, model);
        let rt = infer(&rhs, line, model);
        let unsigned_side = match (&lt, &rt) {
            (Ty::Known(n), _) if n.is_unsigned() => Some(lhs.as_str()),
            (_, Ty::Known(n)) if n.is_unsigned() => Some(rhs.as_str()),
            _ => None,
        };
        if lt.is_float() || rt.is_float() {
            continue;
        }
        if let Some(side) = unsigned_side {
            out.push(Candidate {
                rule: Rule::UnsignedSub,
                line,
                col: i as u32 + 1,
                message: format!(
                    "unsigned subtraction (`{side}` is unsigned) underflows — a panic \
                     in debug, a wrapped huge value in release; use `saturating_sub`/\
                     `checked_sub` or `sched::units::signed_ns_delta`"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// hot-alloc

/// Allocation patterns that must not appear per-event in hot regions.
const HOT_ALLOC_SUBSTR: &[&str] = &[
    "Vec::new(",
    "VecDeque::new(",
    "String::new(",
    "Box::new(",
    "BTreeMap::new(",
    "BTreeSet::new(",
    ".to_string()",
    ".to_owned()",
    ".to_vec()",
    ".collect()",
    ".collect::<",
];

fn check_hot_alloc(code: &str, line: u32, label: &str, out: &mut Vec<Candidate>) {
    let mut hits: Vec<(usize, String)> = Vec::new();
    for &pat in HOT_ALLOC_SUBSTR {
        hits.extend(code.match_indices(pat).map(|(p, _)| (p, pat.to_string())));
    }
    let word = "with_capacity";
    hits.extend(find_words(code, word).map(|p| (p, word.to_string())));
    for mac in ["vec", "format"] {
        for p in find_words(code, mac) {
            if code[p + mac.len()..].starts_with('!') {
                hits.push((p, format!("{mac}!")));
            }
        }
    }
    hits.sort();
    for (p, what) in hits {
        out.push(Candidate {
            rule: Rule::HotAlloc,
            line,
            col: p as u32 + 1,
            message: format!(
                "`{what}` allocates inside hot region `{label}`; preallocate outside \
                 the event loop or justify with allow(hot-alloc)"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// pub-doc-drift

/// Name segments that mark a numeric parameter as time-valued.
const TIME_SEGMENTS: &[&str] = &[
    "ms", "ns", "us", "nanos", "millis", "micros", "secs", "deadline", "timeout", "now", "ttl",
    "elapsed", "delay", "interval", "period", "latency",
];

/// Unit words a doc comment must mention for a time-typed parameter
/// (checked lowercase, word-bounded).
const UNIT_WORDS: &[&str] = &[
    "ms",
    "ns",
    "us",
    "millis",
    "milliseconds",
    "nanos",
    "nanoseconds",
    "micros",
    "microseconds",
    "secs",
    "seconds",
    "virtual",
    "wall",
    "simtime",
    "simduration",
];

fn check_doc_drift(
    model: &FileModel,
    external_idents: Option<&BTreeSet<String>>,
    out: &mut Vec<Candidate>,
) {
    for f in &model.fns {
        if f.in_test || !f.is_pub {
            continue;
        }
        if let Some(used) = external_idents {
            if !used.contains(&f.name) {
                continue; // not reachable from any other workspace crate
            }
        }
        let Some(p) = f.params.iter().find(|p| is_time_typed(p)) else {
            continue;
        };
        let doc = f.doc.to_lowercase();
        if UNIT_WORDS.iter().any(|w| contains_word(&doc, w)) {
            continue;
        }
        out.push(Candidate {
            rule: Rule::PubDocDrift,
            line: f.sig_line,
            col: 1,
            message: format!(
                "pub fn `{}` takes time-typed `{}: {}` but its doc never states the \
                 unit (ms/ns/micros/secs, virtual/wall); callers in other crates \
                 cannot know the domain",
                f.name, p.name, p.ty
            ),
        });
    }
}

fn is_time_typed(p: &Param) -> bool {
    for w in ["SimTime", "SimDuration", "Duration", "Instant"] {
        if contains_word(&p.ty, w) {
            return true;
        }
    }
    let base =
        p.ty.trim_start_matches('&')
            .trim_start_matches("mut ")
            .trim();
    if Num::parse(base).is_none() {
        return false;
    }
    p.name.split('_').any(|seg| TIME_SEGMENTS.contains(&seg))
}

// ---------------------------------------------------------------------------
// expression type inference

/// What inference can say about an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    /// A definite primitive numeric type.
    Known(Num),
    /// An unsuffixed integer literal: adapts to context, never flagged.
    IntLit,
    /// No local evidence.
    Unknown,
}

impl Ty {
    fn is_float(self) -> bool {
        matches!(self, Ty::Known(n) if n.is_float())
    }
}

/// Infers the type of an expression string as seen at `line`.
fn infer(expr: &str, line: u32, model: &FileModel) -> Ty {
    infer_depth(expr, line, model, 0)
}

fn infer_depth(expr: &str, line: u32, model: &FileModel, depth: u32) -> Ty {
    if depth > 8 {
        return Ty::Unknown;
    }
    let e = strip_outer_parens(expr.trim());
    if e.is_empty() {
        return Ty::Unknown;
    }
    // A top-level `as T` fixes the type: binary operands must match the
    // cast result, so the rightmost paren-level-0 target wins.
    if let Some(t) = rightmost_cast_target(e) {
        if let Some(n) = Num::parse(&t) {
            return Ty::Known(n);
        }
        return Ty::Unknown;
    }
    // Shifts keep the left operand's type.
    if let Some(lhs) = split_before_top_level(e, &["<<", ">>"]) {
        return infer_depth(lhs, line, model, depth + 1);
    }
    // Binary arithmetic: operands share one type; combine what we learn.
    if let Some(parts) = split_top_level_arith(e) {
        let mut acc = Ty::IntLit;
        for part in parts {
            match infer_depth(part, line, model, depth + 1) {
                Ty::Known(n) if n.is_float() => return Ty::Known(n),
                Ty::Known(n) => {
                    if acc == Ty::IntLit || acc == Ty::Unknown {
                        acc = Ty::Known(n);
                    }
                }
                Ty::IntLit => {}
                Ty::Unknown => {
                    if acc == Ty::IntLit {
                        acc = Ty::Unknown;
                    }
                }
            }
        }
        return acc;
    }
    // Unary prefixes preserve the numeric type.
    for pre in ['-', '!', '*', '&'] {
        if let Some(rest) = e.strip_prefix(pre) {
            return infer_depth(rest, line, model, depth + 1);
        }
    }
    infer_primary(e, line, model, depth)
}

fn infer_primary(e: &str, line: u32, model: &FileModel, depth: u32) -> Ty {
    if let Some(t) = literal_type(e) {
        return t;
    }
    if e.ends_with(')') {
        return infer_call(e, line, model, depth);
    }
    if e.ends_with(']') {
        return infer_index(e, line, model);
    }
    if let Some((prefix, last)) = e.rsplit_once("::") {
        // `u64::MAX`, `f64::INFINITY`: the prefix type; `Self::LIMIT`: the
        // const table.
        if let Some(n) = Num::parse(prefix.rsplit("::").next().unwrap_or(prefix)) {
            return Ty::Known(n);
        }
        if let Some(ty) = model.consts.get(last) {
            return parse_ty(ty);
        }
        return Ty::Unknown;
    }
    if let Some((_, field)) = e.rsplit_once('.') {
        if field.chars().all(|c| c.is_ascii_digit()) {
            return Ty::Unknown; // tuple index
        }
        if e.starts_with("self.") && e.matches('.').count() == 1 {
            if let Some(ty) = model.lookup_field(field) {
                return parse_ty(ty);
            }
            return Ty::Unknown;
        }
        if let Some(ty) = model.lookup_field(field) {
            return parse_ty(ty);
        }
        return Ty::Unknown;
    }
    if let Some(ty) = model.lookup_type(e, line) {
        return parse_ty(ty);
    }
    Ty::Unknown
}

/// Method-call and fn-call inference via a small table of workspace idioms.
fn infer_call(e: &str, line: u32, model: &FileModel, depth: u32) -> Ty {
    let Some(open) = matching_back_from_end(e) else {
        return Ty::Unknown;
    };
    let head = &e[..open];
    // `u64::from(x)` / `f64::from(x)`.
    if let Some(prefix) = head.strip_suffix("::from") {
        if let Some(n) = Num::parse(prefix.rsplit("::").next().unwrap_or(prefix)) {
            return Ty::Known(n);
        }
    }
    let Some((recv, method)) = head.rsplit_once('.') else {
        return Ty::Unknown; // free fn call — no return-type table
    };
    match method {
        "len" | "count" | "capacity" => Ty::Known(Num::Usize),
        // Deterministic crates ban std::time, so `as_nanos`-family calls
        // are the SimTime/SimDuration u64 accessors.
        "as_nanos" | "as_micros" | "as_millis" | "as_secs" => Ty::Known(Num::U64),
        "as_millis_f64" | "as_secs_f64" => Ty::Known(Num::F64),
        "to_bits" => Ty::Known(Num::U64),
        "leading_zeros" | "trailing_zeros" | "count_ones" | "count_zeros" => Ty::Known(Num::U32),
        "round" | "ceil" | "floor" | "trunc" | "fract" | "sqrt" | "cbrt" | "powf" | "powi"
        | "exp" | "exp2" | "ln" | "log2" | "log10" | "recip" | "to_radians" | "to_degrees"
        | "hypot" | "atan2" | "mul_add" => Ty::Known(Num::F64),
        "min" | "max" | "clamp" | "abs" | "pow" | "signum" | "rem_euclid" | "div_euclid"
        | "midpoint" => infer_depth(recv, line, model, depth + 1),
        m if m.starts_with("saturating_") || m.starts_with("wrapping_") => {
            infer_depth(recv, line, model, depth + 1)
        }
        _ => Ty::Unknown,
    }
}

/// `recv[...]`: element type when the receiver is a visible slice/array/Vec
/// of a primitive.
fn infer_index(e: &str, line: u32, model: &FileModel) -> Ty {
    let Some(open) = matching_back_from_end(e) else {
        return Ty::Unknown;
    };
    let recv = &e[..open];
    let ty = if let Some((_, field)) = recv.rsplit_once('.') {
        model.lookup_field(field)
    } else {
        model.lookup_type(recv, line)
    };
    let Some(ty) = ty else { return Ty::Unknown };
    elem_ty(ty)
}

/// The element type of `&[T]` / `&mut [T]` / `[T; N]` / `Vec<T>`.
fn elem_ty(ty: &str) -> Ty {
    let t = ty.trim_start_matches('&').trim_start_matches("mut ").trim();
    let inner = if let Some(rest) = t.strip_prefix('[') {
        rest.split([';', ']']).next()
    } else if let Some(rest) = t.strip_prefix("Vec<") {
        rest.strip_suffix('>')
    } else {
        None
    };
    match inner.map(str::trim).and_then(Num::parse) {
        Some(n) => Ty::Known(n),
        None => Ty::Unknown,
    }
}

/// Type-ascription text → primitive, if it is one (modulo `&`/`mut`).
fn parse_ty(ty: &str) -> Ty {
    let t = ty.trim_start_matches('&').trim_start_matches("mut ").trim();
    match Num::parse(t) {
        Some(n) => Ty::Known(n),
        None => Ty::Unknown,
    }
}

/// Numeric literal classification: suffixed → its type, unsuffixed float →
/// f64, unsuffixed int → the adaptable `IntLit`.
fn literal_type(e: &str) -> Option<Ty> {
    let first = e.chars().next()?;
    if !first.is_ascii_digit() {
        return None;
    }
    for (suffix, n) in [
        ("u8", Num::U8),
        ("u16", Num::U16),
        ("u32", Num::U32),
        ("u64", Num::U64),
        ("u128", Num::U128),
        ("usize", Num::Usize),
        ("i8", Num::I8),
        ("i16", Num::I16),
        ("i32", Num::I32),
        ("i64", Num::I64),
        ("i128", Num::I128),
        ("isize", Num::Isize),
        ("f32", Num::F32),
        ("f64", Num::F64),
    ] {
        if e.ends_with(suffix) {
            return Some(Ty::Known(n));
        }
    }
    if is_float_literal(e) {
        return Some(Ty::Known(Num::F64));
    }
    if is_int_literal(e) {
        return Some(Ty::IntLit);
    }
    // Digit-led but not a clean literal (e.g. a malformed token): abstain.
    Some(Ty::Unknown)
}

fn is_int_literal(e: &str) -> bool {
    let body = e
        .strip_prefix("0x")
        .or_else(|| e.strip_prefix("0b"))
        .or_else(|| e.strip_prefix("0o"));
    match body {
        Some(b) => !b.is_empty() && b.chars().all(|c| c.is_ascii_hexdigit() || c == '_'),
        None => !e.is_empty() && e.chars().all(|c| c.is_ascii_digit() || c == '_'),
    }
}

fn is_float_literal(e: &str) -> bool {
    let e = e.trim_end_matches("f64").trim_end_matches("f32");
    let mut has_digit = false;
    let mut has_marker = false;
    for c in e.chars() {
        match c {
            '0'..='9' | '_' => has_digit = true,
            '.' | 'e' | 'E' => has_marker = true,
            '-' | '+' => {}
            _ => return false,
        }
    }
    has_digit && has_marker && e.chars().next().is_some_and(|c| c.is_ascii_digit())
}

// ---------------------------------------------------------------------------
// string surgery helpers

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn byte_to_char(s: &str, byte: usize) -> usize {
    s[..byte].chars().count()
}

fn prev_non_space(chars: &[char], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| chars[j] != ' ')
}

/// Index of the `]`/`)` matching the opener at `i`.
fn matching_forward(chars: &[char], i: usize) -> Option<usize> {
    let (open, close) = match chars[i] {
        '[' => ('[', ']'),
        '(' => ('(', ')'),
        _ => return None,
    };
    let mut depth = 0i32;
    for (j, &c) in chars.iter().enumerate().skip(i) {
        if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// For a string ending in `)` or `]`: byte index of the matching opener.
fn matching_back_from_end(e: &str) -> Option<usize> {
    let chars: Vec<char> = e.chars().collect();
    let last = *chars.last()?;
    let (open, close) = match last {
        ')' => ('(', ')'),
        ']' => ('[', ']'),
        _ => return None,
    };
    let mut depth = 0i32;
    for j in (0..chars.len()).rev() {
        if chars[j] == close {
            depth += 1;
        } else if chars[j] == open {
            depth -= 1;
            if depth == 0 {
                let byte = e.char_indices().nth(j).map(|(b, _)| b)?;
                return Some(byte);
            }
        }
    }
    None
}

/// The primary-expression chain ending just before `i` (exclusive):
/// identifiers, `.`, `::`, and balanced `(...)`/`[...]` groups, walked
/// backward. Returns `(start_index, text)`.
fn primary_before(chars: &[char], i: usize) -> Option<(usize, String)> {
    let mut end = i;
    while end > 0 && chars[end - 1] == ' ' {
        end -= 1;
    }
    let stop = end;
    let mut j = end;
    loop {
        if j == 0 {
            break;
        }
        let c = chars[j - 1];
        if is_ident_char(c) || c == '.' {
            j -= 1;
        } else if c == ')' || c == ']' {
            let (open, close) = if c == ')' { ('(', ')') } else { ('[', ']') };
            let mut depth = 0i32;
            let mut k = j;
            let mut matched = false;
            while k > 0 {
                let d = chars[k - 1];
                if d == close {
                    depth += 1;
                } else if d == open {
                    depth -= 1;
                    if depth == 0 {
                        k -= 1;
                        matched = true;
                        break;
                    }
                }
                k -= 1;
            }
            if !matched {
                break;
            }
            j = k;
        } else if c == ':' && j >= 2 && chars[j - 2] == ':' {
            j -= 2;
        } else {
            break;
        }
    }
    (j < stop).then(|| {
        let text: String = chars[j..stop].iter().collect();
        (j, text.trim().to_string())
    })
}

/// The primary-expression chain starting at/after `i` (skipping spaces and
/// unary prefixes). Returns `(end_index, text)`.
fn primary_after(chars: &[char], i: usize) -> Option<(usize, String)> {
    let mut j = i;
    while j < chars.len() && chars[j] == ' ' {
        j += 1;
    }
    let start = j;
    while j < chars.len() && matches!(chars[j], '-' | '!' | '*' | '&') {
        j += 1;
    }
    loop {
        if j >= chars.len() {
            break;
        }
        let c = chars[j];
        if is_ident_char(c) || c == '.' {
            j += 1;
        } else if c == '(' || c == '[' {
            match matching_forward(chars, j) {
                Some(close) => j = close + 1,
                None => break,
            }
        } else if c == ':' && chars.get(j + 1) == Some(&':') {
            j += 2;
        } else {
            break;
        }
    }
    (j > start).then(|| {
        let text: String = chars[start..j].iter().collect();
        (j, text.trim().to_string())
    })
}

fn strip_outer_parens(e: &str) -> &str {
    let mut e = e;
    loop {
        let stripped = e.strip_prefix('(').and_then(|r| r.strip_suffix(')'));
        let Some(inner) = stripped else { return e };
        // Only strip when the outer pair actually matches.
        let mut depth = 0i32;
        let mut ok = true;
        for (k, c) in inner.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth < 0 && k < inner.len() {
                        ok = false;
                        break;
                    }
                }
                _ => {}
            }
        }
        if !ok || depth != 0 {
            return e;
        }
        e = inner.trim();
    }
}

/// Byte position after which the rightmost paren-level-0 ` as ` target
/// starts; returns the target type token.
fn rightmost_cast_target(e: &str) -> Option<String> {
    let chars: Vec<char> = e.chars().collect();
    let mut best: Option<String> = None;
    let mut depth = 0i32;
    let mut idx = 0usize;
    for pos in find_words(e, "as") {
        // Compute depth at this byte position.
        let ci = byte_to_char(e, pos);
        while idx < ci {
            match chars[idx] {
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                _ => {}
            }
            idx += 1;
        }
        if depth == 0 {
            if let Some(t) = ident_after(&chars, ci + 2) {
                best = Some(t);
            }
        }
    }
    best
}

/// Splits at the first top-level occurrence of any needle, returning the
/// left side.
fn split_before_top_level<'a>(e: &'a str, needles: &[&str]) -> Option<&'a str> {
    let chars: Vec<char> = e.chars().collect();
    let mut depth = 0i32;
    for j in 0..chars.len() {
        match chars[j] {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            _ => {}
        }
        if depth > 0 {
            continue;
        }
        for n in needles {
            let nch: Vec<char> = n.chars().collect();
            if chars[j..].starts_with(&nch) {
                let byte = e.char_indices().nth(j).map(|(b, _)| b)?;
                return Some(&e[..byte]);
            }
        }
    }
    None
}

/// Splits at top-level `+ - * / %` (binary positions only); `None` when
/// the expression has no top-level arithmetic.
fn split_top_level_arith(e: &str) -> Option<Vec<&str>> {
    let chars: Vec<char> = e.chars().collect();
    let mut depth = 0i32;
    let mut cuts = Vec::new();
    for j in 0..chars.len() {
        let c = chars[j];
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '+' | '-' | '*' | '/' | '%' if depth == 0 => {
                if c == '-' && chars.get(j + 1) == Some(&'>') {
                    continue;
                }
                if c == '-'
                    && j >= 2
                    && (chars[j - 1] == 'e' || chars[j - 1] == 'E')
                    && chars[j - 2].is_ascii_digit()
                {
                    continue; // exponent sign
                }
                let Some(p) = prev_non_space(&chars, j) else {
                    continue; // leading unary
                };
                if is_ident_char(chars[p]) || chars[p] == ')' || chars[p] == ']' {
                    cuts.push(j);
                }
            }
            _ => {}
        }
    }
    if cuts.is_empty() {
        return None;
    }
    let mut parts = Vec::new();
    let byte_of = |ci: usize| -> usize { e.char_indices().nth(ci).map_or(e.len(), |(b, _)| b) };
    let mut from = 0usize;
    for &cut in &cuts {
        parts.push(e[from..byte_of(cut)].trim());
        from = byte_of(cut + 1);
    }
    parts.push(e[from..].trim());
    Some(parts)
}

/// The identifier starting at/after char index `from`.
fn ident_after(chars: &[char], from: usize) -> Option<String> {
    let mut j = from;
    while j < chars.len() && chars[j] == ' ' {
        j += 1;
    }
    let start = j;
    while j < chars.len() && is_ident_char(chars[j]) {
        j += 1;
    }
    (j > start && !chars[start].is_ascii_digit()).then(|| chars[start..j].iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::STRICT;
    use crate::scanner::scan;

    fn run(src: &str) -> Vec<Candidate> {
        let f = scan("t.rs", src);
        let m = crate::model::build(&f);
        candidates(&f, &m, &STRICT, None)
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        run(src).iter().map(|c| c.rule.id()).collect()
    }

    #[test]
    fn unsigned_subtraction_flagged_signed_ignored() {
        let src = "fn f(a: u64, b: u64) -> u64 { a - b }\n";
        assert_eq!(rules_of(src), vec!["unsigned-sub"]);
        assert!(rules_of("fn f(a: i64, b: i64) -> i64 { a - b }\n").is_empty());
        assert!(rules_of("fn f(a: f64, b: f64) -> f64 { a - b }\n").is_empty());
        assert!(
            rules_of("fn f(a: u64) -> i64 { -foo(a) }\n").is_empty(),
            "unary"
        );
        assert!(rules_of("fn f() -> f64 { 1e-9 }\n").is_empty(), "exponent");
    }

    #[test]
    fn saturating_forms_are_clean() {
        for src in [
            "fn f(a: u64, b: u64) -> u64 { a.saturating_sub(b) }\n",
            "fn f(a: u64, b: u64) -> Option<u64> { a.checked_sub(b) }\n",
        ] {
            assert!(rules_of(src).is_empty(), "{src}");
        }
    }

    #[test]
    fn hot_alloc_fires_only_inside_regions() {
        let src = "fn f() {\n\
                   let a = Vec::new();\n\
                   // tg-lint: hot(loop)\n\
                   let b = Vec::new();\n\
                   let s = format!(\"x\");\n\
                   // tg-lint: endhot\n\
                   let c = Vec::new();\n\
                   }\n";
        let c = run(src);
        let hot: Vec<u32> = c
            .iter()
            .filter(|c| c.rule == Rule::HotAlloc)
            .map(|c| c.line)
            .collect();
        assert_eq!(hot, vec![4, 5], "{c:?}");
    }

    #[test]
    fn doc_drift_wants_units_on_time_params() {
        let src = "/// Sets the lease duration.\n\
                   pub fn set_ttl(ttl_ms: u64) {}\n";
        assert_eq!(rules_of(src), vec!["pub-doc-drift"]);
        let good = "/// Sets the lease duration in virtual ms.\n\
                    pub fn set_ttl(ttl_ms: u64) {}\n";
        assert!(rules_of(good).is_empty());
        // Non-time numerics and non-pub fns are exempt.
        assert!(rules_of("/// Count.\npub fn set_count(items: u64) {}\n").is_empty());
        assert!(rules_of("fn set_ttl(ttl_ms: u64) {}\n").is_empty());
    }

    #[test]
    fn doc_drift_respects_reachability() {
        let src = "/// Doc.\npub fn lease_ttl(ttl_ms: u64) {}\n";
        let f = scan("t.rs", src);
        let m = crate::model::build(&f);
        let mut used = BTreeSet::new();
        assert!(candidates(&f, &m, &STRICT, Some(&used)).is_empty());
        used.insert("lease_ttl".to_string());
        assert_eq!(candidates(&f, &m, &STRICT, Some(&used)).len(), 1);
    }

    #[test]
    fn simduration_params_are_time_typed() {
        let src = "/// Waits a bit.\npub fn wait(d: SimDuration) {}\n";
        assert_eq!(rules_of(src), vec!["pub-doc-drift"]);
    }
}
