//! A small, dependency-free command-line argument parser.
//!
//! Supports `--key value`, `--key=value` and boolean `--flag` forms, plus
//! positional arguments. Every value is read through one typed accessor
//! per kind of value — a duration or an instant in ms, a real in a range,
//! an integer count of a given width, a seed, or a list of those — and
//! each accessor's error names the flag.
//!
//! The accessors also record which keys a command read, and how, so
//! [`Args::finish`] can reject every option the command did not read:
//! the code that reads the options is the only list of them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;
use tailguard_simcore::{SimDuration, SimTime};

/// A parse or validation failure, printed to stderr by `main`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

/// The reals above zero, `inf` excluded.
const POSITIVE: (Bound<f64>, Bound<f64>) = (Bound::Excluded(0.0), Bound::Excluded(f64::INFINITY));

/// Reads `text`, the value of `--key`, as a number. `nan` and `inf` parse;
/// the kind's own check decides whether they are allowed.
pub fn number(key: &str, text: &str) -> Result<f64, ArgError> {
    text.trim()
        .parse()
        .map_err(|_| err(format!("--{key}: `{text}` is not a number")))
}

/// Reads `text`, the value of `--key`, as an integer of type `T`.
fn integer<T: FromStr>(key: &str, text: &str) -> Result<T, ArgError> {
    text.trim()
        .parse()
        .map_err(|_| err(format!("--{key}: `{text}` is not an integer")))
}

/// Checks that `x`, the value of `--key`, lies in `range`; NaN never does.
/// The error gives the range in interval notation, e.g. `(0, 1.5]`.
pub fn in_range(key: &str, x: f64, range: &impl RangeBounds<f64>) -> Result<f64, ArgError> {
    if range.contains(&x) {
        return Ok(x);
    }
    let lo = match range.start_bound() {
        Bound::Included(a) => format!("[{a}"),
        Bound::Excluded(a) => format!("({a}"),
        Bound::Unbounded => "(-inf".to_string(),
    };
    let hi = match range.end_bound() {
        Bound::Included(b) => format!("{b}]"),
        Bound::Excluded(b) => format!("{b})"),
        Bound::Unbounded => "inf)".to_string(),
    };
    Err(err(format!("--{key} must lie in {lo}, {hi}")))
}

/// A duration of `ms` milliseconds, the value of `--key`. NaN, values
/// ≤ 0 and values that round to 0 ns are rejected; `inf` saturates to
/// [`SimDuration::MAX`].
pub fn duration(key: &str, ms: f64) -> Result<SimDuration, ArgError> {
    let d = SimDuration::from_millis_f64(ms);
    if d.is_zero() {
        return Err(err(format!(
            "--{key} must be a positive duration in ms, at least 1 ns (got {ms})"
        )));
    }
    Ok(d)
}

/// Parsed command-line arguments: positionals plus `--key` options.
#[derive(Debug, Default, Clone)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
    /// Each key an accessor read, and whether it was first read as a
    /// switch ([`Args::flag`]) rather than as a value.
    read: RefCell<BTreeMap<String, bool>>,
}

impl Args {
    /// Parses a raw argument list (without the program name).
    ///
    /// An option is `--key value` or `--key=value`; a flag is a `--key`
    /// followed by another option or the end of input.
    pub fn parse<I, S>(raw: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(stripped) = tok.strip_prefix("--") {
                if stripped.is_empty() {
                    return Err(err("unexpected bare `--`"));
                }
                if let Some((k, v)) = stripped.split_once('=') {
                    args.options.insert(k.to_string(), v.to_string());
                } else if let Some(v) = iter.next_if(|next| !next.starts_with("--")) {
                    args.options.insert(stripped.to_string(), v);
                } else {
                    args.flags.push(stripped.to_string());
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// The positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Notes that `key` was read, as a switch or as a value.
    fn note(&self, key: &str, switch: bool) {
        self.read
            .borrow_mut()
            .entry(key.to_string())
            .or_insert(switch);
    }

    /// A string option, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.note(key, false);
        self.options.get(key).map(String::as_str)
    }

    /// A string option, or `default` when absent.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// True when `--key` appeared as a bare flag (or as `--key=true`).
    pub fn flag(&self, key: &str) -> bool {
        self.note(key, true);
        self.flags.iter().any(|f| f == key) || self.options.get(key).is_some_and(|v| v == "true")
    }

    /// A float option with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        self.get(key).map_or(Ok(default), |v| number(key, v))
    }

    /// An integer option with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        self.get(key).map_or(Ok(default), |v| integer(key, v))
    }

    /// A u64 option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        self.get(key).map_or(Ok(default), |v| integer(key, v))
    }

    /// A comma-separated list of floats.
    pub fn f64_list(&self, key: &str) -> Result<Option<Vec<f64>>, ArgError> {
        self.get(key)
            .map(|v| v.split(',').map(|x| number(key, x)).collect())
            .transpose()
    }

    /// A duration in ms (see [`duration`]), `default_ms` when absent.
    pub fn duration_ms(&self, key: &str, default_ms: f64) -> Result<SimDuration, ArgError> {
        duration(key, self.f64_or(key, default_ms)?)
    }

    /// An instant in ms of virtual time, `default_ms` when absent. NaN and
    /// negative values are rejected; `inf` saturates to [`SimTime::MAX`].
    pub fn time_ms(&self, key: &str, default_ms: f64) -> Result<SimTime, ArgError> {
        let ms = self.f64_or(key, default_ms)?;
        if ms.is_nan() || ms < 0.0 {
            return Err(err(format!("--{key} must be a time in ms, at least 0")));
        }
        Ok(SimTime::from_millis_f64(ms))
    }

    /// A real in `range`, each end open or closed, `default` when absent.
    pub fn real_in(
        &self,
        key: &str,
        default: f64,
        range: impl RangeBounds<f64>,
    ) -> Result<f64, ArgError> {
        in_range(key, self.f64_or(key, default)?, &range)
    }

    /// A finite real above zero, `default` when absent.
    pub fn positive(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        self.real_in(key, default, POSITIVE)
    }

    /// A comma-separated list of reals, each in `range`; `default` when
    /// absent.
    pub fn reals_in(
        &self,
        key: &str,
        default: &[f64],
        range: impl RangeBounds<f64>,
    ) -> Result<Vec<f64>, ArgError> {
        match self.f64_list(key)? {
            None => Ok(default.to_vec()),
            Some(xs) => xs.into_iter().map(|x| in_range(key, x, &range)).collect(),
        }
    }

    /// A comma-separated list of durations in ms (see [`duration`]);
    /// `default` when absent.
    pub fn durations_ms(
        &self,
        key: &str,
        default: &[SimDuration],
    ) -> Result<Vec<SimDuration>, ArgError> {
        match self.f64_list(key)? {
            None => Ok(default.to_vec()),
            Some(xs) => xs.into_iter().map(|ms| duration(key, ms)).collect(),
        }
    }

    /// An integer count in `range` that fits in `T` (`usize`, `u32`,
    /// `u16`, `u8`), `default` when absent.
    pub fn count<T: TryFrom<usize>>(
        &self,
        key: &str,
        default: usize,
        range: impl RangeBounds<usize> + fmt::Debug,
    ) -> Result<T, ArgError> {
        count_in(key, self.usize_or(key, default)?, &range)
    }

    /// A comma-separated list of integer counts, each in `range` and
    /// fitting in `T`; `default` when absent.
    pub fn counts<T: TryFrom<usize> + Clone>(
        &self,
        key: &str,
        default: &[T],
        range: impl RangeBounds<usize> + fmt::Debug,
    ) -> Result<Vec<T>, ArgError> {
        let Some(list) = self.get(key) else {
            return Ok(default.to_vec());
        };
        list.split(',')
            .map(|x| count_in(key, integer(key, x)?, &range))
            .collect()
    }

    /// The `--seed`: any `u64`, `default` when absent.
    pub fn seed(&self, default: u64) -> Result<u64, ArgError> {
        self.u64_or("seed", default)
    }

    /// Ends a command's parse phase: rejects an option the command did not
    /// read, listing the keys it did, a value option given bare, and a
    /// switch given a value other than `true`.
    pub fn finish(&self) -> Result<(), ArgError> {
        let read = self.read.borrow();
        let values = self.options.iter().map(|(k, v)| (k, Some(v)));
        for (key, value) in values.chain(self.flags.iter().map(|k| (k, None))) {
            match (read.get(key), value) {
                (None, _) => {
                    let expected: Vec<String> = read.keys().map(|k| format!("--{k}")).collect();
                    return Err(err(format!(
                        "unknown option --{key} (expected one of: {})",
                        expected.join(", ")
                    )));
                }
                (Some(false), None) => return Err(err(format!("--{key} needs a value"))),
                (Some(true), Some(v)) if v != "true" => {
                    return Err(err(format!("--{key} takes no value (got `{v}`)")))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Converts `n`, the value of `--key`, to `T` if it lies in `range`.
fn count_in<T: TryFrom<usize>>(
    key: &str,
    n: usize,
    range: &(impl RangeBounds<usize> + fmt::Debug),
) -> Result<T, ArgError> {
    let fits = T::try_from(n).ok().filter(|_| range.contains(&n));
    fits.ok_or_else(|| {
        let width = std::any::type_name::<T>();
        err(format!("--{key} must lie in {range:?} and fit in {width}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().copied()).expect("parse")
    }

    #[test]
    fn key_value_both_forms() {
        let a = parse(&["--load", "0.4", "--policy=fifo"]);
        assert_eq!(a.get("load"), Some("0.4"));
        assert_eq!(a.get("policy"), Some("fifo"));
    }

    #[test]
    fn flags_vs_options() {
        let a = parse(&["--json", "--queries", "100", "--realtime"]);
        assert!(a.flag("json"));
        assert!(a.flag("realtime"));
        assert!(!a.flag("queries"));
        assert_eq!(a.usize_or("queries", 0).unwrap(), 100);
    }

    #[test]
    fn positionals_collected_in_order() {
        let a = parse(&["sim", "--load", "0.3", "extra"]);
        assert_eq!(a.positional(), &["sim".to_string(), "extra".to_string()]);
    }

    #[test]
    fn typed_accessors() {
        let a = parse(&["--x", "2.5", "--n", "7"]);
        assert_eq!(a.f64_or("x", 0.0).unwrap(), 2.5);
        assert_eq!(a.f64_or("missing", 1.5).unwrap(), 1.5);
        assert_eq!(a.usize_or("n", 0).unwrap(), 7);
        assert!(a.f64_or("n", 0.0).is_ok());
    }

    #[test]
    fn bad_number_reports_key() {
        let a = parse(&["--load", "abc"]);
        let e = a.f64_or("load", 0.0).unwrap_err();
        assert!(e.0.contains("--load"));
        assert!(e.0.contains("abc"));
    }

    #[test]
    fn list_parsing() {
        let a = parse(&["--slos", "1.0, 1.5,2"]);
        assert_eq!(a.f64_list("slos").unwrap(), Some(vec![1.0, 1.5, 2.0]));
        assert_eq!(a.f64_list("missing").unwrap(), None);
    }

    #[test]
    fn unread_options_are_unknown() {
        let a = parse(&["--laod", "0.4", "--json"]);
        assert_eq!(a.f64_or("load", 0.5).unwrap(), 0.5);
        assert!(a.flag("json"));
        let e = a.finish().unwrap_err();
        assert_eq!(
            e.0,
            "unknown option --laod (expected one of: --json, --load)"
        );
    }

    #[test]
    fn read_options_pass() {
        let a = parse(&["--load", "0.4", "--json=true"]);
        assert_eq!(a.f64_or("load", 0.0).unwrap(), 0.4);
        assert!(a.flag("json"));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn bare_values_and_valued_switches_rejected() {
        let a = parse(&["--load", "--json"]);
        assert_eq!(a.f64_or("load", 0.5).unwrap(), 0.5);
        assert!(a.flag("json"));
        assert_eq!(a.finish().unwrap_err().0, "--load needs a value");
        let a = parse(&["--json", "yes"]);
        assert!(!a.flag("json"));
        assert_eq!(
            a.finish().unwrap_err().0,
            "--json takes no value (got `yes`)"
        );
    }

    #[test]
    fn flag_as_value_true() {
        let a = parse(&["--json=true"]);
        assert!(a.flag("json"));
    }
}
