//! Host-side measurement helpers: process CPU time, resident memory,
//! order statistics, and the provenance strings for `history.jsonl`.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` (`CLK_TCK`). Linux
/// has used 100 on every mainstream architecture for two decades; there is
/// no `sysconf` without libc, so the constant is stated here.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, including
/// threads that have already been joined (`/proc/self/stat` fields 14/15).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / CLK_TCK
}

fn status_kib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> f64 {
    status_kib("VmHWM:") * 1024.0
}

/// Current resident set size of this process, in bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// First line of a command's stdout, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, or `"unknown"` outside a git repository.
pub fn git_sha() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}

/// `rustc -V`.
pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}
