//! Shared helpers for the per-figure bench targets.
//!
//! Each bench target under `benches/` reproduces one table or figure of the
//! paper's evaluation (§IV) and prints the same rows/series the paper
//! reports, side by side with the paper's published values where the paper
//! gives numbers. Absolute latencies are not expected to match a 2018-era
//! testbed; the *shape* — which policy wins, by roughly what factor, where
//! crossovers fall — is the reproduction target.
//!
//! Set `TG_BENCH_SCALE` (a float, default `1.0`) to scale every run's query
//! count: `TG_BENCH_SCALE=0.2 cargo bench` for a quick smoke pass,
//! `TG_BENCH_SCALE=4` for publication-grade tails.
//!
//! Set `TG_JOBS` (an integer ≥ 1) to cap the worker threads the parallel
//! bench targets use; the default is the machine's available parallelism.
//! Results are bit-identical for any `TG_JOBS` value.

use tailguard::MaxLoadOptions;

/// Reads the `TG_BENCH_SCALE` multiplier (default 1.0, clamped to
/// `[0.01, 100]`).
pub fn bench_scale() -> f64 {
    std::env::var("TG_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(|v| v.clamp(0.01, 100.0))
        .unwrap_or(1.0)
}

/// Scales a base query count by [`bench_scale`], never below 1 (a zero
/// query count would make a simulation run meaningless and can divide by
/// zero in warm-up arithmetic).
pub fn scaled(base: usize) -> usize {
    (((base as f64) * bench_scale()) as usize).max(1)
}

/// Worker-thread count for the parallel bench targets: `TG_JOBS` when set
/// (clamped to ≥ 1), else the machine's available parallelism.
pub fn jobs() -> usize {
    std::env::var("TG_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map(|v| v.max(1))
        .unwrap_or_else(tailguard::default_jobs)
}

/// Standard max-load options for paper-mix scenarios.
pub fn maxload_opts(base_queries: usize) -> MaxLoadOptions {
    MaxLoadOptions {
        queries: scaled(base_queries),
        tolerance: 0.01,
        ..MaxLoadOptions::default()
    }
}

/// Prints the standard bench header.
pub fn header(id: &str, paper_ref: &str, what: &str) {
    println!();
    println!("================================================================================");
    println!("{id} — {paper_ref}");
    println!("{what}");
    println!(
        "(TG_BENCH_SCALE={}, queries scale with it; shapes, not absolutes, are the target)",
        bench_scale()
    );
    println!("================================================================================");
}

/// Writes an experiment's data series as CSV under
/// `target/paper_figures/<name>.csv`, so the regenerated figures can be
/// re-plotted with any tool.
///
/// # Example
///
/// ```
/// let mut csv = tailguard_bench::FigureCsv::create("doctest_example", &["policy", "maxload"]);
/// csv.labeled_row("TailGuard", &[0.289]);
/// let path = csv.finish();
/// assert!(path.ends_with("doctest_example.csv"));
/// ```
#[derive(Debug)]
pub struct FigureCsv {
    path: std::path::PathBuf,
    content: String,
    columns: usize,
}

impl FigureCsv {
    /// Starts a CSV with the given header columns.
    ///
    /// # Panics
    ///
    /// Panics when `header` is empty.
    pub fn create(name: &str, header: &[&str]) -> FigureCsv {
        assert!(!header.is_empty(), "need at least one column");
        // Anchor on the cargo target dir so the files land in one place
        // regardless of the bench binary's working directory.
        let target = std::env::var("CARGO_TARGET_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|_| {
                // Benches run with CWD = the package dir; the workspace
                // target sits two levels up (crates/bench -> repo root).
                let cwd = std::env::current_dir().unwrap_or_default();
                let ws = cwd
                    .ancestors()
                    .find(|a| a.join("Cargo.toml").exists() && a.join("crates").exists())
                    .map(std::path::Path::to_path_buf)
                    .unwrap_or(cwd);
                ws.join("target")
            });
        let dir = target.join("paper_figures");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
        }
        FigureCsv {
            path: dir.join(format!("{name}.csv")),
            content: format!("{}\n", header.join(",")),
            columns: header.len(),
        }
    }

    /// Appends one row with a leading string label.
    ///
    /// # Panics
    ///
    /// Panics when `1 + values.len()` differs from the header width.
    pub fn labeled_row(&mut self, label: &str, values: &[f64]) {
        assert_eq!(1 + values.len(), self.columns, "row width mismatch");
        let mut line = vec![label.replace(',', ";")];
        line.extend(values.iter().map(|v| format!("{v}")));
        self.content.push_str(&line.join(","));
        self.content.push('\n');
    }

    /// Writes the file and returns its path (also printed by callers).
    /// A failed write is reported on stderr — losing a figure's data
    /// silently would defeat the point of the bench run.
    pub fn finish(self) -> String {
        if let Err(e) = std::fs::write(&self.path, self.content) {
            eprintln!("warning: cannot write {}: {e}", self.path.display());
        }
        self.path.display().to_string()
    }
}

/// Formats a relative gain `new/old − 1` as a signed percentage.
pub fn gain_pct(new: f64, old: f64) -> String {
    if old <= 0.0 {
        return "   n/a".to_string();
    }
    format!("{:+6.1}%", (new / old - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_one() {
        // Do not set the env var here (tests run in parallel); just check
        // the clamping logic via scaled().
        let s = bench_scale();
        assert!((0.01..=100.0).contains(&s));
        assert_eq!(scaled(100), ((100.0 * s) as usize).max(1));
    }

    #[test]
    fn scaled_never_returns_zero() {
        // Even a tiny base times a small TG_BENCH_SCALE must keep at least
        // one query, or runs degenerate to empty simulations.
        assert_eq!(scaled(0), 1);
        assert!(scaled(1) >= 1);
    }

    #[test]
    fn figure_csv_roundtrip() {
        let mut csv = FigureCsv::create("unit_test_csv", &["policy", "load", "p99"]);
        csv.labeled_row("TailGuard", &[0.4, 0.95]);
        csv.labeled_row("FI,FO", &[0.4, 1.2]); // comma in label sanitized
        let path = csv.finish();
        let content = std::fs::read_to_string(&path).expect("written");
        assert!(content.starts_with("policy,load,p99"));
        assert!(content.contains("TailGuard,0.4,0.95"));
        assert!(content.contains("FI;FO"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn figure_csv_rejects_bad_width() {
        let mut csv = FigureCsv::create("unit_test_csv_bad", &["a", "b"]);
        csv.labeled_row("x", &[1.0, 2.0]);
    }

    #[test]
    fn gain_formatting() {
        assert_eq!(gain_pct(1.4, 1.0), " +40.0%");
        assert_eq!(gain_pct(0.5, 1.0), " -50.0%");
        assert_eq!(gain_pct(1.0, 0.0), "   n/a");
    }
}
