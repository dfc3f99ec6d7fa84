//! Measurement toolkit for the TailGuard reproduction.
//!
//! Everything the evaluation (paper §IV) measures flows through this crate:
//!
//! * [`LatencyReservoir`] — stores every latency sample (a zero as a count,
//!   one below 4.29 s in 4 bytes) and answers exact percentile queries (the
//!   paper reports 95th/99th percentile tails),
//! * [`TimedRatio`] — the moving-time-window task-deadline-violation
//!   ratio that drives query admission control (§III.C),
//! * [`LoadStats`] — offered / accepted / rejected load accounting and
//!   per-server busy-time utilization,
//! * [`LatencySummary`] — a compact row (count, mean, p50/p95/p99/max) for
//!   printing experiment tables.

mod load;
mod reservoir;
mod timed_window;

pub use load::LoadStats;
pub use reservoir::{nearest_rank, LatencyReservoir, LatencySummary};
pub use timed_window::TimedRatio;
