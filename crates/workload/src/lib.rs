//! Workload models for the TailGuard reproduction.
//!
//! The paper drives its simulations with three ingredients (§IV.A):
//!
//! 1. **A query arrival process** — Poisson by default, Pareto for the
//!    burstiness sensitivity study ([`ArrivalProcess`]),
//! 2. **A query fanout distribution** — e.g. fanouts {1, 10, 100} with
//!    probability inversely proportional to the fanout ([`FanoutDist`]),
//! 3. **A task service-time distribution** — sampled from the Tailbench
//!    benchmark suite; we reproduce the three representative workloads
//!    (Masstree, Shore, Xapian) as piecewise-quantile models calibrated to
//!    the paper's Table II ([`TailbenchWorkload`]).
//!
//! The crate also provides trace generation and (de)serialization
//! ([`Trace`]), so experiments can be replayed bit-for-bit.

mod arrival;
mod drift;
mod fanout;
mod tailbench;
mod trace;

pub use arrival::{ArrivalProcess, GapScale};
pub use drift::{DriftKind, DriftPlan};
pub use fanout::FanoutDist;
pub use tailbench::{fig3_markers, TailbenchWorkload, UnloadedStats};
pub use trace::{ClassShare, QueryMix, QueryRecord, Trace, TraceError, TraceMeta};
