//! The runtime-agnostic TailGuard scheduling core.
//!
//! This crate is the single implementation of the paper's query-handler
//! logic (ICDCS'23, Fig. 2): deadline computation from SLOs and fanout
//! (Eq. 6) via the [`DeadlineEstimator`], per-server task queues under a
//! [`tailguard_policy::Policy`], moving-window admission control with
//! hysteresis (§III.C), dequeue-time deadline-miss detection, fanout
//! aggregation, and per-class latency/load accounting.
//!
//! The [`QueryHandler`] state machine is pure event-driven code — every
//! method takes `now` explicitly; there is no clock, RNG, or I/O anywhere
//! in this crate. Two drivers share it:
//!
//! - the discrete-event **simulator** (`tailguard-core`) feeds it from an
//!   event heap with drawn placements and service times, and
//! - the tokio **testbed** (`tailguard-testbed`) feeds it from channel
//!   events under a real or paused clock, with live edge-node tasks.
//!
//! Keeping both behind one core means a fix or policy change lands in the
//! simulation and the system experiment at the same time, and differential
//! tests can hold the two runtimes to the same observable behavior.

mod admission;
mod config;
mod estimator;
mod handler;
mod health;
mod mitigation;
mod trace;
pub mod units;

pub use config::{AdmissionConfig, ClassSpec, ClusterSpec};
pub use estimator::{AdaptiveWindow, DeadlineEstimator, EstimatorMode};
pub use handler::{
    AdmitDecision, DispatchedTask, QueryArrival, QueryDone, QueryHandler, QueryId, QueryTypeKey,
    RetryPlan, SchedStats, TaskCompletion, TaskId,
};
pub use health::{HealthConfig, HealthStats, HealthTracker};
pub use mitigation::{MitigationConfig, RobustnessStats};
// Lifecycle vocabulary re-exported for driver convenience (`AttemptKind`
// predates the lifecycle crate and keeps its original path here).
pub use tailguard_lifecycle::{AttemptKind, CommitOutcome, IdRing, LeaseToken, LifecycleStats};
pub use trace::{NullSink, TraceEvent, TraceSink};
