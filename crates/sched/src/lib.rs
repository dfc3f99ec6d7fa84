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
//! in this crate. One [`Driver`] runs it for both runtimes: it owns the
//! loop around the handler (admission's bookkeeping, the per-task rows,
//! copy issuing, the work stack of an event's fallout, and the hedge and
//! lease timers), and two [`Transport`]s carry its work:
//!
//! - the discrete-event **simulator** (`tailguard-core`) draws service
//!   times, probes its fault plan and schedules events on a virtual-time
//!   heap, and
//! - the tokio **testbed** (`tailguard-testbed`) sends tasks to live edge
//!   nodes over channels and arms wall-clock timers, under a real or
//!   paused clock.
//!
//! Keeping both behind one core and one driver means a fix or policy
//! change lands in the simulation and the system experiment at the same
//! time, and differential tests can hold the two runtimes to the same
//! observable behavior.

mod admission;
mod config;
mod driver;
mod estimator;
mod handler;
mod health;
mod mitigation;
mod trace;
pub mod units;

pub use config::{AdmissionConfig, ClassSpec, ClusterSpec};
pub use driver::{Begun, Driver, Timer, Transport};
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
pub use trace::{TraceEvent, TraceSink};
