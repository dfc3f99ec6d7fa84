//! # TailGuard
//!
//! A reproduction of **"TailGuard: Tail Latency SLO Guaranteed Task
//! Scheduling for Data-Intensive User-Facing Applications"** (ICDCS 2023).
//!
//! Data-intensive user-facing (DU) queries fan out into `k_f` parallel tasks
//! and complete when the *slowest* task completes, so a 1 % task-level tail
//! becomes a 63 % query-level tail at fanout 100. TailGuard's insight is
//! that task resource demand therefore depends on **both** the query's tail
//! latency SLO **and** its fanout, and it acts on that insight in two
//! decoupled steps (§III):
//!
//! 1. **Task decomposition** ([`DeadlineEstimator`]): translate a query's
//!    SLO `x_p^SLO` and fanout `k_f` into a task queuing deadline
//!    `t_D = t_0 + x_p^SLO − x_p^u(k_f)` (Eq. 6), where the unloaded query
//!    tail `x_p^u(k_f)` comes from per-server response-time CDFs via order
//!    statistics (Eqs. 1–2).
//! 2. **TF-EDFQ**: a single earliest-deadline-first queue per task server
//!    ordered by `t_D`.
//!
//! A moving-window admission controller (§III.C, [`AdmissionConfig`])
//! rejects queries while the task deadline-violation ratio exceeds a
//! threshold, preserving the SLO of admitted queries under overload.
//!
//! The crate ships a deterministic discrete-event cluster simulator
//! ([`run_simulation`]) that replays identical workloads under TailGuard
//! and the paper's baselines (FIFO, PRIQ, T-EDFQ), plus the max-load search
//! ([`max_load`]) and every evaluation scenario of §IV
//! ([`scenarios`]).
//!
//! ## Quickstart
//!
//! ```
//! use tailguard::{scenarios, max_load, MaxLoadOptions};
//! use tailguard_policy::Policy;
//! use tailguard_workload::TailbenchWorkload;
//!
//! // Fig. 4 setup, scaled down: single class, fanouts {1,10,100}.
//! let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
//! let opts = MaxLoadOptions { queries: 20_000, ..MaxLoadOptions::default() };
//! let tg = max_load(&scenario, Policy::TfEdf, &opts);
//! let fifo = max_load(&scenario, Policy::Fifo, &opts);
//! assert!(tg >= fifo); // TailGuard sustains at least FIFO's load
//! ```

mod cluster;
mod draws;
mod maxload;
mod observe;
mod plain;
mod report;
mod request;
mod runner;
pub mod scenarios;
mod spec;

pub use cluster::{run_simulation, run_simulation_traced};
pub use maxload::{max_load, measure_at_load, sweep_loads, LoadPoint, MaxLoadOptions};
pub use observe::{
    run_simulation_observed, ObsOptions, ObservedRun, SimSnapshot, DEFAULT_RING_CAPACITY,
    FLIGHT_RING_CAPACITY,
};
pub use plain::{run_plain_tapped, PlainEvent, PlainRun};
pub use report::{QueryTypeKey, SimReport};
pub use request::{BudgetSplit, RequestBudgets, RequestPlanner};
pub use runner::{
    default_jobs, max_load_many, replicate, replicate_seeds, run_indexed, ClassStat, Replication,
};
pub use spec::{
    AdmissionConfig, ClassSpec, ClusterSpec, QueryChain, QuerySpec, RequestInput, Scenario,
    SimConfig, SimInput,
};
pub use tailguard_faults::{FaultEpisode, FaultKind, FaultPlan};
pub use tailguard_sched::{
    AdaptiveWindow, CommitOutcome, DeadlineEstimator, EstimatorMode, HealthConfig, HealthStats,
    LeaseToken, LifecycleStats, MitigationConfig, RobustnessStats,
};
pub use tailguard_workload::{DriftKind, DriftPlan};

/// The runtime-agnostic scheduling core ([`tailguard_sched`]) this
/// simulator drives; also driven by the tokio testbed.
pub use tailguard_sched as sched;
