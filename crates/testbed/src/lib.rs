//! An in-process reproduction of the paper's Sensing-as-a-Service testbed
//! (§IV.E), built on tokio.
//!
//! The physical testbed is 32 Raspberry-Pi edge nodes in four heterogeneous
//! clusters (Server-room, Wet-lab, Faculty, GTA), each holding eighteen
//! months of temperature/humidity records, fronted by a query handler that
//! queues tasks *centrally* (one queue set per edge node) and talks to the
//! nodes over keep-alive HTTP. We reproduce it as:
//!
//! * [`SensorStore`] — an in-memory time-series store per edge node with
//!   eighteen months of synthetic sensor records and range queries,
//! * an **edge node** tokio task per node: receives one task at a time,
//!   emulates the Pi's processing time by sleeping a draw from its
//!   cluster's calibrated service distribution, performs the record
//!   retrieval, and returns the result,
//! * a **query handler** task owning the per-node queues (any
//!   [`tailguard_policy::Policy`]), the online
//!   [`tailguard::DeadlineEstimator`] (per-cluster CDFs, exactly as the
//!   paper shares one CDF per cluster), the aggregator, and optional
//!   admission control,
//! * a Poisson load generator issuing class A/B/C queries (50/40/10 %,
//!   fanouts 1/4/32, SLOs 800/1300/1800 ms) with class A load skewed 80 %
//!   onto the Server-room cluster.
//!
//! Time can be compressed ([`TestbedConfig::time_scale`]) and, for tests
//! and benches, run under tokio's paused clock
//! ([`TestbedMode::PausedTime`]), which auto-advances timers — the full
//! async code path at simulation speed, deterministically.
//!
//! # Example
//!
//! ```
//! use tailguard_testbed::{run_testbed, TestbedConfig, TestbedMode};
//! use tailguard_policy::Policy;
//!
//! let cfg = TestbedConfig {
//!     policy: Policy::TfEdf,
//!     queries: 300,
//!     target_load: 0.3,
//!     mode: TestbedMode::PausedTime,
//!     ..TestbedConfig::default()
//! };
//! let report = run_testbed(&cfg);
//! assert_eq!(report.completed_queries, 300);
//! ```

mod handler;
mod node;
mod runner;
mod sensor;

pub use runner::{run_testbed, ClusterObservation, TestbedConfig, TestbedMode, TestbedReport};
pub use sensor::{SensorRecord, SensorStore, HISTORY_DAYS};
