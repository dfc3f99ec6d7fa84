//! Observability for the TailGuard reproduction.
//!
//! TailGuard's argument is about *where time goes* — Eq. 6 splits query
//! latency into pre-dequeuing wait vs. unloaded service, and §III.C
//! admission reacts to the deadline-miss ratio — so this crate makes that
//! decomposition observable instead of burying it in end-of-run
//! aggregates. It builds on the scheduling core's flight-recorder
//! contract ([`tailguard_sched::TraceSink`]) and provides:
//!
//! - [`BinaryRecorder`] — the always-on flight recorder: events encode
//!   into a fixed-width binary layout ([`codec`]) in a per-handler
//!   staging buffer and flush to a bounded shared ring in batches,
//!   decoded back to events only at analysis time; optional tail-aware
//!   sampling ([`TailSampler`]) keeps every interesting query whole and
//!   a deterministic fraction of healthy ones;
//! - [`SloMonitor`] — online SLO attainment tracking: windowed per-class
//!   miss ratios and slack percentiles with multi-window burn-rate
//!   alerts, published under the `tailguard_slo_*` names;
//! - [`Registry`] — counters, gauges, log-bucketed histograms (built on
//!   [`tailguard_dist::LogHistogram`]) and time series under one naming
//!   scheme, with Prometheus text exposition
//!   ([`Registry::prometheus_text`]) and JSON snapshots
//!   ([`Registry::to_json`]); [`publish_run`] fills it from a finished
//!   run the same way for both runtimes;
//! - timeline reconstruction ([`build_timelines`]) — per-query
//!   enqueue→dequeue→completion timelines including hedge/retry attempts,
//!   top-k slowest queries, per-class/per-type dequeue-slack statistics,
//!   and the reconstructed miss-ratio timeline;
//! - exporters ([`events_to_jsonl`], [`events_to_csv`]) for external
//!   tooling.
//!
//! Everything here is read-side: the scheduling core emits events and
//! knows nothing about recording, so a run without a sink (the default)
//! keeps the golden pins bit-identical.

mod binring;
pub mod codec;
mod export;
mod publish;
mod registry;
mod sampler;
mod slo;
mod timeline;

pub use binring::{BinaryRecorder, BinarySink, FLUSH_EVENTS};
pub use export::{event_to_csv_row, event_to_json, events_to_csv, events_to_jsonl, CSV_HEADER};
pub use publish::{publish_run, RunSummary};
pub use registry::{
    shared_registry, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, Registry, RegistrySnapshot,
    SeriesPoint, SeriesSnapshot, SharedRegistry,
};
pub use sampler::{SamplerConfig, TailSampler};
pub use slo::{SloAlert, SloClassSnapshot, SloConfig, SloMonitor, SloSnapshot};
pub use timeline::{
    build_timelines, miss_ratio_timeline, server_transitions, slack_by_type, slowest_queries,
    AttemptRecord, MissBin, QueryTimeline, ServerTransition, SlackStats,
};
