//! Helpers shared by the untraced and the traced pass over the simulated
//! workloads: running one repetition, summarising its report, building the
//! estimator the way the simulator does.

use crate::workloads::{SimCase, SimKind};
use std::collections::BTreeSet;
use tailguard::{
    run_simulation, run_simulation_observed, DeadlineEstimator, EstimatorMode, ObsOptions,
    SimConfig, SimInput, SimReport,
};
use tailguard_obs::build_timelines;
use tailguard_simcore::SimRng;

/// Runs one repetition of a simulated workload, exactly as a user would:
/// `run_simulation`, or for `sim_observed` the observed run followed by
/// the post-run analysis its users ask for (timelines and the Prometheus
/// exposition).
pub fn run_once(kind: SimKind, case: &SimCase) -> SimReport {
    if kind != SimKind::Observed {
        return run_simulation(&case.config, &case.input);
    }
    let run = run_simulation_observed(&case.config, &case.input, &ObsOptions::default());
    let timelines = build_timelines(&run.recorder.events());
    let exposition = run.registry.prometheus_text();
    std::hint::black_box((timelines.len(), exposition.len()));
    run.report
}

/// The estimator `run_simulation` builds for `config` (same RNG split
/// order, so the online histograms are seeded identically).
pub fn build_estimator(config: &SimConfig) -> DeadlineEstimator {
    let mut master = SimRng::seed(config.seed);
    let _placement = master.split();
    let _service = master.split();
    let mut estimator_rng = master.split();
    let mut estimator = DeadlineEstimator::new(
        &config.cluster,
        config.classes.clone(),
        config.estimator.clone(),
    );
    if let EstimatorMode::Online {
        offline_samples, ..
    } = config.estimator
    {
        estimator.seed_offline(&config.cluster, offline_samples, &mut estimator_rng);
    }
    if let Some(aw) = config.adaptive {
        estimator = estimator.with_adaptive(aw);
    }
    estimator
}

/// The distinct `(class, fanout)` query types of an input, in order.
pub fn query_types(input: &SimInput) -> Vec<(u8, u32)> {
    let set: BTreeSet<(u8, u32)> = input
        .requests
        .iter()
        .flat_map(|r| r.queries.iter().map(|q| (q.class, q.fanout)))
        .collect();
    set.into_iter().collect()
}

/// Builds the estimator and solves Eq. 1/2 once per query type — the cold
/// `budget()` calls a run pays before its cache is warm.
pub fn cold_budgets(config: &SimConfig, types: &[(u8, u32)]) -> DeadlineEstimator {
    let mut estimator = build_estimator(config);
    for &(class, fanout) in types {
        std::hint::black_box(estimator.budget(class, fanout, &[]));
    }
    estimator
}

/// What one run did, in the terms the end-to-end metrics use. Every field
/// is simulated (host-independent), so two runs of the same input must
/// produce equal summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Post-warm-up queries offered.
    pub offered: u64,
    pub completed: u64,
    pub rejected: u64,
    pub failed: u64,
    pub partial: u64,
    /// Offered queries that reached no terminal state at all.
    pub unresolved: u64,
    /// Completed queries over their class SLO.
    pub over_slo: u64,
    pub class0_samples: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub slo_ratio_worst: f64,
    pub events: u64,
    pub accepted_load: f64,
    pub deadline_miss_ratio: f64,
    /// `completed + rejected + failed + partial + unresolved == offered`
    /// with no term negative.
    pub conserved: bool,
}

impl SimSummary {
    /// Summarises the report of a run over `queries` queries of which the
    /// first `warmup` admitted ones were discarded.
    pub fn of(report: &mut SimReport, queries: usize, warmup: usize) -> SimSummary {
        let offered = (queries - warmup) as u64;
        let (completed, rejected) = (report.completed_queries, report.rejected_queries);
        let failed = report.robustness.failed_queries;
        let partial = report.robustness.partial_completions;
        let resolved = completed + rejected + failed + partial;
        let mut over_slo = 0u64;
        for (class, reservoir) in &report.query_latency_by_class {
            let slo = report.classes[usize::from(*class)].slo;
            over_slo += (reservoir.exceed_ratio(slo) * reservoir.len() as f64).round() as u64;
        }
        // Types too small for a p99 say nothing; `--quick` runs have no
        // type with 1000 samples, so the floor follows the largest type.
        let floor = report
            .query_latency_by_type
            .values()
            .map(tailguard_metrics::LatencyReservoir::len)
            .max()
            .unwrap_or(0)
            .min(1000);
        let keys: Vec<_> = report
            .query_latency_by_type
            .iter()
            .filter(|(_, r)| r.len() >= floor.max(1))
            .map(|(k, _)| *k)
            .collect();
        let slo_ratio_worst = keys
            .iter()
            .map(|k| {
                let slo = report.classes[usize::from(k.class)].slo.as_millis_f64();
                report.type_tail(k.class, k.fanout).as_millis_f64() / slo
            })
            .fold(0.0, f64::max);
        SimSummary {
            offered,
            completed,
            rejected,
            failed,
            partial,
            unresolved: offered.saturating_sub(resolved),
            over_slo,
            class0_samples: report.query_latency_by_class.get(&0).map_or(0, |r| r.len()) as u64,
            p50_ms: report.class_tail(0, 0.5).as_millis_f64(),
            p99_ms: report.class_tail(0, 0.99).as_millis_f64(),
            slo_ratio_worst,
            events: report.events_processed,
            accepted_load: report.accepted_load(),
            deadline_miss_ratio: report.deadline_miss_ratio(),
            conserved: resolved <= offered,
        }
    }

    /// Share of offered queries that completed in full.
    pub fn served_share(&self) -> f64 {
        self.completed as f64 / self.offered as f64
    }

    /// Share of offered queries that completed in full within their SLO.
    pub fn slo_met_share(&self) -> f64 {
        (self.completed - self.over_slo) as f64 / self.offered as f64
    }
}
