//! Testbed orchestration: calibration, load generation, and reporting.

use crate::handler::{query_handler, IncomingQuery};
use crate::node::{edge_node, TaskAssignment, TaskResult};
use crate::sensor::SensorStore;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use tailguard::scenarios::{self, SasCluster};
use tailguard::{AdmissionConfig, ClusterSpec, DeadlineEstimator, EstimatorMode};
use tailguard_dist::{DynDistribution, Scaled};
use tailguard_faults::FaultPlan;
use tailguard_metrics::LatencyReservoir;
use tailguard_obs::{BinaryRecorder, SharedRegistry};
use tailguard_policy::Policy;
use tailguard_sched::units;
use tailguard_sched::{
    AdaptiveWindow, HealthConfig, HealthStats, LifecycleStats, MitigationConfig, RobustnessStats,
};
use tailguard_simcore::{SimDuration, SimRng};
use tokio::sync::mpsc;

/// Wall-clock behaviour of a testbed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestbedMode {
    /// Sleeps take real time (compressed by `time_scale`) — the live-demo
    /// mode closest to the physical testbed.
    RealTime,
    /// tokio's paused clock with auto-advance: the identical async code
    /// path executes at simulation speed, deterministically — the mode
    /// tests and benches use.
    PausedTime,
}

/// Configuration of one testbed run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Queuing policy at the handler's per-node queues.
    pub policy: Policy,
    /// Number of queries to issue.
    pub queries: usize,
    /// Overall offered load (fraction of aggregate node capacity).
    pub target_load: f64,
    /// Time compression: 25 means 82 ms of Pi time runs as 3.3 ms of wall
    /// time. SLOs are compressed identically; reports are de-compressed.
    pub time_scale: f64,
    /// Offline-calibration probe tasks per node (§III.B.2's offline
    /// estimation process).
    pub calibration_probes: usize,
    /// Admission control (window expressed in *uncompressed* Pi time), if
    /// any.
    pub admission: Option<AdmissionConfig>,
    /// Fault episodes to inject at the edge nodes (times in *uncompressed*
    /// Pi time; compressed alongside everything else). Armed only after
    /// offline calibration, so probes always see the healthy cluster.
    pub faults: Option<FaultPlan>,
    /// Workload drift (diurnal load curves, flash crowds, mix shifts) in
    /// *uncompressed* Pi time, applied to the scenario before the load plan
    /// is generated — so a simulator run with the same drifted scenario
    /// consumes the identical query sequence. `None` keeps the stationary
    /// plan (and its RNG stream) bit-identical.
    pub drift: Option<tailguard::DriftPlan>,
    /// Deadline-aware hedging/retry and graceful degradation at the
    /// handler, if any.
    pub mitigation: Option<MitigationConfig>,
    /// Lease TTL in *uncompressed* Pi time (compressed alongside every
    /// other duration). When set, each dispatched task carries a fencing
    /// token; a node silent past the TTL — crashed, restarting, or
    /// partitioned — has its task reclaimed and re-enqueued with the
    /// original deadline, and any zombie result is rejected by token
    /// mismatch. `None` (default) disables crash recovery.
    pub lease_ttl: Option<SimDuration>,
    /// Gray-failure resilience: per-node EWMA health scoring with
    /// hysteresis-gated ejection and recovery probing. The thresholds are
    /// dimensionless ratios against the cluster median, so the same config
    /// works under any time compression. `None` (default) disables it.
    pub health: Option<HealthConfig>,
    /// Adaptive deadline estimation: the estimator decays its observation
    /// histograms every `window` samples so budgets track drifting service
    /// times. `None` (default) keeps the cumulative estimator.
    pub adaptive: Option<AdaptiveWindow>,
    /// Clock mode.
    pub mode: TestbedMode,
    /// Master seed.
    pub seed: u64,
    /// Days of sensor history per node (the physical testbed keeps 540;
    /// tests use less to bound memory).
    pub store_days: u32,
    /// Shared metrics registry, if the run should be observable. The
    /// handler records lifecycle events and keeps the registry current
    /// while running, so a reader holding the same handle sees live
    /// counters and its Prometheus text. Registry durations are in
    /// the *compressed* wall domain; the `tailguard_run_time_scale` gauge
    /// carries the factor to uncompress them.
    pub registry: Option<SharedRegistry>,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            policy: Policy::TfEdf,
            queries: 2_000,
            target_load: 0.4,
            time_scale: 25.0,
            calibration_probes: 40,
            admission: None,
            faults: None,
            drift: None,
            mitigation: None,
            lease_ttl: None,
            health: None,
            adaptive: None,
            mode: TestbedMode::PausedTime,
            seed: 0x5A5_7E57,
            store_days: 90,
            registry: None,
        }
    }
}

/// Per-cluster post-queuing observations — the data behind Fig. 9(a).
#[derive(Debug, Clone)]
pub struct ClusterObservation {
    /// Cluster display name.
    pub name: &'static str,
    /// Mean task post-queuing time, ms (uncompressed).
    pub mean_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Mean utilization of the cluster's 8 nodes.
    pub load: f64,
}

/// Results of one testbed run (all durations uncompressed to Pi time).
#[derive(Debug)]
pub struct TestbedReport {
    /// Policy under test.
    pub policy: Policy,
    /// Query latencies per class (A=0, B=1, C=2), in real (uncompressed)
    /// time.
    pub latency_by_class: BTreeMap<u8, LatencyReservoir>,
    /// The per-class SLOs (800/1300/1800 ms).
    pub slos: Vec<SimDuration>,
    /// Per-cluster post-queuing statistics (Fig. 9a).
    pub clusters: Vec<ClusterObservation>,
    /// Queries completed.
    pub completed_queries: u64,
    /// Queries rejected by admission control.
    pub rejected_queries: u64,
    /// Admission reject→admit transitions: how many times rejection
    /// *stopped* after the miss window recovered or drained.
    pub admission_resumes: u64,
    /// Fraction of dequeued tasks that missed their deadline.
    pub miss_ratio: f64,
    /// Overall measured load.
    pub overall_load: f64,
    /// Total sensor records retrieved by all tasks.
    pub records_retrieved: u64,
    /// Fleet-wide mean `(temperature °C, humidity %)` over all task
    /// results — the merged sensing answer the SaS returns to users.
    pub mean_reading: (f64, f64),
    /// Wall-clock (compressed) duration of the measurement phase, ms.
    pub elapsed_wall_ms: f64,
    /// Total compressed busy time across all nodes, ms.
    pub busy_wall_ms: f64,
    /// Fault/hedge/partial counters (all zero without faults/mitigation).
    pub robustness: RobustnessStats,
    /// Tasks whose worker panicked (the node survived and reported them).
    pub worker_panics: u64,
    /// Node reports fenced off as stale or duplicate (each also counted in
    /// [`TestbedReport::lifecycle`]).
    pub fenced_reports: u64,
    /// Task rows the driver still held when the run ended: the tasks from
    /// the oldest unfinished one on, which follows the work in flight
    /// rather than the length of the run.
    pub task_rows_held: u32,
    /// Lease/fencing counters (all zero without `lease_ttl`).
    pub lifecycle: LifecycleStats,
    /// Health-tracking counters (all zero without [`TestbedConfig::health`]).
    pub health: HealthStats,
    /// Final per-node EWMA health scores in the *compressed* wall domain
    /// (empty without health tracking).
    pub server_health: Vec<f64>,
    /// Adaptive-estimator window rolls (zero without
    /// [`TestbedConfig::adaptive`]).
    pub estimator_window_rolls: u64,
    /// The flight recorder of an observed run ([`TestbedConfig::registry`]
    /// set): the scheduling core's events, timed in ns of the *compressed*
    /// wall domain since the handler started. `None` otherwise.
    pub recorder: Option<BinaryRecorder>,
}

impl TestbedReport {
    /// The measured 99th-percentile latency of `class`, ms.
    pub fn class_p99_ms(&mut self, class: u8) -> f64 {
        self.latency_by_class
            .get_mut(&class)
            .map_or(0.0, |r| r.percentile(0.99).as_millis_f64())
    }

    /// True when every class with enough samples meets its SLO.
    pub fn meets_all_slos(&mut self) -> bool {
        let slos = self.slos.clone();
        (0..slos.len() as u8).all(|c| match self.latency_by_class.get_mut(&c) {
            Some(r) if r.len() >= 20 => r.percentile(0.99) <= slos[c as usize],
            _ => true,
        })
    }
}

/// Runs the testbed to completion on a fresh single-threaded tokio runtime
/// and returns the report.
///
/// # Panics
///
/// Panics on invalid configuration (zero queries, non-positive load or
/// time scale) or if the runtime cannot be built.
pub fn run_testbed(config: &TestbedConfig) -> TestbedReport {
    assert!(config.queries > 0, "need at least one query");
    assert!(config.target_load > 0.0, "load must be positive");
    assert!(config.time_scale > 0.0, "time scale must be positive");
    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_time()
        .build()
        .expect("tokio runtime");
    rt.block_on(async {
        if config.mode == TestbedMode::PausedTime {
            tokio::time::pause();
        }
        run_async(config).await
    })
}

async fn run_async(config: &TestbedConfig) -> TestbedReport {
    let scale = config.time_scale;
    let mut master = SimRng::seed(config.seed);
    if let Some(reg) = &config.registry {
        reg.lock().unwrap().gauge_set(
            "tailguard_run_time_scale",
            "Time compression: multiply registry durations by this to get Pi time",
            scale,
        );
    }

    // --- Build the 32-node heterogeneous cluster (scaled domain). -------
    let scaled_dists: Vec<DynDistribution> = SasCluster::ALL
        .iter()
        .flat_map(|c| {
            let d: DynDistribution = Arc::new(Scaled::new(c.service_dist(), scale));
            std::iter::repeat_n(d, 8)
        })
        .collect();
    let scaled_cluster = ClusterSpec::heterogeneous(scaled_dists.clone());

    // --- Spawn edge nodes. ----------------------------------------------
    // The fault plan is compressed into the wall domain like every other
    // duration; the epoch stays unset until calibration finishes, so the
    // probes below always measure the healthy cluster.
    let wall_faults: Option<Arc<FaultPlan>> = config
        .faults
        .as_ref()
        .filter(|p| !p.is_empty())
        .map(|p| Arc::new(p.compressed(scale)));
    let fault_epoch: Arc<OnceLock<tokio::time::Instant>> = Arc::new(OnceLock::new());
    let (result_tx, mut result_rx) = mpsc::unbounded_channel::<TaskResult>();
    let mut node_txs = Vec::with_capacity(32);
    for node_id in 0..32u32 {
        let (tx, rx) = mpsc::unbounded_channel::<TaskAssignment>();
        node_txs.push(tx);
        let store = Arc::new(SensorStore::generate_days(
            config.seed ^ (0x1000 + u64::from(node_id)),
            config.store_days,
        ));
        tokio::spawn(edge_node(
            node_id,
            store,
            scaled_dists[node_id as usize].clone(),
            1.0, // dists are already compressed
            wall_faults.clone(),
            fault_epoch.clone(),
            master.split(),
            rx,
            result_tx.clone(),
        ));
    }

    // --- The workload plan comes from the simulation twin scenario. ------
    let mut scenario = scenarios::sas_testbed();
    if let Some(d) = &config.drift {
        scenario = scenario.with_drift(d.clone());
    }
    let scaled_classes: Vec<tailguard::ClassSpec> = scenario
        .classes
        .iter()
        .map(|c| {
            tailguard::ClassSpec::p99(SimDuration::from_millis_f64(c.slo.as_millis_f64() / scale))
        })
        .collect();

    // --- Offline calibration (§III.B.2). ----------------------------------
    let mut estimator = DeadlineEstimator::new(
        &scaled_cluster,
        scaled_classes.clone(),
        EstimatorMode::Online {
            refresh_every: 2_000,
            offline_samples: 0,
        },
    );
    // Probe every node at once, one probe in flight per node, then record
    // the samples node by node: `LogHistogram` folds an f64 sum, so the
    // record order is part of the result.
    let samples = calibrate(
        &node_txs,
        &mut result_rx,
        config.calibration_probes,
        config.store_days,
        &mut master.split(),
    )
    .await;
    for (node, node_samples) in samples.iter().enumerate() {
        for &sample in node_samples {
            estimator.record_post_queuing(node, sample);
        }
    }
    estimator.refresh_now();
    if let Some(aw) = config.adaptive {
        estimator = estimator.with_adaptive(aw);
    }
    // Calibration done: arm the fault plan — episode times are measured
    // from here, matching the simulator's t = 0.
    crate::node::arm_fault_epoch(&fault_epoch, tokio::time::Instant::now());

    // --- Load generator. ---------------------------------------------------
    let (query_tx, query_rx) = mpsc::unbounded_channel::<IncomingQuery>();
    let mut gen_rng = master.split();
    let (store_days, load, queries) = (config.store_days, config.target_load, config.queries);
    let workload = scenario.clone();
    let generator = tokio::spawn(async move {
        let epoch = tokio::time::Instant::now();
        for req in workload.requests(load, queries) {
            let spec = &req.queries[0];
            let at = epoch
                + std::time::Duration::from_nanos(units::sat_f64_to_u64(
                    req.arrival.as_nanos() as f64 / scale,
                ));
            tokio::time::sleep_until(at).await;
            let servers = spec
                .servers()
                .expect("sas scenario always places explicitly")
                .to_vec();
            let ranges: Vec<(u32, u32)> = servers
                .iter()
                .map(|_| {
                    let days = 1 + gen_rng.index(30.min(store_days as usize)) as u32;
                    let max_start = store_days.saturating_sub(days).max(1);
                    (gen_rng.index(max_start as usize) as u32, days)
                })
                .collect();
            if query_tx
                .send(IncomingQuery {
                    class: spec.class,
                    servers,
                    ranges,
                })
                .is_err()
            {
                return; // handler finished early
            }
        }
    });

    // --- Query handler. -----------------------------------------------------
    let (mut stats, out) = query_handler(
        config,
        scaled_classes,
        estimator,
        query_rx,
        result_rx,
        node_txs,
    )
    .await;
    generator.abort();

    // --- Assemble the uncompressed report. ----------------------------------
    let unscale = |r: &mut LatencyReservoir| -> LatencyReservoir {
        r.ascending()
            .map(|d| SimDuration::from_nanos(units::scale_ns(d.as_nanos(), scale)))
            .collect()
    };
    let mut latency_by_class = BTreeMap::new();
    for (class, r) in stats.query_latency_by_class.iter_mut() {
        latency_by_class.insert(*class, unscale(r));
    }

    let elapsed_ns = out.elapsed.as_nanos().max(1);
    let post = out.post_queuing_by_node;
    let clusters = SasCluster::ALL
        .iter()
        .map(|c| {
            let range = c.server_range();
            let mut merged = LatencyReservoir::new();
            for node in range.clone() {
                merged.merge(&post[node]);
            }
            let mut merged = unscale(&mut merged);
            let busy: u64 = stats.busy_by_server[range.clone()]
                .iter()
                .map(|d| d.as_nanos())
                .sum();
            ClusterObservation {
                name: c.name(),
                mean_ms: merged.mean().as_millis_f64(),
                p95_ms: merged.percentile(0.95).as_millis_f64(),
                p99_ms: merged.percentile(0.99).as_millis_f64(),
                load: busy as f64 / (elapsed_ns as f64 * range.len() as f64),
            }
        })
        .collect();
    let total_busy: u64 = stats.busy_by_server.iter().map(|d| d.as_nanos()).sum();

    TestbedReport {
        policy: config.policy,
        latency_by_class,
        slos: scenario.classes.iter().map(|c| c.slo).collect(),
        clusters,
        completed_queries: stats.completed_queries,
        rejected_queries: stats.rejected_queries,
        admission_resumes: stats.admission_resumes,
        miss_ratio: stats.load.deadline_miss_ratio(),
        overall_load: total_busy as f64 / (elapsed_ns as f64 * 32.0),
        elapsed_wall_ms: elapsed_ns as f64 / 1e6,
        busy_wall_ms: total_busy as f64 / 1e6,
        records_retrieved: out.records_retrieved,
        mean_reading: if out.task_results == 0 {
            (0.0, 0.0)
        } else {
            (
                out.temperature_sum / out.task_results as f64,
                out.humidity_sum / out.task_results as f64,
            )
        },
        robustness: stats.robustness,
        worker_panics: out.worker_panics,
        fenced_reports: out.fenced_reports,
        task_rows_held: out.task_rows_held,
        lifecycle: stats.lifecycle,
        health: stats.health,
        server_health: stats.server_health,
        estimator_window_rolls: stats.estimator_window_rolls,
        recorder: out.recorder,
    }
}

/// Offline calibration (§III.B.2): `probes` unloaded response times of
/// each node, in the scaled wall domain, indexed by node.
///
/// Every node is probed at once, but a node's next probe leaves only when
/// its previous result is back, so each probe finds its node idle and its
/// dispatch→result time is the node's unloaded response time. The wall
/// time spent is the slowest node's probe sequence, not the sum over
/// nodes. Start days are drawn from `range_rng` node by node, so each node
/// gets the probe sequence a node-by-node loop would send it.
async fn calibrate(
    node_txs: &[mpsc::UnboundedSender<TaskAssignment>],
    results: &mut mpsc::UnboundedReceiver<TaskResult>,
    probes: usize,
    store_days: u32,
    range_rng: &mut SimRng,
) -> Vec<Vec<SimDuration>> {
    let start_days: Vec<Vec<u32>> = node_txs
        .iter()
        .map(|_| {
            (0..probes)
                .map(|_| range_rng.index(store_days.max(2) as usize - 1) as u32)
                .collect()
        })
        .collect();
    let send_probe = |node: usize, k: usize| {
        let _ = node_txs[node].send(TaskAssignment {
            task_id: u64::MAX,
            start_day: start_days[node][k],
            days: 1,
            lease: 0, // probes bypass the core; no fencing
            dispatched_at: tokio::time::Instant::now(),
        });
    };
    let mut samples: Vec<Vec<SimDuration>> = node_txs
        .iter()
        .map(|_| Vec::with_capacity(probes))
        .collect();
    if probes == 0 {
        return samples;
    }
    for node in 0..node_txs.len() {
        send_probe(node, 0);
    }
    let mut probing = node_txs.len();
    while probing > 0 {
        let r = results.recv().await.expect("nodes alive");
        let node = r.node as usize;
        let taken = &mut samples[node];
        taken.push(SimDuration::from_nanos(units::sat_u128_to_u64(
            r.dispatched_at.elapsed().as_nanos(),
        )));
        if taken.len() < probes {
            send_probe(node, taken.len());
        } else {
            probing -= 1;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(policy: Policy, load: f64, queries: usize) -> TestbedConfig {
        TestbedConfig {
            policy,
            queries,
            target_load: load,
            calibration_probes: 20,
            store_days: 35,
            mode: TestbedMode::PausedTime,
            ..TestbedConfig::default()
        }
    }

    #[test]
    fn completes_all_queries() {
        let mut report = run_testbed(&quick(Policy::TfEdf, 0.25, 300));
        assert_eq!(report.completed_queries, 300);
        assert_eq!(report.rejected_queries, 0);
        assert!(report.records_retrieved > 0);
        let (t, h) = report.mean_reading;
        assert!(t > -20.0 && t < 50.0, "temperature {t}");
        assert!((0.0..=100.0).contains(&h), "humidity {h}");
        // All three classes saw traffic.
        for class in 0..3u8 {
            assert!(report.class_p99_ms(class) > 0.0, "class {class}");
        }
    }

    #[test]
    fn cluster_observations_match_paper_ordering() {
        let report = run_testbed(&quick(Policy::TfEdf, 0.2, 400));
        let by_name: std::collections::HashMap<&str, &ClusterObservation> =
            report.clusters.iter().map(|c| (c.name, c)).collect();
        // Wet-lab is the fastest cluster (§IV.E).
        assert!(by_name["Wet-lab"].mean_ms < by_name["Server-room"].mean_ms);
        assert!(by_name["Wet-lab"].mean_ms < by_name["Faculty"].mean_ms);
        // Server-room carries the skewed class-A load.
        assert!(
            by_name["Server-room"].load > by_name["Faculty"].load,
            "server-room {} vs faculty {}",
            by_name["Server-room"].load,
            by_name["Faculty"].load
        );
    }

    #[test]
    fn low_load_meets_slos() {
        let mut report = run_testbed(&quick(Policy::TfEdf, 0.15, 400));
        assert!(
            report.meets_all_slos(),
            "A={} B={} C={}",
            report.class_p99_ms(0),
            report.class_p99_ms(1),
            report.class_p99_ms(2)
        );
        assert!(report.miss_ratio < 0.05);
    }

    #[test]
    fn paused_runs_are_deterministic() {
        let cfg = quick(Policy::TfEdf, 0.3, 200);
        let mut a = run_testbed(&cfg);
        let mut b = run_testbed(&cfg);
        assert_eq!(a.completed_queries, b.completed_queries);
        assert_eq!(a.class_p99_ms(0), b.class_p99_ms(0));
        assert_eq!(a.records_retrieved, b.records_retrieved);
    }

    #[test]
    fn all_policies_run() {
        for policy in Policy::ALL {
            let report = run_testbed(&quick(policy, 0.25, 150));
            assert_eq!(report.completed_queries, 150, "{policy}");
        }
    }

    #[test]
    fn admission_control_rejects_at_overload() {
        let mut cfg = quick(Policy::TfEdf, 1.4, 600);
        cfg.admission = Some(AdmissionConfig::new(
            tailguard_simcore::SimDuration::from_millis(20_000),
            0.02,
        ));
        let report = run_testbed(&cfg);
        assert!(
            report.rejected_queries > 0,
            "expected rejections at 140% load"
        );
        assert_eq!(report.completed_queries + report.rejected_queries, 600);
    }

    #[test]
    fn admission_rejection_stops_after_window_drains() {
        // Hysteresis recovery: at 140% load the controller must start
        // rejecting, and — because rejected queries add no work while the
        // backlog drains and misses age out of the time window — it must
        // also *stop* rejecting at least once before the run ends.
        let mut cfg = quick(Policy::TfEdf, 1.3, 1_500);
        // Mild overload and a short window: rejection trips once the queue
        // builds, the rejection pause then drains the backlog well before
        // the arrivals run out, misses age out of the window, and admission
        // must resume at least once.
        cfg.admission = Some(
            AdmissionConfig::new(tailguard_simcore::SimDuration::from_millis(2_000), 0.02)
                .with_resume_threshold(0.01),
        );
        let report = run_testbed(&cfg);
        assert!(report.rejected_queries > 0, "expected rejections");
        assert!(
            report.admission_resumes >= 1,
            "rejection never stopped: {} resumes",
            report.admission_resumes
        );
        assert_eq!(report.completed_queries + report.rejected_queries, 1_500);
    }

    #[test]
    fn blackout_with_retries_still_finishes_and_counts_losses() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        use tailguard_simcore::SimTime;
        let mut cfg = quick(Policy::TfEdf, 0.25, 300);
        // Nodes 0–3 black out for the whole run (Pi-time horizon far past
        // the measurement window); retries re-place their tasks.
        let plan: FaultPlan = (0..4)
            .map(|node| {
                FaultEpisode::new(
                    node,
                    SimTime::ZERO,
                    SimTime::from_millis(100_000_000),
                    FaultKind::Drop,
                )
            })
            .collect();
        cfg.faults = Some(plan);
        cfg.mitigation = Some(MitigationConfig::new());
        let report = run_testbed(&cfg);
        let r = &report.robustness;
        assert!(r.tasks_lost_to_faults > 0, "no task hit the blackout");
        assert!(r.retries > 0, "losses must trigger retries");
        assert_eq!(report.worker_panics, 0);
        // Every query is accounted for exactly once.
        assert_eq!(
            report.completed_queries
                + report.rejected_queries
                + r.partial_completions
                + r.failed_queries,
            300
        );
    }

    #[test]
    fn unmitigated_blackout_fails_queries_but_terminates() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        use tailguard_simcore::SimTime;
        let mut cfg = quick(Policy::TfEdf, 0.25, 200);
        let plan: FaultPlan = (0..4)
            .map(|node| {
                FaultEpisode::new(
                    node,
                    SimTime::ZERO,
                    SimTime::from_millis(100_000_000),
                    FaultKind::Drop,
                )
            })
            .collect();
        cfg.faults = Some(plan);
        let report = run_testbed(&cfg);
        let r = &report.robustness;
        assert!(r.tasks_lost_to_faults > 0);
        assert_eq!(r.retries, 0, "no mitigation, no retries");
        // Fanout-1 queries on a dead node lose every slot → failed; wider
        // queries keep their healthy slots → partial.
        assert!(r.failed_queries > 0, "unmitigated losses must fail queries");
        assert!(r.partial_completions > 0, "wide queries degrade to partial");
        assert_eq!(
            report.completed_queries
                + report.rejected_queries
                + r.partial_completions
                + r.failed_queries,
            200
        );
    }

    #[test]
    fn hedging_under_faults_issues_hedges() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        use tailguard_simcore::SimTime;
        let mut cfg = quick(Policy::TfEdf, 0.3, 300);
        // A long stall on one server-room node makes its queue linger past
        // hedge thresholds without losing tasks outright.
        cfg.faults = Some(
            [FaultEpisode::new(
                0,
                SimTime::ZERO,
                SimTime::from_millis(100_000_000),
                FaultKind::Slowdown { factor: 20.0 },
            )]
            .into_iter()
            .collect(),
        );
        cfg.mitigation = Some(MitigationConfig::new().with_hedge_after(0.5));
        let report = run_testbed(&cfg);
        let r = &report.robustness;
        assert!(r.hedges_issued > 0, "slow node must trigger hedges");
        assert!(r.hedge_wins > 0, "some hedge should beat the slow node");
        assert_eq!(
            report.completed_queries + report.rejected_queries + r.failed_queries,
            300
        );
    }

    #[test]
    fn crash_with_lease_reclaims_and_conserves_queries() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        use tailguard_simcore::SimTime;
        let mut cfg = quick(Policy::TfEdf, 0.25, 300);
        // Nodes 0–1 crash for a finite window: tasks dispatched into (or
        // caught in-flight by) the window vanish silently — no Lost
        // report, nothing. Only the lease notices.
        let plan: FaultPlan = (0..2)
            .map(|node| {
                FaultEpisode::new(
                    node,
                    SimTime::ZERO,
                    SimTime::from_millis(3_000),
                    FaultKind::Crash,
                )
            })
            .collect();
        cfg.faults = Some(plan);
        cfg.lease_ttl = Some(SimDuration::from_millis(500));
        let report = run_testbed(&cfg);
        let lc = &report.lifecycle;
        assert!(lc.reclaims > 0, "crashed tasks must be reclaimed");
        assert!(lc.leases_issued > 0);
        // Reclaim + re-enqueue keeps retrying until the node recovers, so
        // no query is lost and none is double-counted.
        assert_eq!(
            report.completed_queries
                + report.rejected_queries
                + report.robustness.partial_completions
                + report.robustness.failed_queries,
            300
        );
        // Every attempt the store ever tracked is in a terminal state or
        // was never started; nothing leaks.
        assert_eq!(lc.queued + lc.leased + lc.running, 0, "no task left live");
    }

    #[test]
    fn duplicate_delivery_is_suppressed_idempotently() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        use tailguard_simcore::SimTime;
        let mut cfg = quick(Policy::TfEdf, 0.25, 300);
        // Nodes 0–3 deliver every result twice for the whole run.
        let plan: FaultPlan = (0..4)
            .map(|node| {
                FaultEpisode::new(
                    node,
                    SimTime::ZERO,
                    SimTime::from_millis(100_000_000),
                    FaultKind::DuplicateDelivery,
                )
            })
            .collect();
        cfg.faults = Some(plan);
        cfg.lease_ttl = Some(SimDuration::from_millis(5_000));
        let mut report = run_testbed(&cfg);
        let lc = &report.lifecycle;
        assert!(lc.duplicates_suppressed > 0, "duplicates must be fenced");
        assert_eq!(lc.reclaims, 0, "generous TTL: nothing should expire");
        assert_eq!(report.completed_queries, 300);
        // The duplicate payloads must not inflate the sensing aggregates:
        // readings stay physical.
        let (t, h) = report.mean_reading;
        assert!(t > -20.0 && t < 50.0, "temperature {t}");
        assert!((0.0..=100.0).contains(&h), "humidity {h}");
        assert!(report.class_p99_ms(0) > 0.0);
    }

    #[test]
    fn restart_loses_in_flight_work_but_recovers() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        use tailguard_simcore::SimTime;
        let mut cfg = quick(Policy::TfEdf, 0.3, 300);
        // One server-room node restarts repeatedly early in the run:
        // results landing inside an episode are lost WITH notification, so
        // the core frees the node immediately (no lease wait needed).
        let plan: FaultPlan = (0..3)
            .map(|k| {
                let start = 500 + k * 2_000;
                FaultEpisode::new(
                    0,
                    SimTime::from_millis(start),
                    SimTime::from_millis(start + 800),
                    FaultKind::Restart,
                )
            })
            .collect();
        cfg.faults = Some(plan);
        cfg.lease_ttl = Some(SimDuration::from_millis(2_000));
        cfg.mitigation = Some(MitigationConfig::new());
        let report = run_testbed(&cfg);
        assert!(
            report.robustness.tasks_lost_to_faults > 0,
            "restarts must lose in-flight work"
        );
        assert_eq!(
            report.completed_queries
                + report.rejected_queries
                + report.robustness.partial_completions
                + report.robustness.failed_queries,
            300
        );
    }

    #[test]
    fn late_reports_are_fenced_without_reading_their_retired_rows() {
        use tailguard_faults::{FaultEpisode, FaultKind};
        use tailguard_simcore::SimTime;
        let mut cfg = quick(Policy::TfEdf, 0.3, 1_500);
        // Nodes 0–1 run 20× slow for the whole run, so their work outlives
        // both its hedge threshold and its lease: hedge copies win the
        // slots, reclaims re-queue the slow attempts, and the zombies
        // report after later admissions retired their rows. Nodes 2–3
        // deliver every result twice.
        let forever = SimTime::from_millis(100_000_000);
        let slow = FaultKind::Slowdown { factor: 20.0 };
        let twice = FaultKind::DuplicateDelivery;
        let plan: FaultPlan = (0..4)
            .map(|node| {
                let kind = if node < 2 { slow } else { twice };
                FaultEpisode::new(node, SimTime::ZERO, forever, kind)
            })
            .collect();
        cfg.faults = Some(plan);
        cfg.mitigation = Some(MitigationConfig::new().with_hedge_after(0.5));
        cfg.lease_ttl = Some(SimDuration::from_millis(2_000));
        let report = run_testbed(&cfg);
        let (lc, r) = (&report.lifecycle, &report.robustness);
        assert!(r.hedges_issued > 0 && lc.reclaims > 0, "{r:?} {lc:?}");
        assert!(lc.stale_commits_rejected > 0, "no zombie reported late");
        assert!(lc.duplicates_suppressed > 0, "no result arrived twice");
        // Every fenced report reached the store and was counted once.
        assert_eq!(
            report.fenced_reports,
            lc.stale_commits_rejected + lc.duplicates_suppressed
        );
        assert_eq!(
            report.completed_queries + r.partial_completions + r.failed_queries,
            1_500
        );
        // The driver's rows follow the work in flight, not the run: about
        // 380 held at the end, of ~9 500 dispatches; under sixteen a node.
        assert!(
            report.task_rows_held <= 16 * 32,
            "{}",
            report.task_rows_held
        );
    }

    #[test]
    fn lease_off_keeps_lifecycle_counters_quiet() {
        let report = run_testbed(&quick(Policy::TfEdf, 0.25, 200));
        let lc = &report.lifecycle;
        assert_eq!(lc.reclaims, 0);
        assert_eq!(lc.duplicates_suppressed, 0);
        assert_eq!(lc.stale_commits_rejected, 0);
        // Leases are still issued (the token fences every dispatch); they
        // just never expire without a TTL.
        assert!(lc.leases_issued > 0);
        assert_eq!(lc.completed, lc.leases_issued, "every dispatch committed");
    }

    #[test]
    fn observed_run_populates_registry() {
        use tailguard_obs::shared_registry;

        let registry = shared_registry();
        let mut cfg = quick(Policy::TfEdf, 0.25, 200);
        cfg.registry = Some(Arc::clone(&registry));
        cfg.health = Some(HealthConfig::new());
        let report = run_testbed(&cfg);
        assert_eq!(report.completed_queries, 200);

        {
            let reg = registry.lock().unwrap();
            assert_eq!(
                reg.counter("tailguard_queries_admitted_total"),
                Some(200),
                "every admitted query traced"
            );
            assert_eq!(
                reg.counter("tailguard_estimator_budget_lookups_total"),
                Some(200),
                "one budget lookup per arrival"
            );
            assert!(reg.histogram("tailguard_queue_wait_ms").is_some());
            assert!(reg.series("tailguard_queue_depth").is_some());
            assert_eq!(reg.gauge("tailguard_run_time_scale"), Some(25.0));
            assert!(
                reg.counter("tailguard_health_probes_total").is_some()
                    && reg.counter("tailguard_health_rerouted_total").is_some(),
                "health tracking publishes the same counters as the simulator"
            );
        }

        // The same registry renders the Prometheus exposition.
        let body = registry.lock().unwrap().prometheus_text();
        assert!(body.contains("# TYPE tailguard_queries_admitted_total counter"));
        assert!(body.contains("# TYPE tailguard_queue_wait_ms histogram"));
        assert!(body.contains("tailguard_queries_admitted_total 200"));
    }

    #[test]
    #[should_panic(expected = "need at least one query")]
    fn zero_queries_rejected() {
        let mut cfg = quick(Policy::Fifo, 0.2, 1);
        cfg.queries = 0;
        let _ = run_testbed(&cfg);
    }

    #[test]
    fn pi_to_wall_scaling_clamps_near_u64_max() {
        // The exact conversions the runner/handler use for Pi→wall
        // compression and wall→Pi reporting, pinned at the end of the u64
        // nanosecond domain: a pathological virtual time must clamp, never
        // wrap into a short (or zero) wall delay.
        let scale = 25.0_f64;
        for t in [u64::MAX, u64::MAX - 1, u64::MAX - 3] {
            // Compression divides by `scale`; the result stays enormous
            // and ordered, not wrapped to ~0.
            let wall = units::sat_f64_to_u64(t as f64 / scale);
            assert!(wall > u64::MAX / 26, "compressed {t} collapsed to {wall}");
            // Un-scaling a near-max wall sample back into Pi time
            // saturates at u64::MAX instead of wrapping.
            assert_eq!(units::scale_ns(t, scale), u64::MAX);
            // TTL compression keeps a finite positive duration.
            let ttl = SimDuration::from_nanos(units::scale_ns(t, scale.recip()));
            assert!(ttl.as_nanos() > 0);
        }
        // Wall durations longer than the u64 ns domain (u128 from
        // std::time) clamp on entry instead of truncating high bits.
        assert_eq!(units::sat_u128_to_u64(u128::from(u64::MAX) + 7), u64::MAX);
    }

    /// Calibration on its own, against stand-in nodes that serve each probe
    /// in one 1 ms wheel tick of paused time: every node gets exactly
    /// `PROBES` probes, never a second one while the first is in service,
    /// and the probes run side by side, so the virtual time spent is one
    /// node's `PROBES` ticks, far below the `NODES × PROBES` of a
    /// node-by-node loop. Paused time starts on the tick grid, so every
    /// probe takes exactly one tick.
    #[test]
    fn calibration_probes_all_nodes_at_once_one_probe_each() {
        use std::time::Duration;
        use tokio::time::Instant;
        const NODES: usize = 32;
        const PROBES: usize = 5;
        const STORE_DAYS: u32 = 35;
        let rt = tokio::runtime::Builder::new_current_thread()
            .enable_time()
            .build()
            .expect("tokio runtime");
        rt.block_on(async {
            tokio::time::pause();
            let (result_tx, mut result_rx) = mpsc::unbounded_channel::<TaskResult>();
            let mut node_txs = Vec::new();
            let mut nodes = Vec::new();
            for node in 0..NODES as u32 {
                let (tx, mut rx) = mpsc::unbounded_channel::<TaskAssignment>();
                node_txs.push(tx);
                let results = result_tx.clone();
                nodes.push(tokio::spawn(async move {
                    let mut served = Vec::new();
                    let mut idle_since = Instant::now();
                    while let Some(task) = rx.recv().await {
                        assert!(
                            task.dispatched_at >= idle_since,
                            "node {node} got a probe while serving another"
                        );
                        served.push(task.start_day);
                        tokio::time::sleep(Duration::ZERO).await; // one tick
                        idle_since = Instant::now();
                        let _ = results.send(TaskResult {
                            node,
                            task_id: task.task_id,
                            lease: task.lease,
                            dispatched_at: task.dispatched_at,
                            records: 0,
                            mean_temperature: 0.0,
                            mean_humidity: 0.0,
                            outcome: crate::node::TaskOutcome::Ok,
                        });
                    }
                    served
                }));
            }
            drop(result_tx);

            let began = Instant::now();
            let samples = calibrate(
                &node_txs,
                &mut result_rx,
                PROBES,
                STORE_DAYS,
                &mut SimRng::seed(9),
            )
            .await;
            let spent = began.elapsed();
            drop(node_txs);

            let tick = Duration::from_millis(1);
            assert_eq!(
                spent,
                tick * PROBES as u32,
                "calibration took {spent:?}, not one node's {PROBES} probes"
            );
            // Each node's start days are the ones a node-by-node loop
            // draws for it from the same stream.
            let mut rng = SimRng::seed(9);
            for (node, handle) in nodes.into_iter().enumerate() {
                let expected: Vec<u32> = (0..PROBES)
                    .map(|_| rng.index(STORE_DAYS as usize - 1) as u32)
                    .collect();
                assert_eq!(handle.await.expect("node ran"), expected, "node {node}");
                // An idle node answers in its one tick.
                assert_eq!(samples[node].len(), PROBES, "node {node}");
                assert!(
                    samples[node].iter().all(|s| s.as_nanos() == 1_000_000),
                    "node {node} samples {:?}",
                    samples[node]
                );
            }
        });
    }
}
