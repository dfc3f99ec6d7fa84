//! Configuration types: classes, clusters, queries, scenarios.

use std::fmt;
use std::sync::Arc;
use tailguard_faults::FaultPlan;
use tailguard_policy::Policy;
use tailguard_sched::{AdaptiveWindow, EstimatorMode, HealthConfig, MitigationConfig};
use tailguard_simcore::{SimDuration, SimRng, SimTime};
use tailguard_workload::{ArrivalProcess, DriftPlan, QueryMix, Trace};

// Service classes, clusters, and admission control moved into the shared
// scheduling core so the simulator and the testbed configure the same
// `QueryHandler`; re-exported here to keep `tailguard::ClassSpec` et al.
// working.
pub use tailguard_sched::{AdmissionConfig, ClassSpec, ClusterSpec};

/// One query inside a request: class, fanout and optional pre-computed
/// placement / budget.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Service class index into [`SimConfig::classes`].
    pub class: u8,
    /// Query fanout `k_f`.
    pub fanout: u32,
    /// Pre-chosen target servers. `None` lets the simulator pick `k_f`
    /// distinct servers uniformly at random (the paper's simulation
    /// placement); presets with skewed placement (SaS) fill this in.
    pub servers: Option<Vec<u32>>,
    /// Overrides the estimator-derived pre-dequeuing budget `T_b` — used by
    /// the request-decomposition extension (Eq. 7) to assign per-query
    /// budgets out of a request-level budget.
    pub budget_override: Option<SimDuration>,
    /// Per-task budget overrides (one per task, aligned with the placement)
    /// — used by the footnote-4 ablation to compare the paper's shared
    /// query-wide deadline against per-task deadlines. Takes precedence
    /// over `budget_override`.
    pub task_budgets: Option<Vec<SimDuration>>,
}

impl QuerySpec {
    /// A plain query of `class` with `fanout`, default placement and
    /// estimator-derived budget.
    pub fn new(class: u8, fanout: u32) -> Self {
        QuerySpec {
            class,
            fanout,
            servers: None,
            budget_override: None,
            task_budgets: None,
        }
    }
}

/// A user request: one or more queries issued *sequentially* (query `i+1`
/// cannot start before query `i` completes — the dependency model of Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestInput {
    /// When the request (i.e. its first query) arrives.
    pub arrival: SimTime,
    /// The request's queries in issue order; `len() == 1` for plain queries.
    pub queries: Vec<QuerySpec>,
}

/// The complete workload for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimInput {
    /// Requests sorted by arrival time.
    pub requests: Vec<RequestInput>,
}

impl SimInput {
    /// Wraps a generated [`Trace`] (each record becomes a single-query
    /// request).
    pub fn from_trace(trace: &Trace) -> Self {
        SimInput {
            requests: trace
                .records
                .iter()
                .map(|r| RequestInput {
                    arrival: r.arrival(),
                    queries: vec![QuerySpec::new(r.class, r.fanout)],
                })
                .collect(),
        }
    }

    /// Total number of queries across all requests.
    pub fn query_count(&self) -> usize {
        self.requests.iter().map(|r| r.queries.len()).sum()
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when there are no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The task-server cluster.
    pub cluster: ClusterSpec,
    /// Service classes, indexed by `QuerySpec::class`.
    pub classes: Vec<ClassSpec>,
    /// The queuing policy under test.
    pub policy: Policy,
    /// Optional admission control.
    pub admission: Option<AdmissionConfig>,
    /// How the deadline estimator obtains per-server CDFs.
    pub estimator: EstimatorMode,
    /// Number of initial *queries* whose latencies are discarded as
    /// warm-up.
    pub warmup_queries: usize,
    /// Master seed for service times and placement.
    pub seed: u64,
    /// Interval fault episodes (slowdowns, stalls, blackouts) applied at
    /// task dispatch/completion time. `None` (the default) injects nothing
    /// and leaves the hot path untouched.
    pub faults: Option<FaultPlan>,
    /// Straggler/fault mitigation (hedging, retries, partial quorum) in the
    /// shared scheduling core. `None` (the default) disables it.
    pub mitigation: Option<MitigationConfig>,
    /// Lease TTL for dispatched tasks. `Some(ttl)` arms crash recovery:
    /// every dispatch carries a fenced lease expiring `ttl` after dequeue,
    /// and an expired lease is reclaimed — re-enqueued with its *original*
    /// deadline `t_D`. `None` (the default) disables leasing entirely, so
    /// no lease-check events enter the heap and runs stay bit-identical to
    /// pre-lease ones.
    pub lease: Option<SimDuration>,
    /// Per-server health scoring with outlier ejection in the scheduling
    /// core. `None` (the default) disables it and leaves runs
    /// bit-identical.
    pub health: Option<HealthConfig>,
    /// Adaptive (windowed/decayed) deadline estimation: the online
    /// estimator's CDFs roll every `window` observations so `x_p^u(k)`
    /// re-converges after a shift. `None` (the default) keeps cumulative
    /// estimation and bit-identical runs. Only meaningful with an online
    /// [`EstimatorMode`].
    pub adaptive: Option<AdaptiveWindow>,
}

impl SimConfig {
    /// Creates a configuration with no admission control, analytic
    /// estimator, 5 % of a 100k-query run as default warm-up, and seed 1.
    pub fn new(cluster: ClusterSpec, classes: Vec<ClassSpec>, policy: Policy) -> Self {
        assert!(!classes.is_empty(), "need at least one class");
        SimConfig {
            cluster,
            classes,
            policy,
            admission: None,
            estimator: EstimatorMode::Analytic,
            warmup_queries: 5_000,
            seed: 1,
            faults: None,
            mitigation: None,
            lease: None,
            health: None,
            adaptive: None,
        }
    }

    /// Sets the queuing policy (builder-style).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables admission control (builder-style).
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Sets the estimator mode (builder-style).
    pub fn with_estimator(mut self, estimator: EstimatorMode) -> Self {
        self.estimator = estimator;
        self
    }

    /// Sets the warm-up query count (builder-style).
    pub fn with_warmup(mut self, warmup_queries: usize) -> Self {
        self.warmup_queries = warmup_queries;
        self
    }

    /// Sets the seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the interval fault plan (builder-style). An empty plan behaves
    /// exactly like no plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables straggler/fault mitigation (builder-style).
    pub fn with_mitigation(mut self, mitigation: MitigationConfig) -> Self {
        self.mitigation = Some(mitigation);
        self
    }

    /// Arms lease-fenced crash recovery with the given TTL (builder-style).
    /// `ttl` is a virtual-time duration (nanosecond domain).
    pub fn with_lease(mut self, ttl: SimDuration) -> Self {
        self.lease = Some(ttl);
        self
    }

    /// Enables per-server health scoring with outlier ejection
    /// (builder-style).
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = Some(health);
        self
    }

    /// Enables adaptive (windowed/decayed) deadline estimation
    /// (builder-style).
    pub fn with_adaptive(mut self, adaptive: AdaptiveWindow) -> Self {
        self.adaptive = Some(adaptive);
        self
    }
}

/// A placement function: picks target servers for a `(class, fanout)` query.
pub type PlacementFn = dyn Fn(&mut SimRng, u8, u32) -> Vec<u32> + Send + Sync;

/// A reusable experiment scenario: everything except the policy and the
/// offered load, which the max-load search varies.
#[derive(Clone)]
pub struct Scenario {
    /// Human-readable name, e.g. `"Masstree single-class x99=0.8ms"`.
    pub label: String,
    /// The cluster under test.
    pub cluster: ClusterSpec,
    /// The service classes.
    pub classes: Vec<ClassSpec>,
    /// Class/fanout mix.
    pub mix: QueryMix,
    /// Arrival process family; its rate is rescaled per load point.
    pub arrival: ArrivalProcess,
    /// Mean service work per *task* in ms, used to convert load to rate via
    /// `λ = ρ·N / (E[k_f]·T̄_m)`. Presets with skewed placement set this to
    /// the placement-weighted mean.
    pub mean_task_work_ms: f64,
    /// Optional skewed placement (None = uniform distinct servers).
    pub placement: Option<Arc<PlacementFn>>,
    /// Base seed for workload generation.
    pub seed: u64,
    /// Optional workload drift (diurnal/flash-crowd rate curves, mix
    /// shifts). `None` (the default) keeps the stationary workload and
    /// bit-identical generation.
    pub drift: Option<DriftPlan>,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("label", &self.label)
            .field("servers", &self.cluster.servers())
            .field("classes", &self.classes)
            .field("arrival", &self.arrival.label())
            .finish()
    }
}

impl Scenario {
    /// Expected fanout of the mix.
    pub fn mean_fanout(&self) -> f64 {
        let mut total = 0.0;
        let shares = self.mix.classes();
        let prob_sum: f64 = shares.iter().map(|c| c.probability).sum();
        for share in shares {
            total += share.probability / prob_sum * share.fanout.mean();
        }
        total
    }

    /// The query arrival rate (queries/ms) that produces offered load `ρ`:
    /// `λ = ρ·N / (E[k_f]·T̄_m)`.
    ///
    /// # Panics
    ///
    /// Panics unless `load` is positive.
    pub fn rate_for_load(&self, load: f64) -> f64 {
        assert!(load > 0.0, "load must be positive");
        load * self.cluster.servers() as f64 / (self.mean_fanout() * self.mean_task_work_ms)
    }

    /// Generates the workload for one run at offered load `ρ` with
    /// `queries` single-query requests.
    pub fn input(&self, load: f64, queries: usize) -> SimInput {
        let rate = self.rate_for_load(load);
        let arrival = self.arrival.with_rate(rate);
        let mut master = SimRng::seed(self.seed);
        let mut arrival_rng = master.split();
        let mut mix_rng = master.split();
        let mut place_rng = master.split();
        let mut t = SimTime::ZERO;
        let mut requests = Vec::with_capacity(queries);
        // Time-varying rate via gap rescaling: the same exponential draw,
        // stretched or compressed by the drift's instantaneous rate factor
        // — so a drift-free plan reproduces the stationary trace exactly.
        let rate_drift = self.drift.as_ref().filter(|d| d.modulates_rate()).cloned();
        for _ in 0..queries {
            let gap = arrival.next_gap(&mut arrival_rng);
            t += match &rate_drift {
                Some(d) => gap.mul_f64(1.0 / d.rate_factor(t)),
                None => gap,
            };
            let (class, fanout) = match &self.drift {
                Some(d) => d.sample_mix(&self.mix, t, &mut mix_rng),
                None => self.mix.sample(&mut mix_rng),
            };
            let servers = self
                .placement
                .as_ref()
                .map(|f| f(&mut place_rng, class, fanout));
            requests.push(RequestInput {
                arrival: t,
                queries: vec![QuerySpec {
                    class,
                    fanout,
                    servers,
                    budget_override: None,
                    task_budgets: None,
                }],
            });
        }
        SimInput { requests }
    }

    /// Builds a [`SimConfig`] for this scenario under `policy`.
    pub fn config(&self, policy: Policy) -> SimConfig {
        SimConfig::new(self.cluster.clone(), self.classes.clone(), policy)
            .with_seed(self.seed ^ 0x5eed_c0de)
    }

    /// Attaches a workload drift plan (builder-style).
    pub fn with_drift(mut self, drift: DriftPlan) -> Self {
        self.drift = Some(drift);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailguard_dist::Deterministic;
    use tailguard_workload::FanoutDist;

    #[test]
    fn scenario_rate_for_load() {
        let scenario = Scenario {
            label: "t".into(),
            cluster: ClusterSpec::homogeneous(100, Deterministic::new(0.2)),
            classes: vec![ClassSpec::p99(SimDuration::from_millis(1))],
            mix: QueryMix::single(FanoutDist::fixed(10)),
            arrival: ArrivalProcess::poisson(1.0),
            mean_task_work_ms: 0.2,
            placement: None,
            seed: 1,
            drift: None,
        };
        // λ = 0.5 * 100 / (10 * 0.2) = 25 queries/ms
        assert!((scenario.rate_for_load(0.5) - 25.0).abs() < 1e-12);
        assert_eq!(scenario.mean_fanout(), 10.0);
    }

    #[test]
    fn scenario_input_deterministic_and_sized() {
        let scenario = Scenario {
            label: "t".into(),
            cluster: ClusterSpec::homogeneous(4, Deterministic::new(0.1)),
            classes: vec![ClassSpec::p99(SimDuration::from_millis(1))],
            mix: QueryMix::single(FanoutDist::fixed(2)),
            arrival: ArrivalProcess::poisson(1.0),
            mean_task_work_ms: 0.1,
            placement: None,
            seed: 9,
            drift: None,
        };
        let a = scenario.input(0.4, 100);
        let b = scenario.input(0.4, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.query_count(), 100);
        assert!(a.requests.windows(2).all(|w| w[1].arrival >= w[0].arrival));
    }

    #[test]
    fn scenario_placement_applied() {
        let scenario = Scenario {
            label: "t".into(),
            cluster: ClusterSpec::homogeneous(8, Deterministic::new(0.1)),
            classes: vec![ClassSpec::p99(SimDuration::from_millis(1))],
            mix: QueryMix::single(FanoutDist::fixed(1)),
            arrival: ArrivalProcess::poisson(1.0),
            mean_task_work_ms: 0.1,
            placement: Some(Arc::new(|_rng, _class, _fanout| vec![3])),
            seed: 2,
            drift: None,
        };
        let input = scenario.input(0.2, 10);
        for r in &input.requests {
            assert_eq!(r.queries[0].servers, Some(vec![3]));
        }
    }

    #[test]
    fn sim_input_from_trace() {
        let trace = Trace::generate(
            "x",
            &ArrivalProcess::poisson(1.0),
            &QueryMix::single(FanoutDist::fixed(3)),
            50,
            1,
        );
        let input = SimInput::from_trace(&trace);
        assert_eq!(input.len(), 50);
        assert_eq!(input.query_count(), 50);
        assert_eq!(input.requests[0].queries[0].fanout, 3);
    }

    #[test]
    fn sim_config_builder() {
        let cfg = SimConfig::new(
            ClusterSpec::homogeneous(1, Deterministic::new(1.0)),
            vec![ClassSpec::p99(SimDuration::from_millis(5))],
            Policy::Fifo,
        )
        .with_policy(Policy::TfEdf)
        .with_admission(AdmissionConfig::new(SimDuration::from_millis(100), 0.02))
        .with_warmup(10)
        .with_seed(42);
        assert_eq!(cfg.policy, Policy::TfEdf);
        assert!(cfg.admission.is_some());
        assert_eq!(cfg.warmup_queries, 10);
        assert_eq!(cfg.seed, 42);
    }
}
