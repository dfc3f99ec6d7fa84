//! Configuration types: classes, clusters, queries, scenarios.

use std::fmt;
use std::sync::Arc;
use tailguard_faults::FaultPlan;
use tailguard_policy::Policy;
use tailguard_sched::{AdaptiveWindow, EstimatorMode, HealthConfig, MitigationConfig};
use tailguard_simcore::{SimDuration, SimRng, SimTime};
use tailguard_workload::{ArrivalProcess, DriftPlan, GapScale, QueryMix, Trace};

// Service classes, clusters, and admission control moved into the shared
// scheduling core so the simulator and the testbed configure the same
// `QueryHandler`; re-exported here to keep `tailguard::ClassSpec` et al.
// working.
pub use tailguard_sched::{AdmissionConfig, ClassSpec, ClusterSpec};

/// One query inside a request: its class and fanout `k_f`, and, for the
/// few queries that set them, a boxed record of overrides. A generated query
/// is 16 bytes and owns no heap memory.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Service class index into [`SimConfig::classes`].
    pub class: u8,
    /// Query fanout `k_f`.
    pub fanout: u32,
    overrides: Option<Box<QueryOverrides>>,
}

/// What a query may set beyond its class and fanout. Each field is `None`
/// unless a `with_*` builder of [`QuerySpec`] set it.
#[derive(Debug, Clone, Default, PartialEq)]
struct QueryOverrides {
    servers: Option<Vec<u32>>,
    budget_override: Option<SimDuration>,
    task_budgets: Option<Vec<SimDuration>>,
}

impl QuerySpec {
    /// A plain query of `class` with `fanout`, default placement and
    /// estimator-derived budget.
    pub fn new(class: u8, fanout: u32) -> Self {
        QuerySpec {
            class,
            fanout,
            overrides: None,
        }
    }

    /// Pre-chosen target servers. `None` lets the simulator pick `k_f`
    /// distinct servers uniformly at random (the paper's simulation
    /// placement); presets with skewed placement (SaS) fill this in.
    pub fn servers(&self) -> Option<&[u32]> {
        self.overrides.as_ref()?.servers.as_deref()
    }

    /// Overrides the estimator-derived pre-dequeuing budget `T_b` — used by
    /// the request-decomposition extension (Eq. 7) to assign per-query
    /// budgets out of a request-level budget.
    pub fn budget_override(&self) -> Option<SimDuration> {
        self.overrides.as_ref()?.budget_override
    }

    /// Per-task budget overrides (one per task, aligned with the placement)
    /// — used by the footnote-4 ablation to compare the paper's shared
    /// query-wide deadline against per-task deadlines. Takes precedence
    /// over [`QuerySpec::budget_override`].
    pub fn task_budgets(&self) -> Option<&[SimDuration]> {
        self.overrides.as_ref()?.task_budgets.as_deref()
    }

    /// Places the query on `servers`, one per task (builder-style).
    pub fn with_servers(mut self, servers: Vec<u32>) -> Self {
        self.overrides_mut().servers = Some(servers);
        self
    }

    /// Gives the query the budget `T_b` instead of the estimator's
    /// (builder-style).
    pub fn with_budget_override(mut self, budget: SimDuration) -> Self {
        self.overrides_mut().budget_override = Some(budget);
        self
    }

    /// Gives each task its own budget, one per task (builder-style).
    pub fn with_task_budgets(mut self, budgets: Vec<SimDuration>) -> Self {
        self.overrides_mut().task_budgets = Some(budgets);
        self
    }

    fn overrides_mut(&mut self) -> &mut QueryOverrides {
        self.overrides.get_or_insert_with(Box::default)
    }
}

/// A request's queries in issue order: one query held inline, or a chain
/// of them. Derefs to `[QuerySpec]`.
#[derive(Clone, PartialEq)]
pub struct QueryChain(Chain);

/// A lone query is always `One` (see `From<Vec<QuerySpec>>`), so the
/// derived equality compares the queries.
#[derive(Clone, PartialEq)]
enum Chain {
    One(QuerySpec),
    Many(Vec<QuerySpec>),
}

impl std::ops::Deref for QueryChain {
    type Target = [QuerySpec];

    fn deref(&self) -> &[QuerySpec] {
        match &self.0 {
            Chain::One(query) => std::slice::from_ref(query),
            Chain::Many(queries) => queries,
        }
    }
}

impl From<QuerySpec> for QueryChain {
    fn from(query: QuerySpec) -> Self {
        QueryChain(Chain::One(query))
    }
}

impl From<Vec<QuerySpec>> for QueryChain {
    fn from(queries: Vec<QuerySpec>) -> Self {
        match <[QuerySpec; 1]>::try_from(queries) {
            Ok([query]) => query.into(),
            Err(queries) => QueryChain(Chain::Many(queries)),
        }
    }
}

impl FromIterator<QuerySpec> for QueryChain {
    fn from_iter<I: IntoIterator<Item = QuerySpec>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<_>>().into()
    }
}

impl fmt::Debug for QueryChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A user request: one or more queries issued *sequentially* (query `i+1`
/// cannot start before query `i` completes — the dependency model of Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestInput {
    /// When the request (i.e. its first query) arrives.
    pub arrival: SimTime,
    /// The request's queries in issue order; `len() == 1` for plain queries.
    pub queries: QueryChain,
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
                    queries: QuerySpec::new(r.class, r.fanout).into(),
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

/// Turns a scenario's unit arrival draws into arrival instants at one load:
/// the arithmetic [`Scenario::input`] and the max-load harness share.
pub(crate) struct ArrivalClock<'a> {
    scale: GapScale,
    /// The scenario's drift, when it modulates the rate.
    rate_drift: Option<&'a DriftPlan>,
    now: SimTime,
}

impl ArrivalClock<'_> {
    /// The next arrival instant, `unit` after the last one. A drift that
    /// modulates the rate stretches or compresses the gap by its rate
    /// factor at the last arrival, so a drift-free plan gives the
    /// stationary instants exactly.
    pub(crate) fn tick(&mut self, unit: f64) -> SimTime {
        let gap = self.scale.gap(unit);
        self.now += match self.rate_drift {
            Some(d) => gap.mul_f64(1.0 / d.rate_factor(self.now)),
            None => gap,
        };
        self.now
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
        let mut clock = self.clock(load);
        let [mut arrival_rng, mut mix_rng, mut place_rng] = self.workload_rngs();
        let mut requests = Vec::with_capacity(queries);
        for _ in 0..queries {
            let t = clock.tick(self.arrival.unit_draw(&mut arrival_rng));
            requests.push(RequestInput {
                arrival: t,
                queries: self.draw_query(t, &mut mix_rng, &mut place_rng).into(),
            });
        }
        SimInput { requests }
    }

    /// The query that arrives at `t`: its class and fanout from the mix
    /// (shifted by the drift, if any, as of `t`), and its placement when
    /// the scenario places queries itself.
    pub(crate) fn draw_query(
        &self,
        t: SimTime,
        mix_rng: &mut SimRng,
        place_rng: &mut SimRng,
    ) -> QuerySpec {
        let (class, fanout) = match &self.drift {
            Some(d) => d.sample_mix(&self.mix, t, mix_rng),
            None => self.mix.sample(mix_rng),
        };
        let query = QuerySpec::new(class, fanout);
        match &self.placement {
            Some(place) => query.with_servers(place(place_rng, class, fanout)),
            None => query,
        }
    }

    /// The streams [`Scenario::input`] draws from: arrival gaps, the
    /// class/fanout mix and the scenario's placement.
    pub(crate) fn workload_rngs(&self) -> [SimRng; 3] {
        let mut master = SimRng::seed(self.seed);
        [master.split(), master.split(), master.split()]
    }

    /// The arrival instants of the workload at offered load `ρ`, one
    /// [`ArrivalProcess::unit_draw`] at a time.
    pub(crate) fn clock(&self, load: f64) -> ArrivalClock<'_> {
        ArrivalClock {
            scale: self.arrival.with_rate(self.rate_for_load(load)).gap_scale(),
            rate_drift: self.drift.as_ref().filter(|d| d.modulates_rate()),
            now: SimTime::ZERO,
        }
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
    use tailguard_workload::{FanoutDist, TailbenchWorkload};

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
            assert_eq!(r.queries[0].servers(), Some(&[3][..]));
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
    fn a_query_is_16_bytes_and_a_request_32() {
        assert!(std::mem::size_of::<QuerySpec>() <= 16);
        assert!(std::mem::size_of::<RequestInput>() <= 32);
    }

    /// True when `chain` holds its one query inline, without overrides.
    fn inline_and_plain(chain: &QueryChain) -> bool {
        matches!(&chain.0, Chain::One(q) if q.overrides.is_none())
    }

    #[test]
    fn generated_queries_are_inline_and_only_placement_boxes_overrides() {
        let plain = crate::scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let input = plain.input(0.5, 500);
        assert!(input.requests.iter().all(|r| inline_and_plain(&r.queries)));
        let trace = Trace::generate(
            "x",
            &ArrivalProcess::poisson(1.0),
            &QueryMix::single(FanoutDist::paper_mix()),
            500,
            3,
        );
        let from_trace = SimInput::from_trace(&trace);
        assert!(from_trace
            .requests
            .iter()
            .all(|r| inline_and_plain(&r.queries)));

        let sas = crate::scenarios::sas_testbed();
        for r in &sas.input(0.5, 500).requests {
            let [q] = &*r.queries else {
                panic!("a generated request issues one query");
            };
            assert!(matches!(r.queries.0, Chain::One(_)));
            assert_eq!(q.servers().map(<[u32]>::len), Some(q.fanout as usize));
            assert_eq!((q.budget_override(), q.task_budgets()), (None, None));
        }
    }

    #[test]
    fn a_chain_of_one_is_held_inline_and_compares_by_its_queries() {
        let one: QueryChain = vec![QuerySpec::new(1, 4)].into();
        assert!(inline_and_plain(&one));
        assert_eq!(one, QueryChain::from(QuerySpec::new(1, 4)));
        let many: QueryChain = vec![QuerySpec::new(0, 1); 3].into();
        assert_eq!(many.len(), 3);
        assert!(QueryChain::from(Vec::new()).is_empty());
        assert_eq!(format!("{one:?}"), format!("{:?}", [QuerySpec::new(1, 4)]));
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
