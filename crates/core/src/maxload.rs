//! Max-load search and load sweeps — the measurement harness behind
//! Figs. 4–6.
//!
//! The paper reports, per policy, "the maximum load at which all three
//! types of queries meet their tail latency SLOs" (§IV.B). We reproduce
//! that as a bisection over offered load `ρ`: each probe runs the
//! scenario's workload at `ρ` and asks whether every query type meets its
//! SLO, as [`SimReport::meets_all_slos`] would.
//!
//! Every run here is *plain* ([`crate::plain`]): [`Scenario::input`]
//! makes single-query requests, and [`Scenario::config`] sets the analytic
//! estimator and none of admission, faults, leases, mitigation or health.
//! So every probe and every sweep point runs on the plain-run engine, N
//! independent server queues, and its report equals the event loop's.
//!
//! Every probe of a search, and every point of a sweep, runs one scenario
//! from one seed, so all of them share one workload but for its arrival
//! instants. A search draws that load-free part once ([`Draws`]: the
//! unit arrival draws, classes, fanouts, placements and service times,
//! 16 bytes per query and 12 per task), and every probe, on every worker,
//! reads it; a probe only turns the unit draws into instants at its load.
//! The draws equal those of [`Scenario::input`] and the event loop, so
//! the reports and verdicts are theirs. The mix must not depend on
//! arrival time, so a scenario whose drift shifts the mix is refused; a
//! drift that only modulates the rate is applied as each probe's instants
//! are computed.
//!
//! A probe decides its verdict from counts. The tail is the nearest-rank
//! quantile ([`nearest_rank`]): the `p`-quantile of a type with `n`
//! recorded queries is over its SLO exactly when more than `n − ⌈p·n⌉` of
//! them are. So a probe keeps, per query type, only how many completions
//! it recorded and how many of them were over the SLO: no reservoir and
//! no sort. A probe that fails stops as soon as its verdict is certain.
//! The type's `N` queries in the probe's input bound `n` from above
//! (warm-up only lowers it), and `n − ⌈p·n⌉` never decreases as `n` grows.
//! So once `N − ⌈p·N⌉ + 1` recorded completions of a type are over its
//! SLO, and at least [`SimReport::MIN_TYPE_SAMPLES`] of that type are
//! recorded, `meets_all_slos` of the full run is certain to be `false`, in
//! whatever order the completions are counted, and the probe ends there. A
//! probe that passes runs to the end. Every verdict, and so every probe
//! sequence and returned load, equals that of full runs.

use crate::draws::Draws;
use crate::plain::{run_plain, PlainRun, Record, Watch};
use crate::report::SimReport;
use crate::runner::run_indexed;
use crate::spec::{Scenario, SimConfig};
use std::collections::BTreeMap;
use tailguard_metrics::nearest_rank;
use tailguard_policy::Policy;
use tailguard_sched::{units, ClassSpec, QueryTypeKey};
use tailguard_simcore::{SimDuration, SimTime};
use tailguard_workload::DriftPlan;

/// Tuning knobs for [`max_load`] and [`sweep_loads`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxLoadOptions {
    /// Queries simulated per probe (more = tighter tail estimates; the
    /// paper-scale benches use 300k+, tests use ~20k).
    pub queries: usize,
    /// Lower bracket of the search (load fraction).
    pub lo: f64,
    /// Upper bracket of the search (load fraction).
    pub hi: f64,
    /// Bisection stops when the bracket is narrower than this.
    pub tolerance: f64,
    /// Fraction of queries discarded as warm-up.
    pub warmup_fraction: f64,
}

impl Default for MaxLoadOptions {
    fn default() -> Self {
        MaxLoadOptions {
            queries: 100_000,
            lo: 0.05,
            hi: 0.95,
            tolerance: 0.01,
            warmup_fraction: 0.05,
        }
    }
}

/// One point of a load sweep (Figs. 6, 7, 9).
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// The offered load the scenario was generated at.
    pub load: f64,
    /// Measured tail latency per class, at each class's percentile.
    pub tails_by_class: BTreeMap<u8, SimDuration>,
    /// Whether every query type met its SLO at this load.
    pub meets: bool,
    /// Fraction of tasks that missed their queuing deadline.
    pub miss_ratio: f64,
    /// Measured (accepted) load.
    pub measured_load: f64,
    /// Discrete events processed by this point's simulation run (for
    /// throughput accounting).
    pub events_processed: u64,
    /// Queries that completed (after warm-up trimming and admission
    /// control) in this point's run — the denominator for queries/sec
    /// throughput, distinct from the offered `opts.queries`.
    pub completed_queries: u64,
}

/// Runs the scenario once at offered load `load` under `policy`.
///
/// # Panics
///
/// Panics when `load` is not positive (via the rate computation), and
/// where [`max_load`] panics on the scenario.
pub fn measure_at_load(
    scenario: &Scenario,
    policy: Policy,
    load: f64,
    opts: &MaxLoadOptions,
) -> SimReport {
    Search::new(scenario, opts).report(policy, load, &mut Vec::new())
}

/// What every probe of one search, or every point of one sweep, shares:
/// the scenario's configuration and its load-free draws (see the module
/// docs).
pub(crate) struct Search<'a> {
    scenario: &'a Scenario,
    opts: MaxLoadOptions,
    /// The probes' configuration but for the policy.
    config: SimConfig,
    /// Per query, the unit draw of its arrival gap.
    unit_draws: Vec<f64>,
    draws: Draws,
}

impl<'a> Search<'a> {
    /// Draws the load-free part of `opts.queries` queries of `scenario`.
    ///
    /// # Panics
    ///
    /// Panics when the scenario's drift shifts the mix, and on a fanout
    /// over the cluster size.
    pub(crate) fn new(scenario: &'a Scenario, opts: &MaxLoadOptions) -> Self {
        let warmup = units::trunc_f64_to_usize(opts.queries as f64 * opts.warmup_fraction);
        // The draws do not depend on the policy.
        let config = scenario.config(Policy::TfEdf).with_warmup(warmup);
        assert!(
            !scenario.drift.as_ref().is_some_and(DriftPlan::shifts_mix),
            "the max-load harness draws a scenario's query mix once for every load, \
             so it cannot run a mix shift, whose mix depends on arrival time"
        );
        // Only the instants depend on the load, and without a mix shift
        // the mix is drawn alike at every instant.
        let requests = scenario.drawn(1.0, opts.queries);
        let (unit_draws, draws) = Draws::of(&plain(&config, config.policy), requests);
        Search {
            scenario,
            opts: *opts,
            config,
            unit_draws,
            draws,
        }
    }

    /// Fills `arrivals` with the instants [`Scenario::input`] gives the
    /// queries at `load`.
    fn arrivals_at(&self, load: f64, arrivals: &mut Vec<SimTime>) {
        let mut clock = self.scenario.clock(load);
        arrivals.clear();
        arrivals.extend(self.unit_draws.iter().map(|&u| clock.tick(u)));
    }

    /// The full report of the run at `load` under `policy`; `arrivals` is
    /// scratch space.
    fn report(&self, policy: Policy, load: f64, arrivals: &mut Vec<SimTime>) -> SimReport {
        self.arrivals_at(load, arrivals);
        let run = plain(&self.config, policy);
        let mut record = Record::default();
        run_plain(run, arrivals, &self.draws, &mut record).report(run, record)
    }

    /// `self.report(policy, load, ..).meets_all_slos()`, decided from
    /// counts and early; `arrivals` is scratch space.
    fn meets(&self, policy: Policy, load: f64, arrivals: &mut Vec<SimTime>) -> bool {
        self.arrivals_at(load, arrivals);
        verdict(plain(&self.config, policy), arrivals, &self.draws)
    }

    /// [`max_load`] of `policy` on these draws.
    pub(crate) fn max_load(&self, policy: Policy) -> f64 {
        let (opts, arrivals) = (&self.opts, &mut Vec::new());
        if self.meets(policy, opts.hi, arrivals) {
            return opts.hi;
        }
        if !self.meets(policy, opts.lo, arrivals) {
            return opts.lo;
        }
        let (mut lo, mut hi) = (opts.lo, opts.hi);
        while hi - lo > opts.tolerance {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if self.meets(policy, mid, arrivals) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// A probe's configuration under `policy` as the plain run it is.
fn plain(config: &SimConfig, policy: Policy) -> PlainRun<'_> {
    PlainRun {
        cluster: &config.cluster,
        classes: &config.classes,
        policy,
        seed: config.seed,
        warmup_queries: config.warmup_queries,
    }
}

/// Whether every query type of the plain run meets its SLO, with the run
/// stopped once one type's [`MissBudget`] is spent.
fn verdict(run: PlainRun<'_>, arrivals: &[SimTime], draws: &Draws) -> bool {
    let mut budget = MissBudget::new(run.classes, &draws.types);
    run_plain(run, arrivals, draws, &mut budget);
    budget.meets()
}

/// Per `(class, fanout)` query type of one run's input: how many recorded
/// full completions over the class SLO make the type's tail certainly
/// miss it (see the module docs), and the tallies toward that.
struct MissBudget {
    types: BTreeMap<QueryTypeKey, TypeBudget>,
    /// Some type's tail is certainly over its SLO.
    spent: bool,
}

struct TypeBudget {
    slo: SimDuration,
    percentile: f64,
    /// `N − nearest_rank(p, N) + 1` for the type's `N` queries in the
    /// input.
    need: usize,
    /// Completions a full report would record for the type so far.
    recorded: usize,
    /// Those of them over `slo`.
    over: usize,
}

impl MissBudget {
    /// The budgets of a run whose input holds `counts[key]` queries of
    /// each type.
    fn new(classes: &[ClassSpec], counts: &BTreeMap<QueryTypeKey, usize>) -> Self {
        // A class the config lacks gets no budget: the run panics on its
        // first query anyway.
        let types = counts
            .iter()
            .filter_map(|(&key, &n)| {
                let spec = classes.get(usize::from(key.class))?;
                let budget = TypeBudget {
                    slo: spec.slo,
                    percentile: spec.percentile,
                    need: n - nearest_rank(spec.percentile, n) + 1,
                    recorded: 0,
                    over: 0,
                };
                Some((key, budget))
            })
            .collect();
        MissBudget {
            types,
            spent: false,
        }
    }

    /// [`SimReport::meets_all_slos`] of the run so far: every type with
    /// `n ≥ MIN_TYPE_SAMPLES` recorded completions has at most
    /// `n − nearest_rank(p, n)` of them over its SLO, so its nearest-rank
    /// tail is within it.
    fn meets(&self) -> bool {
        !self.spent
            && self.types.values().all(|t| {
                t.recorded < SimReport::MIN_TYPE_SAMPLES
                    || t.over + nearest_rank(t.percentile, t.recorded) <= t.recorded
            })
    }
}

impl Watch for MissBudget {
    fn finished(&mut self, _: u32, key: QueryTypeKey, latency: SimDuration, recorded: bool) {
        // Only recorded completions enter the type reservoirs that
        // `meets_all_slos` reads.
        if !recorded {
            return;
        }
        let Some(t) = self.types.get_mut(&key) else {
            return;
        };
        t.recorded += 1;
        t.over += usize::from(latency > t.slo);
        self.spent |= t.over >= t.need && t.recorded >= SimReport::MIN_TYPE_SAMPLES;
    }

    fn settled(&self) -> bool {
        self.spent
    }
}

/// Bisects for the maximum offered load at which every query type meets its
/// SLO. Returns `opts.lo` when even the lower bracket fails, and `opts.hi`
/// when the upper bracket passes.
///
/// A probe that fails stops once one query type can no longer meet its
/// SLO: with `N` queries of that type in the probe, `N − ⌈p·N⌉ + 1`
/// recorded completions over the SLO (and at least
/// [`SimReport::MIN_TYPE_SAMPLES`] recorded) put its nearest-rank
/// `p`-quantile over the SLO however the run would continue, because no
/// more than `N` can be recorded and `n − ⌈p·n⌉` never decreases in `n`.
/// Probes that pass run to the end, so the verdicts, the probes run and
/// the result are those of full runs.
///
/// # Panics
///
/// Panics unless `0 < opts.lo < opts.hi < 1` and `opts.tolerance` is finite
/// and positive, when the scenario's drift shifts the mix, and on a
/// fanout over the cluster size, before any probe runs. The search also
/// stops once `lo` and `hi` are adjacent floats, so a tolerance below
/// their spacing cannot stall it.
///
/// # Example
///
/// ```
/// use tailguard::{scenarios, max_load, MaxLoadOptions};
/// use tailguard_policy::Policy;
/// use tailguard_workload::TailbenchWorkload;
///
/// let s = scenarios::single_class(TailbenchWorkload::Masstree, 1.2, 100);
/// let opts = MaxLoadOptions { queries: 15_000, tolerance: 0.05, ..Default::default() };
/// let load = max_load(&s, Policy::TfEdf, &opts);
/// assert!(load > 0.05);
/// ```
pub fn max_load(scenario: &Scenario, policy: Policy, opts: &MaxLoadOptions) -> f64 {
    check_bracket(opts);
    Search::new(scenario, opts).max_load(policy)
}

/// Panics unless `opts` brackets a search (see [`max_load`]).
pub(crate) fn check_bracket(opts: &MaxLoadOptions) {
    assert!(
        opts.lo > 0.0 && opts.lo < opts.hi && opts.hi < 1.0,
        "need 0 < lo < hi < 1"
    );
    assert!(
        opts.tolerance > 0.0 && opts.tolerance.is_finite(),
        "need a finite positive tolerance"
    );
}

/// Measures per-class tails at each load in `loads` (the Fig. 6 curves),
/// the points spread over up to `jobs` threads.
///
/// The points share one draw of the load-free workload. The result is
/// bit-identical for every `jobs`: each point's simulation derives its RNG
/// streams only from `(scenario.seed, load)`, and
/// [`run_indexed`](crate::run_indexed) returns the points in `loads` order
/// (`jobs <= 1` runs them one after another on the calling thread).
///
/// # Panics
///
/// Panics where [`measure_at_load`] does.
#[expect(
    clippy::cast_possible_truncation,
    reason = "class ids are scenario constants, fewer than 256 classes by construction"
)]
pub fn sweep_loads(
    scenario: &Scenario,
    policy: Policy,
    loads: &[f64],
    opts: &MaxLoadOptions,
    jobs: usize,
) -> Vec<LoadPoint> {
    let search = Search::new(scenario, opts);
    run_indexed(loads, jobs, |_, &load| {
        let mut report = search.report(policy, load, &mut Vec::new());
        let mut tails = BTreeMap::new();
        for (class, spec) in scenario.classes.iter().enumerate() {
            tails.insert(class as u8, report.class_tail(class as u8, spec.percentile));
        }
        LoadPoint {
            load,
            tails_by_class: tails,
            meets: report.meets_all_slos(),
            miss_ratio: report.deadline_miss_ratio(),
            measured_load: report.accepted_load(),
            events_processed: report.events_processed,
            completed_queries: report.completed_queries,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_simulation;
    use crate::plain::run_plain_tapped;
    use crate::scenarios;
    use crate::spec::SimInput;
    use tailguard_metrics::LatencyReservoir;
    use tailguard_workload::{
        ArrivalProcess, DriftKind, DriftPlan, FanoutDist, QueryMix, TailbenchWorkload,
    };

    /// The configuration and input of `scenario`'s probe at `load`.
    fn probe(
        scenario: &Scenario,
        policy: Policy,
        load: f64,
        opts: &MaxLoadOptions,
    ) -> (SimConfig, SimInput) {
        let input = scenario.input(load, opts.queries);
        let warmup = units::trunc_f64_to_usize(opts.queries as f64 * opts.warmup_fraction);
        (scenario.config(policy).with_warmup(warmup), input)
    }

    fn quick_opts() -> MaxLoadOptions {
        MaxLoadOptions {
            queries: 15_000,
            tolerance: 0.05,
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(expected = "need a finite positive tolerance")]
    fn max_load_rejects_a_zero_tolerance() {
        let s = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let opts = MaxLoadOptions {
            tolerance: 0.0,
            ..quick_opts()
        };
        max_load(&s, Policy::TfEdf, &opts);
    }

    #[test]
    fn measured_load_tracks_offered_load() {
        let s = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let report = measure_at_load(&s, Policy::Fifo, 0.4, &quick_opts());
        let measured = report.accepted_load();
        assert!(
            (measured - 0.4).abs() < 0.05,
            "offered 0.40, measured {measured:.3}"
        );
    }

    #[test]
    fn low_load_meets_high_load_fails() {
        let s = scenarios::single_class(TailbenchWorkload::Masstree, 0.8, 100);
        let opts = quick_opts();
        let mut low = measure_at_load(&s, Policy::TfEdf, 0.08, &opts);
        assert!(low.meets_all_slos(), "{}", low.render_table());
        let mut high = measure_at_load(&s, Policy::TfEdf, 0.92, &opts);
        assert!(!high.meets_all_slos(), "{}", high.render_table());
    }

    #[test]
    fn bisection_brackets_the_boundary() {
        let s = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let opts = quick_opts();
        let load = max_load(&s, Policy::TfEdf, &opts);
        assert!(load > opts.lo && load < opts.hi, "load {load}");
        // The found load must itself pass.
        let search = Search::new(&s, &opts);
        assert!(search.meets(Policy::TfEdf, load, &mut Vec::new()));
        assert!(search
            .report(Policy::TfEdf, load, &mut Vec::new())
            .meets_all_slos());
    }

    #[test]
    fn tailguard_at_least_matches_fifo() {
        // The headline claim, in miniature.
        let s = scenarios::single_class(TailbenchWorkload::Masstree, 0.9, 100);
        let opts = quick_opts();
        let tg = max_load(&s, Policy::TfEdf, &opts);
        let fifo = max_load(&s, Policy::Fifo, &opts);
        assert!(
            tg >= fifo - opts.tolerance,
            "TailGuard {tg:.3} must not lose to FIFO {fifo:.3}"
        );
    }

    #[test]
    fn sweep_monotone_tails() {
        let s = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let pts = sweep_loads(&s, Policy::Fifo, &[0.2, 0.5, 0.8], &quick_opts(), 1);
        assert_eq!(pts.len(), 3);
        // Tail latency grows with load.
        let t: Vec<f64> = pts
            .iter()
            .map(|p| p.tails_by_class[&0].as_millis_f64())
            .collect();
        assert!(t[0] < t[2], "tails {t:?}");
        assert!(pts[0].meets, "low load point must meet SLO");
    }

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    #[test]
    fn budget_is_spent_exactly_when_the_full_tail_misses() {
        // 200 fanout-4 queries at p99: the tail (rank 198) is over the SLO
        // exactly when 3 of the 200 are.
        let slo = ms(1.0);
        let classes = [ClassSpec::p99(slo)];
        let key = QueryTypeKey {
            class: 0,
            fanout: 4,
        };
        let counts = BTreeMap::from([(key, 200)]);
        for (over, misses_first) in (0..=25).flat_map(|o| [(o, true), (o, false)]) {
            let mut budget = MissBudget::new(&classes, &counts);
            let mut all = LatencyReservoir::new();
            let mut spent_at = None;
            // Unrecorded queries count for nothing.
            budget.finished(0, key, ms(9.0), false);
            for i in 0..200 {
                let missed = if misses_first {
                    i < over
                } else {
                    i >= 200 - over
                };
                let latency = if missed { ms(2.0) } else { ms(0.5) };
                all.record(latency);
                budget.finished(0, key, latency, true);
                if budget.settled() && spent_at.is_none() {
                    spent_at = Some(i + 1);
                }
            }
            let misses = all.percentile(0.99) > slo;
            assert_eq!(budget.settled(), misses, "{over} over the SLO");
            assert_eq!(budget.meets(), !misses, "{over} over the SLO");
            // Misses first: the sample floor holds the verdict back. Misses
            // last: the third one decides.
            let expected = match misses_first {
                true => SimReport::MIN_TYPE_SAMPLES,
                false => 200 - over + 3,
            };
            assert_eq!(spent_at, misses.then_some(expected), "{over} over the SLO");
        }
    }

    /// The event loop's full-run verdict on one probe, after checking that
    /// the early verdict equals it; counts the failing probes that stopped
    /// early.
    fn full_verdict(config: &SimConfig, input: &SimInput, stopped: &mut usize) -> bool {
        let mut full = run_simulation(config, input);
        let meets = full.meets_all_slos();
        let run = plain(config, config.policy);
        let (arrivals, draws) = Draws::of(&run, input.into_iter().map(|r| (r.arrival, r)));
        assert_eq!(
            verdict(run, &arrivals, &draws),
            meets,
            "early verdict differs from the full run's ({} queries)",
            input.query_count()
        );
        if !meets {
            let mut budget = MissBudget::new(&config.classes, &draws.types);
            let cut = run_plain(run, &arrivals, &draws, &mut budget);
            // Counted when the stopped run dequeued fewer tasks: the budget
            // can also run out at a run's last dequeue.
            let (cut, full) = (
                cut.load.tasks_completed_count(),
                full.load.tasks_completed_count(),
            );
            assert!(cut <= full);
            if budget.spent && cut < full {
                *stopped += 1;
            }
        }
        meets
    }

    /// [`max_load`]'s bisection over an arbitrary verdict.
    fn reference_bisection(opts: &MaxLoadOptions, mut meets: impl FnMut(f64) -> bool) -> f64 {
        if meets(opts.hi) {
            return opts.hi;
        }
        if !meets(opts.lo) {
            return opts.lo;
        }
        let (mut lo, mut hi) = (opts.lo, opts.hi);
        while hi - lo > opts.tolerance {
            let mid = 0.5 * (lo + hi);
            if meets(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn oracle_opts() -> MaxLoadOptions {
        MaxLoadOptions {
            queries: 6_000,
            tolerance: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn early_verdicts_and_max_load_equal_full_runs_for_every_policy() {
        let opts = oracle_opts();
        let mut stopped = 0;
        for seed in [1, 2] {
            let mut s = scenarios::two_class(
                TailbenchWorkload::Masstree,
                1.0,
                ArrivalProcess::poisson(1.0),
            );
            s.seed = seed;
            for policy in Policy::ALL {
                let reference = reference_bisection(&opts, |load| {
                    let (config, input) = probe(&s, policy, load, &opts);
                    full_verdict(&config, &input, &mut stopped)
                });
                assert_eq!(
                    max_load(&s, policy, &opts),
                    reference,
                    "{policy:?} seed {seed}"
                );
            }
        }
        assert!(stopped > 0, "no failing probe stopped early");
    }

    /// Scenarios whose probes the shared draws must reproduce: Poisson and
    /// Pareto arrivals, a rate-only diurnal drift, and the heterogeneous
    /// SaS cluster with its own placement.
    fn shared_draw_scenarios() -> Vec<Scenario> {
        let two_class = |arrival| scenarios::two_class(TailbenchWorkload::Masstree, 1.0, arrival);
        let diurnal = DriftPlan::new(vec![DriftKind::Diurnal {
            period: SimDuration::from_millis(40),
            amplitude: 0.6,
        }]);
        vec![
            two_class(ArrivalProcess::poisson(1.0)),
            two_class(ArrivalProcess::pareto(1.0)),
            two_class(ArrivalProcess::poisson(1.0)).with_drift(diurnal.clone()),
            two_class(ArrivalProcess::pareto(1.0)).with_drift(diurnal),
            scenarios::sas_testbed(),
        ]
    }

    #[test]
    fn shared_draws_give_each_load_the_scenario_input_bit_for_bit() {
        let opts = MaxLoadOptions {
            queries: 3_000,
            ..quick_opts()
        };
        for s in shared_draw_scenarios() {
            let search = Search::new(&s, &opts);
            let (config, _) = probe(&s, Policy::TfEdf, 0.5, &opts);
            let run = plain(&config, config.policy);
            let mut arrivals = Vec::new();
            for load in [0.05, 0.5, 0.95, 1.5] {
                let input = s.input(load, opts.queries);
                let (want_arrivals, want_draws) =
                    Draws::of(&run, input.into_iter().map(|r| (r.arrival, r)));
                search.arrivals_at(load, &mut arrivals);
                assert_eq!(arrivals, want_arrivals, "{} at {load}", s.label);
                assert_eq!(search.draws, want_draws, "{} at {load}", s.label);
                let report = search.report(Policy::TfEdf, load, &mut arrivals);
                assert_eq!(
                    format!("{report:?}"),
                    format!("{:?}", run_plain_tapped(run, &input, |_| {})),
                    "{} at {load}",
                    s.label
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot run a mix shift")]
    fn max_load_refuses_a_mix_shift() {
        // The mix of a shifting scenario depends on arrival time, so on the
        // load: it cannot be drawn once for every probe.
        let shift = DriftKind::MixShift {
            start: SimTime::from_millis(10),
            end: SimTime::from_millis(20),
            to: QueryMix::single(FanoutDist::fixed(1)),
        };
        let s = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100)
            .with_drift(DriftPlan::new(vec![shift]));
        max_load(&s, Policy::TfEdf, &quick_opts());
    }

    #[test]
    #[should_panic(expected = "fanout 101 exceeds cluster size 100")]
    fn max_load_refuses_a_fanout_over_the_cluster_size() {
        let mut s = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        s.mix = QueryMix::single(FanoutDist::fixed(101));
        max_load(&s, Policy::TfEdf, &quick_opts());
    }

    #[test]
    #[should_panic(expected = "need 0 < lo < hi < 1")]
    fn rejects_bad_bracket() {
        let s = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
        let opts = MaxLoadOptions {
            lo: 0.9,
            hi: 0.1,
            ..quick_opts()
        };
        let _ = max_load(&s, Policy::Fifo, &opts);
    }
}
