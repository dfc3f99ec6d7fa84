//! Max-load search and load sweeps — the measurement harness behind
//! Figs. 4–6.
//!
//! The paper reports, per policy, "the maximum load at which all three
//! types of queries meet their tail latency SLOs" (§IV.B). We reproduce
//! that as a bisection over offered load `ρ`: each probe generates the
//! scenario's workload at `ρ`, runs the simulator, and asks
//! [`SimReport::meets_all_slos`].
//!
//! Every run here is *plain* ([`crate::plain`]): [`Scenario::input`]
//! makes single-query requests, and [`Scenario::config`] sets the analytic
//! estimator and none of admission, faults, leases, mitigation or health.
//! So every probe and every sweep point runs on the plain-run engine, N
//! independent server queues, and its report equals the event loop's.
//!
//! A probe that fails stops as soon as its verdict is certain. The tail
//! is the nearest-rank quantile ([`nearest_rank`]): the `p`-quantile of a
//! type with `n` recorded queries is over its SLO exactly when more than
//! `n − ⌈p·n⌉` of them are. The type's `N` queries in the probe's input
//! bound `n` from above (warm-up only lowers it), and `n − ⌈p·n⌉` never
//! decreases as `n` grows. So once `N − ⌈p·N⌉ + 1` recorded completions of
//! a type are over its SLO, and at least [`SimReport::MIN_TYPE_SAMPLES`]
//! of that type are recorded, `meets_all_slos` of the full run is certain
//! to be `false`, in whatever order the completions are counted, and the
//! probe ends there. A probe that passes runs to the end. Every verdict,
//! and so every probe sequence and returned load, equals that of full
//! runs.

use crate::plain::{run_plain, PlainRun, Watch};
use crate::report::SimReport;
use crate::runner::run_indexed;
use crate::spec::{Scenario, SimConfig, SimInput};
use std::collections::BTreeMap;
use tailguard_metrics::nearest_rank;
use tailguard_policy::Policy;
use tailguard_sched::{units, ClassSpec, QueryTypeKey};
use tailguard_simcore::SimDuration;

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
/// Panics when `load` is not positive (via the rate computation).
pub fn measure_at_load(
    scenario: &Scenario,
    policy: Policy,
    load: f64,
    opts: &MaxLoadOptions,
) -> SimReport {
    let (config, input) = probe(scenario, policy, load, opts);
    run_plain(plain(&config), &input, &mut ())
}

/// The run [`measure_at_load`] simulates.
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

/// A probe's configuration as the plain run it is.
fn plain(config: &SimConfig) -> PlainRun<'_> {
    PlainRun {
        cluster: &config.cluster,
        classes: &config.classes,
        policy: config.policy,
        seed: config.seed,
        warmup_queries: config.warmup_queries,
    }
}

/// `measure_at_load(..).meets_all_slos()`, decided early.
fn meets(scenario: &Scenario, policy: Policy, load: f64, opts: &MaxLoadOptions) -> bool {
    let (config, input) = probe(scenario, policy, load, opts);
    verdict(&config, &input)
}

/// `run_simulation(config, input).meets_all_slos()` for a probe's plain
/// run, with the run stopped once one query type's [`MissBudget`] is
/// spent. Only the verdict leaves: the report of a stopped run covers part
/// of the input.
fn verdict(config: &SimConfig, input: &SimInput) -> bool {
    let mut budget = MissBudget::new(&config.classes, input);
    let mut report = run_plain(plain(config), input, &mut budget);
    !budget.spent && report.meets_all_slos()
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
    /// `N − nearest_rank(p, N) + 1` for the type's `N` queries in the
    /// input.
    need: usize,
    /// Completions recorded into the type's reservoir so far.
    recorded: usize,
    /// Those of them over `slo`.
    over: usize,
}

impl MissBudget {
    fn new(classes: &[ClassSpec], input: &SimInput) -> Self {
        let mut counts: BTreeMap<QueryTypeKey, usize> = BTreeMap::new();
        for query in input.requests.iter().flat_map(|r| &r.queries) {
            let key = QueryTypeKey {
                class: query.class,
                fanout: query.fanout,
            };
            *counts.entry(key).or_default() += 1;
        }
        // A class the config lacks gets no budget: the run panics on its
        // first query anyway.
        let types = counts
            .into_iter()
            .filter_map(|(key, n)| {
                let spec = classes.get(usize::from(key.class))?;
                let budget = TypeBudget {
                    slo: spec.slo,
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
/// and positive. The search also stops once `lo` and `hi` are adjacent
/// floats, so a tolerance below their spacing cannot stall it.
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
    assert!(
        opts.lo > 0.0 && opts.lo < opts.hi && opts.hi < 1.0,
        "need 0 < lo < hi < 1"
    );
    assert!(
        opts.tolerance > 0.0 && opts.tolerance.is_finite(),
        "need a finite positive tolerance"
    );
    if meets(scenario, policy, opts.hi, opts) {
        return opts.hi;
    }
    if !meets(scenario, policy, opts.lo, opts) {
        return opts.lo;
    }
    let (mut lo, mut hi) = (opts.lo, opts.hi);
    while hi - lo > opts.tolerance {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if meets(scenario, policy, mid, opts) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Measures per-class tails at each load in `loads` (the Fig. 6 curves),
/// the points spread over up to `jobs` threads.
///
/// The result is bit-identical for every `jobs`: each point's simulation
/// derives its RNG streams only from `(scenario.seed, load)`, and
/// [`run_indexed`](crate::run_indexed) returns the points in `loads` order
/// (`jobs <= 1` runs them one after another on the calling thread).
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
    run_indexed(loads, jobs, |_, &load| {
        let mut report = measure_at_load(scenario, policy, load, opts);
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
    use crate::scenarios;
    use crate::spec::{QuerySpec, RequestInput};
    use tailguard_metrics::LatencyReservoir;
    use tailguard_simcore::SimTime;
    use tailguard_workload::{ArrivalProcess, TailbenchWorkload};

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
        assert!(meets(&s, Policy::TfEdf, load, &opts));
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
        let input = SimInput {
            requests: (0..200)
                .map(|i| RequestInput {
                    arrival: SimTime::from_millis(i),
                    queries: vec![QuerySpec::new(0, 4)],
                })
                .collect(),
        };
        let key = QueryTypeKey {
            class: 0,
            fanout: 4,
        };
        for (over, misses_first) in (0..=25).flat_map(|o| [(o, true), (o, false)]) {
            let mut budget = MissBudget::new(&classes, &input);
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
        assert_eq!(
            verdict(config, input),
            meets,
            "early verdict differs from the full run's ({} queries)",
            input.query_count()
        );
        if !meets {
            let mut budget = MissBudget::new(&config.classes, input);
            let cut = run_plain(plain(config), input, &mut budget);
            // Counted when the stopped run dequeued fewer tasks: the budget
            // can also run out at a run's last dequeue.
            let dequeued = |r: &SimReport| r.load.tasks_completed_count();
            assert!(dequeued(&cut) <= dequeued(&full));
            if budget.spent && dequeued(&cut) < dequeued(&full) {
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
