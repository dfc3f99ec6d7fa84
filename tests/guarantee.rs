//! The guarantee itself, read off the flight recording.
//!
//! A task dequeued by its deadline `t_D = t_0 + T_b` waited at most `T_b`.
//! Its service time is drawn independently of the queue, and a query's
//! tasks run on distinct servers. So a query whose every task was on time
//! finishes within `T_b + max_j service_j`. With `T_b = x_p^SLO −
//! x_p^u(k_f)` (Eq. 6) it can miss its SLO only when `max_j service_j >
//! x_p^u(k_f)`, which by Eq. 1/2 happens with probability `1 − p/100`.
//! Among on-time queries, then, at any load and under any queue order
//! that stamps `t_D`:
//! - the SLO-miss share is at most `1 − p/100`;
//! - the share whose largest service time exceeds `x_p^u(k_f)` is
//!   `1 − p/100`.
//!
//! Both are checked within a 4σ binomial margin, on the single-class
//! Masstree scenario at a fixed fanout, for TF-EDFQ below and above its
//! max load (≈ 0.43 here) and for FIFO, which stamps Eq. 6's `t_D` too.
//! Under the paper's fanout mix each fanout has its own budget, and under
//! two classes each class its own SLO, so each (class, fanout) cell is
//! checked on its own queries against its own `x_p^u(k_f)`.

use std::collections::BTreeMap;
use tailguard_repro::obs::build_timelines;
use tailguard_repro::policy::Policy;
use tailguard_repro::simcore::SimDuration;
use tailguard_repro::tailguard::{
    run_simulation_observed, scenarios, DeadlineEstimator, EstimatorMode, ObsOptions, Scenario,
};
use tailguard_repro::workload::{ArrivalProcess, FanoutDist, QueryMix, TailbenchWorkload};

/// On-time queries of one (class, fanout) cell: how many, how many missed
/// the SLO, and how many had a service time over `x_p^u(k_f)`.
#[derive(Default)]
struct Tally {
    on_time: u32,
    missed: u32,
    over_tail: u32,
}

/// Runs `policy` at `load` for `queries` queries of `scenario`, its classes
/// equiprobable and all drawing fanouts from `fanouts`, and checks both
/// shares over the on-time queries of each (class, fanout) cell; each cell
/// needs at least `min_on_time` of them.
fn check_guarantee(
    policy: Policy,
    load: f64,
    mut scenario: Scenario,
    fanouts: FanoutDist,
    queries: usize,
    min_on_time: u32,
) {
    let mut estimator = DeadlineEstimator::new(
        &scenario.cluster,
        scenario.classes.clone(),
        EstimatorMode::Analytic,
    );
    // `x_p^u(k_f)` of each cell.
    let mut tails: BTreeMap<(u8, u32), SimDuration> = BTreeMap::new();
    for class in 0..scenario.classes.len() as u8 {
        for &k in fanouts.support() {
            tails.insert((class, k), estimator.unloaded_query_tail(class, k, &[]));
        }
    }
    scenario.mix = QueryMix::equiprobable(scenario.classes.len() as u8, fanouts);
    let opts = ObsOptions {
        // About 40 events per query; the ring must keep every one.
        ring_capacity: queries * 64,
        ..ObsOptions::default()
    };
    let run = run_simulation_observed(
        &scenario.config(policy),
        &scenario.input(load, queries),
        &opts,
    );
    assert_eq!(run.recorder.dropped(), 0, "{policy} @ {load}: ring dropped");

    let mut tallies: BTreeMap<(u8, u32), Tally> = BTreeMap::new();
    for tl in build_timelines(&run.recorder.events()).values() {
        let Some(latency) = tl.latency() else {
            continue;
        };
        if !tl
            .attempts
            .iter()
            .all(|a| a.slack_ns.is_some_and(|s| s >= 0))
        {
            continue;
        }
        let cell = (tl.class, tl.fanout);
        let slo = scenario.classes[usize::from(tl.class)].slo;
        let tail = tails[&cell];
        let max_busy = tl.attempts.iter().filter_map(|a| a.busy).max();
        let slow = max_busy.is_some_and(|b| b > tail);
        let tally = tallies.entry(cell).or_default();
        tally.on_time += 1;
        tally.missed += u32::from(latency > slo);
        tally.over_tail += u32::from(slow);
        // The bound is exact per query, not only in the aggregate.
        assert!(
            latency <= slo || slow,
            "{policy} @ {load}: on-time query {} missed with max busy {max_busy:?} <= {tail:?}",
            tl.query
        );
    }
    assert!(
        tallies.keys().eq(tails.keys()),
        "{policy} @ {load}: a (class, fanout) cell has no on-time query"
    );
    for (&(class, fanout), tally) in &tallies {
        let Tally {
            on_time,
            missed,
            over_tail,
        } = *tally;
        let tail = tails[&(class, fanout)];
        let q = 1.0 - scenario.classes[usize::from(class)].percentile;
        let case = format!("{policy} @ {load}, class {class}, fanout {fanout}");
        assert!(on_time >= min_on_time, "{case}: {on_time} on-time queries");
        let n = f64::from(on_time);
        let margin = 4.0 * (q * (1.0 - q) / n).sqrt();
        let (miss_share, over_share) = (f64::from(missed) / n, f64::from(over_tail) / n);
        assert!(
            miss_share <= q + margin,
            "{case}: {missed}/{on_time} on-time queries missed the SLO, over {q} + {margin:.4}"
        );
        assert!(
            (over_share - q).abs() <= margin,
            "{case}: {over_tail}/{on_time} on-time queries had max busy > x_p^u({fanout}) \
             = {tail:?}, not {q} ± {margin:.4}"
        );
    }
}

/// The single-class Masstree scenario at a 1 ms SLO.
fn masstree() -> Scenario {
    scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100)
}

#[test]
fn tfedf_below_max_load() {
    check_guarantee(
        Policy::TfEdf,
        0.3,
        masstree(),
        FanoutDist::fixed(10),
        20_000,
        1_000,
    );
}

#[test]
fn tfedf_above_max_load() {
    check_guarantee(
        Policy::TfEdf,
        0.6,
        masstree(),
        FanoutDist::fixed(10),
        20_000,
        1_000,
    );
}

#[test]
fn fifo_stamps_the_same_deadline() {
    check_guarantee(
        Policy::Fifo,
        0.5,
        masstree(),
        FanoutDist::fixed(10),
        20_000,
        1_000,
    );
}

#[test]
fn tfedf_under_the_paper_mix_holds_per_fanout() {
    // 20 000 queries at P(k) ∝ 1/k: about 18 000, 1 800 and 180 of fanouts
    // 1, 10 and 100.
    check_guarantee(
        Policy::TfEdf,
        0.4,
        masstree(),
        FanoutDist::paper_mix(),
        20_000,
        100,
    );
}

#[test]
fn tfedf_under_two_classes_holds_per_class_and_fanout() {
    // Two equiprobable classes with SLOs 1 and 1.5 ms: 40 000 queries give
    // each class about 180 of fanout 100.
    let scenario = scenarios::two_class(
        TailbenchWorkload::Masstree,
        1.0,
        ArrivalProcess::poisson(1.0),
    );
    check_guarantee(
        Policy::TfEdf,
        0.4,
        scenario,
        FanoutDist::paper_mix(),
        40_000,
        100,
    );
}
