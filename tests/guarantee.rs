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

use tailguard_repro::obs::build_timelines;
use tailguard_repro::policy::Policy;
use tailguard_repro::tailguard::{
    run_simulation_observed, scenarios, DeadlineEstimator, EstimatorMode, ObsOptions,
};
use tailguard_repro::workload::{FanoutDist, QueryMix, TailbenchWorkload};

const FANOUT: u32 = 10;
const QUERIES: usize = 20_000;

/// Runs `policy` at `load` and checks both shares over its on-time
/// queries.
fn check_guarantee(policy: Policy, load: f64) {
    let mut scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
    scenario.mix = QueryMix::single(FanoutDist::fixed(FANOUT));
    let class = scenario.classes[0];
    let tail = DeadlineEstimator::new(
        &scenario.cluster,
        scenario.classes.clone(),
        EstimatorMode::Analytic,
    )
    .unloaded_query_tail(0, FANOUT, &[]);
    let opts = ObsOptions {
        // About 40 events per query; the ring must keep every one.
        ring_capacity: QUERIES * 64,
        ..ObsOptions::default()
    };
    let run = run_simulation_observed(
        &scenario.config(policy),
        &scenario.input(load, QUERIES),
        &opts,
    );
    assert_eq!(run.recorder.dropped(), 0, "{policy} @ {load}: ring dropped");

    let (mut on_time, mut missed, mut over_tail) = (0_u32, 0_u32, 0_u32);
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
        let max_busy = tl.attempts.iter().filter_map(|a| a.busy).max();
        let slow = max_busy.is_some_and(|b| b > tail);
        on_time += 1;
        missed += u32::from(latency > class.slo);
        over_tail += u32::from(slow);
        // The bound is exact per query, not only in the aggregate.
        assert!(
            latency <= class.slo || slow,
            "{policy} @ {load}: on-time query {} missed with max busy {max_busy:?} <= {tail:?}",
            tl.query
        );
    }
    assert!(
        on_time >= 1_000,
        "{policy} @ {load}: {on_time} on-time queries"
    );
    let n = f64::from(on_time);
    let q = 1.0 - class.percentile;
    let margin = 4.0 * (q * (1.0 - q) / n).sqrt();
    let (miss_share, over_share) = (f64::from(missed) / n, f64::from(over_tail) / n);
    assert!(
        miss_share <= q + margin,
        "{policy} @ {load}: {missed}/{on_time} on-time queries missed the SLO, over {q} + {margin:.4}"
    );
    assert!(
        (over_share - q).abs() <= margin,
        "{policy} @ {load}: {over_tail}/{on_time} on-time queries had max busy > x_p^u({FANOUT}) \
         = {tail:?}, not {q} ± {margin:.4}"
    );
}

#[test]
fn tfedf_below_max_load() {
    check_guarantee(Policy::TfEdf, 0.3);
}

#[test]
fn tfedf_above_max_load() {
    check_guarantee(Policy::TfEdf, 0.6);
}

#[test]
fn fifo_stamps_the_same_deadline() {
    check_guarantee(Policy::Fifo, 0.5);
}
