//! Integration tests for the parallel experiment runner (PR: perf_opt).
//!
//! The runner's contract is that parallel execution is an implementation
//! detail: for any `--jobs` value the results are bit-identical to the
//! serial path. These tests exercise that end-to-end through the public
//! API, plus the hot-path regression guards (budget-cache reuse instead of
//! per-query allocation).

use tailguard::{
    max_load, max_load_many, replicate, replicate_seeds, run_indexed, scenarios, sweep_loads,
    ClassSpec, ClusterSpec, DeadlineEstimator, EstimatorMode, MaxLoadOptions,
};
use tailguard_policy::Policy;
use tailguard_simcore::SimDuration;
use tailguard_workload::TailbenchWorkload;

fn quick_opts() -> MaxLoadOptions {
    MaxLoadOptions {
        queries: 10_000,
        tolerance: 0.1,
        ..MaxLoadOptions::default()
    }
}

/// The tentpole acceptance criterion: a parallel sweep is bit-identical to
/// the serial sweep for jobs ∈ {1, 2, 8}, regardless of thread scheduling.
#[test]
fn sweep_is_bit_identical_across_jobs() {
    let scenario = scenarios::two_class(
        TailbenchWorkload::Masstree,
        1.0,
        tailguard_workload::ArrivalProcess::poisson(1.0),
    );
    let loads = [0.15, 0.3, 0.45, 0.6, 0.75];
    let opts = quick_opts();
    let serial = sweep_loads(&scenario, Policy::TfEdf, &loads, &opts, 1);
    for jobs in [2usize, 8] {
        let par = sweep_loads(&scenario, Policy::TfEdf, &loads, &opts, jobs);
        assert_eq!(par.len(), serial.len(), "jobs={jobs}");
        for (p, s) in par.iter().zip(&serial) {
            assert_eq!(p.load.to_bits(), s.load.to_bits(), "jobs={jobs}");
            assert_eq!(p.tails_by_class, s.tails_by_class, "jobs={jobs}");
            assert_eq!(p.meets, s.meets, "jobs={jobs}");
            assert_eq!(
                p.miss_ratio.to_bits(),
                s.miss_ratio.to_bits(),
                "jobs={jobs}"
            );
            assert_eq!(
                p.measured_load.to_bits(),
                s.measured_load.to_bits(),
                "jobs={jobs}"
            );
            assert_eq!(p.events_processed, s.events_processed, "jobs={jobs}");
        }
    }
}

/// Concurrent per-policy bisections return exactly what serial bisections
/// return, in the caller's policy order.
#[test]
fn max_load_many_is_bit_identical_to_serial() {
    let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
    let opts = quick_opts();
    let policies = [Policy::TfEdf, Policy::Fifo, Policy::Priq];
    let many = max_load_many(&scenario, &policies, &opts, 8);
    assert_eq!(many.len(), policies.len());
    for (i, (policy, load)) in many.iter().enumerate() {
        assert_eq!(*policy, policies[i], "result order must follow input");
        assert_eq!(
            load.to_bits(),
            max_load(&scenario, *policy, &opts).to_bits(),
            "{policy:?}"
        );
    }
}

/// Multi-seed replication: the derived seed sequence, per-seed tails, and
/// aggregate statistics are all independent of the worker count.
#[test]
fn replicate_is_jobs_invariant() {
    let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
    let opts = quick_opts();
    let a = replicate(&scenario, Policy::TfEdf, 0.35, &opts, 5, 1);
    let b = replicate(&scenario, Policy::TfEdf, 0.35, &opts, 5, 8);
    assert_eq!(a.seeds, replicate_seeds(scenario.seed, 5));
    assert_eq!(a.seeds, b.seeds);
    assert_eq!(a.per_seed_tails_ms, b.per_seed_tails_ms);
    assert_eq!(a.tails, b.tails);
    assert_eq!(a.meets_fraction, b.meets_fraction);
}

/// `run_indexed` reassembles in input order even when cells finish wildly
/// out of order (later indices sleep less than earlier ones).
#[test]
fn run_indexed_order_survives_inverted_completion_times() {
    let items: Vec<u64> = (0..24).collect();
    let out = run_indexed(&items, 8, |i, &x| {
        std::thread::sleep(std::time::Duration::from_millis(24 - i as u64));
        x * 10
    });
    assert_eq!(out, items.iter().map(|x| x * 10).collect::<Vec<_>>());
}

/// Hot-path regression guard: repeated budget queries for already-seen
/// query types must hit the cache (lookup counter grows, cache size does
/// not) — i.e. the estimator no longer clones a heap key per query.
#[test]
fn budget_cache_stays_flat_while_lookups_grow() {
    let cluster = ClusterSpec::homogeneous(100, TailbenchWorkload::Masstree.service_dist());
    let classes = vec![
        ClassSpec::p99(SimDuration::from_millis_f64(1.0)),
        ClassSpec::p99(SimDuration::from_millis_f64(1.5)),
    ];
    let mut est = DeadlineEstimator::new(&cluster, classes, EstimatorMode::Analytic);
    // Warm the cache: 2 classes × 3 fanouts = 6 distinct (class, key) cells.
    for class in 0..2u8 {
        for fanout in [1u32, 10, 100] {
            let _ = est.budget(class, fanout, &[]);
        }
    }
    let warm_cache = est.cached_budget_count();
    let warm_lookups = est.budget_lookup_count();
    assert_eq!(warm_cache, 6);
    // Steady state: thousands of queries over the same types.
    for _ in 0..5_000 {
        for class in 0..2u8 {
            for fanout in [1u32, 10, 100] {
                let _ = est.budget(class, fanout, &[]);
            }
        }
    }
    assert_eq!(
        est.cached_budget_count(),
        warm_cache,
        "steady-state queries must not grow the budget cache"
    );
    assert_eq!(est.budget_lookup_count(), warm_lookups + 5_000 * 6);
}
