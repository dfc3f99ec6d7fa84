//! Golden regression pins: exact outputs of fixed-seed runs.
//!
//! These values were captured from a verified build; any unintended change
//! to RNG streams, event ordering, estimator math, or policy behaviour
//! shows up here as an exact-value mismatch. Update them only after
//! deliberately changing simulation semantics (and say so in CHANGES.md).

use tailguard_repro::policy::Policy;
use tailguard_repro::simcore::SimDuration;
use tailguard_repro::tailguard::{measure_at_load, run_simulation, scenarios, MaxLoadOptions};
use tailguard_repro::workload::{ArrivalProcess, TailbenchWorkload};

fn opts() -> MaxLoadOptions {
    MaxLoadOptions {
        queries: 10_000,
        ..MaxLoadOptions::default()
    }
}

/// (policy, class-0 p99 in ns, completed queries, pre-dequeue p99 in ns)
/// at Masstree single-class, N=100, offered load 0.40, scenario seed.
// PROVENANCE — these pins were re-baselined when the workspace moved to the
// vendored offline RNG (third_party/rand, version 0.0.0-offline-stub). Its
// xoshiro256++ stream differs from upstream `rand`'s SmallRng, so every
// fixed-seed draw — and therefore every pin — shifted. The upstream-rand
// values could not be re-confirmed here because this build environment has
// no crates.io access (the seed's `rand = "0.10"` does not resolve).
// What WAS verified, offline:
//   1. The re-baseline is isolated in its own commit ("vendor offline
//      stand-ins…"), which contains the dependency swap and these pins but
//      none of the later hot-path optimizations.
//   2. The hot-path changes (u128 event key, inlined estimator group key,
//      scratch buffers) were landed separately and reproduce these exact
//      pins bit-for-bit — i.e. they are behavior-preserving with respect to
//      the RNG stream and event ordering.
//   3. The structural invariants below (FIFO == PRIQ == T-EDFQ with one
//      class; TailGuard and SJF distinct) held before and after the swap.
// If the real `rand` ever returns, expect pins to shift again: re-baseline
// deliberately, in a dedicated commit, and say so in CHANGES.md.
const GOLDEN: [(&str, u64, u64, u64); 5] = [
    ("TailGuard", 764618, 9500, 493996),
    ("FIFO", 733903, 9500, 462686),
    ("PRIQ", 733903, 9500, 462686),
    ("T-EDFQ", 733903, 9500, 462686),
    ("SJF", 959037, 9500, 552100),
];

#[test]
fn golden_single_class_masstree() {
    let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
    for (policy, (name, p99_ns, completed, pre_p99_ns)) in
        Policy::WITH_EXTENSIONS.iter().zip(GOLDEN)
    {
        assert_eq!(policy.name(), name);
        let mut r = measure_at_load(&scenario, *policy, 0.4, &opts());
        assert_eq!(
            r.class_tail(0, 0.99).as_nanos(),
            p99_ns,
            "{name}: class-0 p99 drifted"
        );
        assert_eq!(r.completed_queries, completed, "{name}: completion count");
        assert_eq!(
            r.pre_dequeue.percentile(0.99).as_nanos(),
            pre_p99_ns,
            "{name}: pre-dequeue p99 drifted"
        );
    }
}

/// The durable-lifecycle layer is free on the golden path: arming a lease
/// TTL with no fault plan reproduces the exact golden pins — same p99,
/// completion count, pre-dequeue tail, busy time, and elapsed virtual
/// time — because every lease commits before it expires and the no-op
/// `LeaseCheck` events are excluded from activity accounting. Only the
/// event count may differ (the lease checks themselves).
#[test]
fn golden_pins_hold_with_lease_enabled() {
    let scenario = scenarios::single_class(TailbenchWorkload::Masstree, 1.0, 100);
    let queries = 10_000usize;
    let input = scenario.input(0.4, queries);
    let warmup = queries / 20;
    let base = run_simulation(&scenario.config(Policy::TfEdf).with_warmup(warmup), &input);
    let mut leased = run_simulation(
        &scenario
            .config(Policy::TfEdf)
            .with_warmup(warmup)
            .with_lease(SimDuration::from_millis(100)),
        &input,
    );
    assert_eq!(
        leased.class_tail(0, 0.99).as_nanos(),
        GOLDEN[0].1,
        "lease-enabled run drifted from the golden p99 pin"
    );
    assert_eq!(leased.completed_queries, GOLDEN[0].2);
    assert_eq!(leased.pre_dequeue.percentile(0.99).as_nanos(), GOLDEN[0].3);
    assert_eq!(leased.elapsed, base.elapsed, "lease checks moved time");
    assert_eq!(leased.busy_by_server, base.busy_by_server);
    assert_eq!(leased.robustness, base.robustness);
    let lc = &leased.lifecycle;
    assert!(lc.leases_issued > 0, "lease TTL armed but no leases issued");
    assert_eq!(lc.reclaims, 0, "no fault, so no lease should ever expire");
    assert_eq!(lc.duplicates_suppressed, 0);
    assert_eq!(lc.stale_commits_rejected, 0);
    assert_eq!(lc.completed, lc.leases_issued);
}

#[test]
fn golden_single_class_invariants() {
    // Sanity companions to the exact pins: with one class, FIFO, PRIQ and
    // T-EDFQ must be *identical* executions (same deadlines or none), and
    // SJF must differ.
    assert_eq!(GOLDEN[1].1, GOLDEN[2].1);
    assert_eq!(GOLDEN[1].1, GOLDEN[3].1);
    assert_ne!(GOLDEN[0].1, GOLDEN[1].1);
    assert_ne!(GOLDEN[4].1, GOLDEN[1].1);
}

/// (policy, class-0 p99 in ns, class-1 p99 in ns, completed queries) at
/// Masstree two-class (SLOs 1.0 / 1.5 ms, Poisson arrivals), N=100,
/// offered load 0.40, 10 000 queries. With two classes the five policies
/// dequeue differently, so these pins see what the single-class ones
/// cannot: PRIQ's class order (its class-0 tail is the lowest of the five,
/// its class-1 tail the highest) and T-EDFQ's per-class deadlines.
// PROVENANCE — read on commit bc39a82, before the five queue disciplines
// became sort keys over one heap; that change reproduces them exactly.
const GOLDEN_TWO_CLASS: [(&str, u64, u64, u64); 5] = [
    ("TailGuard", 573732, 878911, 9500),
    ("FIFO", 679069, 703904, 9500),
    ("PRIQ", 537412, 920345, 9500),
    ("T-EDFQ", 549841, 878911, 9500),
    ("SJF", 817180, 918900, 9500),
];

#[test]
fn golden_two_class_masstree() {
    let scenario = scenarios::two_class(
        TailbenchWorkload::Masstree,
        1.0,
        ArrivalProcess::poisson(1.0),
    );
    for (policy, (name, p99_hi_ns, p99_lo_ns, completed)) in
        Policy::WITH_EXTENSIONS.iter().zip(GOLDEN_TWO_CLASS)
    {
        assert_eq!(policy.name(), name);
        let mut r = measure_at_load(&scenario, *policy, 0.4, &opts());
        assert_eq!(
            r.class_tail(0, 0.99).as_nanos(),
            p99_hi_ns,
            "{name}: class-0 p99 drifted"
        );
        assert_eq!(
            r.class_tail(1, 0.99).as_nanos(),
            p99_lo_ns,
            "{name}: class-1 p99 drifted"
        );
        assert_eq!(r.completed_queries, completed, "{name}: completion count");
    }
}
