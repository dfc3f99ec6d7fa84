//! Validation of the cluster simulator against closed-form queueing
//! theory — independent ground truth no amount of self-consistent bugs can
//! satisfy.

use tailguard_repro::dist::{
    order_stats, Cdf, Deterministic, Distribution, Exponential, LogHistogram,
};
use tailguard_repro::policy::Policy;
use tailguard_repro::simcore::{SimDuration, SimRng};
use tailguard_repro::tailguard::{
    run_simulation, ClassSpec, ClusterSpec, QuerySpec, RequestInput, SimConfig, SimInput,
};
use tailguard_repro::workload::{ArrivalProcess, FanoutDist, QueryMix, TailbenchWorkload, Trace};

fn ms(v: f64) -> SimDuration {
    SimDuration::from_millis_f64(v)
}

/// Builds a single-server fanout-1 FIFO run at utilization `rho` and
/// returns the mean sojourn time in ms.
fn mean_sojourn(service: impl tailguard_repro::dist::Distribution + 'static, rho: f64) -> f64 {
    let service_mean = service.mean();
    let rate = rho / service_mean; // queries per ms
    let trace = Trace::generate(
        "theory",
        &ArrivalProcess::poisson(rate),
        &QueryMix::single(FanoutDist::fixed(1)),
        400_000,
        42,
    );
    let cfg = SimConfig::new(
        ClusterSpec::homogeneous(1, service),
        vec![ClassSpec::p99(ms(1e6))],
        Policy::Fifo,
    )
    .with_warmup(20_000);
    let report = run_simulation(&cfg, &SimInput::from_trace(&trace));
    report
        .query_latency_by_class
        .get(&0)
        .expect("recorded")
        .mean()
        .as_millis_f64()
}

#[test]
fn mm1_mean_sojourn_matches_theory() {
    // M/M/1: E[T] = S / (1 - rho).
    let service_ms = 0.5;
    for rho in [0.3, 0.6, 0.8] {
        let measured = mean_sojourn(Exponential::with_mean(service_ms), rho);
        let theory = service_ms / (1.0 - rho);
        let rel = (measured - theory).abs() / theory;
        assert!(
            rel < 0.05,
            "M/M/1 rho={rho}: measured {measured:.4}, theory {theory:.4}"
        );
    }
}

#[test]
fn md1_mean_wait_matches_pollaczek_khinchine() {
    // M/D/1: E[W] = rho S / (2 (1 - rho)); E[T] = E[W] + S.
    let service_ms = 0.5;
    for rho in [0.3, 0.6, 0.8] {
        let measured = mean_sojourn(Deterministic::new(service_ms), rho);
        let theory = service_ms + rho * service_ms / (2.0 * (1.0 - rho));
        let rel = (measured - theory).abs() / theory;
        assert!(
            rel < 0.05,
            "M/D/1 rho={rho}: measured {measured:.4}, theory {theory:.4}"
        );
    }
}

#[test]
fn mm1_p99_matches_exponential_sojourn_tail() {
    // M/M/1 sojourn time is Exp(mean S/(1-rho)); its p99 is mean·ln(100).
    let service_ms = 0.5;
    let rho = 0.6;
    let trace = Trace::generate(
        "theory-p99",
        &ArrivalProcess::poisson(rho / service_ms),
        &QueryMix::single(FanoutDist::fixed(1)),
        400_000,
        43,
    );
    let cfg = SimConfig::new(
        ClusterSpec::homogeneous(1, Exponential::with_mean(service_ms)),
        vec![ClassSpec::p99(ms(1e6))],
        Policy::Fifo,
    )
    .with_warmup(20_000);
    let mut report = run_simulation(&cfg, &SimInput::from_trace(&trace));
    let measured = report.class_tail(0, 0.99).as_millis_f64();
    let theory = service_ms / (1.0 - rho) * 100f64.ln();
    let rel = (measured - theory).abs() / theory;
    assert!(
        rel < 0.08,
        "M/M/1 p99: measured {measured:.3}, theory {theory:.3}"
    );
}

#[test]
fn fork_join_unloaded_latency_matches_order_statistics() {
    // With no contention, a fanout-k query's latency is the max of k
    // service draws; its mean for Exp(S) is S·H_k (harmonic number).
    let service_ms = 1.0;
    let k = 8u32;
    let input = SimInput {
        requests: (0..200_000u64)
            .map(|i| RequestInput {
                // Widely spaced arrivals: effectively an unloaded cluster.
                arrival: tailguard_repro::simcore::SimTime::from_millis(i * 100),
                queries: QuerySpec::new(0, k).into(),
            })
            .collect(),
    };
    let cfg = SimConfig::new(
        ClusterSpec::homogeneous(8, Exponential::with_mean(service_ms)),
        vec![ClassSpec::p99(ms(1e6))],
        Policy::Fifo,
    )
    .with_warmup(0);
    let report = run_simulation(&cfg, &input);
    let measured = report
        .query_latency_by_class
        .get(&0)
        .expect("recorded")
        .mean()
        .as_millis_f64();
    let harmonic: f64 = (1..=k).map(|i| 1.0 / f64::from(i)).sum();
    let rel = (measured - harmonic * service_ms).abs() / (harmonic * service_ms);
    assert!(
        rel < 0.02,
        "fork-join mean: measured {measured:.4}, theory {:.4}",
        harmonic * service_ms
    );
}

#[test]
fn grouped_quantile_inverts_the_exact_product() {
    // Eq. 2 for i.i.d. Exp(mean) tasks has a closed form: the slowest of k
    // has CDF (1 − e^{−t/mean})^k, so x_p = −mean·ln(1 − p^{1/k}).
    let p = 0.99;
    let mean = 1.0;
    let exp = Exponential::with_mean(mean);
    for k in [10u32, 100] {
        let x = order_stats::grouped_quantile(&[(&exp, k)], p);
        let exact = -mean * (1.0 - p.powf(1.0 / f64::from(k))).ln();
        assert!(
            (x - exact).abs() <= 1e-9 * exact,
            "Exp, k = {k}: {x} vs {exact}"
        );
    }
    // The Masstree model's own inverse gives F^{-1}(p^{1/k}).
    let masstree = TailbenchWorkload::Masstree.service_dist();
    for k in [10u32, 100] {
        let x = order_stats::grouped_quantile(&[(&masstree, k)], p);
        let closed = order_stats::homogeneous_quantile(&masstree, p, k);
        assert!(
            (x - closed).abs() <= 1e-8 * closed,
            "Masstree, k = {k}: {x} vs {closed}"
        );
    }
    // Mixed groups, and a learned step CDF: `x` is the smallest root of
    // Eq. 1's product written out, Π_g F_g(x)^{c_g} ≥ p.
    let fast = Exponential::with_mean(0.5);
    let slow = Exponential::with_mean(2.0);
    let mut hist = LogHistogram::new();
    let mut rng = SimRng::seed(7);
    for _ in 0..10_000 {
        hist.record(slow.sample(&mut rng));
    }
    let snapshot = hist.snapshot();
    let mixed: [(&dyn Cdf, u32); 2] = [(&fast, 3), (&slow, 2)];
    let learned: [(&dyn Cdf, u32); 2] = [(&fast, 3), (&snapshot, 2)];
    for (case, groups) in [
        ("3 fast + 2 slow", mixed),
        ("3 fast + 2 on a snapshot", learned),
    ] {
        let product = |t: f64| -> f64 {
            groups
                .iter()
                .map(|&(c, n)| c.cdf(t).powi(n as i32))
                .product()
        };
        let x = order_stats::grouped_quantile(&groups, p);
        assert!(product(x) >= p, "{case}: Π F(x) = {} < {p}", product(x));
        let below = x * (1.0 - 1e-8);
        assert!(
            product(below) < p,
            "{case}: Π F at x·(1 − 1e-8) = {} is not below {p}",
            product(below)
        );
    }
}
