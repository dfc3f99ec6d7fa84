//! A service draw is `SimDuration::from_millis_f64(dist.quantile(u))`.
//! Both steps have fast forms: the quantile finds its segment through a
//! guide table, and the nanosecond conversion rounds without libm. Each
//! must give the bits of the plain form it replaced, for the three
//! Tailbench models, at every control point and slot edge and on 10⁶
//! seeded draws.

use tailguard_dist::Cdf;
use tailguard_simcore::{SimDuration, SimRng};
use tailguard_workload::TailbenchWorkload;

/// The quantile as a binary search over the control points.
fn quantile_by_partition_point(points: &[(f64, f64)], p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let i = points
        .partition_point(|&(pp, _)| pp <= p)
        .clamp(1, points.len() - 1);
    let (p0, x0) = points[i - 1];
    let (p1, x1) = points[i];
    if p1 == p0 {
        x1
    } else {
        x0 + (x1 - x0) * (p - p0) / (p1 - p0)
    }
}

/// Milliseconds to nanoseconds through `f64::round`.
fn nanos_by_round(millis: f64) -> u64 {
    if millis.is_nan() || millis <= 0.0 {
        return 0;
    }
    let nanos = millis * 1e6;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos.round() as u64
    }
}

/// Probabilities at each control point and each guide slot edge, and the
/// floats either side of each.
fn edges(points: &[(f64, f64)]) -> Vec<f64> {
    let slots = (0..=64).map(|j| f64::from(j) / 64.0);
    let centres: Vec<f64> = points.iter().map(|&(p, _)| p).chain(slots).collect();
    centres
        .iter()
        .flat_map(|&p| [p.next_down(), p, p.next_up()])
        .chain([-0.5, 1.5, f64::NAN])
        .collect()
}

#[test]
fn the_guided_quantile_has_the_partition_point_bits() {
    let mut rng = SimRng::seed(0x9D1D_E001);
    for workload in TailbenchWorkload::ALL {
        let dist = workload.service_dist();
        let points = dist.points();
        let seeded = (0..1_000_000).map(|_| rng.f64());
        for p in edges(points).into_iter().chain(seeded) {
            let (got, want) = (dist.quantile(p), quantile_by_partition_point(points, p));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{workload:?}: quantile({p:e})"
            );
        }
    }
}

#[test]
fn from_millis_f64_rounds_as_f64_round() {
    let mut rng = SimRng::seed(0x9D1D_E002);
    let mut values = Vec::new();
    for workload in TailbenchWorkload::ALL {
        let dist = workload.service_dist();
        values.extend(edges(dist.points()).into_iter().map(|p| dist.quantile(p)));
        values.extend((0..1_000_000).map(|_| dist.quantile(rng.f64())));
    }
    // Values whose nanoseconds end in exactly .5, and the floats either
    // side, from below 1 ns to where f64 has no fraction left.
    let mut halves = 0;
    for k in (0..64)
        .map(|e| 1u64 << e)
        .chain([0, 1, 3, 7, 123_456, 999_999_999])
    {
        let nanos = k as f64 + 0.5;
        for millis in [
            nanos / 1e6,
            (nanos / 1e6).next_down(),
            (nanos / 1e6).next_up(),
        ] {
            let product = millis * 1e6;
            halves += usize::from(product.fract() == 0.5);
            values.extend([millis, product.next_down() / 1e6, product.next_up() / 1e6]);
        }
    }
    assert!(halves > 20, "only {halves} values end in exactly .5 ns");
    values.extend([
        0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        1.8e13,
        1.9e13,
        0.5e-6,
        0.49e-6,
    ]);
    for millis in values {
        assert_eq!(
            SimDuration::from_millis_f64(millis).as_nanos(),
            nanos_by_round(millis),
            "from_millis_f64({millis:e})"
        );
    }
}
