//! Property-based contracts every distribution in the crate must satisfy:
//! monotone CDFs, inverse consistency, support containment, and agreement
//! between sampling and the analytic forms.
//!
//! `proptest` here is the offline stand-in under `third_party/proptest`
//! (version `0.0.0-offline-stub`): weaker shrinking and far fewer cases
//! per run than upstream — randomized smoke coverage of the contracts, not
//! an exhaustive property search. See `third_party/README.md`.

use proptest::prelude::*;
use tailguard_dist::{
    order_stats, Cdf, Deterministic, Distribution, Exponential, LogNormal, Pareto,
    PiecewiseQuantile, Scaled, Shifted, Uniform,
};
use tailguard_simcore::SimRng;

fn check_cdf_quantile_contract(d: &dyn Distribution, label: &str) -> Result<(), TestCaseError> {
    // CDF is monotone non-decreasing over a value sweep.
    let hi = d.quantile(0.999).max(1.0);
    let mut last = 0.0;
    let mut x = hi / 1000.0;
    while x < hi {
        let c = d.cdf(x);
        prop_assert!((0.0..=1.0).contains(&c), "{label}: cdf({x}) = {c}");
        prop_assert!(c >= last - 1e-12, "{label}: cdf not monotone at {x}");
        last = c;
        x *= 1.3;
    }
    // Quantile is monotone and (approximately) a right inverse of the CDF.
    let mut lastq = 0.0;
    for i in 1..40 {
        let p = i as f64 / 40.0;
        let q = d.quantile(p);
        prop_assert!(q >= lastq - 1e-12, "{label}: quantile not monotone at {p}");
        lastq = q;
        let c = d.cdf(q);
        prop_assert!(c >= p - 1e-6, "{label}: cdf(quantile({p})) = {c} < p");
    }
    // Samples land inside [quantile(0), quantile(1)] and their mean tracks.
    let mut rng = SimRng::seed(0xD157);
    let n = 40_000;
    let mut sum = 0.0;
    for _ in 0..n {
        let s = d.sample(&mut rng);
        prop_assert!(s.is_finite() && s >= 0.0, "{label}: sample {s}");
        sum += s;
    }
    let mean = sum / n as f64;
    let analytic = d.mean();
    if analytic.is_finite() && analytic > 0.0 {
        prop_assert!(
            (mean - analytic).abs() / analytic < 0.25,
            "{label}: sample mean {mean} vs analytic {analytic}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exponential_contract(mean in 0.01f64..100.0) {
        check_cdf_quantile_contract(&Exponential::with_mean(mean), "exponential")?;
    }

    #[test]
    fn lognormal_contract(mu in -2.0f64..2.0, sigma in 0.05f64..1.2) {
        check_cdf_quantile_contract(&LogNormal::new(mu, sigma), "lognormal")?;
    }

    #[test]
    fn pareto_contract(scale in 0.01f64..10.0, shape in 1.2f64..5.0) {
        check_cdf_quantile_contract(&Pareto::new(scale, shape), "pareto")?;
    }

    #[test]
    fn uniform_contract(lo in 0.0f64..5.0, width in 0.1f64..10.0) {
        check_cdf_quantile_contract(&Uniform::new(lo, lo + width), "uniform")?;
    }

    #[test]
    fn shifted_scaled_contract(
        offset in 0.0f64..5.0,
        mean in 0.05f64..10.0,
        divisor in 0.5f64..50.0,
    ) {
        check_cdf_quantile_contract(
            &Shifted::new(offset, Exponential::with_mean(mean)),
            "shifted",
        )?;
        check_cdf_quantile_contract(
            &Scaled::new(Exponential::with_mean(mean), divisor),
            "scaled",
        )?;
    }

    #[test]
    fn piecewise_contract(
        x0 in 0.01f64..1.0,
        d1 in 0.01f64..2.0,
        d2 in 0.01f64..2.0,
        d3 in 0.01f64..2.0,
    ) {
        let d = PiecewiseQuantile::new(vec![
            (0.0, x0),
            (0.5, x0 + d1),
            (0.99, x0 + d1 + d2),
            (1.0, x0 + d1 + d2 + d3),
        ]).expect("monotone by construction");
        check_cdf_quantile_contract(&d, "piecewise")?;
    }

    /// Order statistics: for any distribution and fanout, the grouped
    /// quantile equals the homogeneous closed form, and the quantile is
    /// monotone in the fanout.
    #[test]
    fn order_stats_consistency(mean in 0.05f64..5.0, k in 1u32..200) {
        let d = Exponential::with_mean(mean);
        let hom = order_stats::homogeneous_quantile(&d, 0.99, k);
        let grouped = order_stats::grouped_quantile(&[(&d, k)], 0.99);
        prop_assert!((hom - grouped).abs() / hom < 1e-6);
        if k > 1 {
            let smaller = order_stats::homogeneous_quantile(&d, 0.99, k - 1);
            prop_assert!(hom >= smaller - 1e-12);
        }
    }

    /// A point mass behaves as the degenerate case everywhere.
    #[test]
    fn deterministic_contract(v in 0.0f64..100.0) {
        let d = Deterministic::new(v);
        prop_assert_eq!(d.quantile(0.37), v);
        prop_assert_eq!(d.mean(), v);
        prop_assert_eq!(d.cdf(v), 1.0);
        if v > 0.0 {
            prop_assert_eq!(d.cdf(v * 0.999), 0.0);
        }
        // Max of k point masses is the point mass.
        prop_assert_eq!(order_stats::homogeneous_quantile(&d, 0.99, 50), v);
    }
}
