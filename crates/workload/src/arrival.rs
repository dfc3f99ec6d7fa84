//! Query arrival processes.

use serde::{Deserialize, Serialize};
use tailguard_dist::{Distribution, Exponential, Pareto};
use tailguard_simcore::{SimDuration, SimRng};

/// A renewal process generating query inter-arrival gaps.
///
/// The paper uses a Poisson arrival process by default ("widely recognized
/// as a good model for cloud applications") and a Pareto process as a
/// burstier alternative in the two-class sensitivity study (Fig. 5b). The
/// Pareto variant is constructed with the *same mean rate*, so policies face
/// the same offered load with heavier burst clumping.
///
/// # Example
///
/// ```
/// use tailguard_workload::ArrivalProcess;
/// use tailguard_simcore::SimRng;
///
/// let a = ArrivalProcess::poisson(2.0); // 2 queries per ms
/// assert!((a.rate_per_ms() - 2.0).abs() < 1e-12);
/// let mut rng = SimRng::seed(1);
/// let gap = a.next_gap(&mut rng);
/// assert!(gap.as_nanos() > 0 || gap.as_nanos() == 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival gaps with the given mean
    /// rate (queries per ms).
    Poisson {
        /// Mean arrival rate λ in queries per millisecond.
        rate_per_ms: f64,
    },
    /// Pareto-renewal arrivals: Pareto(shape) inter-arrival gaps scaled to
    /// the given mean rate — burstier than Poisson for `shape` close to 1.
    Pareto {
        /// Mean arrival rate λ in queries per millisecond.
        rate_per_ms: f64,
        /// Pareto shape α (> 1 so the mean gap exists). The paper-style
        /// bursty setting uses α = 1.5.
        shape: f64,
    },
}

impl ArrivalProcess {
    /// The default Pareto shape used by the burstiness study.
    pub const DEFAULT_PARETO_SHAPE: f64 = 1.5;

    /// Poisson arrivals at `rate_per_ms` queries per millisecond.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is finite and positive.
    /// `rate_per_ms` is in milliseconds of virtual time.
    pub fn poisson(rate_per_ms: f64) -> Self {
        assert!(
            rate_per_ms.is_finite() && rate_per_ms > 0.0,
            "rate must be positive"
        );
        ArrivalProcess::Poisson { rate_per_ms }
    }

    /// Pareto-renewal arrivals at `rate_per_ms` with shape
    /// [`Self::DEFAULT_PARETO_SHAPE`].
    ///
    /// # Panics
    ///
    /// Panics unless the rate is finite and positive.
    /// `rate_per_ms` is in milliseconds of virtual time.
    pub fn pareto(rate_per_ms: f64) -> Self {
        Self::pareto_with_shape(rate_per_ms, Self::DEFAULT_PARETO_SHAPE)
    }

    /// Pareto-renewal arrivals with an explicit shape.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and `shape > 1`.
    pub fn pareto_with_shape(rate_per_ms: f64, shape: f64) -> Self {
        assert!(
            rate_per_ms.is_finite() && rate_per_ms > 0.0,
            "rate must be positive"
        );
        assert!(shape > 1.0, "shape must exceed 1 for a finite mean gap");
        ArrivalProcess::Pareto { rate_per_ms, shape }
    }

    /// The mean arrival rate in queries per millisecond.
    pub fn rate_per_ms(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_ms } => *rate_per_ms,
            ArrivalProcess::Pareto { rate_per_ms, .. } => *rate_per_ms,
        }
    }

    /// A copy of this process re-scaled to a different mean rate — the
    /// "tuning knob to adjust the system load" (§IV.A).
    ///
    /// # Panics
    ///
    /// Panics unless the new rate is finite and positive.
    /// `rate_per_ms` is in milliseconds of virtual time.
    pub fn with_rate(&self, rate_per_ms: f64) -> Self {
        match self {
            ArrivalProcess::Poisson { .. } => ArrivalProcess::poisson(rate_per_ms),
            ArrivalProcess::Pareto { shape, .. } => {
                ArrivalProcess::pareto_with_shape(rate_per_ms, *shape)
            }
        }
    }

    /// Draws the gap until the next query arrival: a
    /// [`unit_draw`](Self::unit_draw) scaled by [`gap_scale`](Self::gap_scale).
    pub fn next_gap(&self, rng: &mut SimRng) -> SimDuration {
        self.gap_scale().gap(self.unit_draw(rng))
    }

    /// Draws one gap of the process before its rate applies: `ln u` for
    /// Poisson, `u^(−1/α)` for Pareto, `u` uniform on `(0, 1)`. The draw
    /// does not depend on the rate, so one draw serves every rate.
    pub fn unit_draw(&self, rng: &mut SimRng) -> f64 {
        match self {
            ArrivalProcess::Poisson { .. } => rng.open01().ln(),
            ArrivalProcess::Pareto { shape, .. } => rng.open01().powf(-1.0 / shape),
        }
    }

    /// What turns a [`unit_draw`](Self::unit_draw) into a gap at this
    /// process's rate: `−1/λ` for Poisson, the scale `x_m` of the Pareto
    /// with mean `1/λ` for Pareto. Each product is the one the
    /// distribution's own `sample` computes.
    pub fn gap_scale(&self) -> GapScale {
        GapScale(match self {
            ArrivalProcess::Poisson { rate_per_ms } => {
                -Exponential::with_mean(1.0 / rate_per_ms).mean()
            }
            ArrivalProcess::Pareto { rate_per_ms, shape } => {
                Pareto::with_mean(1.0 / rate_per_ms, *shape).scale()
            }
        })
    }

    /// A short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "Poisson",
            ArrivalProcess::Pareto { .. } => "Pareto",
        }
    }
}

/// Turns unit draws into gaps at one rate (see
/// [`ArrivalProcess::gap_scale`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapScale(f64);

impl GapScale {
    /// The gap `unit`, a [`ArrivalProcess::unit_draw`], makes at this
    /// scale's rate.
    pub fn gap(self, unit: f64) -> SimDuration {
        SimDuration::from_millis_f64(self.0 * unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap_ms(a: &ArrivalProcess, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed(seed);
        (0..n)
            .map(|_| a.next_gap(&mut rng).as_millis_f64())
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let a = ArrivalProcess::poisson(4.0);
        let m = mean_gap_ms(&a, 200_000, 1);
        assert!((m - 0.25).abs() < 0.005, "mean gap {m}");
    }

    #[test]
    fn pareto_mean_gap_matches_rate() {
        let a = ArrivalProcess::pareto(2.0);
        let m = mean_gap_ms(&a, 3_000_000, 2);
        assert!((m - 0.5).abs() < 0.08, "mean gap {m}");
    }

    #[test]
    fn pareto_is_burstier_than_poisson() {
        // Compare squared coefficient of variation of the gaps.
        let scv = |a: &ArrivalProcess, seed| {
            let mut rng = SimRng::seed(seed);
            let n = 500_000;
            let gaps: Vec<f64> = (0..n)
                .map(|_| a.next_gap(&mut rng).as_millis_f64())
                .collect();
            let m = gaps.iter().sum::<f64>() / n as f64;
            let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / n as f64;
            var / (m * m)
        };
        let poisson = scv(&ArrivalProcess::poisson(1.0), 3);
        let pareto = scv(&ArrivalProcess::pareto(1.0), 4);
        assert!((poisson - 1.0).abs() < 0.1, "poisson scv {poisson}");
        assert!(pareto > 2.0, "pareto scv {pareto}");
    }

    #[test]
    fn with_rate_rescales_preserving_family() {
        let a = ArrivalProcess::pareto(1.0).with_rate(5.0);
        assert_eq!(a.rate_per_ms(), 5.0);
        assert_eq!(a.label(), "Pareto");
        let b = ArrivalProcess::poisson(1.0).with_rate(2.0);
        assert_eq!(b.label(), "Poisson");
        assert_eq!(b.rate_per_ms(), 2.0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        let _ = ArrivalProcess::poisson(0.0);
    }

    #[test]
    #[should_panic(expected = "shape must exceed 1")]
    fn rejects_infinite_mean_pareto() {
        let _ = ArrivalProcess::pareto_with_shape(1.0, 0.9);
    }

    #[test]
    fn next_gap_is_the_distribution_sample_scaled_from_a_unit_draw() {
        for rate in [0.05, 1.0, 3.7, 250.0] {
            for (a, seed) in [
                (ArrivalProcess::poisson(rate), 7),
                (ArrivalProcess::pareto(rate), 8),
                (ArrivalProcess::pareto_with_shape(rate, 2.5), 9),
            ] {
                let (mut unit, mut direct, mut split) =
                    (SimRng::seed(seed), SimRng::seed(seed), SimRng::seed(seed));
                let scale = a.gap_scale();
                for _ in 0..1_000 {
                    let ms = match a {
                        ArrivalProcess::Poisson { rate_per_ms } => {
                            Exponential::with_mean(1.0 / rate_per_ms).sample(&mut direct)
                        }
                        ArrivalProcess::Pareto { rate_per_ms, shape } => {
                            Pareto::with_mean(1.0 / rate_per_ms, shape).sample(&mut direct)
                        }
                    };
                    let want = SimDuration::from_millis_f64(ms);
                    assert_eq!(a.next_gap(&mut unit), want, "{a:?}");
                    assert_eq!(scale.gap(a.unit_draw(&mut split)), want, "{a:?}");
                }
            }
        }
    }

    #[test]
    fn gaps_are_positive() {
        let a = ArrivalProcess::pareto(10.0);
        let mut rng = SimRng::seed(5);
        for _ in 0..10_000 {
            assert!(a.next_gap(&mut rng).as_nanos() > 0);
        }
    }
}
