//! Non-stationary workload drift: load curves and mix shifts.
//!
//! Everything benchmarked before this module is stationary — a fixed
//! arrival rate and a fixed query mix for the whole run. Real user-facing
//! load is not: it swells and ebbs diurnally, spikes under flash crowds,
//! and its *composition* drifts (e.g. a product launch shifting traffic
//! from Masstree-like point lookups to Xapian-like search queries). A
//! [`DriftPlan`] describes such non-stationarity as pure data the trace
//! generator consults:
//!
//! * [`DriftKind::Diurnal`] — a sinusoidal arrival-rate curve,
//! * [`DriftKind::FlashCrowd`] — a rate spike over a window,
//! * [`DriftKind::MixShift`] — the query mix interpolating toward a target
//!   mix over a window (each arrival samples from the target with
//!   probability equal to the shift's progress).
//!
//! Rate factors compose multiplicatively, mirroring
//! `FaultPlan::slowdown_factor`; mix shifts apply in plan order. The plan
//! is consumed only when explicitly attached to a scenario, so RNG streams
//! of drift-free runs stay bit-identical.

use crate::trace::QueryMix;
use serde::{Deserialize, Serialize};
use tailguard_simcore::{SimDuration, SimRng, SimTime};

/// One drift component (see the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DriftKind {
    /// Sinusoidal arrival-rate modulation:
    /// `rate × (1 + amplitude · sin(2πt / period))`.
    Diurnal {
        /// Cycle length of the curve.
        period: SimDuration,
        /// Peak deviation from the mean rate, in `[0, 1)` so the rate
        /// stays positive.
        amplitude: f64,
    },
    /// Arrival-rate spike: `rate × factor` inside `[start, end)`.
    FlashCrowd {
        /// Spike onset.
        start: SimTime,
        /// Spike end (exclusive).
        end: SimTime,
        /// Rate multiplier during the spike (finite, > 0).
        factor: f64,
    },
    /// The query mix interpolates from the scenario's base mix toward
    /// `to`: an arrival at progress `φ = (t − start) / (end − start)`
    /// (clamped to `[0, 1]`) samples from `to` with probability `φ`.
    MixShift {
        /// Shift onset.
        start: SimTime,
        /// Instant the shift completes; from here on every arrival
        /// samples from `to`.
        end: SimTime,
        /// The target mix.
        to: QueryMix,
    },
}

/// A set of drift components consulted by the trace generator.
///
/// # Example
///
/// ```
/// use tailguard_simcore::{SimDuration, SimTime};
/// use tailguard_workload::{DriftKind, DriftPlan};
///
/// let plan = DriftPlan::new(vec![DriftKind::FlashCrowd {
///     start: SimTime::from_millis(100),
///     end: SimTime::from_millis(200),
///     factor: 3.0,
/// }]);
/// assert_eq!(plan.rate_factor(SimTime::from_millis(50)), 1.0);
/// assert_eq!(plan.rate_factor(SimTime::from_millis(150)), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftPlan {
    components: Vec<DriftKind>,
}

impl DriftPlan {
    /// Builds a plan from components, validating each.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite flash-crowd factor, a
    /// diurnal amplitude outside `[0, 1)`, a zero diurnal period, an
    /// empty mix-shift target, or an inverted window (`end <= start`).
    pub fn new(components: Vec<DriftKind>) -> Self {
        for c in &components {
            match c {
                DriftKind::Diurnal { period, amplitude } => {
                    assert!(!period.is_zero(), "diurnal period must be non-zero");
                    assert!(
                        amplitude.is_finite() && (0.0..1.0).contains(amplitude),
                        "diurnal amplitude must lie in [0, 1), got {amplitude}"
                    );
                }
                DriftKind::FlashCrowd { start, end, factor } => {
                    assert!(end > start, "flash crowd window must not be inverted");
                    assert!(
                        factor.is_finite() && *factor > 0.0,
                        "flash crowd factor must be finite and positive, got {factor}"
                    );
                }
                DriftKind::MixShift { start, end, to } => {
                    assert!(end > start, "mix shift window must not be inverted");
                    assert!(
                        !to.classes().is_empty(),
                        "mix shift target must be non-empty"
                    );
                }
            }
        }
        DriftPlan { components }
    }

    /// The plan's components, in application order.
    pub fn components(&self) -> &[DriftKind] {
        &self.components
    }

    /// The arrival-rate multiplier at `now` — the product of every
    /// diurnal and flash-crowd component (1.0 for an empty plan).
    /// `now` is virtual time (nanosecond domain).
    pub fn rate_factor(&self, now: SimTime) -> f64 {
        self.components.iter().fold(1.0, |acc, c| match c {
            DriftKind::Diurnal { period, amplitude } => {
                let phase = now.as_nanos() as f64 / period.as_nanos() as f64;
                acc * (1.0 + amplitude * (std::f64::consts::TAU * phase).sin())
            }
            DriftKind::FlashCrowd { start, end, factor } => {
                if now >= *start && now < *end {
                    acc * factor
                } else {
                    acc
                }
            }
            DriftKind::MixShift { .. } => acc,
        })
    }

    /// Samples a `(class, fanout)` pair for an arrival at `now`: the last
    /// mix-shift component whose window has started decides between its
    /// target mix (with probability equal to its progress) and `base`;
    /// without one, this is exactly `base.sample(rng)`.
    /// `now` is virtual time (nanosecond domain).
    pub fn sample_mix(&self, base: &QueryMix, now: SimTime, rng: &mut SimRng) -> (u8, u32) {
        for c in self.components.iter().rev() {
            if let DriftKind::MixShift { start, end, to } = c {
                if now < *start {
                    continue;
                }
                let span = end.saturating_since(*start).as_nanos() as f64;
                let phase = (now.saturating_since(*start).as_nanos() as f64 / span).clamp(0.0, 1.0);
                return if rng.f64() < phase {
                    to.sample(rng)
                } else {
                    base.sample(rng)
                };
            }
        }
        base.sample(rng)
    }

    /// Whether the plan modulates the arrival rate at all (false for
    /// pure mix shifts), letting drivers skip per-arrival rate lookups.
    pub fn modulates_rate(&self) -> bool {
        self.components
            .iter()
            .any(|c| !matches!(c, DriftKind::MixShift { .. }))
    }

    /// Whether the plan shifts the query mix, so that an arrival's class
    /// and fanout depend on when it arrives.
    pub fn shifts_mix(&self) -> bool {
        self.components
            .iter()
            .any(|c| matches!(c, DriftKind::MixShift { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::FanoutDist;
    use crate::trace::ClassShare;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn single_class_mix(class: u8) -> QueryMix {
        QueryMix::new(vec![ClassShare {
            class,
            probability: 1.0,
            fanout: FanoutDist::fixed(1),
        }])
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = DriftPlan::new(Vec::new());
        assert_eq!(plan.rate_factor(ms(123)), 1.0);
        assert!(!plan.modulates_rate());
        let base = single_class_mix(0);
        let mut rng = SimRng::seed(1);
        assert_eq!(plan.sample_mix(&base, ms(5), &mut rng), (0, 1));
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let plan = DriftPlan::new(vec![DriftKind::Diurnal {
            period: SimDuration::from_millis(1000),
            amplitude: 0.5,
        }]);
        // Quarter period = peak, three quarters = trough.
        assert!((plan.rate_factor(ms(250)) - 1.5).abs() < 1e-9);
        assert!((plan.rate_factor(ms(750)) - 0.5).abs() < 1e-9);
        assert!((plan.rate_factor(ms(0)) - 1.0).abs() < 1e-9);
        assert!(plan.modulates_rate());
    }

    #[test]
    fn flash_crowd_is_a_window() {
        let plan = DriftPlan::new(vec![DriftKind::FlashCrowd {
            start: ms(100),
            end: ms(200),
            factor: 4.0,
        }]);
        assert_eq!(plan.rate_factor(ms(99)), 1.0);
        assert_eq!(plan.rate_factor(ms(100)), 4.0);
        assert_eq!(plan.rate_factor(ms(199)), 4.0);
        assert_eq!(plan.rate_factor(ms(200)), 1.0, "end is exclusive");
    }

    #[test]
    fn overlapping_rate_components_compose_multiplicatively() {
        let plan = DriftPlan::new(vec![
            DriftKind::FlashCrowd {
                start: ms(0),
                end: ms(100),
                factor: 2.0,
            },
            DriftKind::FlashCrowd {
                start: ms(50),
                end: ms(150),
                factor: 3.0,
            },
        ]);
        assert_eq!(plan.rate_factor(ms(75)), 6.0);
    }

    #[test]
    fn mix_shift_interpolates_between_mixes() {
        let plan = DriftPlan::new(vec![DriftKind::MixShift {
            start: ms(0),
            end: ms(1000),
            to: single_class_mix(1),
        }]);
        let base = single_class_mix(0);
        let frac_target = |t: SimTime, seed: u64| {
            let mut rng = SimRng::seed(seed);
            let n = 20_000;
            let hits = (0..n)
                .filter(|_| plan.sample_mix(&base, t, &mut rng).0 == 1)
                .count();
            hits as f64 / n as f64
        };
        assert_eq!(frac_target(ms(0), 1), 0.0, "shift not begun");
        let mid = frac_target(ms(500), 2);
        assert!((mid - 0.5).abs() < 0.02, "midpoint ~50/50, got {mid}");
        assert_eq!(frac_target(ms(2000), 3), 1.0, "shift complete");
    }

    #[test]
    fn mix_shift_does_not_touch_rate() {
        let plan = DriftPlan::new(vec![DriftKind::MixShift {
            start: ms(0),
            end: ms(10),
            to: single_class_mix(1),
        }]);
        assert_eq!(plan.rate_factor(ms(5)), 1.0);
        assert!(!plan.modulates_rate());
        assert!(plan.shifts_mix());
        let diurnal = DriftPlan::new(vec![DriftKind::Diurnal {
            period: SimDuration::from_millis(500),
            amplitude: 0.3,
        }]);
        assert!(!diurnal.shifts_mix());
    }

    #[test]
    fn serde_round_trip() {
        let plan = DriftPlan::new(vec![
            DriftKind::Diurnal {
                period: SimDuration::from_millis(500),
                amplitude: 0.3,
            },
            DriftKind::MixShift {
                start: ms(10),
                end: ms(20),
                to: single_class_mix(2),
            },
        ]);
        let json = serde_json::to_string(&plan).unwrap();
        let back: DriftPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn full_amplitude_panics() {
        let _ = DriftPlan::new(vec![DriftKind::Diurnal {
            period: SimDuration::from_millis(10),
            amplitude: 1.0,
        }]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_flash_crowd_panics() {
        let _ = DriftPlan::new(vec![DriftKind::FlashCrowd {
            start: ms(10),
            end: ms(10),
            factor: 2.0,
        }]);
    }
}
