//! Simulated clock types.
//!
//! All simulation time in the workspace is expressed in integer nanoseconds.
//! Using an integer representation (rather than `f64` seconds) keeps event
//! ordering exact and makes runs bit-reproducible across platforms.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An instant on the simulated clock, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and supports the natural arithmetic with
/// [`SimDuration`]. Subtracting a later time from an earlier one saturates at
/// [`SimTime::ZERO`] rather than panicking, because latency accounting on
/// reordered events must never bring a simulation down.
///
/// # Example
///
/// ```
/// use tailguard_simcore::{SimDuration, SimTime};
///
/// let t0 = SimTime::from_millis_f64(2.0);
/// let t1 = t0 + SimDuration::from_micros(500);
/// assert_eq!((t1 - t0).as_micros(), 500);
/// assert!(t1 > t0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use tailguard_simcore::SimDuration;
///
/// let d = SimDuration::from_millis_f64(1.5);
/// assert_eq!(d.as_nanos(), 1_500_000);
/// assert!((d.as_millis_f64() - 1.5).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after simulation start.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant from fractional milliseconds.
    ///
    /// Negative and non-finite inputs clamp to [`SimTime::ZERO`].
    #[inline]
    pub fn from_millis_f64(millis: f64) -> Self {
        SimTime(millis_f64_to_nanos(millis))
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncating).
    #[inline]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "a literal non-zero divisor (ns per µs)"
    )]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since simulation start as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The elapsed duration since `earlier`, saturating to zero if `earlier`
    /// is in fact later than `self`.
    /// `earlier` is virtual time (nanosecond domain).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// Negative and non-finite inputs clamp to [`SimDuration::ZERO`]; values
    /// beyond the representable range clamp to [`SimDuration::MAX`].
    #[inline]
    pub fn from_millis_f64(millis: f64) -> Self {
        SimDuration(millis_f64_to_nanos(millis))
    }

    /// Length in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in microseconds (truncating).
    #[inline]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "a literal non-zero divisor (ns per µs)"
    )]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Length in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    /// `rhs` is a virtual-time duration (nanosecond domain).
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction: `None` on underflow.
    /// `rhs` is a virtual-time duration (nanosecond domain).
    #[inline]
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }

    /// True when the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float, clamping to the representable
    /// range (useful for scaling SLOs, e.g. the paper's `1.5 × x99`).
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration(millis_f64_to_nanos(self.as_millis_f64() * factor))
    }
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "guarded: the branches above establish 0 < nanos < 2^64"
)]
#[expect(
    clippy::cast_sign_loss,
    reason = "guarded: the branches above establish 0 < nanos < 2^64"
)]
fn millis_f64_to_nanos(millis: f64) -> u64 {
    if millis.is_nan() || millis <= 0.0 {
        return 0;
    }
    let nanos = millis * 1e6;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        // `nanos.round()`, half away from zero, without the libm call: the
        // fraction `nanos − ⌊nanos⌋` is exact in f64 (an integer `nanos`
        // above 2⁵² has none).
        let t = nanos as u64;
        t + u64::from(nanos - t as f64 >= 0.5)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics when `rhs` is zero.
    #[inline]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "operator contract mirrors u64 `/` (documented); a zero divisor is a caller bug surfaced loudly"
    )]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl From<SimDuration> for SimTime {
    fn from(d: SimDuration) -> SimTime {
        SimTime(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_millis_f64(0.5).as_micros(), 500);
    }

    #[test]
    fn float_conversions_clamp() {
        assert_eq!(SimDuration::from_millis_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis_f64(f64::INFINITY),
            SimDuration::MAX
        );
        assert_eq!(SimTime::from_millis_f64(-0.1), SimTime::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(4);
        assert_eq!((t + d).as_millis_f64(), 14.0);
        assert_eq!((t - d).as_millis_f64(), 6.0);
        assert_eq!(t + d - t, d);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(1));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(2);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(3));
        assert_eq!(d * 3, SimDuration::from_millis(6));
        assert_eq!(d / 2, SimDuration::from_millis(1));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn ordering_is_total() {
        let mut times = vec![
            SimTime::from_millis(3),
            SimTime::ZERO,
            SimTime::from_micros(10),
        ];
        times.sort();
        assert_eq!(
            times,
            vec![
                SimTime::ZERO,
                SimTime::from_micros(10),
                SimTime::from_millis(3)
            ]
        );
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(SimDuration::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(SimTime::from_millis(2).to_string(), "2.000ms");
    }

    #[test]
    fn add_saturates_at_max() {
        let t = SimTime::MAX;
        assert_eq!(t + SimDuration::from_millis(1), SimTime::MAX);
        let d = SimDuration::MAX;
        assert_eq!(d + SimDuration::from_nanos(1), SimDuration::MAX);
        assert_eq!(d * 2, SimDuration::MAX);
    }
}
