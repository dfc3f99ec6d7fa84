//! Sanctioned numeric conversions for the deadline/lease/trace paths.
//!
//! The deterministic crates' clippy lint set (`cargo det-lint`) forbids
//! bare `as` casts that can silently truncate in library code: a
//! narrowed nanosecond count or a float-truncated deadline corrupts the
//! Eq. 6 budget math without any visible failure. Every conversion that
//! *can* lose range goes through one of these helpers instead, so the
//! clamping policy is written down once, is greppable, and is tested at
//! the extremes (`u64::MAX`-adjacent timestamps, negative and non-finite
//! floats).
//!
//! Conventions:
//!
//! - **Saturating, not wrapping.** A clamped duration keeps orderings and
//!   deadlines sane; a wrapped one inverts them. Wrapping is never the
//!   right failure mode for time.
//! - **NaN maps to zero.** All float→time conversions treat NaN like a
//!   negative input: the earliest representable value, never a panic.
//! - **64-bit `usize` assumption.** The workspace targets 64-bit
//!   platforms (the testbed is aarch64, CI is x86-64); `usize`⇄`u64`
//!   conversions are lossless there and saturate defensively elsewhere.

/// Rounds a float to `u64`, saturating at both ends.
///
/// NaN and negatives map to `0`; values at or above `u64::MAX` map to
/// `u64::MAX`. This is the only sanctioned float→integer truncation in
/// deterministic code: a bare `as u64` on a large virtual time silently
/// wraps the deadline to garbage.
#[inline]
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    reason = "guarded: 0 < v < 2^64, rounding cannot overflow"
)]
#[expect(
    clippy::cast_sign_loss,
    reason = "guarded: 0 < v < 2^64, rounding cannot overflow"
)]
pub fn sat_f64_to_u64(v: f64) -> u64 {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v.round() as u64
    }
}

/// Scales a nanosecond count by a non-negative factor, saturating.
///
/// This is the Pi→wall lease/TTL compression used by the testbed: virtual
/// nanoseconds multiplied by a wall-time scale. The multiply happens in
/// f64 (mantissa-rounded above 2^53 ns, saturated at `u64::MAX`), so a
/// near-`u64::MAX` virtual time scales to a clamped — never wrapped —
/// wall time. Negative and NaN factors clamp to `0`.
#[inline]
#[must_use]
pub fn scale_ns(ns: u64, factor: f64) -> u64 {
    sat_f64_to_u64(ns as f64 * factor)
}

/// Truncates a float to `u64` with Rust's saturating `as` semantics.
///
/// Truncation toward zero (`1.9 → 1`), negatives and NaN to `0`, values
/// at or above 2^64 to `u64::MAX`. This is the conversion the golden
/// pins were produced with; use [`sat_f64_to_u64`] instead when
/// round-to-nearest is wanted. Having the policy behind a named helper
/// keeps bare `as` out of deterministic code without changing a single
/// pinned bit.
#[inline]
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    reason = "this helper *is* the documented truncation policy"
)]
#[expect(
    clippy::cast_sign_loss,
    reason = "this helper *is* the documented truncation policy"
)]
pub fn trunc_f64_to_u64(v: f64) -> u64 {
    v as u64
}

/// Truncates a float to `usize` with Rust's saturating `as` semantics
/// (truncate toward zero, NaN and negatives to `0`).
///
/// Used where a float rank or fraction selects a collection slot.
#[inline]
#[must_use]
#[expect(
    clippy::cast_possible_truncation,
    reason = "this helper *is* the documented truncation policy"
)]
#[expect(
    clippy::cast_sign_loss,
    reason = "this helper *is* the documented truncation policy"
)]
pub fn trunc_f64_to_usize(v: f64) -> usize {
    v as usize
}

/// Narrows `u128` to `u64`, saturating at `u64::MAX`.
///
/// Used where `std::time::Duration::as_nanos()` (a `u128`) meets the
/// workspace's `u64` nanosecond domain: ≈ 584 years of wall time fit, and
/// anything longer clamps instead of wrapping.
#[inline]
#[must_use]
pub fn sat_u128_to_u64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Narrows `usize` to `u32`, saturating at `u32::MAX`.
///
/// Server ids and fanout counts are `u32` on the wire; collection sizes
/// are `usize`. Clusters beyond 4 billion servers clamp.
#[inline]
#[must_use]
pub fn sat_usize_to_u32(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Signed difference `a - b` of two nanosecond instants, saturating at
/// the `i64` range.
///
/// This is the dequeue-slack computation: positive when `a` (the
/// deadline) is still ahead of `b` (now), negative when the task is late.
/// Differences beyond ±2^63 ns clamp rather than wrap, so a corrupted or
/// extreme timestamp cannot flip the sign of the slack.
#[inline]
#[must_use]
pub fn signed_ns_delta(a: u64, b: u64) -> i64 {
    if a >= b {
        // tg-lint: allow(unsigned-sub) -- guarded: the branch establishes the minuend >= the subtrahend
        i64::try_from(a - b).unwrap_or(i64::MAX)
    } else {
        // tg-lint: allow(unsigned-sub) -- guarded: the branch establishes the minuend >= the subtrahend
        i64::try_from(b - a).map_or(i64::MIN, |d| -d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_f64_to_u64_near_max() {
        assert_eq!(sat_f64_to_u64(u64::MAX as f64), u64::MAX);
        assert_eq!(sat_f64_to_u64(u64::MAX as f64 * 2.0), u64::MAX);
        // The largest f64 strictly below 2^64 converts without clamping:
        // it is 2^64 − 2^11 exactly (f64 spacing below 2^64 is 2^11).
        let below = (u64::MAX as f64).next_down();
        assert_eq!(sat_f64_to_u64(below), u64::MAX - 2047);
        assert_eq!(sat_f64_to_u64(0.4), 0);
        assert_eq!(sat_f64_to_u64(0.6), 1);
    }

    #[test]
    fn scale_ns_saturates_instead_of_wrapping() {
        assert_eq!(scale_ns(1_000_000, 25.0), 25_000_000);
        assert_eq!(scale_ns(u64::MAX, 2.0), u64::MAX);
        assert_eq!(scale_ns(u64::MAX - 1, 1.0), u64::MAX);
        assert_eq!(scale_ns(u64::MAX, 0.5), u64::MAX / 2 + 1);
        assert_eq!(scale_ns(100, 0.0), 0);
        assert_eq!(scale_ns(100, -1.0), 0);
        assert_eq!(scale_ns(100, f64::NAN), 0);
    }

    #[test]
    fn trunc_matches_rust_as_semantics() {
        assert_eq!(trunc_f64_to_u64(1.9), 1);
        assert_eq!(trunc_f64_to_u64(-3.0), 0);
        assert_eq!(trunc_f64_to_u64(f64::NAN), 0);
        assert_eq!(trunc_f64_to_u64(f64::INFINITY), u64::MAX);
        assert_eq!(trunc_f64_to_usize(2.999), 2);
        assert_eq!(trunc_f64_to_usize(-1.0), 0);
    }

    #[test]
    fn integer_narrowing_saturates() {
        assert_eq!(sat_u128_to_u64(u128::from(u64::MAX) + 1), u64::MAX);
        assert_eq!(sat_u128_to_u64(42), 42);
        assert_eq!(sat_usize_to_u32(usize::MAX), u32::MAX);
    }

    #[test]
    fn signed_delta_covers_the_extremes() {
        assert_eq!(signed_ns_delta(10, 3), 7);
        assert_eq!(signed_ns_delta(3, 10), -7);
        assert_eq!(signed_ns_delta(u64::MAX, 0), i64::MAX);
        assert_eq!(signed_ns_delta(0, u64::MAX), i64::MIN);
        let mid = u64::try_from(i64::MAX).expect("i64::MAX fits u64");
        assert_eq!(signed_ns_delta(mid, 0), i64::MAX);
        assert_eq!(signed_ns_delta(mid + 1, 0), i64::MAX);
    }
}
