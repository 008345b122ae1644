//! Simulated time.
//!
//! Time is kept in integer microseconds since the start of a simulation run.
//! Microsecond resolution is fine enough to resolve single network packets
//! on the paper's 2 Mb/s WaveLAN (a 1500-byte packet lasts 6 ms) and single
//! PowerScope samples (~1.6 ms apart), while `u64` microseconds give a range
//! of ~584,000 years — no overflow concerns for multi-hour battery goals.
//!
//! Integer time also makes event ordering exact: two events scheduled for
//! the same instant are ordered by insertion sequence, never by
//! floating-point noise.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Microseconds per second, as the underlying tick count.
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// `x.round() as u64` without a call into libm.
///
/// The baseline x86-64 target has no rounding instruction, so
/// `f64::round` is an out-of-line software routine, and the event loop
/// converts seconds to ticks on its hot path. This truncates and then
/// adds one when the dropped fraction is at least one half. The
/// subtraction is exact below 2^52, and from 2^52 on every `f64` is
/// already whole, so the result equals `x.round() as u64` for every
/// `f64`: halves round away from zero, negatives and NaN give 0, and
/// values past `u64::MAX` (and +∞) saturate to it.
///
/// Below 2^63 both conversions go through `i64`, which the target
/// converts in one instruction each way; the saturating unsigned ones
/// take a dozen instructions and five. Every such `x` truncates to the
/// same integer either way, and that integer converts back to the same
/// `f64`.
///
/// # Examples
///
/// ```
/// use simcore::time::round_to_u64;
///
/// assert_eq!(round_to_u64(2.5), 3);
/// assert_eq!(round_to_u64(0.499_999_999_999_999_94), 0);
/// assert_eq!(round_to_u64(-1.5), 0);
/// assert_eq!(round_to_u64(f64::INFINITY), u64::MAX);
/// ```
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    if (0.0..TWO_POW_63).contains(&x) {
        let t = x as i64;
        // `t < 2^63`, so `t + 1` fits.
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        // Negative, NaN, or whole and at least 2^63: the cast rounds
        // (to 0, 0, or itself saturated) already.
        x as u64
    }
}

/// 2^63, the first `f64` past `i64::MAX`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `n as f64`, through `i64` when `n` fits; see [`round_to_u64`].
#[inline]
fn u64_to_f64(n: u64) -> f64 {
    match i64::try_from(n) {
        Ok(n) => n as f64,
        Err(_) => n as f64,
    }
}

/// An instant in simulated time, in microseconds since simulation start.
///
/// # Examples
///
/// ```
/// use simcore::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(5);
/// assert_eq!(t.as_secs_f64(), 5.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if the microsecond count overflows `u64` (~584,000 years).
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(TICKS_PER_SEC) {
            Some(us) => SimTime(us),
            None => panic!("SimTime::from_secs overflows u64 microseconds"),
        }
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime(round_to_u64(s * TICKS_PER_SEC as f64))
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        u64_to_f64(self.0) / TICKS_PER_SEC as f64
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`; simulation clocks never run
    /// backwards, so this indicates a scheduling bug.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "overflow guard; panicking is since()'s documented contract"
    )]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier instant is in the future"),
        )
    }

    /// Duration since `earlier`, or zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the microsecond count overflows `u64`.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000) {
            Some(us) => SimDuration(us),
            None => panic!("SimDuration::from_millis overflows u64 microseconds"),
        }
    }

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if the microsecond count overflows `u64` (~584,000 years).
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(TICKS_PER_SEC) {
            Some(us) => SimDuration(us),
            None => panic!("SimDuration::from_secs overflows u64 microseconds"),
        }
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration(round_to_u64(s * TICKS_PER_SEC as f64))
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration expressed in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        u64_to_f64(self.0) / TICKS_PER_SEC as f64
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        SimDuration(round_to_u64(u64_to_f64(self.0) * factor))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SimTime {
    /// Addition that clamps at the end of representable time instead of
    /// panicking — for horizon arithmetic on multi-month runs.
    #[inline]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "overflow guard; Add's documented panic contract"
    )]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime addition overflows u64 microseconds"),
        )
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
    #[expect(
        clippy::expect_used,
        reason = "underflow guard; Sub's documented panic contract"
    )]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl SimDuration {
    /// Addition that clamps at the maximum representable duration.
    #[inline]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "overflow guard; Add's documented panic contract"
    )]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration addition overflows u64 microseconds"),
        )
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
    #[expect(
        clippy::expect_used,
        reason = "underflow guard; Sub's documented panic contract"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
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
    #[expect(
        clippy::expect_used,
        reason = "overflow guard; Mul's documented panic contract"
    )]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration multiplication overflows u64 microseconds"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact values")]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_millis(250).as_secs_f64(), 0.25);
        assert_eq!(SimTime::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(SimDuration::from_secs_f64(0.000_001).as_micros(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!((t + d).as_secs_f64(), 14.0);
        assert_eq!((t - d).as_secs_f64(), 6.0);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(SimTime::from_secs(7)), SimDuration::from_secs(3));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_on_backwards_time() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_secs_f64(2.5));
    }

    #[test]
    fn ordering_and_extrema() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.max(y), y);
        assert_eq!(y.saturating_sub(x), x);
        assert_eq!(x.saturating_sub(y), SimDuration::ZERO);
    }

    /// Thirty-plus simulated days fit comfortably and arithmetic on them
    /// stays exact: the audit target for very long runs.
    #[test]
    fn month_long_runs_do_not_wrap() {
        let month = SimDuration::from_secs(45 * 24 * 3600);
        let t = SimTime::ZERO + month + month;
        assert_eq!(t.as_micros(), 2 * 45 * 24 * 3600 * TICKS_PER_SEC);
        assert_eq!(t.since(SimTime::ZERO + month), month);
        // A year of 1-second steps, accumulated, equals the year.
        let year = SimDuration::from_secs(365 * 24 * 3600);
        assert_eq!(SimDuration::from_secs(24 * 3600) * 365, year);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn from_secs_overflow_is_detected() {
        let _ = SimTime::from_secs(u64::MAX / 2);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn addition_overflow_is_detected() {
        let _ = SimTime::from_micros(u64::MAX) + SimDuration::from_micros(1);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn multiplication_overflow_is_detected() {
        let _ = SimDuration::from_secs(1) * u64::MAX;
    }

    #[test]
    fn saturating_add_clamps_instead_of_wrapping() {
        let top = SimTime::from_micros(u64::MAX);
        assert_eq!(top.saturating_add(SimDuration::from_secs(1)), top);
        let d = SimDuration::from_micros(u64::MAX);
        assert_eq!(d.saturating_add(d), d);
        // Far from the boundary it agrees with plain addition.
        assert_eq!(
            SimTime::from_secs(30 * 24 * 3600).saturating_add(SimDuration::from_secs(1)),
            SimTime::from_secs(30 * 24 * 3600 + 1)
        );
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis_for_test(1500).to_string(), "1.500s");
    }

    impl SimTime {
        fn from_millis_for_test(ms: u64) -> SimTime {
            SimTime::from_micros(ms * 1000)
        }
    }
}
