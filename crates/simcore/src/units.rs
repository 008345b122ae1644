//! Physical units of the energy ledger: [`Joules`], [`Watts`] and
//! [`Hertz`].
//!
//! Each is a transparent `f64` newtype, so a joule can never be added to
//! a watt and a power can never be stored where an energy belongs. The
//! arithmetic is exactly the `f64` arithmetic it wraps — same operations,
//! same order, same bits — so ledgers, traces and snapshot digests do not
//! change when a quantity gains its type. `Display` and `Debug` forward
//! the formatter to the inner `f64`, so `{:.3}` prints what it printed.
//!
//! Only the products the simulation computes exist:
//!
//! - `Watts * SimDuration = Joules` (energy is power integrated over time)
//! - `Joules / SimDuration = Watts` (average power over a span)
//! - `Joules / Watts = f64` seconds (a lifetime; kept in `f64`, never
//!   rounded into a [`SimDuration`])
//!
//! A quantity scales by a dimensionless `f64`, and the ratio of two
//! quantities of one unit is a dimensionless `f64`.
//!
//! Mixing units does not compile:
//!
//! ```compile_fail
//! use simcore::{Joules, Watts};
//! let _ = Joules(1.0) + Watts(1.0);
//! ```
//!
//! ```compile_fail
//! use simcore::{Joules, Watts};
//! let mut energy = Joules(1.0);
//! energy = Watts(2.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::SimDuration;

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, PartialOrd)]
        #[repr(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero of this unit.
            pub const ZERO: $name = $name(0.0);

            /// The larger of two quantities (`f64::max` semantics).
            #[inline]
            #[must_use]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// The smaller of two quantities (`f64::min` semantics).
            #[inline]
            #[must_use]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Magnitude (`f64::abs` semantics).
            #[inline]
            #[must_use]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// True when the quantity is neither infinite nor NaN.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// IEEE total order, as `f64::total_cmp`.
            #[inline]
            pub fn total_cmp(&self, other: &$name) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            #[inline]
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            #[inline]
            fn sum<I: Iterator<Item = &'a $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.0, f)
            }
        }
    };
}

unit!(
    /// Energy, J.
    Joules
);
unit!(
    /// Power, W (J/s).
    Watts
);
unit!(
    /// Frequency, Hz (1/s).
    Hertz
);

impl Joules {
    /// Unlimited energy: the residual of an external supply.
    pub const INFINITY: Joules = Joules(f64::INFINITY);
}

impl Mul<SimDuration> for Watts {
    type Output = Joules;
    /// Energy drawn at this power over `dt`.
    #[inline]
    fn mul(self, dt: SimDuration) -> Joules {
        Joules(self.0 * dt.as_secs_f64())
    }
}

impl Div<SimDuration> for Joules {
    type Output = Watts;
    /// Average power that spends this energy over `dt`.
    #[inline]
    fn div(self, dt: SimDuration) -> Watts {
        Watts(self.0 / dt.as_secs_f64())
    }
}

impl Div<Watts> for Joules {
    type Output = f64;
    /// Seconds this energy lasts at `power`.
    #[inline]
    fn div(self, power: Watts) -> f64 {
        self.0 / power.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn products_match_the_f64_arithmetic_bit_for_bit() {
        let p = Watts(10.28);
        let dt = SimDuration::from_micros(1_234_567);
        assert_eq!((p * dt).0.to_bits(), (10.28 * dt.as_secs_f64()).to_bits());
        let e = Joules(12_000.0);
        assert_eq!(
            (e / dt).0.to_bits(),
            (12_000.0 / dt.as_secs_f64()).to_bits()
        );
        assert_eq!((e / p).to_bits(), (12_000.0f64 / 10.28).to_bits());
        let parts = [Joules(0.1), Joules(0.2), Joules(0.3)];
        let sum: Joules = parts.iter().sum();
        assert_eq!(
            sum.0.to_bits(),
            [0.1f64, 0.2, 0.3].iter().sum::<f64>().to_bits()
        );
    }

    #[test]
    fn formatting_forwards_to_f64() {
        let e = Joules(1234.5678);
        assert_eq!(
            format!("{e:.3} {e:>12.1} {e:?}"),
            format!("{:.3} {:>12.1} {:?}", e.0, e.0, e.0)
        );
        assert_eq!(format!("{}", Watts(2.5)), "2.5");
    }
}
