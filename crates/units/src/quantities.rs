//! Scalar physical quantities stored as `f64` in SI base units.
//!
//! Every type here is a transparent newtype over `f64`. Construction is via
//! `from_*` constructors naming the unit explicitly, and extraction is via a
//! matching getter, so call sites always spell out the unit at least once.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::format::format_eng;

/// Generates a scalar quantity newtype with the shared arithmetic surface.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal, $base_ctor:ident, $base_getter:ident
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates the quantity from a value expressed in its SI base unit.
            #[inline]
            pub const fn $base_ctor(value: f64) -> Self {
                Self(value)
            }

            /// Returns the value in the SI base unit.
            #[inline]
            pub const fn $base_getter(self) -> f64 {
                self.0
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Linear interpolation between `self` (at `t = 0`) and `other` (at `t = 1`).
            #[inline]
            pub fn lerp(self, other: Self, t: f64) -> Self {
                Self(self.0 + (other.0 - self.0) * t)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl MulAssign<f64> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl DivAssign<f64> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        /// Ratio of two like quantities is dimensionless.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Add::add)
            }
        }

        impl PartialOrd for $name {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                self.0.partial_cmp(&other.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", format_eng(self.0, $unit))
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

quantity!(
    /// Electrical resistance in ohms.
    Resistance, "Ω", from_ohms, ohms
);
quantity!(
    /// Electrical capacitance in farads.
    Capacitance, "F", from_farads, farads
);
quantity!(
    /// Electrical inductance in henries.
    Inductance, "H", from_henries, henries
);
quantity!(
    /// Time in seconds.
    Time, "s", from_seconds, seconds
);
quantity!(
    /// Length in metres.
    Length, "m", from_meters, meters
);
quantity!(
    /// Electric potential in volts.
    Voltage, "V", from_volts, volts
);
quantity!(
    /// Energy in joules.
    Energy, "J", from_joules, joules
);
quantity!(
    /// Area in square metres (used for repeater/buffer area bookkeeping).
    Area, "m²", from_square_meters, square_meters
);

// ---------------------------------------------------------------------------
// Convenience constructors / getters in commonly used scaled units.
// ---------------------------------------------------------------------------

impl Resistance {
    /// Creates a resistance expressed in kilo-ohms.
    #[inline]
    pub fn from_kilohms(kohms: f64) -> Self {
        Self::from_ohms(kohms * 1e3)
    }
}

impl Capacitance {
    /// Creates a capacitance expressed in picofarads.
    #[inline]
    pub fn from_picofarads(pf: f64) -> Self {
        Self::from_farads(pf * 1e-12)
    }

    /// Creates a capacitance expressed in femtofarads.
    #[inline]
    pub fn from_femtofarads(ff: f64) -> Self {
        Self::from_farads(ff * 1e-15)
    }
}

impl Inductance {
    /// Creates an inductance expressed in nanohenries.
    #[inline]
    pub fn from_nanohenries(nh: f64) -> Self {
        Self::from_henries(nh * 1e-9)
    }
}

impl Time {
    /// Creates a time expressed in picoseconds.
    #[inline]
    pub fn from_picoseconds(ps: f64) -> Self {
        Self::from_seconds(ps * 1e-12)
    }

    /// Returns the time in picoseconds.
    #[inline]
    pub fn picoseconds(self) -> f64 {
        self.seconds() / 1e-12
    }

    /// Relative difference `|self − reference| / reference` in per cent.
    ///
    /// # Panics
    ///
    /// Panics if `reference` is zero.
    #[inline]
    pub fn percent_error_vs(self, reference: Self) -> f64 {
        assert!(reference.seconds() != 0.0, "reference time must be non-zero for a relative error");
        (self.seconds() - reference.seconds()).abs() / reference.seconds().abs() * 100.0
    }
}

impl Length {
    /// Creates a length expressed in millimetres.
    #[inline]
    pub fn from_millimeters(mm: f64) -> Self {
        Self::from_meters(mm * 1e-3)
    }

    /// Returns the length in millimetres.
    #[inline]
    pub fn millimeters(self) -> f64 {
        self.meters() / 1e-3
    }
}

impl Area {
    /// Creates an area expressed in square micrometres.
    #[inline]
    pub fn from_square_micrometers(um2: f64) -> Self {
        Self::from_square_meters(um2 * 1e-12)
    }

    /// Returns the area in square micrometres.
    #[inline]
    pub fn square_micrometers(self) -> f64 {
        self.square_meters() / 1e-12
    }
}

// ---------------------------------------------------------------------------
// Cross-dimension arithmetic used by delay analysis.
// ---------------------------------------------------------------------------

/// `R · C = τ` — the ubiquitous RC time constant.
impl Mul<Capacitance> for Resistance {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Capacitance) -> Time {
        Time::from_seconds(self.ohms() * rhs.farads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_getters_round_trip() {
        assert_eq!(Resistance::from_kilohms(1.5).ohms(), 1500.0);
        assert_eq!(Capacitance::from_picofarads(2.0).farads(), 2e-12);
        assert!((Capacitance::from_femtofarads(5.0).farads() - 5e-15).abs() < 1e-27);
        assert!((Inductance::from_nanohenries(3.0).henries() - 3e-9).abs() < 1e-20);
        assert_eq!(Time::from_picoseconds(7.0).seconds(), 7e-12);
        assert_eq!(Length::from_millimeters(10.0).meters(), 0.01);
        assert_eq!(Length::from_meters(250e-6).millimeters(), 0.25);
    }

    #[test]
    fn additive_arithmetic() {
        let a = Resistance::from_ohms(100.0);
        let b = Resistance::from_ohms(50.0);
        assert_eq!((a + b).ohms(), 150.0);
        assert_eq!((a - b).ohms(), 50.0);
        assert_eq!((-b).ohms(), -50.0);
        let mut c = a;
        c += b;
        assert_eq!(c.ohms(), 150.0);
        c -= b;
        assert_eq!(c.ohms(), 100.0);
    }

    #[test]
    fn scalar_scaling_and_ratio() {
        let c = Capacitance::from_picofarads(1.0);
        assert_eq!((c * 3.0).farads(), 3e-12);
        assert_eq!((3.0 * c).farads(), 3e-12);
        assert_eq!((c / 2.0).farads(), 0.5e-12);
        assert_eq!(c / Capacitance::from_picofarads(0.5), 2.0);
    }

    #[test]
    fn rc_product() {
        let r = Resistance::from_ohms(1000.0);
        let c = Capacitance::from_picofarads(1.0);
        assert!(((r * c).seconds() - 1e-9).abs() < 1e-21);
    }

    #[test]
    fn comparisons_min_lerp() {
        let a = Time::from_picoseconds(1.0);
        let b = Time::from_picoseconds(2.0);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.lerp(b, 0.5).picoseconds(), 1.5);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Time = (1..=4).map(|i| Time::from_picoseconds(i as f64)).sum();
        assert!((total.picoseconds() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percent_error() {
        let model = Time::from_picoseconds(105.0);
        let sim = Time::from_picoseconds(100.0);
        assert!((model.percent_error_vs(sim) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn percent_error_zero_reference_panics() {
        let _ = Time::from_picoseconds(1.0).percent_error_vs(Time::ZERO);
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(format!("{}", Capacitance::from_picofarads(1.0)), "1 pF");
        assert_eq!(format!("{}", Resistance::from_ohms(500.0)), "500 Ω");
        assert_eq!(format!("{}", Time::from_seconds(2.5e-9)), "2.5 ns");
    }

    #[test]
    fn area_conversions() {
        let a = Area::from_square_micrometers(4.0);
        assert_eq!(a.square_meters(), 4e-12);
        assert_eq!(a.square_micrometers(), 4.0);
    }
}
