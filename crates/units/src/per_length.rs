//! Per-unit-length interconnect parasitics.
//!
//! The Ismail–Friedman formulation starts from per-unit-length resistance,
//! inductance and capacitance (`R`, `L`, `C`) and a line length `l`; the total
//! impedances are `Rt = R·l`, `Lt = L·l`, `Ct = C·l`. These newtypes make that
//! step explicit: multiplying a per-length quantity by a [`Length`] yields the
//! corresponding total quantity.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use crate::format::format_eng;
use crate::quantities::{Capacitance, Inductance, Length, Resistance};

/// Generates a per-unit-length quantity newtype.
macro_rules! per_length_quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal, $ctor:ident, $getter:ident, $total:ident, $total_ctor:ident, $total_getter:ident
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates the quantity from a value in its SI base unit (per metre).
            #[inline]
            pub const fn $ctor(value: f64) -> Self {
                Self(value)
            }

            /// Returns the value in the SI base unit (per metre).
            #[inline]
            pub const fn $getter(self) -> f64 {
                self.0
            }

            /// Total quantity accumulated over a wire of the given length.
            #[inline]
            pub(crate) fn total_over(self, length: Length) -> $total {
                $total::$total_ctor(self.0 * length.meters())
            }
        }

        impl Mul<Length> for $name {
            type Output = $total;
            #[inline]
            fn mul(self, rhs: Length) -> $total {
                self.total_over(rhs)
            }
        }

        impl Mul<$name> for Length {
            type Output = $total;
            #[inline]
            fn mul(self, rhs: $name) -> $total {
                rhs.total_over(self)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
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

        impl $total {
            /// Distributes a total quantity uniformly over a wire of the given
            /// length, yielding the per-unit-length value.
            ///
            /// # Panics
            ///
            /// Panics if `length` is zero.
            #[inline]
            pub fn per_length_over(self, length: Length) -> $name {
                assert!(
                    length.meters() != 0.0,
                    "cannot distribute a quantity over a zero-length wire"
                );
                $name(self.$total_getter() / length.meters())
            }
        }
    };
}

per_length_quantity!(
    /// Wire resistance per unit length, in ohms per metre.
    ResistancePerLength,
    "Ω/m",
    from_ohms_per_meter,
    ohms_per_meter,
    Resistance,
    from_ohms,
    ohms
);

per_length_quantity!(
    /// Wire capacitance per unit length, in farads per metre.
    CapacitancePerLength,
    "F/m",
    from_farads_per_meter,
    farads_per_meter,
    Capacitance,
    from_farads,
    farads
);

per_length_quantity!(
    /// Wire inductance per unit length, in henries per metre.
    InductancePerLength,
    "H/m",
    from_henries_per_meter,
    henries_per_meter,
    Inductance,
    from_henries,
    henries
);

impl ResistancePerLength {
    /// Creates a resistance per length expressed in ohms per millimetre
    /// (a common way to quote on-chip wire resistance).
    #[inline]
    pub fn from_ohms_per_millimeter(value: f64) -> Self {
        Self::from_ohms_per_meter(value * 1e3)
    }
}

impl CapacitancePerLength {
    /// Creates a capacitance per length expressed in femtofarads per micrometre
    /// (equivalently picofarads per millimetre).
    #[inline]
    pub fn from_femtofarads_per_micrometer(value: f64) -> Self {
        // 1 fF/µm = 1e-15 F / 1e-6 m = 1e-9 F/m.
        Self::from_farads_per_meter(value * 1e-9)
    }
}

impl InductancePerLength {
    /// Creates an inductance per length expressed in nanohenries per millimetre.
    #[inline]
    pub fn from_nanohenries_per_millimeter(value: f64) -> Self {
        // 1 nH/mm = 1e-9 H / 1e-3 m = 1e-6 H/m.
        Self::from_henries_per_meter(value * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_from_per_length_values() {
        let l = Length::from_millimeters(5.0);
        let r = ResistancePerLength::from_ohms_per_meter(2000.0);
        let c = CapacitancePerLength::from_farads_per_meter(200e-12);
        let ind = InductancePerLength::from_henries_per_meter(500e-9);
        assert_eq!((r * l).ohms(), 10.0);
        assert_eq!((l * r).ohms(), 10.0);
        assert!(((c * l).farads() - 1e-12).abs() < 1e-24);
        assert!(((ind * l).henries() - 2.5e-9).abs() < 1e-21);
    }

    #[test]
    fn per_length_from_totals() {
        let l = Length::from_millimeters(10.0);
        let rt = Resistance::from_ohms(30.0);
        let r = rt.per_length_over(l);
        assert_eq!(r.ohms_per_meter(), 3000.0);
    }

    #[test]
    #[should_panic]
    fn per_length_over_zero_length_panics() {
        let _ = Resistance::from_ohms(1.0).per_length_over(Length::ZERO);
    }

    #[test]
    fn scaled_unit_constructors() {
        let c = CapacitancePerLength::from_femtofarads_per_micrometer(0.2);
        assert!((c.farads_per_meter() - 0.2e-9).abs() < 1e-24);
        let ind = InductancePerLength::from_nanohenries_per_millimeter(0.5);
        assert!((ind.henries_per_meter() - 0.5e-6).abs() < 1e-18);
        let r = ResistancePerLength::from_ohms_per_millimeter(25.0);
        assert_eq!(r.ohms_per_meter(), 25e3);
    }

    #[test]
    fn linear_arithmetic() {
        let a = ResistancePerLength::from_ohms_per_meter(10.0);
        let b = ResistancePerLength::from_ohms_per_meter(5.0);
        assert_eq!((a + b).ohms_per_meter(), 15.0);
        assert_eq!((a - b).ohms_per_meter(), 5.0);
        assert_eq!((a * 2.0).ohms_per_meter(), 20.0);
        assert_eq!((a / 2.0).ohms_per_meter(), 5.0);
        assert_eq!(a / b, 2.0);
    }

    #[test]
    fn display() {
        let c = CapacitancePerLength::from_farads_per_meter(100e-12);
        assert_eq!(format!("{c}"), "100 pF/m");
    }
}
