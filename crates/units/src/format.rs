//! Engineering-notation formatting for physical quantities.
//!
//! Values are printed with an SI prefix chosen so the mantissa falls in
//! `[1, 1000)`, which is how circuit designers read parasitics ("2.3 pF",
//! "450 Ω/m") rather than raw scientific notation.

use std::fmt;

/// An SI prefix together with its power-of-ten exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Prefix {
    symbol: &'static str,
    exponent: i32,
}

const PREFIXES: &[Prefix] = &[
    Prefix { symbol: "a", exponent: -18 },
    Prefix { symbol: "f", exponent: -15 },
    Prefix { symbol: "p", exponent: -12 },
    Prefix { symbol: "n", exponent: -9 },
    Prefix { symbol: "µ", exponent: -6 },
    Prefix { symbol: "m", exponent: -3 },
    Prefix { symbol: "", exponent: 0 },
    Prefix { symbol: "k", exponent: 3 },
    Prefix { symbol: "M", exponent: 6 },
    Prefix { symbol: "G", exponent: 9 },
    Prefix { symbol: "T", exponent: 12 },
];

/// A value formatted in engineering notation, produced by [`format_eng`].
///
/// Implements [`Display`](fmt::Display); hold on to it to defer the string
/// allocation, or call `.to_string()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngFormat {
    value: f64,
    unit: &'static str,
}

impl fmt::Display for EngFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.value;
        if v == 0.0 {
            return write!(f, "0 {}", self.unit);
        }
        if !v.is_finite() {
            return write!(f, "{} {}", v, self.unit);
        }
        let magnitude = v.abs();
        let exp3 = (magnitude.log10().floor() as i32).div_euclid(3) * 3;
        let prefix = PREFIXES
            .iter()
            .find(|p| p.exponent == exp3.clamp(-18, 12))
            .unwrap_or(&Prefix { symbol: "", exponent: 0 });
        let scaled = v / 10f64.powi(prefix.exponent);
        // Up to 4 significant digits, trailing zeros trimmed.
        let text = format!("{scaled:.4}");
        let trimmed = text.trim_end_matches('0').trim_end_matches('.');
        write!(f, "{} {}{}", trimmed, prefix.symbol, self.unit)
    }
}

/// Formats `value` (in SI base units) with an engineering prefix and `unit`.
///
/// # Example
///
/// ```
/// use rlckit_units::format_eng;
/// assert_eq!(format_eng(1e-12, "F").to_string(), "1 pF");
/// assert_eq!(format_eng(2.5e-9, "s").to_string(), "2.5 ns");
/// assert_eq!(format_eng(500.0, "Ω").to_string(), "500 Ω");
/// ```
pub fn format_eng(value: f64, unit: &'static str) -> EngFormat {
    EngFormat { value, unit }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_non_finite() {
        assert_eq!(format_eng(0.0, "F").to_string(), "0 F");
        assert_eq!(format_eng(f64::INFINITY, "F").to_string(), "inf F");
        assert_eq!(format_eng(f64::NAN, "F").to_string(), "NaN F");
    }

    #[test]
    fn picks_prefix_keeping_mantissa_in_range() {
        assert_eq!(format_eng(1e-15, "F").to_string(), "1 fF");
        assert_eq!(format_eng(1e-12, "F").to_string(), "1 pF");
        assert_eq!(format_eng(999e-12, "F").to_string(), "999 pF");
        assert_eq!(format_eng(1000e-12, "F").to_string(), "1 nF");
        assert_eq!(format_eng(1.5e3, "Ω").to_string(), "1.5 kΩ");
        assert_eq!(format_eng(2e9, "Hz").to_string(), "2 GHz");
    }

    #[test]
    fn negative_values() {
        assert_eq!(format_eng(-2.5e-9, "s").to_string(), "-2.5 ns");
    }

    #[test]
    fn huge_and_tiny_values_clamp_to_extreme_prefixes() {
        assert!(format_eng(1e20, "Hz").to_string().contains('T'));
        assert!(format_eng(1e-20, "F").to_string().contains('a'));
    }

    #[test]
    fn trims_trailing_zeros() {
        assert_eq!(format_eng(250e-12, "s").to_string(), "250 ps");
        assert_eq!(format_eng(0.25e-12, "s").to_string(), "250 fs");
        assert_eq!(format_eng(123.456e-12, "s").to_string(), "123.456 ps");
    }

    #[test]
    fn accessors() {
        let f = format_eng(3.0, "V");
        assert_eq!(f.value, 3.0);
        assert_eq!(f.unit, "V");
    }
}
