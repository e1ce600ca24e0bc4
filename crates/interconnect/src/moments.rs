//! Exact low-order moments of the driven-line transfer function.
//!
//! Expanding Eq. (1) of the paper in powers of `s` (the same expansion that
//! leads to Eq. (7)) gives a denominator
//!
//! ```text
//! D(s) = 1 + b1·s + b2·s² + b3·s³ + …
//! ```
//!
//! with a numerator of exactly 1 (the driven, capacitively loaded line has no
//! finite zeros). The coefficients are polynomial in the five impedances
//! `Rt, Lt, Ct, Rtr, CL` and are computed here in closed form:
//!
//! ```text
//! b1 = Rt·Ct(½ + CT) + Rtr(Ct + CL)
//! b2 = Lt·Ct(½ + CT) + (Rt·Ct)²(1/24 + CT/6) + Rtr·Rt·Ct(CL/2 + Ct/6)
//! b3 = Rt·Ct·Lt·Ct(1/12 + CT/3) + (Rt·Ct)³(1/720 + CT/120)
//!      + Rtr[ CL·Lt·Ct/2 + CL(Rt·Ct)²/24 + Ct·Lt·Ct/6 + Ct(Rt·Ct)²/120 ]
//! ```
//!
//! where `CT = CL/Ct`. The first coefficient `b1` is the Elmore delay of the
//! circuit; `b1` and `b2` feed the two-pole analytic response model in
//! `rlckit-core`, and the paper's `ζ` (Eq. 6) is `b1·ωn/2`.

use rlckit_units::{Capacitance, Resistance, Time};

/// The first three denominator coefficients of the driven-line transfer function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferMoments {
    /// Coefficient of `s` (seconds) — equal to the Elmore delay.
    pub b1: f64,
    /// Coefficient of `s²` (seconds²).
    pub b2: f64,
    /// Coefficient of `s³` (seconds³).
    pub b3: f64,
}

impl TransferMoments {
    /// Computes the moments directly from raw impedance values (SI units).
    pub fn from_impedances(rt: f64, lt: f64, ct: f64, rtr: f64, cl: f64) -> Self {
        let ct_ratio = cl / ct; // CT
        let a = rt * ct; // the distributed RC product
        let b = lt * ct; // the distributed LC product

        let b1 = a * (0.5 + ct_ratio) + rtr * (ct + cl);
        let b2 = b * (0.5 + ct_ratio)
            + a * a * (1.0 / 24.0 + ct_ratio / 6.0)
            + rtr * a * (cl / 2.0 + ct / 6.0);
        let b3 = a * b * (1.0 / 12.0 + ct_ratio / 3.0)
            + a * a * a * (1.0 / 720.0 + ct_ratio / 120.0)
            + rtr * (cl * b / 2.0 + cl * a * a / 24.0 + ct * b / 6.0 + ct * a * a / 120.0);
        Self { b1, b2, b3 }
    }
}

/// Elmore delay of a gate driving a distributed RC(-L) line with a capacitive
/// load: `Rtr(Ct + CL) + Rt(Ct/2 + CL)`.
///
/// Inductance does not appear — the Elmore delay of an RLC line equals that of
/// the corresponding RC line, which is exactly why Elmore-based flows
/// underestimate inductive effects.
pub fn elmore_delay(
    total_resistance: Resistance,
    total_capacitance: Capacitance,
    driver_resistance: Resistance,
    load_capacitance: Capacitance,
) -> Time {
    let rt = total_resistance.ohms();
    let ct = total_capacitance.farads();
    let rtr = driver_resistance.ohms();
    let cl = load_capacitance.farads();
    Time::from_seconds(rtr * (ct + cl) + rt * (ct / 2.0 + cl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::DistributedLine;
    use crate::twoport::DrivenLine;
    use rlckit_numeric::complex::Complex;
    use rlckit_units::{Inductance, Length};

    fn driven(rt: f64, lt: f64, ct: f64, rtr: f64, cl: f64) -> DrivenLine {
        let line = DistributedLine::from_totals(
            Resistance::from_ohms(rt),
            Inductance::from_henries(lt),
            Capacitance::from_farads(ct),
            Length::from_millimeters(10.0),
        )
        .unwrap();
        DrivenLine::new(line, Resistance::from_ohms(rtr), Capacitance::from_farads(cl)).unwrap()
    }

    #[test]
    fn b1_is_the_elmore_delay() {
        let m = TransferMoments::from_impedances(500.0, 10e-9, 1e-12, 250.0, 0.2e-12);
        let expected = 250.0 * 1.2e-12 + 500.0 * (0.5e-12 + 0.2e-12);
        assert!((m.b1 - expected).abs() < 1e-18);
        let helper = elmore_delay(
            Resistance::from_ohms(500.0),
            Capacitance::from_picofarads(1.0),
            Resistance::from_ohms(250.0),
            Capacitance::from_picofarads(0.2),
        );
        assert!((helper.seconds() - expected).abs() < 1e-18);
    }

    #[test]
    fn elmore_delay_is_independent_of_inductance() {
        let low_l = TransferMoments::from_impedances(500.0, 1e-12, 1e-12, 250.0, 0.2e-12);
        let high_l = TransferMoments::from_impedances(500.0, 100e-9, 1e-12, 250.0, 0.2e-12);
        assert!((low_l.b1 - high_l.b1).abs() < 1e-20);
        // …but the second moment does feel the inductance.
        assert!(high_l.b2 > low_l.b2);
    }

    #[test]
    fn bare_line_moments_match_known_distributed_rc_values() {
        // For an unloaded, undriven distributed RC line: b1 = RC/2, b2 = (RC)²/24 (+LC/2).
        let m = TransferMoments::from_impedances(1000.0, 0.0, 1e-12, 0.0, 0.0);
        assert!((m.b1 - 0.5e-9).abs() < 1e-18);
        assert!((m.b2 - (1e-9f64 * 1e-9) / 24.0).abs() < 1e-24);
    }

    #[test]
    fn moments_match_numerical_derivatives_of_exact_transfer_function() {
        // Compare against finite-difference derivatives of the exact H(s) at s → 0:
        // H(s) ≈ 1 − b1 s + (b1² − b2) s² − …
        let d = driven(500.0, 8e-9, 1e-12, 300.0, 0.3e-12);
        let m = TransferMoments::from_impedances(500.0, 8e-9, 1e-12, 300.0, 0.3e-12);

        // Use a real-axis probe small enough for the cubic term to be negligible.
        let h = 1e6; // s-value in rad/s; b1·s ~ 1e-3
        let f = |s: f64| d.transfer_function(Complex::from_real(s)).re;
        let m1 = (f(h) - f(-h)) / (2.0 * h); // = -b1
        let m2 = (f(h) - 2.0 * f(0.0) + f(-h)) / (h * h); // = 2(b1² − b2)
        assert!((m1 + m.b1).abs() / m.b1 < 1e-4, "first derivative {m1} vs -b1 {}", -m.b1);
        let expected_m2 = 2.0 * (m.b1 * m.b1 - m.b2);
        assert!(
            (m2 - expected_m2).abs() / expected_m2.abs() < 1e-3,
            "second derivative {m2} vs {expected_m2}"
        );
    }

    #[test]
    fn third_moment_is_positive_and_grows_with_inductance() {
        let low = TransferMoments::from_impedances(500.0, 1e-9, 1e-12, 100.0, 0.1e-12);
        let high = TransferMoments::from_impedances(500.0, 50e-9, 1e-12, 100.0, 0.1e-12);
        assert!(low.b3 > 0.0);
        assert!(high.b3 > low.b3);
    }
}
