//! Exact Laplace-domain analysis of a gate-driven lossy transmission line.
//!
//! This module evaluates the paper's Eq. (1) without any series truncation:
//! the driven, loaded line is treated as an ABCD two-port with
//!
//! ```text
//! θ(s)  = sqrt( (Rt + s·Lt) · s·Ct )          (propagation constant × length)
//! Z0(s) = sqrt( (Rt + s·Lt) / (s·Ct) )        (characteristic impedance)
//! A = D = cosh θ,  B = Z0·sinh θ,  C = sinh θ / Z0
//! ```
//!
//! and the voltage transfer from the step source (behind `Rtr`) to the load
//! capacitance `CL` is
//!
//! ```text
//! H(s) = 1 / ( A + B·s·CL + Rtr·C + Rtr·D·s·CL )
//! ```
//!
//! `H(s)` is evaluated with numerator and denominator multiplied by `2e^{−θ}`,
//! so no term overflows anywhere on the inversion contour. The time-domain
//! step response is recovered with the 48-term Talbot inverse Laplace
//! transform. It carries no lumping error, so it is the reference the ladder
//! simulator is checked against (see the integration tests). Below critical
//! damping the response jumps at the time of flight and Talbot converges
//! slowly; there the 50% delay agrees with a 50-section ladder to about 1%.

use rlckit_numeric::complex::Complex;
use rlckit_numeric::laplace::talbot;
use rlckit_numeric::roots::first_crossing;
use rlckit_units::{Capacitance, Resistance, Time};

use crate::error::InterconnectError;
use crate::line::DistributedLine;

/// A distributed line together with its driver resistance and load capacitance
/// (the complete circuit of Fig. 1), analysed exactly in the Laplace domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrivenLine {
    line: DistributedLine,
    driver_resistance: Resistance,
    load_capacitance: Capacitance,
}

impl DrivenLine {
    /// Wraps a line with its termination.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] if the driver
    /// resistance or load capacitance is negative or not finite (zero is allowed).
    pub fn new(
        line: DistributedLine,
        driver_resistance: Resistance,
        load_capacitance: Capacitance,
    ) -> Result<Self, InterconnectError> {
        if !(driver_resistance.ohms() >= 0.0) || !driver_resistance.ohms().is_finite() {
            return Err(InterconnectError::InvalidParameter {
                what: "driver resistance",
                value: driver_resistance.ohms(),
            });
        }
        if !(load_capacitance.farads() >= 0.0) || !load_capacitance.farads().is_finite() {
            return Err(InterconnectError::InvalidParameter {
                what: "load capacitance",
                value: load_capacitance.farads(),
            });
        }
        Ok(Self { line, driver_resistance, load_capacitance })
    }

    /// The underlying distributed line.
    pub fn line(&self) -> &DistributedLine {
        &self.line
    }

    /// Driver equivalent output resistance `Rtr`.
    pub fn driver_resistance(&self) -> Resistance {
        self.driver_resistance
    }

    /// Receiver input capacitance `CL`.
    pub fn load_capacitance(&self) -> Capacitance {
        self.load_capacitance
    }

    /// Exact voltage transfer function `Vout(s)/Vin(s)` at a complex frequency.
    ///
    /// At `s = 0` the transfer is exactly 1 (the line is a DC short to the
    /// load once charged).
    pub(crate) fn transfer_function(&self, s: Complex) -> Complex {
        if s.abs() == 0.0 {
            return Complex::ONE;
        }
        let rt = self.line.total_resistance().ohms();
        let lt = self.line.total_inductance().henries();
        let ct = self.line.total_capacitance().farads();
        let rtr = self.driver_resistance.ohms();
        let cl = self.load_capacitance.farads();

        let series = s * lt + rt; // Rt + s·Lt
        let shunt = s * ct; // s·Ct
        let theta = (series * shunt).sqrt();
        let z0 = (series / shunt).sqrt();

        // Numerator and denominator are both multiplied by 2e^{−θ}: on the
        // Talbot contour cosh θ and sinh θ overflow (inf/inf = NaN), whereas
        // with Re θ ≥ 0 every scaled term below stays bounded.
        let decay = (-theta).exp(); // e^{−θ}
        let reflected = decay * decay; // e^{−2θ}
        let cosh = Complex::ONE + reflected; // 2e^{−θ}·cosh θ
        let sinh = Complex::ONE - reflected; // 2e^{−θ}·sinh θ

        let y_load = s * cl; // load admittance
        let denom = cosh + z0 * sinh * y_load + (sinh / z0 + cosh * y_load) * rtr;
        decay.scale(2.0) / denom
    }

    /// Step response `Vout(t)` for a unit step input, via the Talbot inverse
    /// Laplace transform of `H(s)/s`.
    ///
    /// Returns 0 for `t <= 0`. The result is finite for every valid line and
    /// every `t > 0`.
    pub fn step_response(&self, t: Time) -> f64 {
        if t.seconds() <= 0.0 {
            return 0.0;
        }
        talbot(|s| self.transfer_function(s) / s, t.seconds(), 48)
    }

    /// Exact 50% propagation delay of the step response: the first crossing
    /// of the Talbot-evaluated response ([`first_crossing`]), scanned at 400
    /// points from a horizon of `4·R·C + 10·√(L·C)` over the whole circuit.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::Analysis`] if a sample of the response is
    /// not finite, or if the response never reaches 50% within 4⁵ times that
    /// horizon (which would indicate a malformed line description).
    pub fn delay_50(&self) -> Result<Time, InterconnectError> {
        let rt = self.line.total_resistance().ohms() + self.driver_resistance.ohms();
        let ct = self.line.total_capacitance().farads() + self.load_capacitance.farads();
        let tof = (self.line.total_inductance().henries() * ct).sqrt();
        let horizon = 4.0 * rt * ct + 10.0 * tof;
        let f = |t: f64| self.step_response(Time::from_seconds(t));
        first_crossing(f, 0.5, true, horizon, 400, 6, horizon * 1e-12)
            .map(Time::from_seconds)
            .map_err(|e| InterconnectError::Analysis {
                reason: format!("could not locate the 50% crossing of the step response: {e}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::{Inductance, Length};

    fn line(rt: f64, lt: f64, ct: f64) -> DistributedLine {
        DistributedLine::from_totals(
            Resistance::from_ohms(rt),
            Inductance::from_henries(lt),
            Capacitance::from_farads(ct),
            Length::from_millimeters(10.0),
        )
        .unwrap()
    }

    #[test]
    fn dc_transfer_is_unity() {
        let driven = DrivenLine::new(
            line(500.0, 10e-9, 1e-12),
            Resistance::from_ohms(250.0),
            Capacitance::from_picofarads(0.1),
        )
        .unwrap();
        assert_eq!(driven.transfer_function(Complex::ZERO), Complex::ONE);
        // Very low (but non-zero) frequency is still close to unity.
        let h = driven.transfer_function(Complex::new(0.0, 1e3));
        assert!((h.abs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn accessors() {
        let l = line(500.0, 10e-9, 1e-12);
        let driven =
            DrivenLine::new(l, Resistance::from_ohms(100.0), Capacitance::from_femtofarads(20.0))
                .unwrap();
        assert_eq!(driven.driver_resistance().ohms(), 100.0);
        assert!((driven.load_capacitance().farads() - 20.0e-15).abs() < 1e-27);
        assert_eq!(driven.line().total_resistance().ohms(), 500.0);
    }

    #[test]
    fn negative_terminations_are_rejected() {
        let l = line(500.0, 10e-9, 1e-12);
        assert!(DrivenLine::new(l, Resistance::from_ohms(-1.0), Capacitance::ZERO).is_err());
        assert!(DrivenLine::new(l, Resistance::ZERO, Capacitance::from_farads(-1e-15)).is_err());
        assert!(DrivenLine::new(l, Resistance::from_ohms(f64::NAN), Capacitance::ZERO).is_err());
    }

    #[test]
    fn rc_dominated_delay_matches_sakurai() {
        // Negligible inductance, no terminations: 50% delay → 0.377·Rt·Ct.
        let driven =
            DrivenLine::new(line(1000.0, 1e-15, 1e-12), Resistance::ZERO, Capacitance::ZERO)
                .unwrap();
        let d = driven.delay_50().unwrap().seconds();
        let expected = 0.377 * 1000.0 * 1e-12;
        assert!((d - expected).abs() / expected < 0.02, "delay {d}, expected {expected}");
    }

    #[test]
    fn driven_inductive_line_delay_matches_hand_derived_value() {
        // A line with appreciable inductance but a well-damped driver — the
        // regime the paper's Table 1 covers.
        //
        // Rt = 500 Ω, Lt = 10 nH, Ct = 1 pF, Rtr = 200 Ω, CL = 0:
        // ζ = 250·0.01·0.9 = 2.25 and tpd ≈ 1.48·ζ/ωn ≈ 333 ps (Eq. 9).
        // Underdamped lines are checked against the ladder simulator in the
        // integration tests.
        let driven = DrivenLine::new(
            line(500.0, 10e-9, 1e-12),
            Resistance::from_ohms(200.0),
            Capacitance::ZERO,
        )
        .unwrap();
        let d = driven.delay_50().unwrap().seconds();
        let expected = 333e-12;
        assert!(
            (d - expected).abs() / expected < 0.15,
            "delay {d}, hand-derived estimate {expected}"
        );
    }

    #[test]
    fn step_response_is_causal_and_settles_to_one() {
        let driven = DrivenLine::new(
            line(500.0, 10e-9, 1e-12),
            Resistance::from_ohms(250.0),
            Capacitance::from_picofarads(0.1),
        )
        .unwrap();
        assert_eq!(driven.step_response(Time::ZERO), 0.0);
        assert_eq!(driven.step_response(Time::from_seconds(-1.0)), 0.0);
        let late = driven.step_response(Time::from_seconds(50.0e-9));
        assert!((late - 1.0).abs() < 1e-3, "late value {late}");
    }

    #[test]
    fn adding_driver_resistance_increases_delay() {
        let l = line(500.0, 10e-9, 1e-12);
        let bare = DrivenLine::new(l, Resistance::ZERO, Capacitance::ZERO).unwrap();
        let loaded =
            DrivenLine::new(l, Resistance::from_ohms(500.0), Capacitance::from_picofarads(0.5))
                .unwrap();
        let d_bare = bare.delay_50().unwrap();
        let d_loaded = loaded.delay_50().unwrap();
        assert!(d_loaded > d_bare);
    }
}
