//! Two-pole analytic step response of the driven line.
//!
//! Eq. (9) predicts only the 50% point. When a full waveform is useful (e.g.
//! overshoot estimation, or delay at thresholds other than 50%), the first two
//! exact transfer-function moments `b1`, `b2` (see
//! [`rlckit_interconnect::moments`]) define a two-pole Padé approximation
//!
//! ```text
//! H₂(s) = 1 / (1 + b1·s + b2·s²)
//! ```
//!
//! whose step response has a familiar closed form in each damping regime.
//! This is the same second-order truncation that underlies Eq. (7) of the
//! paper; it is exact in both limiting cases (pure RC single pole dominant,
//! pure LC oscillator) and a good approximation in between.

use rlckit_interconnect::moments::TransferMoments;
use rlckit_numeric::roots::first_crossing;
use rlckit_units::Time;

use crate::error::CoreError;
use crate::load::GateRlcLoad;

/// A second-order (two-pole) model of the driven-line step response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPoleResponse {
    /// Natural frequency of the two-pole model, `1/sqrt(b2)` (rad/s).
    natural_frequency: f64,
    /// Damping ratio of the two-pole model, `b1 / (2·sqrt(b2))`.
    damping_ratio: f64,
}

impl TwoPoleResponse {
    /// Builds the two-pole model for a gate-driven RLC load.
    pub fn of(load: &GateRlcLoad) -> Self {
        let m = TransferMoments::from_impedances(
            load.total_resistance().ohms(),
            load.total_inductance().henries(),
            load.total_capacitance().farads(),
            load.driver_resistance().ohms(),
            load.load_capacitance().farads(),
        );
        Self::from_moments(&m)
    }

    /// Builds the two-pole model directly from transfer-function moments.
    pub fn from_moments(moments: &TransferMoments) -> Self {
        let b1 = moments.b1;
        let b2 = moments.b2;
        Self { natural_frequency: 1.0 / b2.sqrt(), damping_ratio: b1 / (2.0 * b2.sqrt()) }
    }

    /// Natural frequency `ωn₂ = 1/sqrt(b2)` in radians per second.
    pub fn natural_frequency(&self) -> f64 {
        self.natural_frequency
    }

    /// Damping ratio `ζ₂ = b1/(2·sqrt(b2))`.
    ///
    /// Note this is the damping ratio of the *two-pole approximation*; it is
    /// close to, but not identical to, the paper's `ζ` of Eq. (6).
    pub fn damping_ratio(&self) -> f64 {
        self.damping_ratio
    }

    /// Value of the unit-step response at time `t`.
    ///
    /// Returns 0 for `t <= 0` and approaches 1 as `t → ∞`.
    pub fn step_response(&self, t: Time) -> f64 {
        let ts = t.seconds();
        if ts <= 0.0 {
            return 0.0;
        }
        let wn = self.natural_frequency;
        let zeta = self.damping_ratio;
        let x = wn * ts;
        if zeta < 1.0 - 1e-9 {
            let wd = (1.0 - zeta * zeta).sqrt();
            1.0 - (-zeta * x).exp() * ((wd * x).cos() + zeta / wd * (wd * x).sin())
        } else if zeta > 1.0 + 1e-9 {
            // Two real poles p1,2 = ωn(−ζ ± sqrt(ζ²−1)).
            let root = (zeta * zeta - 1.0).sqrt();
            let p1 = -zeta + root; // scaled by ωn below
            let p2 = -zeta - root;
            1.0 + (p2 * (p1 * x).exp() - p1 * (p2 * x).exp()) / (p1 - p2)
        } else {
            1.0 - (1.0 + x) * (-x).exp()
        }
    }

    /// Peak overshoot above the final value, in per cent (zero when overdamped).
    pub fn overshoot_percent(&self) -> f64 {
        let zeta = self.damping_ratio;
        if zeta >= 1.0 {
            0.0
        } else {
            100.0 * (-std::f64::consts::PI * zeta / (1.0 - zeta * zeta).sqrt()).exp()
        }
    }

    /// Time at which the step response first crosses the given fraction of the
    /// final value (e.g. `0.5` for the 50% delay): [`first_crossing`] at 4096
    /// points from a horizon of ten slowest time constants, the envelope
    /// `1/(ζ·ωn)` below critical damping and the slower pole above it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Evaluation`] if `fraction` is not in `(0, 1)`,
    /// the model does not decay, or the crossing cannot be located.
    pub(crate) fn delay_to_fraction(&self, fraction: f64) -> Result<Time, CoreError> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(CoreError::Evaluation {
                reason: format!("threshold fraction {fraction} must lie strictly between 0 and 1"),
            });
        }
        let zeta = self.damping_ratio;
        let slowest_rate = self.natural_frequency * (zeta - (zeta * zeta - 1.0).max(0.0).sqrt());
        if !(slowest_rate > 0.0 && slowest_rate.is_finite()) {
            return Err(CoreError::Evaluation {
                reason: format!("a two-pole model with ζ = {zeta} does not decay"),
            });
        }
        let tau = 1.0 / slowest_rate;
        let f = |t: f64| self.step_response(Time::from_seconds(t));
        first_crossing(f, fraction, true, 10.0 * tau, 4096, 5, tau * 1e-12)
            .map(Time::from_seconds)
            .map_err(|e| CoreError::Evaluation {
                reason: format!("could not locate the {fraction} crossing: {e}"),
            })
    }

    /// The 50% propagation delay of the two-pole model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Evaluation`] if the crossing cannot be located.
    pub fn delay_50(&self) -> Result<Time, CoreError> {
        self.delay_to_fraction(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::propagation_delay;
    use rlckit_units::{Capacitance, Inductance, Resistance};

    fn load(rt: f64, lt: f64, ct: f64, rtr: f64, cl: f64) -> GateRlcLoad {
        GateRlcLoad::new(
            Resistance::from_ohms(rt),
            Inductance::from_henries(lt),
            Capacitance::from_farads(ct),
            Resistance::from_ohms(rtr),
            Capacitance::from_farads(cl),
        )
        .unwrap()
    }

    #[test]
    fn step_response_is_causal_and_settles() {
        let r = TwoPoleResponse::of(&load(500.0, 10e-9, 1e-12, 250.0, 0.1e-12));
        assert_eq!(r.step_response(Time::ZERO), 0.0);
        assert_eq!(r.step_response(Time::from_seconds(-1.0)), 0.0);
        let late = 20.0 / r.natural_frequency();
        assert!((r.step_response(Time::from_seconds(late)) - 1.0).abs() < 0.05);
    }

    #[test]
    fn underdamped_load_overshoots_overdamped_does_not() {
        let ringing = TwoPoleResponse::of(&load(100.0, 1e-7, 1e-12, 0.0, 0.0));
        assert!(ringing.damping_ratio() < 1.0);
        assert!(ringing.overshoot_percent() > 10.0);
        let sluggish = TwoPoleResponse::of(&load(5000.0, 1e-9, 1e-12, 1000.0, 0.5e-12));
        assert!(sluggish.damping_ratio() > 1.0);
        assert_eq!(sluggish.overshoot_percent(), 0.0);
    }

    #[test]
    fn all_three_regimes_evaluate_continuously() {
        // Values chosen so the two-pole damping ratio straddles 1.
        let nearly_critical = TwoPoleResponse::of(&load(632.0, 1e-7, 1e-12, 0.0, 0.0));
        let t = Time::from_seconds(1.0 / nearly_critical.natural_frequency());
        let v = nearly_critical.step_response(t);
        assert!(v > 0.0 && v < 1.0);
        // Critically damped formula reachable via from_moments with b1 = 2·sqrt(b2).
        let m = TransferMoments { b1: 2e-9, b2: 1e-18, b3: 0.0 };
        let critical = TwoPoleResponse::from_moments(&m);
        assert!((critical.damping_ratio() - 1.0).abs() < 1e-12);
        let v = critical.step_response(Time::from_seconds(1.0e-9));
        assert!((v - (1.0 - 2.0 * (-1.0f64).exp())).abs() < 1e-9);
    }

    #[test]
    fn delay_50_is_close_to_the_closed_form_model() {
        // Across a range of damping regimes the two-pole 50% delay should land
        // within ~15% of Eq. (9) (both approximate the same exact response).
        for &(rt, lt) in &[(250.0, 1e-7), (500.0, 1e-8), (1000.0, 1e-8), (2000.0, 1e-9)] {
            let l = load(rt, lt, 1e-12, 500.0, 0.5e-12);
            let two_pole = TwoPoleResponse::of(&l).delay_50().unwrap().seconds();
            let closed_form = propagation_delay(&l).seconds();
            let err = (two_pole - closed_form).abs() / closed_form;
            assert!(
                err < 0.15,
                "Rt = {rt}, Lt = {lt}: two-pole {two_pole}, Eq. 9 {closed_form}, err {err}"
            );
        }
    }

    #[test]
    fn delay_to_other_fractions_is_ordered() {
        let r = TwoPoleResponse::of(&load(500.0, 10e-9, 1e-12, 250.0, 0.1e-12));
        let d10 = r.delay_to_fraction(0.1).unwrap();
        let d50 = r.delay_to_fraction(0.5).unwrap();
        let d90 = r.delay_to_fraction(0.9).unwrap();
        assert!(d10 < d50 && d50 < d90);
    }

    #[test]
    fn invalid_fraction_is_rejected() {
        let r = TwoPoleResponse::of(&load(500.0, 10e-9, 1e-12, 250.0, 0.1e-12));
        assert!(r.delay_to_fraction(0.0).is_err());
        assert!(r.delay_to_fraction(1.0).is_err());
        assert!(r.delay_to_fraction(-0.5).is_err());
    }
}
