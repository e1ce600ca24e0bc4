//! The five-impedance description of a gate driving an RLC line.
//!
//! [`GateRlcLoad`] carries `Rt`, `Lt`, `Ct`, `Rtr` and `CL` (Fig. 1 of the
//! paper) and exposes the normalised quantities the closed-form model is
//! built from: the gate/line ratios `RT` and `CT` (Eq. 5), the time scale
//! `ωn` (Eq. 3) and the collapsed parameter `ζ` (Eq. 6).

use rlckit_interconnect::twoport::DrivenLine;
use rlckit_interconnect::DistributedLine;
use rlckit_units::{Capacitance, Inductance, Resistance, Time};

use crate::error::CoreError;

/// A CMOS gate driving a distributed RLC line with a capacitive load — the
/// circuit of Fig. 1 described by its five total impedances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateRlcLoad {
    total_resistance: Resistance,
    total_inductance: Inductance,
    total_capacitance: Capacitance,
    driver_resistance: Resistance,
    load_capacitance: Capacitance,
}

impl GateRlcLoad {
    /// Creates the load description from the five impedances.
    ///
    /// `Rt`, `Lt`, `Ct` must be strictly positive; `Rtr` and `CL` may be zero
    /// (ideal driver / open far end).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidImpedance`] if any value violates the rules
    /// above or is not finite.
    pub fn new(
        total_resistance: Resistance,
        total_inductance: Inductance,
        total_capacitance: Capacitance,
        driver_resistance: Resistance,
        load_capacitance: Capacitance,
    ) -> Result<Self, CoreError> {
        let strictly_positive = |v: f64, what: &'static str| -> Result<(), CoreError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(CoreError::InvalidImpedance { what, value: v })
            }
        };
        let non_negative = |v: f64, what: &'static str| -> Result<(), CoreError> {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(CoreError::InvalidImpedance { what, value: v })
            }
        };
        strictly_positive(total_resistance.ohms(), "total line resistance")?;
        strictly_positive(total_inductance.henries(), "total line inductance")?;
        strictly_positive(total_capacitance.farads(), "total line capacitance")?;
        non_negative(driver_resistance.ohms(), "driver resistance")?;
        non_negative(load_capacitance.farads(), "load capacitance")?;
        Ok(Self {
            total_resistance,
            total_inductance,
            total_capacitance,
            driver_resistance,
            load_capacitance,
        })
    }

    /// Builds the load description from a [`DistributedLine`] plus its
    /// terminations.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidImpedance`] under the same rules as [`GateRlcLoad::new`].
    pub fn from_line(
        line: &DistributedLine,
        driver_resistance: Resistance,
        load_capacitance: Capacitance,
    ) -> Result<Self, CoreError> {
        Self::new(
            line.total_resistance(),
            line.total_inductance(),
            line.total_capacitance(),
            driver_resistance,
            load_capacitance,
        )
    }

    /// Builds the load description from an exact-analysis [`DrivenLine`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidImpedance`] under the same rules as [`GateRlcLoad::new`].
    pub fn from_driven_line(driven: &DrivenLine) -> Result<Self, CoreError> {
        Self::from_line(driven.line(), driven.driver_resistance(), driven.load_capacitance())
    }

    /// Total line resistance `Rt`.
    pub fn total_resistance(&self) -> Resistance {
        self.total_resistance
    }

    /// Total line inductance `Lt`.
    pub fn total_inductance(&self) -> Inductance {
        self.total_inductance
    }

    /// Total line capacitance `Ct`.
    pub fn total_capacitance(&self) -> Capacitance {
        self.total_capacitance
    }

    /// Driver equivalent output resistance `Rtr`.
    pub fn driver_resistance(&self) -> Resistance {
        self.driver_resistance
    }

    /// Receiver input capacitance `CL`.
    pub fn load_capacitance(&self) -> Capacitance {
        self.load_capacitance
    }

    /// Normalised driver resistance `RT = Rtr / Rt` (Eq. 5).
    pub(crate) fn rt_ratio(&self) -> f64 {
        self.driver_resistance.ohms() / self.total_resistance.ohms()
    }

    /// Normalised load capacitance `CT = CL / Ct` (Eq. 5).
    pub(crate) fn ct_ratio(&self) -> f64 {
        self.load_capacitance.farads() / self.total_capacitance.farads()
    }

    /// The scaling frequency `ωn = 1/sqrt(Lt·(Ct + CL))` in radians per second (Eq. 3).
    pub fn omega_n(&self) -> f64 {
        1.0 / (self.total_inductance.henries()
            * (self.total_capacitance.farads() + self.load_capacitance.farads()))
        .sqrt()
    }

    /// The collapsed damping-like parameter `ζ` of Eq. (6):
    ///
    /// ```text
    /// ζ = (Rt/2)·sqrt(Ct/Lt)·(RT + CT + RT·CT + 0.5) / sqrt(1 + CT)
    /// ```
    pub fn zeta(&self) -> f64 {
        let rt = self.total_resistance.ohms();
        let lt = self.total_inductance.henries();
        let ct = self.total_capacitance.farads();
        let rt_ratio = self.rt_ratio();
        let ct_ratio = self.ct_ratio();
        (rt / 2.0) * (ct / lt).sqrt() * (rt_ratio + ct_ratio + rt_ratio * ct_ratio + 0.5)
            / (1.0 + ct_ratio).sqrt()
    }

    /// Converts a scaled (dimensionless) time `t' = ωn·t` back to seconds.
    pub(crate) fn unscale_time(&self, scaled: f64) -> Time {
        Time::from_seconds(scaled / self.omega_n())
    }

    /// Converts a physical time to the scaled (dimensionless) time `t' = ωn·t`.
    pub fn scale_time(&self, t: Time) -> f64 {
        t.seconds() * self.omega_n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::Length;

    fn table1_load(rt_ratio: f64, ct_ratio: f64, lt_henries: f64) -> GateRlcLoad {
        // Table 1 fixes Ct = 1 pF and Rtr = 500 Ω; RT and CT select Rt and CL.
        let rtr = 500.0;
        let ct = 1e-12;
        GateRlcLoad::new(
            Resistance::from_ohms(rtr / rt_ratio),
            Inductance::from_henries(lt_henries),
            Capacitance::from_farads(ct),
            Resistance::from_ohms(rtr),
            Capacitance::from_farads(ct_ratio * ct),
        )
        .unwrap()
    }

    #[test]
    fn ratios_match_construction() {
        let load = table1_load(0.5, 0.5, 1e-7);
        assert!((load.rt_ratio() - 0.5).abs() < 1e-12);
        assert!((load.ct_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(load.total_resistance().ohms(), 1000.0);
        assert_eq!(load.driver_resistance().ohms(), 500.0);
        assert!((load.load_capacitance().farads() - 0.5e-12).abs() < 1e-24);
    }

    #[test]
    fn omega_n_matches_equation_three() {
        let load = table1_load(1.0, 1.0, 1e-7);
        let expected = 1.0 / (1e-7f64 * 2e-12).sqrt();
        assert!((load.omega_n() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn zeta_matches_equation_six_by_hand() {
        // RT = CT = 0.5, Rt = 1 kΩ, Ct = 1 pF, Lt = 100 nH.
        let load = table1_load(0.5, 0.5, 1e-7);
        let by_hand =
            (1000.0 / 2.0) * (1e-12f64 / 1e-7).sqrt() * (0.5 + 0.5 + 0.25 + 0.5) / 1.5f64.sqrt();
        assert!((load.zeta() - by_hand).abs() / by_hand < 1e-12);
    }

    #[test]
    fn zeta_grows_as_inductance_shrinks() {
        let low_l = table1_load(0.5, 0.5, 1e-8);
        let high_l = table1_load(0.5, 0.5, 1e-5);
        assert!(low_l.zeta() > high_l.zeta());
    }

    #[test]
    fn time_scaling_round_trips() {
        let load = table1_load(1.0, 0.1, 1e-8);
        let t = Time::from_picoseconds(123.0);
        let scaled = load.scale_time(t);
        assert!((load.unscale_time(scaled).picoseconds() - 123.0).abs() < 1e-9);
    }

    #[test]
    fn construction_from_a_distributed_line() {
        let line = DistributedLine::from_totals(
            Resistance::from_ohms(500.0),
            Inductance::from_nanohenries(10.0),
            Capacitance::from_picofarads(1.0),
            Length::from_millimeters(10.0),
        )
        .unwrap();
        let load = GateRlcLoad::from_line(
            &line,
            Resistance::from_ohms(250.0),
            Capacitance::from_femtofarads(100.0),
        )
        .unwrap();
        assert_eq!(load.total_resistance().ohms(), 500.0);
        assert!((load.ct_ratio() - 0.1).abs() < 1e-12);

        let driven = DrivenLine::new(
            line,
            Resistance::from_ohms(250.0),
            Capacitance::from_femtofarads(100.0),
        )
        .unwrap();
        let load2 = GateRlcLoad::from_driven_line(&driven).unwrap();
        assert_eq!(load, load2);
    }

    #[test]
    fn invalid_impedances_are_rejected() {
        let ok = |v| Resistance::from_ohms(v);
        assert!(GateRlcLoad::new(
            ok(0.0),
            Inductance::from_nanohenries(1.0),
            Capacitance::from_picofarads(1.0),
            ok(0.0),
            Capacitance::ZERO
        )
        .is_err());
        assert!(GateRlcLoad::new(
            ok(1.0),
            Inductance::from_henries(0.0),
            Capacitance::from_picofarads(1.0),
            ok(0.0),
            Capacitance::ZERO
        )
        .is_err());
        assert!(GateRlcLoad::new(
            ok(1.0),
            Inductance::from_nanohenries(1.0),
            Capacitance::from_farads(f64::NAN),
            ok(0.0),
            Capacitance::ZERO
        )
        .is_err());
        assert!(GateRlcLoad::new(
            ok(1.0),
            Inductance::from_nanohenries(1.0),
            Capacitance::from_picofarads(1.0),
            ok(-1.0),
            Capacitance::ZERO
        )
        .is_err());
        assert!(GateRlcLoad::new(
            ok(1.0),
            Inductance::from_nanohenries(1.0),
            Capacitance::from_picofarads(1.0),
            ok(0.0),
            Capacitance::from_farads(-1e-15)
        )
        .is_err());
        // Zero driver resistance and load capacitance are fine.
        assert!(GateRlcLoad::new(
            ok(1.0),
            Inductance::from_nanohenries(1.0),
            Capacitance::from_picofarads(1.0),
            ok(0.0),
            Capacitance::ZERO
        )
        .is_ok());
    }
}
