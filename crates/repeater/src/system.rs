//! The repeater system: total delay, area and energy of a design point.
//!
//! A design point is a pair `(h, k)`: `k` uniform sections, each driven by a
//! buffer `h` times larger than minimum size. Following the paper's appendix,
//! the total delay is `k` times the closed-form delay (Eq. 9) of one section,
//! whose impedances are `Rt/k`, `Lt/k`, `Ct/k` driven by `R0/h` and loaded by
//! `h·C0`.

use rlckit_core::load::GateRlcLoad;
use rlckit_core::model::propagation_delay;
use rlckit_interconnect::{DistributedLine, Technology};
use rlckit_units::{Area, Capacitance, Energy, Inductance, Resistance, Time, Voltage};

use crate::error::RepeaterError;
use crate::{rc, rlc};

/// A repeater-insertion problem: one line and one buffer family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeaterProblem {
    total_resistance: Resistance,
    total_inductance: Inductance,
    total_capacitance: Capacitance,
    buffer_resistance: Resistance,
    buffer_capacitance: Capacitance,
    buffer_area: Area,
    supply: Voltage,
}

/// A candidate or optimum repeater design for a [`RepeaterProblem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeaterDesign {
    /// Repeater size as a multiple of the minimum buffer, `h`.
    pub size: f64,
    /// Number of line sections, `k` (continuous; round for a physical design).
    pub sections: f64,
    /// Total propagation delay of the repeater system at this design point.
    pub total_delay: Time,
}

impl RepeaterProblem {
    /// Creates a problem from explicit totals and buffer parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RepeaterError::InvalidParameter`] if any value is
    /// non-positive or not finite (the buffer area may be zero).
    pub fn new(
        total_resistance: Resistance,
        total_inductance: Inductance,
        total_capacitance: Capacitance,
        buffer_resistance: Resistance,
        buffer_capacitance: Capacitance,
        buffer_area: Area,
        supply: Voltage,
    ) -> Result<Self, RepeaterError> {
        let strictly_positive = |v: f64, what: &'static str| -> Result<(), RepeaterError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(RepeaterError::InvalidParameter { what, value: v })
            }
        };
        strictly_positive(total_resistance.ohms(), "total line resistance")?;
        strictly_positive(total_inductance.henries(), "total line inductance")?;
        strictly_positive(total_capacitance.farads(), "total line capacitance")?;
        strictly_positive(buffer_resistance.ohms(), "minimum buffer resistance")?;
        strictly_positive(buffer_capacitance.farads(), "minimum buffer capacitance")?;
        strictly_positive(supply.volts(), "supply voltage")?;
        if !(buffer_area.square_meters() >= 0.0) || !buffer_area.square_meters().is_finite() {
            return Err(RepeaterError::InvalidParameter {
                what: "minimum buffer area",
                value: buffer_area.square_meters(),
            });
        }
        Ok(Self {
            total_resistance,
            total_inductance,
            total_capacitance,
            buffer_resistance,
            buffer_capacitance,
            buffer_area,
            supply,
        })
    }

    /// Creates a problem for a physical line in a given technology.
    ///
    /// # Errors
    ///
    /// Returns [`RepeaterError::InvalidParameter`] under the same rules as
    /// [`RepeaterProblem::new`].
    pub fn for_line(
        line: &DistributedLine,
        technology: &Technology,
    ) -> Result<Self, RepeaterError> {
        Self::new(
            line.total_resistance(),
            line.total_inductance(),
            line.total_capacitance(),
            technology.min_buffer_resistance,
            technology.min_buffer_capacitance,
            technology.min_buffer_area,
            technology.supply,
        )
    }

    /// The `T_{L/R}` figure of merit of Eq. (13) for this problem.
    pub fn t_l_over_r(&self) -> f64 {
        rlc::t_l_over_r(
            self.total_resistance,
            self.total_inductance,
            self.buffer_resistance * self.buffer_capacitance,
        )
    }

    /// The [`GateRlcLoad`] of one of `k` sections driven by a size-`h` repeater.
    ///
    /// # Errors
    ///
    /// Returns [`RepeaterError::InvalidParameter`] if `h` or `k` is not
    /// strictly positive and finite.
    pub fn section_load(&self, size: f64, sections: f64) -> Result<GateRlcLoad, RepeaterError> {
        if !(size > 0.0) || !size.is_finite() {
            return Err(RepeaterError::InvalidParameter { what: "repeater size h", value: size });
        }
        if !(sections > 0.0) || !sections.is_finite() {
            return Err(RepeaterError::InvalidParameter {
                what: "section count k",
                value: sections,
            });
        }
        GateRlcLoad::new(
            self.total_resistance / sections,
            self.total_inductance / sections,
            self.total_capacitance / sections,
            self.buffer_resistance / size,
            self.buffer_capacitance * size,
        )
        .map_err(|e| RepeaterError::Optimization {
            reason: format!("section load construction failed: {e}"),
        })
    }

    /// Total propagation delay `tpdtotal(h, k)` of the repeater system,
    /// evaluated with the closed-form section delay (Eq. 9, per the appendix).
    ///
    /// # Errors
    ///
    /// Returns [`RepeaterError::InvalidParameter`] for non-positive `h` or `k`.
    pub(crate) fn total_delay(&self, size: f64, sections: f64) -> Result<Time, RepeaterError> {
        let load = self.section_load(size, sections)?;
        Ok(propagation_delay(&load) * sections)
    }

    /// Builds a design point (evaluating its total delay) from `h` and `k`.
    ///
    /// # Errors
    ///
    /// Returns [`RepeaterError::InvalidParameter`] for non-positive `h` or `k`.
    pub fn design(&self, size: f64, sections: f64) -> Result<RepeaterDesign, RepeaterError> {
        Ok(RepeaterDesign { size, sections, total_delay: self.total_delay(size, sections)? })
    }

    /// The Bakoglu RC-optimal design (Eq. 11) evaluated on this (RLC) line.
    pub fn bakoglu_optimum(&self) -> RepeaterDesign {
        let h = rc::optimal_size_rc(
            self.total_resistance,
            self.total_capacitance,
            self.buffer_resistance,
            self.buffer_capacitance,
        );
        let k = rc::optimal_sections_rc(
            self.total_resistance,
            self.total_capacitance,
            self.buffer_resistance,
            self.buffer_capacitance,
        )
        .max(1.0);
        self.design(h, k).expect("RC optimum is always a valid design point")
    }

    /// The paper's closed-form RLC-optimal design (Eqs. 14–15).
    pub fn rlc_optimum(&self) -> RepeaterDesign {
        let h = rlc::optimal_size_rlc(
            self.total_resistance,
            self.total_inductance,
            self.total_capacitance,
            self.buffer_resistance,
            self.buffer_capacitance,
        );
        let k = rlc::optimal_sections_rlc(
            self.total_resistance,
            self.total_inductance,
            self.total_capacitance,
            self.buffer_resistance,
            self.buffer_capacitance,
        )
        .max(1.0);
        self.design(h, k).expect("RLC optimum is always a valid design point")
    }

    /// Total silicon area of the repeaters in a design, `h·k·Amin`.
    pub fn repeater_area(&self, design: &RepeaterDesign) -> Area {
        self.buffer_area * (design.size * design.sections)
    }

    /// Switching energy per output transition of the whole repeated line:
    /// `(Ct + k·h·C0)·Vdd²` — the dynamic-power argument the paper makes
    /// qualitatively (more/larger repeaters switch more capacitance).
    pub fn switching_energy(&self, design: &RepeaterDesign) -> Energy {
        let repeater_cap = self.buffer_capacitance.farads() * design.size * design.sections;
        let total_cap = self.total_capacitance.farads() + repeater_cap;
        Energy::from_joules(total_cap * self.supply.volts() * self.supply.volts())
    }
}

impl RepeaterDesign {
    /// The nearest physically realisable (integer, at least 1) section count.
    pub fn rounded_sections(&self) -> usize {
        self.sections.round().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::Length;

    fn quarter_micron_problem(mm: f64) -> RepeaterProblem {
        let tech = Technology::quarter_micron();
        let line = tech.global_wire.line(Length::from_millimeters(mm)).unwrap();
        RepeaterProblem::for_line(&line, &tech).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let p = quarter_micron_problem(10.0);
        assert!((p.total_resistance.ohms() - 10.0).abs() < 1e-9);
        assert!((p.total_capacitance.farads() - 2.0e-12).abs() < 1e-21);
        assert!((p.buffer_resistance.ohms() - 10.0e3).abs() < 1e-6);
        assert!((p.buffer_capacitance.farads() - 2.0e-15).abs() < 1e-24);
        assert!(p.buffer_area.square_micrometers() > 0.0);
        assert!((p.supply.volts() - 2.5).abs() < 1e-9);
        assert!((p.t_l_over_r() - 5.0).abs() < 0.5);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let tech = Technology::quarter_micron();
        let bad = RepeaterProblem::new(
            Resistance::ZERO,
            Inductance::from_nanohenries(1.0),
            Capacitance::from_picofarads(1.0),
            tech.min_buffer_resistance,
            tech.min_buffer_capacitance,
            tech.min_buffer_area,
            tech.supply,
        );
        assert!(bad.is_err());
        let bad_supply = RepeaterProblem::new(
            Resistance::from_ohms(10.0),
            Inductance::from_nanohenries(1.0),
            Capacitance::from_picofarads(1.0),
            tech.min_buffer_resistance,
            tech.min_buffer_capacitance,
            tech.min_buffer_area,
            Voltage::ZERO,
        );
        assert!(bad_supply.is_err());
    }

    #[test]
    fn section_load_partitions_the_line() {
        let p = quarter_micron_problem(10.0);
        let load = p.section_load(100.0, 4.0).unwrap();
        assert!((load.total_resistance().ohms() - 2.5).abs() < 1e-9);
        assert!((load.total_capacitance().farads() - 0.5e-12).abs() < 1e-21);
        assert!((load.driver_resistance().ohms() - 100.0).abs() < 1e-9);
        assert!((load.load_capacitance().farads() - 200.0e-15).abs() < 1e-24);
        assert!(p.section_load(0.0, 1.0).is_err());
        assert!(p.section_load(1.0, 0.0).is_err());
        assert!(p.section_load(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn optimum_designs_beat_neighbouring_design_points() {
        let p = quarter_micron_problem(50.0);
        let opt = p.rlc_optimum();
        let d_opt = opt.total_delay;
        for (dh, dk) in [(1.3, 1.0), (0.7, 1.0), (1.0, 1.6), (1.0, 0.6)] {
            let neighbour = p.design(opt.size * dh, (opt.sections * dk).max(1.0)).unwrap();
            assert!(
                neighbour.total_delay.seconds() >= d_opt.seconds() * 0.999,
                "neighbour (h×{dh}, k×{dk}) is faster than the closed-form optimum"
            );
        }
    }

    #[test]
    fn rlc_design_uses_fewer_repeaters_and_is_faster_on_inductive_lines() {
        // A long, wide global wire: T_L/R ≈ 5 and enough RC mass that the RC
        // design wants several repeaters.
        let p = quarter_micron_problem(50.0);
        let rc = p.bakoglu_optimum();
        let rlc = p.rlc_optimum();
        assert!(rlc.sections < rc.sections);
        assert!(rlc.size < rc.size);
        assert!(rlc.total_delay < rc.total_delay);
        assert!(p.repeater_area(&rlc).square_meters() < p.repeater_area(&rc).square_meters());
        assert!(
            p.switching_energy(&rlc).joules() < p.switching_energy(&rc).joules(),
            "the RLC design should switch less repeater capacitance"
        );
    }

    #[test]
    fn repeaters_help_long_resistive_lines() {
        // On a long intermediate-layer (resistive) wire, the optimal repeated
        // delay must beat the unrepeated delay.
        let tech = Technology::quarter_micron();
        let line = tech.intermediate_wire.line(Length::from_millimeters(10.0)).unwrap();
        let p = RepeaterProblem::for_line(&line, &tech).unwrap();
        let opt = p.rlc_optimum();
        let single = p.total_delay(opt.size, 1.0).unwrap();
        assert!(opt.sections > 1.5);
        assert!(opt.total_delay < single);
    }

    #[test]
    fn rounded_sections_is_at_least_one() {
        let d =
            RepeaterDesign { size: 10.0, sections: 0.3, total_delay: Time::from_picoseconds(1.0) };
        assert_eq!(d.rounded_sections(), 1);
        let d =
            RepeaterDesign { size: 10.0, sections: 3.6, total_delay: Time::from_picoseconds(1.0) };
        assert_eq!(d.rounded_sections(), 4);
    }

    #[test]
    fn area_and_energy_scale_with_the_design() {
        let p = quarter_micron_problem(10.0);
        let small = p.design(10.0, 2.0).unwrap();
        let big = p.design(100.0, 4.0).unwrap();
        assert!(p.repeater_area(&big).square_meters() > p.repeater_area(&small).square_meters());
        assert!(p.switching_energy(&big).joules() > p.switching_energy(&small).joules());
        // Energy is at least the bare-line switching energy.
        let bare = p.total_capacitance.farads() * p.supply.volts().powi(2);
        assert!(p.switching_energy(&small).joules() > bare);
    }
}
