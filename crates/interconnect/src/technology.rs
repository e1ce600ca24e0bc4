//! Technology presets: minimum-buffer parasitics and representative wires.
//!
//! The paper's repeater expressions are parameterised by the minimum-size
//! buffer output resistance `R0` and input capacitance `C0`; the importance of
//! inductance is governed by `T_{L/R} = sqrt((Lt/Rt)/(R0·C0))`, which grows as
//! `R0·C0` shrinks with technology scaling. The presets below give
//! order-of-magnitude-correct values for a 0.25 µm generation (the paper's
//! "current" technology, for which it states `T_{L/R} ≈ 5` is common on wide
//! wires) and for scaled generations, so the scaling experiment can reproduce
//! the paper's trend without access to the original foundry data.

use rlckit_units::{
    Area, Capacitance, CapacitancePerLength, InductancePerLength, Length, Resistance,
    ResistancePerLength, Time, Voltage,
};

use crate::error::InterconnectError;
use crate::line::DistributedLine;

/// Per-unit-length parasitics of a representative wire class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireClass {
    /// Resistance per unit length.
    pub resistance: ResistancePerLength,
    /// Inductance per unit length.
    pub inductance: InductancePerLength,
    /// Capacitance per unit length.
    pub capacitance: CapacitancePerLength,
}

impl WireClass {
    /// Builds a [`DistributedLine`] of the given length in this wire class.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] for a non-positive length.
    pub fn line(&self, length: Length) -> Result<DistributedLine, InterconnectError> {
        DistributedLine::new(self.resistance, self.inductance, self.capacitance, length)
    }
}

/// A CMOS technology generation, as needed by the repeater-insertion formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Short name of the generation (e.g. `"0.25um"`).
    pub name: &'static str,
    /// Output resistance of a minimum-size buffer, `R0`.
    pub min_buffer_resistance: Resistance,
    /// Input capacitance of a minimum-size buffer, `C0`.
    pub min_buffer_capacitance: Capacitance,
    /// Layout area of a minimum-size buffer, `Amin`.
    pub min_buffer_area: Area,
    /// Nominal supply voltage.
    pub supply: Voltage,
    /// A wide, low-resistance upper-metal wire (clock spines, global buses).
    pub global_wire: WireClass,
    /// A narrower intermediate-layer signal wire.
    pub intermediate_wire: WireClass,
}

impl Technology {
    /// The intrinsic buffer delay scale `R0·C0` of this generation.
    pub fn buffer_time_constant(&self) -> Time {
        self.min_buffer_resistance * self.min_buffer_capacitance
    }

    /// A representative 0.25 µm generation (the paper's contemporary node).
    ///
    /// `R0·C0 = 20 ps`; on the wide global wire class a 10 mm line gives
    /// `T_{L/R} ≈ 5`, matching the paper's statement that values around 5 are
    /// common for wide wires in a 0.25 µm technology.
    pub fn quarter_micron() -> Self {
        Self {
            name: "0.25um",
            min_buffer_resistance: Resistance::from_kilohms(10.0),
            min_buffer_capacitance: Capacitance::from_femtofarads(2.0),
            min_buffer_area: Area::from_square_micrometers(4.0),
            supply: Voltage::from_volts(2.5),
            global_wire: WireClass {
                resistance: ResistancePerLength::from_ohms_per_millimeter(1.0),
                inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
                capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.2),
            },
            intermediate_wire: WireClass {
                resistance: ResistancePerLength::from_ohms_per_millimeter(25.0),
                inductance: InductancePerLength::from_nanohenries_per_millimeter(0.4),
                capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.15),
            },
        }
    }

    /// A representative 0.18 µm generation.
    pub fn node_180nm() -> Self {
        Self {
            name: "0.18um",
            min_buffer_resistance: Resistance::from_kilohms(9.0),
            min_buffer_capacitance: Capacitance::from_femtofarads(1.5),
            min_buffer_area: Area::from_square_micrometers(2.1),
            supply: Voltage::from_volts(1.8),
            global_wire: WireClass {
                resistance: ResistancePerLength::from_ohms_per_millimeter(1.3),
                inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
                capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
            },
            intermediate_wire: WireClass {
                resistance: ResistancePerLength::from_ohms_per_millimeter(40.0),
                inductance: InductancePerLength::from_nanohenries_per_millimeter(0.4),
                capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.16),
            },
        }
    }

    /// A representative 0.13 µm generation.
    pub fn node_130nm() -> Self {
        Self {
            name: "0.13um",
            min_buffer_resistance: Resistance::from_kilohms(8.5),
            min_buffer_capacitance: Capacitance::from_femtofarads(1.0),
            min_buffer_area: Area::from_square_micrometers(1.1),
            supply: Voltage::from_volts(1.2),
            global_wire: WireClass {
                resistance: ResistancePerLength::from_ohms_per_millimeter(1.8),
                inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
                capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.22),
            },
            intermediate_wire: WireClass {
                resistance: ResistancePerLength::from_ohms_per_millimeter(60.0),
                inductance: InductancePerLength::from_nanohenries_per_millimeter(0.4),
                capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.17),
            },
        }
    }

    /// A representative 90 nm generation.
    pub fn node_90nm() -> Self {
        Self {
            name: "90nm",
            min_buffer_resistance: Resistance::from_kilohms(8.0),
            min_buffer_capacitance: Capacitance::from_femtofarads(0.7),
            min_buffer_area: Area::from_square_micrometers(0.6),
            supply: Voltage::from_volts(1.0),
            global_wire: WireClass {
                resistance: ResistancePerLength::from_ohms_per_millimeter(2.5),
                inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
                capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.23),
            },
            intermediate_wire: WireClass {
                resistance: ResistancePerLength::from_ohms_per_millimeter(90.0),
                inductance: InductancePerLength::from_nanohenries_per_millimeter(0.4),
                capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.18),
            },
        }
    }

    /// The built-in generations ordered from the paper's node to the most scaled.
    pub fn roadmap() -> Vec<Self> {
        vec![Self::quarter_micron(), Self::node_180nm(), Self::node_130nm(), Self::node_90nm()]
    }

    /// Output resistance of a buffer `h` times larger than minimum size, `R0/h`.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] if `h` is not positive.
    pub fn buffer_resistance(&self, h: f64) -> Result<Resistance, InterconnectError> {
        if !(h > 0.0) || !h.is_finite() {
            return Err(InterconnectError::InvalidParameter { what: "buffer size h", value: h });
        }
        Ok(self.min_buffer_resistance / h)
    }

    /// Input capacitance of a buffer `h` times larger than minimum size, `h·C0`.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] if `h` is not positive.
    pub fn buffer_capacitance(&self, h: f64) -> Result<Capacitance, InterconnectError> {
        if !(h > 0.0) || !h.is_finite() {
            return Err(InterconnectError::InvalidParameter { what: "buffer size h", value: h });
        }
        Ok(self.min_buffer_capacitance * h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarter_micron_matches_paper_expectations() {
        let t = Technology::quarter_micron();
        assert_eq!(t.name, "0.25um");
        assert!((t.buffer_time_constant().picoseconds() - 20.0).abs() < 1e-9);
        // T_{L/R} = sqrt((Lt/Rt)/(R0 C0)) on a global wire is length-independent
        // (both Lt and Rt scale with l); check it is about 5.
        let line = t.global_wire.line(Length::from_millimeters(10.0)).unwrap();
        let t_lr = ((line.total_inductance().henries() / line.total_resistance().ohms())
            / t.buffer_time_constant().seconds())
        .sqrt();
        assert!((t_lr - 5.0).abs() < 0.5, "T_L/R = {t_lr}");
    }

    #[test]
    fn roadmap_has_strictly_decreasing_buffer_time_constant() {
        let roadmap = Technology::roadmap();
        assert_eq!(roadmap.len(), 4);
        for pair in roadmap.windows(2) {
            assert!(
                pair[1].buffer_time_constant() < pair[0].buffer_time_constant(),
                "{} should have a smaller R0·C0 than {}",
                pair[1].name,
                pair[0].name
            );
        }
    }

    #[test]
    fn sized_buffer_parasitics() {
        let t = Technology::quarter_micron();
        let r = t.buffer_resistance(50.0).unwrap();
        let c = t.buffer_capacitance(50.0).unwrap();
        assert!((r.ohms() - 200.0).abs() < 1e-9);
        assert!((c.farads() - 100.0e-15).abs() < 1e-24);
        assert!(t.buffer_resistance(0.0).is_err());
        assert!(t.buffer_capacitance(-1.0).is_err());
        assert!(t.buffer_resistance(f64::NAN).is_err());
    }

    #[test]
    fn wire_classes_build_lines() {
        let t = Technology::quarter_micron();
        let global = t.global_wire.line(Length::from_millimeters(5.0)).unwrap();
        let intermediate = t.intermediate_wire.line(Length::from_millimeters(5.0)).unwrap();
        assert!(intermediate.total_resistance() > global.total_resistance());
        assert!(t.global_wire.line(Length::ZERO).is_err());
    }

    #[test]
    fn global_wires_are_less_damped_than_intermediate_wires() {
        // The whole point of the paper: wide global wires are the inductive ones.
        let t = Technology::quarter_micron();
        let l = Length::from_millimeters(10.0);
        let global = t.global_wire.line(l).unwrap();
        let intermediate = t.intermediate_wire.line(l).unwrap();
        // Attenuation Rt/2·sqrt(Ct/Lt), the damping factor of the unloaded line.
        let attenuation = |line: &crate::DistributedLine| {
            line.total_resistance().ohms() / 2.0
                * (line.total_capacitance().farads() / line.total_inductance().henries()).sqrt()
        };
        assert!(attenuation(&global) < attenuation(&intermediate));
    }
}
