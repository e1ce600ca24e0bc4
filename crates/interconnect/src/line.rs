//! Uniform distributed RLC lines.
//!
//! A [`DistributedLine`] is described by per-unit-length resistance,
//! inductance and capacitance plus a length — exactly the `R`, `L`, `C`, `l`
//! of the paper. Total impedances (`Rt`, `Lt`, `Ct`), derived time constants
//! and conversions to lumped ladder specifications all live here.

use rlckit_circuit::ladder::{LadderSpec, SegmentStyle};
use rlckit_units::{
    Capacitance, CapacitancePerLength, Inductance, InductancePerLength, Length, Resistance,
    ResistancePerLength, Voltage,
};

use crate::error::InterconnectError;

/// A uniform interconnect line with distributed RLC parasitics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedLine {
    resistance_per_length: ResistancePerLength,
    inductance_per_length: InductancePerLength,
    capacitance_per_length: CapacitancePerLength,
    length: Length,
}

impl DistributedLine {
    /// Creates a line from per-unit-length parasitics and a length.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] if any value is
    /// non-positive or not finite.
    pub fn new(
        resistance_per_length: ResistancePerLength,
        inductance_per_length: InductancePerLength,
        capacitance_per_length: CapacitancePerLength,
        length: Length,
    ) -> Result<Self, InterconnectError> {
        let check = |v: f64, what: &'static str| -> Result<(), InterconnectError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(InterconnectError::InvalidParameter { what, value: v })
            }
        };
        check(resistance_per_length.ohms_per_meter(), "resistance per length")?;
        check(inductance_per_length.henries_per_meter(), "inductance per length")?;
        check(capacitance_per_length.farads_per_meter(), "capacitance per length")?;
        check(length.meters(), "line length")?;
        Ok(Self { resistance_per_length, inductance_per_length, capacitance_per_length, length })
    }

    /// Creates a line directly from total impedances by distributing them
    /// uniformly over the given length.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] if any value is
    /// non-positive or not finite.
    pub fn from_totals(
        total_resistance: Resistance,
        total_inductance: Inductance,
        total_capacitance: Capacitance,
        length: Length,
    ) -> Result<Self, InterconnectError> {
        if !(length.meters() > 0.0) || !length.meters().is_finite() {
            return Err(InterconnectError::InvalidParameter {
                what: "line length",
                value: length.meters(),
            });
        }
        Self::new(
            total_resistance.per_length_over(length),
            total_inductance.per_length_over(length),
            total_capacitance.per_length_over(length),
            length,
        )
    }

    /// Per-unit-length resistance `R`.
    pub fn resistance_per_length(&self) -> ResistancePerLength {
        self.resistance_per_length
    }

    /// Per-unit-length inductance `L`.
    pub fn inductance_per_length(&self) -> InductancePerLength {
        self.inductance_per_length
    }

    /// Per-unit-length capacitance `C`.
    pub fn capacitance_per_length(&self) -> CapacitancePerLength {
        self.capacitance_per_length
    }

    /// Line length `l`.
    pub fn length(&self) -> Length {
        self.length
    }

    /// Total resistance `Rt = R·l`.
    pub fn total_resistance(&self) -> Resistance {
        self.resistance_per_length * self.length
    }

    /// Total inductance `Lt = L·l`.
    pub fn total_inductance(&self) -> Inductance {
        self.inductance_per_length * self.length
    }

    /// Total capacitance `Ct = C·l`.
    pub fn total_capacitance(&self) -> Capacitance {
        self.capacitance_per_length * self.length
    }

    /// Returns a line with the same per-unit-length parasitics but a new length.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] for a non-positive length.
    pub fn with_length(&self, length: Length) -> Result<Self, InterconnectError> {
        Self::new(
            self.resistance_per_length,
            self.inductance_per_length,
            self.capacitance_per_length,
            length,
        )
    }

    /// Builds a lumped ladder specification for simulating this line driven by
    /// a gate with output resistance `driver` and loaded by `load`.
    pub fn to_ladder_spec(
        &self,
        driver: Resistance,
        load: Capacitance,
        segments: usize,
        supply: Voltage,
    ) -> LadderSpec {
        LadderSpec {
            total_resistance: self.total_resistance(),
            total_inductance: self.total_inductance(),
            total_capacitance: self.total_capacitance(),
            segments,
            style: SegmentStyle::Pi,
            driver_resistance: driver,
            load_capacitance: load,
            supply,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_length() -> (ResistancePerLength, InductancePerLength, CapacitancePerLength) {
        (
            ResistancePerLength::from_ohms_per_meter(25e3),
            InductancePerLength::from_henries_per_meter(5e-7),
            CapacitancePerLength::from_farads_per_meter(200e-12),
        )
    }

    #[test]
    fn totals_scale_with_length() {
        let (r, l, c) = per_length();
        let line = DistributedLine::new(r, l, c, Length::from_millimeters(10.0)).unwrap();
        assert!((line.total_resistance().ohms() - 250.0).abs() < 1e-9);
        assert!((line.total_inductance().henries() - 5.0e-9).abs() < 1e-18);
        assert!((line.total_capacitance().farads() - 2.0e-12).abs() < 1e-21);
        assert_eq!(line.length().millimeters(), 10.0);
        assert_eq!(line.resistance_per_length(), r);
        assert_eq!(line.inductance_per_length(), l);
        assert_eq!(line.capacitance_per_length(), c);
    }

    #[test]
    fn from_totals_round_trips() {
        let line = DistributedLine::from_totals(
            Resistance::from_ohms(500.0),
            Inductance::from_nanohenries(10.0),
            Capacitance::from_picofarads(1.0),
            Length::from_millimeters(5.0),
        )
        .unwrap();
        assert!((line.total_resistance().ohms() - 500.0).abs() < 1e-9);
        assert!((line.total_inductance().henries() - 10.0e-9).abs() < 1e-18);
        assert!((line.total_capacitance().farads() - 1.0e-12).abs() < 1e-21);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let (r, l, c) = per_length();
        assert!(DistributedLine::new(r, l, c, Length::ZERO).is_err());
        assert!(DistributedLine::new(
            ResistancePerLength::ZERO,
            l,
            c,
            Length::from_millimeters(1.0)
        )
        .is_err());
        assert!(DistributedLine::new(
            r,
            InductancePerLength::from_henries_per_meter(f64::NAN),
            c,
            Length::from_millimeters(1.0)
        )
        .is_err());
        assert!(DistributedLine::from_totals(
            Resistance::from_ohms(1.0),
            Inductance::from_nanohenries(1.0),
            Capacitance::from_picofarads(1.0),
            Length::ZERO
        )
        .is_err());
    }

    #[test]
    fn ladder_spec_conversion() {
        let (r, l, c) = per_length();
        let line = DistributedLine::new(r, l, c, Length::from_millimeters(10.0)).unwrap();
        let spec = line.to_ladder_spec(
            Resistance::from_ohms(100.0),
            Capacitance::from_femtofarads(50.0),
            40,
            Voltage::from_volts(1.0),
        );
        assert_eq!(spec.segments, 40);
        assert!((spec.total_resistance.ohms() - 250.0).abs() < 1e-9);
        assert!((spec.driver_resistance.ohms() - 100.0).abs() < 1e-9);
        assert!((spec.load_capacitance.farads() - 50.0e-15).abs() < 1e-24);
    }
}
