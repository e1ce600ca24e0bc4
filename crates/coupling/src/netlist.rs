//! Coupled-ladder netlist construction: N conductors × M π-sections.
//!
//! Every conductor is discretised exactly like the single-line
//! [`LadderSpec`](rlckit_circuit::ladder::LadderSpec) π-ladder: half the
//! shunt capacitance on each side of the series `R·dx`–`L·dx` impedance.
//! On top of that, each section boundary carries the conductor-to-conductor
//! coupling capacitors `Cc_ij·dx` (π-split like the ground capacitance), and
//! the section inductors of different conductors are magnetically coupled
//! with the coefficient `k_ij` of the bus — `k` is dimensionless, so it is
//! the same for every section regardless of `M`.
//!
//! Signal conductors are driven by a step/PWL source behind the driver
//! resistance and loaded by the receiver capacitance; shield conductors are
//! tied to ground at **both** ends through the shield tie resistance.

use rlckit_circuit::{Circuit, NodeId, SourceId, SourceWaveform};
use rlckit_units::{Capacitance, Resistance, Voltage};

use crate::bus::{ConductorRole, CoupledBus};
use crate::error::CouplingError;
use crate::scenario::{LineDrive, SwitchingPattern};

/// Electrical environment of a simulated bus: drivers, loads, discretisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusDrive {
    /// Output resistance of every signal driver (zero allowed: ideal driver).
    pub driver_resistance: Resistance,
    /// Receiver input capacitance on every signal wire (zero allowed).
    pub load_capacitance: Capacitance,
    /// Supply voltage (the swing of rising/falling edges).
    pub supply: Voltage,
    /// Number of lumped π-sections per conductor.
    pub sections: usize,
    /// Resistance of the shield-to-ground ties at each end of every shield
    /// conductor (kept small; zero is allowed and grounds the shield ideally).
    pub shield_tie_resistance: Resistance,
}

impl BusDrive {
    /// A drive with 24 sections and a 1 Ω shield tie.
    pub fn new(driver: Resistance, load: Capacitance, supply: Voltage) -> Self {
        Self {
            driver_resistance: driver,
            load_capacitance: load,
            supply,
            sections: 24,
            shield_tie_resistance: Resistance::from_ohms(1.0),
        }
    }

    /// Returns a copy with a different section count.
    #[must_use]
    pub fn with_sections(mut self, sections: usize) -> Self {
        self.sections = sections;
        self
    }

    fn validate(&self) -> Result<(), CouplingError> {
        let non_negative = |v: f64, what: &'static str| -> Result<(), CouplingError> {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(CouplingError::InvalidParameter { what, value: v })
            }
        };
        non_negative(self.driver_resistance.ohms(), "driver resistance")?;
        non_negative(self.load_capacitance.farads(), "load capacitance")?;
        non_negative(self.shield_tie_resistance.ohms(), "shield tie resistance")?;
        if !(self.supply.volts() > 0.0) || !self.supply.volts().is_finite() {
            return Err(CouplingError::InvalidParameter {
                what: "supply voltage",
                value: self.supply.volts(),
            });
        }
        if self.sections == 0 {
            return Err(CouplingError::InvalidParameter { what: "section count", value: 0.0 });
        }
        Ok(())
    }
}

/// A built coupled-bus circuit plus its interesting nodes.
#[derive(Debug, Clone)]
pub struct BusCircuit {
    /// The assembled netlist.
    pub circuit: Circuit,
    /// The source driving each conductor, in conductor order.
    pub sources: Vec<SourceId>,
    /// Line input node of each conductor (after the driver/tie resistance).
    pub inputs: Vec<NodeId>,
    /// Far-end output node of each conductor.
    pub outputs: Vec<NodeId>,
    pub(crate) drives: Vec<LineDrive>,
    pub(crate) supply: Voltage,
    /// Conductor index of each signal wire, precomputed at build time.
    signal_conductors: Vec<usize>,
}

impl BusCircuit {
    /// Output node of signal wire `signal` (shields are skipped in the count).
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::LineIndex`] for an out-of-range signal wire.
    pub(crate) fn signal_output(&self, signal: usize) -> Result<NodeId, CouplingError> {
        Ok(self.outputs[self.signal_conductor(signal)?])
    }

    /// Conductor index of signal wire `signal` (shields skipped in the count).
    pub(crate) fn signal_conductor(&self, signal: usize) -> Result<usize, CouplingError> {
        self.signal_conductors
            .get(signal)
            .copied()
            .ok_or(CouplingError::LineIndex { index: signal, lines: self.signal_conductors.len() })
    }
}

/// Builds the driven N×M coupled-ladder circuit for a bus, a switching
/// pattern (one drive per *signal* wire) and a [`BusDrive`].
///
/// # Errors
///
/// Returns [`CouplingError::InvalidParameter`] if the pattern length does not
/// match the number of signal wires or the drive is invalid, and propagates
/// circuit-construction errors.
pub fn build_bus_circuit(
    bus: &CoupledBus,
    pattern: &SwitchingPattern,
    drive: &BusDrive,
) -> Result<BusCircuit, CouplingError> {
    drive.validate()?;
    let n = bus.conductors();
    let signals = bus.signal_indices();
    if pattern.lines() != signals.len() {
        return Err(CouplingError::InvalidParameter {
            what: "switching pattern length (must equal the number of signal wires)",
            value: pattern.lines() as f64,
        });
    }
    let m = drive.sections;
    let dx = bus.length().meters() / m as f64;

    // Conductor-order drives: pattern entries for signals, Quiet for shields.
    let mut drives = vec![LineDrive::Quiet; n];
    for (slot, &conductor) in signals.iter().enumerate() {
        drives[conductor] = pattern.drive(slot)?;
    }

    let mut circuit = Circuit::new();
    let gnd = circuit.ground();
    let mut sources = Vec::with_capacity(n);
    let mut inputs = Vec::with_capacity(n);
    for (i, line_drive) in drives.iter().enumerate() {
        let source_node = circuit.add_node();
        let waveform = match bus.role(i) {
            ConductorRole::Signal => line_drive.waveform(drive.supply),
            ConductorRole::Shield => SourceWaveform::Dc { level: Voltage::ZERO },
        };
        sources.push(circuit.add_voltage_source(source_node, gnd, waveform)?);
        let series = match bus.role(i) {
            ConductorRole::Signal => drive.driver_resistance,
            ConductorRole::Shield => drive.shield_tie_resistance,
        };
        let input = if series.ohms() > 0.0 {
            let node = circuit.add_node();
            circuit.add_resistor(source_node, node, series)?;
            node
        } else {
            source_node
        };
        inputs.push(input);
    }

    let mut prev = inputs.clone();
    for _ in 0..m {
        stamp_shunt_halves(&mut circuit, bus, &prev, dx)?;
        let mut next = Vec::with_capacity(n);
        let mut section_inductors = Vec::with_capacity(n);
        for (i, &near) in prev.iter().enumerate() {
            let mid = circuit.add_node();
            let far = circuit.add_node();
            circuit.add_resistor(
                near,
                mid,
                Resistance::from_ohms(bus.resistance(i).ohms_per_meter() * dx),
            )?;
            let l = circuit.add_inductor(
                mid,
                far,
                rlckit_units::Inductance::from_henries(
                    bus.self_inductance(i).henries_per_meter() * dx,
                ),
            )?;
            section_inductors.push(l);
            next.push(far);
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let k = bus.coupling_coefficient(i, j);
                if k != 0.0 {
                    circuit.add_mutual_inductor(section_inductors[i], section_inductors[j], k)?;
                }
            }
        }
        stamp_shunt_halves(&mut circuit, bus, &next, dx)?;
        prev = next;
    }

    for (i, &output) in prev.iter().enumerate() {
        match bus.role(i) {
            ConductorRole::Signal => {
                if drive.load_capacitance.farads() > 0.0 {
                    circuit.add_capacitor(output, gnd, drive.load_capacitance)?;
                }
            }
            ConductorRole::Shield => {
                // Ground the far end of the shield too.
                if drive.shield_tie_resistance.ohms() > 0.0 {
                    circuit.add_resistor(output, gnd, drive.shield_tie_resistance)?;
                } else {
                    circuit.add_voltage_source(
                        output,
                        gnd,
                        SourceWaveform::Dc { level: Voltage::ZERO },
                    )?;
                }
            }
        }
    }

    Ok(BusCircuit {
        circuit,
        sources,
        inputs,
        outputs: prev,
        drives,
        supply: drive.supply,
        signal_conductors: signals,
    })
}

/// Stamps half of every shunt capacitance (ground and coupling) at one
/// section boundary — the π-split; interior boundaries receive two halves.
fn stamp_shunt_halves(
    circuit: &mut Circuit,
    bus: &CoupledBus,
    nodes: &[NodeId],
    dx: f64,
) -> Result<(), CouplingError> {
    let gnd = circuit.ground();
    for (i, &node) in nodes.iter().enumerate() {
        let cg = bus.ground_capacitance(i).farads_per_meter() * dx;
        circuit.add_capacitor(node, gnd, rlckit_units::Capacitance::from_farads(cg / 2.0))?;
    }
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            let cc = bus.coupling_capacitance(i, j).farads_per_meter() * dx;
            if cc > 0.0 {
                circuit.add_capacitor(
                    nodes[i],
                    nodes[j],
                    rlckit_units::Capacitance::from_farads(cc / 2.0),
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::UniformBusSpec;
    use rlckit_units::{CapacitancePerLength, InductancePerLength, Length, ResistancePerLength};

    fn bus() -> CoupledBus {
        UniformBusSpec {
            lines: 3,
            resistance: ResistancePerLength::from_ohms_per_millimeter(1.3),
            self_inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
            ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
            coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
            inductive_coupling: vec![0.35, 0.15],
            length: Length::from_millimeters(5.0),
        }
        .build()
        .unwrap()
    }

    fn drive() -> BusDrive {
        BusDrive::new(
            Resistance::from_ohms(120.0),
            Capacitance::from_femtofarads(100.0),
            Voltage::from_volts(1.8),
        )
        .with_sections(4)
    }

    #[test]
    fn build_produces_expected_topology() {
        let bus = bus();
        let pattern = SwitchingPattern::even_mode(3).unwrap();
        let built = build_bus_circuit(&bus, &pattern, &drive()).unwrap();
        assert_eq!(built.sources.len(), 3);
        assert_eq!(built.inputs.len(), 3);
        assert_eq!(built.outputs.len(), 3);
        // Per conductor: source + driver R + per section (R + L) + load C;
        // per section: 3 ground-half-C per boundary pair (2×3) and 2 coupling
        // halves per boundary (adjacent pairs only) and 3 mutual K elements.
        let m = 4;
        let expected = 3 * (1 + 1) // sources + driver resistors
            + m * (3 * 2)          // series R and L
            + m * 2 * 3            // ground cap halves (2 boundaries/section)
            + m * 2 * 2            // coupling cap halves (2 adjacent pairs)
            + m * 3                // mutual K elements (3 pairs, all k != 0)
            + 3; // load caps
        assert_eq!(built.circuit.elements().len(), expected);
        assert_eq!(built.signal_output(1).unwrap(), built.outputs[1]);
        assert!(built.signal_output(3).is_err());
    }

    #[test]
    fn shields_are_grounded_and_take_no_pattern_entry() {
        let shielded = UniformBusSpec {
            lines: 2,
            resistance: ResistancePerLength::from_ohms_per_millimeter(1.3),
            self_inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
            ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
            coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
            inductive_coupling: vec![0.35, 0.15],
            length: Length::from_millimeters(5.0),
        }
        .build_shielded()
        .unwrap();
        assert_eq!(shielded.conductors(), 3);
        // The pattern covers the two signal wires only.
        let pattern = SwitchingPattern::even_mode(2).unwrap();
        let built = build_bus_circuit(&shielded, &pattern, &drive()).unwrap();
        assert_eq!(built.sources.len(), 3);
        // Signal outputs skip the shield in the middle.
        assert_eq!(built.signal_output(1).unwrap(), built.outputs[2]);
        // A three-entry pattern no longer matches the two signal wires.
        let wrong = SwitchingPattern::even_mode(3).unwrap();
        assert!(build_bus_circuit(&shielded, &wrong, &drive()).is_err());
    }

    #[test]
    fn invalid_drives_are_rejected() {
        let bus = bus();
        let pattern = SwitchingPattern::even_mode(3).unwrap();
        let mut bad = drive();
        bad.sections = 0;
        assert!(build_bus_circuit(&bus, &pattern, &bad).is_err());
        let mut bad = drive();
        bad.driver_resistance = Resistance::from_ohms(-1.0);
        assert!(build_bus_circuit(&bus, &pattern, &bad).is_err());
        let mut bad = drive();
        bad.supply = Voltage::ZERO;
        assert!(build_bus_circuit(&bus, &pattern, &bad).is_err());
    }
}
