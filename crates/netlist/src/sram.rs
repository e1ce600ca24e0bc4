//! SRAM bitline/wordline RC array workload.
//!
//! A `rows × cols` memory array read, modeled at the RC level: a step-driven
//! *wordline* per row (the selected row driven through the driver resistance,
//! unselected rows held at ground), a *bitline* per column, and a linearised
//! cell at each crossing — selected-row cells conduct through their access
//! device onto the bitline, unselected cells only load their wordline
//! capacitively and leak to ground. All bitlines join through a column mux
//! (low resistance on the selected column, high on the rest) into a single
//! sense node, whose 50% crossing is the read delay.
//!
//! The generator emits the array as a *deck* — subcircuits with parameters,
//! one `X` instance per cell — and [`SramArraySpec::build_circuit`] constructs
//! the identical circuit programmatically, mirroring the deck's node and
//! element creation order exactly. The two paths producing `==` circuits is
//! the differential guarantee the test suite locks down.
//!
//! The column-mux joins make the conductance pattern genuinely non-tree-like
//! (every column is a loop through the shared sense node), and at 64×64 the
//! MNA system passes 10⁴ unknowns — the sparse-backend scaling workload of
//! this crate's `sram_scaling` bench.

use std::fmt::Write as _;

use rlckit_circuit::transient::{measure_transient, StopRule, TransientOptions};
use rlckit_circuit::{
    Circuit, CircuitError, NodeId, ResolvedBackend, SolverBackend, SourceId, SourceWaveform,
};
use rlckit_units::{Capacitance, Resistance, Time, Voltage};

use crate::lower::parse_circuit;

/// Description of an SRAM array read at the linear RC level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramArraySpec {
    /// Number of wordlines (rows), ≥ 1.
    pub rows: usize,
    /// Number of bitlines (columns), ≥ 1.
    pub cols: usize,
    /// Index of the row whose wordline is driven (the rest are held low).
    pub selected_row: usize,
    /// Index of the column whose mux is on (the rest see the off resistance).
    pub selected_col: usize,
    /// Supply voltage of the wordline step.
    pub supply: Voltage,
    /// Wordline driver (and holder) resistance.
    pub driver_resistance: Resistance,
    /// Wordline resistance per cell pitch.
    pub wordline_resistance: Resistance,
    /// Wordline wire capacitance per cell pitch.
    pub wordline_capacitance: Capacitance,
    /// Bitline resistance per cell pitch.
    pub bitline_resistance: Resistance,
    /// Bitline wire capacitance per cell pitch.
    pub bitline_capacitance: Capacitance,
    /// On-resistance of a selected cell's access device (wordline → cell).
    pub access_resistance: Resistance,
    /// Resistance from a selected cell onto its bitline.
    pub pass_resistance: Resistance,
    /// Internal storage-node capacitance of every cell.
    pub cell_capacitance: Capacitance,
    /// Gate capacitance an unselected cell presents to its wordline.
    pub gate_capacitance: Capacitance,
    /// Leak resistance tying unselected storage nodes to ground.
    pub leak_resistance: Resistance,
    /// Junction capacitance an unselected cell presents to its bitline.
    pub junction_capacitance: Capacitance,
    /// Column-mux on resistance (selected column).
    pub mux_on_resistance: Resistance,
    /// Column-mux off resistance (unselected columns).
    pub mux_off_resistance: Resistance,
    /// Capacitance at the shared sense node.
    pub sense_capacitance: Capacitance,
}

impl SramArraySpec {
    /// An array with plausible deep-submicron per-cell values; the selected
    /// cell is the far corner (last row read through the last column).
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            selected_row: rows.saturating_sub(1),
            selected_col: cols.saturating_sub(1),
            supply: Voltage::from_volts(1.8),
            driver_resistance: Resistance::from_ohms(200.0),
            wordline_resistance: Resistance::from_ohms(2.0),
            wordline_capacitance: Capacitance::from_femtofarads(0.3),
            bitline_resistance: Resistance::from_ohms(1.5),
            bitline_capacitance: Capacitance::from_femtofarads(0.4),
            access_resistance: Resistance::from_kilohms(2.0),
            pass_resistance: Resistance::from_kilohms(4.0),
            cell_capacitance: Capacitance::from_femtofarads(1.5),
            gate_capacitance: Capacitance::from_femtofarads(2.0),
            leak_resistance: Resistance::from_ohms(1e7),
            junction_capacitance: Capacitance::from_femtofarads(0.5),
            mux_on_resistance: Resistance::from_kilohms(1.0),
            mux_off_resistance: Resistance::from_ohms(1e6),
            sense_capacitance: Capacitance::from_femtofarads(20.0),
        }
    }

    fn validate(&self) -> Result<(), CircuitError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(CircuitError::InvalidValue {
                what: "SRAM array dimensions",
                value: (self.rows * self.cols) as f64,
            });
        }
        if self.selected_row >= self.rows {
            return Err(CircuitError::InvalidValue {
                what: "SRAM selected row",
                value: self.selected_row as f64,
            });
        }
        if self.selected_col >= self.cols {
            return Err(CircuitError::InvalidValue {
                what: "SRAM selected column",
                value: self.selected_col as f64,
            });
        }
        let check = |value: f64, what: &'static str| -> Result<(), CircuitError> {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(CircuitError::InvalidValue { what, value })
            }
        };
        check(self.supply.volts(), "SRAM supply")?;
        check(self.driver_resistance.ohms(), "SRAM driver resistance")?;
        check(self.wordline_resistance.ohms(), "SRAM wordline resistance")?;
        check(self.wordline_capacitance.farads(), "SRAM wordline capacitance")?;
        check(self.bitline_resistance.ohms(), "SRAM bitline resistance")?;
        check(self.bitline_capacitance.farads(), "SRAM bitline capacitance")?;
        check(self.access_resistance.ohms(), "SRAM access resistance")?;
        check(self.pass_resistance.ohms(), "SRAM pass resistance")?;
        check(self.cell_capacitance.farads(), "SRAM cell capacitance")?;
        check(self.gate_capacitance.farads(), "SRAM gate capacitance")?;
        check(self.leak_resistance.ohms(), "SRAM leak resistance")?;
        check(self.junction_capacitance.farads(), "SRAM junction capacitance")?;
        check(self.mux_on_resistance.ohms(), "SRAM mux on resistance")?;
        check(self.mux_off_resistance.ohms(), "SRAM mux off resistance")?;
        check(self.sense_capacitance.farads(), "SRAM sense capacitance")
    }

    /// MNA unknowns of the lowered array: one node per cell crossing on the
    /// wordline, bitline and storage layers, plus the source pad, the sense
    /// node and the voltage-source branch.
    pub(crate) fn unknown_count(&self) -> usize {
        3 * self.rows * self.cols + 3
    }

    /// Emits the array as a deck: two parameterized cell subcircuits and one
    /// `X` instance per crossing. [`crate::parse_circuit`] lowers it to the
    /// same circuit [`SramArraySpec::build_circuit`] constructs.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for degenerate dimensions,
    /// out-of-range selections or non-positive element values.
    pub(crate) fn emit_deck(&self) -> Result<String, CircuitError> {
        self.validate()?;
        let mut deck = String::new();
        let _ = writeln!(
            deck,
            "* sram array {}x{}, read of cell ({}, {})",
            self.rows, self.cols, self.selected_row, self.selected_col
        );
        let _ = writeln!(
            deck,
            ".subckt cell_on w b ra={} rp={} cc={}",
            self.access_resistance.ohms(),
            self.pass_resistance.ohms(),
            self.cell_capacitance.farads()
        );
        deck.push_str("Ra w s {ra}\nRp s b {rp}\nCc s 0 {cc}\n.ends cell_on\n");
        let _ = writeln!(
            deck,
            ".subckt cell_off w b cg={} cc={} rl={} cj={}",
            self.gate_capacitance.farads(),
            self.cell_capacitance.farads(),
            self.leak_resistance.ohms(),
            self.junction_capacitance.farads()
        );
        deck.push_str("Cg w s {cg}\nCc s 0 {cc}\nRl s 0 {rl}\nCj b 0 {cj}\n.ends cell_off\n");
        let _ = writeln!(deck, "Vwl vsrc 0 STEP({} 0)", self.supply.volts());
        for r in 0..self.rows {
            if r == self.selected_row {
                let _ = writeln!(deck, "Rdrv{r} vsrc w_{r}_0 {}", self.driver_resistance.ohms());
            } else {
                let _ = writeln!(deck, "Rdrv{r} w_{r}_0 0 {}", self.driver_resistance.ohms());
            }
            for c in 1..self.cols {
                let _ = writeln!(
                    deck,
                    "Rw{r}_{c} w_{r}_{} w_{r}_{c} {}",
                    c - 1,
                    self.wordline_resistance.ohms()
                );
            }
            for c in 0..self.cols {
                let _ =
                    writeln!(deck, "Cw{r}_{c} w_{r}_{c} 0 {}", self.wordline_capacitance.farads());
            }
        }
        for r in 0..self.rows {
            let cell = if r == self.selected_row { "cell_on" } else { "cell_off" };
            for c in 0..self.cols {
                let _ = writeln!(deck, "Xc{r}_{c} w_{r}_{c} b_{c}_{r} {cell}");
            }
        }
        for c in 0..self.cols {
            for r in 1..self.rows {
                let _ = writeln!(
                    deck,
                    "Rb{c}_{r} b_{c}_{} b_{c}_{r} {}",
                    r - 1,
                    self.bitline_resistance.ohms()
                );
            }
            for r in 0..self.rows {
                let _ =
                    writeln!(deck, "Cb{c}_{r} b_{c}_{r} 0 {}", self.bitline_capacitance.farads());
            }
            let mux = if c == self.selected_col {
                self.mux_on_resistance
            } else {
                self.mux_off_resistance
            };
            let _ = writeln!(deck, "Rmux{c} b_{c}_{} sense {}", self.rows - 1, mux.ohms());
        }
        let _ = writeln!(deck, "Csense sense 0 {}", self.sense_capacitance.farads());
        deck.push_str(".end\n");
        Ok(deck)
    }

    /// Builds the array circuit programmatically, creating nodes and elements
    /// in exactly the order lowering `SramArraySpec::emit_deck` does — the
    /// two are `==` as [`Circuit`]s.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for the same inputs
    /// `SramArraySpec::emit_deck` rejects.
    pub fn build_circuit(&self) -> Result<SramNet, CircuitError> {
        self.validate()?;
        let mut circuit = Circuit::new();
        let gnd = circuit.ground();
        let vsrc = circuit.add_node();
        let source = circuit.add_voltage_source(
            vsrc,
            gnd,
            SourceWaveform::Step { amplitude: self.supply, delay: Time::ZERO },
        )?;
        let mut wordline = vec![vec![NodeId::GROUND; self.cols]; self.rows];
        for (r, row) in wordline.iter_mut().enumerate() {
            row[0] = circuit.add_node();
            if r == self.selected_row {
                circuit.add_resistor(vsrc, row[0], self.driver_resistance)?;
            } else {
                circuit.add_resistor(row[0], gnd, self.driver_resistance)?;
            }
            for c in 1..self.cols {
                row[c] = circuit.add_node();
                circuit.add_resistor(row[c - 1], row[c], self.wordline_resistance)?;
            }
            for &node in row.iter() {
                circuit.add_capacitor(node, gnd, self.wordline_capacitance)?;
            }
        }
        // Cell instances in row-major order; each creates its bitline tap
        // node first, then its internal storage node, exactly as port
        // binding and body lowering do for the deck's X cards.
        let mut bitline = vec![vec![NodeId::GROUND; self.rows]; self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                let w = wordline[r][c];
                let b = circuit.add_node();
                bitline[c][r] = b;
                let s = circuit.add_node();
                if r == self.selected_row {
                    circuit.add_resistor(w, s, self.access_resistance)?;
                    circuit.add_resistor(s, b, self.pass_resistance)?;
                    circuit.add_capacitor(s, gnd, self.cell_capacitance)?;
                } else {
                    circuit.add_capacitor(w, s, self.gate_capacitance)?;
                    circuit.add_capacitor(s, gnd, self.cell_capacitance)?;
                    circuit.add_resistor(s, gnd, self.leak_resistance)?;
                    circuit.add_capacitor(b, gnd, self.junction_capacitance)?;
                }
            }
        }
        let mut sense = NodeId::GROUND;
        for (c, col) in bitline.iter().enumerate() {
            for r in 1..self.rows {
                circuit.add_resistor(col[r - 1], col[r], self.bitline_resistance)?;
            }
            for &node in col.iter() {
                circuit.add_capacitor(node, gnd, self.bitline_capacitance)?;
            }
            if c == 0 {
                sense = circuit.add_node();
            }
            let mux = if c == self.selected_col {
                self.mux_on_resistance
            } else {
                self.mux_off_resistance
            };
            circuit.add_resistor(col[self.rows - 1], sense, mux)?;
        }
        circuit.add_capacitor(sense, gnd, self.sense_capacitance)?;
        Ok(SramNet { circuit, source, wordline_input: wordline[self.selected_row][0], sense })
    }

    /// Emits the deck and lowers it through the parser, returning the same
    /// net [`SramArraySpec::build_circuit`] builds (the sense and wordline
    /// nodes are recovered from the parsed name maps).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for a bad spec; a
    /// [`crate::ParseError`] from the generated deck would be a generator
    /// bug and is reported as [`CircuitError::Measurement`].
    pub fn lower_deck(&self) -> Result<SramNet, CircuitError> {
        let deck = self.emit_deck()?;
        let parsed = parse_circuit(&deck).map_err(|e| CircuitError::Measurement {
            reason: format!("generated SRAM deck failed to lower: {e}"),
        })?;
        let node = |name: &str| {
            parsed.node(name).ok_or_else(|| CircuitError::Measurement {
                reason: format!("generated SRAM deck lost node {name}"),
            })
        };
        let source = parsed.source("Vwl").ok_or_else(|| CircuitError::Measurement {
            reason: "generated SRAM deck lost source Vwl".to_owned(),
        })?;
        let wordline_input = node(&format!("w_{}_0", self.selected_row))?;
        let sense = node("sense")?;
        Ok(SramNet { circuit: parsed.circuit, source, wordline_input, sense })
    }

    /// A timestep resolving the bitline RC with ~2000 points per horizon.
    pub(crate) fn suggested_timestep(&self) -> Time {
        Time::from_seconds(self.suggested_stop_time().seconds() / 2000.0)
    }

    /// A horizon of several time constants of the worst series read path
    /// charging the full bitline + sense capacitance (an overestimate —
    /// parallel columns only help).
    pub(crate) fn suggested_stop_time(&self) -> Time {
        let path_r = self.driver_resistance.ohms()
            + self.cols as f64 * self.wordline_resistance.ohms()
            + self.access_resistance.ohms()
            + self.pass_resistance.ohms()
            + self.rows as f64 * self.bitline_resistance.ohms()
            + self.mux_on_resistance.ohms();
        let total_c = self.sense_capacitance.farads()
            + self.rows as f64
                * (self.bitline_capacitance.farads() + self.junction_capacitance.farads())
            + self.cols as f64
                * (self.wordline_capacitance.farads() + self.gate_capacitance.farads())
            + self.cell_capacitance.farads();
        Time::from_seconds(6.0 * path_r * total_c)
    }
}

/// A built (or lowered) SRAM array with its interesting nodes.
#[derive(Debug, Clone)]
pub struct SramNet {
    /// The assembled netlist.
    pub circuit: Circuit,
    /// The wordline step source.
    pub source: SourceId,
    /// The selected row's wordline input (after the driver).
    pub wordline_input: NodeId,
    /// The shared sense node behind the column mux — the measured output.
    pub sense: NodeId,
}

/// Sense-node timing of one simulated read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramReadReport {
    /// 50% delay of the sense node relative to the wordline step.
    pub delay_50: Time,
    /// 10%–90% rise time of the sense node.
    pub rise_time: Time,
    /// MNA unknowns of the simulated system.
    pub unknowns: usize,
    /// Which solver kernel factorised the system.
    pub backend: ResolvedBackend,
}

/// Generates the deck, lowers it through the parser, and simulates the read
/// with the requested backend, recording only the sense node and extending
/// the horizon if it has not crossed 50% yet ([`measure_transient`]). The
/// run ends once the sense node has crossed 90%, the last level the report
/// reads, so delay and rise time are bit for bit those of a run to the
/// horizon.
///
/// # Errors
///
/// Propagates construction/analysis errors, or [`CircuitError::Measurement`]
/// if the sense node never crosses 50% of the supply.
pub fn measure_sram_read(
    spec: &SramArraySpec,
    backend: SolverBackend,
) -> Result<SramReadReport, CircuitError> {
    let _span = rlckit_telemetry::span("netlist.sram_read");
    let net = spec.lower_deck()?;
    let options = TransientOptions::new(spec.suggested_stop_time(), spec.suggested_timestep())
        .with_backend(backend);
    let stop = StopRule::rising(0.9 * spec.supply.volts());
    measure_transient(&net.circuit, &[net.sense], &options, Some(stop), |result| {
        let wave = result.node_voltage(net.sense);
        Ok(SramReadReport {
            delay_50: wave.delay_50(spec.supply)?,
            rise_time: wave.rise_time(spec.supply)?,
            unknowns: spec.unknown_count(),
            backend: result.backend(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_circuit::dc::operating_point_at;
    use rlckit_circuit::netlist::Element;

    #[test]
    fn deck_and_programmatic_builds_are_identical() {
        for (rows, cols) in [(1, 1), (2, 3), (4, 4), (5, 2)] {
            let mut spec = SramArraySpec::new(rows, cols);
            spec.selected_row = rows / 2;
            spec.selected_col = cols / 2;
            let built = spec.build_circuit().unwrap();
            let lowered = spec.lower_deck().unwrap();
            assert_eq!(
                built.circuit, lowered.circuit,
                "{rows}x{cols}: deck lowering must mirror the programmatic build"
            );
            assert_eq!(built.sense, lowered.sense);
            assert_eq!(built.wordline_input, lowered.wordline_input);
            assert_eq!(built.source, lowered.source);
            assert_eq!(built.circuit.node_count(), 3 * rows * cols + 3);
        }
    }

    #[test]
    fn unknown_count_matches_the_assembled_system() {
        let spec = SramArraySpec::new(3, 5);
        let net = spec.build_circuit().unwrap();
        let mna = rlckit_circuit::mna::MnaSystem::build(&net.circuit).unwrap();
        assert_eq!(mna.dim(), spec.unknown_count());
    }

    #[test]
    fn dc_read_settles_at_the_supply() {
        let spec = SramArraySpec::new(3, 3);
        let net = spec.lower_deck().unwrap();
        // Long after the wordline step: the static read settles at Vdd.
        let op = operating_point_at(&net.circuit, Time::from_seconds(1.0)).unwrap();
        let sense = op.node_voltage(net.sense).volts();
        assert!(
            (sense - spec.supply.volts()).abs() < 1e-6,
            "sense DC level {sense} should settle at the supply"
        );
    }

    #[test]
    fn read_delay_is_measurable_and_grows_with_the_array() {
        let small = measure_sram_read(&SramArraySpec::new(2, 2), SolverBackend::Auto).unwrap();
        let large = measure_sram_read(&SramArraySpec::new(8, 8), SolverBackend::Auto).unwrap();
        assert!(small.delay_50.seconds() > 0.0);
        assert!(large.delay_50.seconds() > small.delay_50.seconds());
        assert_eq!(large.unknowns, 3 * 64 + 3);
    }

    #[test]
    fn a_read_that_ends_at_90_percent_matches_a_run_to_the_horizon() {
        let spec = SramArraySpec::new(8, 8);
        let read = measure_sram_read(&spec, SolverBackend::Auto).unwrap();
        let net = spec.lower_deck().unwrap();
        let options = TransientOptions::new(spec.suggested_stop_time(), spec.suggested_timestep());
        let run = |stop| {
            measure_transient(&net.circuit, &[net.sense], &options, stop, |r| {
                let wave = r.node_voltage(net.sense);
                let timing = (wave.delay_50(spec.supply)?, wave.rise_time(spec.supply)?);
                Ok::<_, CircuitError>((timing, r.len()))
            })
            .unwrap()
        };
        let ((delay, rise), samples) = run(None);
        assert_eq!(read.delay_50.seconds().to_bits(), delay.seconds().to_bits());
        assert_eq!(read.rise_time.seconds().to_bits(), rise.seconds().to_bits());
        assert_eq!(samples, 2001, "the full run takes every step of the horizon");
        let (_, stopped) = run(Some(StopRule::rising(0.9 * spec.supply.volts())));
        assert!(stopped < samples / 2, "the read ends after {stopped} samples");
    }

    #[test]
    fn the_conductance_pattern_is_not_a_tree() {
        // Columns joining at the sense node create loops: edges (counting
        // resistors only) must outnumber a spanning tree's nodes − 1.
        let spec = SramArraySpec::new(4, 4);
        let net = spec.build_circuit().unwrap();
        let resistors =
            net.circuit.elements().iter().filter(|e| matches!(e, Element::Resistor { .. })).count();
        let resistive_nodes = 1 // vsrc
            + spec.rows * spec.cols // wordlines
            + spec.rows * spec.cols // bitlines
            + spec.rows * spec.cols // storage nodes
            + 1; // sense
        assert!(
            resistors > resistive_nodes,
            "{resistors} resistors over {resistive_nodes} nodes cannot be a tree"
        );
    }

    #[test]
    fn invalid_specs_are_rejected_by_both_paths() {
        let mut bad = SramArraySpec::new(0, 4);
        assert!(bad.emit_deck().is_err());
        assert!(bad.build_circuit().is_err());
        bad = SramArraySpec::new(4, 4);
        bad.selected_row = 4;
        assert!(bad.emit_deck().is_err());
        bad = SramArraySpec::new(4, 4);
        bad.sense_capacitance = Capacitance::ZERO;
        assert!(matches!(
            bad.build_circuit(),
            Err(CircuitError::InvalidValue { what: "SRAM sense capacitance", .. })
        ));
    }
}
