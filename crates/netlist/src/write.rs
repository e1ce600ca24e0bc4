//! Unparsing: turning any [`Circuit`] back into deck text.
//!
//! The emitted deck is designed so that `parse → lower` reproduces the
//! original circuit *exactly* (`Circuit: PartialEq`):
//!
//! * a `.nodes` directive lists every non-ground node in identifier order, so
//!   numbering — including nodes no element touches — survives the trip;
//! * elements are written in insertion order with generated names
//!   (`R1 C1 L1 K1 V1 I1`, numbered per type);
//! * values use Rust's shortest-round-trip `f64` formatting, which the
//!   parser reads back to the same bits.

use std::fmt::Write as _;

use rlckit_circuit::netlist::Element;
use rlckit_circuit::Circuit;
use rlckit_circuit::SourceWaveform;

fn node_name(id: rlckit_circuit::NodeId) -> String {
    if id.is_ground() {
        "0".to_owned()
    } else {
        format!("n{}", id.index())
    }
}

fn write_waveform(out: &mut String, waveform: &SourceWaveform) {
    match waveform {
        SourceWaveform::Dc { level } => {
            let _ = write!(out, "DC {}", level.volts());
        }
        SourceWaveform::Step { amplitude, delay } => {
            let _ = write!(out, "STEP({} {})", amplitude.volts(), delay.seconds());
        }
        SourceWaveform::Ramp { amplitude, delay, rise_time } => {
            let _ = write!(
                out,
                "RAMP({} {} {})",
                amplitude.volts(),
                delay.seconds(),
                rise_time.seconds()
            );
        }
        SourceWaveform::Pulse { amplitude, delay, edge_time, width } => {
            let _ = write!(
                out,
                "PULSE({} {} {} {})",
                amplitude.volts(),
                delay.seconds(),
                edge_time.seconds(),
                width.seconds()
            );
        }
        SourceWaveform::PieceWiseLinear { points } => {
            out.push_str("PWL(");
            for (i, (t, v)) in points.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{} {}", t.seconds(), v.volts());
            }
            out.push(')');
        }
    }
}

/// Writes `circuit` as a deck the parser lowers back to an equal circuit.
///
/// Note the one lossy corner: an *empty* PWL point list cannot be written
/// (the grammar requires at least one corner), so such a source is emitted
/// as `PWL(0 0)` — the same all-zero excitation.
pub fn circuit_to_deck(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("* deck written by rlckit-netlist\n");
    if circuit.node_count() > 1 {
        out.push_str(".nodes");
        for idx in 1..circuit.node_count() {
            // Wrap onto continuation lines so wide circuits stay readable
            // (and round-trips exercise the `+` joining path).
            if idx > 1 && (idx - 1) % 16 == 0 {
                out.push_str("\n+");
            }
            let _ = write!(out, " n{idx}");
        }
        out.push('\n');
    }
    let mut counters = [0usize; 6]; // R C L K V I
    let mut bump = |slot: usize| {
        counters[slot] += 1;
        counters[slot]
    };
    for element in circuit.elements() {
        match element {
            Element::Resistor { plus, minus, value } => {
                let _ = writeln!(
                    out,
                    "R{} {} {} {}",
                    bump(0),
                    node_name(*plus),
                    node_name(*minus),
                    value.ohms()
                );
            }
            Element::Capacitor { plus, minus, value } => {
                let _ = writeln!(
                    out,
                    "C{} {} {} {}",
                    bump(1),
                    node_name(*plus),
                    node_name(*minus),
                    value.farads()
                );
            }
            Element::Inductor { plus, minus, value } => {
                let _ = writeln!(
                    out,
                    "L{} {} {} {}",
                    bump(2),
                    node_name(*plus),
                    node_name(*minus),
                    value.henries()
                );
            }
            Element::MutualInductor { first, second, coupling } => {
                let _ = writeln!(
                    out,
                    "K{} L{} L{} {}",
                    bump(3),
                    first.index() + 1,
                    second.index() + 1,
                    coupling
                );
            }
            Element::VoltageSource { plus, minus, waveform, .. } => {
                let _ = write!(out, "V{} {} {} ", bump(4), node_name(*plus), node_name(*minus));
                if matches!(waveform, SourceWaveform::PieceWiseLinear { points } if points.is_empty())
                {
                    out.push_str("PWL(0 0)");
                } else {
                    write_waveform(&mut out, waveform);
                }
                out.push('\n');
            }
            Element::CurrentSource { plus, minus, waveform, .. } => {
                let _ = write!(out, "I{} {} {} ", bump(5), node_name(*plus), node_name(*minus));
                if matches!(waveform, SourceWaveform::PieceWiseLinear { points } if points.is_empty())
                {
                    out.push_str("PWL(0 0)");
                } else {
                    write_waveform(&mut out, waveform);
                }
                out.push('\n');
            }
        }
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::parse_circuit;
    use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

    #[test]
    fn round_trips_an_rlc_circuit_exactly() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(a, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(a, b, Resistance::from_ohms(47.3)).unwrap();
        let l1 = c.add_inductor(b, gnd, Inductance::from_nanohenries(0.37)).unwrap();
        let l2 = c.add_inductor(a, b, Inductance::from_henries(12.0e-12)).unwrap();
        c.add_mutual_inductor(l1, l2, -0.83).unwrap();
        c.add_capacitor(b, gnd, Capacitance::from_femtofarads(210.0)).unwrap();
        c.add_current_source(
            gnd,
            b,
            SourceWaveform::PieceWiseLinear {
                points: vec![
                    (Time::ZERO, Voltage::ZERO),
                    (Time::from_picoseconds(3.0), Voltage::from_volts(0.125)),
                ],
            },
        )
        .unwrap();

        let deck = circuit_to_deck(&c);
        let reparsed = parse_circuit(&deck).unwrap();
        assert_eq!(reparsed.circuit, c);
        // A second trip through the writer is a fixed point.
        assert_eq!(circuit_to_deck(&reparsed.circuit), deck);
    }

    #[test]
    fn unused_nodes_survive_via_the_nodes_directive() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let _spare = c.add_node();
        let _spare2 = c.add_node();
        c.add_resistor(a, c.ground(), Resistance::from_ohms(1.0)).unwrap();
        let reparsed = parse_circuit(&circuit_to_deck(&c)).unwrap();
        assert_eq!(reparsed.circuit, c);
        assert_eq!(reparsed.circuit.node_count(), 4);
    }

    #[test]
    fn wide_circuits_use_continuation_lines() {
        let mut c = Circuit::new();
        let nodes: Vec<_> = (0..40).map(|_| c.add_node()).collect();
        for n in &nodes {
            c.add_capacitor(*n, c.ground(), Capacitance::from_femtofarads(1.0)).unwrap();
        }
        let deck = circuit_to_deck(&c);
        assert!(deck.contains("\n+ "), "the .nodes list should wrap: {deck}");
        let reparsed = parse_circuit(&deck).unwrap();
        assert_eq!(reparsed.circuit, c);
    }

    #[test]
    fn empty_pwl_degrades_to_zero_excitation() {
        let mut c = Circuit::new();
        let a = c.add_node();
        c.add_resistor(a, c.ground(), Resistance::from_ohms(1.0)).unwrap();
        c.add_voltage_source(a, c.ground(), SourceWaveform::PieceWiseLinear { points: vec![] })
            .unwrap();
        let reparsed = parse_circuit(&circuit_to_deck(&c)).unwrap();
        // Not equal (the PWL gained a point) but equivalent at every time.
        match &reparsed.circuit.elements()[1] {
            Element::VoltageSource { waveform, .. } => {
                assert_eq!(waveform.value_at(Time::from_seconds(1.0e-9)).volts(), 0.0);
            }
            other => panic!("unexpected element {other:?}"),
        }
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let gnd = c.ground();
        for v in [1e-18, 3.141592653589793e-7, 12345.678901234567, 9.9e22] {
            c.add_resistor(a, gnd, Resistance::from_ohms(v)).unwrap();
        }
        let reparsed = parse_circuit(&circuit_to_deck(&c)).unwrap();
        assert_eq!(reparsed.circuit, c);
    }
}
