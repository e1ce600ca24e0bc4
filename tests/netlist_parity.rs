//! Differential frontend tests: the same circuit reached through deck text
//! and through the programmatic builders must be indistinguishable.
//!
//! Two kinds of parity are exercised, both to 1e-12 across the dense and
//! sparse solver backends on DC, AC and transient analyses:
//!
//! * **writer parity** — the ladder, coupled-bus and routing-tree workloads
//!   are unparsed with [`circuit_to_deck`] and re-lowered; the frontend must
//!   hand the solvers the *identical* circuit, and every analysis must agree;
//! * **authorship parity** — a hand-written deck (hierarchical, with
//!   parameter overrides) against an independently hand-built circuit, where
//!   agreement is on the physics (probed voltages), not on representation.

use rlckit::circuit::ac::solve_at_with;
use rlckit::circuit::dc::operating_point_of;
use rlckit::circuit::mna::MnaSystem;
use rlckit::circuit::transient::{run_transient, TransientOptions};
use rlckit::circuit::tree::{TreeBranch, TreeSpec};
use rlckit::circuit::{Circuit, NodeId, SolverBackend, SourceId, SourceWaveform};
use rlckit::coupling::bus::UniformBusSpec;
use rlckit::coupling::netlist::{build_bus_circuit, BusDrive};
use rlckit::coupling::scenario::SwitchingPattern;
use rlckit::netlist::{circuit_to_deck, parse_circuit};
use rlckit::numeric::Complex;
use rlckit::prelude::*;

const BACKENDS: [SolverBackend; 2] = [SolverBackend::Dense, SolverBackend::Sparse];

const TOL: f64 = 1e-12;

/// Asserts every analysis agrees between the two circuits on every backend.
///
/// `source` and `probe` are valid for both circuits (writer round trips
/// preserve identifiers exactly).
fn assert_analyses_agree(
    a: &Circuit,
    b: &Circuit,
    source: SourceId,
    probe: NodeId,
    horizon: Time,
    context: &str,
) {
    let mna_a = MnaSystem::build(a).expect("circuit assembles");
    let mna_b = MnaSystem::build(b).expect("circuit assembles");
    for backend in BACKENDS {
        // DC: the full state vector, not just the probe.
        let t = Time::from_picoseconds(5.0);
        let dc_a = operating_point_of(&mna_a, t, backend).expect("DC solves");
        let dc_b = operating_point_of(&mna_b, t, backend).expect("DC solves");
        assert_eq!(dc_a.state().len(), dc_b.state().len(), "{context}: {backend:?} DC dim");
        for (i, (x, y)) in dc_a.state().iter().zip(dc_b.state().iter()).enumerate() {
            assert!(
                (x - y).abs() <= TOL * x.abs().max(1.0),
                "{context}: {backend:?} DC unknown {i}: {x} vs {y}"
            );
        }
        // AC: transfer to the probe at a few points up the jω axis.
        for ghz in [0.1, 1.0, 10.0] {
            let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * ghz * 1e9);
            let ac_a = solve_at_with(a, source, s, backend).expect("AC solves");
            let ac_b = solve_at_with(b, source, s, backend).expect("AC solves");
            let (va, vb) = (ac_a.node_voltage(probe), ac_b.node_voltage(probe));
            assert!(
                (va - vb).abs() <= TOL * va.abs().max(1.0),
                "{context}: {backend:?} AC at {ghz} GHz: {va:?} vs {vb:?}"
            );
        }
        // Transient: the whole probe waveform, sample by sample.
        let options = TransientOptions::new(horizon, horizon / 400.0).with_backend(backend);
        let tr_a = run_transient(a, &options).expect("transient runs");
        let tr_b = run_transient(b, &options).expect("transient runs");
        let (wa, wb) = (tr_a.node_voltage(probe), tr_b.node_voltage(probe));
        assert_eq!(wa.values().len(), wb.values().len(), "{context}: {backend:?} sample counts");
        for (i, (x, y)) in wa.values().iter().zip(wb.values().iter()).enumerate() {
            assert!(
                (x - y).abs() <= TOL * x.abs().max(1.0),
                "{context}: {backend:?} transient sample {i}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn ladder_deck_matches_programmatic_build() {
    let spec = LadderSpec {
        total_resistance: Resistance::from_ohms(400.0),
        total_inductance: Inductance::from_nanohenries(8.0),
        total_capacitance: Capacitance::from_picofarads(0.8),
        segments: 12,
        style: SegmentStyle::Pi,
        driver_resistance: Resistance::from_ohms(150.0),
        load_capacitance: Capacitance::from_femtofarads(40.0),
        supply: Voltage::from_volts(1.0),
    };
    let net = spec.build().expect("ladder builds");
    let parsed = parse_circuit(&circuit_to_deck(&net.circuit)).expect("deck lowers");
    assert_eq!(parsed.circuit, net.circuit, "the frontend must reproduce the ladder exactly");
    assert_eq!(parsed.source("V1"), Some(net.source), "the writer names the drive V1");
    assert_analyses_agree(
        &net.circuit,
        &parsed.circuit,
        net.source,
        net.output,
        Time::from_picoseconds(400.0),
        "ladder",
    );
}

#[test]
fn coupled_bus_deck_matches_programmatic_build() {
    let lines = 3;
    let spec = UniformBusSpec {
        lines,
        resistance: ResistancePerLength::from_ohms_per_millimeter(50.0),
        self_inductance: InductancePerLength::from_nanohenries_per_millimeter(1.0),
        ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
        coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.08),
        inductive_coupling: vec![0.35, 0.15],
        length: Length::from_millimeters(3.0),
    };
    let bus = spec.build().expect("bus builds");
    let drive = BusDrive::new(
        Resistance::from_ohms(120.0),
        Capacitance::from_femtofarads(25.0),
        Voltage::from_volts(1.0),
    )
    .with_sections(6);
    let pattern = SwitchingPattern::odd_mode(1, lines).expect("odd mode");
    let net = build_bus_circuit(&bus, &pattern, &drive).expect("bus netlist builds");
    let parsed = parse_circuit(&circuit_to_deck(&net.circuit)).expect("deck lowers");
    assert_eq!(parsed.circuit, net.circuit, "mutual inductances must survive the round trip");
    assert_analyses_agree(
        &net.circuit,
        &parsed.circuit,
        net.sources[1],
        net.outputs[1],
        Time::from_picoseconds(300.0),
        "coupled bus",
    );
}

#[test]
fn routing_tree_deck_matches_programmatic_build() {
    let mut spec = TreeSpec::new(Resistance::from_ohms(150.0));
    for i in 0..7 {
        spec.branches.push(TreeBranch {
            parent: if i == 0 { None } else { Some((i - 1) / 2) },
            total_resistance: Resistance::from_ohms(120.0),
            total_inductance: Inductance::from_nanohenries(2.0),
            total_capacitance: Capacitance::from_picofarads(0.2),
            segments: 3,
            sink_capacitance: Capacitance::from_femtofarads(15.0),
        });
    }
    let net = spec.build().expect("tree builds");
    let parsed = parse_circuit(&circuit_to_deck(&net.circuit)).expect("deck lowers");
    assert_eq!(parsed.circuit, net.circuit, "branch structure must survive the round trip");
    let probe = net.sinks.last().expect("tree has sinks").node;
    assert_analyses_agree(
        &net.circuit,
        &parsed.circuit,
        net.source,
        probe,
        Time::from_picoseconds(500.0),
        "routing tree",
    );
}

/// The authorship-parity case: the deck and the builder calls were written
/// separately (no writer involved), so this catches systematic lowering
/// errors that a pure round trip cannot — wrong value scaling, swapped
/// polarity, parameter-override mistakes.
#[test]
fn hand_written_deck_matches_hand_built_circuit() {
    let deck = "\
* two cascaded RC lumps built from one parameterized definition
.subckt lump a b r=100 c=50f
Rs a b {r}
Cs b 0 {c}
.ends
V1 in 0 STEP(1 0)
X1 in mid lump
X2 mid out lump r=250 c=0.2p
.end
";
    let parsed = parse_circuit(deck).expect("deck lowers");

    // The same network, built directly (node creation order need not match —
    // only the physics is compared).
    let mut c = Circuit::new();
    let input = c.add_node();
    let mid = c.add_node();
    let out = c.add_node();
    let gnd = c.ground();
    let source = c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
    c.add_resistor(input, mid, Resistance::from_ohms(100.0)).unwrap();
    c.add_capacitor(mid, gnd, Capacitance::from_femtofarads(50.0)).unwrap();
    c.add_resistor(mid, out, Resistance::from_ohms(250.0)).unwrap();
    c.add_capacitor(out, gnd, Capacitance::from_picofarads(0.2)).unwrap();

    let deck_out = parsed.node("out").expect("deck names the output");
    let deck_source = parsed.source("V1").expect("deck names the drive");
    let horizon = Time::from_seconds(1.0e-9);
    for backend in BACKENDS {
        let options = TransientOptions::new(horizon, horizon / 500.0).with_backend(backend);
        let deck_wave = run_transient(&parsed.circuit, &options).expect("deck transient");
        let built_wave = run_transient(&c, &options).expect("built transient");
        let dw = deck_wave.node_voltage(deck_out);
        let bw = built_wave.node_voltage(out);
        for (x, y) in dw.values().iter().zip(bw.values().iter()) {
            assert!((x - y).abs() <= TOL * x.abs().max(1.0), "{backend:?}: deck {x} vs built {y}");
        }
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * 1e9);
        let va = solve_at_with(&parsed.circuit, deck_source, s, backend).expect("AC solves");
        let vb = solve_at_with(&c, source, s, backend).expect("AC solves");
        let (va, vb) = (va.node_voltage(deck_out), vb.node_voltage(out));
        assert!((va - vb).abs() <= TOL * va.abs().max(1.0), "{backend:?}: AC {va:?} vs {vb:?}");
    }
}
