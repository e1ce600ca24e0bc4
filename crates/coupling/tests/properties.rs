//! Property and equivalence tests of the coupled-bus subsystem.
//!
//! Three exactness properties pin the coupled-ladder construction to known
//! references:
//!
//! * a 2-line bus with *zero* coupling is two independent lines, so each
//!   output must match the single-line ladder simulation sample-for-sample;
//! * for a *symmetric* 2-line bus, even-mode switching (both wires rise
//!   together) is exactly the decoupled line `(L+M, Cg)` and odd-mode
//!   switching (one rises while the other falls from the supply) is exactly
//!   the decoupled line `(L−M, Cg+2·Cc)` — the classical modal decomposition
//!   holds exactly for the lumped network too;
//! * the dense and sparse solver backends must agree on a coupled
//!   2-line × 100-section bus, which exercises the mutual-inductance stamps
//!   on a more strongly coupled pattern than any single-line ladder.

use proptest::prelude::*;

use rlckit_circuit::ladder::{LadderSpec, SegmentStyle};
use rlckit_circuit::transient::{run_transient, TransientOptions};
use rlckit_circuit::SolverBackend;
use rlckit_coupling::bus::{ConductorRole, CoupledBus};
use rlckit_coupling::crosstalk::{simulate_bus, suggested_options};
use rlckit_coupling::netlist::{build_bus_circuit, BusDrive};
use rlckit_coupling::scenario::{LineDrive, SwitchingPattern};
use rlckit_units::{Capacitance, Length, Resistance, Voltage};

const SECTIONS: usize = 10;

/// Per-unit-length line parameters drawn over a physically plausible range
/// (about a 0.18 µm global/intermediate wire, 1 mm long).
#[derive(Debug, Clone, Copy)]
struct LineParams {
    /// Ω/m.
    r: f64,
    /// H/m (self).
    l: f64,
    /// F/m to ground.
    cg: f64,
    /// F/m to the neighbour.
    cc: f64,
    /// Inductive coupling coefficient.
    k: f64,
}

fn arb_params() -> impl Strategy<Value = LineParams> {
    (1e3f64..5e4, 1e-7f64..8e-7, 5e-11f64..4e-10, 0.0f64..3e-10, 0.05f64..0.7)
        .prop_map(|(r, l, cg, cc, k)| LineParams { r, l, cg, cc, k })
}

fn drive() -> BusDrive {
    BusDrive::new(
        Resistance::from_ohms(150.0),
        Capacitance::from_femtofarads(80.0),
        Voltage::from_volts(1.0),
    )
    .with_sections(SECTIONS)
}

fn two_line_bus(p: LineParams, cc: f64, k: f64) -> CoupledBus {
    let m = k * p.l;
    CoupledBus::from_matrices(
        vec![p.r; 2],
        vec![vec![p.l, m], vec![m, p.l]],
        vec![p.cg; 2],
        vec![vec![0.0, cc], vec![cc, 0.0]],
        vec![ConductorRole::Signal; 2],
        Length::from_millimeters(1.0),
    )
    .expect("bus parameters are valid by construction")
}

fn single_line_bus(p: LineParams, l: f64, cg: f64) -> CoupledBus {
    CoupledBus::from_matrices(
        vec![p.r],
        vec![vec![l]],
        vec![cg],
        vec![vec![0.0]],
        vec![ConductorRole::Signal],
        Length::from_millimeters(1.0),
    )
    .expect("line parameters are valid by construction")
}

/// Maximum absolute difference between two equally sampled waveforms (volts).
fn max_divergence(a: &rlckit_circuit::Waveform, b: &rlckit_circuit::Waveform) -> f64 {
    assert_eq!(a.values().len(), b.values().len(), "waveforms must share the sample grid");
    a.values().iter().zip(b.values()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

proptest! {
    // Transient simulations are comparatively expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zero_coupling_bus_is_two_independent_lines(p in arb_params()) {
        let bus = two_line_bus(p, 0.0, 0.0);
        let drive = drive();
        let options = suggested_options(&bus, &drive).expect("options");
        // Opposite activity on the two wires: any leakage between them would
        // show up immediately.
        let pattern =
            SwitchingPattern::new(vec![LineDrive::Rising, LineDrive::Falling]).expect("pattern");
        let sim = simulate_bus(&bus, &pattern, &drive, &options).expect("bus simulates");

        // Reference: the single-line ladder builder of rlckit-circuit, which
        // produces the identical π-topology for one line.
        let spec = LadderSpec {
            total_resistance: Resistance::from_ohms(p.r * 1e-3),
            total_inductance: rlckit_units::Inductance::from_henries(p.l * 1e-3),
            total_capacitance: Capacitance::from_farads(p.cg * 1e-3),
            segments: SECTIONS,
            style: SegmentStyle::Pi,
            driver_resistance: drive.driver_resistance,
            load_capacitance: drive.load_capacitance,
            supply: drive.supply,
        };
        let line = spec.build().expect("ladder builds");
        let reference = run_transient(&line.circuit, &options).expect("ladder simulates");

        let rising = sim.output(0).expect("line 0 waveform");
        let want = reference.node_voltage(line.output);
        let err = max_divergence(&rising, &want);
        prop_assert!(err < 1e-9, "uncoupled bus line diverges from the ladder by {err}");
    }

    #[test]
    fn even_and_odd_modes_match_their_decoupled_lines(p in arb_params()) {
        let bus = two_line_bus(p, p.cc, p.k);
        let drive = drive();
        let options = suggested_options(&bus, &drive).expect("options");

        // Even mode: both wires rise together ⇒ the coupling capacitor is
        // currentless and the mutual flux aids ⇒ the line (L+M, Cg).
        let even = simulate_bus(
            &bus,
            &SwitchingPattern::even_mode(2).expect("pattern"),
            &drive,
            &options,
        )
        .expect("even mode simulates");
        let even_line = simulate_bus(
            &single_line_bus(p, p.l * (1.0 + p.k), p.cg),
            &SwitchingPattern::even_mode(1).expect("pattern"),
            &drive,
            &options,
        )
        .expect("even-mode line simulates");
        let err = max_divergence(
            &even.output(0).expect("wave"),
            &even_line.output(0).expect("wave"),
        );
        prop_assert!(err < 1e-9, "even mode diverges from (L+M, Cg) by {err}");

        // Odd mode: wire 0 rises while wire 1 falls from the supply. The
        // common mode is constant at Vdd/2, so wire 0 is exactly the step
        // response of the line (L−M, Cg+2·Cc).
        let odd = simulate_bus(
            &bus,
            &SwitchingPattern::odd_mode(0, 2).expect("pattern"),
            &drive,
            &options,
        )
        .expect("odd mode simulates");
        let odd_line = simulate_bus(
            &single_line_bus(p, p.l * (1.0 - p.k), p.cg + 2.0 * p.cc),
            &SwitchingPattern::even_mode(1).expect("pattern"),
            &drive,
            &options,
        )
        .expect("odd-mode line simulates");
        let err = max_divergence(
            &odd.output(0).expect("wave"),
            &odd_line.output(0).expect("wave"),
        );
        prop_assert!(err < 1e-9, "odd mode diverges from (L−M, Cg+2Cc) by {err}");
    }
}

/// Acceptance criterion: the mutual-inductance stamps keep the dense and
/// sparse backends in lockstep on a coupled 2-line × 100-section bus.
#[test]
fn backends_agree_on_a_coupled_two_line_bus() {
    let p = LineParams { r: 6.5e3, l: 5e-7, cg: 2.1e-10, cc: 1e-10, k: 0.35 };
    let bus = two_line_bus(p, p.cc, p.k);
    let drive = drive().with_sections(100);
    let pattern = SwitchingPattern::odd_mode(0, 2).expect("pattern");
    let built = build_bus_circuit(&bus, &pattern, &drive).expect("bus builds");

    let suggested = suggested_options(&bus, &drive).expect("options");
    // A short fixed window keeps the dense O(n³) factorisation affordable
    // while still exercising 120 substitution steps.
    let step = suggested.step;
    let options = TransientOptions::new(step * 120.0, step);

    let dense = run_transient(&built.circuit, &options.with_backend(SolverBackend::Dense))
        .expect("dense simulates");
    let sparse = run_transient(&built.circuit, &options.with_backend(SolverBackend::Sparse))
        .expect("sparse simulates");
    assert_eq!(dense.backend(), rlckit_circuit::ResolvedBackend::Dense);
    assert_eq!(sparse.backend(), rlckit_circuit::ResolvedBackend::Sparse);

    for &node in &built.outputs {
        let d = dense.node_voltage(node);
        let s = sparse.node_voltage(node);
        let err = max_divergence(&d, &s);
        assert!(err < 1e-9, "backends diverge by {err} at node {node:?}");
    }
}

/// The odd/even/isolated delay ordering holds for the shipped 3-line example
/// scenario, with the quiet-victim noise dropping behind shields — the
/// qualitative crosstalk result of the acceptance criteria, checked through
/// the public evaluator.
#[test]
fn shield_insertion_reduces_noise_on_the_three_line_bus() {
    use rlckit_coupling::bus::UniformBusSpec;
    use rlckit_coupling::shield::evaluate_shielding;
    use rlckit_units::{CapacitancePerLength, InductancePerLength, ResistancePerLength};

    let spec = UniformBusSpec {
        lines: 3,
        resistance: ResistancePerLength::from_ohms_per_millimeter(1.3),
        self_inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
        ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
        coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
        inductive_coupling: vec![0.35, 0.15],
        length: Length::from_millimeters(4.0),
    };
    let drive = BusDrive::new(
        Resistance::from_ohms(112.5),
        Capacitance::from_femtofarads(120.0),
        Voltage::from_volts(1.8),
    )
    .with_sections(8);
    let eval = evaluate_shielding(&spec, 1, &drive).expect("evaluation runs");
    assert!(eval.unshielded.odd_mode_delay > eval.unshielded.isolated_delay);
    assert!(eval.unshielded.even_mode_delay < eval.unshielded.isolated_delay);
    assert!(eval.noise_reduction() > 1.5);
}
