//! Property-based tests of the circuit simulator.
//!
//! Random (but physically sensible) driven RLC ladders must obey the physics
//! no matter which parameters are drawn: the output settles to the supply,
//! the 50% delay is positive and no smaller than (almost) the time of flight,
//! AC analysis at `s = 0` reproduces the DC gain, and the delay measured by
//! the transient solver is consistent with the exact frequency-domain answer
//! at low frequency.
//!
//! The probe-driven transient driver must reproduce the full-recording run
//! bit for bit on every kernel and workload family, also where it extends its
//! horizon in place, and every allocation-free kernel entry point
//! (`solve_into`, `apply_real_into`) must match its allocating twin by
//! `f64::to_bits`.

use proptest::prelude::*;

use rlckit_circuit::ac::transfer_function;
use rlckit_circuit::dc::operating_point_at;
use rlckit_circuit::ladder::{measure_step_delay, LadderSpec, SegmentStyle};
use rlckit_circuit::mesh::MeshSpec;
use rlckit_circuit::mna::MnaSystem;
use rlckit_circuit::netlist::Circuit;
use rlckit_circuit::solve::factor_real;
use rlckit_circuit::source::SourceWaveform;
use rlckit_circuit::transient::{
    measure_transient, run_transient, TransientOptions, TransientResult,
};
use rlckit_circuit::tree::{TreeBranch, TreeSpec};
use rlckit_circuit::{CircuitError, NodeId, SolverBackend};
use rlckit_numeric::complex::Complex;
use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

/// A physically plausible driven line:
/// Rt ∈ [10 Ω, 5 kΩ], Lt ∈ [0.1, 50] nH, Ct ∈ [0.1, 2] pF,
/// Rtr ∈ [0, 1 kΩ], CL ∈ [0, 1] pF.
fn arb_spec() -> impl Strategy<Value = LadderSpec> {
    (10.0f64..5e3, 1e-10f64..5e-8, 1e-13f64..2e-12, 0.0f64..1e3, 0.0f64..1e-12).prop_map(
        |(rt, lt, ct, rtr, cl)| LadderSpec {
            total_resistance: Resistance::from_ohms(rt),
            total_inductance: Inductance::from_henries(lt),
            total_capacitance: Capacitance::from_farads(ct),
            segments: 25,
            style: SegmentStyle::Pi,
            driver_resistance: Resistance::from_ohms(rtr),
            load_capacitance: Capacitance::from_farads(cl),
            supply: Voltage::from_volts(1.0),
        },
    )
}

proptest! {
    // Transient simulations are comparatively expensive; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn step_response_delay_is_physical(spec in arb_spec()) {
        let m = measure_step_delay(&spec).expect("simulation runs");
        let tof = (spec.total_inductance.henries()
            * (spec.total_capacitance.farads() + spec.load_capacitance.farads()))
        .sqrt();
        prop_assert!(m.delay_50.seconds() > 0.0);
        // The signal can never beat (much of) the wave time of flight.
        prop_assert!(
            m.delay_50.seconds() > 0.5 * tof,
            "delay {} beat the time of flight {}",
            m.delay_50.seconds(),
            tof
        );
        prop_assert!(m.rise_time.seconds() > 0.0);
        prop_assert!(m.overshoot_percent >= 0.0 && m.overshoot_percent < 120.0);
    }

    #[test]
    fn dc_gain_is_unity_for_any_ladder(spec in arb_spec()) {
        let line = spec.build().expect("builds");
        // At (numerically) zero frequency the line passes DC: gain 1 to the far end.
        let h = transfer_function(&line.circuit, line.source, line.output, Complex::new(1.0, 0.0))
            .expect("solvable");
        prop_assert!((h.re - 1.0).abs() < 1e-3, "near-DC gain {}", h.re);
        prop_assert!(h.im.abs() < 1e-3);
    }

    #[test]
    fn dc_operating_point_tracks_the_source_value(spec in arb_spec(), when_ps in 1.0f64..1000.0) {
        // After the step has fired, the DC solution of the (resistive) network
        // puts the far end at the full supply: capacitors are open, inductors short.
        let line = spec.build().expect("builds");
        let dc = operating_point_at(&line.circuit, Time::from_picoseconds(when_ps))
            .expect("solvable");
        prop_assert!((dc.node_voltage(line.output).volts() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn series_rc_delay_matches_theory_for_random_values(
        r_ohms in 10.0f64..10e3,
        c_farads in 1e-14f64..1e-11,
    ) {
        // Lumped RC low-pass: 50% delay is exactly ln(2)·RC; the simulator must
        // reproduce it for any drawn component values.
        let mut circuit = Circuit::new();
        let input = circuit.add_node();
        let out = circuit.add_node();
        let gnd = circuit.ground();
        circuit
            .add_voltage_source(input, gnd, SourceWaveform::unit_step())
            .expect("valid");
        circuit
            .add_resistor(input, out, Resistance::from_ohms(r_ohms))
            .expect("valid");
        circuit
            .add_capacitor(out, gnd, Capacitance::from_farads(c_farads))
            .expect("valid");

        let tau = r_ohms * c_farads;
        let options = rlckit_circuit::transient::TransientOptions::new(
            Time::from_seconds(6.0 * tau),
            Time::from_seconds(tau / 500.0),
        );
        let result = rlckit_circuit::transient::run_transient(&circuit, &options).expect("runs");
        let delay = result
            .node_voltage(out)
            .delay_50(Voltage::from_volts(1.0))
            .expect("crosses");
        let expected = std::f64::consts::LN_2 * tau;
        prop_assert!(
            (delay.seconds() - expected).abs() / expected < 0.01,
            "delay {} vs ln2·RC {}",
            delay.seconds(),
            expected
        );
    }
}

// ---------------------------------------------------------------------------
// Probe-driven transient driver: bit-identical to the full-recording run.

const BACKENDS: [SolverBackend; 2] = [SolverBackend::Dense, SolverBackend::Sparse];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A circuit, the nodes to probe, and a horizon that sees them switch.
struct Workload {
    circuit: Circuit,
    probes: Vec<NodeId>,
    stop: Time,
}

fn ladder_workload(rt: f64, lt_nh: f64, ct_pf: f64) -> Workload {
    let spec = LadderSpec {
        total_resistance: Resistance::from_ohms(rt),
        total_inductance: Inductance::from_nanohenries(lt_nh),
        total_capacitance: Capacitance::from_picofarads(ct_pf),
        segments: 12,
        style: SegmentStyle::Pi,
        driver_resistance: Resistance::from_ohms(rt / 4.0),
        load_capacitance: Capacitance::from_femtofarads(50.0),
        supply: Voltage::from_volts(1.0),
    };
    let line = spec.build().expect("ladder builds");
    Workload {
        probes: vec![line.output, line.input],
        stop: spec.suggested_stop_time(),
        circuit: line.circuit,
    }
}

fn tree_workload(rt: f64, lt_nh: f64, ct_pf: f64) -> Workload {
    let branch = |parent, scale: f64, sink_ff| TreeBranch {
        parent,
        total_resistance: Resistance::from_ohms(rt * scale),
        total_inductance: Inductance::from_nanohenries(lt_nh * scale),
        total_capacitance: Capacitance::from_picofarads(ct_pf * scale),
        segments: 4,
        sink_capacitance: Capacitance::from_femtofarads(sink_ff),
    };
    let mut spec = TreeSpec::new(Resistance::from_ohms(rt / 2.0));
    spec.branches.push(branch(None, 1.0, 0.0));
    spec.branches.push(branch(Some(0), 0.5, 30.0));
    spec.branches.push(branch(Some(0), 0.7, 60.0));
    spec.branches.push(branch(Some(1), 0.3, 20.0));
    let net = spec.build().expect("tree builds");
    Workload {
        probes: net.sinks.iter().map(|sink| sink.node).collect(),
        stop: spec.suggested_stop_time(),
        circuit: net.circuit,
    }
}

fn mesh_workload(rt: f64, lt_nh: f64, ct_pf: f64) -> Workload {
    let mut spec = MeshSpec {
        rows: 3,
        cols: 4,
        segment_resistance: Resistance::from_ohms(rt / 10.0),
        segment_inductance: Inductance::ZERO,
        node_capacitance: Capacitance::from_picofarads(ct_pf / 12.0),
        driver_resistance: Resistance::from_ohms(rt / 4.0),
        load_capacitance: Capacitance::ZERO,
        supply: Voltage::from_volts(1.0),
    };
    spec.segment_inductance = Inductance::from_nanohenries(lt_nh / 10.0);
    let net = spec.build().expect("mesh builds");
    Workload {
        probes: vec![net.far, net.nodes[4 + 2]],
        stop: spec.suggested_stop_time(),
        circuit: net.circuit,
    }
}

/// Two coupled RLC lines: a stepped aggressor and a victim held at a DC
/// level, so the run starts from a nonzero operating point.
fn bus_workload(rt: f64, lt_nh: f64, ct_pf: f64) -> Workload {
    const SECTIONS: usize = 6;
    let per_section = |total: f64| total / SECTIONS as f64;
    let mut c = Circuit::new();
    let gnd = c.ground();
    // Each line's section nodes and section inductors.
    let mut lines = Vec::new();
    let victim_level = SourceWaveform::Dc { level: Voltage::from_volts(0.5) };
    for wave in [SourceWaveform::unit_step(), victim_level] {
        let pad = c.add_node();
        c.add_voltage_source(pad, gnd, wave).unwrap();
        let mut prev = c.add_node();
        c.add_resistor(pad, prev, Resistance::from_ohms(rt / 4.0)).unwrap();
        let (mut nodes, mut inductors) = (Vec::new(), Vec::new());
        for _ in 0..SECTIONS {
            let (mid, next) = (c.add_node(), c.add_node());
            c.add_resistor(prev, mid, Resistance::from_ohms(per_section(rt))).unwrap();
            let l = Inductance::from_nanohenries(per_section(lt_nh));
            inductors.push(c.add_inductor(mid, next, l).unwrap());
            c.add_capacitor(next, gnd, Capacitance::from_picofarads(per_section(ct_pf))).unwrap();
            nodes.push(next);
            prev = next;
        }
        lines.push((nodes, inductors));
    }
    let ((aggressor, l_aggressor), (victim, l_victim)) = (&lines[0], &lines[1]);
    for k in 0..SECTIONS {
        let cc = Capacitance::from_picofarads(0.3 * per_section(ct_pf));
        c.add_capacitor(aggressor[k], victim[k], cc).unwrap();
        c.add_mutual_inductor(l_aggressor[k], l_victim[k], 0.3).unwrap();
    }
    let rc = 1.25 * rt * ct_pf * 1e-12;
    let tof = (lt_nh * 1e-9 * ct_pf * 1e-12).sqrt();
    Workload {
        probes: vec![aggressor[SECTIONS - 1], victim[SECTIONS - 1]],
        stop: Time::from_seconds(4.0 * rc + 10.0 * tof),
        circuit: c,
    }
}

fn workloads(rt: f64, lt_nh: f64, ct_pf: f64) -> [Workload; 4] {
    [
        ladder_workload(rt, lt_nh, ct_pf),
        tree_workload(rt, lt_nh, ct_pf),
        mesh_workload(rt, lt_nh, ct_pf),
        bus_workload(rt, lt_nh, ct_pf),
    ]
}

/// Asserts that every probe's series in `probed` is the full run's, by bits.
fn assert_probes_match(w: &Workload, probed: &TransientResult, full: &TransientResult, what: &str) {
    let grid = |r: &TransientResult| r.node_voltage(w.probes[0]).times().to_vec();
    assert_eq!(bits(&grid(probed)), bits(&grid(full)), "{what}: time grids differ");
    for &p in &w.probes {
        assert_eq!(
            bits(probed.node_voltage(p).values()),
            bits(full.node_voltage(p).values()),
            "{what}: probe {p:?} differs"
        );
    }
}

/// Line totals that keep every family between RC- and LC-dominated.
fn arb_line() -> impl Strategy<Value = (f64, f64, f64)> {
    (50.0f64..800.0, 0.5f64..10.0, 0.2f64..1.5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The driver's probe series equal `run_transient(..).node_voltage(..)`
    /// by `to_bits`, on every workload family and kernel.
    #[test]
    fn driver_probes_match_the_full_run((rt, lt, ct) in arb_line()) {
        for w in workloads(rt, lt, ct) {
            for backend in BACKENDS {
                let options = TransientOptions::new(w.stop, w.stop / 2500.0).with_backend(backend);
                let full = run_transient(&w.circuit, &options).expect("full run");
                let probed = measure_transient(&w.circuit, &w.probes, &options, None, |r| {
                    Ok::<_, CircuitError>(r.clone())
                })
                .expect("probed run");
                assert_probes_match(&w, &probed, &full, &format!("{backend:?}"));
            }
        }
    }

    /// A horizon the driver had to grow twice, extending the run in place
    /// each time, equals one run with the final horizon.
    #[test]
    fn extending_the_horizon_matches_a_restart((rt, lt, ct) in arb_line()) {
        for w in workloads(rt, lt, ct) {
            let stop = w.stop / 8.0;
            let options = TransientOptions::new(stop, stop / 600.0);
            let mut attempts = 0;
            let grown = measure_transient(&w.circuit, &w.probes, &options, None, |r| {
                attempts += 1;
                if attempts < 3 {
                    Err(CircuitError::Measurement { reason: "horizon too short".to_owned() })
                } else {
                    Ok(r.clone())
                }
            })
            .expect("third horizon is accepted");
            let restart =
                run_transient(&w.circuit, &TransientOptions::new(stop * 16.0, stop / 600.0))
                    .expect("restart");
            assert_probes_match(&w, &grown, &restart, "extended");
        }
    }

    /// `solve_into` equals `solve` on every kernel, through the circuit-side
    /// [`rlckit_circuit::solve::FactoredMna`] and the backend-erased solver,
    /// and `apply_real_into` equals `apply_real`, all by `to_bits` and
    /// whatever the output buffers held before.
    #[test]
    fn in_place_kernels_match_their_allocating_twins((rt, lt, ct) in arb_line()) {
        for w in workloads(rt, lt, ct) {
            let mna = MnaSystem::build(&w.circuit).expect("assembles");
            let n = mna.dim();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37 + rt).sin()).collect();
            let cs = 1.0 / (w.stop.seconds() / 2000.0);
            let mut y = vec![f64::NAN; n];
            mna.apply_real_into(-0.5, cs, &x, &mut y);
            prop_assert_eq!(bits(&y), bits(&mna.apply_real(-0.5, cs, &x)));

            for backend in BACKENDS {
                let factor = factor_real(&mna, 0.5, cs, backend, "test").expect("factors");
                let (mut out, mut work) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                factor.solve_into(&y, &mut out, &mut work);
                prop_assert_eq!(bits(&out), bits(&factor.solve(&y)), "{:?}", backend);

            }
        }
    }
}
