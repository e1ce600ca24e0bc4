//! Acceptance test for the pluggable solver backend: on a long RLC ladder and
//! a wide tree the sparse kernel must reproduce the dense oracle's voltage
//! waveforms to well below any physically meaningful difference.

use rlckit_circuit::ladder::{LadderSpec, SegmentStyle};
use rlckit_circuit::transient::{run_transient, TransientOptions};
use rlckit_circuit::{ResolvedBackend, SolverBackend};
use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

fn ladder(segments: usize) -> LadderSpec {
    LadderSpec {
        total_resistance: Resistance::from_ohms(500.0),
        total_inductance: Inductance::from_nanohenries(10.0),
        total_capacitance: Capacitance::from_picofarads(1.0),
        segments,
        style: SegmentStyle::Pi,
        driver_resistance: Resistance::from_ohms(250.0),
        load_capacitance: Capacitance::from_picofarads(0.1),
        supply: Voltage::from_volts(1.0),
    }
}

#[test]
fn sparse_matches_dense_on_a_200_section_ladder() {
    let spec = ladder(200);
    let line = spec.build().expect("ladder builds");
    // A modest fixed horizon keeps the dense reference run affordable while
    // still covering the 50% crossing and the first ringing cycles.
    let options = TransientOptions::new(Time::from_seconds(0.5e-9), Time::from_picoseconds(1.0));

    let sparse = run_transient(&line.circuit, &options.with_backend(SolverBackend::Sparse))
        .expect("sparse run");
    let dense = run_transient(&line.circuit, &options.with_backend(SolverBackend::Dense))
        .expect("dense run");
    assert_eq!(sparse.backend(), ResolvedBackend::Sparse);
    assert_eq!(dense.backend(), ResolvedBackend::Dense);

    for node in [line.input, line.output] {
        let ws = sparse.node_voltage(node);
        let wd = dense.node_voltage(node);
        let mut max_diff = 0.0f64;
        for (s, d) in ws.values().iter().zip(wd.values().iter()) {
            max_diff = max_diff.max((s - d).abs());
        }
        assert!(max_diff < 1e-9, "waveforms disagree by {max_diff} at node {node:?}");
    }
}

#[test]
fn auto_backend_selects_sparse_for_the_ladder_and_matches_it() {
    let spec = ladder(120);
    let line = spec.build().expect("ladder builds");
    let options = TransientOptions::new(Time::from_seconds(0.3e-9), Time::from_picoseconds(1.0));
    let auto = run_transient(&line.circuit, &options).expect("auto run");
    assert_eq!(auto.backend(), ResolvedBackend::Sparse);
    let forced = run_transient(&line.circuit, &options.with_backend(SolverBackend::Sparse))
        .expect("sparse run");
    let wa = auto.node_voltage(line.output);
    let wf = forced.node_voltage(line.output);
    for (a, f) in wa.values().iter().zip(wf.values().iter()) {
        assert_eq!(a, f, "auto must be bit-identical to the sparse kernel it picked");
    }
}

#[test]
fn sparse_matches_dense_on_a_wide_tree_and_auto_selects_it() {
    use rlckit_circuit::tree::{TreeBranch, TreeSpec};

    // A flat 30-way fan-out: Auto must route it to the sparse kernel, whose
    // waveforms must match the dense reference at every sink.
    let mut spec = TreeSpec::new(Resistance::from_ohms(200.0));
    let branch = |parent: Option<usize>| TreeBranch {
        parent,
        total_resistance: Resistance::from_ohms(150.0),
        total_inductance: Inductance::from_nanohenries(3.0),
        total_capacitance: Capacitance::from_picofarads(0.3),
        segments: 6,
        sink_capacitance: Capacitance::from_femtofarads(20.0),
    };
    spec.branches.push(branch(None));
    for _ in 0..30 {
        spec.branches.push(branch(Some(0)));
    }
    let net = spec.build().expect("tree builds");
    let options = TransientOptions::new(Time::from_seconds(0.4e-9), Time::from_picoseconds(1.0));

    let auto =
        run_transient(&net.circuit, &options.with_backend(SolverBackend::Auto)).expect("auto run");
    let sparse = run_transient(&net.circuit, &options.with_backend(SolverBackend::Sparse))
        .expect("sparse run");
    let dense = run_transient(&net.circuit, &options.with_backend(SolverBackend::Dense))
        .expect("dense run");
    assert_eq!(auto.backend(), ResolvedBackend::Sparse);
    assert_eq!(sparse.backend(), ResolvedBackend::Sparse);

    for sink in &net.sinks {
        let ws = sparse.node_voltage(sink.node);
        let wd = dense.node_voltage(sink.node);
        let wa = auto.node_voltage(sink.node);
        let mut max_diff = 0.0f64;
        for ((s, d), a) in ws.values().iter().zip(wd.values().iter()).zip(wa.values().iter()) {
            max_diff = max_diff.max((s - d).abs());
            assert_eq!(s, a, "Auto must be bit-identical to the kernel it picks");
        }
        assert!(max_diff < 1e-9, "sparse vs dense disagree by {max_diff} at sink {sink:?}");
    }
}
