//! The suggested timestep of ladders, meshes and trees is never finer than
//! the rule it replaced, which resolved every segment mode whether or not it
//! had decayed by the crossing; where those modes have decayed it is
//! coarser.

use rlckit_circuit::ladder::LadderSpec;
use rlckit_circuit::mesh::MeshSpec;
use rlckit_circuit::tree::{TreeBranch, TreeSpec};
use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

/// The replaced rule, as the oracle: ~8 points per segment time of flight,
/// ~2000 per horizon, at least 1/200 000 of the horizon.
fn segment_rule(horizon: Time, segment_tof: Option<f64>) -> f64 {
    let h = horizon.seconds();
    segment_tof.map_or(h / 2000.0, |tof| (tof / 8.0).min(h / 2000.0)).max(h / 200_000.0)
}

#[test]
fn the_step_is_never_finer_than_the_segment_rule() {
    let (c, cl) = (1e-12, 1e-13);
    let mut grew = [0; 2];
    let mut check = |kind: usize, new: Time, old: f64| {
        assert!(new.seconds() >= old, "{kind}: step {new:?} below {old:e}");
        grew[kind] += usize::from(new.seconds() > old);
    };
    for r in [1.0, 50.0, 500.0, 5e3] {
        for l in [1e-12, 1e-9, 1e-6] {
            for (driver, n) in [(0.0, 5), (250.0, 40), (25.0, 200)] {
                let mut ladder = LadderSpec::new(
                    Resistance::from_ohms(r),
                    Inductance::from_henries(l),
                    Capacitance::from_farads(c),
                    Resistance::from_ohms(driver),
                    Capacitance::from_farads(cl),
                );
                ladder.segments = n;
                let tof = (l * (c + cl)).sqrt() / n as f64;
                let old = segment_rule(ladder.suggested_stop_time(), Some(tof));
                check(0, ladder.suggested_timestep(), old.max(1e-18 * (r + driver).max(1.0)));

                for l_mesh in [0.0, l] {
                    let mesh = MeshSpec {
                        rows: 3,
                        cols: n.min(12),
                        segment_resistance: Resistance::from_ohms(r),
                        segment_inductance: Inductance::from_henries(l_mesh),
                        node_capacitance: Capacitance::from_farads(c / 10.0),
                        driver_resistance: Resistance::from_ohms(driver),
                        load_capacitance: Capacitance::from_farads(cl),
                        supply: Voltage::from_volts(1.0),
                    };
                    let tof = (l_mesh > 0.0).then(|| (l_mesh * c / 10.0).sqrt());
                    check(
                        1,
                        mesh.suggested_timestep(),
                        segment_rule(mesh.suggested_stop_time(), tof),
                    );
                }
            }
        }
    }
    assert!(grew.iter().all(|&g| g > 0), "ladder and mesh cells whose step grew: {grew:?}");
}

#[test]
fn a_tree_step_is_never_finer_than_the_segment_rule() {
    let branch = |parent, ohms, nanohenries, picofarads, sink_femtofarads| TreeBranch {
        parent,
        total_resistance: Resistance::from_ohms(ohms),
        total_inductance: Inductance::from_nanohenries(nanohenries),
        total_capacitance: Capacitance::from_picofarads(picofarads),
        segments: 10,
        sink_capacitance: Capacitance::from_femtofarads(sink_femtofarads),
    };
    // A Y (trunk and two leaves) with a branch off one leaf, so the other
    // leaf's path carries a side load.
    let y_tree = |r_scale: f64| {
        let mut spec = TreeSpec::new(Resistance::from_ohms(250.0));
        spec.branches = vec![
            branch(None, 250.0 * r_scale, 5.0, 0.5, 0.0),
            branch(Some(0), 125.0 * r_scale, 2.5, 0.25, 50.0),
            branch(Some(0), 125.0 * r_scale, 2.5, 0.25, 50.0),
            branch(Some(2), 500.0 * r_scale, 10.0, 1.0, 10.0),
        ];
        spec
    };
    // A short stub next to a heavy side branch, whose Elmore estimate comes
    // out late.
    let mut stub = TreeSpec::new(Resistance::from_ohms(50.0));
    stub.branches = vec![
        branch(None, 10.0, 0.01, 0.001, 0.0),
        branch(Some(0), 5.0, 0.01, 0.01, 0.0),
        branch(Some(0), 500.0, 0.01, 2.0, 0.0),
    ];
    let mut grew = 0;
    for spec in [0.004, 0.1, 1.0, 10.0].map(y_tree).into_iter().chain([stub]) {
        let tof = |b: &TreeBranch| {
            (b.total_inductance.henries() * b.total_capacitance.farads()).sqrt() / b.segments as f64
        };
        let segment_tof = spec.branches.iter().map(tof).fold(f64::INFINITY, f64::min);
        let old = segment_rule(spec.suggested_stop_time(), Some(segment_tof));
        let new = spec.suggested_timestep().seconds();
        assert!(new >= old, "{:?}: step {new:e} below {old:e}", spec.branches);
        grew += usize::from(new > old);
    }
    assert!(grew > 0 && grew < 5, "{grew} of 5 steps grew");
}
