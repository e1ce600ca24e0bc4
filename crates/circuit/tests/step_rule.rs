//! The suggested timestep of ladders and meshes is never finer than the rule
//! it replaced, which resolved every segment mode whether or not it had
//! decayed by the crossing; where those modes have decayed it is coarser.

use rlckit_circuit::ladder::LadderSpec;
use rlckit_circuit::mesh::MeshSpec;
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
