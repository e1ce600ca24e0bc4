//! Integration test: convergence of the dynamic simulator that stands in for AS/X.
//!
//! Every accuracy number in this reproduction is measured against the MNA
//! ladder simulator, so the simulator itself must be shown to converge: in the
//! number of lumped segments, in the integration timestep, and across segment
//! topologies. This is the ablation DESIGN.md calls out for the AS/X
//! substitution.

use rlckit::circuit::ladder::{measure_step_delay, LadderSpec, SegmentStyle};
use rlckit::circuit::transient::{run_transient, Integration, TransientOptions};
use rlckit::prelude::*;

fn base_spec(segments: usize, style: SegmentStyle) -> LadderSpec {
    LadderSpec {
        total_resistance: Resistance::from_ohms(1000.0),
        total_inductance: Inductance::from_nanohenries(10.0),
        total_capacitance: Capacitance::from_picofarads(1.0),
        segments,
        style,
        driver_resistance: Resistance::from_ohms(500.0),
        load_capacitance: Capacitance::from_picofarads(0.5),
        supply: Voltage::from_volts(1.0),
    }
}

#[test]
fn delay_converges_with_segment_count() {
    let delays: Vec<f64> = [10usize, 20, 40, 80]
        .iter()
        .map(|&n| {
            measure_step_delay(&base_spec(n, SegmentStyle::Pi))
                .expect("simulation runs")
                .delay_50
                .seconds()
        })
        .collect();
    // Successive refinements move the answer less and less…
    let d_10_20 = (delays[1] - delays[0]).abs() / delays[1];
    let d_40_80 = (delays[3] - delays[2]).abs() / delays[3];
    assert!(d_40_80 < d_10_20 + 1e-12, "refinement should not diverge");
    // …and the 40-segment ladder used throughout the experiments is within 1%
    // of the 80-segment answer.
    assert!(d_40_80 < 0.01, "40 vs 80 segment delay differs by {d_40_80}");
}

#[test]
fn pi_and_l_section_topologies_agree_when_fine() {
    let pi = measure_step_delay(&base_spec(80, SegmentStyle::Pi)).expect("simulation runs");
    let l = measure_step_delay(&base_spec(80, SegmentStyle::LSection)).expect("simulation runs");
    let diff = (pi.delay_50.seconds() - l.delay_50.seconds()).abs() / pi.delay_50.seconds();
    assert!(diff < 0.02, "π vs L topology delays differ by {diff}");
}

#[test]
fn timestep_refinement_does_not_change_the_answer() {
    let spec = base_spec(40, SegmentStyle::Pi);
    let line = spec.build().expect("builds");
    let stop = spec.suggested_stop_time();
    let coarse_dt = spec.suggested_timestep();
    let fine_dt = coarse_dt / 4.0;

    let mut delays = Vec::new();
    for dt in [coarse_dt, fine_dt] {
        let options = TransientOptions::new(stop, dt);
        let result = run_transient(&line.circuit, &options).expect("runs");
        let delay = result
            .node_voltage(line.output)
            .delay_50(Voltage::from_volts(1.0))
            .expect("crosses 50%");
        delays.push(delay.seconds());
    }
    let diff = (delays[0] - delays[1]).abs() / delays[1];
    assert!(diff < 0.005, "timestep refinement changed the delay by {diff}");
}

#[test]
fn integration_methods_agree_on_the_delay() {
    // Backward Euler damps ringing but the 50% crossing of this moderately
    // damped line should still agree with trapezoidal to within ~2%.
    let spec = base_spec(40, SegmentStyle::Pi);
    let line = spec.build().expect("builds");
    let stop = spec.suggested_stop_time();
    let dt = spec.suggested_timestep() / 2.0;
    let mut delays = Vec::new();
    for method in [Integration::Trapezoidal, Integration::BackwardEuler] {
        let mut options = TransientOptions::new(stop, dt);
        options.method = method;
        let result = run_transient(&line.circuit, &options).expect("runs");
        delays.push(
            result
                .node_voltage(line.output)
                .delay_50(Voltage::from_volts(1.0))
                .expect("crosses 50%")
                .seconds(),
        );
    }
    let diff = (delays[0] - delays[1]).abs() / delays[0];
    assert!(diff < 0.02, "integration methods disagree by {diff}");
}

#[test]
fn final_value_is_the_supply_regardless_of_damping() {
    for lt in [1e-9, 1e-8, 1e-7] {
        let mut spec = base_spec(40, SegmentStyle::Pi);
        spec.total_inductance = Inductance::from_henries(lt);
        let line = spec.build().expect("builds");
        let options =
            TransientOptions::new(spec.suggested_stop_time() * 3.0, spec.suggested_timestep());
        let result = run_transient(&line.circuit, &options).expect("runs");
        let final_v = *result.node_voltage(line.output).values().last().unwrap();
        assert!((final_v - 1.0).abs() < 0.02, "Lt = {lt}: final value {final_v}");
    }
}
