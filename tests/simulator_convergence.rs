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
fn a_step_grown_past_the_segment_modes_keeps_the_delay_to_1e_4() {
    // These lines' segment modes decay long before the output can cross 50%,
    // so the suggested step resolves the crossing instead of those modes.
    for lt in [1e-9, 1e-8, 3e-8] {
        let mut spec = base_spec(40, SegmentStyle::Pi);
        spec.total_inductance = Inductance::from_henries(lt);
        let segment_tof = (lt * 1.5e-12).sqrt() / 40.0;
        let stop = spec.suggested_stop_time();
        let dt = spec.suggested_timestep().min(stop / 2000.0);
        assert!(dt.seconds() > segment_tof / 8.0, "Lt = {lt}: the step did not grow");

        let delay = measure_step_delay(&spec).expect("simulation runs").delay_50.seconds();
        let line = spec.build().expect("builds");
        let fine = run_transient(&line.circuit, &TransientOptions::new(stop, dt / 4.0))
            .expect("runs")
            .node_voltage(line.output)
            .delay_50(Voltage::from_volts(1.0))
            .expect("crosses 50%")
            .seconds();
        let diff = (delay - fine).abs() / fine;
        assert!(diff < 1e-4, "Lt = {lt}: delay {delay:e} vs quarter-step {fine:e} ({diff:e})");
    }
}

#[test]
fn a_bus_step_grows_only_once_every_coupled_mode_has_died() {
    // Two 3-wire, 3 mm buses. At 150 Ω/mm every coupled mode has decayed
    // by the earliest crossing, so the step grows past the segment modes and
    // the victim's delays must hold to 1e-4 of a quarter-step run. At
    // 50 Ω/mm the isolated line's ringing has died but the slow even mode
    // (L + ΣM) has not, so the step must stay on the segment rule; grown on
    // the isolated line's check it put an even-mode delay 3e-4 off.
    use rlckit::coupling::crosstalk::{simulate_bus, suggested_options};
    use rlckit::coupling::scenario::SwitchingPattern;
    use rlckit::units::{CapacitancePerLength, InductancePerLength, Length, ResistancePerLength};
    for (ohms_per_mm, grows) in [(150.0, true), (50.0, false)] {
        let bus = UniformBusSpec {
            lines: 3,
            resistance: ResistancePerLength::from_ohms_per_millimeter(ohms_per_mm),
            self_inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
            ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
            coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
            inductive_coupling: vec![0.8, 0.8, 0.4],
            length: Length::from_millimeters(3.0),
        }
        .build()
        .expect("valid bus");
        let drive = BusDrive::new(
            Resistance::from_ohms(120.0),
            Capacitance::from_femtofarads(100.0),
            Voltage::from_volts(1.8),
        )
        .with_sections(20);
        let options = suggested_options(&bus, &drive).expect("options");
        let segment_rule = (0..3)
            .map(|i| {
                let spec = bus.isolated_line(i).expect("wire").to_ladder_spec(
                    drive.driver_resistance,
                    drive.load_capacitance,
                    drive.sections,
                    drive.supply,
                );
                let c = spec.total_capacitance + spec.load_capacitance;
                let segment_tof = (spec.total_inductance.henries() * c.farads()).sqrt() / 20.0;
                (segment_tof / 8.0).min(spec.suggested_stop_time().seconds() / 2000.0)
            })
            .fold(f64::INFINITY, f64::min);
        assert_eq!(options.step.seconds() > segment_rule, grows, "{ohms_per_mm} Ω/mm");
        if !grows {
            continue;
        }
        let mut fine = options;
        fine.step = options.step / 4.0;
        for pattern in [SwitchingPattern::even_mode(3), SwitchingPattern::odd_mode(1, 3)] {
            let pattern = pattern.expect("pattern");
            let delay = |o| simulate_bus(&bus, &pattern, &drive, o).expect("runs").delay_50(1);
            let (coarse, fine) = (delay(&options), delay(&fine));
            let (coarse, fine) =
                (coarse.expect("crosses").seconds(), fine.expect("crosses").seconds());
            let diff = (coarse - fine).abs() / fine;
            assert!(
                diff < 1e-4,
                "{ohms_per_mm} Ω/mm, {pattern:?}: delay {coarse:e} vs quarter-step {fine:e} ({diff:e})"
            );
        }
    }
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
