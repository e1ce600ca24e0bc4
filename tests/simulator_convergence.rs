//! Integration test: convergence of the dynamic simulator that stands in for AS/X.
//!
//! Every accuracy number in this reproduction is measured against the MNA
//! ladder simulator, so the simulator itself must be shown to converge: in the
//! number of lumped segments, in the integration timestep, and across segment
//! topologies. This is the ablation DESIGN.md calls out for the AS/X
//! substitution.

use rlckit::circuit::ladder::{measure_step_delay, LadderSpec, SegmentStyle};
use rlckit::circuit::transient::{
    measure_transient, path_crossing, run_transient, suggested_step, Integration, TransientOptions,
};
use rlckit::circuit::tree::TreeBranch;
use rlckit::circuit::CircuitError;
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

/// The tree step before side branches were counted, as the oracle: each
/// sink's crossing along its root path alone, with the driver charging only
/// that path.
fn tree_step_along_paths_alone(spec: &TreeSpec) -> f64 {
    let is_sink = |i: usize| spec.branches.iter().all(|b| b.parent != Some(i));
    let crossing = (0..spec.branches.len())
        .filter(|&i| is_sink(i))
        .map(|sink| {
            let mut path = Vec::new();
            let mut branch = Some(sink);
            while let Some(i) = branch {
                let b = &spec.branches[i];
                let load = if i == sink { b.sink_capacitance.farads() } else { 0.0 };
                let (r, l) = (b.total_resistance.ohms(), b.total_inductance.henries());
                path.push((r, l, b.total_capacitance.farads(), load));
                branch = b.parent;
            }
            path.push((spec.driver_resistance.ohms(), 0.0, 0.0, 0.0));
            path_crossing(path)
        })
        .fold(f64::INFINITY, f64::min);
    let segments = spec.branches.iter().map(|b| {
        let (r, l) = (b.total_resistance.ohms(), b.total_inductance.henries());
        (r / (2.0 * l), (l * b.total_capacitance.farads()).sqrt() / b.segments as f64)
    });
    suggested_step(spec.suggested_stop_time().seconds(), crossing, segments)
}

/// The 50 % delays of the first `count` sinks from a run at `step` over
/// `[0, stop]`.
fn sink_delays(spec: &TreeSpec, stop: Time, step: f64, count: usize) -> Vec<f64> {
    let net = spec.build().expect("builds");
    let probes: Vec<_> = net.sinks.iter().map(|sink| sink.node).collect();
    let options = TransientOptions::new(stop, Time::from_seconds(step));
    measure_transient(&net.circuit, &probes, &options, None, |result| {
        net.sinks
            .iter()
            .take(count)
            .map(|sink| Ok(result.node_voltage(sink.node).delay_50(spec.supply)?.seconds()))
            .collect::<Result<Vec<_>, CircuitError>>()
    })
    .expect("the sinks cross 50%")
}

/// The largest relative distance of `delays` from `reference`.
fn worst_distance(delays: &[f64], reference: &[f64]) -> f64 {
    delays.iter().zip(reference).map(|(d, r)| (d - r).abs() / r).fold(0.0, f64::max)
}

#[test]
fn a_fan_out_3_tree_steps_at_its_real_crossing_and_keeps_every_sink_to_2e_6() {
    // The fan-out-3, 1 nH/mm cell of FIG_tree_worst_sink_delay.csv. Along
    // its root paths alone the earliest crossing looks 4× too early; with
    // every side branch counted the step grows to ~500 points per crossing.
    use rlckit::sweep::eval::scenario_line;
    use rlckit::sweep::figures::tree_worst_sink_delay_spec;
    let cell = tree_worst_sink_delay_spec()
        .expand()
        .expect("expands")
        .into_iter()
        .find(|cell| cell.labels == ["3", "1"])
        .expect("the fan-out-3, 1 nH/mm cell");
    let s = &cell.scenario;
    let tech = s.technology.technology();
    let sink_c = tech.buffer_capacitance(s.driver_size).expect("buffer");
    let tree =
        RoutingTree::symmetric(&scenario_line(s).expect("line"), 3, 3, sink_c).expect("tree");
    let driver = tech.buffer_resistance(s.driver_size).expect("buffer");
    let spec = tree.to_tree_spec(driver, tech.supply, s.ladder_sections).expect("spec");

    let (step, before) = (spec.suggested_timestep().seconds(), tree_step_along_paths_alone(&spec));
    let steps = spec.suggested_stop_time().seconds() / step;
    assert!(step > 3.0 * before, "step {step:e} did not grow from {before:e}");
    assert!(steps <= 6500.0, "{steps} steps");

    let delays: Vec<f64> = measure_tree_delays(&spec)
        .expect("runs")
        .sinks
        .iter()
        .map(|sink| sink.delay_50.seconds())
        .collect();
    let worst = delays.iter().copied().fold(0.0, f64::max);
    let reference = sink_delays(&spec, Time::from_seconds(2.0 * worst), before / 4.0, delays.len());
    let distance = worst_distance(&delays, &reference);
    assert!(distance < 2e-6, "a sink is {distance:e} off the quarter-step run");
}

#[test]
fn a_stub_near_the_root_is_rerun_at_its_measured_crossing() {
    // A 5 Ω stub next to a 500 Ω, 2 pF side branch: the driver charges the
    // trunk and stub long before the side branch, so the whole-tree Elmore
    // estimate puts their crossing ~5× too late. Run at that estimate's
    // step the stub is over ten times further from a quarter-step run than
    // at the step along its path alone; the rerun at the measured crossing
    // must be no further than that.
    let branch = |parent, ohms, picofarads| TreeBranch {
        parent,
        total_resistance: Resistance::from_ohms(ohms),
        total_inductance: Inductance::from_nanohenries(0.01),
        total_capacitance: Capacitance::from_picofarads(picofarads),
        segments: 3,
        sink_capacitance: Capacitance::ZERO,
    };
    let mut spec = TreeSpec::new(Resistance::from_ohms(50.0));
    spec.branches =
        vec![branch(None, 10.0, 0.001), branch(Some(0), 5.0, 0.01), branch(Some(0), 500.0, 2.0)];
    let before = tree_step_along_paths_alone(&spec);
    let estimate = spec.suggested_timestep().seconds();
    assert!(estimate > 5.0 * before, "the estimate's step {estimate:e} vs {before:e}");

    let rerun = measure_tree_delays(&spec).expect("runs").sinks[0].delay_50.seconds();
    // The stub is the first sink. These windows are long enough not to cap
    // the step and end past the stub's crossing.
    let stub = |step: f64, window_step: f64| {
        sink_delays(&spec, Time::from_seconds(4000.0 * window_step), step, 1)[0]
    };
    let reference = stub(before / 4.0, before);
    let distance = |delay: f64| (delay - reference).abs() / reference;
    let at_estimate = distance(stub(estimate, estimate));
    let at_before = distance(stub(before, before));
    assert!(at_estimate > 10.0 * at_before, "the estimate's step is only {at_estimate:e} off");
    assert!(
        distance(rerun) <= at_before,
        "the rerun is {:e} off, the path-alone step {at_before:e}",
        distance(rerun)
    );
}

#[test]
fn a_stub_whose_crossing_holds_at_half_the_step_is_not_rerun() {
    // The tree above with a 10-segment trunk and stub and a one-segment side
    // branch. The stub crosses before the 400th step, but a run at half the
    // step moves its crossing by under 1e-5, so the first run stands: a
    // rerun at the measured crossing took ~51 k more steps and came out no
    // closer to a quarter-step run.
    let branch = |parent, ohms, picofarads, segments| TreeBranch {
        parent,
        total_resistance: Resistance::from_ohms(ohms),
        total_inductance: Inductance::from_nanohenries(0.01),
        total_capacitance: Capacitance::from_picofarads(picofarads),
        segments,
        sink_capacitance: Capacitance::ZERO,
    };
    let mut spec = TreeSpec::new(Resistance::from_ohms(50.0));
    spec.branches = vec![
        branch(None, 10.0, 0.001, 10),
        branch(Some(0), 5.0, 0.01, 10),
        branch(Some(0), 500.0, 2.0, 1),
    ];
    let step = spec.suggested_timestep().seconds();
    let first = sink_delays(&spec, Time::from_seconds(4000.0 * step), step, 1)[0];
    assert!(first < 400.0 * step, "the stub crosses after {} steps", first / step);
    let measured = measure_tree_delays(&spec).expect("runs").sinks[0].delay_50.seconds();
    assert_eq!(
        measured.to_bits(),
        first.to_bits(),
        "{measured:e} is not the first run's {first:e}"
    );
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
