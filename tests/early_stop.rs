//! A run ends at the last crossing its measurement reads: the early-stopped
//! `measure_*` results equal a run to the full horizon at the same step.
//! Delays and rise times are first crossings, so they match bit for bit;
//! an overshoot is within 0.1 points, and exactly 0 wherever either run's
//! is 0. The SRAM read and the bus delays are checked beside their private
//! step rules (`rlckit_netlist::sram`, `rlckit_coupling::crosstalk`).
//!
//! The collector that counts steps is process-global, so every test here
//! holds the telemetry test lock.

use rlckit::circuit::ladder::StepDelayMeasurement;
use rlckit::circuit::transient::{measure_transient, TransientOptions, TransientResult};
use rlckit::circuit::{CircuitError, NodeId};
use rlckit::prelude::*;
use rlckit::telemetry::test_support;

/// Delay, rise time and overshoot of each of `nodes` in a run to the full
/// horizon of `options`.
fn full_horizon(
    circuit: &rlckit::circuit::Circuit,
    nodes: &[NodeId],
    options: &TransientOptions,
    supply: Voltage,
) -> Vec<StepDelayMeasurement> {
    measure_transient(circuit, nodes, options, None, |result: &TransientResult| {
        nodes
            .iter()
            .map(|&node| {
                let wave = result.node_voltage(node);
                Ok(StepDelayMeasurement {
                    delay_50: wave.delay_50(supply)?,
                    rise_time: wave.rise_time(supply)?,
                    overshoot_percent: wave.overshoot_percent(supply),
                })
            })
            .collect::<Result<Vec<_>, CircuitError>>()
    })
    .expect("every node crosses within the horizon")
}

fn assert_same(what: &str, stopped: &StepDelayMeasurement, full: &StepDelayMeasurement) {
    assert_eq!(stopped.delay_50.seconds().to_bits(), full.delay_50.seconds().to_bits(), "{what}");
    assert_eq!(stopped.rise_time.seconds().to_bits(), full.rise_time.seconds().to_bits(), "{what}");
    let (a, b) = (stopped.overshoot_percent, full.overshoot_percent);
    if a == 0.0 || b == 0.0 {
        assert_eq!(a, b, "{what}: overshoot");
    } else {
        assert!((a - b).abs() <= 0.1, "{what}: overshoot {a} vs {b}");
    }
}

/// The Fig. 2 ladders: a 500 Ω, 1 pF line, its inductance set for
/// ζ = 0.1…2.3 at the three (R_T, C_T) corners of the paper. The
/// `fig2_scaled_delay` binary uses 40 sections; 10 keep this test fast in
/// debug builds, and where a run ends does not depend on the count.
fn fig2_ladders() -> Vec<(String, LadderSpec)> {
    let (rt, ct) = (500.0f64, 1e-12f64);
    let mut specs = Vec::new();
    for (rt_ratio, ct_ratio) in [(0.0, 0.0), (1.0, 1.0), (5.0, 5.0)] {
        for i in 0..12 {
            let zeta = 0.1 + f64::from(i) * 0.2;
            let g: f64 = rt_ratio + ct_ratio + rt_ratio * ct_ratio + 0.5;
            let lt = ((rt / 2.0) * ct.sqrt() * g / (1.0f64 + ct_ratio).sqrt() / zeta).powi(2);
            let spec = LadderSpec {
                total_resistance: Resistance::from_ohms(rt),
                total_inductance: Inductance::from_henries(lt),
                total_capacitance: Capacitance::from_farads(ct),
                segments: 10,
                style: SegmentStyle::Pi,
                driver_resistance: Resistance::from_ohms(rt_ratio * rt),
                load_capacitance: Capacitance::from_farads(ct_ratio * ct),
                supply: Voltage::from_volts(1.0),
            };
            specs.push((format!("R_T = {rt_ratio}, C_T = {ct_ratio}, ζ = {zeta:.1}"), spec));
        }
    }
    specs
}

#[test]
fn the_fig2_ladders_stop_early_without_moving_a_number() {
    let _serial = test_support::lock();
    let mut stopped_early = 0;
    for (what, spec) in fig2_ladders() {
        let line = spec.build().expect("builds");
        let options = TransientOptions::new(spec.suggested_stop_time(), spec.suggested_timestep());
        let full = full_horizon(&line.circuit, &[line.output], &options, spec.supply);
        let (stopped, steps) = steps_of(|| measure_step_delay(&spec).expect("measures"));
        assert_same(&what, &stopped, &full[0]);
        stopped_early += usize::from(steps < horizon_steps(&options));
    }
    // The lines that ring past their horizon run to it; the others stop.
    assert_eq!(stopped_early, 22, "ladders that stopped early, of 36");
}

#[test]
fn a_fan_out_3_figure_tree_stops_early_without_moving_a_number() {
    use rlckit::sweep::eval::scenario_line;
    use rlckit::sweep::figures::tree_worst_sink_delay_spec;
    let _serial = test_support::lock();
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

    let net = spec.build().expect("builds");
    let sinks: Vec<NodeId> = net.sinks.iter().map(|sink| sink.node).collect();
    let options = TransientOptions::new(spec.suggested_stop_time(), spec.suggested_timestep());
    let full = full_horizon(&net.circuit, &sinks, &options, spec.supply);
    let (report, steps) = steps_of(|| measure_tree_delays(&spec).expect("measures"));
    assert_eq!(report.sinks.len(), full.len());
    for (i, (sink, full)) in report.sinks.iter().zip(&full).enumerate() {
        let stopped = StepDelayMeasurement {
            delay_50: sink.delay_50,
            rise_time: sink.rise_time,
            overshoot_percent: sink.overshoot_percent,
        };
        assert_same(&format!("sink {i}"), &stopped, full);
    }
    assert!(2 * steps < horizon_steps(&options), "{steps} steps");
}

#[test]
fn the_benchmark_ladder_stops_within_1600_steps() {
    // The 200-section ladder of the `ladder_measure` benchmark crosses 90%
    // at step 1 515 of 5 456 and never rings.
    let _serial = test_support::lock();
    let mut spec = LadderSpec::new(
        Resistance::from_ohms(500.0),
        Inductance::from_nanohenries(10.0),
        Capacitance::from_picofarads(1.0),
        Resistance::from_ohms(250.0),
        Capacitance::from_picofarads(0.1),
    );
    spec.segments = 200;
    let (_, steps) = steps_of(|| measure_step_delay(&spec).expect("measures"));
    assert!(steps <= 1600, "{steps} steps");
}

/// The value of `run` and the transient steps it took.
fn steps_of<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let _collector = Collector::enable();
    Collector::reset();
    let value = run();
    let steps = Collector::snapshot().counter("transient.steps").expect("counted");
    Collector::reset();
    (value, steps)
}

/// The steps of a run to the full horizon of `options`.
fn horizon_steps(options: &TransientOptions) -> u64 {
    (options.stop_time.seconds() / options.step.seconds()).ceil() as u64
}
