//! The transient measurement driver's contract: its one horizon-retry
//! policy, where a run ends, probe-only recording, and the initial
//! condition it starts from.

use rlckit_circuit::dc::operating_point_at;
use rlckit_circuit::transient::{measure_transient, run_transient, StopRule, TransientOptions};
use rlckit_circuit::{Circuit, CircuitError, NodeId, SourceWaveform};
use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

/// RC time constant of [`rc_circuit`]: 1 kΩ × 1 pF.
const TAU: f64 = 1e-9;

/// A 1 kΩ / 1 pF low-pass driven by `stimulus`; returns the circuit and its
/// input and output nodes.
fn rc_circuit(stimulus: SourceWaveform) -> (Circuit, NodeId, NodeId) {
    let mut c = Circuit::new();
    let input = c.add_node();
    let out = c.add_node();
    let gnd = c.ground();
    c.add_voltage_source(input, gnd, stimulus).unwrap();
    c.add_resistor(input, out, Resistance::from_ohms(1000.0)).unwrap();
    c.add_capacitor(out, gnd, Capacitance::from_picofarads(1.0)).unwrap();
    (c, input, out)
}

#[test]
fn a_first_horizon_too_short_is_extended_up_to_the_fourth_attempt() {
    let (c, _, out) = rc_circuit(SourceWaveform::unit_step());
    let delay = TAU * std::f64::consts::LN_2;
    // Horizons delay/20, delay/5 and 0.8·delay all miss the crossing; only
    // the fourth, 3.2·delay, sees it.
    let options =
        TransientOptions::new(Time::from_seconds(delay / 20.0), Time::from_seconds(TAU / 1e5));
    let mut attempts = 0;
    let measured = measure_transient(&c, &[out], &options, None, |result| {
        attempts += 1;
        result.node_voltage(out).delay_50(Voltage::from_volts(1.0))
    })
    .expect("the fourth horizon sees the crossing");
    assert_eq!(attempts, 4);
    assert!((measured.seconds() - delay).abs() < 1e-3 * delay, "delay {}", measured.seconds());
}

#[test]
fn a_measurement_that_never_succeeds_returns_the_last_error_after_four_attempts() {
    let (c, _, out) = rc_circuit(SourceWaveform::unit_step());
    let options = TransientOptions::new(Time::from_seconds(TAU), Time::from_seconds(TAU / 100.0));
    let mut horizons = Vec::new();
    let err = measure_transient(&c, &[out], &options, None, |result| -> Result<(), CircuitError> {
        horizons.push(*result.node_voltage(out).times().last().expect("non-empty run"));
        Err(CircuitError::Measurement { reason: format!("attempt {}", horizons.len()) })
    })
    .unwrap_err();
    assert!(matches!(err, CircuitError::Measurement { ref reason } if reason == "attempt 4"));
    let ratios: Vec<f64> = horizons.windows(2).map(|w| w[1] / w[0]).collect();
    assert_eq!(horizons.len(), 4);
    // Each horizon is four times the last, up to one step of rounding.
    assert!(ratios.iter().all(|r| (r - 4.0).abs() < 1e-2), "horizon ratios {ratios:?}");
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The times and output samples of a driver run whose measurement accepts
/// whatever it is given.
fn recorded(
    c: &Circuit,
    out: NodeId,
    options: &TransientOptions,
    stop: Option<StopRule>,
) -> (Vec<f64>, Vec<f64>) {
    measure_transient(c, &[out], options, stop, |result| {
        let wave = result.node_voltage(out);
        Ok::<_, CircuitError>((wave.times().to_vec(), wave.values().to_vec()))
    })
    .unwrap()
}

#[test]
fn a_run_ends_at_the_first_step_past_the_crossing_in_either_direction() {
    let falling = SourceWaveform::PieceWiseLinear {
        points: vec![
            (Time::ZERO, Voltage::from_volts(1.0)),
            (Time::from_seconds(1e-15), Voltage::ZERO),
        ],
    };
    let rise: fn(f64) -> f64 = |v| v;
    let fall: fn(f64) -> f64 = |v| 1.0 - v;
    let options =
        TransientOptions::new(Time::from_seconds(5.0 * TAU), Time::from_seconds(TAU / 400.0));
    for (stimulus, stop, read) in [
        (SourceWaveform::unit_step(), StopRule::rising(0.5), rise),
        (falling, StopRule::falling(1.0, 0.5), fall),
    ] {
        let (c, _, out) = rc_circuit(stimulus);
        let (_, full) = recorded(&c, out, &options, None);
        let (_, stopped) = recorded(&c, out, &options, Some(stop));
        let n = stopped.len();
        assert_eq!(bits(&stopped), bits(&full[..n]), "the stopped run is a prefix of the full one");
        assert!(read(stopped[n - 2]) <= 0.5 && read(stopped[n - 1]) > 0.5, "{stop:?}");
        // The crossing is at ln 2·τ, step 278 of 2000.
        assert_eq!(n - 1, 278, "{stop:?}");
    }
}

#[test]
fn a_run_that_reads_a_peak_ends_once_the_slowest_mode_has_rung_down() {
    // A series 20 Ω, 10 nH, 1 pF circuit rings as e^{−R/(2L)·t}: down to
    // 1e-3 after ln 1000 · 2L/R ≈ 6.9 ns of a 20 ns horizon.
    let mut c = Circuit::new();
    let (input, mid, out) = (c.add_node(), c.add_node(), c.add_node());
    let gnd = c.ground();
    c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
    c.add_resistor(input, mid, Resistance::from_ohms(20.0)).unwrap();
    c.add_inductor(mid, out, Inductance::from_nanohenries(10.0)).unwrap();
    c.add_capacitor(out, gnd, Capacitance::from_picofarads(1.0)).unwrap();
    let rate = 20.0 / (2.0 * 10e-9);
    let options = TransientOptions::new(Time::from_seconds(20e-9), Time::from_picoseconds(2.0));
    let (_, full) = recorded(&c, out, &options, None);
    let stop = StopRule::rising(0.9).and_ring_down(rate);
    let (times, stopped) = recorded(&c, out, &options, Some(stop));
    let n = times.len();
    let rung_down = |t: f64| (-rate * t).exp() <= 1e-3;
    assert!(rung_down(times[n - 1]) && !rung_down(times[n - 2]), "ended at {:e} s", times[n - 1]);
    assert!(n < full.len() / 2, "{n} of {} samples", full.len());
    assert_eq!(bits(&stopped), bits(&full[..n]));
    let peak = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    assert_eq!(peak(&stopped).to_bits(), peak(&full).to_bits(), "the peak is before the stop");
}

#[test]
fn a_horizon_retry_that_continues_a_run_stops_where_a_fresh_longer_run_does() {
    // The first horizon, 0.2·τ, misses the 50% crossing at 0.69·τ; the
    // second, 0.8·τ, continues the run in place at the same step and stops
    // at the crossing, as a fresh run at 0.8·τ does.
    let (c, _, out) = rc_circuit(SourceWaveform::unit_step());
    let step = Time::from_seconds(TAU / 2e4);
    let stop = Some(StopRule::rising(0.5));
    let mut attempts = 0;
    let retried = measure_transient(
        &c,
        &[out],
        &TransientOptions::new(Time::from_seconds(0.2 * TAU), step),
        stop,
        |result| {
            attempts += 1;
            let wave = result.node_voltage(out);
            wave.delay_50(Voltage::from_volts(1.0))?;
            Ok::<_, CircuitError>(wave.values().to_vec())
        },
    )
    .unwrap();
    assert_eq!(attempts, 2);
    let fresh = TransientOptions::new(Time::from_seconds(0.8 * TAU), step);
    let (_, fresh) = recorded(&c, out, &fresh, stop);
    assert_eq!(bits(&retried), bits(&fresh));
    let n = retried.len();
    assert!(retried[n - 2] <= 0.5 && retried[n - 1] > 0.5, "ended at the crossing");
}

#[test]
fn a_rule_that_ends_a_run_before_what_it_measures_returns_the_error() {
    // The rule ends the run at 20%, before the 50% crossing the measurement
    // reads. A longer horizon would end at the same step, so the error is
    // returned without another attempt.
    let (c, _, out) = rc_circuit(SourceWaveform::unit_step());
    let options =
        TransientOptions::new(Time::from_seconds(5.0 * TAU), Time::from_seconds(TAU / 400.0));
    let mut lengths = Vec::new();
    let err = measure_transient(&c, &[out], &options, Some(StopRule::rising(0.2)), |result| {
        lengths.push(result.len());
        result.node_voltage(out).delay_50(Voltage::from_volts(1.0))
    })
    .unwrap_err();
    assert!(matches!(err, CircuitError::Measurement { .. }), "{err:?}");
    // At τ/400 a step, 20% is crossed at 0.22·τ, step 90 of 2000.
    assert_eq!(lengths, [91]);
}

#[test]
fn bad_options_fail_before_any_simulation() {
    let (c, _, out) = rc_circuit(SourceWaveform::unit_step());
    let options = TransientOptions::new(Time::ZERO, Time::from_picoseconds(1.0));
    let result = measure_transient(&c, &[out], &options, None, |_| Ok::<_, CircuitError>(()));
    assert!(matches!(result, Err(CircuitError::InvalidAnalysis { .. })));
}

#[test]
#[should_panic(expected = "was not recorded")]
fn reading_a_node_that_is_not_a_probe_panics() {
    let (c, input, out) = rc_circuit(SourceWaveform::unit_step());
    let options = TransientOptions::new(Time::from_seconds(TAU), Time::from_seconds(TAU / 100.0));
    let _ = measure_transient(&c, &[out], &options, None, |result| {
        Ok::<_, CircuitError>(result.node_voltage(input))
    });
}

#[test]
fn repeated_and_ground_probes_are_recorded_once() {
    let (c, _, out) = rc_circuit(SourceWaveform::unit_step());
    let options = TransientOptions::new(Time::from_seconds(TAU), Time::from_seconds(TAU / 100.0));
    let output_samples = |probes: &[NodeId]| {
        measure_transient(&c, probes, &options, None, |result| {
            Ok::<_, CircuitError>(result.node_voltage(out).values().to_vec())
        })
        .unwrap()
    };
    assert_eq!(output_samples(&[out, c.ground(), out]), output_samples(&[out]));
}

#[test]
fn a_nonzero_stimulus_at_t0_starts_from_the_dc_operating_point() {
    let (c, _, out) = rc_circuit(SourceWaveform::Dc { level: Voltage::from_volts(1.0) });
    let options = TransientOptions::new(Time::from_seconds(TAU), Time::from_seconds(TAU / 100.0));
    let result = run_transient(&c, &options).unwrap();
    let wave = result.node_voltage(out);
    assert!(wave.values().iter().all(|v| (v - 1.0).abs() < 1e-9), "the output never moves");
}

/// A voltage source across an inductor: at DC the inductor is a short in
/// parallel with the source, so the DC matrix is singular, while the
/// discretised transient matrix is not.
fn source_across_an_inductor(stimulus: SourceWaveform) -> (Circuit, NodeId) {
    let (mut c, input, out) = rc_circuit(stimulus);
    let gnd = c.ground();
    c.add_inductor(input, gnd, Inductance::from_nanohenries(1.0)).unwrap();
    (c, out)
}

#[test]
fn a_step_stimulus_simulates_a_circuit_whose_dc_matrix_is_singular() {
    let (c, out) = source_across_an_inductor(SourceWaveform::unit_step());
    assert!(matches!(operating_point_at(&c, Time::ZERO), Err(CircuitError::SingularSystem { .. })));
    let options =
        TransientOptions::new(Time::from_seconds(5.0 * TAU), Time::from_seconds(TAU / 1000.0));
    let result = run_transient(&c, &options).expect("x = 0 needs no DC solve");
    let last = *result.node_voltage(out).values().last().unwrap();
    assert!((last - 1.0).abs() < 1e-2);
}

#[test]
fn a_dc_stimulus_still_rejects_a_singular_dc_matrix() {
    let (c, _) = source_across_an_inductor(SourceWaveform::Dc { level: Voltage::from_volts(1.0) });
    let options = TransientOptions::new(Time::from_seconds(TAU), Time::from_seconds(TAU / 100.0));
    let result = run_transient(&c, &options);
    assert!(matches!(result, Err(CircuitError::SingularSystem { stage: "dc analysis" })));
}

#[test]
fn a_step_starts_at_its_full_value_from_zero_plus() {
    // At 100 steps per τ the delay is within 1e-4 of ln 2·τ. A first step
    // that averaged the source at 0 and dt put it half a step late (+7.2e-3),
    // and a trapezoidal first step from the t = 0 operating point would leave
    // the source node alternating between 0 and 2 V.
    let (c, input, out) = rc_circuit(SourceWaveform::unit_step());
    let options =
        TransientOptions::new(Time::from_seconds(5.0 * TAU), Time::from_seconds(TAU / 100.0));
    let result = run_transient(&c, &options).unwrap();
    let delay = result.node_voltage(out).delay_50(Voltage::from_volts(1.0)).unwrap().seconds();
    let error = delay / (TAU * std::f64::consts::LN_2) - 1.0;
    assert!(error.abs() < 1e-4, "relative delay error {error:e}");
    assert!(result.node_voltage(input).values()[1..].iter().all(|&v| (v - 1.0).abs() < 1e-12));
}
