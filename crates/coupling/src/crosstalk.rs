//! Coupled-bus transient simulation and crosstalk metrics.
//!
//! [`simulate_bus`] runs one switching pattern through the MNA transient
//! solver (the sparse kernel, like every analysis in the workspace) and
//! wraps the result in a [`BusTransient`] that knows which conductor is
//! which, so measurements can be asked for by *signal* index.
//!
//! [`crosstalk_metrics`] packages the paper-style summary for one victim
//! wire: peak noise when the victim is quiet under rising aggressors, the
//! odd-mode (worst-case) and even-mode (best-case) 50% delays, and the
//! push-out / pull-in of those delays relative to the isolated-line baseline
//! of `CoupledBus::isolated_line`.

use rlckit_circuit::transient::{
    measure_transient, path_crossing, run_transient, suggested_step, StopRule, TransientOptions,
    TransientResult,
};
use rlckit_circuit::Waveform;
use rlckit_units::{Time, Voltage};

use crate::bus::{ConductorRole, CoupledBus};
use crate::error::CouplingError;
use crate::netlist::{build_bus_circuit, BusCircuit, BusDrive};
use crate::scenario::{LineDrive, SwitchingPattern};

/// Transient options sized for a bus: per signal wire, the step rule of
/// `rlckit_circuit::transient` with the wire's isolated-line horizon and
/// segment time of flight, and the finest step and longest horizon over the
/// wires.
///
/// Coupled modes outlive the isolated line, so the rule's "ringing has died
/// by the crossing" test is made on the worst mode: the slowest decay
/// `R/(2(L + Σ|M|))` by the earliest crossing, `ln 2` × the Elmore delay
/// through the ground capacitance alone (the even mode charges no coupling
/// capacitance).
///
/// # Errors
///
/// Propagates construction errors from the per-wire isolated lines.
pub fn suggested_options(
    bus: &CoupledBus,
    drive: &BusDrive,
) -> Result<TransientOptions, CouplingError> {
    let length = bus.length().meters();
    let mut step = f64::INFINITY;
    let mut stop = 0.0f64;
    for i in bus.signal_indices() {
        let spec = bus.isolated_line(i)?.to_ladder_spec(
            drive.driver_resistance,
            drive.load_capacitance,
            drive.sections,
            drive.supply,
        );
        let horizon = spec.suggested_stop_time().seconds();
        let (lt, cl) = (spec.total_inductance.henries(), spec.load_capacitance.farads());
        let segment_tof =
            (lt * (spec.total_capacitance.farads() + cl)).sqrt() / drive.sections as f64;
        let self_l = bus.self_inductance(i).henries_per_meter();
        let mutual_l: f64 = (0..bus.conductors())
            .map(|j| {
                let lj = bus.self_inductance(j).henries_per_meter();
                bus.coupling_coefficient(i, j).abs() * (self_l * lj).sqrt()
            })
            .sum();
        let rt = spec.total_resistance.ohms();
        let ground_c = bus.ground_capacitance(i).farads_per_meter() * length;
        let driver = (spec.driver_resistance.ohms(), 0.0, 0.0, 0.0);
        let crossing = path_crossing([(rt, 0.0, ground_c, cl), driver]);
        let decay_rate = rt / (2.0 * (self_l + mutual_l) * length);
        step = step.min(suggested_step(horizon, crossing, [(decay_rate, segment_tof)]));
        stop = stop.max(horizon);
    }
    Ok(TransientOptions::new(Time::from_seconds(stop), Time::from_seconds(step)))
}

/// Result of one coupled-bus transient run.
#[derive(Debug, Clone)]
pub struct BusTransient {
    circuit: BusCircuit,
    result: TransientResult,
}

impl BusTransient {
    /// Voltage waveform at the far end of signal wire `signal`.
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::LineIndex`] for an out-of-range signal wire.
    pub fn output(&self, signal: usize) -> Result<Waveform, CouplingError> {
        let node = self.circuit.signal_output(signal)?;
        Ok(self.result.node_voltage(node))
    }

    /// 50% propagation delay of a switching signal wire, measured in its own
    /// switching direction (rising wires upward, falling wires downward).
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::Measurement`] if the wire is not switching in
    /// this pattern or never crosses 50%.
    pub fn delay_50(&self, signal: usize) -> Result<Time, CouplingError> {
        signal_delay_50(&self.circuit, &self.result, signal)
    }
}

/// Builds and simulates one switching pattern on a bus.
///
/// # Errors
///
/// Propagates netlist-construction and transient-analysis errors.
pub fn simulate_bus(
    bus: &CoupledBus,
    pattern: &SwitchingPattern,
    drive: &BusDrive,
    options: &TransientOptions,
) -> Result<BusTransient, CouplingError> {
    let circuit = build_bus_circuit(bus, pattern, drive)?;
    let result = run_transient(&circuit.circuit, options)?;
    Ok(BusTransient { circuit, result })
}

/// Paper-style crosstalk summary for one victim wire of a bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrosstalkMetrics {
    /// Peak noise on the quiet victim while every aggressor rises.
    pub victim_peak_noise: Voltage,
    /// Victim 50% delay when its neighbours switch the opposite way.
    pub odd_mode_delay: Time,
    /// Victim 50% delay when the whole bus switches together.
    pub even_mode_delay: Time,
    /// 50% delay of the victim's isolated-line equivalent
    /// (`CoupledBus::isolated_line`), simulated with the same drive and
    /// discretisation.
    pub isolated_delay: Time,
}

impl CrosstalkMetrics {
    /// Worst-case delay push-out, `odd − isolated`.
    pub fn pushout(&self) -> Time {
        self.odd_mode_delay - self.isolated_delay
    }

    /// Best-case delay pull-in, `isolated − even`.
    pub fn pullin(&self) -> Time {
        self.isolated_delay - self.even_mode_delay
    }

    /// Odd-to-even delay spread as a fraction of the isolated delay.
    pub fn delay_spread_fraction(&self) -> f64 {
        (self.odd_mode_delay.seconds() - self.even_mode_delay.seconds())
            / self.isolated_delay.seconds()
    }

    /// Peak victim noise as a fraction of the supply.
    pub fn noise_fraction(&self, supply: Voltage) -> f64 {
        self.victim_peak_noise.volts() / supply.volts()
    }
}

/// Runs the three canonical patterns (victim-quiet, odd mode, even mode) plus
/// the isolated-line baseline and collects the victim's crosstalk metrics.
///
/// Each delay run records only the measured wire, ends at its 50% crossing
/// (falling wires cross downward), and has its horizon extended
/// ([`measure_transient`]) if the wire does not cross 50% within the
/// suggested window. The victim-quiet run reads the peak noise, so it runs
/// to the horizon, and it too records only the victim's output.
///
/// # Errors
///
/// Propagates construction/simulation errors, or the last measurement error
/// if a delay never crosses 50% even after extending the horizon.
pub fn crosstalk_metrics(
    bus: &CoupledBus,
    victim: usize,
    drive: &BusDrive,
) -> Result<CrosstalkMetrics, CouplingError> {
    let lines = bus.signal_count();
    bus.check_signal_index(victim)?;
    let options = suggested_options(bus, drive)?;

    let quiet = SwitchingPattern::victim_quiet(victim, lines)?;
    let victim_peak_noise = noise_run(bus, &quiet, drive, &options, victim)?;

    let odd_pattern = SwitchingPattern::odd_mode(victim, lines)?;
    let even_pattern = SwitchingPattern::even_mode(lines)?;
    let odd_mode_delay = delay_with_retry(bus, &odd_pattern, drive, &options, victim)?;
    let even_mode_delay = delay_with_retry(bus, &even_pattern, drive, &options, victim)?;

    let isolated = isolated_bus(bus, victim)?;
    let isolated_delay =
        delay_with_retry(&isolated, &SwitchingPattern::even_mode(1)?, drive, &options, 0)?;

    Ok(CrosstalkMetrics { victim_peak_noise, odd_mode_delay, even_mode_delay, isolated_delay })
}

/// The victim's isolated-line equivalent as a one-conductor bus, so the
/// baseline runs through exactly the same discretisation and solver path.
fn isolated_bus(bus: &CoupledBus, victim: usize) -> Result<CoupledBus, CouplingError> {
    let conductor = bus.check_signal_index(victim)?;
    let line = bus.isolated_line(conductor)?;
    CoupledBus::from_matrices(
        vec![line.resistance_per_length().ohms_per_meter()],
        vec![vec![line.inductance_per_length().henries_per_meter()]],
        vec![line.capacitance_per_length().farads_per_meter()],
        vec![vec![0.0]],
        vec![ConductorRole::Signal],
        bus.length(),
    )
}

/// Simulates a pattern to its horizon and measures a quiet signal wire's
/// peak noise, recording only that wire's output: the memory a run keeps is
/// one waveform, not one per node of the bus.
fn noise_run(
    bus: &CoupledBus,
    pattern: &SwitchingPattern,
    drive: &BusDrive,
    options: &TransientOptions,
    victim: usize,
) -> Result<Voltage, CouplingError> {
    let circuit = build_bus_circuit(bus, pattern, drive)?;
    let output = circuit.outputs[circuit.signal_conductor(victim)?];
    measure_transient(&circuit.circuit, &[output], options, None, |result| {
        signal_peak_noise(&circuit, result, victim)
    })
}

/// Simulates a pattern and measures one signal wire's 50% delay, recording
/// only that wire's output and extending the horizon if it does not cross
/// in time ([`measure_transient`]). The run ends at that crossing, in the
/// wire's own direction, so the delay is bit for bit that of a run to the
/// horizon.
pub(crate) fn delay_with_retry(
    bus: &CoupledBus,
    pattern: &SwitchingPattern,
    drive: &BusDrive,
    options: &TransientOptions,
    victim: usize,
) -> Result<Time, CouplingError> {
    let circuit = build_bus_circuit(bus, pattern, drive)?;
    let conductor = circuit.signal_conductor(victim)?;
    let supply = circuit.supply.volts();
    let stop = match circuit.drives[conductor] {
        LineDrive::Rising => Some(StopRule::rising(0.5 * supply)),
        LineDrive::Falling => Some(StopRule::falling(supply, 0.5 * supply)),
        LineDrive::Quiet | LineDrive::QuietHigh => None,
    };
    measure_transient(&circuit.circuit, &[circuit.outputs[conductor]], options, stop, |result| {
        signal_delay_50(&circuit, result, victim)
    })
}

/// 50% delay of a switching signal wire in its own switching direction
/// (see [`BusTransient::delay_50`]).
fn signal_delay_50(
    circuit: &BusCircuit,
    result: &TransientResult,
    signal: usize,
) -> Result<Time, CouplingError> {
    let conductor = circuit.signal_conductor(signal)?;
    let wave = result.node_voltage(circuit.outputs[conductor]);
    let supply = circuit.supply;
    match circuit.drives[conductor] {
        LineDrive::Rising => wave.delay_50(supply).map_err(CouplingError::from),
        LineDrive::Falling => {
            // Measure the fall as a rise of the complementary waveform.
            let flipped: Vec<f64> = wave.values().iter().map(|v| supply.volts() - v).collect();
            Waveform::from_samples(wave.times().to_vec(), flipped)?
                .delay_50(supply)
                .map_err(CouplingError::from)
        }
        LineDrive::Quiet | LineDrive::QuietHigh => Err(CouplingError::Measurement {
            reason: format!("signal wire {signal} is quiet in this pattern"),
        }),
    }
}

/// Peak deviation of a quiet signal wire from its steady level — the
/// crosstalk noise coupled in by the aggressors. A switching wire is a
/// [`CouplingError::Measurement`]: its excursion is signal, not noise.
fn signal_peak_noise(
    circuit: &BusCircuit,
    result: &TransientResult,
    signal: usize,
) -> Result<Voltage, CouplingError> {
    let conductor = circuit.signal_conductor(signal)?;
    let drive = circuit.drives[conductor];
    if drive.is_switching() {
        return Err(CouplingError::Measurement {
            reason: format!("signal wire {signal} switches in this pattern"),
        });
    }
    let steady = drive.final_level(circuit.supply).volts();
    let wave = result.node_voltage(circuit.outputs[conductor]);
    let peak = wave.values().iter().map(|v| (v - steady).abs()).fold(0.0f64, f64::max);
    Ok(Voltage::from_volts(peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::UniformBusSpec;
    use rlckit_units::{
        Capacitance, CapacitancePerLength, InductancePerLength, Length, Resistance,
        ResistancePerLength,
    };

    fn bus() -> CoupledBus {
        UniformBusSpec {
            lines: 3,
            resistance: ResistancePerLength::from_ohms_per_millimeter(1.3),
            self_inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
            ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
            coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
            inductive_coupling: vec![0.35, 0.15],
            length: Length::from_millimeters(5.0),
        }
        .build()
        .unwrap()
    }

    fn drive() -> BusDrive {
        BusDrive::new(
            Resistance::from_ohms(112.5),
            Capacitance::from_femtofarads(120.0),
            Voltage::from_volts(1.8),
        )
        .with_sections(12)
    }

    #[test]
    fn quiet_victim_sees_noise_and_cannot_report_a_delay() {
        let bus = bus();
        let drive = drive();
        let options = suggested_options(&bus, &drive).unwrap();
        let pattern = SwitchingPattern::victim_quiet(1, 3).unwrap();
        let sim = simulate_bus(&bus, &pattern, &drive, &options).unwrap();
        let noise = signal_peak_noise(&sim.circuit, &sim.result, 1).unwrap();
        assert!(
            noise.volts() > 0.05,
            "two rising aggressors must couple visible noise, got {noise}"
        );
        assert!(noise.volts() < 1.8, "noise cannot exceed the full swing");
        assert!(sim.delay_50(1).is_err());
        // The aggressors switch: their delays are measurable, their noise is not.
        assert!(sim.delay_50(0).is_ok());
        assert!(signal_peak_noise(&sim.circuit, &sim.result, 0).is_err());
        assert!(sim.output(1).unwrap().values().len() > 100);
        assert!(sim.output(5).is_err());
    }

    #[test]
    fn crosstalk_metrics_reproduce_the_qualitative_ordering() {
        // The acceptance-criterion scenario: on a capacitively coupled bus,
        // odd-mode switching is slower and even-mode faster than the
        // isolated-line delay, and a quiet victim sees non-trivial noise.
        let metrics = crosstalk_metrics(&bus(), 1, &drive()).unwrap();
        assert!(
            metrics.odd_mode_delay > metrics.isolated_delay,
            "odd mode {} must be slower than isolated {}",
            metrics.odd_mode_delay,
            metrics.isolated_delay
        );
        assert!(
            metrics.even_mode_delay < metrics.isolated_delay,
            "even mode {} must be faster than isolated {}",
            metrics.even_mode_delay,
            metrics.isolated_delay
        );
        assert!(metrics.pushout().seconds() > 0.0);
        assert!(metrics.pullin().seconds() > 0.0);
        assert!(metrics.delay_spread_fraction() > 0.1);
        assert!(metrics.victim_peak_noise.volts() > 0.05);
        assert!(metrics.noise_fraction(Voltage::from_volts(1.8)) < 1.0);
    }

    #[test]
    fn a_delay_run_ends_at_its_crossing_with_the_full_horizon_delay() {
        // Odd and even mode of the victim, and the odd mode's falling
        // neighbour: each run ends at the wire's own 50% crossing and
        // returns the delay of a run to the horizon, bit for bit.
        let bus = bus();
        let drive = drive();
        let options = suggested_options(&bus, &drive).unwrap();
        let odd = SwitchingPattern::odd_mode(1, 3).unwrap();
        let even = SwitchingPattern::even_mode(3).unwrap();
        for (pattern, wire) in [(&odd, 1), (&even, 1), (&odd, 0)] {
            let stopped = delay_with_retry(&bus, pattern, &drive, &options, wire).unwrap();
            let full = simulate_bus(&bus, pattern, &drive, &options).unwrap().delay_50(wire);
            assert_eq!(
                stopped.seconds().to_bits(),
                full.unwrap().seconds().to_bits(),
                "{pattern:?}, wire {wire}"
            );
        }
    }

    #[test]
    fn the_noise_run_records_the_victim_alone_with_the_full_run_noise() {
        let bus = bus();
        let drive = drive();
        let options = suggested_options(&bus, &drive).unwrap();
        let quiet = SwitchingPattern::victim_quiet(1, 3).unwrap();
        let alone = noise_run(&bus, &quiet, &drive, &options, 1).unwrap();
        let full = simulate_bus(&bus, &quiet, &drive, &options).unwrap();
        let full = signal_peak_noise(&full.circuit, &full.result, 1).unwrap();
        assert_eq!(alone.volts().to_bits(), full.volts().to_bits());
    }

    #[test]
    fn falling_delays_are_measured_downward() {
        let bus = bus();
        let drive = drive();
        let options = suggested_options(&bus, &drive).unwrap();
        // All three wires fall together: even mode mirrored. The delay is
        // well-defined and close to the rising even-mode delay by symmetry.
        let falling = SwitchingPattern::new(vec![crate::scenario::LineDrive::Falling; 3]).unwrap();
        let rising = SwitchingPattern::even_mode(3).unwrap();
        let fall_sim = simulate_bus(&bus, &falling, &drive, &options).unwrap();
        let rise_sim = simulate_bus(&bus, &rising, &drive, &options).unwrap();
        let fall = fall_sim.delay_50(1).unwrap();
        let rise = rise_sim.delay_50(1).unwrap();
        let diff = (fall.seconds() - rise.seconds()).abs() / rise.seconds();
        assert!(diff < 1e-6, "fall {} vs rise {} differ by {diff}", fall, rise);
    }
}
