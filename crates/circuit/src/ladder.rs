//! Gate-driven RLC transmission-line ladders (the circuit of Fig. 1).
//!
//! The distributed line is approximated by `N` identical lumped segments. With
//! the default [`SegmentStyle::Pi`] topology each segment carries the series
//! impedance `R/N`, `L/N` with half of the shunt capacitance `C/N` at each
//! end, which converges to the distributed line with second-order accuracy in
//! `1/N`.
//!
//! The driver is the paper's abstraction of a CMOS gate: an ideal step source
//! behind the equivalent output resistance `Rtr`. The far end carries the
//! receiver input capacitance `CL`.

use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

use crate::error::{non_negative, positive, CircuitError};
use crate::netlist::{Circuit, NodeId, SourceId};
use crate::source::SourceWaveform;
use crate::transient::{
    measure_transient, path_crossing, suggested_step, StopRule, TransientOptions,
};
use crate::waveform::Waveform;

/// Lumped-segment topology used to discretise the distributed line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SegmentStyle {
    /// Series `R/N`–`L/N` followed by the full shunt `C/N` (first-order accurate).
    LSection,
    /// Half the shunt capacitance on each side of the series impedance
    /// (second-order accurate, default).
    #[default]
    Pi,
}

impl SegmentStyle {
    /// Appends a uniform line of `segments` lumped segments with the totals
    /// `(R, L, C)` to `start`, and returns its far-end node.
    pub(crate) fn add_line(
        self,
        circuit: &mut Circuit,
        start: NodeId,
        segments: usize,
        (r, l, c): (Resistance, Inductance, Capacitance),
    ) -> Result<NodeId, CircuitError> {
        let n = segments as f64;
        let (r_seg, l_seg, c_seg) = (r / n, l / n, c / n);
        let gnd = circuit.ground();
        let mut prev = start;
        for _ in 0..segments {
            // π: half the shunt at each side of the series R–L; L: all of it
            // at the far side.
            if self == Self::Pi {
                circuit.add_capacitor(prev, gnd, c_seg / 2.0)?;
            }
            let mid = circuit.add_node();
            let next = circuit.add_node();
            circuit.add_resistor(prev, mid, r_seg)?;
            circuit.add_inductor(mid, next, l_seg)?;
            let far_shunt = if self == Self::Pi { c_seg / 2.0 } else { c_seg };
            circuit.add_capacitor(next, gnd, far_shunt)?;
            prev = next;
        }
        Ok(prev)
    }
}

/// Adds the paper's gate: a step of `supply` at `t = 0` behind the output
/// resistance `driver` (omitted when zero). Returns the source and the node
/// it drives.
pub(crate) fn add_step_driver(
    circuit: &mut Circuit,
    supply: Voltage,
    driver: Resistance,
) -> Result<(SourceId, NodeId), CircuitError> {
    let gnd = circuit.ground();
    let source_node = circuit.add_node();
    let step = SourceWaveform::Step { amplitude: supply, delay: Time::ZERO };
    let source = circuit.add_voltage_source(source_node, gnd, step)?;
    if driver.ohms() == 0.0 {
        return Ok((source, source_node));
    }
    let node = circuit.add_node();
    circuit.add_resistor(source_node, node, driver)?;
    Ok((source, node))
}

/// Description of a CMOS gate driving a uniform RLC line with a capacitive load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderSpec {
    /// Total line resistance `Rt = R·l`.
    pub total_resistance: Resistance,
    /// Total line inductance `Lt = L·l`.
    pub total_inductance: Inductance,
    /// Total line capacitance `Ct = C·l`.
    pub total_capacitance: Capacitance,
    /// Number of lumped segments used to approximate the distributed line.
    pub segments: usize,
    /// Segment topology.
    pub style: SegmentStyle,
    /// Driver equivalent output resistance `Rtr` (zero allowed: ideal driver).
    pub driver_resistance: Resistance,
    /// Receiver input capacitance `CL` (zero allowed: open far end).
    pub load_capacitance: Capacitance,
    /// Step amplitude (the supply voltage).
    pub supply: Voltage,
}

impl LadderSpec {
    /// A specification with a 1 V supply, 40 π-segments and the given impedances.
    pub fn new(
        total_resistance: Resistance,
        total_inductance: Inductance,
        total_capacitance: Capacitance,
        driver_resistance: Resistance,
        load_capacitance: Capacitance,
    ) -> Self {
        Self {
            total_resistance,
            total_inductance,
            total_capacitance,
            segments: 40,
            style: SegmentStyle::Pi,
            driver_resistance,
            load_capacitance,
            supply: Voltage::from_volts(1.0),
        }
    }

    fn validate(&self) -> Result<(), CircuitError> {
        positive(self.total_resistance.ohms(), "total line resistance")?;
        positive(self.total_inductance.henries(), "total line inductance")?;
        positive(self.total_capacitance.farads(), "total line capacitance")?;
        positive(self.supply.volts(), "supply voltage")?;
        positive(self.segments as f64, "segment count")?;
        non_negative(self.driver_resistance.ohms(), "driver resistance")?;
        non_negative(self.load_capacitance.farads(), "load capacitance")
    }

    /// Builds the step-driven ladder circuit described by this specification.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] if any impedance is non-positive
    /// (driver resistance and load capacitance may be zero).
    pub fn build(&self) -> Result<LadderLine, CircuitError> {
        self.validate()?;
        let mut circuit = Circuit::new();
        let (source, line_input) =
            add_step_driver(&mut circuit, self.supply, self.driver_resistance)?;
        let output = self.style.add_line(
            &mut circuit,
            line_input,
            self.segments,
            (self.total_resistance, self.total_inductance, self.total_capacitance),
        )?;
        if self.load_capacitance.farads() > 0.0 {
            let gnd = circuit.ground();
            circuit.add_capacitor(output, gnd, self.load_capacitance)?;
        }

        Ok(LadderLine { circuit, source, input: line_input, output })
    }

    /// The timestep of this line's transient, by the one step rule of
    /// [`crate::transient`].
    pub fn suggested_timestep(&self) -> Time {
        let rt = self.total_resistance.ohms();
        let lt = self.total_inductance.henries();
        let (ct, cl) = (self.total_capacitance.farads(), self.load_capacitance.farads());
        let segment_tof = (lt * (ct + cl)).sqrt() / self.segments as f64;
        let driver = (self.driver_resistance.ohms(), 0.0, 0.0, 0.0);
        let crossing = path_crossing([(rt, lt, ct, cl), driver]);
        Time::from_seconds(suggested_step(
            self.suggested_stop_time().seconds(),
            crossing,
            [(rt / (2.0 * lt), segment_tof)],
        ))
    }

    /// A stop time long enough for the output to cross 50% in every damping regime.
    pub fn suggested_stop_time(&self) -> Time {
        let lt = self.total_inductance.henries();
        let ct = self.total_capacitance.farads() + self.load_capacitance.farads();
        let rc = (self.total_resistance.ohms() + self.driver_resistance.ohms()) * ct;
        let tof = (lt * ct).sqrt();
        // Several RC time constants plus several round trips of the wave.
        Time::from_seconds(4.0 * rc + 10.0 * tof)
    }
}

/// A built ladder circuit plus its interesting nodes.
#[derive(Debug, Clone)]
pub struct LadderLine {
    /// The assembled netlist.
    pub circuit: Circuit,
    /// The step source driving the line.
    pub source: SourceId,
    /// The line input node (after the driver resistance).
    pub input: NodeId,
    /// The far-end output node (across the load capacitance).
    pub output: NodeId,
}

/// Timing measurements extracted from a simulated step response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDelayMeasurement {
    /// 50% propagation delay.
    pub delay_50: Time,
    /// 10%–90% rise time.
    pub rise_time: Time,
    /// Overshoot above the supply, in per cent.
    pub overshoot_percent: f64,
}

/// Builds, simulates and measures a step-driven line in one call.
///
/// This is the "ask the dynamic simulator" entry point used throughout the
/// workspace when a reference delay is needed. Timestep and horizon are
/// chosen by [`LadderSpec::suggested_timestep`]/[`LadderSpec::suggested_stop_time`];
/// if the output has not crossed 50% by the initial horizon the run is
/// extended ([`measure_transient`]). Only the output node is recorded, and
/// the run ends once the output has crossed 90% and the line's modes
/// (`e^{−R/(2L)·t}`) have rung down to 1e-3, which leaves the delay and the
/// rise time bit for bit those of a run to the horizon (the
/// [`crate::transient`] docs, "Where a run ends").
///
/// # Errors
///
/// Propagates construction/analysis errors, or a
/// [`CircuitError::Measurement`] if the output never crosses 50% even after
/// extending the horizon.
pub fn measure_step_delay(spec: &LadderSpec) -> Result<StepDelayMeasurement, CircuitError> {
    let line = spec.build()?;
    let options = TransientOptions::new(spec.suggested_stop_time(), spec.suggested_timestep());
    let ring_down = spec.total_resistance.ohms() / (2.0 * spec.total_inductance.henries());
    let stop = StopRule::rising(0.9 * spec.supply.volts()).and_ring_down(ring_down);
    measure_transient(&line.circuit, &[line.output], &options, Some(stop), |result| {
        measurement_from_waveform(&result.node_voltage(line.output), spec.supply)
    })
}

fn measurement_from_waveform(
    wave: &Waveform,
    supply: Voltage,
) -> Result<StepDelayMeasurement, CircuitError> {
    let delay_50 = wave.delay_50(supply)?;
    let rise_time = wave.rise_time(supply)?;
    let overshoot_percent = wave.overshoot_percent(supply);
    Ok(StepDelayMeasurement { delay_50, rise_time, overshoot_percent })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> LadderSpec {
        LadderSpec::new(
            Resistance::from_ohms(500.0),
            Inductance::from_nanohenries(10.0),
            Capacitance::from_picofarads(1.0),
            Resistance::from_ohms(250.0),
            Capacitance::from_picofarads(0.1),
        )
    }

    #[test]
    fn build_produces_expected_topology() {
        let spec = base_spec();
        let line = spec.build().unwrap();
        // Pi style: per segment 1 R + 1 L + 2 C, plus source, driver R, load C.
        let elements = line.circuit.elements().len();
        assert_eq!(elements, 1 + 1 + spec.segments * 4 + 1);
        assert_ne!(line.input, line.output);
    }

    #[test]
    fn zero_driver_and_load_are_allowed() {
        let mut spec = base_spec();
        spec.driver_resistance = Resistance::ZERO;
        spec.load_capacitance = Capacitance::ZERO;
        let line = spec.build().unwrap();
        // No driver resistor and no load capacitor.
        assert_eq!(line.circuit.elements().len(), 1 + spec.segments * 4);
    }

    #[test]
    fn invalid_values_are_rejected() {
        let mut spec = base_spec();
        spec.total_resistance = Resistance::ZERO;
        assert!(spec.build().is_err());
        let mut spec = base_spec();
        spec.segments = 0;
        assert!(spec.build().is_err());
        let mut spec = base_spec();
        spec.driver_resistance = Resistance::from_ohms(-1.0);
        assert!(spec.build().is_err());
        let mut spec = base_spec();
        spec.load_capacitance = Capacitance::from_farads(f64::NAN);
        assert!(spec.build().is_err());
        let mut spec = base_spec();
        spec.supply = Voltage::ZERO;
        assert!(spec.build().is_err());
    }

    #[test]
    fn suggested_times_are_positive_and_ordered() {
        let spec = base_spec();
        let dt = spec.suggested_timestep();
        let stop = spec.suggested_stop_time();
        assert!(dt.seconds() > 0.0);
        assert!(stop.seconds() > dt.seconds() * 100.0);
    }

    #[test]
    fn rc_dominated_line_matches_distributed_rc_delay() {
        // Negligible inductance, no gate parasitics: the 50% delay of a
        // distributed RC line is 0.377·Rt·Ct (Sakurai). With a small but
        // non-zero L and a fine ladder the simulated delay should be close.
        let spec = LadderSpec {
            total_resistance: Resistance::from_ohms(1000.0),
            total_inductance: Inductance::from_henries(1.0e-12),
            total_capacitance: Capacitance::from_picofarads(1.0),
            segments: 60,
            style: SegmentStyle::Pi,
            driver_resistance: Resistance::ZERO,
            load_capacitance: Capacitance::ZERO,
            supply: Voltage::from_volts(1.0),
        };
        let m = measure_step_delay(&spec).unwrap();
        let rt_ct = 1000.0 * 1e-12;
        let expected = 0.377 * rt_ct;
        let err = (m.delay_50.seconds() - expected).abs() / expected;
        assert!(
            err < 0.05,
            "delay {} vs distributed-RC {expected}, err {err}",
            m.delay_50.seconds()
        );
        assert_eq!(m.overshoot_percent, 0.0);
        assert!(m.rise_time.seconds() > 0.0);
    }

    #[test]
    fn lossless_line_delay_is_time_of_flight() {
        // R → 0 (tiny), no gate parasitics: delay approaches sqrt(Lt·Ct).
        let spec = LadderSpec {
            total_resistance: Resistance::from_ohms(1.0),
            total_inductance: Inductance::from_nanohenries(10.0),
            total_capacitance: Capacitance::from_picofarads(1.0),
            segments: 80,
            style: SegmentStyle::Pi,
            driver_resistance: Resistance::ZERO,
            load_capacitance: Capacitance::ZERO,
            supply: Voltage::from_volts(1.0),
        };
        let m = measure_step_delay(&spec).unwrap();
        let tof = (10e-9f64 * 1e-12).sqrt();
        let err = (m.delay_50.seconds() - tof).abs() / tof;
        assert!(err < 0.1, "delay {} vs time of flight {tof}, err {err}", m.delay_50.seconds());
        // A nearly lossless line rings hard.
        assert!(m.overshoot_percent > 20.0);
    }

    #[test]
    fn pi_and_l_sections_agree_for_fine_ladders() {
        let mut spec = base_spec();
        spec.segments = 80;
        spec.style = SegmentStyle::Pi;
        let pi = measure_step_delay(&spec).unwrap();
        spec.style = SegmentStyle::LSection;
        let l = measure_step_delay(&spec).unwrap();
        let diff = (pi.delay_50.seconds() - l.delay_50.seconds()).abs() / pi.delay_50.seconds();
        assert!(diff < 0.03, "π vs L section delays differ by {diff}");
    }
}
