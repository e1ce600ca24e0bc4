//! Reduced-order models of coupled multi-conductor buses.
//!
//! A bus is a MIMO system: every signal wire both drives and receives. One
//! PRIMA reduction with the block `B` of *all* signal sources and the block
//! `L` of *all* signal outputs captures every aggressor→victim path at
//! once; a switching pattern then becomes a **superposition** of per-input
//! step responses — rising wires add `+Vdd·yᵥⱼ(t)`, falling wires add
//! `Vdd·gᵥⱼ − Vdd·yᵥⱼ(t)` (they start charged), quiet wires contribute
//! their static level. The result is one [`PoleResidueModel`] *waveform*
//! per victim and pattern, so worst-case delay push-out across many
//! patterns costs closed-form evaluations instead of one transient per
//! pattern.
//!
//! The wires of an inductive bus ring at their quarter-wave resonances, and
//! a 50 % crossing on the wavefront is where moment matching at `s = 0`
//! converges slowest. So the reduction keeps two to four block moments at
//! `s = 0` (the DC gain and the Elmore slope among them) and spends the
//! rest of the order on interpolating the transfer function at those
//! resonances, `ω = (2k − 1)·π/(2·t_f)` for the slowest wire's isolated
//! time of flight `t_f` — one block per resonance, as many as the order
//! allows. On a grid
//! of 72 buses (2–3 wires, 1.5–6 mm, 6–10 sections, 30–400 Ω drivers,
//! 1.3–10 Ω/mm) this lowers the median even- and odd-mode delay error
//! against the full-order model at orders 12, 16 and 24 (order 16: 2.2 % →
//! 1.5 % even, 1.1 % → 0.9 % odd), though single buses can come out worse.

use rlckit_circuit::state_space::DescriptorStateSpace;
use rlckit_coupling::bus::CoupledBus;
use rlckit_coupling::netlist::{build_bus_circuit, BusDrive};
use rlckit_coupling::scenario::{LineDrive, SwitchingPattern};
use rlckit_numeric::solver::SolverBackend;
use rlckit_units::{Time, Voltage};

use crate::error::ReduceError;
use crate::krylov::{prima_interpolating, ReductionOptions};
use crate::rom::{PoleResidueModel, ReducedSystem};

/// A reduced MIMO model of a driven bus (all signal sources → all signal
/// outputs).
#[derive(Debug, Clone)]
pub struct ReducedBus {
    system: ReducedSystem,
    supply: Voltage,
    signals: usize,
    /// Pole/residue form of every (output, input) pair, extracted once at
    /// construction: the poles are shared system-wide and the eigensolve is
    /// the dominant cost, so pattern queries must not repeat it.
    models: Vec<Vec<PoleResidueModel>>,
}

/// Reduces a bus + drive to an order-`q` MIMO model.
///
/// The drive supplies the electrical environment (driver resistance, load,
/// section count); the switching waveforms are irrelevant to the reduction
/// itself — they enter later through
/// `ReducedBus::victim_model`.
///
/// # Errors
///
/// Propagates bus-construction, state-space and reduction errors.
pub fn reduce_bus(
    bus: &CoupledBus,
    drive: &BusDrive,
    order: usize,
    backend: SolverBackend,
) -> Result<ReducedBus, ReduceError> {
    let signals = bus.signal_count();
    // Any valid pattern yields the same topology; waveforms don't matter here.
    let pattern = SwitchingPattern::even_mode(signals)?;
    let built = build_bus_circuit(bus, &pattern, drive)?;
    let conductors = bus.signal_indices();
    let inputs: Vec<_> = conductors.iter().map(|&c| built.sources[c]).collect();
    let outputs: Vec<_> = conductors.iter().map(|&c| built.outputs[c]).collect();
    let ss = DescriptorStateSpace::new(&built.circuit, &inputs, &outputs)?;
    let mut time_of_flight = 0.0f64;
    for &c in &conductors {
        let line = bus.isolated_line(c)?;
        time_of_flight = time_of_flight
            .max((line.total_inductance().henries() * line.total_capacitance().farads()).sqrt());
    }
    let resonances = order.saturating_sub(2 * signals) / (2 * signals);
    let frequencies: Vec<f64> = (1..=resonances)
        .map(|k| (2 * k - 1) as f64 * std::f64::consts::FRAC_PI_2 / time_of_flight)
        .collect();
    let options = ReductionOptions::new(order).with_backend(backend);
    let system = prima_interpolating(&ss, &options, &frequencies)?;
    let mut models = Vec::with_capacity(signals);
    for output in 0..signals {
        let mut row = Vec::with_capacity(signals);
        for input in 0..signals {
            row.push(system.pole_residue(output, input)?);
        }
        models.push(row);
    }
    Ok(ReducedBus { system, supply: drive.supply, signals, models })
}

impl ReducedBus {
    /// The achieved reduction order.
    pub fn order(&self) -> usize {
        self.system.order()
    }

    /// The waveform model of signal wire `victim` under a switching pattern
    /// (absolute volts; superposition of the per-aggressor responses).
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::Measurement`] for a pattern whose length does
    /// not match the signal count or an out-of-range victim, and propagates
    /// pole-extraction errors.
    pub(crate) fn victim_model(
        &self,
        victim: usize,
        pattern: &SwitchingPattern,
    ) -> Result<PoleResidueModel, ReduceError> {
        if pattern.lines() != self.signals {
            return Err(ReduceError::Measurement {
                reason: format!(
                    "pattern covers {} wires but the bus has {} signal wires",
                    pattern.lines(),
                    self.signals
                ),
            });
        }
        if victim >= self.signals {
            return Err(ReduceError::Measurement {
                reason: format!("victim {victim} out of range for {} signal wires", self.signals),
            });
        }
        let vdd = self.supply.volts();
        let mut parts = Vec::new();
        let mut offset = 0.0;
        for j in 0..self.signals {
            let pr = &self.models[victim][j];
            match pattern.drive(j)? {
                LineDrive::Rising => {
                    parts.push(pr.scaled(vdd));
                }
                LineDrive::Falling => {
                    // Starts charged at Vdd, steps to 0: static Vdd·gᵥⱼ minus
                    // the rising response.
                    offset += vdd * pr.final_value();
                    parts.push(pr.scaled(-vdd));
                }
                LineDrive::Quiet => {}
                LineDrive::QuietHigh => {
                    offset += vdd * pr.final_value();
                }
            }
        }
        if parts.is_empty() {
            // Nothing switches: a constant waveform at the static level.
            return PoleResidueModel::from_parts(Vec::new(), Vec::new(), offset);
        }
        PoleResidueModel::superpose(&parts, offset)
    }

    /// 50% propagation delay of a switching victim under a pattern,
    /// measured in its own switching direction (matching
    /// [`BusTransient::delay_50`](rlckit_coupling::crosstalk::BusTransient::delay_50)).
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::Measurement`] if the victim is quiet in the
    /// pattern or the crossing cannot be located.
    pub fn victim_delay_50(
        &self,
        victim: usize,
        pattern: &SwitchingPattern,
    ) -> Result<Time, ReduceError> {
        let model = self.victim_model(victim, pattern)?;
        let half = 0.5 * self.supply.volts();
        match pattern.drive(victim)? {
            LineDrive::Rising => model.time_to_cross(half, true),
            LineDrive::Falling => model.time_to_cross(half, false),
            LineDrive::Quiet | LineDrive::QuietHigh => Err(ReduceError::Measurement {
                reason: format!("signal wire {victim} is quiet in this pattern"),
            }),
        }
    }

    /// Peak excursion of a quiet victim from its steady level — the coupled
    /// noise, evaluated on the closed-form waveform.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::Measurement`] if the victim switches in the
    /// pattern (its excursion is signal, not noise).
    pub fn victim_peak_noise(
        &self,
        victim: usize,
        pattern: &SwitchingPattern,
    ) -> Result<Voltage, ReduceError> {
        let drive = pattern.drive(victim)?;
        if drive.is_switching() {
            return Err(ReduceError::Measurement {
                reason: format!("signal wire {victim} switches in this pattern"),
            });
        }
        let model = self.victim_model(victim, pattern)?;
        let steady = drive.final_level(self.supply).volts();
        let tau = model.dominant_time_constant()?;
        const SAMPLES: usize = 4096;
        let horizon = 10.0 * tau;
        let mut peak = 0.0f64;
        for i in 0..=SAMPLES {
            let v = model.step_response(horizon * i as f64 / SAMPLES as f64);
            peak = peak.max((v - steady).abs());
        }
        Ok(Voltage::from_volts(peak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_coupling::bus::UniformBusSpec;
    use rlckit_units::{
        Capacitance, CapacitancePerLength, InductancePerLength, Length, Resistance,
        ResistancePerLength,
    };

    fn bus(lines: usize) -> CoupledBus {
        UniformBusSpec {
            lines,
            resistance: ResistancePerLength::from_ohms_per_millimeter(1.3),
            self_inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
            ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
            coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
            inductive_coupling: vec![0.35, 0.15],
            length: Length::from_millimeters(3.0),
        }
        .build()
        .unwrap()
    }

    fn drive() -> BusDrive {
        BusDrive::new(
            Resistance::from_ohms(120.0),
            Capacitance::from_femtofarads(100.0),
            Voltage::from_volts(1.8),
        )
        .with_sections(6)
    }

    #[test]
    fn even_mode_is_faster_than_odd_mode() {
        let bus = bus(2);
        let reduced = reduce_bus(&bus, &drive(), 12, SolverBackend::Auto).unwrap();
        assert!(reduced.order() <= 12);
        let even = reduced.victim_delay_50(0, &SwitchingPattern::even_mode(2).unwrap()).unwrap();
        let odd = reduced.victim_delay_50(0, &SwitchingPattern::odd_mode(0, 2).unwrap()).unwrap();
        assert!(
            odd.seconds() > even.seconds(),
            "odd-mode delay {} must exceed even-mode {}",
            odd.seconds(),
            even.seconds()
        );
    }

    #[test]
    fn quiet_victim_sees_noise_but_reports_no_delay() {
        let bus = bus(2);
        let reduced = reduce_bus(&bus, &drive(), 12, SolverBackend::Auto).unwrap();
        let pattern = SwitchingPattern::victim_quiet(0, 2).unwrap();
        let noise = reduced.victim_peak_noise(0, &pattern).unwrap();
        assert!(noise.volts() > 0.0);
        assert!(noise.volts() < 1.8);
        assert!(matches!(
            reduced.victim_delay_50(0, &pattern),
            Err(ReduceError::Measurement { .. })
        ));
        // A switching victim cannot report noise.
        let even = SwitchingPattern::even_mode(2).unwrap();
        assert!(matches!(
            reduced.victim_peak_noise(0, &even),
            Err(ReduceError::Measurement { .. })
        ));
    }

    #[test]
    fn mismatched_patterns_are_rejected() {
        let bus = bus(2);
        let reduced = reduce_bus(&bus, &drive(), 8, SolverBackend::Auto).unwrap();
        let three = SwitchingPattern::even_mode(3).unwrap();
        assert!(matches!(reduced.victim_model(0, &three), Err(ReduceError::Measurement { .. })));
        let two = SwitchingPattern::even_mode(2).unwrap();
        assert!(matches!(reduced.victim_model(5, &two), Err(ReduceError::Measurement { .. })));
    }
}
