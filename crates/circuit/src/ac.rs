//! Complex-frequency (AC / Laplace-domain) analysis.
//!
//! Solves `(G + s·C)·X(s) = B` at an arbitrary complex frequency `s`, with a
//! single selected source driven at unit amplitude. This gives exact transfer
//! functions of the lumped circuit, used to cross-check the transient solver
//! and to compare a segmented ladder against the exact distributed-line
//! two-port of the `interconnect` crate.
//!
//! The complex system is assembled in compressed-sparse-column form and
//! factorised through the pluggable solver backend, so frequency sweeps over
//! long ladders run on the sparse `O(n)` kernel rather than the dense
//! `O(n³)` one.

use rlckit_numeric::complex::Complex;
use rlckit_numeric::solver::SolverBackend;
use rlckit_units::Frequency;

use crate::error::CircuitError;
use crate::mna::MnaSystem;
use crate::netlist::{Circuit, NodeId, SourceId};
use crate::solve::{factor_complex, FactoredMna};

/// Complex-frequency solution of a circuit for one excitation.
#[derive(Debug, Clone)]
pub struct AcSolution {
    state: Vec<Complex>,
}

impl AcSolution {
    /// Complex node voltage (transfer function value) at `node`.
    pub fn node_voltage(&self, node: NodeId) -> Complex {
        if node.is_ground() {
            Complex::ZERO
        } else {
            self.state[node.index() - 1]
        }
    }
}

/// Solves the circuit at a single complex frequency with `source` driven at
/// unit amplitude (all other sources off).
///
/// # Errors
///
/// Returns [`CircuitError::EmptyCircuit`], [`CircuitError::UnknownSource`], or
/// [`CircuitError::SingularSystem`] if the complex system cannot be factorised.
pub fn solve_at(
    circuit: &Circuit,
    source: SourceId,
    s: Complex,
) -> Result<AcSolution, CircuitError> {
    solve_at_with(circuit, source, s, SolverBackend::Auto)
}

/// Like [`solve_at`], with an explicit choice of solver backend.
///
/// # Errors
///
/// Same conditions as [`solve_at`].
pub fn solve_at_with(
    circuit: &Circuit,
    source: SourceId,
    s: Complex,
    backend: SolverBackend,
) -> Result<AcSolution, CircuitError> {
    let mna = MnaSystem::build(circuit)?;
    let b = mna.unit_excitation(source)?;
    let factor = factor_complex(&mna, s, backend, "ac analysis")?;
    let state = factor.solve(&b);
    Ok(AcSolution { state })
}

/// Solves the circuit at one complex frequency for several excitations at
/// once — each source in turn driven at unit amplitude with the others off.
///
/// One factorisation and one blocked multi-right-hand-side substitution
/// ([`FactoredMna::solve_many`]) cover every port, so a full MIMO transfer
/// matrix column set costs one factor instead of one per port.
///
/// # Errors
///
/// Same conditions as [`solve_at`], per source.
pub fn solve_at_many(
    circuit: &Circuit,
    sources: &[SourceId],
    s: Complex,
    backend: SolverBackend,
) -> Result<Vec<AcSolution>, CircuitError> {
    let mna = MnaSystem::build(circuit)?;
    let rhs =
        sources.iter().map(|&source| mna.unit_excitation(source)).collect::<Result<Vec<_>, _>>()?;
    let factor = factor_complex(&mna, s, backend, "ac analysis")?;
    Ok(factor.solve_many(&rhs).into_iter().map(|state| AcSolution { state }).collect())
}

/// Transfer function `V(node)/V(source)` at a single complex frequency.
///
/// # Errors
///
/// Same conditions as [`solve_at`], plus [`CircuitError::UnknownNode`] for a
/// foreign node.
pub fn transfer_function(
    circuit: &Circuit,
    source: SourceId,
    node: NodeId,
    s: Complex,
) -> Result<Complex, CircuitError> {
    circuit.validate_node(node)?;
    Ok(solve_at(circuit, source, s)?.node_voltage(node))
}

/// Magnitude and phase of the transfer function over a list of real frequencies.
///
/// Returns one `(frequency, magnitude, phase_radians)` triple per input
/// frequency.
///
/// # Errors
///
/// Same conditions as [`transfer_function`].
pub fn frequency_sweep(
    circuit: &Circuit,
    source: SourceId,
    node: NodeId,
    frequencies: &[Frequency],
) -> Result<Vec<(Frequency, f64, f64)>, CircuitError> {
    circuit.validate_node(node)?;
    // Assemble the stamps once; only the factorisation depends on the
    // frequency.
    let mna = MnaSystem::build(circuit)?;
    let b = mna.unit_excitation(source)?;
    let row = mna.row_of_node(node);
    let mut out = Vec::with_capacity(frequencies.len());
    // Factor the first frequency cold, then re-derive the factors per
    // frequency on the warm path: the pattern of `G + s·C` never changes
    // across a sweep, so the sparse kernel only redoes numeric work.
    let mut factor: Option<FactoredMna<Complex>> = None;
    for &f in frequencies {
        let s = Complex::new(0.0, f.angular());
        match factor.as_mut() {
            None => factor = Some(factor_complex(&mna, s, SolverBackend::Auto, "ac analysis")?),
            Some(warm) => warm.refactor_complex(&mna, s, "ac analysis")?,
        }
        let state = factor.as_ref().expect("factored above").solve(&b);
        let h = match row {
            Some(r) => state[r],
            None => Complex::ZERO,
        };
        out.push((f, h.abs(), h.arg()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;
    use rlckit_units::{Capacitance, Inductance, Resistance};

    /// RC low-pass with τ = 1 ns.
    fn rc_lowpass() -> (Circuit, SourceId, NodeId) {
        let mut c = Circuit::new();
        let input = c.add_node();
        let out = c.add_node();
        let gnd = c.ground();
        let src = c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(input, out, Resistance::from_ohms(1000.0)).unwrap();
        c.add_capacitor(out, gnd, Capacitance::from_picofarads(1.0)).unwrap();
        (c, src, out)
    }

    #[test]
    fn dc_gain_of_lowpass_is_unity() {
        let (c, src, out) = rc_lowpass();
        let h = transfer_function(&c, src, out, Complex::ZERO).unwrap();
        assert!((h.re - 1.0).abs() < 1e-6);
        assert!(h.im.abs() < 1e-9);
    }

    #[test]
    fn corner_frequency_gain_is_minus_3db() {
        let (c, src, out) = rc_lowpass();
        let tau = 1e-9;
        let s = Complex::new(0.0, 1.0 / tau);
        let h = transfer_function(&c, src, out, s).unwrap();
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
        assert!((h.arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-6);
    }

    #[test]
    fn matches_analytic_first_order_transfer() {
        let (c, src, out) = rc_lowpass();
        let tau = 1e-9;
        for &(re, im) in &[(1e8, 5e8), (2e9, -1e9), (0.0, 3e9)] {
            let s = Complex::new(re, im);
            let h = transfer_function(&c, src, out, s).unwrap();
            let want = (s * tau + 1.0).recip();
            assert!((h - want).abs() < 1e-6, "s = {s}: got {h}, want {want}");
        }
    }

    #[test]
    fn series_rlc_resonance() {
        // Series RLC to ground measured across the capacitor: |H| peaks near
        // the resonant frequency for low damping.
        let mut c = Circuit::new();
        let input = c.add_node();
        let mid = c.add_node();
        let out = c.add_node();
        let gnd = c.ground();
        let src = c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(input, mid, Resistance::from_ohms(10.0)).unwrap();
        c.add_inductor(mid, out, Inductance::from_nanohenries(10.0)).unwrap();
        c.add_capacitor(out, gnd, Capacitance::from_picofarads(1.0)).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (10e-9f64 * 1e-12).sqrt());
        let freqs: Vec<Frequency> =
            [0.2, 0.5, 1.0, 2.0, 5.0].iter().map(|m| Frequency::from_hertz(m * f0)).collect();
        let sweep = frequency_sweep(&c, src, out, &freqs).unwrap();
        assert_eq!(sweep.len(), 5);
        let gains: Vec<f64> = sweep.iter().map(|(_, g, _)| *g).collect();
        // Gain at resonance exceeds the DC gain (which is ~1).
        assert!(gains[2] > 2.0, "resonant gain {}", gains[2]);
        // Well above resonance the line attenuates.
        assert!(gains[4] < 0.2, "high-frequency gain {}", gains[4]);
    }

    #[test]
    fn backends_agree_on_a_ladder_transfer_function() {
        use crate::ladder::{LadderSpec, SegmentStyle};
        use rlckit_units::Voltage;
        let spec = LadderSpec {
            total_resistance: Resistance::from_ohms(500.0),
            total_inductance: Inductance::from_nanohenries(10.0),
            total_capacitance: Capacitance::from_picofarads(1.0),
            segments: 30,
            style: SegmentStyle::Pi,
            driver_resistance: Resistance::from_ohms(250.0),
            load_capacitance: Capacitance::from_picofarads(0.1),
            supply: Voltage::from_volts(1.0),
        };
        let line = spec.build().unwrap();
        for &(re, im) in &[(0.0, 1e9), (5e8, -2e9), (1e9, 0.0)] {
            let s = Complex::new(re, im);
            let dense = solve_at_with(&line.circuit, line.source, s, SolverBackend::Dense)
                .unwrap()
                .node_voltage(line.output);
            let sparse = solve_at_with(&line.circuit, line.source, s, SolverBackend::Sparse)
                .unwrap()
                .node_voltage(line.output);
            assert!((dense - sparse).abs() < 1e-9, "s = {s}: {dense} vs {sparse}");
        }
    }

    #[test]
    fn coupled_inductor_pair_matches_the_transformer_two_port() {
        // Source → R1 → L1‖gnd, magnetically coupled to L2‖gnd loaded by R2:
        // the classical transformer. Closed form (currents flowing plus → minus
        // through each inductor, both plus terminals dotted):
        //   I1 = Vs / (R1 + s·L1 − (s·M)²/(R2 + s·L2))
        //   V2 = s·M·I1·R2 / (R2 + s·L2)
        let r1 = 75.0;
        let r2 = 50.0;
        let l1 = 4e-9f64;
        let l2 = 9e-9;
        let k = 0.6;
        let m = k * (l1 * l2).sqrt();

        let mut c = Circuit::new();
        let input = c.add_node();
        let primary = c.add_node();
        let secondary = c.add_node();
        let gnd = c.ground();
        let src = c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(input, primary, Resistance::from_ohms(r1)).unwrap();
        let first = c.add_inductor(primary, gnd, Inductance::from_henries(l1)).unwrap();
        let second = c.add_inductor(secondary, gnd, Inductance::from_henries(l2)).unwrap();
        c.add_resistor(secondary, gnd, Resistance::from_ohms(r2)).unwrap();
        c.add_mutual_inductor(first, second, k).unwrap();

        for &(re, im) in &[(0.0, 2e9), (0.0, 2e10), (5e8, -8e9), (1e9, 1e9)] {
            let s = Complex::new(re, im);
            let sm = s * m;
            let z2 = Complex::from_real(r2) + s * l2;
            let i1 = (Complex::from_real(r1) + s * l1 - sm * sm * z2.recip()).recip();
            let want = sm * i1 * r2 * z2.recip();
            for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
                let got = solve_at_with(&c, src, s, backend).unwrap().node_voltage(secondary);
                assert!(
                    (got - want).abs() < 1e-6 * want.abs().max(1.0),
                    "s = {s} ({backend:?}): got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn solve_at_many_matches_per_source_solves() {
        // Two independently driven RC arms sharing a ground: two ports.
        let mut c = Circuit::new();
        let gnd = c.ground();
        let in1 = c.add_node();
        let out1 = c.add_node();
        let in2 = c.add_node();
        let out2 = c.add_node();
        let s1 = c.add_voltage_source(in1, gnd, SourceWaveform::unit_step()).unwrap();
        let s2 = c.add_voltage_source(in2, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(in1, out1, Resistance::from_ohms(500.0)).unwrap();
        c.add_capacitor(out1, gnd, Capacitance::from_picofarads(2.0)).unwrap();
        c.add_resistor(in2, out2, Resistance::from_ohms(800.0)).unwrap();
        c.add_capacitor(out2, gnd, Capacitance::from_picofarads(1.0)).unwrap();
        c.add_resistor(out1, out2, Resistance::from_ohms(2000.0)).unwrap();

        let s = Complex::new(0.0, 3e8);
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let many = solve_at_many(&c, &[s1, s2], s, backend).unwrap();
            assert_eq!(many.len(), 2);
            for (source, sol) in [s1, s2].iter().zip(many.iter()) {
                let one = solve_at_with(&c, *source, s, backend).unwrap();
                for node in [out1, out2] {
                    let d = sol.node_voltage(node) - one.node_voltage(node);
                    assert!(d.abs() < 1e-12, "{backend:?}: multi vs single differ by {d}");
                }
            }
        }
    }

    #[test]
    fn unknown_source_and_node_are_errors() {
        let (c, _, out) = rc_lowpass();
        assert!(matches!(
            transfer_function(&c, SourceId(3), out, Complex::ZERO),
            Err(CircuitError::UnknownSource { .. })
        ));
        let (c2, src, _) = rc_lowpass();
        assert!(matches!(
            transfer_function(&c2, src, NodeId(50), Complex::ZERO),
            Err(CircuitError::UnknownNode { .. })
        ));
    }
}
