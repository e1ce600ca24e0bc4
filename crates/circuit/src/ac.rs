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

use crate::error::CircuitError;
use crate::mna::MnaSystem;
use crate::netlist::{Circuit, NodeId, SourceId};
use crate::solve::factor_complex;

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
pub(crate) fn solve_at(
    circuit: &Circuit,
    source: SourceId,
    s: Complex,
) -> Result<AcSolution, CircuitError> {
    solve_at_with(circuit, source, s, SolverBackend::Auto)
}

/// Like `solve_at`, with an explicit choice of solver backend.
///
/// # Errors
///
/// Same conditions as `solve_at`.
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

/// Transfer function `V(node)/V(source)` at a single complex frequency.
///
/// # Errors
///
/// Same conditions as `solve_at`, plus [`CircuitError::UnknownNode`] for a
/// foreign node.
pub fn transfer_function(
    circuit: &Circuit,
    source: SourceId,
    node: NodeId,
    s: Complex,
) -> Result<Complex, CircuitError> {
    circuit.check_node(node)?;
    Ok(solve_at(circuit, source, s)?.node_voltage(node))
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
        let gains: Vec<f64> = [0.2, 0.5, 1.0, 2.0, 5.0]
            .iter()
            .map(|m| {
                let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * m * f0);
                transfer_function(&c, src, out, s).unwrap().abs()
            })
            .collect();
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
