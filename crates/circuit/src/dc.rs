//! DC operating-point analysis.
//!
//! Solves `G·x = b(t)` with the storage elements at their DC behaviour
//! (capacitors open, inductors short — both fall out naturally from the MNA
//! formulation when `dx/dt = 0`). Used to obtain consistent initial
//! conditions for transient analysis.
//!
//! Like every analysis in this crate, the factorisation goes through the
//! pluggable solver backend: ladder-shaped circuits are solved by the sparse
//! kernel in `O(n)` instead of the dense `O(n³)`.

use rlckit_numeric::solver::SolverBackend;
use rlckit_units::{Time, Voltage};

use crate::error::CircuitError;
use crate::mna::MnaSystem;
use crate::netlist::{Circuit, NodeId};
use crate::solve::factor_real;

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    state: Vec<f64>,
    node_unknowns: usize,
}

impl DcSolution {
    /// Voltage of a node in the DC solution.
    pub fn node_voltage(&self, node: NodeId) -> Voltage {
        if node.is_ground() {
            Voltage::ZERO
        } else {
            Voltage::from_volts(self.state[node.index() - 1])
        }
    }

    /// The full MNA unknown vector (node voltages then branch currents).
    pub fn state(&self) -> &[f64] {
        &self.state
    }
}

/// Computes the DC operating point of a circuit with sources evaluated at time `t`.
///
/// # Errors
///
/// Returns [`CircuitError::EmptyCircuit`] for an element-free circuit and
/// [`CircuitError::SingularSystem`] if the DC system cannot be solved.
pub fn operating_point_at(circuit: &Circuit, t: Time) -> Result<DcSolution, CircuitError> {
    let mna = MnaSystem::build(circuit)?;
    operating_point_of(&mna, t, SolverBackend::Auto)
}

/// Computes the DC operating point of an already-assembled system with an
/// explicit backend choice (used by the transient solver to reuse its
/// [`MnaSystem`] and backend policy for the initial condition).
///
/// # Errors
///
/// Returns [`CircuitError::SingularSystem`] if the DC system cannot be solved.
pub fn operating_point_of(
    mna: &MnaSystem,
    t: Time,
    backend: SolverBackend,
) -> Result<DcSolution, CircuitError> {
    let factor = factor_real(mna, 1.0, 0.0, backend, "dc analysis")?;
    let mut b = vec![0.0; mna.dim()];
    mna.rhs_at(t, &mut b);
    let state = factor.solve(&b);
    Ok(DcSolution { state, node_unknowns: mna.node_unknowns() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;
    use rlckit_units::{Capacitance, Inductance, Resistance};

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(top, gnd, SourceWaveform::Dc { level: Voltage::from_volts(3.0) })
            .unwrap();
        c.add_resistor(top, mid, Resistance::from_ohms(1000.0)).unwrap();
        c.add_resistor(mid, gnd, Resistance::from_ohms(2000.0)).unwrap();
        let dc = operating_point_at(&c, Time::ZERO).unwrap();
        assert!((dc.node_voltage(top).volts() - 3.0).abs() < 1e-9);
        assert!((dc.node_voltage(mid).volts() - 2.0).abs() < 1e-6);
        assert_eq!(dc.node_voltage(gnd).volts(), 0.0);
        assert_eq!(dc.state().len(), 3);
    }

    #[test]
    fn inductor_is_a_dc_short() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(a, gnd, SourceWaveform::Dc { level: Voltage::from_volts(1.0) })
            .unwrap();
        c.add_inductor(a, b, Inductance::from_nanohenries(10.0)).unwrap();
        c.add_resistor(b, gnd, Resistance::from_ohms(100.0)).unwrap();
        let dc = operating_point_at(&c, Time::ZERO).unwrap();
        assert!((dc.node_voltage(b).volts() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_a_dc_open() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(a, gnd, SourceWaveform::Dc { level: Voltage::from_volts(1.0) })
            .unwrap();
        c.add_resistor(a, b, Resistance::from_ohms(1000.0)).unwrap();
        c.add_capacitor(b, gnd, Capacitance::from_picofarads(1.0)).unwrap();
        let dc = operating_point_at(&c, Time::ZERO).unwrap();
        // No DC current flows, so node b sits at the source voltage.
        assert!((dc.node_voltage(b).volts() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn step_source_is_zero_at_time_zero() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(a, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(a, gnd, Resistance::from_ohms(100.0)).unwrap();
        let dc0 = operating_point_at(&c, Time::ZERO).unwrap();
        assert_eq!(dc0.node_voltage(a).volts(), 0.0);
        let dc1 = operating_point_at(&c, Time::from_picoseconds(1.0)).unwrap();
        assert!((dc1.node_voltage(a).volts() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let c = Circuit::new();
        assert!(matches!(operating_point_at(&c, Time::ZERO), Err(CircuitError::EmptyCircuit)));
    }

    #[test]
    fn forced_backends_agree_on_the_operating_point() {
        let mut c = Circuit::new();
        let gnd = c.ground();
        let input = c.add_node();
        c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        let mut prev = input;
        for _ in 0..20 {
            let mid = c.add_node();
            let next = c.add_node();
            c.add_resistor(prev, mid, Resistance::from_ohms(10.0)).unwrap();
            c.add_inductor(mid, next, Inductance::from_henries(100.0e-12)).unwrap();
            c.add_capacitor(next, gnd, Capacitance::from_femtofarads(5.0)).unwrap();
            prev = next;
        }
        let mna = MnaSystem::build(&c).unwrap();
        let t = Time::from_picoseconds(2.0);
        let dense = operating_point_of(&mna, t, SolverBackend::Dense).unwrap();
        let sparse = operating_point_of(&mna, t, SolverBackend::Sparse).unwrap();
        for (d, b) in dense.state().iter().zip(sparse.state().iter()) {
            assert!((d - b).abs() < 1e-9);
        }
        assert!((dense.node_voltage(prev).volts() - 1.0).abs() < 1e-6);
    }
}
