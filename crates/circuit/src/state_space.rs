//! The descriptor state-space view `(G, C, B, Lᵀ)` of an assembled circuit.
//!
//! Every linear circuit in this crate is the differential-algebraic system
//! `G·x + C·dx/dt = B·u(t)` with outputs `y = Lᵀ·x`. Transient analysis
//! time-steps it; model-order reduction (the `rlckit-reduce` crate) instead
//! projects it onto a small Krylov subspace and never time-steps at all.
//! [`DescriptorStateSpace`] is the seam between the two worlds: it bundles an
//! [`MnaSystem`] with the input columns `B` (unit excitations of chosen
//! sources) and output selectors `L` (chosen node voltages), and exposes
//! exactly the operations a Krylov reducer needs —
//!
//! * a one-off factorisation of `G` through the pluggable
//!   [`SolverBackend`] ([`DescriptorStateSpace::factor_g`]), and
//! * `O(nnz)` stamp-level products with `C` and `G`
//!   ([`DescriptorStateSpace::apply_c`] / [`DescriptorStateSpace::apply_g`]),
//!
//! so a reduction of a 1000-section ladder never materialises a dense matrix.

use rlckit_numeric::solver::SolverBackend;

use crate::error::CircuitError;
use crate::mna::MnaSystem;
use crate::netlist::{Circuit, NodeId, SourceId};
use crate::solve::{factor_real, FactoredMna};

/// A circuit's `G·x + C·dx/dt = B·u, y = Lᵀ·x` descriptor system with chosen
/// inputs (sources) and outputs (node voltages).
#[derive(Debug, Clone)]
pub struct DescriptorStateSpace {
    mna: MnaSystem,
    /// One unit-excitation column per input, logical order.
    inputs: Vec<Vec<f64>>,
    /// One selector column per output, logical order.
    outputs: Vec<Vec<f64>>,
}

impl DescriptorStateSpace {
    /// Extracts the state space of `circuit` with the given input sources and
    /// output nodes.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidAnalysis`] if `inputs` or `outputs` is
    /// empty or an output is the ground node, [`CircuitError::UnknownSource`]
    /// / [`CircuitError::UnknownNode`] for identifiers that do not belong to
    /// the circuit, and propagates MNA assembly errors.
    pub fn new(
        circuit: &Circuit,
        inputs: &[SourceId],
        outputs: &[NodeId],
    ) -> Result<Self, CircuitError> {
        let mna = MnaSystem::build(circuit)?;
        if inputs.is_empty() {
            return Err(CircuitError::InvalidAnalysis {
                reason: "state space needs at least one input source",
            });
        }
        if outputs.is_empty() {
            return Err(CircuitError::InvalidAnalysis {
                reason: "state space needs at least one output node",
            });
        }
        let mut b_columns = Vec::with_capacity(inputs.len());
        for &source in inputs {
            b_columns.push(mna.unit_excitation_real(source)?);
        }
        let mut l_columns = Vec::with_capacity(outputs.len());
        for &node in outputs {
            if node.is_ground() {
                return Err(CircuitError::InvalidAnalysis {
                    reason: "state-space output must not be the ground node",
                });
            }
            if node.index() >= circuit.node_count() {
                return Err(CircuitError::UnknownNode { index: node.index() });
            }
            let row = mna.row_of_node(node).expect("non-ground node has a row");
            let mut l = vec![0.0; mna.dim()];
            l[row] = 1.0;
            l_columns.push(l);
        }
        Ok(Self { mna, inputs: b_columns, outputs: l_columns })
    }

    /// Dimension of the full unknown vector.
    pub fn dim(&self) -> usize {
        self.mna.dim()
    }

    /// Number of input columns in `B`.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output columns in `L`.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The underlying MNA system.
    pub fn mna(&self) -> &MnaSystem {
        &self.mna
    }

    /// The `j`-th column of `B` in logical order.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.input_count()`.
    pub fn input_column(&self, j: usize) -> &[f64] {
        &self.inputs[j]
    }

    /// The `i`-th column of `L` in logical order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.output_count()`.
    pub fn output_column(&self, i: usize) -> &[f64] {
        &self.outputs[i]
    }

    /// Factorises `G` with the requested backend (sparse under
    /// [`SolverBackend::Auto`]), for the repeated
    /// `G⁻¹·(C·v)` solves of a Krylov iteration.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] if `G` cannot be factorised.
    pub fn factor_g(&self, backend: SolverBackend) -> Result<FactoredMna<f64>, CircuitError> {
        factor_real(&self.mna, 1.0, 0.0, backend, "state-space G factorisation")
    }

    /// Stamp-level product `C·x` in logical order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn apply_c(&self, x: &[f64]) -> Vec<f64> {
        self.mna.apply_c(x)
    }

    /// Stamp-level product `G·x` in logical order.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn apply_g(&self, x: &[f64]) -> Vec<f64> {
        self.mna.apply_g(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;
    use rlckit_units::{Capacitance, Inductance, Resistance};

    fn rlc_chain(segments: usize) -> (Circuit, SourceId, NodeId) {
        let mut c = Circuit::new();
        let gnd = c.ground();
        let input = c.add_node();
        let src = c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        let mut prev = input;
        for _ in 0..segments {
            let mid = c.add_node();
            let next = c.add_node();
            c.add_resistor(prev, mid, Resistance::from_ohms(10.0)).unwrap();
            c.add_inductor(mid, next, Inductance::from_henries(50.0e-12)).unwrap();
            c.add_capacitor(next, gnd, Capacitance::from_femtofarads(20.0)).unwrap();
            prev = next;
        }
        (c, src, prev)
    }

    #[test]
    fn extraction_shapes_and_columns() {
        let (c, src, out) = rlc_chain(5);
        let ss = DescriptorStateSpace::new(&c, &[src], &[out]).unwrap();
        assert_eq!(ss.input_count(), 1);
        assert_eq!(ss.output_count(), 1);
        assert_eq!(ss.dim(), ss.mna().dim());
        // B selects the source branch row: a single 1 somewhere.
        let b = ss.input_column(0);
        assert_eq!(b.iter().filter(|v| **v != 0.0).count(), 1);
        assert_eq!(b.iter().sum::<f64>(), 1.0);
        // L selects the output node row.
        let l = ss.output_column(0);
        let row = ss.mna().row_of_node(out).unwrap();
        assert_eq!(l[row], 1.0);
        assert_eq!(l.iter().filter(|v| **v != 0.0).count(), 1);
    }

    #[test]
    fn invalid_selections_are_typed_errors() {
        let (c, src, out) = rlc_chain(2);
        assert!(matches!(
            DescriptorStateSpace::new(&c, &[], &[out]),
            Err(CircuitError::InvalidAnalysis { .. })
        ));
        assert!(matches!(
            DescriptorStateSpace::new(&c, &[src], &[]),
            Err(CircuitError::InvalidAnalysis { .. })
        ));
        assert!(matches!(
            DescriptorStateSpace::new(&c, &[src], &[c.ground()]),
            Err(CircuitError::InvalidAnalysis { .. })
        ));
        assert!(matches!(
            DescriptorStateSpace::new(&c, &[SourceId(7)], &[out]),
            Err(CircuitError::UnknownSource { index: 7 })
        ));
        assert!(matches!(
            DescriptorStateSpace::new(&c, &[src], &[NodeId(999)]),
            Err(CircuitError::UnknownNode { index: 999 })
        ));
    }

    #[test]
    fn dc_gain_through_the_state_space_is_one() {
        // Lᵀ G⁻¹ B of the step-driven chain: the line is a DC short to the
        // output once charged, so the DC transfer must be 1 (up to GMIN).
        let (c, src, out) = rlc_chain(8);
        let ss = DescriptorStateSpace::new(&c, &[src], &[out]).unwrap();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let factor = ss.factor_g(backend).unwrap();
            let x = factor.solve(ss.input_column(0));
            let gain: f64 = ss.output_column(0).iter().zip(x.iter()).map(|(l, xi)| l * xi).sum();
            assert!((gain - 1.0).abs() < 1e-6, "{backend:?} DC gain {gain}");
        }
    }

    #[test]
    fn apply_c_matches_the_dense_storage_matrix() {
        let (c, src, out) = rlc_chain(4);
        let ss = DescriptorStateSpace::new(&c, &[src], &[out]).unwrap();
        let x: Vec<f64> = (0..ss.dim()).map(|i| (i as f64).sin()).collect();
        let stamped = ss.apply_c(&x);
        let dense = ss.mna().dense_c().mul_vec(&x);
        for (s, d) in stamped.iter().zip(dense.iter()) {
            assert!((s - d).abs() < 1e-24 + 1e-12 * d.abs());
        }
        let stamped = ss.apply_g(&x);
        let dense = ss.mna().dense_g().mul_vec(&x);
        for (s, d) in stamped.iter().zip(dense.iter()) {
            assert!((s - d).abs() < 1e-12 * d.abs().max(1.0));
        }
    }
}
