//! One-call reduction of the paper's gate-driven RLC ladder.
//!
//! [`reduce_ladder`] builds the [`LadderSpec`] circuit, extracts its
//! descriptor state space (source → far-end output), runs the PRIMA
//! projector and collapses the result to a [`PoleResidueModel`] — after
//! which `delay_50`, overshoot and settling time are closed-form
//! evaluations instead of a transient run. This is the drop-in fast path
//! for [`measure_step_delay`](rlckit_circuit::ladder::measure_step_delay)
//! wherever a ≲1% delay error is acceptable (see the `mor_scaling` bench
//! for the measured speedup).

use rlckit_circuit::ladder::LadderSpec;
use rlckit_circuit::state_space::DescriptorStateSpace;
use rlckit_numeric::solver::SolverBackend;

use crate::error::ReduceError;
use crate::krylov::{prima, ReductionOptions};
use crate::rom::{PoleResidueModel, StepMetrics};

/// A reduced-order model of one driven ladder, ready for metric queries.
#[derive(Debug, Clone)]
pub struct ReducedLadder {
    model: PoleResidueModel,
}

impl ReducedLadder {
    /// Step-response metrics in closed form: 50% delay, overshoot and
    /// settling time. Thresholds are fractions of the final value, matching
    /// the simulator's supply-relative measurements (the ladder's DC gain
    /// is 1 up to `GMIN`).
    ///
    /// # Errors
    ///
    /// Propagates [`ReduceError::Measurement`] from the metric evaluation.
    pub fn metrics(&self) -> Result<StepMetrics, ReduceError> {
        self.model.step_metrics()
    }
}

/// Reduces a ladder specification to an order-`q` model.
///
/// # Errors
///
/// Propagates construction errors from the spec, reduction errors from
/// PRIMA and pole-extraction errors.
pub fn reduce_ladder(
    spec: &LadderSpec,
    order: usize,
    backend: SolverBackend,
) -> Result<ReducedLadder, ReduceError> {
    let line = spec.build()?;
    let ss = DescriptorStateSpace::new(&line.circuit, &[line.source], &[line.output])?;
    let system = prima(&ss, &ReductionOptions::new(order).with_backend(backend))?;
    let model = system.pole_residue(0, 0)?;
    Ok(ReducedLadder { model })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::{Capacitance, Inductance, Resistance};

    fn spec() -> LadderSpec {
        LadderSpec::new(
            Resistance::from_ohms(500.0),
            Inductance::from_nanohenries(10.0),
            Capacitance::from_picofarads(1.0),
            Resistance::from_ohms(250.0),
            Capacitance::from_picofarads(0.1),
        )
    }

    #[test]
    fn reduction_produces_a_stable_unit_gain_model() {
        let reduced = reduce_ladder(&spec(), 6, SolverBackend::Auto).unwrap();
        let model = &reduced.model;
        assert_eq!(model.poles.len(), 6);
        assert!(model.poles.iter().all(|p| p.re < 0.0), "poles {:?}", model.poles);
        assert!((model.final_value() - 1.0).abs() < 1e-6);
        let metrics = reduced.metrics().unwrap();
        assert!(metrics.delay_50.seconds() > 0.0);
        assert!(metrics.settling_time.seconds() > metrics.delay_50.seconds());
    }

    #[test]
    fn invalid_specs_propagate_as_circuit_errors() {
        let mut bad = spec();
        bad.total_resistance = Resistance::ZERO;
        assert!(matches!(
            reduce_ladder(&bad, 4, SolverBackend::Auto),
            Err(ReduceError::Circuit(_))
        ));
    }
}
