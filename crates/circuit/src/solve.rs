//! The circuit-side face of the pluggable solver backend.
//!
//! [`FactoredMna`] wraps a backend-erased factorisation ([`FactoredSolver`])
//! of an MNA system matrix; [`factor_real`] and `factor_complex` build one.
//! Every kernel factors the compressed-sparse-column assembly of the system
//! in logical (node/branch) order, so right-hand sides and solutions need no
//! relabelling. The sparse kernel applies its own fill-reducing
//! (approximate-minimum-degree) ordering internally, reusing the
//! [`MnaSystem`]'s lazily computed symbolic phase across every factorisation
//! of the same circuit — DC initial condition, transient stepping matrix and
//! each AC frequency point. The dense oracle expands the same assembly.
//!
//! DC, AC and transient analysis all factor through this type.

use rlckit_numeric::complex::Complex;
use rlckit_numeric::matrix::Scalar;
use rlckit_numeric::solver::{FactoredSolver, ResolvedBackend, SolverBackend};
use rlckit_numeric::sparse::SparseLuFactor;

use crate::error::CircuitError;
use crate::mna::MnaSystem;

/// A factorised MNA system matrix, in logical (node/branch) order.
#[derive(Debug, Clone)]
pub struct FactoredMna<T: Scalar = f64> {
    solver: FactoredSolver<T>,
}

impl<T: Scalar> FactoredMna<T> {
    /// Solves `A·x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the system dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.solver.solve(b)
    }

    /// Solves `A·x = b` into a caller-provided buffer.
    ///
    /// `work` is scratch that grows to the dimension on the first call;
    /// reusing it makes every later solve allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` does not equal the system dimension.
    pub fn solve_into(&self, b: &[T], x: &mut [T], work: &mut Vec<T>) {
        let n = self.solver.dim();
        assert_eq!(b.len(), n, "right-hand side length must equal system dimension");
        work.resize(n, T::zero());
        self.solver.solve_into(b, x, work);
    }

    /// The kernel the backend dispatch selected (dense or sparse).
    pub(crate) fn backend(&self) -> ResolvedBackend {
        self.solver.backend()
    }
}

/// Factorises `gs·G + cs·C` of a system with the requested backend.
///
/// Convenience wrapper used by the DC and transient analyses. On the sparse
/// kernel a matrix with a storage term (`cs ≠ 0`) factors against the
/// system's shared symbolic phase and goes through the process-global
/// [`crate::pattern_cache`] when that is enabled; a DC matrix (`cs = 0`)
/// factors against [`MnaSystem::dc_symbolic`].
///
/// # Errors
///
/// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the matrix
/// cannot be factorised.
pub fn factor_real(
    mna: &MnaSystem,
    gs: f64,
    cs: f64,
    backend: SolverBackend,
    stage: &'static str,
) -> Result<FactoredMna<f64>, CircuitError> {
    let a = mna.assemble_csc_real(gs, cs);
    let solver = match backend.resolve() {
        ResolvedBackend::Sparse if cs == 0.0 => SparseLuFactor::factor(&a, mna.dc_symbolic())
            .map(|factor| FactoredSolver::from_sparse_with_matrix(factor, &a)),
        ResolvedBackend::Sparse => crate::pattern_cache::factor_real(&a, mna.sparse_symbolic())
            .map(|factor| FactoredSolver::from_sparse_with_matrix(factor, &a)),
        ResolvedBackend::Dense => FactoredSolver::factor_csc(&a, backend),
    }
    .map_err(|_| CircuitError::SingularSystem { stage })?;
    if rlckit_telemetry::enabled() {
        // One condition estimate per factorisation (a handful of extra
        // solves against the factors we just built) feeds the health report.
        solver.condest_health();
    }
    Ok(FactoredMna { solver })
}

/// Factorises the complex system `G + s·C` with the requested backend,
/// against the system's shared symbolic phase on the sparse kernel (against
/// [`MnaSystem::dc_symbolic`] at `s = 0`).
///
/// # Errors
///
/// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the matrix
/// cannot be factorised.
pub fn factor_complex(
    mna: &MnaSystem,
    s: Complex,
    backend: SolverBackend,
    stage: &'static str,
) -> Result<FactoredMna<Complex>, CircuitError> {
    let a = mna.assemble_csc_complex(s);
    let symbolic = if s == Complex::ZERO { mna.dc_symbolic() } else { mna.sparse_symbolic() };
    let solver = match backend.resolve() {
        ResolvedBackend::Sparse => SparseLuFactor::factor(&a, symbolic)
            .map(|factor| FactoredSolver::from_sparse_with_matrix(factor, &a)),
        ResolvedBackend::Dense => FactoredSolver::factor_csc(&a, backend),
    }
    .map_err(|_| CircuitError::SingularSystem { stage })?;
    Ok(FactoredMna { solver })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshSpec;
    use crate::netlist::Circuit;
    use crate::source::SourceWaveform;
    use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

    /// A little RLC chain: a voltage step driving `segments` R–L–C sections.
    fn chain(segments: usize) -> Circuit {
        let mut c = Circuit::new();
        let gnd = c.ground();
        let input = c.add_node();
        c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        let mut prev = input;
        for _ in 0..segments {
            let mid = c.add_node();
            let next = c.add_node();
            c.add_resistor(prev, mid, Resistance::from_ohms(10.0)).unwrap();
            c.add_inductor(mid, next, Inductance::from_henries(50.0e-12)).unwrap();
            c.add_capacitor(next, gnd, Capacitance::from_femtofarads(20.0)).unwrap();
            prev = next;
        }
        c
    }

    #[test]
    fn dense_and_sparse_backends_agree_on_dc() {
        let circuit = chain(30);
        let mna = MnaSystem::build(&circuit).unwrap();
        let mut b = vec![0.0; mna.dim()];
        mna.rhs_at(Time::from_picoseconds(1.0), &mut b);

        let dense = factor_real(&mna, 1.0, 0.0, SolverBackend::Dense, "test").unwrap();
        let sparse = factor_real(&mna, 1.0, 0.0, SolverBackend::Sparse, "test").unwrap();
        assert_eq!(dense.backend(), ResolvedBackend::Dense);
        assert_eq!(sparse.backend(), ResolvedBackend::Sparse);

        let xd = dense.solve(&b);
        let xs = sparse.solve(&b);
        for (d, s) in xd.iter().zip(xs.iter()) {
            assert!((d - s).abs() < 1e-9, "dense {d} vs sparse {s}");
        }
    }

    #[test]
    fn auto_resolves_to_sparse_on_ladders_meshes_and_small_rcs() {
        let ladder = chain(200);
        let mesh = MeshSpec {
            rows: 10,
            cols: 10,
            segment_resistance: Resistance::from_ohms(5.0),
            segment_inductance: Inductance::ZERO,
            node_capacitance: Capacitance::from_femtofarads(10.0),
            driver_resistance: Resistance::from_ohms(50.0),
            load_capacitance: Capacitance::ZERO,
            supply: Voltage::from_volts(1.0),
        }
        .build()
        .unwrap()
        .circuit;
        let mut rc = Circuit::new();
        let gnd = rc.ground();
        let input = rc.add_node();
        let out = rc.add_node();
        rc.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        rc.add_resistor(input, out, Resistance::from_ohms(1000.0)).unwrap();
        rc.add_capacitor(out, gnd, Capacitance::from_picofarads(1.0)).unwrap();
        for (what, circuit, dim) in [("ladder", ladder, 602), ("mesh", mesh, 102), ("rc", rc, 3)] {
            let mna = MnaSystem::build(&circuit).unwrap();
            assert_eq!(mna.dim(), dim, "{what}");
            let auto = factor_real(&mna, 1.0, 1e12, SolverBackend::Auto, "test").unwrap();
            assert_eq!(auto.backend(), ResolvedBackend::Sparse, "{what}");
        }
    }

    #[test]
    fn complex_factorisation_dispatches_too() {
        let circuit = chain(20);
        let mna = MnaSystem::build(&circuit).unwrap();
        let s = Complex::new(0.0, 1e10);
        let sparse = factor_complex(&mna, s, SolverBackend::Sparse, "test").unwrap();
        let dense = factor_complex(&mna, s, SolverBackend::Dense, "test").unwrap();
        assert_eq!(sparse.backend(), ResolvedBackend::Sparse);
        assert_eq!(dense.backend(), ResolvedBackend::Dense);
        let b = mna.unit_excitation(crate::netlist::SourceId(0)).unwrap();
        let xs = sparse.solve(&b);
        let xd = dense.solve(&b);
        for (u, v) in xs.iter().zip(xd.iter()) {
            assert!((*u - *v).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_system_reports_the_stage() {
        // GMIN keeps G alone invertible, so factor 0·G + 0·C, which is
        // exactly singular.
        let circuit = chain(2);
        let mna = MnaSystem::build(&circuit).unwrap();
        let err = factor_real(&mna, 0.0, 0.0, SolverBackend::Auto, "unit test").unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { stage: "unit test" }));
    }

    #[test]
    fn sparse_backend_reports_singular_systems_like_the_others() {
        let circuit = chain(3);
        let mna = MnaSystem::build(&circuit).unwrap();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse, SolverBackend::Auto] {
            let err = factor_real(&mna, 0.0, 0.0, backend, "parity").unwrap_err();
            assert!(
                matches!(err, CircuitError::SingularSystem { stage: "parity" }),
                "backend {backend:?} must reject the zero matrix"
            );
        }
    }
}
