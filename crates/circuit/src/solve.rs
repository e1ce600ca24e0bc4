//! The circuit-side face of the pluggable solver backend.
//!
//! [`FactoredMna`] couples a backend-erased factorisation
//! ([`FactoredSolver`]) with whatever unknown relabelling it was assembled
//! under, so analyses can keep thinking in logical (node/branch) order:
//! right-hand sides go in logical, solutions come out logical, and the
//! permutation bookkeeping stays here.
//!
//! The backend decides the assembly route. Dense and banded kernels factor
//! the band-assembled matrix under the bandwidth-reducing Cuthill–McKee
//! relabelling; the sparse kernel factors a compressed-sparse-column assembly
//! in logical order and applies its own fill-reducing (minimum-degree)
//! ordering internally, reusing the [`MnaSystem`]'s lazily computed symbolic
//! phase across every factorisation of the same circuit — DC initial
//! condition, transient stepping matrix and each AC frequency point.
//!
//! DC, AC and transient analysis all factor through this type.

use rlckit_numeric::banded::BandedMatrix;
use rlckit_numeric::matrix::Scalar;
use rlckit_numeric::ordering::{gather, scatter};
use rlckit_numeric::solver::{FactoredSolver, ResolvedBackend, SolverBackend};
use rlckit_numeric::sparse::SparseLuFactor;

use crate::error::CircuitError;
use crate::mna::MnaSystem;

/// A factorised MNA system matrix plus the unknown relabelling it was
/// assembled under.
#[derive(Debug, Clone)]
pub struct FactoredMna<T: Scalar = f64> {
    solver: FactoredSolver<T>,
    /// Packing permutation of the assembled rows, or `None` when the solver
    /// operates directly in logical order (the sparse path).
    perm: Option<Vec<usize>>,
}

impl<T: Scalar> FactoredMna<T> {
    /// Factorises a band-assembled system matrix.
    ///
    /// `a` must come from the same [`MnaSystem`]'s `assemble_real` /
    /// `assemble_complex`, so that its rows follow `mna.permutation()`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the
    /// matrix cannot be factorised.
    pub fn factor(
        mna: &MnaSystem,
        a: &BandedMatrix<T>,
        backend: SolverBackend,
        stage: &'static str,
    ) -> Result<Self, CircuitError> {
        let solver = FactoredSolver::factor(a, backend)
            .map_err(|_| CircuitError::SingularSystem { stage })?;
        Ok(Self { solver, perm: Some(mna.permutation().to_vec()) })
    }

    /// Solves `A·x = b` with both `b` and the returned `x` in logical
    /// (node/branch) order.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the system dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = vec![T::zero(); b.len()];
        self.solve_into(b, &mut x, &mut Vec::new());
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer, both in logical order.
    ///
    /// `work` is scratch that grows on the first call (to twice the
    /// dimension on the relabelled dense/banded path, to the dimension on the
    /// sparse path); reusing it makes every later solve allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` does not equal the system dimension.
    pub fn solve_into(&self, b: &[T], x: &mut [T], work: &mut Vec<T>) {
        let n = self.solver.dim();
        assert_eq!(b.len(), n, "right-hand side length must equal system dimension");
        match &self.perm {
            Some(perm) => {
                work.resize(2 * n, T::zero());
                let (packed_b, packed_x) = work.split_at_mut(n);
                for (&p, &v) in perm.iter().zip(b) {
                    packed_b[p] = v;
                }
                // `x` is not read before the gather, so it doubles as the
                // kernel's scratch.
                self.solver.solve_into(packed_b, packed_x, x);
                for (slot, &p) in x.iter_mut().zip(perm) {
                    *slot = packed_x[p];
                }
            }
            None => {
                work.resize(n, T::zero());
                self.solver.solve_into(b, x, work);
            }
        }
    }

    /// Solves `A·X = B` for many right-hand sides with the one stored
    /// factorisation, everything in logical order.
    ///
    /// One blocked substitution pass instead of a solve per column — the
    /// multi-port/multi-excitation path (MIMO transfer matrices, sweep
    /// cells, AC ports) on every backend.
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side's length differs from the dimension.
    pub fn solve_many(&self, rhs: &[Vec<T>]) -> Vec<Vec<T>> {
        match &self.perm {
            Some(perm) => {
                let packed: Vec<Vec<T>> = rhs.iter().map(|b| scatter(perm, b)).collect();
                self.solver.solve_many(&packed).iter().map(|x| gather(perm, x)).collect()
            }
            None => self.solver.solve_many(rhs),
        }
    }

    /// The kernel the backend dispatch selected (dense, banded or sparse).
    pub fn backend(&self) -> ResolvedBackend {
        self.solver.backend()
    }

    /// Access to the underlying backend-erased solver (packed order for the
    /// dense/banded paths, logical order for the sparse path).
    pub fn packed_solver(&self) -> &FactoredSolver<T> {
        &self.solver
    }
}

impl FactoredMna<f64> {
    /// Re-derives the factors for new scalars `(gs, cs)` of the same system,
    /// warm where the kernel allows it.
    ///
    /// On the sparse path this is a value-only refactorisation: the
    /// scatter-map assembly rewrites the values of the shared union pattern
    /// in place and [`FactoredSolver::refactor_csc`] reuses the frozen pivot
    /// sequence and fill pattern — no symbolic work, no pivot search, no
    /// factor-storage allocation. Dense and banded kernels factor afresh
    /// (they have no symbolic phase to reuse) but stay on their kernel.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the
    /// new matrix cannot be factorised; the previous factors are lost.
    pub fn refactor_real(
        &mut self,
        mna: &MnaSystem,
        gs: f64,
        cs: f64,
        stage: &'static str,
    ) -> Result<(), CircuitError> {
        if self.perm.is_none() && self.solver.backend() == ResolvedBackend::Sparse {
            let a = mna.assemble_csc_real(gs, cs);
            return self
                .solver
                .refactor_csc(&a)
                .map_err(|_| CircuitError::SingularSystem { stage });
        }
        let a = mna.assemble_real(gs, cs);
        *self = FactoredMna::factor(mna, &a, force_backend(self.solver.backend()), stage)?;
        Ok(())
    }
}

impl FactoredMna<rlckit_numeric::complex::Complex> {
    /// Re-derives the factors for a new complex frequency `s` of the same
    /// system — the per-frequency step of an AC sweep — warm where the
    /// kernel allows it, exactly like [`FactoredMna::refactor_real`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the
    /// new matrix cannot be factorised; the previous factors are lost.
    pub fn refactor_complex(
        &mut self,
        mna: &MnaSystem,
        s: rlckit_numeric::complex::Complex,
        stage: &'static str,
    ) -> Result<(), CircuitError> {
        if self.perm.is_none() && self.solver.backend() == ResolvedBackend::Sparse {
            let a = mna.assemble_csc_complex(s);
            return self
                .solver
                .refactor_csc(&a)
                .map_err(|_| CircuitError::SingularSystem { stage });
        }
        let a = mna.assemble_complex(s);
        *self = FactoredMna::factor(mna, &a, force_backend(self.solver.backend()), stage)?;
        Ok(())
    }
}

/// Pins an already-resolved kernel as an explicit backend request, so a
/// refactorisation can never hop kernels mid-analysis.
fn force_backend(resolved: ResolvedBackend) -> SolverBackend {
    match resolved {
        ResolvedBackend::Dense => SolverBackend::Dense,
        ResolvedBackend::Banded => SolverBackend::Banded,
        ResolvedBackend::Sparse => SolverBackend::Sparse,
    }
}

/// Resolves the effective kernel for a system before any assembly happens,
/// so the sparse path never materialises band storage (which would be
/// `O(n·bandwidth)` — quadratic on tree-shaped circuits).
pub(crate) fn resolve_backend(mna: &MnaSystem, backend: SolverBackend) -> ResolvedBackend {
    let (kl, ku) = mna.bandwidth();
    backend.resolve(mna.dim(), kl, ku)
}

/// Factorises `gs·G + cs·C` of a system with the requested backend.
///
/// Convenience wrapper used by the DC and transient analyses. The backend is
/// resolved *before* assembly: the sparse kernel receives a
/// compressed-sparse-column matrix in logical order (reusing the system's
/// symbolic phase), the dense/banded kernels the band assembly under the
/// bandwidth-reducing relabelling.
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
    let factored = if resolve_backend(mna, backend) == ResolvedBackend::Sparse {
        let a = mna.assemble_csc_real(gs, cs);
        // When the process-global pattern cache is active (it is disabled by
        // default), this both consults and seeds it; otherwise it is exactly
        // a fresh `SparseLuFactor::factor` against the shared symbolic.
        let factor = crate::pattern_cache::factor_real(&a, mna.sparse_symbolic())
            .map_err(|_| CircuitError::SingularSystem { stage })?;
        FactoredMna { solver: FactoredSolver::from_sparse_with_matrix(factor, &a), perm: None }
    } else {
        let a = mna.assemble_real(gs, cs);
        FactoredMna::factor(mna, &a, backend, stage)?
    };
    if rlckit_telemetry::enabled() {
        // One condition estimate per factorisation (a handful of extra
        // solves against the factors we just built) feeds the health report.
        factored.packed_solver().condest_health();
    }
    Ok(factored)
}

/// Factorises the complex system `G + s·C` with the requested backend,
/// routing assembly exactly like [`factor_real`].
///
/// # Errors
///
/// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the matrix
/// cannot be factorised.
pub fn factor_complex(
    mna: &MnaSystem,
    s: rlckit_numeric::complex::Complex,
    backend: SolverBackend,
    stage: &'static str,
) -> Result<FactoredMna<rlckit_numeric::complex::Complex>, CircuitError> {
    if resolve_backend(mna, backend) == ResolvedBackend::Sparse {
        let a = mna.assemble_csc_complex(s);
        let factor = SparseLuFactor::factor(&a, mna.sparse_symbolic())
            .map_err(|_| CircuitError::SingularSystem { stage })?;
        return Ok(FactoredMna {
            solver: FactoredSolver::from_sparse_with_matrix(factor, &a),
            perm: None,
        });
    }
    let a = mna.assemble_complex(s);
    FactoredMna::factor(mna, &a, backend, stage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::source::SourceWaveform;
    use rlckit_numeric::complex::Complex;
    use rlckit_units::{Capacitance, Inductance, Resistance, Time};

    /// A little RLC chain with enough unknowns for the banded path to engage.
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
            c.add_inductor(mid, next, Inductance::from_picohenries(50.0)).unwrap();
            c.add_capacitor(next, gnd, Capacitance::from_femtofarads(20.0)).unwrap();
            prev = next;
        }
        c
    }

    #[test]
    fn dense_and_banded_backends_agree_on_dc() {
        let circuit = chain(30);
        let mna = MnaSystem::build(&circuit).unwrap();
        let mut b = vec![0.0; mna.dim()];
        mna.rhs_at(Time::from_picoseconds(1.0), &mut b);

        let dense = factor_real(&mna, 1.0, 0.0, SolverBackend::Dense, "test").unwrap();
        let banded = factor_real(&mna, 1.0, 0.0, SolverBackend::Banded, "test").unwrap();
        assert_eq!(dense.backend(), ResolvedBackend::Dense);
        assert_eq!(banded.backend(), ResolvedBackend::Banded);

        let xd = dense.solve(&b);
        let xb = banded.solve(&b);
        for (d, bd) in xd.iter().zip(xb.iter()) {
            assert!((d - bd).abs() < 1e-9, "dense {d} vs banded {bd}");
        }
    }

    #[test]
    fn auto_uses_banded_for_ladders() {
        let circuit = chain(30);
        let mna = MnaSystem::build(&circuit).unwrap();
        let auto = factor_real(&mna, 1.0, 1e12, SolverBackend::Auto, "test").unwrap();
        assert_eq!(auto.backend(), ResolvedBackend::Banded);
        assert_eq!(auto.packed_solver().dim(), mna.dim());
    }

    #[test]
    fn complex_factorisation_dispatches_too() {
        let circuit = chain(20);
        let mna = MnaSystem::build(&circuit).unwrap();
        let s = Complex::new(0.0, 1e10);
        let a = mna.assemble_complex(s);
        let banded = FactoredMna::factor(&mna, &a, SolverBackend::Banded, "test").unwrap();
        let dense = FactoredMna::factor(&mna, &a, SolverBackend::Dense, "test").unwrap();
        let b = mna.unit_excitation(crate::netlist::SourceId(0)).unwrap();
        let xb = banded.solve(&b);
        let xd = dense.solve(&b);
        for (u, v) in xb.iter().zip(xd.iter()) {
            assert!((*u - *v).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_system_reports_the_stage() {
        // A lone capacitor has a singular G-only system? No — GMIN saves it.
        // Instead factor 0·G + 0·C, which is exactly singular.
        let circuit = chain(2);
        let mna = MnaSystem::build(&circuit).unwrap();
        let err = factor_real(&mna, 0.0, 0.0, SolverBackend::Auto, "unit test").unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { stage: "unit test" }));
    }

    #[test]
    fn sparse_backend_agrees_with_banded_on_dc_and_complex() {
        let circuit = chain(25);
        let mna = MnaSystem::build(&circuit).unwrap();
        let mut b = vec![0.0; mna.dim()];
        mna.rhs_at(Time::from_picoseconds(1.0), &mut b);

        let sparse = factor_real(&mna, 1.0, 0.0, SolverBackend::Sparse, "test").unwrap();
        let banded = factor_real(&mna, 1.0, 0.0, SolverBackend::Banded, "test").unwrap();
        assert_eq!(sparse.backend(), ResolvedBackend::Sparse);
        assert_eq!(sparse.packed_solver().dim(), mna.dim());
        let xs = sparse.solve(&b);
        let xb = banded.solve(&b);
        for (s, bd) in xs.iter().zip(xb.iter()) {
            assert!((s - bd).abs() < 1e-9, "sparse {s} vs banded {bd}");
        }

        let s = Complex::new(0.0, 2e10);
        let sparse_c = factor_complex(&mna, s, SolverBackend::Sparse, "test").unwrap();
        let banded_c = factor_complex(&mna, s, SolverBackend::Banded, "test").unwrap();
        let bc = mna.unit_excitation(crate::netlist::SourceId(0)).unwrap();
        for (u, v) in sparse_c.solve(&bc).iter().zip(banded_c.solve(&bc).iter()) {
            assert!((*u - *v).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_many_matches_solve_on_every_backend() {
        let circuit = chain(25);
        let mna = MnaSystem::build(&circuit).unwrap();
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..mna.dim()).map(|i| ((i + 7 * k) as f64 * 0.11).sin()).collect())
            .collect();
        for backend in [SolverBackend::Dense, SolverBackend::Banded, SolverBackend::Sparse] {
            let f = factor_real(&mna, 1.0, 1e12, backend, "test").unwrap();
            let many = f.solve_many(&rhs);
            for (b, x) in rhs.iter().zip(many.iter()) {
                let one = f.solve(b);
                for (m, o) in x.iter().zip(one.iter()) {
                    assert!((m - o).abs() < 1e-12, "{backend:?}: solve_many {m} vs solve {o}");
                }
            }
        }
    }

    #[test]
    fn refactor_tracks_new_scalars_on_every_backend() {
        let circuit = chain(25);
        let mna = MnaSystem::build(&circuit).unwrap();
        let mut b = vec![0.0; mna.dim()];
        mna.rhs_at(Time::from_picoseconds(1.0), &mut b);
        for backend in [SolverBackend::Dense, SolverBackend::Banded, SolverBackend::Sparse] {
            let mut f = factor_real(&mna, 1.0, 0.0, backend, "test").unwrap();
            let kernel = f.backend();
            f.refactor_real(&mna, 1.0, 1e12, "test").unwrap();
            assert_eq!(f.backend(), kernel, "refactor must stay on its kernel");
            let warm = f.solve(&b);
            let fresh = factor_real(&mna, 1.0, 1e12, backend, "test").unwrap().solve(&b);
            for (w, fr) in warm.iter().zip(fresh.iter()) {
                assert!((w - fr).abs() < 1e-12, "{backend:?}: refactor {w} vs fresh {fr}");
            }
        }
    }

    #[test]
    fn refactor_complex_tracks_new_frequency() {
        let circuit = chain(25);
        let mna = MnaSystem::build(&circuit).unwrap();
        let bc = mna.unit_excitation(crate::netlist::SourceId(0)).unwrap();
        for backend in [SolverBackend::Dense, SolverBackend::Banded, SolverBackend::Sparse] {
            let mut f = factor_complex(&mna, Complex::new(0.0, 1e9), backend, "test").unwrap();
            let s2 = Complex::new(0.0, 3e10);
            f.refactor_complex(&mna, s2, "test").unwrap();
            let warm = f.solve(&bc);
            let fresh = factor_complex(&mna, s2, backend, "test").unwrap().solve(&bc);
            for (w, fr) in warm.iter().zip(fresh.iter()) {
                assert!((*w - *fr).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn refactor_reports_singular_with_the_stage() {
        let circuit = chain(4);
        let mna = MnaSystem::build(&circuit).unwrap();
        let mut f = factor_real(&mna, 1.0, 0.0, SolverBackend::Sparse, "test").unwrap();
        let err = f.refactor_real(&mna, 0.0, 0.0, "warm stage").unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { stage: "warm stage" }));
    }

    #[test]
    fn sparse_backend_reports_singular_systems_like_the_others() {
        let circuit = chain(3);
        let mna = MnaSystem::build(&circuit).unwrap();
        for backend in [SolverBackend::Dense, SolverBackend::Banded, SolverBackend::Sparse] {
            let err = factor_real(&mna, 0.0, 0.0, backend, "parity").unwrap_err();
            assert!(
                matches!(err, CircuitError::SingularSystem { stage: "parity" }),
                "backend {backend:?} must reject the zero matrix"
            );
        }
    }
}
