//! Pluggable linear-solver backends: sparse LU, with dense LU as the oracle.
//!
//! Every analysis in the circuit simulator reduces to "factorise a constant
//! matrix once, then solve against many right-hand sides". This module makes
//! the factorisation kernel a policy choice:
//!
//! * [`SolverBackend::Sparse`] — the fill-reducing
//!   [`crate::sparse::SparseLuFactor`], the one production kernel: ladders,
//!   buses, branching trees and meshes all factor with `O(nnz(L) + nnz(U))`
//!   storage under an approximate-minimum-degree order;
//! * [`SolverBackend::Dense`] — the classic `O(n³)`/`O(n²)` path of
//!   [`crate::lu::LuFactor`], kept as the test oracle the sparse kernel is
//!   checked against;
//! * [`SolverBackend::Auto`] — the default, which resolves to the sparse
//!   kernel.
//!
//! [`FactoredSolver`] is the backend-erased factorisation: callers assemble a
//! [`CscMatrix`], call [`FactoredSolver::factor_csc`], and solve without
//! caring which kernel ran.

use crate::condition;
use crate::lu::{FactorizeError, LuFactor};
use crate::matrix::Scalar;
use crate::sparse::{CscMatrix, SparseLuFactor};

/// Which LU kernel to use for a factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// The default: the sparse kernel.
    #[default]
    Auto,
    /// Force the dense kernel (the test oracle).
    Dense,
    /// Force the fill-reducing sparse kernel.
    Sparse,
}

impl SolverBackend {
    /// Resolves `Auto` to a concrete kernel: everything but an explicit
    /// [`SolverBackend::Dense`] request runs on the sparse kernel.
    pub fn resolve(self) -> ResolvedBackend {
        match self {
            Self::Dense => ResolvedBackend::Dense,
            Self::Auto | Self::Sparse => ResolvedBackend::Sparse,
        }
    }
}

/// The concrete kernel chosen after resolving [`SolverBackend::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Dense LU with partial pivoting.
    Dense,
    /// Sparse LU with fill-reducing ordering and partial pivoting.
    Sparse,
}

impl ResolvedBackend {
    /// Human-readable kernel name (used in reports and examples).
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Sparse => "sparse",
        }
    }
}

/// A backend-erased LU factorisation.
///
/// When the profiler is enabled at factor time ([`rlckit_telemetry::enabled`])
/// the solver additionally retains a CSC copy of the assembled matrix and its
/// norms. The retained copy powers the numerical-health monitors: every
/// subsequent [`FactoredSolver::solve`] computes the normwise backward error
/// `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` from one `O(nnz)` matrix–vector
/// product and feeds it to [`rlckit_telemetry::check_metric`], and
/// [`FactoredSolver::condest`] reuses the factors for a Hager–Higham 1-norm
/// condition estimate. With the profiler disabled nothing is retained and
/// solves carry zero extra cost.
#[derive(Debug, Clone)]
pub struct FactoredSolver<T: Scalar = f64> {
    kernel: FactorKernel<T>,
    retained: Option<RetainedMatrix<T>>,
}

/// The kernel-specific factors behind a [`FactoredSolver`].
#[derive(Debug, Clone)]
enum FactorKernel<T: Scalar> {
    Dense(LuFactor<T>),
    Sparse(SparseLuFactor<T>),
}

/// Profiler-gated copy of the assembled matrix, kept alongside the factors so
/// backward errors and condition estimates never need the caller's matrix.
#[derive(Debug, Clone)]
struct RetainedMatrix<T: Scalar> {
    a: CscMatrix<T>,
    norm_inf: f64,
    norm_one: f64,
}

impl<T: Scalar> RetainedMatrix<T> {
    /// Retains `a` only while the profiler is enabled.
    fn when_enabled(a: &CscMatrix<T>) -> Option<Self> {
        rlckit_telemetry::enabled().then(|| Self {
            a: a.clone(),
            norm_inf: a.norm_inf(),
            norm_one: a.norm_one(),
        })
    }
}

impl<T: Scalar> FactoredSolver<T> {
    /// Factorises a compressed-sparse-column matrix with the requested
    /// backend (the dense kernel receives it through [`CscMatrix::to_dense`]).
    ///
    /// # Errors
    ///
    /// Propagates [`FactorizeError`] from the chosen kernel.
    pub fn factor_csc(a: &CscMatrix<T>, backend: SolverBackend) -> Result<Self, FactorizeError> {
        let kernel = match backend.resolve() {
            ResolvedBackend::Sparse => FactorKernel::Sparse(SparseLuFactor::factor_auto(a)?),
            ResolvedBackend::Dense => FactorKernel::Dense(LuFactor::new(&a.to_dense())?),
        };
        Ok(Self { kernel, retained: RetainedMatrix::when_enabled(a) })
    }

    /// Wraps an already-computed sparse factorisation together with the
    /// matrix it factored, so backward-error monitoring and
    /// [`FactoredSolver::condest`] work when the profiler is enabled.
    pub fn from_sparse_with_matrix(factor: SparseLuFactor<T>, a: &CscMatrix<T>) -> Self {
        Self { kernel: FactorKernel::Sparse(factor), retained: RetainedMatrix::when_enabled(a) }
    }

    /// Runs the kernel substitution without health bookkeeping (shared by
    /// the public solve paths and the condition estimator, whose probe
    /// solves must not pollute the backward-error statistics).
    fn kernel_solve(&self, b: &[T]) -> Vec<T> {
        match &self.kernel {
            FactorKernel::Dense(f) => f.solve(b),
            FactorKernel::Sparse(f) => f.solve(b),
        }
    }

    /// Computes and records the backward error of a completed solve when the
    /// profiler is enabled and a matrix was retained at factor time.
    fn emit_backward_error(&self, b: &[T], x: &[T]) {
        if !rlckit_telemetry::enabled() {
            return;
        }
        let Some(retained) = &self.retained else { return };
        let ax = retained.a.mul_vec(x);
        let be = condition::backward_error(retained.norm_inf, &ax, x, b);
        rlckit_telemetry::check_metric(
            self.solve_site(),
            "backward_error",
            be,
            condition::BACKWARD_ERROR_WARN,
            condition::BACKWARD_ERROR_ERROR,
        );
    }

    /// Health-event site for this solver's solve path.
    fn solve_site(&self) -> &'static str {
        match self.kernel {
            FactorKernel::Dense(_) => "dense.solve",
            FactorKernel::Sparse(_) => "sparse.solve",
        }
    }

    /// Health-event site for this solver's factorisation path.
    fn factor_site(&self) -> &'static str {
        match self.kernel {
            FactorKernel::Dense(_) => "dense.factor",
            FactorKernel::Sparse(_) => "sparse.factor",
        }
    }

    /// Solves `A·x = b` with the stored factors.
    ///
    /// With the profiler enabled and a retained matrix, also records the
    /// normwise backward error of the computed solution as a health metric
    /// at site `"<kernel>.solve"`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let x = self.kernel_solve(b);
        self.emit_backward_error(b, &x);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer, allocating nothing —
    /// the per-step solve of the transient driver.
    ///
    /// `work` is scratch of the matrix dimension (only the sparse kernel
    /// writes to it). Health monitoring is exactly that of
    /// [`FactoredSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `b`, `x` or `work` does not have the matrix dimension.
    pub fn solve_into(&self, b: &[T], x: &mut [T], work: &mut [T]) {
        assert_eq!(work.len(), self.dim(), "workspace length must equal matrix dimension");
        match &self.kernel {
            FactorKernel::Dense(f) => f.solve_into(b, x),
            FactorKernel::Sparse(f) => f.solve_into(b, x, work),
        }
        self.emit_backward_error(b, x);
    }

    /// Solves `Aᵀ·x = b` with the stored factors (no re-factorisation).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the matrix dimension.
    pub(crate) fn solve_transpose(&self, b: &[T]) -> Vec<T> {
        match &self.kernel {
            FactorKernel::Dense(f) => f.solve_transpose(b),
            FactorKernel::Sparse(f) => f.solve_transpose(b),
        }
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        match &self.kernel {
            FactorKernel::Dense(f) => f.dim(),
            FactorKernel::Sparse(f) => f.dim(),
        }
    }

    /// Which kernel this factorisation uses.
    pub fn backend(&self) -> ResolvedBackend {
        match self.kernel {
            FactorKernel::Dense(_) => ResolvedBackend::Dense,
            FactorKernel::Sparse(_) => ResolvedBackend::Sparse,
        }
    }
}

impl FactoredSolver<f64> {
    /// Hager–Higham estimate of the 1-norm condition number `κ₁(A) =
    /// ‖A‖₁·‖A⁻¹‖₁`, reusing the stored factors (a handful of extra solves,
    /// no re-factorisation).
    ///
    /// Returns `None` when no matrix was retained at factor time (profiler
    /// disabled). The
    /// estimate is a lower bound of the true condition number, almost always
    /// within the classic 10× estimator band.
    pub fn condest(&self) -> Option<f64> {
        let retained = self.retained.as_ref()?;
        let inv_norm = condition::invnorm1_estimate(
            self.dim(),
            |b| self.kernel_solve(b),
            |b| self.solve_transpose(b),
        );
        Some(retained.norm_one * inv_norm)
    }

    /// Runs [`FactoredSolver::condest`] and feeds the estimate to the health
    /// monitors: gauge `"solver.condest"` plus a `"condest"` health metric at
    /// site `"<kernel>.factor"`.
    ///
    /// Returns the estimate, or `None` when no matrix was retained.
    pub fn condest_health(&self) -> Option<f64> {
        let estimate = self.condest()?;
        rlckit_telemetry::gauge_set("solver.condest", estimate);
        rlckit_telemetry::check_metric(
            self.factor_site(),
            "condest",
            estimate,
            condition::CONDEST_WARN,
            condition::CONDEST_ERROR,
        );
        Some(estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiagonal(n: usize) -> CscMatrix<f64> {
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 4.0));
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0));
                triplets.push((i + 1, i, -1.0));
            }
        }
        CscMatrix::from_triplets(n, &triplets)
    }

    fn asymmetric_tridiagonal(n: usize) -> CscMatrix<f64> {
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 4.0 + 0.1 * i as f64));
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0));
                triplets.push((i + 1, i, 2.0));
            }
        }
        CscMatrix::from_triplets(n, &triplets)
    }

    #[test]
    fn auto_resolves_to_the_sparse_kernel() {
        assert_eq!(SolverBackend::Auto.resolve(), ResolvedBackend::Sparse);
        assert_eq!(SolverBackend::Sparse.resolve(), ResolvedBackend::Sparse);
        assert_eq!(SolverBackend::Dense.resolve(), ResolvedBackend::Dense);
    }

    #[test]
    fn forced_backends_are_respected() {
        let a = tridiagonal(20);
        let dense = FactoredSolver::factor_csc(&a, SolverBackend::Dense).unwrap();
        let sparse = FactoredSolver::factor_csc(&a, SolverBackend::Sparse).unwrap();
        assert_eq!(dense.backend(), ResolvedBackend::Dense);
        assert_eq!(sparse.backend(), ResolvedBackend::Sparse);
        assert_eq!(dense.backend().name(), "dense");
        assert_eq!(sparse.backend().name(), "sparse");
        assert_eq!(dense.dim(), 20);
        assert_eq!(sparse.dim(), 20);
    }

    #[test]
    fn backends_agree_on_the_solution() {
        let a = tridiagonal(50);
        let b: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).cos()).collect();
        let dense = FactoredSolver::factor_csc(&a, SolverBackend::Dense).unwrap().solve(&b);
        let sparse = FactoredSolver::factor_csc(&a, SolverBackend::Sparse).unwrap().solve(&b);
        let auto = FactoredSolver::factor_csc(&a, SolverBackend::Auto).unwrap().solve(&b);
        for ((d, sp), au) in dense.iter().zip(sparse.iter()).zip(auto.iter()) {
            assert!((d - sp).abs() < 1e-13);
            assert_eq!(sp.to_bits(), au.to_bits(), "auto must run the sparse kernel");
        }
    }

    #[test]
    fn csc_input_dispatches_each_backend() {
        let a = tridiagonal(30);
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut solutions = Vec::new();
        for (backend, resolved) in [
            (SolverBackend::Dense, ResolvedBackend::Dense),
            (SolverBackend::Sparse, ResolvedBackend::Sparse),
            (SolverBackend::Auto, ResolvedBackend::Sparse),
        ] {
            let f = FactoredSolver::factor_csc(&a, backend).unwrap();
            assert_eq!(f.backend(), resolved);
            solutions.push(f.solve(&b));
        }
        for s in &solutions[1..] {
            for (u, v) in solutions[0].iter().zip(s.iter()) {
                assert!((u - v).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn default_backend_is_auto() {
        assert_eq!(SolverBackend::default(), SolverBackend::Auto);
    }

    #[test]
    fn solve_transpose_agrees_with_the_transposed_dense_system() {
        let a = asymmetric_tridiagonal(40);
        let dense = a.to_dense();
        let mut at = crate::matrix::Matrix::zeros(40, 40);
        for i in 0..40 {
            for j in 0..40 {
                at[(j, i)] = dense[(i, j)];
            }
        }
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.17).sin()).collect();
        let reference = crate::lu::solve(&at, &b).unwrap();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let f = FactoredSolver::factor_csc(&a, backend).unwrap();
            let x = f.solve_transpose(&b);
            for (u, v) in x.iter().zip(reference.iter()) {
                assert!((u - v).abs() < 1e-12, "{backend:?}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn nothing_is_retained_while_profiling_is_disabled() {
        let _serial = rlckit_telemetry::test_support::lock();
        let _off = rlckit_telemetry::Collector::disable();
        let a = tridiagonal(10);
        let f = FactoredSolver::factor_csc(&a, SolverBackend::Auto).unwrap();
        assert!(f.condest().is_none());
        assert!(f.condest_health().is_none());
    }

    #[test]
    fn profiling_retains_the_matrix_and_records_backward_error_and_condest() {
        let _serial = rlckit_telemetry::test_support::lock();
        let collector = rlckit_telemetry::Collector::enable();
        rlckit_telemetry::Collector::reset();
        let csc = asymmetric_tridiagonal(30);
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.11).cos()).collect();
        // Exact condition number for the accuracy check.
        let dense = csc.to_dense();
        let f_exact = crate::lu::LuFactor::new(&dense).unwrap();
        let exact = {
            let n = dense.rows();
            let mut inv_norm = 0.0_f64;
            for j in 0..n {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                inv_norm = inv_norm.max(f_exact.solve(&e).iter().map(|v| v.abs()).sum::<f64>());
            }
            let norm_one = (0..n)
                .map(|j| (0..n).map(|i| dense[(i, j)].abs()).sum::<f64>())
                .fold(0.0, f64::max);
            norm_one * inv_norm
        };
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let f = FactoredSolver::factor_csc(&csc, backend).unwrap();
            let _x = f.solve(&b);
            let est = f.condest_health().expect("matrix retained, condest available");
            assert!(est <= exact * (1.0 + 1e-12), "estimate {est} above exact {exact}");
            assert!(est >= exact / 10.0, "estimate {est} below 10x band of exact {exact}");
        }
        let snapshot = rlckit_telemetry::Collector::snapshot();
        for site in ["dense.solve", "sparse.solve"] {
            let stat = snapshot
                .health
                .site(site, "backward_error")
                .unwrap_or_else(|| panic!("missing backward_error at {site}"));
            assert_eq!(stat.severity, rlckit_telemetry::Severity::Info, "{site}");
            assert!(stat.worst_value < 1e-12, "{site}: backward error {}", stat.worst_value);
        }
        assert!(snapshot.health.site("dense.factor", "condest").is_some());
        assert!(snapshot.health.site("sparse.factor", "condest").is_some());
        assert!(snapshot.gauge("solver.condest").is_some());
        drop(collector);
    }
}
