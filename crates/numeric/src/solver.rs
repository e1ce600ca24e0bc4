//! Pluggable linear-solver backends: dense, bandwidth-aware or sparse LU.
//!
//! Every analysis in the circuit simulator reduces to "factorise a constant
//! matrix once, then solve against many right-hand sides". This module makes
//! the factorisation kernel a policy choice:
//!
//! * [`SolverBackend::Dense`] — the classic `O(n³)`/`O(n²)` path of
//!   [`crate::lu::LuFactor`], always applicable;
//! * [`SolverBackend::Banded`] — the `O(n·b²)`/`O(n·b)` path of
//!   [`crate::banded::BandedLuFactor`], a large win whenever the matrix is
//!   narrowly banded (every RLC-ladder MNA system is, after reverse
//!   Cuthill–McKee reordering);
//! * [`SolverBackend::Sparse`] — the fill-reducing
//!   [`crate::sparse::SparseLuFactor`], the general-purpose kernel for
//!   matrices that are sparse but not banded (branching RLC *trees* have
//!   `Ω(n/log n)` bandwidth under any ordering, yet factor with `O(n)` fill
//!   under a minimum-degree order);
//! * [`SolverBackend::Auto`] — picks among them from the matrix dimension
//!   and bandwidths, so callers get the right kernel without opting in.
//!
//! [`FactoredSolver`] is the backend-erased factorisation: callers assemble a
//! [`BandedMatrix`] (a degenerate full band is fine) or a [`CscMatrix`], call
//! [`FactoredSolver::factor`] / [`FactoredSolver::factor_csc`], and solve
//! without caring which kernel ran.

use crate::banded::{BandedLuFactor, BandedMatrix};
use crate::condition;
use crate::lu::{FactorizeError, LuFactor};
use crate::matrix::Scalar;
use crate::sparse::{CscMatrix, SparseLuFactor};

/// Widest factored band (`2·kl + ku + 1`) the automatic policy still hands to
/// the banded kernel; anything wider (but still under the full dimension)
/// goes to the sparse kernel instead.
pub const AUTO_BAND_LIMIT: usize = 64;

/// Which LU kernel to use for a factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Choose automatically from the matrix dimension and bandwidths.
    #[default]
    Auto,
    /// Force the dense kernel.
    Dense,
    /// Force the bandwidth-aware kernel.
    Banded,
    /// Force the fill-reducing sparse kernel.
    Sparse,
}

impl SolverBackend {
    /// Resolves `Auto` against a concrete matrix shape.
    ///
    /// The banded kernel stores `kl + min(kl+ku, n-1) + 1` diagonals, so it
    /// only pays off while that stays well below the full dimension; a narrow
    /// band (≤ [`AUTO_BAND_LIMIT`]) takes the banded kernel, a wide band on a
    /// large system takes the sparse kernel, and everything else — tiny
    /// systems and genuinely full matrices — takes the dense kernel.
    pub fn resolve(self, n: usize, kl: usize, ku: usize) -> ResolvedBackend {
        match self {
            Self::Dense => ResolvedBackend::Dense,
            Self::Banded => ResolvedBackend::Banded,
            Self::Sparse => ResolvedBackend::Sparse,
            Self::Auto => {
                let factored_width = 2 * kl + ku + 1;
                if factored_width >= n {
                    ResolvedBackend::Dense
                } else if factored_width <= AUTO_BAND_LIMIT {
                    ResolvedBackend::Banded
                } else {
                    ResolvedBackend::Sparse
                }
            }
        }
    }
}

/// The concrete kernel chosen after resolving [`SolverBackend::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Dense LU with partial pivoting.
    Dense,
    /// Banded LU with partial pivoting.
    Banded,
    /// Sparse LU with fill-reducing ordering and partial pivoting.
    Sparse,
}

impl ResolvedBackend {
    /// Human-readable kernel name (used in reports and examples).
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Banded => "banded",
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
    Banded(BandedLuFactor<T>),
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
    fn new(a: CscMatrix<T>) -> Self {
        let norm_inf = a.norm_inf();
        let norm_one = a.norm_one();
        Self { a, norm_inf, norm_one }
    }

    /// Retains `a` only while the profiler is enabled.
    fn when_enabled(a: &CscMatrix<T>) -> Option<Self> {
        rlckit_telemetry::enabled().then(|| Self::new(a.clone()))
    }
}

impl<T: Scalar> FactoredSolver<T> {
    /// Factorises `a` with the requested backend.
    ///
    /// The input is band-form; a matrix with no useful structure is simply a
    /// full band, which the dense kernel receives via
    /// [`BandedMatrix::to_dense`] and the sparse kernel via
    /// [`CscMatrix::from_banded`].
    ///
    /// # Errors
    ///
    /// Propagates [`FactorizeError`] from the chosen kernel.
    pub fn factor(a: &BandedMatrix<T>, backend: SolverBackend) -> Result<Self, FactorizeError> {
        let resolved = backend.resolve(a.dim(), a.lower_bandwidth(), a.upper_bandwidth());
        let kernel = match resolved {
            ResolvedBackend::Dense => FactorKernel::Dense(LuFactor::new(&a.to_dense())?),
            ResolvedBackend::Banded => FactorKernel::Banded(BandedLuFactor::new(a)?),
            ResolvedBackend::Sparse => {
                FactorKernel::Sparse(SparseLuFactor::factor_auto(&CscMatrix::from_banded(a))?)
            }
        };
        let retained =
            rlckit_telemetry::enabled().then(|| RetainedMatrix::new(CscMatrix::from_banded(a)));
        Ok(Self { kernel, retained })
    }

    /// Factorises a compressed-sparse-column matrix with the requested
    /// backend (`Auto` resolves against the pattern's bandwidth).
    ///
    /// # Errors
    ///
    /// Propagates [`FactorizeError`] from the chosen kernel.
    pub fn factor_csc(a: &CscMatrix<T>, backend: SolverBackend) -> Result<Self, FactorizeError> {
        let (mut kl, mut ku) = (0usize, 0usize);
        for (r, c, _) in a.triplets() {
            if r > c {
                kl = kl.max(r - c);
            } else {
                ku = ku.max(c - r);
            }
        }
        let resolved = backend.resolve(a.dim(), kl, ku);
        let kernel = match resolved {
            ResolvedBackend::Sparse => FactorKernel::Sparse(SparseLuFactor::factor_auto(a)?),
            ResolvedBackend::Dense => FactorKernel::Dense(LuFactor::new(&a.to_dense())?),
            ResolvedBackend::Banded => {
                let mut band = BandedMatrix::zeros(a.dim(), kl, ku);
                for (r, c, v) in a.triplets() {
                    band.set(r, c, v);
                }
                FactorKernel::Banded(BandedLuFactor::new(&band)?)
            }
        };
        Ok(Self { kernel, retained: RetainedMatrix::when_enabled(a) })
    }

    /// Wraps an already-computed sparse factorisation (used by callers that
    /// manage their own [`crate::sparse::SparseSymbolic`] reuse).
    ///
    /// No matrix is retained, so the health monitors stay silent on this
    /// solver; prefer [`FactoredSolver::from_sparse_with_matrix`] when the
    /// assembled matrix is still in scope.
    pub fn from_sparse(factor: SparseLuFactor<T>) -> Self {
        Self { kernel: FactorKernel::Sparse(factor), retained: None }
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
            FactorKernel::Banded(f) => f.solve(b),
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
            FactorKernel::Banded(_) => "banded.solve",
            FactorKernel::Sparse(_) => "sparse.solve",
        }
    }

    /// Health-event site for this solver's factorisation path.
    fn factor_site(&self) -> &'static str {
        match self.kernel {
            FactorKernel::Dense(_) => "dense.factor",
            FactorKernel::Banded(_) => "banded.factor",
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
            FactorKernel::Banded(f) => f.solve_into(b, x),
            FactorKernel::Sparse(f) => f.solve_into(b, x, work),
        }
        self.emit_backward_error(b, x);
    }

    /// Solves `Aᵀ·x = b` with the stored factors (no re-factorisation).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the matrix dimension.
    pub fn solve_transpose(&self, b: &[T]) -> Vec<T> {
        match &self.kernel {
            FactorKernel::Dense(f) => f.solve_transpose(b),
            FactorKernel::Banded(f) => f.solve_transpose(b),
            FactorKernel::Sparse(f) => f.solve_transpose(b),
        }
    }

    /// Solves `A·X = B` for many right-hand sides with the one stored
    /// factorisation.
    ///
    /// The sparse kernel runs its blocked substitution
    /// ([`SparseLuFactor::solve_many`] — each factor column applied to every
    /// right-hand side while hot); the dense and banded kernels, whose
    /// factors are contiguous anyway, simply loop.
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side's length differs from the dimension.
    pub fn solve_many(&self, rhs: &[Vec<T>]) -> Vec<Vec<T>> {
        match &self.kernel {
            FactorKernel::Sparse(f) => {
                let xs = f.solve_many(rhs);
                for (b, x) in rhs.iter().zip(xs.iter()) {
                    self.emit_backward_error(b, x);
                }
                xs
            }
            _ => rhs.iter().map(|b| self.solve(b)).collect(),
        }
    }

    /// Re-derives the factors for a matrix with the same sparsity pattern as
    /// the one originally factored, staying on the same kernel.
    ///
    /// On the sparse kernel this is the value-only warm path
    /// ([`SparseLuFactor::refactor`]): frozen pivot sequence and fill
    /// pattern, no symbolic work, no allocation. The dense and banded
    /// kernels have no symbolic phase to reuse, so they factor afresh.
    ///
    /// # Errors
    ///
    /// Propagates [`FactorizeError`] from the kernel; on an error the
    /// previous factors must be considered lost.
    ///
    /// # Panics
    ///
    /// Panics (sparse kernel) if `a` has an entry outside the originally
    /// factored fill pattern.
    pub fn refactor_csc(&mut self, a: &CscMatrix<T>) -> Result<(), FactorizeError> {
        match &mut self.kernel {
            FactorKernel::Sparse(f) => f.refactor(a)?,
            FactorKernel::Dense(_) => *self = Self::factor_csc(a, SolverBackend::Dense)?,
            FactorKernel::Banded(_) => *self = Self::factor_csc(a, SolverBackend::Banded)?,
        }
        // Refresh (or drop) the retained copy so health metrics always refer
        // to the values currently factored.
        self.retained = RetainedMatrix::when_enabled(a);
        Ok(())
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        match &self.kernel {
            FactorKernel::Dense(f) => f.dim(),
            FactorKernel::Banded(f) => f.dim(),
            FactorKernel::Sparse(f) => f.dim(),
        }
    }

    /// Which kernel this factorisation uses.
    pub fn backend(&self) -> ResolvedBackend {
        match self.kernel {
            FactorKernel::Dense(_) => ResolvedBackend::Dense,
            FactorKernel::Banded(_) => ResolvedBackend::Banded,
            FactorKernel::Sparse(_) => ResolvedBackend::Sparse,
        }
    }

    /// Whether a matrix copy was retained at factor time (i.e. whether the
    /// health monitors can observe this solver).
    pub fn has_retained_matrix(&self) -> bool {
        self.retained.is_some()
    }
}

impl FactoredSolver<f64> {
    /// Hager–Higham estimate of the 1-norm condition number `κ₁(A) =
    /// ‖A‖₁·‖A⁻¹‖₁`, reusing the stored factors (a handful of extra solves,
    /// no re-factorisation).
    ///
    /// Returns `None` when no matrix was retained at factor time (profiler
    /// disabled, or [`FactoredSolver::from_sparse`] construction). The
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

    fn tridiagonal(n: usize) -> BandedMatrix<f64> {
        let mut a = BandedMatrix::zeros(n, 1, 1);
        for i in 0..n {
            a.set(i, i, 4.0);
            if i + 1 < n {
                a.set(i, i + 1, -1.0);
                a.set(i + 1, i, -1.0);
            }
        }
        a
    }

    #[test]
    fn auto_picks_banded_for_narrow_bands() {
        assert_eq!(SolverBackend::Auto.resolve(100, 2, 2), ResolvedBackend::Banded);
        assert_eq!(SolverBackend::Auto.resolve(100, 99, 99), ResolvedBackend::Dense);
        // Tiny systems: the full band is not narrower than the matrix.
        assert_eq!(SolverBackend::Auto.resolve(3, 1, 1), ResolvedBackend::Dense);
    }

    #[test]
    fn auto_picks_sparse_for_wide_bands_on_large_systems() {
        // A tree-shaped MNA pattern: bandwidth grows with the system, so the
        // factored width blows past the banded limit long before it reaches
        // the dimension.
        assert_eq!(SolverBackend::Auto.resolve(1000, 100, 100), ResolvedBackend::Sparse);
        // Just at the limit stays banded.
        let w = (AUTO_BAND_LIMIT - 1) / 3;
        assert_eq!(SolverBackend::Auto.resolve(1000, w, w), ResolvedBackend::Banded);
    }

    #[test]
    fn forced_backends_are_respected() {
        let a = tridiagonal(20);
        let dense = FactoredSolver::factor(&a, SolverBackend::Dense).unwrap();
        let banded = FactoredSolver::factor(&a, SolverBackend::Banded).unwrap();
        let sparse = FactoredSolver::factor(&a, SolverBackend::Sparse).unwrap();
        assert_eq!(dense.backend(), ResolvedBackend::Dense);
        assert_eq!(banded.backend(), ResolvedBackend::Banded);
        assert_eq!(sparse.backend(), ResolvedBackend::Sparse);
        assert_eq!(dense.backend().name(), "dense");
        assert_eq!(banded.backend().name(), "banded");
        assert_eq!(sparse.backend().name(), "sparse");
        assert_eq!(dense.dim(), 20);
        assert_eq!(banded.dim(), 20);
        assert_eq!(sparse.dim(), 20);
    }

    #[test]
    fn backends_agree_on_the_solution() {
        let a = tridiagonal(50);
        let b: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).cos()).collect();
        let dense = FactoredSolver::factor(&a, SolverBackend::Dense).unwrap().solve(&b);
        let banded = FactoredSolver::factor(&a, SolverBackend::Banded).unwrap().solve(&b);
        let sparse = FactoredSolver::factor(&a, SolverBackend::Sparse).unwrap().solve(&b);
        let auto = FactoredSolver::factor(&a, SolverBackend::Auto).unwrap().solve(&b);
        for (((d, bd), sp), au) in
            dense.iter().zip(banded.iter()).zip(sparse.iter()).zip(auto.iter())
        {
            assert!((d - bd).abs() < 1e-13);
            assert!((d - sp).abs() < 1e-13);
            assert!((d - au).abs() < 1e-13);
        }
    }

    #[test]
    fn csc_input_dispatches_each_backend() {
        let a = CscMatrix::from_banded(&tridiagonal(30));
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut solutions = Vec::new();
        for (backend, resolved) in [
            (SolverBackend::Dense, ResolvedBackend::Dense),
            (SolverBackend::Banded, ResolvedBackend::Banded),
            (SolverBackend::Sparse, ResolvedBackend::Sparse),
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
        // Auto on a tridiagonal pattern resolves to banded.
        let auto = FactoredSolver::factor_csc(&a, SolverBackend::Auto).unwrap();
        assert_eq!(auto.backend(), ResolvedBackend::Banded);
        // from_sparse wraps a hand-built factorisation.
        let wrapped =
            FactoredSolver::from_sparse(crate::sparse::SparseLuFactor::factor_auto(&a).unwrap());
        assert_eq!(wrapped.backend(), ResolvedBackend::Sparse);
    }

    #[test]
    fn default_backend_is_auto() {
        assert_eq!(SolverBackend::default(), SolverBackend::Auto);
    }

    #[test]
    fn solve_many_matches_solve_on_every_backend() {
        let a = CscMatrix::from_banded(&tridiagonal(25));
        let rhs: Vec<Vec<f64>> =
            (0..4).map(|k| (0..25).map(|i| ((i + k) as f64 * 0.3).sin()).collect()).collect();
        for backend in [SolverBackend::Dense, SolverBackend::Banded, SolverBackend::Sparse] {
            let f = FactoredSolver::factor_csc(&a, backend).unwrap();
            let many = f.solve_many(&rhs);
            for (b, x) in rhs.iter().zip(many.iter()) {
                let one = f.solve(b);
                for (m, o) in x.iter().zip(one.iter()) {
                    assert!((m - o).abs() < 1e-14);
                }
            }
        }
    }

    fn asymmetric_tridiagonal(n: usize) -> BandedMatrix<f64> {
        let mut a = BandedMatrix::zeros(n, 1, 1);
        for i in 0..n {
            a.set(i, i, 4.0 + 0.1 * i as f64);
            if i + 1 < n {
                a.set(i, i + 1, -1.0);
                a.set(i + 1, i, 2.0);
            }
        }
        a
    }

    #[test]
    fn solve_transpose_agrees_with_the_transposed_dense_system() {
        let band = asymmetric_tridiagonal(40);
        let at = band.to_dense().transpose();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.17).sin()).collect();
        let reference = crate::lu::solve(&at, &b).unwrap();
        for backend in [SolverBackend::Dense, SolverBackend::Banded, SolverBackend::Sparse] {
            let f = FactoredSolver::factor(&band, backend).unwrap();
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
        let f = FactoredSolver::factor(&a, SolverBackend::Auto).unwrap();
        assert!(!f.has_retained_matrix());
        assert!(f.condest().is_none());
        assert!(f.condest_health().is_none());
    }

    #[test]
    fn profiling_retains_the_matrix_and_records_backward_error_and_condest() {
        let _serial = rlckit_telemetry::test_support::lock();
        let collector = rlckit_telemetry::Collector::enable();
        rlckit_telemetry::Collector::reset();
        let a = asymmetric_tridiagonal(30);
        let csc = CscMatrix::from_banded(&a);
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.11).cos()).collect();
        // Exact condition number for the accuracy check.
        let dense = a.to_dense();
        let f_exact = crate::lu::LuFactor::new(&dense).unwrap();
        let exact = {
            let n = dense.rows();
            let mut inv_norm = 0.0_f64;
            for j in 0..n {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                inv_norm = inv_norm.max(f_exact.solve(&e).iter().map(|v| v.abs()).sum::<f64>());
            }
            dense.norm_one() * inv_norm
        };
        for backend in [SolverBackend::Dense, SolverBackend::Banded, SolverBackend::Sparse] {
            let f = FactoredSolver::factor_csc(&csc, backend).unwrap();
            assert!(f.has_retained_matrix());
            let _x = f.solve(&b);
            let est = f.condest_health().expect("matrix retained, condest available");
            assert!(est <= exact * (1.0 + 1e-12), "estimate {est} above exact {exact}");
            assert!(est >= exact / 10.0, "estimate {est} below 10x band of exact {exact}");
        }
        let snapshot = rlckit_telemetry::Collector::snapshot();
        for site in ["dense.solve", "banded.solve", "sparse.solve"] {
            let stat = snapshot
                .health
                .site(site, "backward_error")
                .unwrap_or_else(|| panic!("missing backward_error at {site}"));
            assert_eq!(stat.severity, rlckit_telemetry::Severity::Info, "{site}");
            assert!(stat.worst_value < 1e-12, "{site}: backward error {}", stat.worst_value);
        }
        assert!(snapshot.health.site("dense.factor", "condest").is_some());
        assert!(snapshot.gauge("solver.condest").is_some());
        drop(collector);
    }

    #[test]
    fn refactor_csc_stays_on_kernel_and_tracks_new_values() {
        let a = CscMatrix::from_banded(&tridiagonal(30));
        let scaled = CscMatrix::from_triplets(
            30,
            &a.triplets().map(|(r, c, v)| (r, c, 1.5 * v)).collect::<Vec<_>>(),
        );
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.2).cos()).collect();
        for backend in [SolverBackend::Dense, SolverBackend::Banded, SolverBackend::Sparse] {
            let mut f = FactoredSolver::factor_csc(&a, backend).unwrap();
            let kernel = f.backend();
            f.refactor_csc(&scaled).unwrap();
            assert_eq!(f.backend(), kernel, "refactor must not change kernel");
            let warm = f.solve(&b);
            let fresh = FactoredSolver::factor_csc(&scaled, backend).unwrap().solve(&b);
            for (w, fr) in warm.iter().zip(fresh.iter()) {
                assert!((w - fr).abs() < 1e-12);
            }
        }
    }
}
