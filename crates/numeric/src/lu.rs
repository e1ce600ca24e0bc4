//! LU factorisation with partial pivoting and linear-system solving.
//!
//! The MNA matrix of a linear circuit with a fixed timestep is constant, so
//! the transient solver factorises once and performs only forward/backward
//! substitution at every timestep. [`LuFactor`] keeps the factors and the
//! permutation around for exactly that reuse pattern.

use std::error::Error;
use std::fmt;

use crate::matrix::{Matrix, Scalar};

/// Error returned when a matrix cannot be factorised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactorizeError {
    /// The matrix is not square.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A pivot smaller than the singularity threshold was encountered.
    Singular {
        /// Column at which elimination broke down.
        column: usize,
    },
}

impl fmt::Display for FactorizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotSquare { rows, cols } => {
                write!(f, "cannot factorise a non-square {rows}x{cols} matrix")
            }
            Self::Singular { column } => {
                write!(f, "matrix is singular to working precision at column {column}")
            }
        }
    }
}

impl Error for FactorizeError {}

/// An LU factorisation `P·A = L·U` with partial pivoting.
#[derive(Debug, Clone)]
pub struct LuFactor<T: Scalar = f64> {
    lu: Matrix<T>,
    perm: Vec<usize>,
}

/// Pivot magnitudes below this threshold are treated as singular — shared by
/// the dense and sparse kernels so their singularity behaviour can never
/// desynchronise.
pub(crate) const SINGULARITY_THRESHOLD: f64 = 1e-300;

impl<T: Scalar> LuFactor<T> {
    /// Factorises a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError::NotSquare`] for rectangular input and
    /// [`FactorizeError::Singular`] if elimination encounters a pivot that is
    /// numerically zero.
    pub fn new(a: &Matrix<T>) -> Result<Self, FactorizeError> {
        let _span = rlckit_telemetry::span("dense.factor");
        if !a.is_square() {
            return Err(FactorizeError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: pick the row with the largest magnitude in column k.
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].modulus();
            for i in (k + 1)..n {
                let mag = lu[(i, k)].modulus();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if !(pivot_mag > SINGULARITY_THRESHOLD) {
                return Err(FactorizeError::Singular { column: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let sub = factor * lu[(k, j)];
                    let cur = lu[(i, j)];
                    lu[(i, j)] = cur - sub;
                }
            }
        }

        // Health check, only under an active profiler: ε·max|uᵢᵢ|/min|uᵢᵢ|
        // is a cheap lower-bound proxy for ε·cond(A) — near 1 the factors
        // carry no correct digits.
        if rlckit_telemetry::enabled() {
            let mut max_d = 0.0_f64;
            let mut min_d = f64::INFINITY;
            for i in 0..n {
                let m = lu[(i, i)].modulus();
                max_d = max_d.max(m);
                min_d = min_d.min(m);
            }
            rlckit_telemetry::check_metric(
                "dense.factor",
                "near_singularity",
                f64::EPSILON * max_d / min_d,
                crate::condition::NEAR_SINGULAR_WARN,
                crate::condition::NEAR_SINGULAR_ERROR,
            );
        }

        Ok(Self { lu, perm })
    }

    /// Dimension of the factorised matrix.
    pub(crate) fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = vec![T::zero(); self.dim()];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer, allocating nothing.
    ///
    /// Forward substitution writes `y = L⁻¹·P·b` into `x`, and backward
    /// substitution then overwrites it with `U⁻¹·y` from the bottom row up,
    /// so one buffer serves both sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` does not equal the matrix dimension.
    pub(crate) fn solve_into(&self, b: &[T], x: &mut [T]) {
        let _span = rlckit_telemetry::span("dense.solve");
        let n = self.dim();
        assert_eq!(b.len(), n, "right-hand side length must equal matrix dimension");
        assert_eq!(x.len(), n, "solution length must equal matrix dimension");

        // Apply the permutation, then forward substitution (L has unit diagonal).
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            for (j, &yj) in x.iter().enumerate().take(i) {
                acc = acc - self.lu[(i, j)] * yj;
            }
            x[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                acc = acc - self.lu[(i, j)] * xj;
            }
            x[i] = acc / self.lu[(i, i)];
        }
    }

    /// Solves the transposed system `Aᵀ·x = b` using the same stored factors.
    ///
    /// With `P·A = L·U` the transpose factors as `Aᵀ = Uᵀ·Lᵀ·P`, so the
    /// substitution order flips: a forward sweep with `Uᵀ` (lower
    /// triangular), a backward sweep with the unit-diagonal `Lᵀ`, then the
    /// permutation applied to the *output*. One factorisation thus serves
    /// both orientations — which is what the Hager–Higham condition
    /// estimator ([`crate::condition::invnorm1_estimate`]) needs.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the matrix dimension.
    pub(crate) fn solve_transpose(&self, b: &[T]) -> Vec<T> {
        let n = self.dim();
        assert_eq!(b.len(), n, "right-hand side length must equal matrix dimension");

        // Forward substitution with Uᵀ (columns of U read as rows).
        let mut y = vec![T::zero(); n];
        for i in 0..n {
            let mut acc = b[i];
            for (j, &yj) in y.iter().enumerate().take(i) {
                acc = acc - self.lu[(j, i)] * yj;
            }
            y[i] = acc / self.lu[(i, i)];
        }
        // Backward substitution with the unit-diagonal Lᵀ.
        let mut w = vec![T::zero(); n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for (j, &wj) in w.iter().enumerate().skip(i + 1) {
                acc = acc - self.lu[(j, i)] * wj;
            }
            w[i] = acc;
        }
        // Undo the row permutation on the output side: x = Pᵀ·w.
        let mut x = vec![T::zero(); n];
        for (i, &wi) in w.iter().enumerate() {
            x[self.perm[i]] = wi;
        }
        x
    }
}

/// One-shot convenience: factorise `a` and solve `a·x = b`.
///
/// # Errors
///
/// Propagates [`FactorizeError`] from the factorisation.
pub fn solve<T: Scalar>(a: &Matrix<T>, b: &[T]) -> Result<Vec<T>, FactorizeError> {
    Ok(LuFactor::new(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    #[test]
    fn solves_small_real_system() {
        let a = Matrix::from_rows(3, 3, vec![2.0, 1.0, -1.0, -3.0, -1.0, 2.0, -2.0, 1.0, 2.0]);
        let b = [8.0, -11.0, -3.0];
        let x = solve(&a, &b).unwrap();
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(expected.iter()) {
            assert!((xi - ei).abs() < 1e-12);
        }
    }

    #[test]
    fn reuses_factorisation_for_multiple_rhs() {
        let a = Matrix::from_rows(2, 2, vec![4.0, 3.0, 6.0, 3.0]);
        let f = LuFactor::new(&a).unwrap();
        assert_eq!(f.dim(), 2);
        let x1 = f.solve(&[10.0, 12.0]);
        let x2 = f.solve(&[7.0, 9.0]);
        // Verify A·x = b for both.
        for (x, b) in [(&x1, [10.0, 12.0]), (&x2, [7.0, 9.0])] {
            let r = a.mul_vec(x);
            assert!((r[0] - b[0]).abs() < 1e-12);
            assert!((r[1] - b[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        match LuFactor::new(&a) {
            Err(FactorizeError::Singular { column }) => assert_eq!(column, 1),
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn non_square_is_reported() {
        let a = Matrix::<f64>::zeros(2, 3);
        match LuFactor::new(&a) {
            Err(FactorizeError::NotSquare { rows, cols }) => {
                assert_eq!((rows, cols), (2, 3));
            }
            other => panic!("expected not-square error, got {other:?}"),
        }
        assert!(FactorizeError::NotSquare { rows: 2, cols: 3 }.to_string().contains("2x3"));
    }

    #[test]
    fn complex_system() {
        // (1+j)x + y = 2 ; x - y = j  =>  add: (2+j)x = 2 + j  => x = 1, y = 1 - j.
        let a = Matrix::from_rows(
            2,
            2,
            vec![Complex::new(1.0, 1.0), Complex::ONE, Complex::ONE, -Complex::ONE],
        );
        let b = [Complex::new(2.0, 0.0), Complex::new(0.0, 1.0)];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - Complex::ONE).abs() < 1e-12);
        assert!((x[1] - Complex::new(1.0, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn larger_random_like_system_residual_is_small() {
        // Deterministic pseudo-random fill via a linear congruential generator.
        let n = 30;
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        let mut a = Matrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            // Diagonal dominance keeps the system well-conditioned.
            a[(i, i)] += 10.0;
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve(&a, &b).unwrap();
        let r = a.mul_vec(&x);
        let max_resid = r.iter().zip(b.iter()).map(|(ri, bi)| (ri - bi).abs()).fold(0.0, f64::max);
        assert!(max_resid < 1e-10, "residual too large: {max_resid}");
    }

    #[test]
    #[should_panic]
    fn solve_with_wrong_rhs_length_panics() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let f = LuFactor::new(&a).unwrap();
        let _ = f.solve(&[1.0]);
    }
}
