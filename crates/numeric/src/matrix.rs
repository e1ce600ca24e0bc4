//! Dense row-major matrices over real or complex scalars.
//!
//! The circuit simulator builds modified-nodal-analysis systems that are small
//! (a few hundred unknowns for a finely segmented line), so a dense
//! representation with LU factorisation is simple and entirely adequate.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::complex::Complex;

/// Scalar types a [`Matrix`] can hold: `f64` or [`Complex`].
///
/// The trait is sealed in practice (only the two impls below exist); it gives
/// the LU factorisation a single generic implementation.
pub trait Scalar:
    Copy
    + PartialEq
    + fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Magnitude used for pivot selection.
    fn modulus(self) -> f64;
    /// Returns `true` if the value is finite.
    fn is_finite_scalar(self) -> bool;
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

impl Scalar for Complex {
    #[inline]
    fn zero() -> Self {
        Complex::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex::ONE
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_finite_scalar(self) -> bool {
        self.is_finite()
    }
}

/// A dense `rows × cols` matrix stored in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self { rows, cols, data: vec![T::zero(); rows * cols] }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Adds `value` to the element at `(row, col)` — the "stamping" operation
    /// used when assembling MNA matrices.
    #[inline]
    pub fn add_at(&mut self, row: usize, col: usize, value: T) {
        let cur = self[(row, col)];
        self[(row, col)] = cur + value;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        let mut y = vec![T::zero(); self.rows];
        for i in 0..self.rows {
            let mut acc = T::zero();
            for j in 0..self.cols {
                acc = acc + self[(i, j)] * x[j];
            }
            y[i] = acc;
        }
        y
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite_scalar())
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl<T: Scalar> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:?}", self[(i, j)])?;
                if j + 1 < self.cols {
                    write!(f, "  ")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::<f64>::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(!m.is_square());
        m[(0, 1)] = 5.0;
        m[(1, 2)] = -2.0;
        assert_eq!(m[(1, 2)], -2.0);
        m.add_at(0, 1, 1.5);
        assert_eq!(m[(0, 1)], 6.5);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    #[should_panic]
    fn zero_dimension_panics() {
        let _ = Matrix::<f64>::zeros(0, 3);
    }

    #[test]
    fn identity_and_multiplication() {
        let a = Matrix::from_rows(3, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]);
        let x = vec![1.0, 0.0, -1.0];
        let y = a.mul_vec(&x);
        assert_eq!(y, vec![-2.0, -2.0, -3.0]);
        let i3 = Matrix::from_rows(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(i3.mul_vec(&x), x);
    }

    #[test]
    fn complex_matrices() {
        let j = Complex::new(0.0, 1.0);
        let a = Matrix::from_rows(2, 2, vec![Complex::ONE, j, -j, Complex::ONE]);
        let v = a.mul_vec(&[Complex::ONE, Complex::ONE]);
        assert_eq!(v[0], Complex::new(1.0, 1.0));
        assert_eq!(v[1], Complex::new(1.0, -1.0));
        assert!(a.is_finite());
    }

    #[test]
    fn finiteness_detection() {
        let mut m = Matrix::<f64>::zeros(2, 2);
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn display_runs() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let s = format!("{a}");
        assert!(s.contains("1.0"));
        assert!(s.lines().count() >= 2);
    }
}
