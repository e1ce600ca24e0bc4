//! Banded matrices and bandwidth-aware LU factorisation.
//!
//! A matrix has lower bandwidth `kl` and upper bandwidth `ku` when
//! `a[i][j] = 0` for `j < i - kl` or `j > i + ku`. The MNA systems of
//! RLC-ladder circuits are exactly of this shape once their unknowns are
//! ordered along the line (see [`crate::ordering`]), with `kl`, `ku` small
//! constants independent of the line length.
//!
//! [`BandedMatrix`] stores only the `kl + ku + 1` diagonals, so assembly is
//! `O(n·b)` memory instead of `O(n²)`. [`BandedLuFactor`] implements the
//! LAPACK `dgbtrf`/`dgbtrs` algorithm (LU with partial pivoting confined to
//! the band): factorisation costs `O(n·kl·(kl+ku))` and each solve
//! `O(n·(kl+ku))`, against `O(n³)` / `O(n²)` for the dense path. Partial
//! pivoting inside the band is *full* partial pivoting, because every nonzero
//! of column `j` lies within `kl` rows of the diagonal by definition — the
//! factorisation is exactly as stable as the dense one. Row interchanges fill
//! in up to `kl` extra superdiagonals, which the factor storage reserves.

use crate::lu::{FactorizeError, SINGULARITY_THRESHOLD};
use crate::matrix::{Matrix, Scalar};

/// A square matrix stored by diagonals: only entries with
/// `-kl <= j - i <= ku` are representable.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedMatrix<T: Scalar = f64> {
    n: usize,
    kl: usize,
    ku: usize,
    /// Row-major band storage: row `i` occupies `width = kl + ku + 1` slots,
    /// with column `j` at offset `j - i + kl`.
    data: Vec<T>,
}

impl<T: Scalar> BandedMatrix<T> {
    /// Creates a zero-filled `n × n` banded matrix.
    ///
    /// Bandwidths are clamped to `n - 1`, so `BandedMatrix::zeros(n, n, n)`
    /// is a valid (degenerate, full) band.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        assert!(n > 0, "banded matrix dimension must be non-zero");
        let kl = kl.min(n - 1);
        let ku = ku.min(n - 1);
        Self { n, kl, ku, data: vec![T::zero(); n * (kl + ku + 1)] }
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Lower bandwidth.
    #[inline]
    pub fn lower_bandwidth(&self) -> usize {
        self.kl
    }

    /// Upper bandwidth.
    #[inline]
    pub fn upper_bandwidth(&self) -> usize {
        self.ku
    }

    #[inline]
    fn width(&self) -> usize {
        self.kl + self.ku + 1
    }

    #[inline]
    fn offset(&self, row: usize, col: usize) -> Option<usize> {
        let d = col as isize - row as isize;
        if d < -(self.kl as isize) || d > self.ku as isize {
            None
        } else {
            Some(row * self.width() + (d + self.kl as isize) as usize)
        }
    }

    /// Element accessor; entries outside the band read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.n && col < self.n, "banded matrix index out of bounds");
        match self.offset(row, col) {
            Some(k) => self.data[k],
            None => T::zero(),
        }
    }

    /// Sets an element.
    ///
    /// # Panics
    ///
    /// Panics if the position lies outside the band or the matrix.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.n && col < self.n, "banded matrix index out of bounds");
        let k = self.offset(row, col).expect("position outside the band");
        self.data[k] = value;
    }

    /// Adds `value` to the element at `(row, col)` — the MNA stamping
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if the position lies outside the band or the matrix.
    #[inline]
    pub fn add_at(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.n && col < self.n, "banded matrix index out of bounds");
        let k = self.offset(row, col).expect("position outside the band");
        self.data[k] = self.data[k] + value;
    }

    /// Matrix–vector product `A·x` in `O(n·(kl+ku))`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n, "vector length must equal matrix dimension");
        let mut y = vec![T::zero(); self.n];
        for i in 0..self.n {
            let lo = i.saturating_sub(self.kl);
            let hi = (i + self.ku).min(self.n - 1);
            let mut acc = T::zero();
            let row = &self.data[i * self.width()..];
            for j in lo..=hi {
                acc = acc + row[j + self.kl - i] * x[j];
            }
            y[i] = acc;
        }
        y
    }

    /// Expands to a dense [`Matrix`] (used by the dense fallback path and in
    /// tests).
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.n, self.n);
        for i in 0..self.n {
            let lo = i.saturating_sub(self.kl);
            let hi = (i + self.ku).min(self.n - 1);
            for j in lo..=hi {
                m[(i, j)] = self.get(i, j);
            }
        }
        m
    }

    /// Builds a banded copy of a dense matrix with the given bandwidths.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square or has a nonzero entry outside the band.
    pub fn from_dense(a: &Matrix<T>, kl: usize, ku: usize) -> Self {
        assert!(a.is_square(), "banded matrices must be square");
        let n = a.rows();
        let mut b = Self::zeros(n, kl, ku);
        for i in 0..n {
            for j in 0..n {
                let v = a[(i, j)];
                if v != T::zero() {
                    b.set(i, j, v); // panics when (i, j) is outside the band
                }
            }
        }
        b
    }
}

/// An LU factorisation `P·A = L·U` of a banded matrix, with partial pivoting
/// confined to the band (LAPACK `dgbtrf`).
///
/// The factors occupy `kl + min(kl + ku, n-1) + 1` diagonals: row
/// interchanges widen `U` by up to `kl` superdiagonals beyond the original
/// `ku`.
#[derive(Debug, Clone)]
pub struct BandedLuFactor<T: Scalar = f64> {
    n: usize,
    kl: usize,
    /// Upper bandwidth of the factored `U` (original `ku` plus pivoting fill).
    kuf: usize,
    /// Row-major factor storage: row `i` covers columns `i - kl ..= i + kuf`,
    /// column `j` at offset `j - i + kl`.
    data: Vec<T>,
    /// Pivot row chosen at elimination step `j` (absolute row index).
    ipiv: Vec<usize>,
}

impl<T: Scalar> BandedLuFactor<T> {
    /// Factorises a banded matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError::Singular`] if elimination encounters a pivot
    /// that is numerically zero.
    pub fn new(a: &BandedMatrix<T>) -> Result<Self, FactorizeError> {
        let _span = rlckit_telemetry::span("banded.factor");
        let n = a.dim();
        let kl = a.lower_bandwidth();
        let ku = a.upper_bandwidth();
        let kuf = (kl + ku).min(n - 1);
        let width = kl + kuf + 1;

        // Copy the band into the wider factor storage.
        let mut data = vec![T::zero(); n * width];
        for i in 0..n {
            let lo = i.saturating_sub(kl);
            let hi = (i + ku).min(n - 1);
            for j in lo..=hi {
                data[i * width + (j + kl - i)] = a.get(i, j);
            }
        }

        let at = |data: &[T], i: usize, j: usize| -> T { data[i * width + (j + kl - i)] };
        let mut ipiv = vec![0usize; n];

        for j in 0..n {
            // Partial pivoting over the (at most kl + 1) rows that can hold a
            // nonzero in column j.
            let last_row = (j + kl).min(n - 1);
            let mut p = j;
            let mut p_mag = at(&data, j, j).modulus();
            for i in (j + 1)..=last_row {
                let mag = at(&data, i, j).modulus();
                if mag > p_mag {
                    p_mag = mag;
                    p = i;
                }
            }
            if !(p_mag > SINGULARITY_THRESHOLD) {
                return Err(FactorizeError::Singular { column: j });
            }
            ipiv[j] = p;

            // Columns the elimination step can touch.
            let last_col = (j + kuf).min(n - 1);
            if p != j {
                // Swap rows j and p over columns j..=last_col. Both windows
                // cover this range: p <= j + kl, so p - kl <= j, and the row-j
                // window extends to j + kuf >= last_col.
                for c in j..=last_col {
                    let kj = j * width + (c + kl - j);
                    let kp = p * width + (c + kl - p);
                    data.swap(kj, kp);
                }
            }

            let pivot = at(&data, j, j);
            for i in (j + 1)..=last_row {
                let factor = at(&data, i, j) / pivot;
                data[i * width + (j + kl - i)] = factor;
                if factor != T::zero() {
                    for c in (j + 1)..=last_col {
                        let sub = factor * at(&data, j, c);
                        let k = i * width + (c + kl - i);
                        data[k] = data[k] - sub;
                    }
                }
            }
        }

        // Near-singularity health proxy from the U diagonal (see lu.rs) —
        // profiler-gated, O(n).
        if rlckit_telemetry::enabled() {
            let mut max_d = 0.0_f64;
            let mut min_d = f64::INFINITY;
            for i in 0..n {
                let m = at(&data, i, i).modulus();
                max_d = max_d.max(m);
                min_d = min_d.min(m);
            }
            rlckit_telemetry::check_metric(
                "banded.factor",
                "near_singularity",
                f64::EPSILON * max_d / min_d,
                crate::condition::NEAR_SINGULAR_WARN,
                crate::condition::NEAR_SINGULAR_ERROR,
            );
        }

        Ok(Self { n, kl, kuf, data, ipiv })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factors in `O(n·(kl+ku))`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = vec![T::zero(); self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer, allocating nothing:
    /// `b` is copied into `x` and both substitutions run in place.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` does not equal the matrix dimension.
    pub(crate) fn solve_into(&self, b: &[T], x: &mut [T]) {
        let _span = rlckit_telemetry::span("banded.solve");
        assert_eq!(b.len(), self.n, "right-hand side length must equal matrix dimension");
        assert_eq!(x.len(), self.n, "solution length must equal matrix dimension");
        x.copy_from_slice(b);
        let width = self.kl + self.kuf + 1;
        let at = |i: usize, j: usize| -> T { self.data[i * width + (j + self.kl - i)] };

        // Forward: interleave the row interchanges with the unit-lower solve,
        // exactly as dgbtrs does (multipliers are not permuted retroactively).
        for j in 0..self.n {
            let p = self.ipiv[j];
            if p != j {
                x.swap(j, p);
            }
            let xj = x[j];
            if xj != T::zero() {
                let last_row = (j + self.kl).min(self.n - 1);
                for (i, xi) in x.iter_mut().enumerate().take(last_row + 1).skip(j + 1) {
                    *xi = *xi - at(i, j) * xj;
                }
            }
        }

        // Backward substitution with the banded U.
        for i in (0..self.n).rev() {
            let mut acc = x[i];
            let hi = (i + self.kuf).min(self.n - 1);
            for (j, &xj) in x.iter().enumerate().take(hi + 1).skip(i + 1) {
                acc = acc - at(i, j) * xj;
            }
            x[i] = acc / at(i, i);
        }
    }

    /// Solves the transposed system `Aᵀ·x = b` with the same stored factors
    /// (LAPACK `dgbtrs` with `TRANS = 'T'`): a forward sweep with the banded
    /// `Uᵀ`, then the unit-lower multipliers and row interchanges applied in
    /// reverse elimination order. Fuel for the Hager–Higham condition
    /// estimator ([`crate::condition::invnorm1_estimate`]).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the matrix dimension.
    pub fn solve_transpose(&self, b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.n, "right-hand side length must equal matrix dimension");
        let width = self.kl + self.kuf + 1;
        let at = |i: usize, j: usize| -> T { self.data[i * width + (j + self.kl - i)] };
        let mut x = b.to_vec();

        // Forward substitution with Uᵀ: row i of Uᵀ holds U's column i,
        // whose entries live in rows i-kuf..=i.
        for i in 0..self.n {
            let mut acc = x[i];
            let lo = i.saturating_sub(self.kuf);
            for (j, &xj) in x.iter().enumerate().take(i).skip(lo) {
                acc = acc - at(j, i) * xj;
            }
            x[i] = acc / at(i, i);
        }

        // Backward: undo the interleaved (swap, eliminate) steps of the
        // forward solve in reverse — subtract the column-j multipliers, then
        // apply the step-j interchange.
        for j in (0..self.n).rev() {
            let mut acc = x[j];
            let last_row = (j + self.kl).min(self.n - 1);
            for (i, &xi) in x.iter().enumerate().take(last_row + 1).skip(j + 1) {
                acc = acc - at(i, j) * xi;
            }
            x[j] = acc;
            let p = self.ipiv[j];
            if p != j {
                x.swap(j, p);
            }
        }
        x
    }
}

impl BandedLuFactor<f64> {
    /// Hager–Higham estimate of `κ₁(A) = ‖A‖₁·‖A⁻¹‖₁` from the stored
    /// factors, given the 1-norm of the original matrix. A handful of extra
    /// `O(n·b)` solves, no re-factorisation; a lower bound of the true
    /// condition number.
    pub fn condest(&self, norm_one_a: f64) -> f64 {
        norm_one_a
            * crate::condition::invnorm1_estimate(
                self.dim(),
                |b| self.solve(b),
                |b| self.solve_transpose(b),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::lu::LuFactor;

    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }

    fn random_banded(n: usize, kl: usize, ku: usize, seed: u64) -> BandedMatrix<f64> {
        let mut state = seed;
        let mut a = BandedMatrix::zeros(n, kl, ku);
        for i in 0..n {
            let lo = i.saturating_sub(kl);
            let hi = (i + ku).min(n - 1);
            for j in lo..=hi {
                a.set(i, j, lcg(&mut state));
            }
            // Diagonal dominance keeps the system well-conditioned.
            a.add_at(i, i, 4.0);
        }
        a
    }

    #[test]
    fn storage_round_trips_and_out_of_band_reads_zero() {
        let mut a = BandedMatrix::<f64>::zeros(5, 1, 2);
        a.set(2, 1, -3.0);
        a.set(2, 4, 7.0);
        a.add_at(2, 1, 1.0);
        assert_eq!(a.get(2, 1), -2.0);
        assert_eq!(a.get(2, 4), 7.0);
        assert_eq!(a.get(4, 0), 0.0); // outside the band
        assert_eq!(a.dim(), 5);
        assert_eq!(a.lower_bandwidth(), 1);
        assert_eq!(a.upper_bandwidth(), 2);
    }

    #[test]
    #[should_panic]
    fn writing_outside_the_band_panics() {
        let mut a = BandedMatrix::<f64>::zeros(5, 1, 1);
        a.set(0, 4, 1.0);
    }

    #[test]
    fn bandwidths_are_clamped_to_dimension() {
        let a = BandedMatrix::<f64>::zeros(3, 10, 10);
        assert_eq!(a.lower_bandwidth(), 2);
        assert_eq!(a.upper_bandwidth(), 2);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = random_banded(9, 2, 1, 0xBEEF);
        let x: Vec<f64> = (0..9).map(|i| i as f64 - 4.0).collect();
        let dense = a.to_dense();
        let yb = a.mul_vec(&x);
        let yd = dense.mul_vec(&x);
        for (b, d) in yb.iter().zip(yd.iter()) {
            assert!((b - d).abs() < 1e-14);
        }
    }

    #[test]
    fn tridiagonal_solve_matches_dense() {
        let a = random_banded(40, 1, 1, 0x1234);
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.37).sin()).collect();
        let xb = BandedLuFactor::new(&a).unwrap().solve(&b);
        let xd = LuFactor::new(&a.to_dense()).unwrap().solve(&b);
        for (u, v) in xb.iter().zip(xd.iter()) {
            assert!((u - v).abs() < 1e-12, "banded {u} vs dense {v}");
        }
    }

    #[test]
    fn asymmetric_bandwidths_solve_correctly() {
        for (kl, ku) in [(0, 3), (3, 0), (2, 5), (5, 2)] {
            let a = random_banded(25, kl, ku, 0xABCD + kl as u64 * 17 + ku as u64);
            let b: Vec<f64> = (0..25).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let x = BandedLuFactor::new(&a).unwrap().solve(&b);
            let r = a.mul_vec(&x);
            for (ri, bi) in r.iter().zip(b.iter()) {
                assert!((ri - bi).abs() < 1e-11, "residual {}", (ri - bi).abs());
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0, 1], [1, 0]] needs a row swap even in band form (kl = ku = 1).
        let mut a = BandedMatrix::<f64>::zeros(2, 1, 1);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        let x = BandedLuFactor::new(&a).unwrap().solve(&[3.0, 5.0]);
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bandwidth_is_a_diagonal_solve() {
        let mut a = BandedMatrix::<f64>::zeros(4, 0, 0);
        for i in 0..4 {
            a.set(i, i, (i + 1) as f64);
        }
        let x = BandedLuFactor::new(&a).unwrap().solve(&[1.0, 2.0, 3.0, 4.0]);
        for (i, v) in x.iter().enumerate() {
            assert!((v - 1.0).abs() < 1e-15, "x[{i}] = {v}");
        }
    }

    #[test]
    fn full_bandwidth_degenerates_to_dense() {
        let n = 12;
        let mut state = 0x5EED;
        let mut dense = Matrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                dense[(i, j)] = lcg(&mut state);
            }
            dense[(i, i)] += 6.0;
        }
        let banded = BandedMatrix::from_dense(&dense, n - 1, n - 1);
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let xb = BandedLuFactor::new(&banded).unwrap().solve(&b);
        let xd = LuFactor::new(&dense).unwrap().solve(&b);
        for (u, v) in xb.iter().zip(xd.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = BandedMatrix::<f64>::zeros(3, 1, 1);
        a.set(0, 0, 1.0);
        a.set(0, 1, 1.0);
        // Column 1 is entirely zero below the elimination of column 0.
        match BandedLuFactor::new(&a) {
            Err(FactorizeError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn complex_banded_system() {
        let mut a = BandedMatrix::<Complex>::zeros(3, 1, 1);
        a.set(0, 0, Complex::new(1.0, 1.0));
        a.set(0, 1, Complex::ONE);
        a.set(1, 0, Complex::ONE);
        a.set(1, 1, -Complex::ONE);
        a.set(2, 2, Complex::J);
        let b = [Complex::new(2.0, 0.0), Complex::J, Complex::J];
        let x = BandedLuFactor::new(&a).unwrap().solve(&b);
        // First two rows match the dense lu.rs complex test; third is J·x = J.
        assert!((x[0] - Complex::ONE).abs() < 1e-12);
        assert!((x[1] - Complex::new(1.0, -1.0)).abs() < 1e-12);
        assert!((x[2] - Complex::ONE).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn solve_with_wrong_rhs_length_panics() {
        let a = random_banded(4, 1, 1, 3);
        let f = BandedLuFactor::new(&a).unwrap();
        let _ = f.solve(&[1.0]);
    }
}
