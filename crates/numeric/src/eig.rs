//! Small dense nonsymmetric eigensolver: Hessenberg reduction followed by
//! the implicitly shifted (Francis double-shift) QR iteration.
//!
//! Model-order reduction needs the eigenvalues of the reduced matrix
//! `Aᵣ = Gᵣ⁻¹Cᵣ` — a dense, nonsymmetric matrix of order `q` (a few dozen at
//! most). The classic EISPACK pipeline is exactly right at this size:
//!
//! 1. `hessenberg` — Householder similarity transforms bring the matrix to
//!    upper Hessenberg form in `O(n³)` without changing its eigenvalues;
//! 2. `hessenberg_eigenvalues` — the double-shift QR iteration deflates the
//!    Hessenberg matrix into `1×1` (real eigenvalue) and `2×2` (complex pair
//!    or real pair) blocks.
//!
//! [`eigenvalues`] chains the two. Complex eigenvalues of the real input
//! appear in conjugate pairs. The iteration uses the standard exceptional
//! shifts after 10 and 20 stalled sweeps and reports [`EigError::NoConvergence`]
//! after 30 per eigenvalue, which in practice only ever fires on adversarial
//! inputs.

use std::error::Error;
use std::fmt;

use crate::complex::Complex;
use crate::matrix::Matrix;

/// Error returned by the eigensolver.
#[derive(Debug, Clone, PartialEq)]
pub enum EigError {
    /// The input matrix is not square.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// The input contains NaN or infinite entries.
    NonFinite,
    /// The QR iteration failed to converge for some eigenvalue.
    NoConvergence {
        /// Index of the eigenvalue being isolated when iteration stalled.
        remaining: usize,
    },
}

impl fmt::Display for EigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotSquare { rows, cols } => {
                write!(f, "eigensolver requires a square matrix, got {rows}x{cols}")
            }
            Self::NonFinite => write!(f, "eigensolver input contains non-finite entries"),
            Self::NoConvergence { remaining } => {
                write!(f, "QR iteration did not converge ({remaining} eigenvalues unresolved)")
            }
        }
    }
}

impl Error for EigError {}

/// Reduces a square matrix to upper Hessenberg form by Householder
/// similarity transformations (eigenvalues are preserved).
///
/// # Errors
///
/// Returns [`EigError::NotSquare`] or [`EigError::NonFinite`] for invalid
/// input.
pub(crate) fn hessenberg(a: &Matrix<f64>) -> Result<Matrix<f64>, EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    if !a.is_finite() {
        return Err(EigError::NonFinite);
    }
    let n = a.rows();
    let mut h = a.clone();
    if n < 3 {
        return Ok(h);
    }
    for k in 0..n - 2 {
        // Householder vector annihilating h[k+2.., k].
        let mut alpha = 0.0;
        for i in k + 1..n {
            alpha += h[(i, k)] * h[(i, k)];
        }
        if alpha == 0.0 {
            continue;
        }
        let pivot = h[(k + 1, k)];
        let mut alpha = alpha.sqrt();
        if pivot > 0.0 {
            alpha = -alpha;
        }
        let v0 = pivot - alpha;
        let mut v = vec![0.0; n];
        v[k + 1] = v0;
        for i in k + 2..n {
            v[i] = h[(i, k)];
        }
        let vtv = v.iter().map(|x| x * x).sum::<f64>();
        if vtv == 0.0 {
            continue;
        }
        let beta = 2.0 / vtv;
        // H ← (I − β v vᵀ) H
        for j in 0..n {
            let mut s = 0.0;
            for i in k + 1..n {
                s += v[i] * h[(i, j)];
            }
            let s = beta * s;
            for (i, &vi) in v.iter().enumerate().skip(k + 1) {
                h.add_at(i, j, -s * vi);
            }
        }
        // H ← H (I − β v vᵀ)
        for i in 0..n {
            let mut s = 0.0;
            for j in k + 1..n {
                s += h[(i, j)] * v[j];
            }
            let s = beta * s;
            for (j, &vj) in v.iter().enumerate().skip(k + 1) {
                h.add_at(i, j, -s * vj);
            }
        }
        // Clean the annihilated entries exactly.
        h[(k + 1, k)] = alpha;
        for i in k + 2..n {
            h[(i, k)] = 0.0;
        }
    }
    Ok(h)
}

/// Eigenvalues of an upper Hessenberg matrix via the Francis double-shift QR
/// iteration. Entries below the first subdiagonal are ignored.
///
/// # Errors
///
/// Returns [`EigError`] for invalid input or a (pathological) convergence
/// failure.
pub(crate) fn hessenberg_eigenvalues(hess: &Matrix<f64>) -> Result<Vec<Complex>, EigError> {
    if !hess.is_square() {
        return Err(EigError::NotSquare { rows: hess.rows(), cols: hess.cols() });
    }
    if !hess.is_finite() {
        return Err(EigError::NonFinite);
    }
    let n = hess.rows();
    let mut h = hess.clone();
    let mut eig: Vec<Complex> = Vec::with_capacity(n);

    // Norm used to judge negligible subdiagonals when a row pair is zero.
    let mut anorm = 0.0f64;
    for i in 0..n {
        for j in i.saturating_sub(1)..n {
            anorm += h[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(vec![Complex::ZERO; n]);
    }

    const EPS: f64 = f64::EPSILON;
    let mut t_shift = 0.0f64; // accumulated exceptional shifts
    let mut nn = n as isize - 1;
    while nn >= 0 {
        let mut its = 0;
        loop {
            // Find the smallest l such that h[l][l-1] is negligible.
            let mut l = nn;
            while l >= 1 {
                let s =
                    h[(l as usize - 1, l as usize - 1)].abs() + h[(l as usize, l as usize)].abs();
                let s = if s == 0.0 { anorm } else { s };
                if h[(l as usize, l as usize - 1)].abs() <= EPS * s {
                    h[(l as usize, l as usize - 1)] = 0.0;
                    break;
                }
                l -= 1;
            }
            let x = h[(nn as usize, nn as usize)];
            if l == nn {
                // One real eigenvalue deflated.
                eig.push(Complex::from_real(x + t_shift));
                nn -= 1;
                break;
            }
            let y = h[(nn as usize - 1, nn as usize - 1)];
            let w = h[(nn as usize, nn as usize - 1)] * h[(nn as usize - 1, nn as usize)];
            if l == nn - 1 {
                // A 2×2 block deflated: real pair or complex conjugate pair.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let z = q.abs().sqrt();
                let x = x + t_shift;
                if q >= 0.0 {
                    let z = p + z.copysign(if p == 0.0 { 1.0 } else { p });
                    eig.push(Complex::from_real(x + z));
                    if z != 0.0 {
                        eig.push(Complex::from_real(x - w / z));
                    } else {
                        eig.push(Complex::from_real(x));
                    }
                } else {
                    eig.push(Complex::new(x + p, z));
                    eig.push(Complex::new(x + p, -z));
                }
                nn -= 2;
                break;
            }
            // No deflation yet: one double-shift QR sweep.
            if its == 30 {
                return Err(EigError::NoConvergence { remaining: nn as usize + 1 });
            }
            let (mut x, mut y, mut w) = (x, y, w);
            if its == 10 || its == 20 {
                // Exceptional shift to break symmetric stalls.
                t_shift += x;
                for i in 0..=nn as usize {
                    h.add_at(i, i, -x);
                }
                let s = h[(nn as usize, nn as usize - 1)].abs()
                    + h[(nn as usize - 1, nn as usize - 2)].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;

            // Look for two consecutive small subdiagonal elements.
            let mut m = nn - 2;
            let (mut p, mut q, mut r) = (0.0, 0.0, 0.0);
            while m >= l {
                let mu = m as usize;
                let z = h[(mu, mu)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / h[(mu + 1, mu)] + h[(mu, mu + 1)];
                q = h[(mu + 1, mu + 1)] - z - rr - ss;
                r = h[(mu + 2, mu + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = h[(mu, mu - 1)].abs() * (q.abs() + r.abs());
                let v = p.abs() * (h[(mu - 1, mu - 1)].abs() + z.abs() + h[(mu + 1, mu + 1)].abs());
                if u <= EPS * v {
                    break;
                }
                m -= 1;
            }
            let m = m.max(l) as usize;
            for i in m + 2..=nn as usize {
                h[(i, i - 2)] = 0.0;
                if i > m + 2 {
                    h[(i, i - 3)] = 0.0;
                }
            }
            // The sweep itself: chase the bulge from row m to nn-1.
            let l = l as usize;
            let nnu = nn as usize;
            for k in m..nnu {
                if k != m {
                    p = h[(k, k - 1)];
                    q = h[(k + 1, k - 1)];
                    r = if k != nnu - 1 { h[(k + 2, k - 1)] } else { 0.0 };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = (p * p + q * q + r * r).sqrt().copysign(if p == 0.0 { 1.0 } else { p });
                if s == 0.0 {
                    continue;
                }
                if k == m {
                    if l != m {
                        h[(k, k - 1)] = -h[(k, k - 1)];
                    }
                } else {
                    h[(k, k - 1)] = -s * x;
                }
                p += s;
                let x2 = p / s;
                let y2 = q / s;
                let z2 = r / s;
                q /= p;
                r /= p;
                // Row modification.
                for j in k..=nnu {
                    let mut pp = h[(k, j)] + q * h[(k + 1, j)];
                    if k != nnu - 1 {
                        pp += r * h[(k + 2, j)];
                        h.add_at(k + 2, j, -pp * z2);
                    }
                    h.add_at(k + 1, j, -pp * y2);
                    h.add_at(k, j, -pp * x2);
                }
                // Column modification.
                let i_hi = nnu.min(k + 3);
                for i in l..=i_hi {
                    let mut pp = x2 * h[(i, k)] + y2 * h[(i, k + 1)];
                    if k != nnu - 1 {
                        pp += z2 * h[(i, k + 2)];
                        h.add_at(i, k + 2, -pp * r);
                    }
                    h.add_at(i, k + 1, -pp * q);
                    h.add_at(i, k, -pp);
                }
            }
        }
    }
    Ok(eig)
}

/// Eigenvalues of a general square real matrix (`hessenberg` followed by
/// `hessenberg_eigenvalues`).
///
/// The returned order is the deflation order of the QR iteration (not
/// sorted); complex eigenvalues come in conjugate pairs.
///
/// # Errors
///
/// Returns [`EigError`] for invalid input or convergence failure.
pub fn eigenvalues(a: &Matrix<f64>) -> Result<Vec<Complex>, EigError> {
    let h = hessenberg(a)?;
    hessenberg_eigenvalues(&h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sort_complex(mut v: Vec<Complex>) -> Vec<Complex> {
        v.sort_by(|a, b| a.re.total_cmp(&b.re).then(a.im.total_cmp(&b.im)));
        v
    }

    fn assert_spectrum(a: &Matrix<f64>, expected: &[Complex], tol: f64) {
        let got = sort_complex(eigenvalues(a).unwrap());
        let want = sort_complex(expected.to_vec());
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((*g - *w).abs() < tol, "eigenvalue {g:?} vs expected {w:?}");
        }
    }

    #[test]
    fn diagonal_matrix() {
        let mut a = Matrix::zeros(4, 4);
        for (i, v) in [3.0, -1.0, 0.5, 7.0].iter().enumerate() {
            a[(i, i)] = *v;
        }
        assert_spectrum(
            &a,
            &[
                Complex::from_real(3.0),
                Complex::from_real(-1.0),
                Complex::from_real(0.5),
                Complex::from_real(7.0),
            ],
            1e-12,
        );
    }

    #[test]
    fn rotation_matrix_has_complex_pair() {
        // 90° rotation: eigenvalues ±i.
        let a = Matrix::from_rows(2, 2, vec![0.0, -1.0, 1.0, 0.0]);
        assert_spectrum(&a, &[Complex::new(0.0, 1.0), Complex::new(0.0, -1.0)], 1e-12);
    }

    #[test]
    fn companion_matrix_of_cubic() {
        // p(x) = x³ − 6x² + 11x − 6 = (x−1)(x−2)(x−3); companion matrix.
        let a = Matrix::from_rows(3, 3, vec![0.0, 0.0, 6.0, 1.0, 0.0, -11.0, 0.0, 1.0, 6.0]);
        assert_spectrum(
            &a,
            &[Complex::from_real(1.0), Complex::from_real(2.0), Complex::from_real(3.0)],
            1e-9,
        );
    }

    #[test]
    fn symmetric_matrix_eigenvalues_are_real() {
        // Known spectrum: 2x2 blocks [[2,1],[1,2]] → {1, 3}.
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        assert_spectrum(&a, &[Complex::from_real(1.0), Complex::from_real(3.0)], 1e-12);
    }

    #[test]
    fn defective_jordan_block() {
        // Jordan block with eigenvalue 2 (algebraic multiplicity 3): the QR
        // iteration must still report three eigenvalues near 2 (they split by
        // O(eps^{1/3}), the well-known sensitivity of defective eigenvalues).
        let a = Matrix::from_rows(3, 3, vec![2.0, 1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 2.0]);
        let eig = eigenvalues(&a).unwrap();
        assert_eq!(eig.len(), 3);
        for e in eig {
            assert!((e - Complex::from_real(2.0)).abs() < 1e-4, "eigenvalue {e:?} far from 2");
        }
    }

    #[test]
    fn trace_and_determinant_are_preserved() {
        // Pseudo-random 6×6 matrix: Σλ = trace, Πλ = det (via char. poly).
        let n = 6;
        let mut a = Matrix::zeros(n, n);
        let mut s = 1234567u64;
        for i in 0..n {
            for j in 0..n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                a[(i, j)] = ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            }
        }
        let eig = eigenvalues(&a).unwrap();
        let sum: Complex = eig.iter().fold(Complex::ZERO, |acc, &e| acc + e);
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        assert!((sum.re - trace).abs() < 1e-10, "Σλ {} vs trace {trace}", sum.re);
        assert!(sum.im.abs() < 1e-10, "eigenvalue sum must be real");
        let product: Complex = eig.iter().fold(Complex::ONE, |acc, &e| acc * e);
        let det = determinant(&a);
        assert!((product.re - det).abs() < 1e-9 * det.abs().max(1.0));
    }

    /// Determinant by Gaussian elimination with partial pivoting.
    fn determinant(a: &Matrix<f64>) -> f64 {
        let n = a.rows();
        let mut m = a.clone();
        let mut det = 1.0;
        for k in 0..n {
            let p = (k..n).max_by(|&i, &j| m[(i, k)].abs().total_cmp(&m[(j, k)].abs())).unwrap();
            if p != k {
                for j in 0..n {
                    let t = m[(k, j)];
                    m[(k, j)] = m[(p, j)];
                    m[(p, j)] = t;
                }
                det = -det;
            }
            det *= m[(k, k)];
            for i in k + 1..n {
                let f = m[(i, k)] / m[(k, k)];
                for j in k..n {
                    let v = m[(k, j)];
                    m[(i, j)] -= f * v;
                }
            }
        }
        det
    }

    #[test]
    fn hessenberg_preserves_the_spectrum_shape() {
        let a = Matrix::from_rows(
            4,
            4,
            vec![
                4.0, 1.0, -2.0, 2.0, 1.0, 2.0, 0.0, 1.0, -2.0, 0.0, 3.0, -2.0, 2.0, 1.0, -2.0, -1.0,
            ],
        );
        let h = hessenberg(&a).unwrap();
        // Hessenberg: zero below the first subdiagonal.
        for i in 2..4 {
            for j in 0..i - 1 {
                assert_eq!(h[(i, j)], 0.0, "({i},{j}) not annihilated");
            }
        }
        // Similarity: the trace is invariant.
        let ta: f64 = (0..4).map(|i| a[(i, i)]).sum();
        let th: f64 = (0..4).map(|i| h[(i, i)]).sum();
        assert!((ta - th).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        let rect = Matrix::<f64>::zeros(2, 3);
        assert!(matches!(eigenvalues(&rect), Err(EigError::NotSquare { rows: 2, cols: 3 })));
        let mut nan = Matrix::<f64>::zeros(2, 2);
        nan[(0, 0)] = f64::NAN;
        assert!(matches!(eigenvalues(&nan), Err(EigError::NonFinite)));
        assert!(EigError::NoConvergence { remaining: 2 }.to_string().contains("converge"));
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::<f64>::zeros(3, 3);
        assert_spectrum(&a, &[Complex::ZERO; 3], 1e-15);
    }

    #[test]
    fn one_by_one() {
        let mut a = Matrix::zeros(1, 1);
        a[(0, 0)] = -4.5;
        assert_spectrum(&a, &[Complex::from_real(-4.5)], 1e-15);
    }
}
