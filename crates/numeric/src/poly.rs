//! Small polynomial utilities.
//!
//! Transfer-function denominators truncated to a few terms are low-order
//! polynomials in `s`; [`Polynomial`] holds their coefficients.
//!
//! Repeated and nearly repeated poles are first-class here: a symmetric bus
//! reduces to modal lines whose poles can coincide to many digits, which
//! makes downstream partial-fraction (Vandermonde) solves singular.
//! [`separate_clustered`] applies the standard remedy — a tiny, deterministic
//! relative perturbation that splits each cluster while staying inside the
//! accuracy the roots were computed to.

use crate::complex::Complex;

/// A polynomial with real coefficients, stored lowest degree first:
/// `coeffs[0] + coeffs[1]·x + coeffs[2]·x² + …`.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from coefficients in ascending-degree order.
    ///
    /// Trailing zero coefficients are trimmed; the zero polynomial keeps a
    /// single zero coefficient.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut c = coeffs;
        while c.len() > 1 && c.last() == Some(&0.0) {
            c.pop();
        }
        if c.is_empty() {
            c.push(0.0);
        }
        Self { coeffs: c }
    }

    /// Coefficients in ascending-degree order.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }
}

/// Splits clusters of (nearly) coincident complex values by a deterministic
/// relative perturbation, so downstream partial-fraction / Vandermonde
/// solves stay non-singular.
///
/// Two values belong to the same cluster when their distance is below
/// `rel_tol` times the largest magnitude in the set (with an absolute floor
/// of `rel_tol` for all-zero inputs). Each cluster member `k = 0, 1, 2, …`
/// is nudged by `k · spread` along the real axis, where `spread` is the
/// cluster-splitting distance `rel_tol · scale`. Values already separated
/// are returned untouched.
///
/// The perturbation is the textbook AWE/pole-extraction workaround for
/// defective poles: a shift of the same order as the root-finding error
/// changes nothing physical but makes every pole simple again.
///
/// # Panics
///
/// Panics if `rel_tol` is not a positive finite number.
pub fn separate_clustered(values: &mut [Complex], rel_tol: f64) {
    assert!(rel_tol.is_finite() && rel_tol > 0.0, "cluster tolerance must be positive and finite");
    // The scale must come from the data itself: an absolute floor (e.g. 1.0)
    // would misclassify entire spectra of small-magnitude values — such as
    // circuit time constants in seconds — as one big cluster.
    let max_abs = values.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    let scale = if max_abs > 0.0 { max_abs } else { 1.0 };
    let spread = rel_tol * scale;
    let n = values.len();
    // O(n²) pairwise pass: n is a reduction order here (tens at most).
    let mut cluster_rank = vec![0usize; n];
    for i in 0..n {
        for j in 0..i {
            if (values[i] - values[j]).abs() < spread {
                cluster_rank[i] = cluster_rank[i].max(cluster_rank[j] + 1);
            }
        }
    }
    for (v, &rank) in values.iter_mut().zip(cluster_rank.iter()) {
        if rank > 0 {
            *v += Complex::from_real(rank as f64 * spread);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_trims_trailing_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
        let z = Polynomial::new(vec![]);
        assert_eq!(z.coeffs(), &[0.0]);
    }

    #[test]
    fn separate_clustered_splits_coincident_values() {
        let mut v = vec![
            Complex::from_real(5.0),
            Complex::from_real(5.0),
            Complex::from_real(5.0),
            Complex::from_real(-1.0),
        ];
        separate_clustered(&mut v, 1e-9);
        // Every pair is now distinct…
        for i in 0..v.len() {
            for j in 0..i {
                assert!((v[i] - v[j]).abs() > 0.0, "pair ({i},{j}) still coincident");
            }
        }
        // …but nothing moved more than a few parts in 1e9.
        assert!((v[0] - Complex::from_real(5.0)).abs() < 1e-7);
        assert!((v[2] - Complex::from_real(5.0)).abs() < 1e-7);
        // The isolated value is untouched exactly.
        assert_eq!(v[3], Complex::from_real(-1.0));
    }

    #[test]
    fn separate_clustered_leaves_separated_values_alone() {
        let original =
            vec![Complex::new(1.0, 2.0), Complex::new(-3.0, 0.0), Complex::new(1.0, -2.0)];
        let mut v = original.clone();
        separate_clustered(&mut v, 1e-9);
        assert_eq!(v, original);
    }

    #[test]
    fn separate_clustered_scales_to_small_magnitudes() {
        // Regression: circuit time constants live around 1e-10 s. A spectrum
        // of well-separated tiny values must NOT be treated as one cluster
        // (an absolute scale floor once did exactly that), while true
        // duplicates at that magnitude must still split.
        let original =
            vec![Complex::from_real(1e-10), Complex::from_real(2e-10), Complex::from_real(3e-10)];
        let mut v = original.clone();
        separate_clustered(&mut v, 1e-8);
        assert_eq!(v, original, "well-separated small values must be untouched");
        let mut dup =
            vec![Complex::from_real(1e-10), Complex::from_real(1e-10), Complex::from_real(5e-10)];
        separate_clustered(&mut dup, 1e-8);
        assert!((dup[0] - dup[1]).abs() > 0.0, "tiny duplicates must still split");
        assert!((dup[1] - Complex::from_real(1e-10)).abs() < 1e-16, "split stays proportionate");
    }

    #[test]
    fn separate_clustered_handles_conjugate_pairs() {
        // A nearly repeated complex pair (two identical conjugate pairs, the
        // symmetric-bus stress case): all four must become distinct without
        // breaking which half-plane they sit in.
        let mut v = vec![
            Complex::new(-2.0, 3.0),
            Complex::new(-2.0, -3.0),
            Complex::new(-2.0, 3.0),
            Complex::new(-2.0, -3.0),
        ];
        separate_clustered(&mut v, 1e-8);
        for i in 0..v.len() {
            for j in 0..i {
                assert!((v[i] - v[j]).abs() > 0.0);
            }
        }
        assert!(v.iter().all(|z| z.re < 0.0), "stability must survive the perturbation");
    }
}
