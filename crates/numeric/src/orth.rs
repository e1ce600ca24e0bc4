//! Orthonormalization kernels for Krylov-subspace model-order reduction.
//!
//! The PRIMA-style block-Arnoldi reducer in `rlckit-reduce` grows an
//! orthonormal basis one candidate vector at a time: every new direction is
//! orthogonalized against the basis built so far and either appended (after
//! normalisation) or *deflated* — dropped because it is numerically contained
//! in the existing span. [`OrthoBuilder`] implements that incremental step
//! with **modified Gram–Schmidt plus one reorthogonalization pass**, the
//! standard remedy for the loss of orthogonality plain Gram–Schmidt suffers
//! on ill-conditioned Krylov chains.

/// Dot product of two equal-length real vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a real vector.
pub(crate) fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// An incrementally grown orthonormal basis (modified Gram–Schmidt with
/// reorthogonalization and deflation).
#[derive(Debug, Clone)]
pub struct OrthoBuilder {
    dim: usize,
    tol: f64,
    columns: Vec<Vec<f64>>,
}

impl OrthoBuilder {
    /// Creates a builder for vectors of length `dim`.
    ///
    /// `tol` is the relative deflation threshold: a candidate whose norm
    /// after orthogonalization is below `tol` times its original norm is
    /// considered linearly dependent and rejected. `1e-10` is a good default.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `tol` is not a positive finite number.
    pub fn new(dim: usize, tol: f64) -> Self {
        assert!(dim > 0, "basis vectors must have non-zero length");
        assert!(tol.is_finite() && tol > 0.0, "deflation tolerance must be positive and finite");
        Self { dim, tol, columns: Vec::new() }
    }

    /// Number of basis vectors accepted so far.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Returns `true` if no vector has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The orthonormal columns accepted so far.
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// Orthogonalizes `v` against the basis and appends it if it survives.
    ///
    /// Returns `true` if the vector contributed a new direction, `false` if
    /// it was deflated (numerically dependent on the existing basis). The
    /// basis is full once `len() == dim`; further candidates always deflate.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim` or `v` contains a non-finite entry.
    pub fn push(&mut self, v: &[f64]) -> bool {
        assert_eq!(v.len(), self.dim, "candidate length must match the basis dimension");
        assert!(v.iter().all(|x| x.is_finite()), "candidate vector must be finite");
        let original = norm(v);
        if original == 0.0 || self.columns.len() == self.dim {
            return false;
        }
        let mut w = v.to_vec();
        // Two passes of modified Gram–Schmidt ("twice is enough", Kahan):
        // the second pass removes the components the first pass leaked due
        // to rounding when the candidate is nearly dependent.
        for _ in 0..2 {
            for q in &self.columns {
                let h = dot(q, &w);
                for (wi, qi) in w.iter_mut().zip(q.iter()) {
                    *wi -= h * qi;
                }
            }
        }
        let remaining = norm(&w);
        if remaining <= self.tol * original {
            return false;
        }
        for wi in &mut w {
            *wi /= remaining;
        }
        self.columns.push(w);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest deviation from orthonormality, `max |QᵀQ − I|`.
    fn orthonormality_defect(columns: &[Vec<f64>]) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, a) in columns.iter().enumerate() {
            for (j, b) in columns.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((dot(a, b) - want).abs());
            }
        }
        worst
    }

    #[test]
    fn builds_an_orthonormal_basis() {
        let mut b = OrthoBuilder::new(3, 1e-12);
        assert!(b.is_empty());
        assert!(b.push(&[2.0, 0.0, 0.0]));
        assert!(b.push(&[1.0, 1.0, 0.0]));
        assert!(b.push(&[1.0, 1.0, 1.0]));
        assert_eq!(b.len(), 3);
        assert!(orthonormality_defect(b.columns()) < 1e-14);
    }

    #[test]
    fn deflates_dependent_vectors() {
        let mut b = OrthoBuilder::new(3, 1e-10);
        assert!(b.push(&[1.0, 0.0, 0.0]));
        assert!(b.push(&[0.0, 1.0, 0.0]));
        // In the span of the first two: must deflate.
        assert!(!b.push(&[3.0, -2.0, 0.0]));
        // Zero vector deflates trivially.
        assert!(!b.push(&[0.0, 0.0, 0.0]));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn full_basis_rejects_everything() {
        let mut b = OrthoBuilder::new(2, 1e-10);
        assert!(b.push(&[1.0, 2.0]));
        assert!(b.push(&[2.0, -1.0]));
        assert!(!b.push(&[5.0, 5.0]));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn reorthogonalization_handles_nearly_dependent_chains() {
        // Krylov-like chain of nearly parallel vectors: plain Gram–Schmidt
        // loses orthogonality here; the two-pass variant must not.
        let n = 40;
        let mut b = OrthoBuilder::new(n, 1e-10);
        let mut v: Vec<f64> = (0..n).map(|i| 1.0 + 1e-8 * i as f64).collect();
        for _ in 0..6 {
            b.push(&v);
            // Multiply by a diagonal close to the identity: the chain
            // collapses towards the dominant direction.
            for (i, x) in v.iter_mut().enumerate() {
                *x *= 1.0 + 1e-6 * i as f64;
            }
        }
        assert!(b.len() >= 2);
        assert!(
            orthonormality_defect(b.columns()) < 1e-12,
            "defect {}",
            orthonormality_defect(b.columns())
        );
    }

    #[test]
    #[should_panic]
    fn non_finite_candidates_panic() {
        let mut b = OrthoBuilder::new(2, 1e-10);
        b.push(&[f64::NAN, 0.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_length_panics() {
        let mut b = OrthoBuilder::new(3, 1e-10);
        b.push(&[1.0, 2.0]);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }
}
