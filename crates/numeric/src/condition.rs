//! Cheap a-posteriori accuracy diagnostics: normwise backward error and the
//! Hager–Higham 1-norm condition estimate.
//!
//! Both quantities are computable from artefacts the solver already has — a
//! retained copy of `A` for the residual, the LU factors for the condition
//! estimate — so they cost `O(nnz)` (one matrix–vector product) and `O(a few
//! solves)` respectively, never a new factorisation. They feed the
//! numerical-health monitors (`rlckit-telemetry`): a solve whose backward
//! error drifts above roundoff, or a factorisation whose condition estimate
//! approaches `1/ε`, is flagged long before the paper-level delay metrics
//! silently degrade.

use crate::matrix::Scalar;

/// Warning threshold for the per-solve backward error: a backward-stable
/// LU solve sits at a small multiple of `ε ≈ 2.2e-16`, so 1e-10 already
/// marks a solve that lost ~6 decades of stability headroom.
pub(crate) const BACKWARD_ERROR_WARN: f64 = 1e-10;
/// Error threshold for the per-solve backward error: at 1e-6 the computed
/// solution no longer solves anything close to the assembled system.
pub(crate) const BACKWARD_ERROR_ERROR: f64 = 1e-6;
/// Warning threshold for the 1-norm condition estimate: past 1e12 fewer
/// than four correct decimal digits survive a double-precision solve.
pub(crate) const CONDEST_WARN: f64 = 1e12;
/// Error threshold for the 1-norm condition estimate: past 1e15 the solve
/// is numerically meaningless in double precision.
pub(crate) const CONDEST_ERROR: f64 = 1e15;
/// Warning threshold for the pivot growth `max|U| / max|A|`.
pub(crate) const PIVOT_GROWTH_WARN: f64 = 1e6;
/// Error threshold for the pivot growth `max|U| / max|A|`.
pub(crate) const PIVOT_GROWTH_ERROR: f64 = 1e12;
/// Warning threshold for the near-singularity proxy `ε·max|uᵢᵢ|/min|uᵢᵢ|`
/// (a lower bound on `ε·cond(A)` computable from the factors alone).
pub(crate) const NEAR_SINGULAR_WARN: f64 = 1e-8;
/// Error threshold for the near-singularity proxy: at 1e-2 the diagonal of
/// `U` spans nearly the whole dynamic range of `f64`.
pub(crate) const NEAR_SINGULAR_ERROR: f64 = 1e-2;
/// Warning threshold for the transient step-residual spot check
/// `‖A·x − b‖∞ / max(‖A·x‖∞, ‖b‖∞)`.
pub const STEP_RESIDUAL_WARN: f64 = 1e-9;
/// Error threshold for the transient step-residual spot check.
pub const STEP_RESIDUAL_ERROR: f64 = 1e-5;

/// Normwise backward error `‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞)` of an
/// approximate solution `x` to `A·x = b`, given the precomputed product
/// `ax = A·x` and the matrix norm `‖A‖∞`.
///
/// This is the smallest relative perturbation of `(A, b)` (measured in the
/// ∞-norm) for which `x` is an *exact* solution — the standard Oettli–Prager
/// style residual test. A backward-stable solve keeps it within a modest
/// multiple of machine epsilon regardless of conditioning. Returns `0.0`
/// when the denominator vanishes (only possible for `b = 0` solved exactly
/// by `x = 0`), and infinity/NaN propagate so non-finite solves are caught.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn backward_error<T: Scalar>(norm_a_inf: f64, ax: &[T], x: &[T], b: &[T]) -> f64 {
    assert_eq!(ax.len(), b.len(), "product and right-hand side lengths must agree");
    assert_eq!(x.len(), b.len(), "solution and right-hand side lengths must agree");
    let residual_inf =
        ax.iter().zip(b.iter()).map(|(&axi, &bi)| (axi - bi).modulus()).fold(0.0, f64::max);
    let denominator = norm_a_inf * vec_norm_inf(x) + vec_norm_inf(b);
    if denominator == 0.0 {
        if residual_inf == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        residual_inf / denominator
    }
}

/// `‖v‖∞` — the largest modulus.
pub(crate) fn vec_norm_inf<T: Scalar>(v: &[T]) -> f64 {
    v.iter().map(|x| x.modulus()).fold(0.0, f64::max)
}

/// `‖v‖₁` — the sum of moduli.
pub(crate) fn vec_norm_one<T: Scalar>(v: &[T]) -> f64 {
    v.iter().map(|x| x.modulus()).sum()
}

/// Estimates `‖A⁻¹‖₁` with the Hager–Higham iteration, given solve closures
/// against an existing factorisation: `solve(b) = A⁻¹·b` and
/// `solve_transpose(b) = A⁻ᵀ·b`.
///
/// The iteration maximises `‖A⁻¹·x‖₁` over the cross-polytope: starting from
/// the uniform vector, each step evaluates the subgradient (a solve with the
/// sign pattern of the current image, against `Aᵀ`) and jumps to the unit
/// vector of its largest component, converging in 2–4 iterations in
/// practice. A final sweep with LAPACK `dlacn2`'s alternating test vector
/// guards against the rare patterns the greedy ascent misses. The result is
/// a **lower bound** of the true norm, almost always within a small factor
/// (the classic 10× estimator band); multiply by `‖A‖₁` for a condition
/// estimate.
pub(crate) fn invnorm1_estimate(
    n: usize,
    mut solve: impl FnMut(&[f64]) -> Vec<f64>,
    mut solve_transpose: impl FnMut(&[f64]) -> Vec<f64>,
) -> f64 {
    assert!(n > 0, "estimator dimension must be non-zero");
    let mut x = vec![1.0 / n as f64; n];
    let mut est = 0.0_f64;
    for iteration in 0..5 {
        let y = solve(&x);
        let y_norm = vec_norm_one(&y);
        if !y_norm.is_finite() {
            return y_norm;
        }
        if iteration > 0 && y_norm <= est {
            // The ascent stalled; the previous estimate stands.
            break;
        }
        est = est.max(y_norm);
        let xi: Vec<f64> = y.iter().map(|&v| if v < 0.0 { -1.0 } else { 1.0 }).collect();
        let z = solve_transpose(&xi);
        let (mut best, mut z_max) = (0usize, 0.0_f64);
        for (j, &zj) in z.iter().enumerate() {
            if zj.abs() > z_max {
                z_max = zj.abs();
                best = j;
            }
        }
        let z_dot_x: f64 = z.iter().zip(x.iter()).map(|(&zj, &xj)| zj * xj).sum();
        if z_max <= z_dot_x {
            // Optimality condition: no unit vector improves on the current x.
            break;
        }
        x.iter_mut().for_each(|v| *v = 0.0);
        x[best] = 1.0;
    }
    // dlacn2-style alternating-vector guard.
    let alt: Vec<f64> = (0..n)
        .map(|i| {
            let ramp = if n > 1 { 1.0 + i as f64 / (n - 1) as f64 } else { 1.0 };
            if i % 2 == 0 {
                ramp
            } else {
                -ramp
            }
        })
        .collect();
    let y = solve(&alt);
    est.max(2.0 * vec_norm_one(&y) / (3.0 * n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::lu::LuFactor;
    use crate::matrix::Matrix;

    #[test]
    fn backward_error_is_zero_for_exact_solves_and_scales_with_residual() {
        // A = 2·I, x = [1, 2], b = [2, 4]: exact.
        let ax = [2.0, 4.0];
        let x = [1.0, 2.0];
        let b = [2.0, 4.0];
        assert_eq!(backward_error(2.0, &ax, &x, &b), 0.0);
        // Perturb b by 1e-8: error = 1e-8 / (2·2 + ‖b‖∞).
        let b2 = [2.0, 4.0 + 1e-8];
        let be = backward_error(2.0, &ax, &x, &b2);
        let expected = 1e-8 / (2.0 * 2.0 + (4.0 + 1e-8));
        assert!((be - expected).abs() < 1e-6 * expected, "got {be}, expected {expected}");
        // Zero everything: defined as 0, not NaN.
        assert_eq!(backward_error(0.0, &[0.0], &[0.0], &[0.0]), 0.0);
        // Complex scalars run through the same formula.
        let caz = [Complex::new(0.0, 1.0)];
        let cx = [Complex::ONE];
        let cb = [Complex::new(0.0, 1.0)];
        assert_eq!(backward_error(1.0, &caz, &cx, &cb), 0.0);
    }

    #[test]
    fn vector_norms() {
        assert_eq!(vec_norm_inf(&[1.0, -3.0, 2.0]), 3.0);
        assert_eq!(vec_norm_one(&[1.0, -3.0, 2.0]), 6.0);
        assert_eq!(vec_norm_inf::<f64>(&[]), 0.0);
    }

    /// Exact `‖A⁻¹‖₁` by inverting column by column through the factors.
    fn exact_invnorm1(f: &LuFactor<f64>, n: usize) -> f64 {
        let mut worst = 0.0_f64;
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            worst = worst.max(vec_norm_one(&f.solve(&e)));
        }
        worst
    }

    #[test]
    fn estimate_is_a_tight_lower_bound_on_small_dense_systems() {
        let mut state = 0xC0FFEEu64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
        };
        for trial in 0..10 {
            let n = 3 + trial;
            let mut a = Matrix::<f64>::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = lcg();
                }
                // Vary the dominance so conditioning spans a few decades.
                a[(i, i)] += 1.0 + trial as f64;
            }
            let f = LuFactor::new(&a).unwrap();
            let mut at = Matrix::<f64>::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    at[(j, i)] = a[(i, j)];
                }
            }
            let ft = LuFactor::new(&at).unwrap();
            let est = invnorm1_estimate(n, |b| f.solve(b), |b| ft.solve(b));
            let exact = exact_invnorm1(&f, n);
            assert!(est <= exact * (1.0 + 1e-12), "estimate {est} exceeds exact {exact}");
            assert!(est >= exact / 10.0, "estimate {est} below the 10x band of exact {exact}");
        }
    }

    #[test]
    fn estimate_handles_dimension_one() {
        let est = invnorm1_estimate(1, |b| vec![b[0] / 4.0], |b| vec![b[0] / 4.0]);
        assert!((est - 0.25).abs() < 1e-15);
    }
}
