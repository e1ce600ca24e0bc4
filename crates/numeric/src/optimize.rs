//! Derivative-free minimisation.
//!
//! The repeater-insertion problem minimises the total propagation delay
//! `tpdtotal(h, k)` over the repeater size `h` and the number of sections `k`.
//! The paper solves the two coupled stationarity equations numerically; here
//! we minimise the same objective directly with a Nelder–Mead simplex.

use std::error::Error;
use std::fmt;

/// Error returned by the optimisers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The iteration limit was reached before the tolerance was met.
    MaxIterations {
        /// Best point found so far.
        best: Vec<f64>,
        /// Objective value at `best`.
        value: f64,
    },
    /// The objective returned a non-finite value at the given point.
    NonFinite {
        /// Point at which the objective was non-finite.
        at: Vec<f64>,
    },
    /// An invalid search interval or bound was supplied.
    InvalidBounds {
        /// Human-readable description of the problem.
        reason: &'static str,
    },
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MaxIterations { value, .. } => {
                write!(f, "maximum iterations reached (best objective {value})")
            }
            Self::NonFinite { at } => write!(f, "objective is not finite at {at:?}"),
            Self::InvalidBounds { reason } => write!(f, "invalid bounds: {reason}"),
        }
    }
}

impl Error for OptimizeError {}

/// Result of a successful minimisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Minimum {
    /// Location of the minimum.
    pub point: Vec<f64>,
    /// Objective value at [`Minimum::point`].
    pub value: f64,
    /// Number of objective evaluations used.
    pub evaluations: usize,
}

/// Configuration for [`nelder_mead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Initial simplex edge length relative to the magnitude of the start point.
    pub initial_step: f64,
    /// Convergence tolerance on the spread of objective values in the simplex.
    pub tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        Self { initial_step: 0.1, tolerance: 1e-10, max_iterations: 2000 }
    }
}

/// Minimises an n-dimensional function with the Nelder–Mead simplex method.
///
/// The objective may return `f64::INFINITY` to encode constraints (e.g.
/// "repeater count must be at least one"); infinite values are handled as
/// "worse than anything finite". NaN is treated as an error.
///
/// # Errors
///
/// Returns [`OptimizeError::NonFinite`] if the objective returns NaN at any
/// probed point, [`OptimizeError::InvalidBounds`] for an empty start point,
/// and [`OptimizeError::MaxIterations`] when convergence is not reached (the
/// best point found is included in the error).
pub fn nelder_mead<F>(
    mut f: F,
    start: &[f64],
    options: NelderMeadOptions,
) -> Result<Minimum, OptimizeError>
where
    F: FnMut(&[f64]) -> f64,
{
    let n = start.len();
    if n == 0 {
        return Err(OptimizeError::InvalidBounds { reason: "start point must be non-empty" });
    }
    if start.iter().any(|x| !x.is_finite()) {
        // Catch NaN/∞ at the entry point: inside the iteration such a start
        // would poison every centroid silently rather than fail loudly.
        return Err(OptimizeError::NonFinite { at: start.to_vec() });
    }
    if !options.initial_step.is_finite() || !options.tolerance.is_finite() {
        return Err(OptimizeError::InvalidBounds {
            reason: "initial step and tolerance must be finite",
        });
    }
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> Result<f64, OptimizeError> {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            Err(OptimizeError::NonFinite { at: x.to_vec() })
        } else {
            Ok(v)
        }
    };

    // Build the initial simplex: start point plus one vertex per coordinate.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(start.to_vec());
    for i in 0..n {
        let mut v = start.to_vec();
        let step = if v[i].abs() > 1e-12 {
            options.initial_step * v[i].abs()
        } else {
            options.initial_step
        };
        v[i] += step;
        simplex.push(v);
    }
    let mut values: Vec<f64> = Vec::with_capacity(n + 1);
    for v in &simplex {
        values.push(eval(v, &mut evals)?);
    }

    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    for _ in 0..options.max_iterations {
        // Order the simplex by objective value.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&i, &j| {
            values[i].partial_cmp(&values[j]).unwrap_or(std::cmp::Ordering::Equal)
        });
        let simplex_sorted: Vec<Vec<f64>> = order.iter().map(|&i| simplex[i].clone()).collect();
        let values_sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        simplex = simplex_sorted;
        values = values_sorted;

        let best = values[0];
        let worst = values[n];
        if (worst - best).abs() < options.tolerance * (1.0 + best.abs()) {
            return Ok(Minimum { point: simplex[0].clone(), value: best, evaluations: evals });
        }

        // Centroid of all points except the worst.
        let mut centroid = vec![0.0; n];
        for v in simplex.iter().take(n) {
            for (c, vi) in centroid.iter_mut().zip(v.iter()) {
                *c += vi / n as f64;
            }
        }

        let reflect: Vec<f64> =
            centroid.iter().zip(simplex[n].iter()).map(|(c, w)| c + ALPHA * (c - w)).collect();
        let f_reflect = eval(&reflect, &mut evals)?;

        if f_reflect < values[0] {
            // Try expansion.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(simplex[n].iter())
                .map(|(c, w)| c + GAMMA * ALPHA * (c - w))
                .collect();
            let f_expand = eval(&expand, &mut evals)?;
            if f_expand < f_reflect {
                simplex[n] = expand;
                values[n] = f_expand;
            } else {
                simplex[n] = reflect;
                values[n] = f_reflect;
            }
        } else if f_reflect < values[n - 1] {
            simplex[n] = reflect;
            values[n] = f_reflect;
        } else {
            // Contraction.
            let contract: Vec<f64> =
                centroid.iter().zip(simplex[n].iter()).map(|(c, w)| c + RHO * (w - c)).collect();
            let f_contract = eval(&contract, &mut evals)?;
            if f_contract < values[n] {
                simplex[n] = contract;
                values[n] = f_contract;
            } else {
                // Shrink the whole simplex towards the best vertex.
                let best_point = simplex[0].clone();
                for i in 1..=n {
                    for j in 0..n {
                        simplex[i][j] = best_point[j] + SIGMA * (simplex[i][j] - best_point[j]);
                    }
                    values[i] = eval(&simplex[i].clone(), &mut evals)?;
                }
            }
        }
    }

    // Report the best point found with the error.
    let (idx, &value) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("simplex is non-empty");
    Err(OptimizeError::MaxIterations { best: simplex[idx].clone(), value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_rosenbrock() {
        let rosen = |p: &[f64]| {
            let (x, y) = (p[0], p[1]);
            (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
        };
        let m = nelder_mead(
            rosen,
            &[-1.2, 1.0],
            NelderMeadOptions { initial_step: 0.5, tolerance: 1e-14, max_iterations: 5000 },
        )
        .unwrap();
        assert!((m.point[0] - 1.0).abs() < 1e-4, "x = {}", m.point[0]);
        assert!((m.point[1] - 1.0).abs() < 1e-4, "y = {}", m.point[1]);
        assert!(m.value < 1e-7);
    }

    #[test]
    fn nelder_mead_handles_infinite_barrier() {
        // Constrained quadratic: objective is +inf for x < 0.5.
        let f = |p: &[f64]| {
            if p[0] < 0.5 {
                f64::INFINITY
            } else {
                (p[0] - 0.2).powi(2)
            }
        };
        let m = nelder_mead(f, &[2.0], NelderMeadOptions::default()).unwrap();
        assert!((m.point[0] - 0.5).abs() < 1e-3, "constrained minimum at 0.5, got {}", m.point[0]);
    }

    #[test]
    fn non_finite_inputs_are_rejected_at_the_entry_points() {
        // Satellite hardening: non-finite *inputs* (not just objective
        // values) must surface as typed errors, never as silent NaN drift.
        assert!(matches!(
            nelder_mead(|p| p[0], &[1.0, f64::NAN], NelderMeadOptions::default()),
            Err(OptimizeError::NonFinite { .. })
        ));
        assert!(matches!(
            nelder_mead(
                |p| p[0],
                &[1.0],
                NelderMeadOptions { initial_step: f64::INFINITY, ..Default::default() }
            ),
            Err(OptimizeError::InvalidBounds { .. })
        ));
    }

    #[test]
    fn nelder_mead_rejects_nan() {
        let f = |_: &[f64]| f64::NAN;
        assert!(matches!(
            nelder_mead(f, &[1.0], NelderMeadOptions::default()),
            Err(OptimizeError::NonFinite { .. })
        ));
    }

    #[test]
    fn nelder_mead_empty_start() {
        let f = |_: &[f64]| 0.0;
        assert!(matches!(
            nelder_mead(f, &[], NelderMeadOptions::default()),
            Err(OptimizeError::InvalidBounds { .. })
        ));
    }

    #[test]
    fn nelder_mead_reports_best_on_iteration_limit() {
        let f = |p: &[f64]| p[0] * p[0];
        let err = nelder_mead(
            f,
            &[10.0],
            NelderMeadOptions { initial_step: 0.1, tolerance: 0.0, max_iterations: 3 },
        )
        .unwrap_err();
        match err {
            OptimizeError::MaxIterations { best, value } => {
                assert_eq!(best.len(), 1);
                assert!(value.is_finite());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        assert!(OptimizeError::MaxIterations { best: vec![1.0], value: 2.0 }
            .to_string()
            .contains("maximum"));
        assert!(OptimizeError::NonFinite { at: vec![0.0] }.to_string().contains("finite"));
        assert!(OptimizeError::InvalidBounds { reason: "x" }.to_string().contains("x"));
    }
}
