//! Bracketing root finders.
//!
//! Used to solve `Vout(t) = 0.5` for the 50% propagation delay on analytic
//! step responses, and anywhere else a monotone crossing must be located.

use std::error::Error;
use std::fmt;

/// Error returned by the root finders.
#[derive(Debug, Clone, PartialEq)]
pub enum RootError {
    /// `f(a)` and `f(b)` have the same sign, so no root is bracketed.
    NotBracketed {
        /// Function value at the lower end of the interval.
        fa: f64,
        /// Function value at the upper end of the interval.
        fb: f64,
    },
    /// The iteration limit was reached before the tolerance was met.
    MaxIterations {
        /// Best estimate of the root when iteration stopped.
        best: f64,
    },
    /// The function returned a non-finite value.
    NonFinite {
        /// Argument at which the function was non-finite.
        at: f64,
    },
}

impl fmt::Display for RootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotBracketed { fa, fb } => {
                write!(f, "interval does not bracket a root (f(a) = {fa}, f(b) = {fb})")
            }
            Self::MaxIterations { best } => {
                write!(f, "maximum iterations reached (best estimate {best})")
            }
            Self::NonFinite { at } => write!(f, "function value is not finite at x = {at}"),
        }
    }
}

impl Error for RootError {}

/// Finds a root of `f` in `[a, b]` using Brent's method.
///
/// Combines bisection, secant and inverse quadratic interpolation; this is the
/// workhorse root finder of the workspace.
///
/// # Errors
///
/// Returns [`RootError::NotBracketed`] if `f(a)` and `f(b)` have the same
/// sign, [`RootError::NonFinite`] if `f` produces NaN/infinity, and
/// [`RootError::MaxIterations`] if the tolerance is not reached.
pub fn brent<F>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError>
where
    F: FnMut(f64) -> f64,
{
    let mut fa = f(a);
    let mut fb = f(b);
    if !fa.is_finite() {
        return Err(RootError::NonFinite { at: a });
    }
    if !fb.is_finite() {
        return Err(RootError::NonFinite { at: b });
    }
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NotBracketed { fa, fb });
    }

    // Ensure |f(b)| <= |f(a)| so b is the best estimate.
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;

    for _ in 0..max_iter {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s;
        if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            s = a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb));
        } else {
            // Secant.
            s = b - fb * (b - a) / (fb - fa);
        }

        let lower = (3.0 * a + b) / 4.0;
        let cond1 =
            !((s > lower.min(b) && s < lower.max(b)) || (s > b.min(lower) && s < b.max(lower)));
        let cond2 = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond3 = !mflag && (s - b).abs() >= (c - d).abs() / 2.0;
        let cond4 = mflag && (b - c).abs() < tol;
        let cond5 = !mflag && (c - d).abs() < tol;
        if cond1 || cond2 || cond3 || cond4 || cond5 {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }

        let fs = f(s);
        if !fs.is_finite() {
            return Err(RootError::NonFinite { at: s });
        }
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(RootError::MaxIterations { best: b })
}

/// Expands an initial guess interval geometrically until it brackets a root.
///
/// Starting from `[a, b]`, the upper end is multiplied by `factor` up to
/// `max_expansions` times until `f` changes sign. Returns the bracketing
/// interval.
///
/// # Errors
///
/// Returns [`RootError::NotBracketed`] if no sign change is found within the
/// allowed number of expansions.
pub fn expand_bracket<F>(
    mut f: F,
    a: f64,
    mut b: f64,
    factor: f64,
    max_expansions: usize,
) -> Result<(f64, f64), RootError>
where
    F: FnMut(f64) -> f64,
{
    let fa = f(a);
    if !fa.is_finite() {
        return Err(RootError::NonFinite { at: a });
    }
    let mut fb = f(b);
    if !fb.is_finite() {
        return Err(RootError::NonFinite { at: b });
    }
    for _ in 0..max_expansions {
        if fa.signum() != fb.signum() {
            return Ok((a, b));
        }
        b *= factor;
        fb = f(b);
        if !fb.is_finite() {
            return Err(RootError::NonFinite { at: b });
        }
    }
    if fa.signum() != fb.signum() {
        Ok((a, b))
    } else {
        Err(RootError::NotBracketed { fa, fb })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_finds_sqrt_two_faster() {
        let mut count_brent = 0usize;
        let r = brent(
            |x| {
                count_brent += 1;
                x * x - 2.0
            },
            0.0,
            2.0,
            1e-14,
            100,
        )
        .unwrap();
        assert!((r - 2f64.sqrt()).abs() < 1e-12);
        assert!(count_brent < 45, "brent used {count_brent} evaluations");
    }

    #[test]
    fn exact_endpoint_roots_are_returned() {
        assert_eq!(brent(|x| x, 0.0, 1.0, 1e-12, 10).unwrap(), 0.0);
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, 1e-12, 10).unwrap(), 1.0);
    }

    #[test]
    fn unbracketed_interval_is_an_error() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(RootError::NotBracketed { .. })
        ));
    }

    #[test]
    fn non_finite_function_is_an_error() {
        assert!(matches!(
            brent(|x| if x > 0.5 { f64::NAN } else { -1.0 }, 0.0, 1.0, 1e-12, 100),
            Err(RootError::NonFinite { .. })
        ));
    }

    #[test]
    fn transcendental_root() {
        // cos(x) = x has a root near 0.739085.
        let r = brent(|x| x.cos() - x, 0.0, 1.0, 1e-14, 100).unwrap();
        assert!((r - 0.7390851332151607).abs() < 1e-10);
    }

    #[test]
    fn nearly_flat_function() {
        // f(x) = (x - 0.3)^3 is flat near the root; brent should still converge.
        let r = brent(|x| (x - 0.3).powi(3), 0.0, 1.0, 1e-12, 200).unwrap();
        assert!((r - 0.3).abs() < 1e-4);
    }

    #[test]
    fn expand_bracket_grows_interval() {
        // Root at x = 100, initial interval [0, 1] does not bracket it.
        let (a, b) = expand_bracket(|x| x - 100.0, 0.0, 1.0, 2.0, 20).unwrap();
        assert!(a <= 100.0 && b >= 100.0);
        let r = brent(|x| x - 100.0, a, b, 1e-12, 100).unwrap();
        assert!((r - 100.0).abs() < 1e-9);
    }

    #[test]
    fn expand_bracket_rejects_non_finite_endpoints() {
        // Regression: a NaN at the *initial* endpoints used to slip through
        // (only expanded endpoints were checked), making signum() comparisons
        // silently meaningless.
        assert!(matches!(
            expand_bracket(|x| if x == 0.0 { f64::NAN } else { x }, 0.0, 1.0, 2.0, 5),
            Err(RootError::NonFinite { .. })
        ));
        assert!(matches!(
            expand_bracket(|x| if x == 1.0 { f64::INFINITY } else { x }, 0.0, 1.0, 2.0, 5),
            Err(RootError::NonFinite { .. })
        ));
    }

    #[test]
    fn expand_bracket_gives_up() {
        assert!(matches!(
            expand_bracket(|_| 1.0, 0.0, 1.0, 2.0, 5),
            Err(RootError::NotBracketed { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = RootError::NotBracketed { fa: 1.0, fb: 2.0 };
        assert!(e.to_string().contains("bracket"));
        let e = RootError::MaxIterations { best: 0.5 };
        assert!(e.to_string().contains("0.5"));
        let e = RootError::NonFinite { at: 2.0 };
        assert!(e.to_string().contains("finite"));
    }
}
