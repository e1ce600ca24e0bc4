//! Bracketing root finding and the first-crossing search built on it.
//!
//! [`first_crossing`] is how every closed-form step response (pole–residue,
//! two-pole, exact two-port) finds its delay: a uniform scan for the first
//! sample interval that crosses the level, by the same test
//! ([`rises_through`]) that reads a simulated waveform, refined by
//! [`brent`].

use std::error::Error;
use std::fmt;

use crate::interp::rises_through;

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
    /// [`first_crossing`] scanned its last horizon without a crossing.
    NoCrossing {
        /// The last horizon scanned.
        horizon: f64,
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
            Self::NoCrossing { horizon } => write!(f, "no crossing within x = {horizon:.3e}"),
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

/// First time `f` crosses `level`, upward when `rising` and downward
/// otherwise: the one first-crossing rule of the workspace's closed-form
/// delays.
///
/// Samples `t = horizon·i/samples` for `i = 0..=samples` and reads each as
/// `g = f(t) − level` (rising) or `level − f(t)` (falling). The first
/// interval whose ends satisfy [`rises_through`]`(g_prev, g_next, 0)` is
/// refined with [`brent`] on `g` to `tol`. If no interval crosses, the
/// horizon grows fourfold and the scan starts again from `t = 0`, up to
/// `attempts` horizons.
///
/// # Errors
///
/// Returns [`RootError::NonFinite`] at the first non-finite sample (never
/// a crossing), [`RootError::NoCrossing`] if the last horizon holds no
/// crossing, and the errors of [`brent`] from the refinement.
pub fn first_crossing<F>(
    mut f: F,
    level: f64,
    rising: bool,
    mut horizon: f64,
    samples: usize,
    attempts: usize,
    tol: f64,
) -> Result<f64, RootError>
where
    F: FnMut(f64) -> f64,
{
    let mut g = |t: f64| if rising { f(t) - level } else { level - f(t) };
    let finite =
        |g: f64, at: f64| if g.is_finite() { Ok(g) } else { Err(RootError::NonFinite { at }) };
    for attempt in 1..=attempts {
        let (mut prev_t, mut prev_g) = (0.0, finite(g(0.0), 0.0)?);
        for i in 1..=samples {
            let t = horizon * i as f64 / samples as f64;
            let next_g = finite(g(t), t)?;
            if rises_through(prev_g, next_g, 0.0) {
                return brent(&mut g, prev_t, t, tol, 200);
            }
            (prev_t, prev_g) = (t, next_g);
        }
        if attempt < attempts {
            horizon *= 4.0;
        }
    }
    Err(RootError::NoCrossing { horizon })
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
    fn error_display() {
        let e = RootError::NotBracketed { fa: 1.0, fb: 2.0 };
        assert!(e.to_string().contains("bracket"));
        let e = RootError::MaxIterations { best: 0.5 };
        assert!(e.to_string().contains("0.5"));
        let e = RootError::NonFinite { at: 2.0 };
        assert!(e.to_string().contains("finite"));
        let e = RootError::NoCrossing { horizon: 8.0 };
        assert!(e.to_string().contains("8.000e0"));
    }
}
