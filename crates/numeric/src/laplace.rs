//! Numerical inverse Laplace transforms.
//!
//! The exact transfer function of a lossy transmission line (Eq. (1) of the
//! paper) is easy to evaluate at a complex frequency but has no elementary
//! time-domain form. [`talbot`], the fixed-Talbot contour method of Abate &
//! Valkó, recovers `f(t)` from `F(s)` numerically; it handles oscillatory
//! (underdamped) responses and evaluates the step responses of RLC lines.

use crate::complex::Complex;

/// Inverts a Laplace transform at time `t` using the fixed-Talbot method.
///
/// `transform` evaluates `F(s)` at a complex frequency. `terms` controls the
/// number of contour nodes `M`; 32 is accurate to ~10 significant digits for
/// smooth transforms and is a good default.
///
/// Returns `0.0` for `t <= 0`, consistent with causal transforms.
///
/// # Panics
///
/// Panics if `terms < 2`.
///
/// # Example
///
/// ```
/// use rlckit_numeric::complex::Complex;
/// use rlckit_numeric::laplace::talbot;
///
/// // F(s) = 1 / (s + 1)  ⇒  f(t) = e^{-t}
/// let f = |s: Complex| (s + 1.0).recip();
/// let value = talbot(f, 1.0, 32);
/// assert!((value - (-1.0f64).exp()).abs() < 1e-8);
/// ```
pub fn talbot<F>(transform: F, t: f64, terms: usize) -> f64
where
    F: Fn(Complex) -> Complex,
{
    assert!(terms >= 2, "talbot requires at least 2 terms");
    if t <= 0.0 {
        return 0.0;
    }
    let m = terms;
    let r = 2.0 * m as f64 / (5.0 * t);

    // k = 0 term: s = r (the contour's real-axis crossing).
    let mut sum = 0.5 * (transform(Complex::from_real(r)) * (r * t).exp()).re;

    for k in 1..m {
        let theta = k as f64 * std::f64::consts::PI / m as f64;
        let cot = 1.0 / theta.tan();
        // Talbot contour point s(θ) = r·θ·(cot θ + j).
        let s = Complex::new(r * theta * cot, r * theta);
        // Direction factor σ(θ) = θ + (θ·cot θ − 1)·cot θ.
        let sigma = theta + (theta * cot - 1.0) * cot;
        let term = (s * t).exp() * transform(s) * Complex::new(1.0, sigma);
        sum += term.re;
    }
    r / m as f64 * sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn talbot_exponential_decay() {
        let f = |s: Complex| (s + 2.0).recip();
        for &t in &[0.1, 0.5, 1.0, 3.0] {
            let got = talbot(f, t, 32);
            let want = (-2.0 * t).exp();
            assert!((got - want).abs() < 1e-8, "t = {t}: got {got}, want {want}");
        }
    }

    #[test]
    fn talbot_damped_oscillation() {
        // F(s) = ω / ((s+a)² + ω²)  ⇒  f(t) = e^{-a t} sin(ω t)
        let (a, w) = (0.4, 3.0);
        let f = move |s: Complex| {
            let sa = s + a;
            Complex::from_real(w) / (sa * sa + w * w)
        };
        for &t in &[0.2, 0.7, 1.3, 2.9] {
            let got = talbot(f, t, 40);
            let want = (-a * t).exp() * (w * t).sin();
            assert!((got - want).abs() < 1e-7, "t = {t}: got {got}, want {want}");
        }
    }

    #[test]
    fn talbot_second_order_step_underdamped() {
        // Unit step through H(s) = 1/(s² + 2ζs + 1) with ζ = 0.3:
        // y(t) = 1 − e^{−ζt}( cos(ωd t) + ζ/ωd sin(ωd t) ), ωd = sqrt(1−ζ²).
        let zeta: f64 = 0.3;
        let wd = (1.0 - zeta * zeta).sqrt();
        let h = move |s: Complex| (s * s + 2.0 * zeta * s + 1.0).recip();
        for &t in &[0.5, 1.5, 3.0, 6.0, 10.0] {
            let got = talbot(|s| h(s) / s, t, 40);
            let want = 1.0 - (-zeta * t).exp() * ((wd * t).cos() + zeta / wd * (wd * t).sin());
            assert!((got - want).abs() < 1e-6, "t = {t}: got {got}, want {want}");
        }
    }

    #[test]
    fn talbot_at_non_positive_time_is_zero() {
        let f = |s: Complex| s.recip();
        assert_eq!(talbot(f, 0.0, 16), 0.0);
        assert_eq!(talbot(f, -1.0, 16), 0.0);
    }

    #[test]
    #[should_panic]
    fn talbot_too_few_terms_panics() {
        let _ = talbot(|s| s.recip(), 1.0, 1);
    }
}
