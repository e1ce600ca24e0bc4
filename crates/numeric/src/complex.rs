//! A minimal complex-number type.
//!
//! The workspace deliberately avoids external numerics dependencies, so this
//! module provides the small subset of complex arithmetic needed for
//! frequency-domain circuit analysis and the Talbot inverse Laplace transform:
//! field arithmetic, exponential, hyperbolic functions and the principal
//! square root.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + j·im` with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar form `r·e^{jθ}`.
    #[inline]
    pub(crate) fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` (avoids the square root).
    #[inline]
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns infinities if `z` is zero, mirroring `f64` division semantics.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Self::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Principal square root (branch cut along the negative real axis).
    #[inline]
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Self::ZERO;
        }
        let r = self.abs();
        let theta = self.arg() / 2.0;
        Self::from_polar(r.sqrt(), theta)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl Add for Complex {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Complex {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Self::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Neg for Complex {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex {
    type Output = Self;
    #[inline]
    fn add(self, rhs: f64) -> Self {
        Self::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: f64) -> Self {
        Self::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Add<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        rhs + self
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn field_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert!(close(a / b * b, a));
        assert!(close(a * a.recip(), Complex::ONE));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn mixed_real_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        assert_eq!(a + 1.0, Complex::new(2.0, 2.0));
        assert_eq!(a - 1.0, Complex::new(0.0, 2.0));
        assert_eq!(a * 2.0, Complex::new(2.0, 4.0));
        assert_eq!(2.0 * a, Complex::new(2.0, 4.0));
        assert_eq!(a / 2.0, Complex::new(0.5, 1.0));
        assert_eq!(1.0 + a, Complex::new(2.0, 2.0));
        assert_eq!(Complex::from(3.0), Complex::new(3.0, 0.0));
    }

    #[test]
    fn polar_and_magnitude() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!(z.re.abs() < EPS);
        assert!((z.im - 2.0).abs() < EPS);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
        assert_eq!(z.conj().im, -z.im);
        assert!((z.norm_sqr() - 4.0).abs() < EPS);
    }

    #[test]
    fn exp_ln_sqrt() {
        let z = Complex::new(0.3, -0.7);
        assert!(close(z.sqrt() * z.sqrt(), z));
        // e^{jπ} = -1
        let euler = (Complex::new(0.0, 1.0) * std::f64::consts::PI).exp();
        assert!(close(euler, Complex::new(-1.0, 0.0)));
        // Principal square root of -1 is +j.
        assert!(close(Complex::new(-1.0, 0.0).sqrt(), Complex::new(0.0, 1.0)));
        assert_eq!(Complex::ZERO.sqrt(), Complex::ZERO);
    }

    #[test]
    fn sum_and_display() {
        let s: Complex = [Complex::new(1.0, 1.0), Complex::new(2.0, -3.0)].into_iter().sum();
        assert_eq!(s, Complex::new(3.0, -2.0));
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1-2j");
        assert_eq!(format!("{}", Complex::new(1.0, 2.0)), "1+2j");
    }

    #[test]
    fn finiteness() {
        assert!(Complex::new(1.0, 2.0).is_finite());
        assert!(!Complex::new(f64::NAN, 0.0).is_finite());
        assert!(!Complex::new(0.0, f64::INFINITY).is_finite());
    }
}
