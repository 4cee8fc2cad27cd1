//! A minimal `f64` complex scalar.
//!
//! The allowed dependency set for this reproduction does not include
//! `num-complex`, so we provide exactly the operations the simulator and
//! transpiler need. The type is `Copy` and all arithmetic is implemented for
//! values and for mixed `Complex`/`f64` operands.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` over `f64`.
///
/// # Example
///
/// ```
/// use qufi_math::Complex;
///
/// let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
/// assert!((z.re).abs() < 1e-12);
/// assert!((z.im - 2.0).abs() < 1e-12);
/// assert!((z.norm() - 2.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}` — the unit phasor used everywhere in gate matrices.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Squared modulus `|z|²`; this is the Born-rule probability of an
    /// amplitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `z == 0`.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > 0.0, "reciprocal of zero complex number");
        Complex::new(self.re / d, -self.im / d)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Returns `true` when both parts differ by at most `tol`.
    #[inline]
    pub fn approx_eq(self, other: Complex, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division *is* multiplication by the reciprocal here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: f64) -> Complex {
        Complex::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: f64) -> Complex {
        Complex::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, z| acc + z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.5, 3.0);
        assert!((a + b - a - b).approx_eq(Complex::ZERO, 1e-15));
        assert!((a * b / b).approx_eq(a, 1e-12));
        assert!((-a + a).approx_eq(Complex::ZERO, 1e-15));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((Complex::I * Complex::I).approx_eq(-Complex::ONE, 1e-15));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(3.0, 0.7);
        assert!((z.norm() - 3.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cis_period() {
        assert!(Complex::cis(2.0 * PI).approx_eq(Complex::ONE, 1e-12));
        assert!(Complex::cis(PI).approx_eq(-Complex::ONE, 1e-12));
    }

    #[test]
    fn conj_multiplication_gives_norm_sqr() {
        let z = Complex::new(2.0, -5.0);
        let n = z * z.conj();
        assert!((n.re - z.norm_sqr()).abs() < 1e-12);
        assert!(n.im.abs() < 1e-12);
    }

    #[test]
    fn mixed_real_ops() {
        let z = Complex::new(1.0, 1.0);
        assert!((z * 2.0).approx_eq(Complex::new(2.0, 2.0), 1e-15));
        assert!((2.0 * z).approx_eq(Complex::new(2.0, 2.0), 1e-15));
        assert!((z / 2.0).approx_eq(Complex::new(0.5, 0.5), 1e-15));
        assert!((z + 1.0).approx_eq(Complex::new(2.0, 1.0), 1e-15));
        assert!((z - 1.0).approx_eq(Complex::new(0.0, 1.0), 1e-15));
    }

    #[test]
    fn sum_iterator() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert!(total.approx_eq(Complex::new(6.0, 4.0), 1e-15));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex::new(1.0, -1.0)), "1.000000-1.000000i");
        assert_eq!(format!("{}", Complex::new(0.0, 2.0)), "0.000000+2.000000i");
    }
}
