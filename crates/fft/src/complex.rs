//! A minimal complex number type.
//!
//! The workspace's dependency policy (DESIGN.md §6) avoids pulling in `num`;
//! the FFT needs only a handful of operations, implemented here.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

    /// Construct from real and imaginary parts.
    #[inline(always)]
    pub fn new(re: f64, im: f64) -> Complex64 {
        Complex64 { re, im }
    }

    /// A purely real value.
    pub fn from_re(re: f64) -> Complex64 {
        Complex64 { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    pub fn expi(theta: f64) -> Complex64 {
        Complex64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Complex64 {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiply by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Complex64 {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, o: Complex64) -> Complex64 {
        Complex64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, o: Complex64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, o: Complex64) {
        self.re -= o.re;
        self.im -= o.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, o: Complex64) {
        *self = *self * o;
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

/// Maximum absolute elementwise difference between two complex buffers —
/// the error metric used throughout the FFT tests.
pub fn max_error(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex64::new(3.0, -2.0);
        assert_eq!(a + Complex64::ZERO, a);
        assert_eq!(a * Complex64::ONE, a);
        assert_eq!(a - a, Complex64::ZERO);
        assert_eq!(-a, Complex64::new(-3.0, 2.0));
    }

    #[test]
    fn multiplication() {
        // (1 + 2i)(3 + 4i) = 3 + 4i + 6i - 8 = -5 + 10i
        let p = Complex64::new(1.0, 2.0) * Complex64::new(3.0, 4.0);
        assert_eq!(p, Complex64::new(-5.0, 10.0));
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex64::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex64::new(3.0, -4.0));
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        // a * conj(a) is real and equals |a|².
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < 1e-12 && p.im.abs() < 1e-12);
    }

    #[test]
    fn euler_identity() {
        let e = Complex64::expi(std::f64::consts::PI);
        assert!((e.re + 1.0).abs() < 1e-15);
        assert!(e.im.abs() < 1e-15);
    }

    #[test]
    fn unit_roots_multiply() {
        // e^{ia} * e^{ib} = e^{i(a+b)}
        let (a, b) = (0.7, 1.9);
        let lhs = Complex64::expi(a) * Complex64::expi(b);
        let rhs = Complex64::expi(a + b);
        assert!((lhs - rhs).abs() < 1e-15);
    }

    #[test]
    fn assign_ops() {
        let mut a = Complex64::new(1.0, 1.0);
        a += Complex64::new(2.0, 0.0);
        a -= Complex64::new(0.0, 1.0);
        a *= Complex64::new(0.0, 1.0);
        assert_eq!(a, Complex64::new(0.0, 3.0));
    }

    #[test]
    fn max_error_metric() {
        let a = vec![Complex64::ZERO, Complex64::new(1.0, 0.0)];
        let b = vec![Complex64::ZERO, Complex64::new(1.0, 2.0)];
        assert_eq!(max_error(&a, &b), 2.0);
    }
}
