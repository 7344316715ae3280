//! Complex arithmetic used throughout the reproduction.
//!
//! Two representations are provided:
//!
//! * [`Cplx`] — double-precision complex number used by the reference
//!   (golden-model) implementations of the FFT and the Discrete Spectral
//!   Correlation Function.
//! * [`CplxQ15`] — a complex number whose real and imaginary parts are Q15
//!   fixed-point values (see [`crate::fixed`]), matching the 16-bit datapath
//!   of a Montium tile.

use crate::fixed::Q15;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
///
/// This is the work-horse numeric type for the golden-model DSP chain
/// (signal generation, FFT, spectral correlation). It intentionally mirrors
/// the small subset of functionality the reproduction needs rather than
/// pulling in a full complex-math crate.
///
/// # Examples
///
/// ```
/// use cfd_dsp::complex::Cplx;
///
/// let a = Cplx::new(1.0, 2.0);
/// let b = Cplx::new(3.0, -1.0);
/// let product = a * b;
/// assert_eq!(product, Cplx::new(5.0, 5.0));
/// assert!((a.abs() - 5.0_f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cplx {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1j`.
    pub const I: Cplx = Cplx { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Cplx { re, im }
    }

    /// Creates a complex number from polar coordinates.
    ///
    /// `magnitude * exp(j * phase)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cfd_dsp::complex::Cplx;
    /// let c = Cplx::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((c.re).abs() < 1e-12);
    /// assert!((c.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(magnitude: f64, phase: f64) -> Self {
        Cplx::new(magnitude * phase.cos(), magnitude * phase.sin())
    }

    /// `exp(j * phase)` — a unit phasor, the twiddle-factor primitive.
    #[inline]
    pub fn cis(phase: f64) -> Self {
        Cplx::from_polar(1.0, phase)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Cplx::new(self.re, -self.im)
    }

    /// Magnitude (Euclidean norm).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `re² + im²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, factor: f64) -> Self {
        Cplx::new(self.re * factor, self.im * factor)
    }

    /// Reciprocal `1/self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `self` is zero (the result is then
    /// non-finite).
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d != 0.0, "reciprocal of zero complex number");
        Cplx::new(self.re / d, -self.im / d)
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Quantises to a Q15 fixed-point complex value (saturating).
    #[inline]
    pub fn to_q15(self) -> CplxQ15 {
        CplxQ15::new(Q15::from_f64(self.re), Q15::from_f64(self.im))
    }
}

impl fmt::Display for Cplx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im < 0.0 {
            write!(f, "{}-{}j", self.re, -self.im)
        } else {
            write!(f, "{}+{}j", self.re, self.im)
        }
    }
}

impl Add for Cplx {
    type Output = Cplx;
    #[inline]
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cplx {
    #[inline]
    fn add_assign(&mut self, rhs: Cplx) {
        *self = *self + rhs;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    #[inline]
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cplx {
    #[inline]
    fn sub_assign(&mut self, rhs: Cplx) {
        *self = *self - rhs;
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: Cplx) -> Cplx {
        Cplx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Cplx {
    #[inline]
    fn mul_assign(&mut self, rhs: Cplx) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Cplx {
    type Output = Cplx;
    #[inline]
    fn mul(self, rhs: f64) -> Cplx {
        self.scale(rhs)
    }
}

impl Div<f64> for Cplx {
    type Output = Cplx;
    #[inline]
    fn div(self, rhs: f64) -> Cplx {
        Cplx::new(self.re / rhs, self.im / rhs)
    }
}

impl Div for Cplx {
    type Output = Cplx;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // division as multiply-by-reciprocal
    fn div(self, rhs: Cplx) -> Cplx {
        self * rhs.recip()
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    #[inline]
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

impl Sum for Cplx {
    fn sum<I: Iterator<Item = Cplx>>(iter: I) -> Cplx {
        iter.fold(Cplx::ZERO, |acc, x| acc + x)
    }
}

impl From<f64> for Cplx {
    #[inline]
    fn from(re: f64) -> Self {
        Cplx::new(re, 0.0)
    }
}

impl From<(f64, f64)> for Cplx {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Cplx::new(re, im)
    }
}

/// A complex number with Q15 fixed-point real and imaginary parts.
///
/// This mirrors the 16-bit datapath of the Montium tile: each part is a
/// signed 16-bit value interpreted as a fraction in `[-1, 1)`. Operations
/// saturate, as a DSP datapath would.
///
/// # Examples
///
/// ```
/// use cfd_dsp::complex::{Cplx, CplxQ15};
///
/// let a = Cplx::new(0.5, -0.25).to_q15();
/// let b = Cplx::new(0.5, 0.5).to_q15();
/// let p = a.mul(b);
/// let back = p.to_cplx();
/// assert!((back.re - 0.375).abs() < 1e-3);
/// assert!((back.im - 0.125).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CplxQ15 {
    /// Real part (Q15).
    pub re: Q15,
    /// Imaginary part (Q15).
    pub im: Q15,
}

// Named methods instead of operator traits: every call site is an explicit
// fixed-point operation with saturation semantics, which the DSP code keeps
// visually distinct from f64 arithmetic.
#[allow(clippy::should_implement_trait)]
impl CplxQ15 {
    /// The additive identity.
    pub const ZERO: CplxQ15 = CplxQ15 {
        re: Q15::ZERO,
        im: Q15::ZERO,
    };

    /// Creates a fixed-point complex number from its parts.
    #[inline]
    pub const fn new(re: Q15, im: Q15) -> Self {
        CplxQ15 { re, im }
    }

    /// Quantises a floating-point complex number (saturating).
    #[inline]
    pub fn from_cplx(value: Cplx) -> Self {
        value.to_q15()
    }

    /// Converts back to double precision.
    #[inline]
    pub fn to_cplx(self) -> Cplx {
        Cplx::new(self.re.to_f64(), self.im.to_f64())
    }

    /// Complex conjugate (saturating negation of the imaginary part).
    #[inline]
    pub fn conj(self) -> Self {
        CplxQ15::new(self.re, self.im.saturating_neg())
    }

    /// Saturating addition.
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        CplxQ15::new(
            self.re.saturating_add(rhs.re),
            self.im.saturating_add(rhs.im),
        )
    }

    /// Saturating subtraction.
    #[inline]
    pub fn sub(self, rhs: Self) -> Self {
        CplxQ15::new(
            self.re.saturating_sub(rhs.re),
            self.im.saturating_sub(rhs.im),
        )
    }

    /// Saturating complex multiplication.
    ///
    /// The four partial products are computed in 32-bit precision and the
    /// combination is saturated back to Q15, matching a 16×16→32-bit
    /// multiplier with a saturating output stage.
    #[inline]
    pub fn mul(self, rhs: Self) -> Self {
        let rr = self.re.wide_mul(rhs.re);
        let ii = self.im.wide_mul(rhs.im);
        let ri = self.re.wide_mul(rhs.im);
        let ir = self.im.wide_mul(rhs.re);
        CplxQ15::new(Q15::from_wide(rr - ii), Q15::from_wide(ri + ir))
    }

    /// `self * conj(rhs)` — the primitive of the spectral correlation.
    #[inline]
    pub fn mul_conj(self, rhs: Self) -> Self {
        self.mul(rhs.conj())
    }

    /// Squared magnitude as an f64 (for detector statistics).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.to_cplx().norm_sqr()
    }
}

impl fmt::Display for CplxQ15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.re, self.im)
    }
}

impl From<Cplx> for CplxQ15 {
    fn from(value: Cplx) -> Self {
        value.to_q15()
    }
}

impl From<CplxQ15> for Cplx {
    fn from(value: CplxQ15) -> Self {
        value.to_cplx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Cplx, b: Cplx, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn addition_and_subtraction_are_componentwise() {
        let a = Cplx::new(1.0, 2.0);
        let b = Cplx::new(-3.0, 0.5);
        assert_eq!(a + b, Cplx::new(-2.0, 2.5));
        assert_eq!(a - b, Cplx::new(4.0, 1.5));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Cplx::new(2.0, 3.0);
        let b = Cplx::new(4.0, -5.0);
        // (2+3j)(4-5j) = 8 -10j +12j +15 = 23 + 2j
        assert_eq!(a * b, Cplx::new(23.0, 2.0));
    }

    #[test]
    fn division_is_inverse_of_multiplication() {
        let a = Cplx::new(2.0, 3.0);
        let b = Cplx::new(4.0, -5.0);
        assert!(close((a * b) / b, a, 1e-12));
    }

    #[test]
    fn conjugate_properties() {
        let a = Cplx::new(1.5, -2.5);
        assert_eq!(a.conj().conj(), a);
        let p = a * a.conj();
        assert!((p.im).abs() < 1e-12);
        assert!((p.re - a.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn polar_round_trip() {
        let c = Cplx::from_polar(3.0, 1.2);
        assert!((c.abs() - 3.0).abs() < 1e-12);
        assert!((c.arg() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let phase = k as f64 * 0.41;
            assert!((Cplx::cis(phase).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_of_phasors_around_circle_is_zero() {
        let n = 32;
        let total: Cplx = (0..n)
            .map(|k| Cplx::cis(2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .sum();
        assert!(total.abs() < 1e-10);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Cplx::new(1.0, -2.0).to_string(), "1-2j");
        assert_eq!(Cplx::new(1.0, 2.0).to_string(), "1+2j");
    }

    #[test]
    fn recip_and_scale() {
        let a = Cplx::new(0.0, 2.0);
        assert!(close(a.recip(), Cplx::new(0.0, -0.5), 1e-12));
        assert_eq!(a.scale(2.0), Cplx::new(0.0, 4.0));
        assert_eq!(a * 2.0, Cplx::new(0.0, 4.0));
        assert_eq!(a / 2.0, Cplx::new(0.0, 1.0));
        assert_eq!(-a, Cplx::new(0.0, -2.0));
    }

    #[test]
    fn q15_round_trip_small_values() {
        let a = Cplx::new(0.123, -0.456);
        let q = a.to_q15();
        let back = q.to_cplx();
        assert!((back.re - a.re).abs() < 1.0 / 32768.0);
        assert!((back.im - a.im).abs() < 1.0 / 32768.0);
    }

    #[test]
    fn q15_multiplication_close_to_float() {
        let a = Cplx::new(0.4, -0.3);
        let b = Cplx::new(-0.2, 0.7);
        let exact = a * b;
        let fixed = a.to_q15().mul(b.to_q15()).to_cplx();
        assert!((exact - fixed).abs() < 3.0 / 32768.0);
    }

    #[test]
    fn q15_mul_conj_matches_float_mul_conj() {
        let a = Cplx::new(0.25, 0.5);
        let b = Cplx::new(-0.5, 0.125);
        let exact = a * b.conj();
        let fixed = a.to_q15().mul_conj(b.to_q15()).to_cplx();
        assert!((exact - fixed).abs() < 3.0 / 32768.0);
    }

    #[test]
    fn q15_addition_saturates() {
        let big = Cplx::new(0.9, 0.9).to_q15();
        let s = big.add(big);
        let back = s.to_cplx();
        assert!(back.re <= 1.0 && back.re > 0.99);
        assert!(back.im <= 1.0 && back.im > 0.99);
    }

    #[test]
    fn conversions_via_from_impls() {
        let a = Cplx::from(2.5);
        assert_eq!(a, Cplx::new(2.5, 0.0));
        let b = Cplx::from((1.0, -1.0));
        assert_eq!(b, Cplx::new(1.0, -1.0));
        let q: CplxQ15 = Cplx::new(0.5, 0.5).into();
        let c: Cplx = q.into();
        assert!((c.re - 0.5).abs() < 1e-3);
    }
}
