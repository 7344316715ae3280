//! Q15 fixed-point arithmetic.
//!
//! The Montium datapath is 16 bits wide; the paper sizes the accumulation
//! memories as "8K words of 16 bits" and argues that this suffices "for
//! dynamic ranges smaller than 96 dB". This module provides the Q15
//! (1 sign bit, 15 fractional bits) scalar type used by the fixed-point
//! complex type [`crate::complex::CplxQ15`] and by the Montium simulator,
//! together with helpers to reason about quantisation and dynamic range.

use std::fmt;

/// Number of fractional bits in the Q15 format.
pub const Q15_FRACTION_BITS: u32 = 15;

/// The scaling factor `2^15` between the real value and the raw integer.
pub const Q15_SCALE: f64 = 32768.0;

/// A signed Q15 fixed-point number in `[-1, 1)`.
///
/// The raw representation is an `i16`; the represented value is
/// `raw / 32768`. All arithmetic saturates rather than wrapping, matching a
/// typical DSP datapath.
///
/// # Examples
///
/// ```
/// use cfd_dsp::fixed::Q15;
///
/// let half = Q15::from_f64(0.5);
/// let quarter = Q15::from_f64(0.25);
/// let p = half.saturating_mul(quarter);
/// assert!((p.to_f64() - 0.125).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q15(i16);

impl Q15 {
    /// Zero.
    pub const ZERO: Q15 = Q15(0);
    /// The largest representable value, `32767/32768 ≈ 0.99997`.
    pub const MAX: Q15 = Q15(i16::MAX);
    /// The most negative representable value, `-1.0`.
    pub const MIN: Q15 = Q15(i16::MIN);
    /// One least-significant bit, `1/32768`.
    pub const EPSILON: Q15 = Q15(1);

    /// Creates a Q15 value from its raw 16-bit representation.
    #[inline]
    pub const fn from_raw(raw: i16) -> Self {
        Q15(raw)
    }

    /// Returns the raw 16-bit representation.
    #[inline]
    pub const fn raw(self) -> i16 {
        self.0
    }

    /// Quantises a floating-point value, saturating to `[-1, MAX]`.
    ///
    /// Values are rounded to the nearest representable Q15 value.
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        let scaled = (value * Q15_SCALE).round();
        if scaled >= i16::MAX as f64 {
            Q15::MAX
        } else if scaled <= i16::MIN as f64 {
            Q15::MIN
        } else {
            Q15(scaled as i16)
        }
    }

    /// Converts to double precision.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Q15_SCALE
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Self) -> Self {
        Q15(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Q15(self.0.saturating_sub(rhs.0))
    }

    /// Saturating negation (`-(-1.0)` saturates to `MAX`).
    #[inline]
    pub fn saturating_neg(self) -> Self {
        Q15(self.0.checked_neg().unwrap_or(i16::MAX))
    }

    /// Saturating multiplication with rounding.
    #[inline]
    pub fn saturating_mul(self, rhs: Self) -> Self {
        Q15::from_wide(self.wide_mul(rhs))
    }

    /// Full-precision 16×16→32-bit product in Q30.
    ///
    /// Combine several wide products (e.g. the four partial products of a
    /// complex multiplication) before converting back with
    /// [`Q15::from_wide`], exactly as a MAC datapath with a wide accumulator
    /// would.
    #[inline]
    pub fn wide_mul(self, rhs: Self) -> i32 {
        (self.0 as i32) * (rhs.0 as i32)
    }

    /// Converts a Q30 wide value back to Q15 with rounding and saturation.
    #[inline]
    pub fn from_wide(wide: i32) -> Self {
        // Round-to-nearest: add half an LSB (2^14) before shifting right by 15.
        let rounded = (wide + (1 << (Q15_FRACTION_BITS - 1))) >> Q15_FRACTION_BITS;
        if rounded > i16::MAX as i32 {
            Q15::MAX
        } else if rounded < i16::MIN as i32 {
            Q15::MIN
        } else {
            Q15(rounded as i16)
        }
    }

    /// Absolute value, saturating (`|-1.0|` saturates to `MAX`).
    #[inline]
    pub fn saturating_abs(self) -> Self {
        if self.0 == i16::MIN {
            Q15::MAX
        } else {
            Q15(self.0.abs())
        }
    }

    /// Arithmetic shift right by `bits` (divide by `2^bits`), used for
    /// block-floating-point style scaling inside FFT stages. A named method
    /// rather than `ops::Shr` so call sites read as an explicit datapath
    /// operation.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn shr(self, bits: u32) -> Self {
        Q15(self.0 >> bits.min(15))
    }
}

impl fmt::Display for Q15 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

impl From<f64> for Q15 {
    fn from(value: f64) -> Self {
        Q15::from_f64(value)
    }
}

/// The quantisation step of the Q15 format (one LSB), `1/32768`.
#[inline]
pub fn q15_quantisation_step() -> f64 {
    1.0 / Q15_SCALE
}

/// Dynamic range of an `bits`-bit two's-complement word in dB,
/// `20·log10(2^(bits-1))`.
///
/// For the 16-bit Montium words this is ≈ 90.3 dB; the paper's statement
/// that the memories suffice "for dynamic ranges smaller than 96 dB" uses
/// the common `6.02·bits` rule of thumb which [`dynamic_range_db_rule_of_thumb`]
/// reproduces.
#[inline]
pub fn dynamic_range_db(bits: u32) -> f64 {
    20.0 * ((2.0_f64).powi(bits as i32 - 1)).log10()
}

/// The `6.02 dB per bit` rule of thumb used in the paper (96 dB for 16 bits).
#[inline]
pub fn dynamic_range_db_rule_of_thumb(bits: u32) -> f64 {
    6.02 * bits as f64
}

/// Measures the worst-case absolute quantisation error of representing
/// `values` in Q15.
pub fn max_quantisation_error(values: &[f64]) -> f64 {
    values
        .iter()
        .map(|&v| (Q15::from_f64(v).to_f64() - v.clamp(-1.0, (i16::MAX as f64) / Q15_SCALE)).abs())
        .fold(0.0, f64::max)
}

/// Signal-to-quantisation-noise ratio (dB) of representing `values` in Q15.
///
/// Returns `None` if the signal power is zero.
pub fn quantisation_snr_db(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let signal_power: f64 = values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64;
    if signal_power == 0.0 {
        return None;
    }
    let noise_power: f64 = values
        .iter()
        .map(|&v| {
            let e = Q15::from_f64(v).to_f64() - v;
            e * e
        })
        .sum::<f64>()
        / values.len() as f64;
    if noise_power == 0.0 {
        Some(f64::INFINITY)
    } else {
        Some(10.0 * (signal_power / noise_power).log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_representable_values() {
        for raw in [-32768i16, -16384, -1, 0, 1, 12345, 32767] {
            let q = Q15::from_raw(raw);
            assert_eq!(Q15::from_f64(q.to_f64()), q);
            assert_eq!(q.raw(), raw);
        }
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Q15::from_f64(2.0), Q15::MAX);
        assert_eq!(Q15::from_f64(1.0), Q15::MAX);
        assert_eq!(Q15::from_f64(-2.0), Q15::MIN);
        assert_eq!(Q15::from_f64(-1.0), Q15::MIN);
    }

    #[test]
    fn addition_saturates_at_both_ends() {
        assert_eq!(Q15::MAX.saturating_add(Q15::MAX), Q15::MAX);
        assert_eq!(Q15::MIN.saturating_add(Q15::MIN), Q15::MIN);
        let a = Q15::from_f64(0.25);
        let b = Q15::from_f64(0.5);
        assert!((a.saturating_add(b).to_f64() - 0.75).abs() < 1e-4);
    }

    #[test]
    fn subtraction_and_negation() {
        let a = Q15::from_f64(0.25);
        let b = Q15::from_f64(0.5);
        assert!((b.saturating_sub(a).to_f64() - 0.25).abs() < 1e-4);
        assert_eq!(Q15::MIN.saturating_neg(), Q15::MAX);
        assert_eq!(Q15::ZERO.saturating_neg(), Q15::ZERO);
    }

    #[test]
    fn multiplication_of_halves() {
        let half = Q15::from_f64(0.5);
        let p = half.saturating_mul(half);
        assert!((p.to_f64() - 0.25).abs() < 1e-4);
    }

    #[test]
    fn multiplication_never_overflows_except_min_times_min() {
        // (-1.0) * (-1.0) = +1.0 which is not representable: saturates to MAX.
        assert_eq!(Q15::MIN.saturating_mul(Q15::MIN), Q15::MAX);
        assert_eq!(Q15::MAX.saturating_mul(Q15::MAX).raw(), 32766);
    }

    #[test]
    fn wide_mul_then_from_wide_equals_saturating_mul() {
        let a = Q15::from_f64(0.3);
        let b = Q15::from_f64(-0.7);
        assert_eq!(Q15::from_wide(a.wide_mul(b)), a.saturating_mul(b));
    }

    #[test]
    fn abs_and_shift() {
        assert_eq!(Q15::from_f64(-0.5).saturating_abs(), Q15::from_f64(0.5));
        assert_eq!(Q15::MIN.saturating_abs(), Q15::MAX);
        let v = Q15::from_raw(16384);
        assert_eq!(v.shr(1).raw(), 8192);
        assert_eq!(v.shr(20).raw(), 0);
    }

    #[test]
    fn dynamic_range_numbers_match_paper_rule_of_thumb() {
        // 16-bit words: the paper's 96 dB comes from 6 dB/bit.
        assert!((dynamic_range_db_rule_of_thumb(16) - 96.32).abs() < 0.5);
        assert!((dynamic_range_db(16) - 90.3).abs() < 0.2);
    }

    #[test]
    fn quantisation_error_is_bounded_by_half_lsb() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 / 1000.0) - 0.5).collect();
        let err = max_quantisation_error(&values);
        assert!(err <= 0.5 / Q15_SCALE + 1e-12, "err = {err}");
    }

    #[test]
    fn quantisation_snr_is_high_for_full_scale_signals() {
        let values: Vec<f64> = (0..4096)
            .map(|i| 0.9 * (2.0 * std::f64::consts::PI * i as f64 / 64.0).sin())
            .collect();
        let snr = quantisation_snr_db(&values).unwrap();
        // Theoretical SQNR for a full-scale sine in Q15 is ~86 dB + headroom loss.
        assert!(snr > 75.0, "snr = {snr}");
    }

    #[test]
    fn quantisation_snr_none_for_empty_or_zero() {
        assert!(quantisation_snr_db(&[]).is_none());
        assert!(quantisation_snr_db(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn display_and_from() {
        let v: Q15 = 0.5.into();
        assert_eq!(v, Q15::from_f64(0.5));
        assert!(v.to_string().starts_with("0.5"));
    }
}
