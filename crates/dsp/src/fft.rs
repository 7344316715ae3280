//! Discrete Fourier transforms.
//!
//! The paper applies a K-point DFT (eq. 2) to overlapping blocks of the
//! sampled signal; with `K = 2^k` this becomes an FFT with
//! `½·K·log2(K)` complex multiplications, against which the cost of the
//! DSCF (`¼·K²` complex multiplications) is compared in Section 2.
//!
//! This module provides:
//!
//! * [`FftPlan`] — a reusable plan holding the precomputed twiddle factors
//!   and bit-reversal permutation for one transform length,
//! * [`fft_in_place`] / [`ifft_in_place`] — iterative radix-2
//!   decimation-in-time FFT for power-of-two sizes (thin wrappers over a
//!   per-thread cache of plans),
//! * [`dft_naive`] — an O(K²) direct DFT used as the golden model in tests,
//! * [`block_spectrum`] — the windowed, time-shifted spectrum
//!   `X_{n,v}` of eq. 2 (and [`block_spectrum_with_plan`], its
//!   allocation-conscious core),
//! * complexity helpers ([`fft_complex_multiplications`],
//!   [`dscf_complex_multiplications`]) reproducing the Section 2 cost
//!   comparison ("16× as many multiplications for a 256-point spectrum").

use crate::complex::Cplx;
use crate::error::DspError;
use crate::window::Window;
use std::cell::RefCell;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::rc::Rc;
use std::sync::OnceLock;

/// Cached handle to the `dsp.fft.forward_ns` stage histogram. The plan
/// itself stays handle-free (it is `Clone`); a process-wide
/// `OnceLock` keeps the per-call cost to one pointer load once telemetry
/// has been enabled, and [`cfd_telemetry::span`]-style gating keeps it to
/// one atomic load while it is not.
fn forward_ns() -> &'static cfd_telemetry::Histogram {
    static FORWARD_NS: OnceLock<cfd_telemetry::Histogram> = OnceLock::new();
    FORWARD_NS.get_or_init(|| cfd_telemetry::histogram("dsp.fft.forward_ns"))
}

/// Returns `true` if `n` is a power of two (and non-zero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// Bit-reverses the `bits`-bit value `x`.
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    let mut y = 0usize;
    for i in 0..bits {
        y |= ((x >> i) & 1) << (bits - 1 - i);
    }
    y
}

/// Permutes `data` into bit-reversed order in place.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn bit_reverse_permute(data: &mut [Cplx]) {
    let n = data.len();
    assert!(is_power_of_two(n), "length must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// A reusable FFT plan for one power-of-two transform length.
///
/// The planless [`fft_in_place`] of earlier revisions recomputed
/// `exp(-j·2π/len)` at every stage of every call and derived the stage
/// twiddles by repeated multiplication. A plan hoists all of that set-up
/// out of the hot loop — it is built once per length and reused across
/// every block of a sweep:
///
/// * **stage twiddles** — `exp(±j·2π·offset/size)` for every butterfly of
///   every stage, stage-major and contiguous, evaluated directly (no
///   accumulated rounding from the old repeated-multiplication recurrence);
///   forward and inverse tables are both stored so neither direction pays
///   a per-butterfly conjugation;
/// * **bit-reversal permutation** — the reordering target of every index,
///   replacing the per-call bit-twiddling loop;
/// * **phase roots** — the `len` distinct values of `exp(-j·2π·r/len)`,
///   used by [`block_spectrum_with_plan`] to apply the absolute-time phase
///   rotation of eq. 2 by table lookup with exact index reduction (the
///   old path evaluated `cos`/`sin` of an unreduced, arbitrarily large
///   phase per bin per block).
///
/// The planless [`fft_in_place`] / [`ifft_in_place`] remain available as
/// thin wrappers over a per-thread cache of plans ([`cached_plan`]), so
/// existing call sites get the precomputation for free.
///
/// # Examples
///
/// ```
/// use cfd_dsp::complex::Cplx;
/// use cfd_dsp::fft::FftPlan;
///
/// # fn main() -> Result<(), cfd_dsp::error::DspError> {
/// let plan = FftPlan::new(8)?;
/// let mut data = vec![Cplx::ONE; 8];
/// plan.forward_in_place(&mut data)?;
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// plan.inverse_in_place(&mut data)?;
/// assert!((data[0] - Cplx::ONE).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    len: usize,
    /// Bit-reversal target of every index (`permutation[i] = reverse(i)`).
    permutation: Vec<u32>,
    /// Forward twiddles, stage-major: the stage of sub-FFT size `s`
    /// contributes `s/2` entries `exp(-j·2π·offset/s)`, `offset < s/2`.
    forward: Vec<Cplx>,
    /// The same table for the inverse transform (`exp(+j·2π·offset/s)`).
    inverse: Vec<Cplx>,
    /// `phase_roots[r] = exp(-j·2π·r/len)` for `r ∈ 0..len`.
    phase_roots: Vec<Cplx>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::NotPowerOfTwo`] if `len` is not a power of two.
    pub fn new(len: usize) -> Result<Self, DspError> {
        if !is_power_of_two(len) {
            return Err(DspError::NotPowerOfTwo { length: len });
        }
        let bits = len.trailing_zeros();
        let permutation = (0..len).map(|i| bit_reverse(i, bits) as u32).collect();
        // One entry per butterfly position per stage: Σ s/2 = len - 1.
        let mut forward = Vec::with_capacity(len.saturating_sub(1));
        let mut inverse = Vec::with_capacity(len.saturating_sub(1));
        let mut size = 2;
        while size <= len {
            for offset in 0..size / 2 {
                let angle = 2.0 * PI * offset as f64 / size as f64;
                forward.push(Cplx::cis(-angle));
                inverse.push(Cplx::cis(angle));
            }
            size <<= 1;
        }
        let phase_roots = (0..len)
            .map(|r| Cplx::cis(-2.0 * PI * r as f64 / len as f64))
            .collect();
        Ok(FftPlan {
            len,
            permutation,
            forward,
            inverse,
            phase_roots,
        })
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for the degenerate length-0 plan (never constructible via
    /// [`FftPlan::new`], provided for API completeness with `len`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check_len(&self, data: &[Cplx]) -> Result<(), DspError> {
        if data.len() != self.len {
            return Err(DspError::InvalidParameter {
                name: "data",
                message: format!(
                    "plan is for length {}, got a buffer of length {}",
                    self.len,
                    data.len()
                ),
            });
        }
        Ok(())
    }

    fn transform(&self, data: &mut [Cplx], twiddles: &[Cplx]) {
        let n = self.len;
        for (i, &target) in self.permutation.iter().enumerate() {
            let j = target as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        let mut stage_offset = 0;
        let mut size = 2;
        while size <= n {
            let half = size / 2;
            let stage = &twiddles[stage_offset..stage_offset + half];
            for start in (0..n).step_by(size) {
                for (offset, &w) in stage.iter().enumerate() {
                    let even = data[start + offset];
                    let odd = data[start + offset + half] * w;
                    data[start + offset] = even + odd;
                    data[start + offset + half] = even - odd;
                }
            }
            stage_offset += half;
            size <<= 1;
        }
    }

    /// In-place forward FFT
    /// (`X[v] = Σ_k x[k]·exp(-j·2π·k·v/N)`).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `data.len()` differs from
    /// the plan length.
    pub fn forward_in_place(&self, data: &mut [Cplx]) -> Result<(), DspError> {
        self.check_len(data)?;
        let _span = forward_ns().start_timer();
        self.transform(data, &self.forward);
        Ok(())
    }

    /// In-place inverse FFT, including the `1/N` normalisation.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `data.len()` differs from
    /// the plan length.
    pub fn inverse_in_place(&self, data: &mut [Cplx]) -> Result<(), DspError> {
        self.check_len(data)?;
        self.transform(data, &self.inverse);
        let n = self.len as f64;
        for value in data.iter_mut() {
            *value = *value / n;
        }
        Ok(())
    }

    /// The `r`-th rotation-table root `exp(-j·2π·r/len)` (with `r`
    /// reduced modulo the plan length) — the same table
    /// [`FftPlan::rotate_block_phase`] reads, so phase factors derived
    /// from it compose bit-identically with the block rotation.
    pub fn phase_root(&self, r: usize) -> Cplx {
        self.phase_roots[r % self.len]
    }

    /// Applies the eq.-2 absolute-time phase rotation
    /// `X[v] *= exp(-j·2π·start·v/len)` by table lookup.
    ///
    /// The exponent index `start·v` is reduced modulo `len` incrementally
    /// (no multiplication, no `%` in the loop, no large-argument
    /// `cos`/`sin`), so the rotation is exact for any block start.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than the plan length.
    pub fn rotate_block_phase(&self, start: usize, data: &mut [Cplx]) {
        assert!(data.len() <= self.len, "buffer longer than the plan");
        let step = start % self.len.max(1);
        if step == 0 {
            return;
        }
        let mut r = 0usize;
        for value in data.iter_mut() {
            *value *= self.phase_roots[r];
            r += step;
            if r >= self.len {
                r -= self.len;
            }
        }
    }
}

thread_local! {
    /// Per-thread cache of plans, keyed by transform length. Plans are
    /// immutable once built, so sharing them via `Rc` is free; keeping the
    /// cache thread-local avoids any locking on the hot path.
    static PLAN_CACHE: RefCell<HashMap<usize, Rc<FftPlan>>> = RefCell::new(HashMap::new());
}

/// Returns this thread's cached [`FftPlan`] for `len`, building (and
/// caching) it on first use.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if `len` is not a power of two.
pub fn cached_plan(len: usize) -> Result<Rc<FftPlan>, DspError> {
    PLAN_CACHE.with(|cache| {
        if let Some(plan) = cache.borrow().get(&len) {
            return Ok(Rc::clone(plan));
        }
        let plan = Rc::new(FftPlan::new(len)?);
        cache.borrow_mut().insert(len, Rc::clone(&plan));
        Ok(plan)
    })
}

/// In-place iterative radix-2 decimation-in-time FFT.
///
/// Computes `X[v] = Σ_k x[k]·exp(-j·2π·k·v/N)` for `N = data.len()`.
/// This is a thin wrapper over this thread's cached [`FftPlan`]; hot loops
/// that already hold a plan should call [`FftPlan::forward_in_place`]
/// directly.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if the length is not a power of two.
///
/// # Examples
///
/// ```
/// use cfd_dsp::complex::Cplx;
/// use cfd_dsp::fft::fft_in_place;
///
/// # fn main() -> Result<(), cfd_dsp::error::DspError> {
/// let mut data = vec![Cplx::ONE; 8];
/// fft_in_place(&mut data)?;
/// assert!((data[0].re - 8.0).abs() < 1e-12); // DC bin holds the sum
/// assert!(data[1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fft_in_place(data: &mut [Cplx]) -> Result<(), DspError> {
    cached_plan(data.len())?.forward_in_place(data)
}

/// In-place inverse FFT, including the `1/N` normalisation (a thin wrapper
/// over this thread's cached [`FftPlan`]).
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if the length is not a power of two.
pub fn ifft_in_place(data: &mut [Cplx]) -> Result<(), DspError> {
    cached_plan(data.len())?.inverse_in_place(data)
}

/// Convenience wrapper returning a new vector instead of transforming in place.
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if the length is not a power of two.
pub fn fft(input: &[Cplx]) -> Result<Vec<Cplx>, DspError> {
    let mut data = input.to_vec();
    fft_in_place(&mut data)?;
    Ok(data)
}

/// Convenience wrapper around [`ifft_in_place`].
///
/// # Errors
///
/// Returns [`DspError::NotPowerOfTwo`] if the length is not a power of two.
pub fn ifft(input: &[Cplx]) -> Result<Vec<Cplx>, DspError> {
    let mut data = input.to_vec();
    ifft_in_place(&mut data)?;
    Ok(data)
}

/// Direct O(N²) DFT used as a golden model for testing the FFT.
///
/// Works for any length, not just powers of two.
pub fn dft_naive(input: &[Cplx]) -> Vec<Cplx> {
    let n = input.len();
    (0..n)
        .map(|v| {
            (0..n)
                .map(|k| input[k] * Cplx::cis(-2.0 * PI * (k * v) as f64 / n as f64))
                .sum()
        })
        .collect()
}

/// Computes the block spectrum `X_{n,v}` of eq. 2 for the block starting at
/// sample `n`:
///
/// `X_{n,v} = Σ_{k=0..K-1} x[n+k]·w[k]·exp(-j·2π·(n+k)·v/K)`
///
/// The paper's eq. 2 uses the absolute sample index `n+k` in the exponent;
/// the phase factor relative to a block-local DFT is `exp(-j·2π·n·v/K)`,
/// which this function applies after an FFT of the windowed block. The
/// window defaults to rectangular in the paper; any [`Window`] may be used.
///
/// # Errors
///
/// * [`DspError::NotPowerOfTwo`] if `block_len` is not a power of two,
/// * [`DspError::InsufficientSamples`] if the signal does not contain
///   `start + block_len` samples.
pub fn block_spectrum(
    signal: &[Cplx],
    start: usize,
    block_len: usize,
    window: Window,
) -> Result<Vec<Cplx>, DspError> {
    let plan = cached_plan(block_len)?;
    let coeffs = window.coefficients(block_len);
    block_spectrum_with_plan(signal, start, &plan, &coeffs)
}

/// The allocation-conscious core of [`block_spectrum`]: the caller supplies
/// the [`FftPlan`] and the window coefficients, so repeated evaluation
/// (every block of every trial of a sweep) pays for neither twiddle nor
/// window recomputation. [`block_spectrum`] and the DSCF engine both route
/// through this function, which keeps their spectra bit-identical.
///
/// # Errors
///
/// * [`DspError::InsufficientSamples`] if the signal does not contain
///   `start + plan.len()` samples,
/// * [`DspError::InvalidParameter`] if the window coefficient slice does
///   not match the plan length.
pub fn block_spectrum_with_plan(
    signal: &[Cplx],
    start: usize,
    plan: &FftPlan,
    window_coeffs: &[f64],
) -> Result<Vec<Cplx>, DspError> {
    let mut block = Vec::with_capacity(plan.len());
    block_spectrum_into(signal, start, plan, window_coeffs, &mut block)?;
    Ok(block)
}

/// [`block_spectrum_with_plan`] writing into a caller-owned buffer, so hot
/// loops (a sweep lane re-evaluating the same block layout every trial)
/// reuse the spectrum allocation instead of reallocating per block.
///
/// # Errors
///
/// Same contract as [`block_spectrum_with_plan`].
pub fn block_spectrum_into(
    signal: &[Cplx],
    start: usize,
    plan: &FftPlan,
    window_coeffs: &[f64],
    out: &mut Vec<Cplx>,
) -> Result<(), DspError> {
    let block_len = plan.len();
    if window_coeffs.len() != block_len {
        return Err(DspError::InvalidParameter {
            name: "window_coeffs",
            message: format!(
                "window has {} coefficients, plan length is {block_len}",
                window_coeffs.len()
            ),
        });
    }
    if start + block_len > signal.len() {
        return Err(DspError::InsufficientSamples {
            needed: start + block_len,
            available: signal.len(),
        });
    }
    out.clear();
    out.extend(
        signal[start..start + block_len]
            .iter()
            .zip(window_coeffs.iter())
            .map(|(&x, &w)| x * w),
    );
    plan.forward_in_place(out)?;
    // Phase rotation from the absolute-time exponent of eq. 2.
    plan.rotate_block_phase(start, out);
    Ok(())
}

/// Number of complex multiplications of a radix-2 FFT of length `n`:
/// `½·n·log2(n)` (the figure used in Section 2 of the paper).
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn fft_complex_multiplications(n: usize) -> usize {
    assert!(is_power_of_two(n), "length must be a power of two");
    n / 2 * n.trailing_zeros() as usize
}

/// Number of complex multiplications to evaluate the DSCF of an `n`-point
/// spectrum: `¼·n²` (Section 2).
pub fn dscf_complex_multiplications(n: usize) -> usize {
    n * n / 4
}

/// The ratio between DSCF and FFT multiplication counts; the paper quotes
/// "16 times as many" for a 256-point spectrum.
pub fn dscf_to_fft_cost_ratio(n: usize) -> f64 {
    dscf_complex_multiplications(n) as f64 / fft_complex_multiplications(n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

    fn assert_spectra_close(a: &[Cplx], b: &[Cplx], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() < tol,
                "bin {i}: {x} vs {y} (diff {})",
                (x - y).abs()
            );
        }
    }

    #[test]
    fn bit_reverse_small_values() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(0, 4), 0);
        assert_eq!(bit_reverse(0b1111, 4), 0b1111);
    }

    #[test]
    fn bit_reverse_permute_is_involution() {
        let original: Vec<Cplx> = (0..16).map(|i| Cplx::new(i as f64, -(i as f64))).collect();
        let mut data = original.clone();
        bit_reverse_permute(&mut data);
        bit_reverse_permute(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Cplx::ZERO; 16];
        data[0] = Cplx::ONE;
        fft_in_place(&mut data).unwrap();
        for bin in data {
            assert!((bin - Cplx::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_complex_tone_has_single_peak() {
        let n = 64;
        let bin = 5;
        let data: Vec<Cplx> = (0..n)
            .map(|k| Cplx::cis(2.0 * PI * (bin * k) as f64 / n as f64))
            .collect();
        let spectrum = fft(&data).unwrap();
        for (v, value) in spectrum.iter().enumerate() {
            if v == bin {
                assert!((value.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(value.abs() < 1e-9, "bin {v} = {value}");
            }
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 32;
        let data: Vec<Cplx> = (0..n)
            .map(|k| Cplx::new((k as f64 * 0.37).sin(), (k as f64 * 0.91).cos()))
            .collect();
        let fast = fft(&data).unwrap();
        let slow = dft_naive(&data);
        assert_spectra_close(&fast, &slow, 1e-9);
    }

    #[test]
    fn ifft_inverts_fft() {
        let n = 128;
        let data: Vec<Cplx> = (0..n)
            .map(|k| Cplx::new((k as f64).cos(), (k as f64 * 1.7).sin()))
            .collect();
        let spectrum = fft(&data).unwrap();
        let back = ifft(&spectrum).unwrap();
        assert_spectra_close(&back, &data, 1e-10);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 256;
        let data: Vec<Cplx> = (0..n)
            .map(|k| Cplx::new((k as f64 * 0.11).sin(), (k as f64 * 0.07).cos()))
            .collect();
        let time_energy: f64 = data.iter().map(|x| x.norm_sqr()).sum();
        let spectrum = fft(&data).unwrap();
        let freq_energy: f64 = spectrum.iter().map(|x| x.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn non_power_of_two_is_rejected() {
        let mut data = vec![Cplx::ZERO; 12];
        assert!(matches!(
            fft_in_place(&mut data),
            Err(DspError::NotPowerOfTwo { length: 12 })
        ));
        assert!(ifft(&[Cplx::ZERO; 3]).is_err());
    }

    #[test]
    fn length_one_fft_is_identity() {
        let mut data = vec![Cplx::new(2.0, 3.0)];
        fft_in_place(&mut data).unwrap();
        assert_eq!(data[0], Cplx::new(2.0, 3.0));
    }

    #[test]
    fn block_spectrum_applies_time_shift_phase() {
        // A tone at bin 3: the block starting at n has the same magnitude
        // spectrum, and the phase of eq. 2 relative to block 0 is
        // exp(-j 2π n v / K) * exp(+j 2π n·bin/K) from the signal itself;
        // check against a direct evaluation of eq. 2.
        let k = 32usize;
        let bin = 3usize;
        let total = 3 * k;
        let signal: Vec<Cplx> = (0..total)
            .map(|t| Cplx::cis(2.0 * PI * (bin * t) as f64 / k as f64))
            .collect();
        let start = 17;
        let got = block_spectrum(&signal, start, k, Window::Rectangular).unwrap();
        // Direct eq. 2 evaluation.
        let direct: Vec<Cplx> = (0..k)
            .map(|v| {
                (0..k)
                    .map(|kk| {
                        signal[start + kk]
                            * Cplx::cis(-2.0 * PI * ((start + kk) * v) as f64 / k as f64)
                    })
                    .sum()
            })
            .collect();
        assert_spectra_close(&got, &direct, 1e-8);
    }

    #[test]
    fn block_spectrum_rejects_out_of_range() {
        let signal = vec![Cplx::ZERO; 40];
        assert!(matches!(
            block_spectrum(&signal, 20, 32, Window::Rectangular),
            Err(DspError::InsufficientSamples { .. })
        ));
    }

    #[test]
    fn plan_matches_naive_dft_and_rejects_mismatched_buffers() {
        let plan = FftPlan::new(16).unwrap();
        assert_eq!(plan.len(), 16);
        assert!(!plan.is_empty());
        let data: Vec<Cplx> = (0..16)
            .map(|k| Cplx::new((k as f64).sin(), 0.2 * k as f64))
            .collect();
        let mut fast = data.clone();
        plan.forward_in_place(&mut fast).unwrap();
        assert_spectra_close(&fast, &dft_naive(&data), 1e-9);
        plan.inverse_in_place(&mut fast).unwrap();
        assert_spectra_close(&fast, &data, 1e-10);
        let mut wrong = vec![Cplx::ZERO; 8];
        assert!(plan.forward_in_place(&mut wrong).is_err());
        assert!(plan.inverse_in_place(&mut wrong).is_err());
        assert!(matches!(
            FftPlan::new(12),
            Err(DspError::NotPowerOfTwo { length: 12 })
        ));
    }

    #[test]
    fn cached_plan_is_shared_within_a_thread() {
        let a = cached_plan(64).unwrap();
        let b = cached_plan(64).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
        assert!(cached_plan(10).is_err());
    }

    #[test]
    fn rotate_block_phase_reduces_the_exponent_exactly() {
        let k = 32usize;
        let plan = FftPlan::new(k).unwrap();
        let data: Vec<Cplx> = (0..k).map(|v| Cplx::new(1.0 + v as f64, -0.5)).collect();
        // A start beyond the block length must behave as start mod K.
        let start = 17 + 2 * k;
        let mut rotated = data.clone();
        plan.rotate_block_phase(start, &mut rotated);
        for (v, (&got, &x)) in rotated.iter().zip(data.iter()).enumerate() {
            let expected = x * Cplx::cis(-2.0 * PI * ((start * v) % k) as f64 / k as f64);
            assert!((got - expected).abs() < 1e-12, "bin {v}");
        }
        // start = 0 is the identity.
        let mut same = data.clone();
        plan.rotate_block_phase(0, &mut same);
        assert_eq!(same, data);
    }

    #[test]
    fn block_spectrum_with_plan_rejects_mismatched_window() {
        let plan = FftPlan::new(16).unwrap();
        let signal = vec![Cplx::ONE; 32];
        let coeffs = Window::Rectangular.coefficients(8);
        assert!(matches!(
            block_spectrum_with_plan(&signal, 0, &plan, &coeffs),
            Err(DspError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn section2_cost_comparison_for_256_points() {
        // FFT: ½·256·8 = 1024 multiplications; DSCF: ¼·256² = 16384.
        assert_eq!(fft_complex_multiplications(256), 1024);
        assert_eq!(dscf_complex_multiplications(256), 16384);
        assert!((dscf_to_fft_cost_ratio(256) - 16.0).abs() < 1e-12);
    }
}
