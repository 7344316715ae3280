//! Spectrum-sensing detectors.
//!
//! Section 1 of the paper positions Cyclostationary Feature Detection (CFD)
//! as "the most promising but computationally intensive alternative" among
//! the spectrum-sensing options of Cabric et al. \[7\], the simplest of which
//! is the energy detector. Section 2 describes CFD as "a combination of an
//! energy detector and a single correlator block".
//!
//! This module implements both:
//!
//! * [`EnergyDetector`] — the baseline: compares the average received power
//!   against a threshold derived from the noise floor.
//! * [`CyclostationaryDetector`] — the paper's application: evaluates the
//!   DSCF and thresholds the strongest cyclic feature (offset `a ≠ 0`)
//!   relative to the `a = 0` ridge, which makes the statistic insensitive to
//!   the absolute noise level (the classic robustness argument for CFD).

use crate::complex::Cplx;
use crate::error::DspError;
use crate::scf::{ScfEngine, ScfMatrix, ScfParams};
use crate::signal::signal_power;

/// The binary verdict of a detection decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The band is declared occupied by a licensed user.
    SignalPresent,
    /// The band is declared vacant.
    NoiseOnly,
}

impl Verdict {
    /// Convenience conversion to a boolean ("signal present?").
    pub fn is_signal(self) -> bool {
        matches!(self, Verdict::SignalPresent)
    }
}

/// Baseline energy detector.
///
/// The statistic is the average received power normalised by the assumed
/// noise power; the threshold is set from the target false-alarm rate using
/// the Gaussian approximation of the chi-square statistic (valid for the
/// thousands-of-samples observations used here).
///
/// # Examples
///
/// ```
/// use cfd_dsp::detector::EnergyDetector;
/// use cfd_dsp::signal::SignalBuilder;
///
/// # fn main() -> Result<(), cfd_dsp::error::DspError> {
/// let detector = EnergyDetector::new(1.0, 0.01, 4096)?;
/// let busy = SignalBuilder::new(4096).snr_db(3.0).seed(1).build()?;
/// assert!(detector.statistic(&busy.samples)? > detector.threshold());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyDetector {
    noise_power: f64,
    threshold: f64,
    num_samples: usize,
}

impl EnergyDetector {
    /// Creates an energy detector calibrated for observations of
    /// `num_samples` samples with known `noise_power`, targeting the given
    /// false-alarm probability.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the noise power is not
    /// positive, the false-alarm probability is not in `(0, 1)`, or
    /// `num_samples` is zero.
    pub fn new(noise_power: f64, false_alarm: f64, num_samples: usize) -> Result<Self, DspError> {
        if !(noise_power.is_finite() && noise_power > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "noise_power",
                message: format!("must be positive and finite, got {noise_power}"),
            });
        }
        if !(false_alarm > 0.0 && false_alarm < 1.0) {
            return Err(DspError::InvalidParameter {
                name: "false_alarm",
                message: format!("must be in (0, 1), got {false_alarm}"),
            });
        }
        if num_samples == 0 {
            return Err(DspError::InvalidParameter {
                name: "num_samples",
                message: "must be at least 1".into(),
            });
        }
        // Under H0 the normalised statistic has mean 1 and std 1/sqrt(N)
        // (complex samples: |x|^2/sigma^2 is Exp(1), variance 1).
        let threshold = 1.0 + inverse_q(false_alarm) / (num_samples as f64).sqrt();
        Ok(EnergyDetector {
            noise_power,
            threshold,
            num_samples,
        })
    }

    /// Creates an energy detector with an explicitly chosen threshold on the
    /// normalised power statistic.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the noise power is not
    /// positive and finite.
    pub fn with_threshold(noise_power: f64, threshold: f64) -> Result<Self, DspError> {
        if !(noise_power.is_finite() && noise_power > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "noise_power",
                message: format!("must be positive and finite, got {noise_power}"),
            });
        }
        Ok(EnergyDetector {
            noise_power,
            threshold,
            num_samples: 0,
        })
    }

    /// The noise power the detector was calibrated with.
    pub fn noise_power(&self) -> f64 {
        self.noise_power
    }

    /// Number of samples the threshold was calibrated for (0 when the
    /// threshold was set explicitly).
    pub fn calibrated_samples(&self) -> usize {
        self.num_samples
    }

    /// The decision threshold on the normalised power statistic.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The average power over the noise power.
    ///
    /// # Errors
    ///
    /// * [`DspError::InsufficientSamples`] for an empty observation,
    /// * [`DspError::NonFiniteSample`] if a sample is NaN or infinite,
    /// * [`DspError::InvalidParameter`] if finite samples still give a
    ///   non-finite statistic (the power overflows `f64`).
    ///
    /// A non-finite statistic is never turned into a verdict: NaN would
    /// read as "band vacant".
    pub fn statistic(&self, samples: &[Cplx]) -> Result<f64, DspError> {
        if samples.is_empty() {
            return Err(DspError::InsufficientSamples {
                needed: 1,
                available: 0,
            });
        }
        let statistic = signal_power(samples) / self.noise_power;
        if !statistic.is_finite() {
            return Err(match samples.iter().position(|x| !x.is_finite()) {
                Some(index) => DspError::NonFiniteSample { index },
                None => DspError::InvalidParameter {
                    name: "samples",
                    message: format!("the power statistic overflows to {statistic}"),
                },
            });
        }
        Ok(statistic)
    }
}

/// Cyclostationary feature detector operating on the DSCF.
///
/// The statistic is the strongest cyclic feature outside an exclusion zone
/// around `a = 0`, normalised by the strength of the `a = 0` ridge:
///
/// ```text
/// stat = max_{|a| > guard} max_f |S_f^a|  /  max_f |S_f^0|
/// ```
///
/// Because both numerator and denominator scale with the received power, the
/// statistic does not depend on the absolute noise level — the property that
/// makes CFD attractive when the noise floor is uncertain.
///
/// The detector owns an [`ScfEngine`]: the FFT plan, window coefficients and
/// DSCF index tables are built once at construction and reused by every
/// decision (the engine is bit-identical to the eq.-3 golden model).
#[derive(Debug, Clone, PartialEq)]
pub struct CyclostationaryDetector {
    engine: ScfEngine,
    threshold: f64,
    guard_offsets: usize,
}

impl CyclostationaryDetector {
    /// Creates a CFD detector with the given DSCF parameters and threshold
    /// on the normalised feature strength.
    ///
    /// `guard_offsets` excludes offsets `|a| <= guard_offsets` from the
    /// feature search (the `a = 0` ridge and its leakage).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the parameters are invalid
    /// or the guard zone swallows the whole grid.
    pub fn new(params: ScfParams, threshold: f64, guard_offsets: usize) -> Result<Self, DspError> {
        params.validate()?;
        if guard_offsets >= params.max_offset {
            return Err(DspError::InvalidParameter {
                name: "guard_offsets",
                message: format!(
                    "guard ({guard_offsets}) must be smaller than max_offset ({})",
                    params.max_offset
                ),
            });
        }
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "threshold",
                message: format!("must be positive and finite, got {threshold}"),
            });
        }
        Ok(CyclostationaryDetector {
            engine: ScfEngine::new(params)?,
            threshold,
            guard_offsets,
        })
    }

    /// The DSCF parameters this detector evaluates.
    pub fn params(&self) -> &ScfParams {
        self.engine.params()
    }

    /// The precomputed DSCF engine this detector evaluates with. Sweep
    /// drivers use it to compute block spectra once per observation and
    /// share them across detector replicas.
    pub fn engine(&self) -> &ScfEngine {
        &self.engine
    }

    /// The guard zone half-width around `a = 0`.
    pub fn guard_offsets(&self) -> usize {
        self.guard_offsets
    }

    /// Computes the normalised feature statistic from an already-computed
    /// DSCF matrix (e.g. one produced by the tiled-SoC simulation).
    pub fn statistic_from_scf(&self, scf: &ScfMatrix) -> f64 {
        feature_statistic(scf, self.guard_offsets)
    }

    /// Computes the normalised feature statistic from an already-computed
    /// cyclic-domain profile ([`ScfMatrix::cyclic_profile`] layout). The
    /// statistic depends on the DSCF only through its profile, so this is
    /// bit-identical to [`CyclostationaryDetector::statistic_from_scf`] on
    /// the matrix the profile was scanned from.
    pub fn statistic_from_profile(&self, profile: &[f64]) -> f64 {
        feature_statistic_from_profile(profile, self.guard_offsets)
    }

    /// The decision threshold on the normalised feature statistic.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The feature statistic of raw samples: block spectra, then the
    /// profile folded straight off the accumulation
    /// ([`ScfEngine::cyclic_profile_from_spectra_into`]), so no matrix is
    /// written. Bit-identical to
    /// [`CyclostationaryDetector::statistic_from_scf`] on the engine's (and
    /// the golden model's) matrix.
    ///
    /// # Errors
    ///
    /// As [`ScfEngine::compute_spectra_into`]: too few samples, a NaN or
    /// infinite sample, or a spectrum whose DSCF would overflow.
    pub fn statistic(&self, samples: &[Cplx]) -> Result<f64, DspError> {
        let spectra = self.engine.compute_spectra(samples)?;
        let mut profile = Vec::new();
        self.engine
            .cyclic_profile_from_spectra_into(&spectra, &mut profile);
        Ok(self.statistic_from_profile(&profile))
    }
}

/// The normalised cyclic-feature statistic used by
/// [`CyclostationaryDetector`]: strongest feature outside the guard zone,
/// divided by the strength of the `a = 0` ridge.
pub fn feature_statistic(scf: &ScfMatrix, guard_offsets: usize) -> f64 {
    feature_statistic_from_profile(&scf.cyclic_profile(), guard_offsets)
}

/// [`feature_statistic`] on a precomputed cyclic-domain profile
/// ([`ScfMatrix::cyclic_profile`] layout: `2M + 1` entries, offset `a` at
/// index `a + M`).
///
/// # Panics
///
/// Panics if `profile` has an even length (no centre `a = 0` element).
pub fn feature_statistic_from_profile(profile: &[f64], guard_offsets: usize) -> f64 {
    assert!(
        profile.len() % 2 == 1,
        "cyclic profile must have odd length (2M + 1)"
    );
    let m = (profile.len() / 2) as i32;
    let ridge = profile[m as usize].max(f64::MIN_POSITIVE);
    let mut best = 0.0f64;
    for (i, &value) in profile.iter().enumerate() {
        let a = i as i32 - m;
        if a.unsigned_abs() as usize > guard_offsets {
            best = best.max(value);
        }
    }
    best / ridge
}

/// The approximate inverse of the Gaussian Q-function
/// (`Q(x) = P[N(0,1) > x]`), accurate to about 4.5e-4 over `(0, 0.5]`
/// (Abramowitz & Stegun 26.2.23). Used to set energy-detector thresholds.
pub fn inverse_q(probability: f64) -> f64 {
    assert!(
        probability > 0.0 && probability < 1.0,
        "probability must be in (0, 1)"
    );
    if probability == 0.5 {
        return 0.0;
    }
    if probability > 0.5 {
        return -inverse_q(1.0 - probability);
    }
    let t = (-2.0 * probability.ln()).sqrt();
    let numerator = 2.30753 + 0.27061 * t;
    let denominator = 1.0 + 0.99229 * t + 0.04481 * t * t;
    t - numerator / denominator
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf::dscf_reference;
    use crate::signal::{SignalBuilder, SymbolModulation};

    fn busy_observation(snr_db: f64, len: usize, seed: u64) -> Vec<Cplx> {
        SignalBuilder::new(len)
            .modulation(SymbolModulation::Bpsk)
            .samples_per_symbol(4)
            .snr_db(snr_db)
            .seed(seed)
            .build()
            .unwrap()
            .samples
    }

    fn idle_observation(len: usize, seed: u64) -> Vec<Cplx> {
        SignalBuilder::new(len)
            .noise_only()
            .seed(seed)
            .build()
            .unwrap()
            .samples
    }

    #[test]
    fn inverse_q_matches_known_values() {
        // Q(1.2816) ≈ 0.10, Q(2.3263) ≈ 0.01, Q(0) = 0.5.
        assert!((inverse_q(0.10) - 1.2816).abs() < 5e-3);
        assert!((inverse_q(0.01) - 2.3263).abs() < 5e-3);
        assert!(inverse_q(0.5).abs() < 5e-3);
        assert!((inverse_q(0.9) + inverse_q(0.1)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn inverse_q_rejects_out_of_range() {
        inverse_q(0.0);
    }

    #[test]
    fn energy_detector_validates_parameters() {
        assert!(EnergyDetector::new(0.0, 0.1, 100).is_err());
        assert!(EnergyDetector::new(1.0, 0.0, 100).is_err());
        assert!(EnergyDetector::new(1.0, 1.0, 100).is_err());
        assert!(EnergyDetector::new(1.0, 0.1, 0).is_err());
        assert!(EnergyDetector::with_threshold(-1.0, 1.0).is_err());
        let d = EnergyDetector::new(2.0, 0.1, 100).unwrap();
        assert_eq!(d.noise_power(), 2.0);
        assert_eq!(d.calibrated_samples(), 100);
    }

    #[test]
    fn energy_detector_detects_strong_signal_and_not_noise() {
        let d = EnergyDetector::new(1.0, 0.01, 4096).unwrap();
        let busy = busy_observation(5.0, 4096, 1);
        let idle = idle_observation(4096, 2);
        assert!(d.statistic(&busy).unwrap() > d.threshold());
        assert!(d.statistic(&idle).unwrap() <= d.threshold());
        assert!(d.statistic(&[]).is_err());
    }

    #[test]
    fn energy_detector_refuses_non_finite_power() {
        let d = EnergyDetector::new(1.0, 0.01, 64).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut samples = idle_observation(64, 3);
            samples[9].re = bad;
            assert_eq!(
                d.statistic(&samples),
                Err(DspError::NonFiniteSample { index: 9 })
            );
        }
        let huge = vec![Cplx::new(1e300, 0.0); 4];
        assert!(matches!(
            d.statistic(&huge),
            Err(DspError::InvalidParameter {
                name: "samples",
                ..
            })
        ));
    }

    #[test]
    fn energy_detector_false_alarm_rate_is_roughly_calibrated() {
        let pfa_target = 0.05;
        let n = 2048;
        let d = EnergyDetector::new(1.0, pfa_target, n).unwrap();
        let trials = 400;
        let mut false_alarms = 0;
        for seed in 0..trials {
            let idle = idle_observation(n, 1000 + seed);
            if d.statistic(&idle).unwrap() > d.threshold() {
                false_alarms += 1;
            }
        }
        let pfa = false_alarms as f64 / trials as f64;
        assert!(pfa < 0.15, "pfa = {pfa}");
    }

    #[test]
    fn cfd_detector_validates_parameters() {
        let params = ScfParams::new(32, 7, 16).unwrap();
        assert!(CyclostationaryDetector::new(params.clone(), 0.3, 7).is_err());
        assert!(CyclostationaryDetector::new(params.clone(), 0.0, 1).is_err());
        assert!(CyclostationaryDetector::new(params.clone(), f64::NAN, 1).is_err());
        let d = CyclostationaryDetector::new(params, 0.3, 1).unwrap();
        assert_eq!(d.guard_offsets(), 1);
        assert_eq!(d.params().fft_len, 32);
    }

    #[test]
    fn cfd_detects_cyclostationary_signal_and_rejects_noise() {
        let params = ScfParams::new(32, 7, 64).unwrap();
        let d = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let busy = busy_observation(5.0, params.samples_needed(), 3);
        let idle = idle_observation(params.samples_needed(), 4);
        let busy_statistic = d.statistic(&busy).unwrap();
        let idle_statistic = d.statistic(&idle).unwrap();
        assert!(busy_statistic > d.threshold(), "statistic {busy_statistic}");
        assert!(
            idle_statistic <= d.threshold(),
            "statistic {idle_statistic}"
        );
    }

    #[test]
    fn cfd_statistic_is_scale_invariant() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let d = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let busy = busy_observation(3.0, params.samples_needed(), 5);
        let scaled: Vec<Cplx> = busy.iter().map(|&x| x * 7.5).collect();
        let s1 = d.statistic(&busy).unwrap();
        let s2 = d.statistic(&scaled).unwrap();
        assert!((s1 - s2).abs() < 1e-9, "{s1} vs {s2}");
    }

    #[test]
    fn detect_from_scf_matches_detect_from_samples() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let d = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let busy = busy_observation(3.0, params.samples_needed(), 6);
        let scf = dscf_reference(&busy, &params).unwrap();
        assert_eq!(
            d.statistic_from_scf(&scf).to_bits(),
            d.statistic(&busy).unwrap().to_bits()
        );
    }

    #[test]
    fn detect_from_spectra_matches_detect_from_samples() {
        let params = ScfParams::new(32, 7, 32).unwrap();
        let d = CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap();
        let mut profile = Vec::new();
        for seed in [7u64, 8, 9] {
            let busy = busy_observation(0.0, params.samples_needed(), seed);
            let spectra = d.engine().compute_spectra(&busy).unwrap();
            d.engine()
                .cyclic_profile_from_spectra_into(&spectra, &mut profile);
            let from_samples = d.statistic(&busy).unwrap().to_bits();
            assert_eq!(d.statistic_from_profile(&profile).to_bits(), from_samples);
            // The profile-first path never writes a matrix, yet matches a
            // scan of the golden model's matrix bit for bit.
            let reference = dscf_reference(&busy, &params).unwrap();
            assert_eq!(d.statistic_from_scf(&reference).to_bits(), from_samples);
        }
    }

    #[test]
    fn decision_helpers() {
        assert!(Verdict::SignalPresent.is_signal());
        assert!(!Verdict::NoiseOnly.is_signal());
    }
}
