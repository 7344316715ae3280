//! End-to-end spectrum sensing on the simulated platform.
//!
//! This is the cognitive-radio use the paper motivates in its introduction:
//! decide whether a licensed user occupies a band by computing the DSCF of
//! the received samples — here on the simulated tiled SoC rather than a
//! golden model — and thresholding its cyclic features.
//!
//! [`SpectrumSensor`] is the one SoC backend. It configures its platform
//! once and then takes every decision of its lifetime on it, booking each
//! into session totals ([`SpectrumSensor::decisions`],
//! [`SpectrumSensor::session_metrics`]). Decisions go through
//! [`SensingBackend::decide`]; [`SpectrumSensor::sense`] additionally
//! returns the platform's DSCF and per-tile counters.

use crate::app::{CfdApplication, Platform};
use crate::backend::{Decision, Observation, SensingBackend};
use crate::error::CfdError;
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::CyclostationaryDetector;
use cfd_dsp::scf::ScfMatrix;
use tiled_soc::config::ExecutionMode;
use tiled_soc::power::PlatformMetrics;
use tiled_soc::soc::{SocRun, TiledSoc};
use tiled_soc::tile::TileCycleBreakdown;

/// The result of one sensing decision taken on the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SensingReport {
    /// The decision (statistic, threshold, verdict).
    pub outcome: Decision,
    /// The DSCF computed by the platform.
    pub scf: ScfMatrix,
    /// Per-tile cycle breakdowns for the whole observation.
    pub per_tile_cycles: Vec<TileCycleBreakdown>,
    /// Words exchanged between tiles during the observation.
    pub inter_tile_transfers: u64,
    /// Platform metrics for one integration step.
    pub metrics: PlatformMetrics,
    /// Sensing latency for the whole observation in µs (all integration
    /// steps on the critical tile).
    pub latency_us: f64,
}

impl SensingReport {
    /// Convenience: whether the band was declared occupied.
    pub fn occupied(&self) -> bool {
        self.outcome.is_signal()
    }
}

/// A spectrum sensor: the CFD application mapped onto a simulated tiled SoC
/// plus a cyclostationary detector thresholding the result.
///
/// The platform is configured **once**, at construction, and every
/// decision of the sensor's lifetime then streams through it — the
/// execution model of the paper's hardware, where the Montium programs are
/// loaded once and samples stream through.
/// [`SpectrumSensor::configurations`] exposes the underlying counter so
/// callers can assert the contract.
#[derive(Debug)]
pub struct SpectrumSensor {
    application: CfdApplication,
    soc: TiledSoc,
    detector: CyclostationaryDetector,
    /// Reused [`SocRun`] of the raw-sample decide path, so steady-state
    /// decisions allocate nothing per run.
    scratch: SocRun,
    decisions: u64,
    total_blocks: u64,
    total_critical_cycles: u64,
}

impl SpectrumSensor {
    /// Builds a sensor for `application` on `platform`, with the given
    /// detector threshold on the normalised cyclic-feature statistic and a
    /// guard zone of `guard_offsets` around `a = 0`.
    ///
    /// # Errors
    ///
    /// Propagates application, platform and detector construction errors.
    pub fn new(
        application: CfdApplication,
        platform: &Platform,
        threshold: f64,
        guard_offsets: usize,
    ) -> Result<Self, CfdError> {
        let soc = TiledSoc::new(
            platform.soc_config(),
            application.max_offset,
            application.fft_len,
        )?;
        let detector =
            CyclostationaryDetector::new(application.scf_params()?, threshold, guard_offsets)?;
        Ok(SpectrumSensor {
            application,
            scratch: soc.empty_run(),
            soc,
            detector,
            decisions: 0,
            total_blocks: 0,
            total_critical_cycles: 0,
        })
    }

    /// The paper's sensor: 127×127 DSCF over 256-point spectra on 4 Montium
    /// tiles, with `num_blocks` integration steps per decision.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn paper(num_blocks: usize, threshold: f64) -> Result<Self, CfdError> {
        SpectrumSensor::new(
            CfdApplication::paper_with_blocks(num_blocks),
            &Platform::paper(),
            threshold,
            2,
        )
    }

    /// The application this sensor runs.
    pub fn application(&self) -> &CfdApplication {
        &self.application
    }

    /// Number of samples consumed per decision.
    pub fn samples_per_decision(&self) -> usize {
        self.application.samples_needed()
    }

    /// The DSCF engine of this sensor's detector — its parameters are
    /// exactly the application's [`CfdApplication::scf_params`], so it keys
    /// the [`Observation`] caches this sensor decides from.
    pub fn engine(&self) -> &cfd_dsp::scf::ScfEngine {
        self.detector.engine()
    }

    /// Whether this sensor's platform produces the same decisions from
    /// software-computed block spectra as from raw samples: true for the
    /// analytic platform (which `TiledSoc` only constructs for the
    /// full-precision datapath — Analytic + Q15 is refused up front). The
    /// simulating modes compute their spectra on-tile by design, so they
    /// read raw samples. The Q15 check is defensive should that
    /// construction rule ever be relaxed.
    pub fn shares_software_spectra(&self) -> bool {
        self.soc.config().mode == ExecutionMode::Analytic && !self.soc.config().tile.quantize_q15
    }

    /// Decisions taken over the sensor's lifetime.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// How many times the underlying platform has been configured. Stays at
    /// 1 for the sensor's whole lifetime, however many decisions stream
    /// through — the invariant the sweep engine relies on.
    pub fn configurations(&self) -> u64 {
        self.soc.configurations()
    }

    /// Critical-path cycles booked over every decision so far.
    pub fn critical_cycles(&self) -> u64 {
        self.total_critical_cycles
    }

    /// Platform metrics accumulated over every decision so far (average
    /// per-block rate).
    pub fn session_metrics(&self) -> PlatformMetrics {
        let cycles_per_block = self
            .total_critical_cycles
            .checked_div(self.total_blocks)
            .unwrap_or(0);
        PlatformMetrics::new(
            self.soc.config(),
            cycles_per_block,
            self.application.fft_len,
        )
    }

    /// Books one decision of `blocks` integration steps and `cycles`
    /// critical-path cycles into the session totals.
    fn account(&mut self, blocks: usize, cycles: u64) {
        self.decisions += 1;
        self.total_blocks += blocks as u64;
        self.total_critical_cycles += cycles;
    }

    /// Takes one sensing decision over `samples` on the platform
    /// (`samples_per_decision()` samples are consumed) and reports the
    /// platform's DSCF and counters with it. The decision counts toward
    /// the session totals.
    ///
    /// # Errors
    ///
    /// Propagates platform errors: too few samples, a NaN or infinite
    /// sample, or a block spectrum whose DSCF would overflow.
    pub fn sense(&mut self, samples: &[Cplx]) -> Result<SensingReport, CfdError> {
        self.soc.reset();
        let run = self.soc.run(samples, self.application.num_blocks)?;
        self.account(run.blocks, run.max_tile_cycles());
        let statistic = self.detector.statistic_from_scf(&run.scf);
        let metrics = self.soc.metrics(&run);
        let latency_us = metrics.time_per_block_us * self.application.num_blocks as f64;
        Ok(SensingReport {
            outcome: Decision::new(statistic, self.detector.threshold()),
            scf: run.scf,
            per_tile_cycles: run.per_tile_cycles,
            inter_tile_transfers: run.inter_tile_transfers,
            metrics,
            latency_us,
        })
    }
}

impl SensingBackend for SpectrumSensor {
    fn label(&self) -> String {
        "cfd-soc".into()
    }

    /// One decision plus its session accounting. An analytic
    /// full-precision platform decides from the observation's shared
    /// cyclic profile — the one a [`CyclostationaryDetector`] at the same
    /// parameters reads, computed at most once per observation — and
    /// books the platform's closed-form cost; the analytic SoC's DSCF *is*
    /// the engine's. A simulating or Q15 platform computes its own on-tile
    /// spectra from the raw samples. Either way the statistic equals
    /// [`SpectrumSensor::sense`]'s on the same samples, and the decision
    /// carries the [`SpectrumSensor::session_metrics`].
    ///
    /// The decision is timed into the `core.decide.cfd_soc_ns` histogram
    /// while telemetry is enabled.
    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let _span = cfd_telemetry::span("core.decide.cfd_soc_ns");
        let blocks = self.application.num_blocks;
        let statistic = if self.shares_software_spectra() {
            let profile = observation.cyclic_profile_for(self.detector.engine())?;
            let statistic = self.detector.statistic_from_profile(profile);
            let cycles = self.soc.book_blocks(blocks);
            self.account(blocks, cycles);
            statistic
        } else {
            self.soc.reset();
            self.soc
                .run_into(observation.samples(), blocks, &mut self.scratch)?;
            self.account(self.scratch.blocks, self.scratch.max_tile_cycles());
            self.detector.statistic_from_scf(&self.scratch.scf)
        };
        Ok(
            Decision::new(statistic, self.detector.threshold())
                .with_metrics(self.session_metrics()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::detector::EnergyDetector;
    use cfd_dsp::signal::{SignalBuilder, SymbolModulation};

    fn sensor() -> SpectrumSensor {
        // A small, fast configuration: 15x15 DSCF over 32-point spectra on
        // 4 tiles, 64 integration steps.
        SpectrumSensor::new(
            CfdApplication::new(32, 7, 64).unwrap(),
            &Platform::paper(),
            0.35,
            1,
        )
        .unwrap()
    }

    fn observation(present: bool, snr_db: f64, len: usize, seed: u64) -> Vec<Cplx> {
        let mut builder = SignalBuilder::new(len)
            .modulation(SymbolModulation::Bpsk)
            .samples_per_symbol(4)
            .seed(seed);
        if present {
            builder = builder.snr_db(snr_db);
        } else {
            builder = builder.noise_only();
        }
        builder.build().unwrap().samples
    }

    fn decide(sensor: &mut SpectrumSensor, samples: Vec<Cplx>) -> Result<Decision, CfdError> {
        SensingBackend::decide(sensor, &mut Observation::from_samples(samples))
    }

    #[test]
    fn sensor_detects_a_licensed_user_and_clears_an_empty_band() {
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        assert_eq!(n, 32 * 64);
        let busy = observation(true, 5.0, n, 3);
        let idle = observation(false, 0.0, n, 4);
        let busy_report = sensor.sense(&busy).unwrap();
        let idle_report = sensor.sense(&idle).unwrap();
        assert!(
            busy_report.occupied(),
            "statistic {}",
            busy_report.outcome.statistic
        );
        assert!(
            !idle_report.occupied(),
            "statistic {}",
            idle_report.outcome.statistic
        );
        assert!(busy_report.outcome.statistic > idle_report.outcome.statistic);
        assert!(busy_report.latency_us > 0.0);
        assert_eq!(busy_report.per_tile_cycles.len(), 4);
        assert!(busy_report.inter_tile_transfers > 0);
    }

    #[test]
    fn sensing_statistic_matches_golden_model_detector() {
        // The statistic computed from the SoC-produced DSCF must equal the
        // statistic the golden-model detector computes from the raw samples.
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        let samples = observation(true, 3.0, n, 7);
        let report = sensor.sense(&samples).unwrap();
        let golden =
            CyclostationaryDetector::new(sensor.application().scf_params().unwrap(), 0.35, 1)
                .unwrap();
        let golden_statistic = golden.statistic(&samples).unwrap();
        assert!(
            (report.outcome.statistic - golden_statistic).abs() < 1e-9,
            "{} vs {golden_statistic}",
            report.outcome.statistic
        );
    }

    #[test]
    fn energy_baseline_collapses_under_noise_uncertainty_but_cfd_does_not() {
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        // Idle band, but the actual noise is 1 dB stronger than assumed.
        let idle: Vec<Cplx> = observation(false, 0.0, n, 4)
            .into_iter()
            .map(|x| x * 1.26f64.sqrt())
            .collect();
        let mut energy = EnergyDetector::new(1.0, 0.05, n).unwrap();
        let energy =
            SensingBackend::decide(&mut energy, &mut Observation::from_samples(idle.clone()));
        let cfd = sensor.sense(&idle).unwrap();
        assert!(
            energy.unwrap().is_signal(),
            "energy detector should false-alarm"
        );
        assert!(!cfd.occupied(), "CFD should not false-alarm");
    }

    #[test]
    fn session_configures_once_and_streams_batches() {
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        for i in 0..6u64 {
            let decision = decide(&mut sensor, observation(i % 2 == 0, 5.0, n, 100 + i)).unwrap();
            assert_eq!(decision.metrics, Some(sensor.session_metrics()));
        }
        // Six decisions through one sensor: still exactly one configuration.
        assert_eq!(sensor.configurations(), 1);
        assert_eq!(sensor.decisions(), 6);
        assert!(sensor.session_metrics().time_per_block_us > 0.0);
        assert_eq!(
            sensor.session_metrics(),
            sensor.sense(&observation(true, 5.0, n, 3)).unwrap().metrics
        );
        assert_eq!(sensor.decisions(), 7);
    }

    #[test]
    fn session_decisions_match_the_sensor_path() {
        // Decisions through the backend must reproduce the platform run of
        // `sense` exactly, on both the analytic and the lockstep platform.
        let lockstep = Platform::paper().with_mode(ExecutionMode::Lockstep);
        let application = CfdApplication::new(32, 7, 16).unwrap();
        for platform in [Platform::paper(), lockstep] {
            let mut sensor = SpectrumSensor::new(application.clone(), &platform, 0.35, 1).unwrap();
            let mut reference =
                SpectrumSensor::new(application.clone(), &platform, 0.35, 1).unwrap();
            let n = sensor.samples_per_decision();
            for i in 0..4u64 {
                let samples = observation(i % 2 == 0, 2.0, n, 31 + i);
                let mut decision = decide(&mut sensor, samples.clone()).unwrap();
                decision.metrics = None;
                assert_eq!(decision, reference.sense(&samples).unwrap().outcome);
            }
            assert_eq!(sensor.decisions(), 4);
            assert_eq!(sensor.session_metrics(), reference.session_metrics());
            assert_eq!(sensor.configurations(), 1);
        }
    }

    #[test]
    fn spectra_fed_decisions_match_raw_sample_decisions() {
        // The analytic backend decides from the observation's shared
        // software spectra; it must reproduce the raw-sample platform
        // decision of `sense` bit for bit, with the same accounting.
        let mut via_samples = sensor();
        let mut via_observation = sensor();
        assert!(via_observation.shares_software_spectra());
        let n = via_samples.samples_per_decision();
        for trial in 0..3u64 {
            let samples = observation(trial % 2 == 0, 3.0, n, 50 + trial);
            let a = via_samples.sense(&samples).unwrap().outcome;
            let b = decide(&mut via_observation, samples).unwrap();
            assert_eq!(b.verdict, a.verdict);
            assert_eq!(b.statistic.to_bits(), a.statistic.to_bits());
            assert_eq!(b.threshold, a.threshold);
            assert_eq!(b.metrics, Some(via_observation.session_metrics()));
        }
        assert_eq!(via_samples.decisions(), via_observation.decisions());
        assert_eq!(
            via_samples.session_metrics(),
            via_observation.session_metrics()
        );
        assert_eq!(via_observation.configurations(), 1);
    }

    #[test]
    fn analytic_sensor_matches_the_lockstep_golden_reference() {
        // Platform::paper() defaults to the analytic platform; the
        // cycle-accurate simulation stays available behind with_mode and
        // must report the identical statistic, metrics and counters.
        let application = CfdApplication::new(32, 7, 16).unwrap();
        let mut fast =
            SpectrumSensor::new(application.clone(), &Platform::paper(), 0.35, 1).unwrap();
        let mut golden = SpectrumSensor::new(
            application,
            &Platform::paper().with_mode(ExecutionMode::Lockstep),
            0.35,
            1,
        )
        .unwrap();
        assert!(fast.shares_software_spectra());
        assert!(!golden.shares_software_spectra());
        let samples = observation(true, 4.0, fast.samples_per_decision(), 9);
        let fast_report = fast.sense(&samples).unwrap();
        let golden_report = golden.sense(&samples).unwrap();
        assert_eq!(fast_report.outcome, golden_report.outcome);
        assert_eq!(fast_report.per_tile_cycles, golden_report.per_tile_cycles);
        assert_eq!(
            fast_report.inter_tile_transfers,
            golden_report.inter_tile_transfers
        );
        assert_eq!(fast_report.metrics, golden_report.metrics);
        assert_eq!(fast_report.scf.max_abs_difference(&golden_report.scf), 0.0);
    }

    #[test]
    fn session_survives_a_failed_batch() {
        let mut sensor = sensor();
        let n = sensor.samples_per_decision();
        assert!(decide(&mut sensor, observation(true, 5.0, 100, 3)).is_err());
        assert!(decide(&mut sensor, observation(true, 5.0, n, 3)).is_ok());
        assert_eq!(sensor.decisions(), 1);
        assert_eq!(sensor.configurations(), 1);
    }

    #[test]
    fn analytic_backends_refuse_a_short_observation() {
        // Too few samples is a structured error, never a verdict — on the
        // shared-DSCF path of the analytic SoC backend, which books
        // nothing for it.
        let mut sensor = sensor();
        assert!(sensor.shares_software_spectra());
        assert!(decide(&mut sensor, observation(true, 5.0, 100, 3)).is_err());
        assert_eq!(sensor.decisions(), 0);
    }

    #[test]
    fn sense_rejects_short_observations() {
        let mut sensor = sensor();
        let samples = observation(true, 5.0, 100, 3);
        assert!(sensor.sense(&samples).is_err());
    }

    #[test]
    fn paper_sensor_reports_the_140us_latency_per_step() {
        let mut sensor = SpectrumSensor::paper(1, 0.35).unwrap();
        let samples = observation(true, 10.0, 256, 11);
        let report = sensor.sense(&samples).unwrap();
        assert!((report.metrics.time_per_block_us - 139.96).abs() < 1e-9);
        assert!((report.latency_us - 139.96).abs() < 1e-9);
        assert!((report.metrics.analysed_bandwidth_khz - 915.0).abs() < 1.0);
    }
}
