//! Pins the sweep engine's shared-spectra contract: block spectra are
//! computed **once per trial**, not once per backend replica, whether the
//! sweep runs on one lane or on every lane of the `SensingBackend` surface.
//! The analytic SoC backends go further and share the trial's DSCF itself:
//! a roster of a CFD detector, an analytic SoC session and an analytic
//! `SpectrumSensor` pays for **one** DSCF accumulate per trial, decides
//! with bit-identical statistics, and the session still reports the
//! platform metrics of the cycle-accurate simulation.
//!
//! This lives in its own integration-test binary on purpose — the
//! `core.observation.spectra_computations` registry counter is
//! process-global, so the delta measurements must not race other sweeps
//! running in the same process.
//! For the same reason everything here is **one** `#[test]`: libtest runs
//! tests of a binary in parallel, and two tests measuring exact deltas of
//! the same global counter would race each other.

mod common;

use cfd_core::app::{CfdApplication, Platform};
use cfd_core::SpectrumSensor;
use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::ScfParams;
use cfd_scenario::prelude::*;

fn params() -> ScfParams {
    ScfParams::new(32, 7, 16).unwrap()
}

/// The registry counter behind the once-per-trial contract (the former
/// `spectra_computations()` / `shared_spectra_computations()` shims are
/// gone; the counter is the single source of truth).
fn spectra_computations() -> u64 {
    cfd_telemetry::counter("core.observation.spectra_computations").value()
}

/// Unit-stride passes of the DSCF engine's accumulation.
fn segment_runs() -> u64 {
    cfd_telemetry::counter("dsp.scf.segment_runs").value()
}

/// DSCF matrices computed (not served from the cache) by `Observation`s.
fn scf_computations() -> u64 {
    cfd_telemetry::counter("core.observation.scf_cache_misses").value()
}

#[test]
fn spectra_are_computed_once_per_trial_on_serial_and_parallel_paths() {
    let len = params().samples_needed();
    let scenario = RadioScenario::preset("bpsk-awgn", len)
        .expect("built-in preset")
        .with_seed(11);
    let points = 2usize;
    let trials = 5usize;
    let sweep = SnrSweep::new(vec![-5.0, 5.0], trials).unwrap();
    // One shared H0 pass plus one H1 pass per SNR point.
    let observations = (points + 1) * trials;

    // Two CFD detectors at the same ScfParams, a tiled-SoC session at the
    // equivalent application (its analytic platform decides from the
    // shared DSCF), plus the energy baseline: one FFT per trial for the
    // whole roster — before the shared-spectra path every CFD replica
    // re-ran windowing + FFT per observation, and before the analytic
    // platform every SoC replica additionally simulated an on-tile FFT per
    // tile.
    let run = || {
        SweepBuilder::new(&scenario)
            .sweep(sweep.clone())
            .backend(EnergyDetector::new(1.0, 0.1, len).unwrap())
            .backend(CyclostationaryDetector::new(params(), 0.25, 1).unwrap())
            .backend(CyclostationaryDetector::new(params(), 0.45, 1).unwrap())
            .backend(SessionRecipe::new(
                CfdApplication::new(32, 7, 16).unwrap(),
                &Platform::paper(),
                0.35,
                1,
            ))
            .run()
            .unwrap()
    };

    // --- The open SweepBuilder engine ----------------------------------
    let before = spectra_computations();
    let serial = common::on_one_lane(run);
    let after_serial = spectra_computations();
    assert_eq!(
        (after_serial - before) as usize,
        observations,
        "a sweep on one lane must compute spectra once per observation"
    );

    let parallel = run();
    let after_parallel = spectra_computations();
    assert_eq!(
        (after_parallel - after_serial) as usize,
        observations,
        "a sweep on every lane must compute spectra once per observation"
    );
    assert_eq!(serial, parallel);

    // --- The roster shares one DSCF per trial ---------------------------
    let application = CfdApplication::new(32, 7, 16).unwrap();
    let recipe = |platform: &Platform| SessionRecipe::new(application.clone(), platform, 0.35, 1);
    let mut cfd = CyclostationaryDetector::new(params(), 0.35, 1).unwrap();
    let mut session = recipe(&Platform::paper()).build().unwrap();
    let mut sensor = SpectrumSensor::new(application.clone(), &Platform::paper(), 0.35, 1).unwrap();
    let lockstep = Platform::paper().with_mode(tiled_soc::config::ExecutionMode::Lockstep);
    let mut golden = recipe(&lockstep).build().unwrap();
    let mut observation = Observation::new();
    for trial in 0..6usize {
        let hypothesis = if trial % 2 == 0 {
            Hypothesis::Occupied
        } else {
            Hypothesis::Vacant
        };
        observation.load(&scenario.observe(hypothesis, trial).unwrap().samples);
        let before = scf_computations();
        let by_cfd = cfd.decide(&mut observation).unwrap();
        let runs_before = segment_runs();
        let by_session = session.decide(&mut observation).unwrap();
        let by_sensor = SensingBackend::decide(&mut sensor, &mut observation).unwrap();
        assert_eq!(
            scf_computations() - before,
            1,
            "trial {trial}: one DSCF accumulate for the whole roster"
        );
        assert_eq!(
            segment_runs(),
            runs_before,
            "trial {trial}: the SoC backends run no accumulation of their own"
        );
        for decision in [&by_session, &by_sensor] {
            assert_eq!(decision.statistic.to_bits(), by_cfd.statistic.to_bits());
            assert_eq!(decision.verdict, by_cfd.verdict);
        }
        // The lockstep session simulates its own on-tile FFTs from the raw
        // samples; the analytic session's booked counters must add up to
        // the same platform metrics.
        let by_golden = golden.decide(&mut observation).unwrap();
        assert_eq!(by_golden.statistic, by_session.statistic);
        assert!(by_session.metrics.is_some());
        assert_eq!(by_session.metrics, by_golden.metrics);
    }
}
