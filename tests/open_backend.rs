//! The acceptance test for the open sensing surface: custom third-party
//! backends — defined only in this test file, outside every workspace
//! crate — run through `SweepBuilder` in a sweep on every lane and appear
//! in the `RocTable` next to the built-in detectors.
//!
//! Two registration paths are exercised:
//!
//! * a `Clone + Sync` backend, which is automatically its own
//!   [`BackendRecipe`] via the blanket impl;
//! * a non-`Clone` backend registered through a hand-written
//!   [`BackendRecipe`] (the path a stateful platform-like detector would
//!   take).

mod common;

use cfd_core::backend::{BackendRecipe, Decision, Observation, SensingBackend};
use cfd_core::error::CfdError;
use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::{ScfEngine, ScfParams};
use cfd_scenario::prelude::*;

/// A third-party detector using the shared spectra cache: thresholds the
/// total cyclic energy outside the `a = 0` ridge, normalised by the ridge
/// energy — a different statistic from the built-in max-feature CFD.
#[derive(Debug, Clone)]
struct CyclicEnergyDetector {
    engine: ScfEngine,
    threshold: f64,
}

impl CyclicEnergyDetector {
    fn new(params: ScfParams, threshold: f64) -> Self {
        CyclicEnergyDetector {
            engine: ScfEngine::new(params).expect("valid params"),
            threshold,
        }
    }
}

impl SensingBackend for CyclicEnergyDetector {
    fn label(&self) -> String {
        "cyclic-energy".into()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        let scf = observation.scf_for(&self.engine)?;
        let profile = scf.cyclic_profile();
        let ridge = profile[scf.max_offset()].max(f64::MIN_POSITIVE);
        let off_ridge: f64 = profile.iter().sum::<f64>() - profile[scf.max_offset()];
        Ok(Decision::new(
            off_ridge / ridge / (profile.len() - 1) as f64,
            self.threshold,
        ))
    }
}

/// A deliberately non-`Clone` backend (it carries a decision counter, i.e.
/// per-replica mutable state): an OR-vote over an energy detector and a
/// CFD detector.
#[derive(Debug)]
struct VotingBackend {
    energy: EnergyDetector,
    cfd: CyclostationaryDetector,
    decisions_taken: u64,
}

impl SensingBackend for VotingBackend {
    fn label(&self) -> String {
        "either-vote".into()
    }

    fn decide(&mut self, observation: &mut Observation) -> Result<Decision, CfdError> {
        self.decisions_taken += 1;
        let energy = self.energy.decide(observation)?;
        let cfd_scf = observation.scf_for(self.cfd.engine())?;
        // Report the CFD statistic/threshold, but fire if either does.
        let mut decision =
            Decision::new(self.cfd.statistic_from_scf(cfd_scf), self.cfd.threshold());
        if energy.is_signal() {
            decision.verdict = cfd_dsp::detector::Verdict::SignalPresent;
        }
        Ok(decision)
    }
}

/// The hand-written recipe for the non-`Clone` backend: each sweep lane
/// gets a fresh replica with its own counter.
#[derive(Debug, Clone)]
struct VotingRecipe {
    params: ScfParams,
    observation_len: usize,
}

impl BackendRecipe for VotingRecipe {
    fn label(&self) -> String {
        "either-vote".into()
    }

    fn build(&self) -> Result<Box<dyn SensingBackend + Send>, CfdError> {
        Ok(Box::new(VotingBackend {
            energy: EnergyDetector::new(1.0, 0.1, self.observation_len)?,
            cfd: CyclostationaryDetector::new(self.params.clone(), 0.35, 1)?,
            decisions_taken: 0,
        }))
    }
}

#[test]
fn custom_backends_run_in_a_parallel_sweep_and_appear_in_the_table() {
    let params = ScfParams::new(32, 7, 16).unwrap();
    let len = params.samples_needed();
    let scenario = RadioScenario::preset("bpsk-awgn", len)
        .expect("built-in preset")
        .with_seed(23);
    let sweep = SnrSweep::new(vec![-10.0, 0.0, 10.0], 8).unwrap();

    let run = || {
        SweepBuilder::new(&scenario)
            .sweep(sweep.clone())
            // Built-ins for comparison…
            .backend(EnergyDetector::new(1.0, 0.1, len).unwrap())
            .backend(CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap())
            // …plus the two third-party registration paths.
            .backend(CyclicEnergyDetector::new(params.clone(), 0.15))
            .backend(VotingRecipe {
                params: params.clone(),
                observation_len: len,
            })
            .run()
            .unwrap()
    };

    let table = run();
    // All four backends appear, in insertion order, under their own labels.
    assert_eq!(
        table.detectors(),
        vec![
            "energy".to_string(),
            "cfd".into(),
            "cyclic-energy".into(),
            "either-vote".into(),
        ]
    );
    // Every (snr, backend) pair has a row with a sane estimate.
    for &snr in &sweep.snr_points_db {
        for label in ["cyclic-energy", "either-vote"] {
            let row = table.row(label, snr).unwrap_or_else(|| {
                panic!("custom backend {label} missing at {snr} dB");
            });
            assert!((0.0..=1.0).contains(&row.pd));
            assert!((0.0..=1.0).contains(&row.pfa));
            assert_eq!(row.trials, sweep.trials);
        }
    }
    // The OR-vote fires at least as often as the energy detector alone.
    for &snr in &sweep.snr_points_db {
        let energy = table.row("energy", snr).unwrap();
        let vote = table.row("either-vote", snr).unwrap();
        assert!(vote.pd >= energy.pd, "vote must dominate energy at {snr}");
    }
    // Custom backends keep the engine deterministic: the table is
    // bit-identical to the same sweep on one lane.
    assert_eq!(table, common::on_one_lane(run));

    // And the custom detectors survive the JSON emission path (labels are
    // escaped, schema versioned).
    let json = table.to_json();
    assert!(json.starts_with("{\"schema\":2,"));
    assert!(json.contains("\"detector\":\"cyclic-energy\""));
    assert!(json.contains("\"detector\":\"either-vote\""));
}

#[test]
fn custom_backends_share_the_per_trial_spectra_cache() {
    // A custom backend asking for the DSCF at the same ScfParams as a
    // built-in CFD detector reuses the observation's cached matrix: the
    // cache is keyed by parameters, not by requesting type.
    let params = ScfParams::new(32, 7, 16).unwrap();
    let scenario = RadioScenario::preset("bpsk-awgn", params.samples_needed())
        .expect("built-in preset")
        .with_seed(5);
    let trial = scenario.observe(Hypothesis::Occupied, 0).unwrap();
    let mut observation = Observation::from_samples(trial.samples);

    let mut custom = CyclicEnergyDetector::new(params.clone(), 0.15);
    let mut builtin = CyclostationaryDetector::new(params, 0.35, 1).unwrap();
    custom.decide(&mut observation).unwrap();
    assert_eq!(observation.computed(), 1);
    SensingBackend::decide(&mut builtin, &mut observation).unwrap();
    assert_eq!(observation.computed(), 1, "same params, same cache slot");
}
