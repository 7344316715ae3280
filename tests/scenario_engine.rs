//! Property-based tests over the scenario engine: SNR accuracy of the AWGN
//! channel, seeded reproducibility of Monte-Carlo trials, monotonicity of
//! the energy detector's detection probability in SNR, and bit-exact
//! equivalence of a sweep on every lane with the same sweep on one lane.

mod common;

use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::ScfParams;
use cfd_dsp::signal::signal_power;
use cfd_scenario::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The AWGN stage realises the requested SNR: a busy observation's
    /// power approaches `noise + noise * 10^(snr/10)` for long
    /// observations, for any SNR target and seed.
    #[test]
    fn awgn_channel_hits_requested_snr(snr_db in -5.0f64..10.0, seed in 0u64..1000) {
        let scenario = RadioScenario::preset("bpsk-awgn", 65_536)
            .expect("built-in preset")
            .with_seed(seed)
            .at_snr(snr_db);
        let h1 = scenario.observe(Hypothesis::Occupied, 0).unwrap();
        let expected = 1.0 + 10f64.powf(snr_db / 10.0);
        let measured = signal_power(&h1.samples);
        // 5% relative tolerance: the noise realisation contributes
        // O(1/sqrt(N)) fluctuation at N = 65536.
        prop_assert!(
            (measured - expected).abs() < 0.05 * expected,
            "snr {snr_db} dB: measured {measured}, expected {expected}"
        );
    }

    /// Trials are reproducible per (scenario, seed, trial) and independent
    /// across trials and seeds — for every preset.
    #[test]
    fn trials_reproduce_per_seed(seed in 0u64..1000, trial in 0usize..50) {
        for preset in RadioScenario::preset_names() {
            let scenario = RadioScenario::preset(preset, 256)
                .expect("built-in preset")
                .with_seed(seed);
            let a = scenario.observe(Hypothesis::Occupied, trial).unwrap();
            let b = scenario.observe(Hypothesis::Occupied, trial).unwrap();
            prop_assert_eq!(&a.samples, &b.samples, "preset {}", preset);
            let next_trial = scenario.observe(Hypothesis::Occupied, trial + 1).unwrap();
            prop_assert_ne!(&a.samples, &next_trial.samples, "preset {}", preset);
            let other_seed = scenario
                .with_seed(seed ^ 0xDEAD_BEEF)
                .observe(Hypothesis::Occupied, trial)
                .unwrap();
            prop_assert_ne!(&a.samples, &other_seed.samples, "preset {}", preset);
        }
    }

    /// Because SNR sweeps reuse the same noise realisations per trial
    /// (common random numbers), the energy detector's detection
    /// probability is monotone non-decreasing in SNR, up to one trial of
    /// slack: per trial the statistic is `g²·Σ|s|² + 2g·Re⟨s,w⟩ + Σ|w|²`,
    /// and a negative signal–noise cross term can make a single trial
    /// detect at a lower SNR but not a higher one.
    #[test]
    fn energy_detector_pd_is_monotone_in_snr(seed in 0u64..1000) {
        let len = 1024usize;
        let scenario = RadioScenario::preset("bpsk-awgn", len)
            .expect("built-in preset")
            .with_seed(seed);
        let table = SweepBuilder::new(&scenario)
            .sweep(SnrSweep::linspace(-18.0, 6.0, 5, 30).unwrap())
            .backend(EnergyDetector::new(1.0, 0.05, len).unwrap())
            .run()
            .unwrap();
        let series = table.pd_series("energy");
        prop_assert_eq!(series.len(), 5);
        // Two trials of slack out of 30: each trial's negative cross term
        // can independently flip one adjacent-SNR comparison.
        let slack = 2.0 / 30.0 + 1e-12;
        for window in series.windows(2) {
            prop_assert!(
                window[1].1 >= window[0].1 - slack,
                "Pd dropped from {} (at {} dB) to {} (at {} dB)",
                window[0].1,
                window[0].0,
                window[1].1,
                window[1].0
            );
        }
        // The sweep spans chance to certainty.
        prop_assert!(series[4].1 > 0.9, "Pd at 6 dB = {}", series[4].1);
    }

    /// Determinism under common random numbers survives the lanes: for
    /// every preset and any base seed, the sweep on every idle lane
    /// produces a `RocTable` identical to the same sweep on one lane (cells
    /// in order) — same rows, same Pd/Pfa, bit for bit.
    #[test]
    fn parallel_sweep_equals_serial_for_every_preset(seed in 0u64..1000) {
        let params = ScfParams::new(32, 7, 8).unwrap();
        let len = params.samples_needed();
        let sweep = SnrSweep::new(vec![-5.0, 5.0], 6).unwrap();
        for preset in RadioScenario::preset_names() {
            let scenario = RadioScenario::preset(preset, len)
                .expect("built-in preset")
                .with_seed(seed);
            let run = || {
                SweepBuilder::new(&scenario)
                    .sweep(sweep.clone())
                    .backend(EnergyDetector::new(1.0, 0.1, len).unwrap())
                    .backend(CyclostationaryDetector::new(params.clone(), 0.35, 1).unwrap())
                    .run()
                    .unwrap()
            };
            prop_assert_eq!(
                &common::on_one_lane(run),
                &run(),
                "preset {} diverged between one lane and every lane",
                preset
            );
        }
    }
}
