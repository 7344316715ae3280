//! Detector comparison on the scenario engine: cyclostationary feature
//! detection versus energy detection (the motivation for accepting the
//! DSCF's 16x higher multiplication count, Section 1/2 of the paper and
//! reference [7]).
//!
//! A BPSK licensed user is swept over SNR through an AWGN channel whose
//! actual noise floor sits 1 dB above what both detectors were calibrated
//! for — the regime Cabric et al. use to argue for feature detection. Both
//! detectors target a 10% false-alarm rate at the *nominal* floor: the
//! energy detector via its analytic threshold, the CFD detector via
//! Monte-Carlo calibration of its scale-invariant statistic. The run is
//! fully seeded and reproduces exactly.
//!
//! Run with: `cargo run --release --example detector_roc`
//! (pass `--json` to dump the ROC table as machine-readable JSON instead
//! of the text rendering — e.g. for `BENCH_*.json` trajectory tracking).

use cfd_tiled_soc::dsp::prelude::*;
use cfd_tiled_soc::scenario::prelude::*;

const SEED: u64 = 2007;
const TRIALS: usize = 100;
const TARGET_PFA: f64 = 0.1;
/// Actual-to-assumed noise power: a 1 dB calibration error.
const NOISE_UNCERTAINTY: f64 = 1.26;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // All binary timing reports from one source: telemetry spans, not
    // ad-hoc `Instant` one-offs.
    cfd_telemetry::set_enabled(true);
    let json_output = std::env::args().any(|arg| arg == "--json");
    // The sensing configuration: 15x15 DSCF over 32-point spectra with 64
    // integration steps, i.e. 2048 samples per decision.
    let params = ScfParams::new(32, 7, 64)?;
    let samples_per_decision = params.samples_needed();

    let scenario = RadioScenario::preset("bpsk-awgn", samples_per_decision)
        .expect("built-in preset")
        .with_seed(SEED)
        .with_noise_power(NOISE_UNCERTAINTY);

    // Calibrate both detectors for the nominal (unit) noise floor. The
    // calibrated detectors are passed to the sweep directly: every
    // `Clone + Sync` `SensingBackend` is its own `BackendRecipe`, and each
    // lane of the sweep engine builds its own replica from it.
    let cfd_threshold = cfd_telemetry::time("roc.calibration_ns", || {
        calibrate_cfd_threshold(&params, 1, TARGET_PFA, 200, SEED)
    })?;
    let sweep = SnrSweep::linspace(-12.0, 8.0, 6, TRIALS)?;
    let energy = EnergyDetector::new(1.0, TARGET_PFA, samples_per_decision)?;
    let cfd = CyclostationaryDetector::new(params.clone(), cfd_threshold, 1)?;
    let table = cfd_telemetry::time("roc.sweep_ns", || {
        SweepBuilder::new(&scenario)
            .sweep(sweep.clone())
            .backend(energy.clone())
            .backend(cfd.clone())
            .run()
    })?;
    if json_output {
        println!("{}", table.to_json());
        return Ok(());
    }
    println!(
        "scenario: {} | {} samples/decision | {} trials/point | seed {SEED}",
        scenario.name, samples_per_decision, TRIALS
    );
    println!(
        "both detectors calibrated for Pfa = {TARGET_PFA} at noise power 1.0; \
         actual noise power = {NOISE_UNCERTAINTY} (+1 dB)"
    );
    println!("calibrated CFD threshold: {cfd_threshold:.3}\n");
    print!("{}", table.render());

    // Who delivers a usable operating point at each SNR?
    println!();
    let mut cfd_wins = Vec::new();
    for &snr in &sweep.snr_points_db {
        let energy = table.row("energy", snr).expect("row exists");
        let cfd = table.row("cfd", snr).expect("row exists");
        if cfd.balanced_accuracy() > energy.balanced_accuracy() {
            cfd_wins.push(snr);
        }
    }
    println!(
        "CFD beats the energy detector (balanced accuracy) at {} of {} SNR points: {:?} dB",
        cfd_wins.len(),
        sweep.snr_points_db.len(),
        cfd_wins
    );
    println!(
        "The 1 dB noise-floor error drives the energy detector's false alarms to ~1\n\
         (its threshold sits below the actual noise power), while the CFD statistic —\n\
         normalised by the a = 0 ridge — keeps its calibrated Pfa and wins at low SNR.\n\
         This is why the paper accepts the 16x higher multiplication count of the DSCF."
    );

    // The same calibrated detectors through the two harsh-channel presets
    // that motivate cooperative sensing (PR 10): BPSK behind a 3-tap
    // Rayleigh channel plus 6 dB log-normal shadowing, and the OFDM
    // licensed user next to a strong adjacent-channel QPSK interferer.
    // Short sweeps — the point is the qualitative contrast, and a fleet
    // remedy for the shadowed case lives in `cfd_core::fusion`.
    let harsh_sweep = SnrSweep::linspace(-4.0, 8.0, 3, 60)?;
    for name in ["bpsk-rayleigh-shadowed", "ofdm-adjacent-interferer"] {
        let scenario = RadioScenario::preset(name, samples_per_decision)
            .expect("built-in preset")
            .with_seed(SEED)
            .with_noise_power(NOISE_UNCERTAINTY);
        let table = cfd_telemetry::time("roc.harsh_sweep_ns", || {
            SweepBuilder::new(&scenario)
                .sweep(harsh_sweep.clone())
                .backend(energy.clone())
                .backend(cfd.clone())
                .run()
        })?;
        println!(
            "\nscenario: {} | {} trials/point | same calibrated thresholds",
            scenario.name, harsh_sweep.trials
        );
        print!("{}", table.render());
        let top_snr = *harsh_sweep.snr_points_db.last().expect("non-empty sweep");
        match name {
            "bpsk-rayleigh-shadowed" => {
                let cfd_row = table.row("cfd", top_snr).expect("row exists");
                println!(
                    "Per-realisation fades cap a single sensor's Pd at {:.2} even at {top_snr} dB —\n\
                     the shadowing regime where an OR-fused fleet recovers the margin\n\
                     (see the cooperative-sensing section of the README).",
                    cfd_row.pd
                );
            }
            _ => println!(
                "The strong neighbour saturates both detectors: the energy statistic sees\n\
                 3x received power, and the whole-plane max CFD statistic picks up the\n\
                 interferer's own cyclic features. Telling the two apart needs an\n\
                 alpha-targeted profile read, not a lower threshold — more sensors\n\
                 behind the same interferer would all vote the same way."
            ),
        }
    }
    // Timing goes to stderr: stdout stays byte-identical across runs (the
    // seeded-reproducibility probe diffs it), wall-clock never is.
    let snapshot = cfd_telemetry::registry().snapshot();
    eprintln!("\ntiming (telemetry):");
    for name in ["roc.calibration_ns", "roc.sweep_ns", "roc.harsh_sweep_ns"] {
        if let Some(nanos) = snapshot.histogram(name).map(|h| h.sum) {
            eprintln!("  {name:<20} {:.3} s", nanos as f64 / 1e9);
        }
    }
    Ok(())
}
