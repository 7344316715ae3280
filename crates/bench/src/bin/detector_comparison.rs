//! The detector study behind the paper's motivation: cyclostationary feature
//! detection versus the energy detector of \[7\], with and without noise
//! -floor uncertainty, across SNR.
//!
//! Run with: `cargo run --release -p cfd-bench --bin detector_comparison`

use cfd_bench::header;
use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::ScfParams;
use cfd_scenario::prelude::*;

const SNR_POINTS_DB: [f64; 5] = [-4.0, -2.0, 0.0, 2.0, 5.0];
const TRIALS: usize = 30;

/// Sweeps one detector over `scenario`, timed into the `name` histogram.
fn sweep(
    scenario: &RadioScenario,
    name: &str,
    detector: impl BackendRecipe,
) -> Result<RocTable, ScenarioError> {
    let sweep = SnrSweep::new(SNR_POINTS_DB.to_vec(), TRIALS)?;
    cfd_telemetry::time(name, || {
        SweepBuilder::new(scenario)
            .sweep(sweep)
            .backend(detector)
            .run()
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // All binary timing reports from one source: telemetry spans, not
    // ad-hoc `Instant` one-offs.
    cfd_telemetry::set_enabled(true);
    header("CFD vs energy detection (golden-model study)");
    let params = ScfParams::new(32, 7, 80)?;
    let cfd = CyclostationaryDetector::new(params.clone(), 0.35, 1)?;
    let energy = EnergyDetector::new(1.0, 0.05, params.samples_needed())?;
    let calibrated = RadioScenario::preset("bpsk-awgn", params.samples_needed())
        .expect("built-in preset")
        .with_seed(7);
    let uncertain = calibrated.with_noise_power(1.26);
    let cfd_ns = "bench.comparison.cfd_sweep_ns";
    let energy_ns = "bench.comparison.energy_sweep_ns";
    let columns = [
        (sweep(&calibrated, cfd_ns, cfd.clone())?, "cfd"),
        (sweep(&calibrated, energy_ns, energy.clone())?, "energy"),
        (sweep(&uncertain, cfd_ns, cfd)?, "cfd"),
        (sweep(&uncertain, energy_ns, energy)?, "energy"),
    ];

    println!(
        "observation: {} samples, BPSK with 4 samples/symbol, {TRIALS} trials/point\n",
        params.samples_needed()
    );
    println!("                       calibrated noise          1 dB noise uncertainty");
    println!("snr [dB]   CFD Pd  CFD Pfa  ED Pd  ED Pfa   CFD Pd  CFD Pfa  ED Pd  ED Pfa");
    for snr_db in SNR_POINTS_DB {
        let [c_cal, e_cal, c_unc, e_unc] = columns.each_ref().map(|(table, detector)| {
            table
                .row(detector, snr_db)
                .expect("every swept point has a row")
        });
        println!(
            "{snr_db:>8.1}   {:>5.2}  {:>7.2}  {:>5.2}  {:>6.2}   {:>6.2}  {:>7.2}  {:>5.2}  {:>6.2}",
            c_cal.pd, c_cal.pfa, e_cal.pd, e_cal.pfa, c_unc.pd, c_unc.pfa, e_unc.pd, e_unc.pfa
        );
    }
    println!(
        "\nWith a perfectly known noise floor the energy detector is competitive; a 1 dB\n\
         calibration error destroys its false-alarm rate while the cyclic-feature\n\
         statistic is unaffected — the reason CFD is 'the most promising but\n\
         computationally intensive alternative' that the paper maps onto the tiled SoC."
    );
    // The 'computationally intensive' claim, measured: per-sweep
    // evaluation cost of each detector, from the telemetry spans above.
    // Timing goes to stderr: the seeded study table on stdout stays
    // byte-identical across runs, wall-clock never is.
    let snapshot = cfd_telemetry::registry().snapshot();
    eprintln!("\ntiming (telemetry, per {TRIALS}-trial, 5-point sweep):");
    for name in [cfd_ns, energy_ns] {
        if let Some(h) = snapshot.histogram(name) {
            eprintln!(
                "  {name:<34} n={:<3} p50 = {:>10} ns   mean = {:>12.0} ns",
                h.count,
                h.p50().unwrap_or(0),
                h.mean().unwrap_or(0.0)
            );
        }
    }
    Ok(())
}
