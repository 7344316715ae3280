//! Criterion bench of the scenario engine's hot path: licensed-user signal
//! generation, channel application, and backend evaluation over a small
//! SNR sweep — plus the one-lane-versus-every-lane comparison of the
//! sweep engine, whose cells are the tasks of one `cfd_dsp::lanes`
//! fan-out.

use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::ScfParams;
use cfd_scenario::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_signal_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_signal_generation");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let len = 2048;
    for preset in RadioScenario::preset_names() {
        let scenario = RadioScenario::preset(preset, len).expect("built-in preset");
        group.bench_with_input(BenchmarkId::from_parameter(preset), &scenario, |b, s| {
            let mut trial = 0usize;
            b.iter(|| {
                trial = trial.wrapping_add(1);
                s.observe(Hypothesis::Occupied, trial).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_channel_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_channel");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let len = 2048;
    let clean = SignalModel::bpsk().generate(len, 1).expect("valid model");
    let pipelines = [
        ("awgn", ChannelPipeline::awgn(0.0)),
        (
            "full-impairment",
            ChannelPipeline::new(vec![
                ChannelStage::TwoRay {
                    delay_samples: 3,
                    relative_gain: 0.5,
                    phase: 2.2,
                },
                ChannelStage::CarrierOffset {
                    normalised: 0.01,
                    phase: 0.3,
                },
                ChannelStage::Awgn {
                    snr_db: 0.0,
                    noise_power: 1.0,
                },
                ChannelStage::Quantize { full_scale: 4.0 },
            ]),
        ),
    ];
    for (name, pipeline) in &pipelines {
        group.bench_with_input(BenchmarkId::from_parameter(name), pipeline, |b, p| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                p.apply(clean.clone(), seed).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_sweep_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_sweep_eval");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let params = ScfParams::new(32, 7, 32).expect("valid params");
    let len = params.samples_needed();
    let scenario = RadioScenario::preset("bpsk-awgn", len).expect("built-in preset");
    let sweep = SnrSweep::new(vec![-4.0, 0.0, 4.0], 4).expect("valid sweep");

    group.bench_function("energy_3snr_4trials", |b| {
        let energy = EnergyDetector::new(1.0, 0.1, len).expect("valid detector");
        b.iter(|| {
            SweepBuilder::new(&scenario)
                .sweep(sweep.clone())
                .backend(energy.clone())
                .run()
                .unwrap()
        });
    });
    group.bench_function("cfd_3snr_4trials", |b| {
        let cfd = CyclostationaryDetector::new(params.clone(), 0.35, 1).expect("valid detector");
        b.iter(|| {
            SweepBuilder::new(&scenario)
                .sweep(sweep.clone())
                .backend(cfd.clone())
                .run()
                .unwrap()
        });
    });
    group.finish();
}

/// One lane vs every lane for the identical sweep: same recipes, same
/// seeded trials, bit-identical tables — only the scheduling differs. The
/// one-lane row runs on a thread marked as a worker of another pool, where
/// the sweep's fan-out runs its cells in order.
fn bench_sweep_engine_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_sweep_engine");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(300));
    let params = ScfParams::new(32, 7, 32).expect("valid params");
    let len = params.samples_needed();
    let scenario = RadioScenario::preset("bpsk-awgn", len).expect("built-in preset");
    let sweep = SnrSweep::new(vec![-4.0, 0.0, 4.0], 16).expect("valid sweep");
    let energy = EnergyDetector::new(1.0, 0.1, len).expect("valid detector");
    let cfd = CyclostationaryDetector::new(params, 0.35, 1).expect("valid detector");
    let run = || {
        SweepBuilder::new(&scenario)
            .sweep(sweep.clone())
            .backend(energy.clone())
            .backend(cfd.clone())
            .run()
            .unwrap()
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            cfd_dsp::lanes::enter_pool_worker();
            group.bench_function("cfd_serial", |b| {
                b.iter(run);
            });
        });
    });
    group.bench_function("cfd_lanes", |b| {
        b.iter(run);
    });
    group.finish();
}

/// Before/after of the shared-spectra rework for a roster of several CFD
/// detectors: `per_replica` re-runs windowing + FFT + DSCF from raw
/// samples inside every replica (the old behaviour, reconstructed by
/// reloading the observation before each replica decides),
/// `shared_observation` is the current engine path
/// where each trial's block spectra are computed once inside a reusable
/// `Observation` and every CFD backend reuses them. Decisions are
/// identical; only the work differs.
fn bench_sweep_shared_spectra(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_sweep_shared_spectra");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(300));
    let params = ScfParams::new(64, 15, 16).expect("valid params");
    let len = params.samples_needed();
    let scenario = RadioScenario::preset("bpsk-awgn", len).expect("built-in preset");
    let trials = 8usize;
    // Three CFD detectors at the same ScfParams but different operating
    // points — the roster shape the ROADMAP's "reuse H1 block spectra
    // across detectors" item is about.
    let detectors: Vec<CyclostationaryDetector> = [0.25, 0.35, 0.45]
        .iter()
        .map(|&threshold| {
            CyclostationaryDetector::new(params.clone(), threshold, 1).expect("valid detector")
        })
        .collect();
    let observations: Vec<_> = (0..trials)
        .map(|trial| scenario.observe(Hypothesis::Occupied, trial).unwrap())
        .collect();

    group.bench_function("per_replica_fft_3cfd_8trials", |b| {
        let mut replicas: Vec<_> = detectors.to_vec();
        let mut own = Observation::new();
        b.iter(|| {
            let mut positives = 0usize;
            for observation in &observations {
                for replica in &mut replicas {
                    own.load(&observation.samples);
                    if SensingBackend::decide(replica, &mut own)
                        .unwrap()
                        .is_signal()
                    {
                        positives += 1;
                    }
                }
            }
            positives
        });
    });
    group.bench_function("shared_observation_3cfd_8trials", |b| {
        let mut replicas: Vec<_> = detectors.to_vec();
        let mut shared = Observation::new();
        b.iter(|| {
            let mut positives = 0usize;
            for observation in &observations {
                shared.load(&observation.samples);
                for replica in &mut replicas {
                    if SensingBackend::decide(replica, &mut shared)
                        .unwrap()
                        .is_signal()
                    {
                        positives += 1;
                    }
                }
            }
            positives
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_signal_generation,
    bench_channel_stages,
    bench_sweep_evaluation,
    bench_sweep_engine_parallelism,
    bench_sweep_shared_spectra
);
criterion_main!(benches);
