//! Criterion bench of the two spectrum-sensing detectors on identical
//! observations: the energy detector is orders of magnitude cheaper, which
//! is exactly the trade-off (Section 2) that motivates mapping the DSCF onto
//! a parallel platform. Both decide through `SensingBackend` on an
//! observation reloaded per iteration, so no cached spectra carry over.

use cfd_core::backend::{Observation, SensingBackend};
use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::ScfParams;
use cfd_dsp::signal::{SignalBuilder, SymbolModulation};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_detectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("detectors");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    let params = ScfParams::new(64, 15, 16).unwrap();
    let samples = SignalBuilder::new(params.samples_needed())
        .modulation(SymbolModulation::Bpsk)
        .samples_per_symbol(4)
        .snr_db(0.0)
        .seed(3)
        .build()
        .unwrap()
        .samples;

    let mut observation = Observation::new();
    let mut energy = EnergyDetector::new(1.0, 0.05, samples.len()).unwrap();
    group.bench_function("energy_detector", |b| {
        b.iter(|| {
            observation.load(&samples);
            energy.decide(&mut observation).unwrap()
        });
    });

    let mut cfd = CyclostationaryDetector::new(params, 0.35, 1).unwrap();
    group.bench_function("cyclostationary_detector", |b| {
        b.iter(|| {
            observation.load(&samples);
            cfd.decide(&mut observation).unwrap()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_detectors);
criterion_main!(benches);
