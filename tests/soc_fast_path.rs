//! Pins the tiled SoC's analytic fast path against the cycle-accurate
//! lockstep simulation: over random platform/application geometries the
//! DSCF must match to ≤ 1e-12 (in practice it is exact — same FFT plan,
//! same accumulation expression, same normalisation) and every platform
//! counter — per-tile cycle breakdowns phase by phase, inter-tile
//! transfers, source inputs — must be *equal*, because the analytic cycle
//! model is the closed form of what the sequencer and links count.
//!
//! A sweep-level test additionally pins decision-identity of a
//! `SpectrumSensor` roster between `ExecutionMode::Analytic` (the sweep
//! default, fed by shared software spectra) and `ExecutionMode::Lockstep`
//! (the golden reference simulating its own on-tile FFTs).

mod common;

use cfd_core::app::{CfdApplication, Platform};
use cfd_dsp::complex::Cplx;
use cfd_dsp::scf::{ScfEngine, ScfParams};
use cfd_dsp::signal::{modulated_signal, ModulatedSignalSpec};
use cfd_scenario::prelude::*;
use proptest::prelude::*;
use tiled_soc::config::{ExecutionMode, SocConfig};
use tiled_soc::soc::TiledSoc;

fn soc(mode: ExecutionMode, tiles: usize, max_offset: usize, fft_len: usize) -> TiledSoc {
    let config = SocConfig::paper().with_tiles(tiles).with_mode(mode);
    TiledSoc::new(config, max_offset, fft_len).unwrap()
}

fn signal_for(fft_len: usize, blocks: usize, seed: u64) -> Vec<Cplx> {
    let spec = ModulatedSignalSpec {
        samples_per_symbol: 4,
        ..Default::default()
    };
    modulated_signal(fft_len * blocks, &spec, seed).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast path vs lockstep simulator over random configurations:
    /// bit-identical DSCF, equal counters.
    #[test]
    fn analytic_matches_lockstep_over_random_configurations(
        seed in 0u64..1000,
        tiles in 1usize..6,
        fft_pow in 4u32..7,
        offset_raw in 1usize..1000,
        blocks in 1usize..5,
    ) {
        let fft_len = 1usize << fft_pow;
        let max_offset = 1 + offset_raw % (fft_len / 2 - 1);
        let signal = signal_for(fft_len, blocks, seed);
        let mut lockstep = soc(ExecutionMode::Lockstep, tiles, max_offset, fft_len);
        let mut analytic = soc(ExecutionMode::Analytic, tiles, max_offset, fft_len);
        let golden = lockstep.run(&signal, blocks).unwrap();
        let fast = analytic.run(&signal, blocks).unwrap();
        // The issue bound is ≤ 1e-12; the construction makes it exact.
        prop_assert!(fast.scf.max_abs_difference(&golden.scf) <= 1e-12);
        prop_assert_eq!(fast.scf.max_abs_difference(&golden.scf), 0.0);
        prop_assert_eq!(&fast.per_tile_cycles, &golden.per_tile_cycles);
        prop_assert_eq!(fast.inter_tile_transfers, golden.inter_tile_transfers);
        prop_assert_eq!(fast.source_inputs, golden.source_inputs);
        prop_assert_eq!(fast.blocks, golden.blocks);
        prop_assert_eq!(fast.max_tile_cycles(), golden.max_tile_cycles());
    }

    /// The spectra-fed entry point (`run_from_spectra`, driven here the way
    /// the sweep engine drives it: engine-computed shared spectra) produces
    /// the same run as the simulator on the raw samples.
    #[test]
    fn spectra_fed_runs_match_the_simulator(
        seed in 0u64..1000,
        tiles in 1usize..5,
        blocks in 1usize..4,
    ) {
        let (fft_len, max_offset) = (32usize, 7usize);
        let signal = signal_for(fft_len, blocks, seed);
        let engine = ScfEngine::new(ScfParams::new(fft_len, max_offset, blocks).unwrap()).unwrap();
        let spectra = engine.compute_spectra(&signal).unwrap();
        let mut lockstep = soc(ExecutionMode::Lockstep, tiles, max_offset, fft_len);
        let mut fed = soc(ExecutionMode::Analytic, tiles, max_offset, fft_len);
        let golden = lockstep.run(&signal, blocks).unwrap();
        let fast = fed.run_from_spectra(&spectra).unwrap();
        prop_assert_eq!(fast.scf.max_abs_difference(&golden.scf), 0.0);
        prop_assert_eq!(&fast.per_tile_cycles, &golden.per_tile_cycles);
        prop_assert_eq!(fast.inter_tile_transfers, golden.inter_tile_transfers);
        prop_assert_eq!(fast.source_inputs, golden.source_inputs);
    }
}

/// A platform-session roster swept under `Analytic` (shared-spectra fast
/// path) decides identically to the same roster under `Lockstep` (the
/// cycle-accurate golden reference), row for row.
#[test]
fn sweep_decisions_are_identical_across_analytic_and_lockstep() {
    let application = CfdApplication::new(32, 7, 16).unwrap();
    let scenario = RadioScenario::preset("bpsk-awgn", application.samples_needed())
        .expect("built-in preset")
        .with_seed(7);
    let sweep = SnrSweep::new(vec![-5.0, 5.0], 6).unwrap();
    let run = |mode: ExecutionMode| {
        SweepBuilder::new(&scenario)
            .sweep(sweep.clone())
            .backend(SessionRecipe::new(
                application.clone(),
                &Platform::paper().with_mode(mode),
                0.35,
                1,
            ))
            .run()
            .unwrap()
    };
    let fast = run(ExecutionMode::Analytic);
    let golden = run(ExecutionMode::Lockstep);
    assert_eq!(fast, golden);
    // One lane agrees too (the sharing happens per lane).
    let one_lane = common::on_one_lane(|| run(ExecutionMode::Analytic));
    assert_eq!(one_lane, golden);
}
