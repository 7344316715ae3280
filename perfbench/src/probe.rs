//! Direct calls into single kernels on a workload's own samples (traced
//! runs only), and the once-per-invocation checks of the paper's numbers.

use crate::roster;
use crate::stats::median;
use cfd_core::Observation;
use cfd_dsp::complex::Cplx;
use cfd_dsp::fft::FftPlan;
use cfd_dsp::scf::{ScfAccumulator, ScfEngine, ScfMatrix, ScfParams};
use std::hint::black_box;
use std::time::Instant;
use tiled_soc::config::{ExecutionMode, SocConfig};
use tiled_soc::soc::TiledSoc;

/// Repetitions per kernel: the median then has 10 samples beyond it.
const REPS: usize = 41;

fn time_us(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

fn median_of(mut f: impl FnMut() -> f64) -> Result<f64, String> {
    let samples: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&samples)
}

/// Named metrics with their units, in report order.
pub type Metrics = Vec<(String, f64, &'static str)>;

pub fn push(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.push((name.to_string(), value, unit));
}

/// `FftPlan::forward_in_place` per block, at 64, 256 and 1 024 points.
pub fn fft(samples: &[Cplx], metrics: &mut Metrics) -> Result<(), String> {
    for len in [64usize, 256, 1024] {
        let plan = FftPlan::new(len).map_err(|error| error.to_string())?;
        let blocks = (samples.len() / len).min(64);
        let mut work = samples[..blocks * len].to_vec();
        let per_block = median_of(|| {
            work.copy_from_slice(&samples[..blocks * len]);
            time_us(|| {
                for block in work.chunks_exact_mut(len) {
                    plan.forward_in_place(black_box(block))
                        .expect("block length matches the plan");
                }
            }) / blocks as f64
        })?;
        push(metrics, &format!("fft.forward_{len}_us"), per_block, "us");
    }
    Ok(())
}

/// The streaming kernels at `g31` and `g127`, the batch DSCF at 511×511
/// and the accumulator sizes.
pub fn scf(samples: &[Cplx], metrics: &mut Metrics) -> Result<(), String> {
    let fail = |error: cfd_dsp::DspError| error.to_string();
    for (tag, fft_len, max_offset) in [("g31", 64usize, 15usize), ("g127", 256, 63)] {
        let engine =
            ScfEngine::new(ScfParams::new(fft_len, max_offset, 8).map_err(fail)?).map_err(fail)?;
        let mut spectrum = Vec::new();
        engine
            .block_spectrum_into(samples, 0, &mut spectrum)
            .map_err(fail)?;
        let mut acc = engine.accumulator();
        for _ in 0..8 {
            engine.accumulate_block(&spectrum, &mut acc);
        }
        let accumulate = median_of(|| time_us(|| engine.accumulate_block(&spectrum, &mut acc)))?;
        let retire = median_of(|| time_us(|| engine.retire_block(&spectrum, &mut acc)))?;
        let mut matrix = ScfMatrix::zeros(max_offset);
        let finalize = median_of(|| time_us(|| engine.finalize_accumulator(&acc, 8, &mut matrix)))?;
        let mut profile = Vec::new();
        let profile_us = median_of(|| {
            time_us(|| engine.cyclic_profile_from_accumulator(&acc, 8, &mut profile))
        })?;
        push(
            metrics,
            &format!("scf.accumulate_block_us_{tag}"),
            accumulate,
            "us",
        );
        push(metrics, &format!("scf.retire_block_us_{tag}"), retire, "us");
        push(metrics, &format!("scf.finalize_us_{tag}"), finalize, "us");
        push(
            metrics,
            &format!("scf.profile_from_acc_us_{tag}"),
            profile_us,
            "us",
        );
    }
    let params = roster::params();
    let engine = ScfEngine::new(params.clone()).map_err(fail)?;
    let spectra = engine
        .compute_spectra(&samples[..params.samples_needed()])
        .map_err(fail)?;
    let mut matrix = ScfMatrix::zeros(params.max_offset);
    let dscf = median_of(|| time_us(|| engine.dscf_from_spectra_into(&spectra, &mut matrix)))?;
    // The engine computes the a >= 0 half of the grid and mirrors the rest.
    let macs = (params.num_blocks * params.grid_size() * (params.max_offset + 1)) as f64;
    push(metrics, "scf.dscf_from_spectra_us_p50", dscf, "us");
    push(metrics, "scf.dscf_gmac_per_s", macs / dscf / 1e3, "GMAC/s");
    for (tag, max_offset) in [("g31", 15usize), ("g127", 63), ("g511", 255)] {
        let bytes = ScfAccumulator::bytes_for(max_offset) as f64;
        push(metrics, &format!("scf.acc_bytes_{tag}"), bytes, "B");
    }
    Ok(())
}

/// The first `Observation::load`, `spectra_for`, `scf_for` and
/// `cyclic_profile_for` after a load, at the workload's geometry.
pub fn backend(samples: &[Cplx], params: &ScfParams, metrics: &mut Metrics) -> Result<(), String> {
    let engine = ScfEngine::new(params.clone()).map_err(|error| error.to_string())?;
    let window = &samples[..params.samples_needed()];
    let mut observation = Observation::new();
    let (mut load, mut spectra, mut scf, mut profile) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REPS {
        load.push(time_us(|| observation.load(black_box(window))));
        let fail = |error: cfd_core::CfdError| error.to_string();
        let start = Instant::now();
        observation.spectra_for(&engine).map_err(fail)?;
        spectra.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        observation.scf_for(&engine).map_err(fail)?;
        scf.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        observation.cyclic_profile_for(&engine).map_err(fail)?;
        profile.push(start.elapsed().as_secs_f64() * 1e6);
    }
    push(metrics, "backend.load_us_p50", median(&load)?, "us");
    push(metrics, "backend.spectra_us_p50", median(&spectra)?, "us");
    push(metrics, "backend.scf_us_p50", median(&scf)?, "us");
    push(metrics, "backend.profile_us_p50", median(&profile)?, "us");
    Ok(())
}

/// `TiledSoc::reset` and the spectra-fed run on the roster's platform,
/// with the run's cycle and transfer counters.
pub fn soc(samples: &[Cplx], metrics: &mut Metrics) -> Result<(), String> {
    let params = roster::params();
    let engine = ScfEngine::new(params.clone()).map_err(|error| error.to_string())?;
    let spectra = engine
        .compute_spectra(&samples[..params.samples_needed()])
        .map_err(|error| error.to_string())?;
    let mut soc = TiledSoc::new(
        roster::platform().soc_config(),
        params.max_offset,
        params.fft_len,
    )
    .map_err(|error| error.to_string())?;
    let mut run = soc.empty_run();
    let reset = median_of(|| time_us(|| soc.reset()))?;
    let mut failure = None;
    let run_us = median_of(|| {
        soc.reset();
        time_us(|| {
            if let Err(error) = soc.run_from_spectra_into(&spectra, &mut run) {
                failure = Some(error.to_string());
            }
        })
    })?;
    if let Some(error) = failure {
        return Err(error);
    }
    let cycles = run.cycles_per_block();
    let transfers = run.inter_tile_transfers / run.blocks as u64;
    push(metrics, "soc.reset_us_p50", reset, "us");
    push(metrics, "soc.run_from_spectra_us_p50", run_us, "us");
    push(
        metrics,
        "soc.host_ns_per_sim_cycle",
        (reset + run_us) * 1e3 / (cycles * run.blocks as u64) as f64,
        "ns",
    );
    push(
        metrics,
        "soc.critical_cycles_per_block",
        cycles as f64,
        "count",
    );
    push(
        metrics,
        "soc.inter_tile_transfers_per_block",
        transfers as f64,
        "count",
    );
    Ok(())
}

/// The paper's Table 1 budget on the cycle-accurate lockstep platform
/// (13 996 critical cycles for one 127×127 block), and the analytic fast
/// path's DSCF bit-identical to lockstep. Returns the modelled step time
/// in µs.
pub fn paper_checks(seed: u64) -> Result<f64, String> {
    let signal = cfd_dsp::signal::awgn(256, 1.0, seed);
    let mut lockstep = TiledSoc::paper().map_err(|error| error.to_string())?;
    let golden = lockstep
        .run(&signal, 1)
        .map_err(|error| error.to_string())?;
    if golden.max_tile_cycles() != 13_996 {
        return Err(format!(
            "lockstep platform took {} critical cycles per block, Table 1 says 13996",
            golden.max_tile_cycles()
        ));
    }
    let config = SocConfig::paper().with_mode(ExecutionMode::Analytic);
    let mut analytic = TiledSoc::new(config, 63, 256).map_err(|error| error.to_string())?;
    let fast = analytic
        .run(&signal, 1)
        .map_err(|error| error.to_string())?;
    let bits = |m: &ScfMatrix| {
        m.as_slice()
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect::<Vec<_>>()
    };
    if bits(&fast.scf) != bits(&golden.scf) || fast.per_tile_cycles != golden.per_tile_cycles {
        return Err("analytic DSCF or cycle counters differ from lockstep".into());
    }
    Ok(lockstep.metrics(&golden).time_per_block_us)
}
