//! The closed-loop wideband roster: one caller, four backends per trial on
//! a 511×511 grid.

use crate::trace;
use crate::wrap::{MemberRecipe, Traced};
use cfd_core::app::{CfdApplication, Platform};
use cfd_core::{
    BackendRecipe, FusionCenter, FusionRule, MemberChannel, Observation, SensingBackend,
    SessionRecipe,
};
use cfd_dsp::complex::Cplx;
use cfd_dsp::detector::{CyclostationaryDetector, EnergyDetector};
use cfd_dsp::scf::ScfParams;
use cfd_scenario::channel::{ChannelPipeline, ChannelStage};
use cfd_scenario::scenario::{Hypothesis, RadioScenario};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const FFT_LEN: usize = 1024;
pub const MAX_OFFSET: usize = 255;
pub const BLOCKS: usize = 8;
const THRESHOLD: f64 = 0.35;
const GUARD: usize = 1;
const MEMBERS: usize = 4;
/// Distinct observations per seed; trials cycle through them.
pub const POOL: usize = 32;

pub fn params() -> ScfParams {
    ScfParams::new(FFT_LEN, MAX_OFFSET, BLOCKS).expect("fixed geometry")
}

/// The paper's platform with tile memories large enough for 511×511.
pub fn platform() -> Platform {
    Platform {
        tile: montium_sim::MontiumConfig {
            words_per_memory: 65_536,
            ..montium_sim::MontiumConfig::paper()
        },
        soc_threads: 1,
        ..Platform::paper()
    }
}

/// `POOL` observations at 0 dB, alternating H1 and H0.
pub fn pool(seed: u64) -> Result<Vec<Vec<Cplx>>, String> {
    let scenario = RadioScenario::preset("bpsk-awgn", params().samples_needed())
        .ok_or("unknown preset")?
        .with_seed(seed)
        .at_snr(0.0);
    (0..POOL)
        .map(|trial| {
            let hypothesis = if trial % 2 == 0 {
                Hypothesis::Occupied
            } else {
                Hypothesis::Vacant
            };
            scenario
                .observe(hypothesis, trial)
                .map(|observation| observation.samples)
                .map_err(|error| format!("observation synthesis failed: {error}"))
        })
        .collect()
}

/// The four backends of one roster replica.
pub struct Roster {
    cfd: Traced<CyclostationaryDetector>,
    energy: Traced<EnergyDetector>,
    soc: Traced<Box<dyn SensingBackend + Send>>,
    fusion: Traced<FusionCenter>,
    verdicts: Arc<Mutex<Vec<bool>>>,
}

/// Builds a roster; returns it with the `SessionRecipe::build` time.
pub fn build() -> Result<(Roster, f64), String> {
    let fail = |error: cfd_core::CfdError| format!("roster build failed: {error}");
    let params = params();
    let detector = CyclostationaryDetector::new(params.clone(), THRESHOLD, GUARD)
        .map_err(|error| format!("roster build failed: {error}"))?;
    let energy = EnergyDetector::new(1.0, 0.01, params.samples_needed())
        .map_err(|error| format!("roster build failed: {error}"))?;
    let application = CfdApplication::new(FFT_LEN, MAX_OFFSET, BLOCKS).map_err(fail)?;
    let recipe = SessionRecipe::new(application, &platform(), THRESHOLD, GUARD);
    let start = Instant::now();
    let soc = {
        let _span = trace::span("sensing.build", 0);
        recipe.build().map_err(fail)?
    };
    let build_s = start.elapsed().as_secs_f64();
    let verdicts = Arc::new(Mutex::new(Vec::with_capacity(MEMBERS)));
    let overlay = ChannelPipeline::new(vec![ChannelStage::LogNormalShadowing {
        sigma_db: 8.0,
        noise_power: 1.0,
    }]);
    let mut fusion = FusionCenter::new(FusionRule::Or);
    for _ in 0..MEMBERS {
        let overlay = overlay.clone();
        fusion = fusion.with_impaired_member(
            MemberRecipe {
                inner: detector.clone(),
                verdicts: Arc::clone(&verdicts),
            },
            MemberChannel::new(move |samples, seed| {
                let _span = trace::span("channel.impair", 0);
                overlay
                    .impair(samples.to_vec(), seed)
                    .expect("shadowing overlay is valid")
            }),
        );
    }
    Ok((
        Roster {
            cfd: Traced::new("detector.cfd_decide", detector),
            energy: Traced::new("detector.energy_decide", energy),
            soc: Traced::new("soc.decide", soc),
            fusion: Traced::new("fusion.decide", fusion),
            verdicts,
        },
        build_s,
    ))
}

/// Everything one roster pass measured.
#[derive(Default)]
pub struct RosterRun {
    pub trial_ms: Vec<f64>,
    /// Gap between one trial's end and the next one's start.
    pub gap_us: Vec<f64>,
    pub wall_s: f64,
    pub sim_step_us: f64,
    pub decisions: u64,
}

/// Runs trials until `seconds` have passed and at least `min_trials` ran,
/// checking every trial: the SoC statistic equals the CFD statistic bit
/// for bit, and the fused vote count equals the member verdicts.
pub fn run(
    roster: &mut Roster,
    pool: &[Vec<Cplx>],
    seconds: Duration,
    min_trials: usize,
    first_trial: u64,
) -> Result<RosterRun, String> {
    let mut out = RosterRun::default();
    let mut observation = Observation::new();
    let start = Instant::now();
    let mut previous_end: Option<Instant> = None;
    let mut trial = first_trial;
    while start.elapsed() < seconds || out.trial_ms.len() < min_trials {
        let samples = &pool[trial as usize % pool.len()];
        let began = Instant::now();
        if let Some(end) = previous_end {
            out.gap_us.push((began - end).as_secs_f64() * 1e6);
        }
        let (cfd, soc, fused) = {
            let _span = trace::span("roster.trial", trial);
            {
                let _span = trace::span("backend.load", trial);
                observation.load(samples);
            }
            roster
                .verdicts
                .lock()
                .expect("verdict log poisoned")
                .clear();
            let decide = |backend: &mut dyn SensingBackend, observation: &mut Observation| {
                backend
                    .decide(observation)
                    .map_err(|error| format!("trial {trial}: {error}"))
            };
            let cfd = decide(&mut roster.cfd, &mut observation)?;
            decide(&mut roster.energy, &mut observation)?;
            let soc = decide(&mut roster.soc, &mut observation)?;
            let fused = decide(&mut roster.fusion, &mut observation)?;
            (cfd, soc, fused)
        };
        let end = Instant::now();
        out.trial_ms.push((end - began).as_secs_f64() * 1e3);
        previous_end = Some(end);
        out.decisions += 4;

        if soc.statistic.to_bits() != cfd.statistic.to_bits() {
            return Err(format!(
                "trial {trial}: SoC statistic {} differs from CFD statistic {}",
                soc.statistic, cfd.statistic
            ));
        }
        let verdicts = roster.verdicts.lock().expect("verdict log poisoned");
        let votes = verdicts.iter().filter(|&&v| v).count();
        if verdicts.len() != MEMBERS || fused.statistic != votes as f64 {
            return Err(format!(
                "trial {trial}: fused statistic {} but members voted {votes} of {}",
                fused.statistic,
                verdicts.len()
            ));
        }
        let step = soc
            .metrics
            .as_ref()
            .ok_or("SoC decision carries no platform metrics")?
            .time_per_block_us;
        if out.trial_ms.len() > 1 && step.to_bits() != out.sim_step_us.to_bits() {
            return Err(format!(
                "trial {trial}: modelled step {step} us differs from {} us",
                out.sim_step_us
            ));
        }
        out.sim_step_us = step;
        trial += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// The pool's samples concatenated, for kernel probes.
pub fn sample_stream(pool: &[Vec<Cplx>]) -> Vec<Cplx> {
    pool.iter().take(2).flatten().copied().collect()
}
