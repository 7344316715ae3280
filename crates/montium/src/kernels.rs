//! High-level CFD kernels on a single tile.
//!
//! These functions drive a [`MontiumCore`] through the sequence of kernel
//! phases of one integration step of the folded DSCF computation
//! (Section 4.1): FFT → reshuffle → initialisation → `F` frequency steps of
//! `T` multiply–accumulates each, with the shift registers advancing between
//! frequency steps.
//!
//! [`run_integration_step`] is the standalone single-tile flow — the one the
//! paper simulates to obtain Table 1 — in which the data that would arrive
//! from the neighbouring tiles is taken directly from the tile's own
//! spectrum (an ideal source). The multi-tile flow with real inter-tile
//! streams lives in the `tiled-soc` crate and reuses the same per-step tile
//! methods.

use crate::config::MontiumConfig;
use crate::core::MontiumCore;
use crate::error::MontiumError;
use crate::sequencer::Phase;
use cfd_dsp::complex::Cplx;
use cfd_dsp::scf::centred_bin;
use cfd_mapping::folding::Folding;

/// The parameters describing which slice of the folded DSCF one tile
/// executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTaskSet {
    /// Grid half-width `M` (frequencies and offsets span `-M..=M`).
    pub max_offset: usize,
    /// FFT length `K` of the block spectra.
    pub fft_len: usize,
    /// Index of this core in the folded array (`0..Q`).
    pub core_index: usize,
    /// Shift-register length `T` (tasks per core of the folding).
    pub tasks_per_core: usize,
    /// Tasks that actually compute on this core.
    pub active_tasks: usize,
    /// Index of this core's first task in the initial array: the
    /// *unclamped* continuation `q·T`. For a core left entirely idle by an
    /// uneven folding (`q·T ≥ P`) this exceeds the task count on purpose:
    /// the idle core still sits in the chained shift registers, and its
    /// boundary sources must continue the systolic index sequence for the
    /// operands it passes through to the computing cores (clamping here
    /// silently corrupted the direct-flow stream of such foldings).
    pub first_task: usize,
}

impl TileTaskSet {
    /// Builds the task set of core `core_index` for a folding of the
    /// `2M+1`-task initial array.
    ///
    /// # Errors
    ///
    /// Returns [`MontiumError::InvalidKernel`] if the folding does not match
    /// the grid size or the core index is out of range.
    pub fn new(
        folding: &Folding,
        core_index: usize,
        max_offset: usize,
        fft_len: usize,
    ) -> Result<Self, MontiumError> {
        let p = 2 * max_offset + 1;
        if folding.initial_processors != p {
            return Err(MontiumError::InvalidKernel {
                kernel: "cfd",
                message: format!(
                    "folding covers {} tasks but the grid has {p}",
                    folding.initial_processors
                ),
            });
        }
        if core_index >= folding.cores {
            return Err(MontiumError::InvalidKernel {
                kernel: "cfd",
                message: format!(
                    "core index {core_index} out of range (Q = {})",
                    folding.cores
                ),
            });
        }
        if 2 * max_offset >= fft_len {
            return Err(MontiumError::InvalidKernel {
                kernel: "cfd",
                message: format!(
                    "2*max_offset ({}) must be smaller than fft_len ({fft_len})",
                    2 * max_offset
                ),
            });
        }
        let tasks = folding.tasks_of_core(core_index);
        Ok(TileTaskSet {
            max_offset,
            fft_len,
            core_index,
            tasks_per_core: folding.tasks_per_core,
            active_tasks: tasks.len(),
            first_task: core_index * folding.tasks_per_core,
        })
    }

    /// The paper's task set for core `core_index`: 127 tasks on 4 cores,
    /// 256-point spectra.
    ///
    /// # Errors
    ///
    /// Returns [`MontiumError::InvalidKernel`] if `core_index >= 4`.
    pub fn paper(core_index: usize) -> Result<Self, MontiumError> {
        TileTaskSet::new(&Folding::paper(), core_index, 63, 256)
    }

    /// Number of frequency points `F = 2M+1`.
    pub fn num_frequencies(&self) -> usize {
        2 * self.max_offset + 1
    }

    /// The offset `a` handled by local task slot `j` (`a = first_task + j - M`).
    pub fn offset_of_task(&self, j: usize) -> i32 {
        (self.first_task + j) as i32 - self.max_offset as i32
    }

    /// The spectral index of the conjugate-flow register slot `j` at
    /// frequency step `step`: `f - a`.
    pub fn conjugate_index(&self, j: usize, step: usize) -> i32 {
        let f = step as i32 - self.max_offset as i32;
        f - self.offset_of_task(j)
    }

    /// The spectral index of the direct-flow register slot `j` at frequency
    /// step `step`: `f + a`.
    pub fn direct_index(&self, j: usize, step: usize) -> i32 {
        let f = step as i32 - self.max_offset as i32;
        f + self.offset_of_task(j)
    }
}

/// The cycle breakdown of one integration step on one tile (Table 1 shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrationStepCycles {
    /// Multiply–accumulate cycles.
    pub multiply_accumulate: u64,
    /// Data-read cycles.
    pub read_data: u64,
    /// FFT cycles.
    pub fft: u64,
    /// Reshuffling cycles.
    pub reshuffling: u64,
    /// Initialisation cycles.
    pub initialisation: u64,
}

impl IntegrationStepCycles {
    /// Total cycles of the integration step.
    pub fn total(&self) -> u64 {
        self.multiply_accumulate
            + self.read_data
            + self.fft
            + self.reshuffling
            + self.initialisation
    }
}

/// The closed-form cycle model of one integration step on one tile.
///
/// Every phase budget of the Fig. 11 kernel is a deterministic function of
/// the task-set geometry `(T, F, K)` and the tile configuration — the
/// sequencer only ever adds these same constants — so the Table-1 breakdown
/// can be written down without stepping the simulator:
///
/// * FFT: [`MontiumConfig::fft_cycles`]`(K)`,
/// * reshuffling: one cycle per spectral value, `K`,
/// * initialisation: one cycle per frequency point, `F`,
/// * data read: [`MontiumConfig::data_read_cycles`] per frequency step,
/// * multiply–accumulate: `active_tasks ·`
///   [`MontiumConfig::mac_cycles`] per frequency step.
///
/// This is the per-block model behind the tiled SoC's analytic execution
/// mode; it is pinned cycle-for-cycle against [`run_integration_step`] (and,
/// over random foldings, against the lockstep platform simulation in
/// `tests/soc_fast_path.rs`).
pub fn analytic_step_cycles(
    config: &MontiumConfig,
    task_set: &TileTaskSet,
) -> IntegrationStepCycles {
    let f = task_set.num_frequencies() as u64;
    let cycles = IntegrationStepCycles {
        multiply_accumulate: f * task_set.active_tasks as u64 * config.mac_cycles,
        read_data: f * config.data_read_cycles,
        fft: config.fft_cycles(task_set.fft_len),
        reshuffling: task_set.fft_len as u64,
        initialisation: f,
    };
    analytic_cycles_gauge().set(cycles.total() as f64);
    cycles
}

/// Cached handle to the `montium.analytic_step_cycles` gauge (the
/// closed-form model can sit on per-block paths, so the registry lookup is
/// paid once).
fn analytic_cycles_gauge() -> &'static cfd_telemetry::Gauge {
    static GAUGE: std::sync::OnceLock<cfd_telemetry::Gauge> = std::sync::OnceLock::new();
    GAUGE.get_or_init(|| cfd_telemetry::gauge("montium.analytic_step_cycles"))
}

/// The result of one integration step on one tile.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrationStepRun {
    /// Cycle breakdown (Table 1 rows).
    pub cycles: IntegrationStepCycles,
    /// The block spectrum computed by the tile's FFT.
    pub spectrum: Vec<Cplx>,
}

/// Configures `core` for the given task set (clearing its accumulators).
///
/// # Errors
///
/// Propagates capacity and parameter errors from
/// [`MontiumCore::configure_cfd`].
pub fn configure_tile(core: &mut MontiumCore, task_set: &TileTaskSet) -> Result<(), MontiumError> {
    core.configure_cfd(
        task_set.tasks_per_core,
        task_set.active_tasks,
        task_set.num_frequencies(),
    )
}

/// Runs the DSCF part of one integration step (reshuffle → init → `F`
/// frequency steps) on an already-configured tile, taking the operand stream
/// from `spectrum` as an ideal source (single-tile mode).
///
/// The tile must have been configured with [`configure_tile`]. Accumulation
/// continues across calls (one call per block `n`).
///
/// # Errors
///
/// Propagates tile errors; returns [`MontiumError::InvalidKernel`] if the
/// spectrum length does not match the task set.
pub fn run_dscf_block(
    core: &mut MontiumCore,
    task_set: &TileTaskSet,
    spectrum: &[Cplx],
) -> Result<(), MontiumError> {
    if spectrum.len() < task_set.fft_len {
        return Err(MontiumError::InvalidKernel {
            kernel: "cfd",
            message: format!(
                "spectrum has {} bins, expected at least {}",
                spectrum.len(),
                task_set.fft_len
            ),
        });
    }
    let k = task_set.fft_len;
    let t = task_set.tasks_per_core;
    let f_count = task_set.num_frequencies();

    // Reshuffling: produce the conjugated operand stream.
    let (conjugated, _) = core.reshuffle(spectrum);

    // Initialisation: load the shift registers with the window for f = -M.
    let conj_window: Vec<Cplx> = (0..t)
        .map(|j| conjugated[centred_bin(task_set.conjugate_index(j, 0), k)])
        .collect();
    let direct_window: Vec<Cplx> = (0..t)
        .map(|j| spectrum[centred_bin(task_set.direct_index(j, 0), k)])
        .collect();
    core.load_shift_registers(&conj_window, &direct_window)?;

    // The F frequency steps.
    for step in 0..f_count {
        core.mac_frequency_step(step)?;
        if step + 1 < f_count {
            // Ideal source: the values the neighbouring tiles would deliver.
            let incoming_conj = conjugated[centred_bin(task_set.conjugate_index(0, step + 1), k)];
            let incoming_direct = spectrum[centred_bin(task_set.direct_index(t - 1, step + 1), k)];
            core.shift_in(incoming_conj, incoming_direct)?;
        }
    }
    core.finish_block()?;
    Ok(())
}

/// Runs one full integration step — FFT of `samples`, reshuffle, init and the
/// DSCF MAC sweep — on an already-configured tile and returns the Table-1
/// cycle breakdown of this step together with the spectrum.
///
/// # Errors
///
/// Propagates tile errors (unconfigured tile, capacity, non-power-of-two
/// FFT length).
pub fn run_integration_step(
    core: &mut MontiumCore,
    task_set: &TileTaskSet,
    samples: &[Cplx],
) -> Result<IntegrationStepRun, MontiumError> {
    let before = snapshot(core);
    let (spectrum, _) = core.fft(samples)?;
    run_dscf_block(core, task_set, &spectrum)?;
    let after = snapshot(core);
    Ok(IntegrationStepRun {
        cycles: IntegrationStepCycles {
            multiply_accumulate: after.0 - before.0,
            read_data: after.1 - before.1,
            fft: after.2 - before.2,
            reshuffling: after.3 - before.3,
            initialisation: after.4 - before.4,
        },
        spectrum,
    })
}

fn snapshot(core: &MontiumCore) -> (u64, u64, u64, u64, u64) {
    let s = core.sequencer();
    (
        s.cycles_in(Phase::MultiplyAccumulate),
        s.cycles_in(Phase::ReadData),
        s.cycles_in(Phase::Fft),
        s.cycles_in(Phase::Reshuffle),
        s.cycles_in(Phase::Initialisation),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::prelude::*;
    use cfd_dsp::scf::{block_spectra, dscf_reference};
    use cfd_dsp::signal::{awgn, modulated_signal, ModulatedSignalSpec};

    #[test]
    fn task_set_construction_and_indices() {
        let task_set = TileTaskSet::paper(1).unwrap();
        assert_eq!(task_set.tasks_per_core, 32);
        assert_eq!(task_set.active_tasks, 32);
        assert_eq!(task_set.first_task, 32);
        assert_eq!(task_set.num_frequencies(), 127);
        // Task 0 of core 1 handles a = 32 - 63 = -31.
        assert_eq!(task_set.offset_of_task(0), -31);
        // At step 0 (f = -63) its conjugate operand is X*_{-63 - (-31)} = X*_{-32}.
        assert_eq!(task_set.conjugate_index(0, 0), -32);
        assert_eq!(task_set.direct_index(0, 0), -94);
        // The last core has only 31 active tasks.
        let last = TileTaskSet::paper(3).unwrap();
        assert_eq!(last.active_tasks, 31);
        assert!(TileTaskSet::paper(4).is_err());
    }

    #[test]
    fn task_set_validation() {
        let folding = Folding::new(15, 4).unwrap();
        assert!(TileTaskSet::new(&folding, 0, 7, 32).is_ok());
        // Folding size mismatch with the grid.
        assert!(TileTaskSet::new(&folding, 0, 8, 64).is_err());
        // Grid too large for the FFT.
        assert!(TileTaskSet::new(&Folding::new(17, 4).unwrap(), 0, 8, 16).is_err());
    }

    #[test]
    fn table1_cycle_breakdown_is_reproduced() {
        let mut tile = MontiumCore::paper();
        let task_set = TileTaskSet::paper(0).unwrap();
        configure_tile(&mut tile, &task_set).unwrap();
        let samples = awgn(256, 1.0, 11);
        let run = run_integration_step(&mut tile, &task_set, &samples).unwrap();
        assert_eq!(run.cycles.multiply_accumulate, 12192);
        assert_eq!(run.cycles.read_data, 381);
        assert_eq!(run.cycles.fft, 1040);
        assert_eq!(run.cycles.reshuffling, 256);
        assert_eq!(run.cycles.initialisation, 127);
        assert_eq!(run.cycles.total(), 13996);
        assert!((tile.config().cycles_to_us(run.cycles.total()) - 139.96).abs() < 1e-9);
    }

    #[test]
    fn analytic_step_cycles_match_the_simulated_breakdown() {
        // The closed-form model must equal the sequencer's accounting
        // cycle for cycle, phase by phase — including the uneven last core
        // of a folding (fewer active tasks) and non-paper geometries.
        let config = MontiumConfig::paper();
        for (p, cores, max_offset, fft_len) in [
            (127usize, 4usize, 63usize, 256usize),
            (15, 4, 7, 32),
            (31, 3, 15, 64),
        ] {
            let folding = Folding::new(p, cores).unwrap();
            for core_index in 0..cores {
                let task_set = TileTaskSet::new(&folding, core_index, max_offset, fft_len).unwrap();
                let mut tile = MontiumCore::new(config.clone());
                configure_tile(&mut tile, &task_set).unwrap();
                let samples = awgn(fft_len, 1.0, 3 + core_index as u64);
                let run = run_integration_step(&mut tile, &task_set, &samples).unwrap();
                let model = analytic_step_cycles(&config, &task_set);
                assert_eq!(
                    model, run.cycles,
                    "core {core_index} of {p} tasks on {cores}"
                );
            }
        }
        // The paper's critical tile: Table 1 exactly.
        let model = analytic_step_cycles(&config, &TileTaskSet::paper(0).unwrap());
        assert_eq!(model.total(), 13996);
    }

    #[test]
    fn single_tile_results_match_reference_dscf_slice() {
        // A small grid on 2 cores; each tile computes its slice of offsets a
        // and must match the reference DSCF for all frequencies.
        let params = ScfParams::new(32, 7, 3).unwrap();
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let signal = modulated_signal(params.samples_needed(), &spec, 8).unwrap();
        let reference = dscf_reference(&signal, &params).unwrap();
        let spectra = block_spectra(&signal, &params).unwrap();
        let folding = Folding::new(params.grid_size(), 2).unwrap();
        let m = params.max_offset as i32;

        for core_index in 0..2 {
            let task_set =
                TileTaskSet::new(&folding, core_index, params.max_offset, params.fft_len).unwrap();
            let mut tile = MontiumCore::paper();
            configure_tile(&mut tile, &task_set).unwrap();
            for spectrum in &spectra {
                run_dscf_block(&mut tile, &task_set, spectrum).unwrap();
            }
            let results = tile.accumulated_results().unwrap();
            for (j, row) in results.iter().enumerate() {
                let a = task_set.offset_of_task(j);
                for (step, &value) in row.iter().enumerate() {
                    let f = step as i32 - m;
                    let want = reference.at(f, a);
                    assert!(
                        (value - want).abs() < 1e-9,
                        "core {core_index}, a={a}, f={f}: {value} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn integration_step_with_tile_fft_matches_reference_spectrum() {
        let mut tile = MontiumCore::paper();
        let folding = Folding::new(31, 4).unwrap();
        let task_set = TileTaskSet::new(&folding, 0, 15, 64).unwrap();
        configure_tile(&mut tile, &task_set).unwrap();
        let samples = awgn(64, 1.0, 21);
        let run = run_integration_step(&mut tile, &task_set, &samples).unwrap();
        let reference = cfd_dsp::fft::fft(&samples).unwrap();
        for (a, b) in run.spectrum.iter().zip(reference.iter()) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn dscf_block_rejects_short_spectrum() {
        let mut tile = MontiumCore::paper();
        let task_set = TileTaskSet::paper(0).unwrap();
        configure_tile(&mut tile, &task_set).unwrap();
        let short = vec![Cplx::ZERO; 100];
        assert!(run_dscf_block(&mut tile, &task_set, &short).is_err());
    }
}
