//! The two-step mapping methodology — the paper's central contribution.
//!
//! * **Step 1** (Section 3): starting from the dependence graph of the DSCF,
//!   derive the linear systolic array, fold it onto the `Q` available cores
//!   (`T = ceil(P/Q)` tasks per core) and size the per-core memories.
//! * **Step 2** (Section 4): map one folded core onto a Montium tile and
//!   determine the cycle cost of one integration step per kernel phase
//!   (Table 1), from which latency, analysed bandwidth, area and power of
//!   the platform follow (Section 5).
//!
//! [`TwoStepMapping::analyse`] performs both steps analytically (so it can
//! also evaluate platforms the memories would *not* fit, flagging them);
//! the cycle model is exactly the one the Montium tile simulator implements,
//! and the two are cross-checked in the tests and integration tests.

use crate::app::{CfdApplication, Platform};
use crate::error::CfdError;
use cfd_mapping::dg::DependenceGraph;
use cfd_mapping::folding::Folding;
use cfd_mapping::memory::{MemoryRequirement, ShiftRegisterRequirement};
use cfd_mapping::systolic::{SystolicArchitecture, SystolicArray};
use cfd_mapping::transform::SpaceTimeMapping;
use montium_sim::kernels::IntegrationStepCycles;
use tiled_soc::power::PlatformMetrics;

/// The outcome of Step 1: the folded multi-core architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Step1Report {
    /// Tasks of the initial (unfolded) systolic array, `P = 2M+1`.
    pub initial_processors: usize,
    /// Physical cores, `Q`.
    pub cores: usize,
    /// Tasks per core after folding, `T = ceil(P/Q)` (eq. 8).
    pub tasks_per_core: usize,
    /// The structural summary of the unfolded systolic array (Figs. 6–7).
    pub systolic: SystolicArchitecture,
    /// Accumulation-memory requirement per core (`T·F` complex values).
    pub accumulator_memory: MemoryRequirement,
    /// Shift-register requirement per core (M09/M10 contents).
    pub shift_registers: ShiftRegisterRequirement,
    /// Whether the paper's space–time mapping is conflict-free on this
    /// application's dependence graph (always true; checked explicitly).
    pub conflict_free: bool,
}

/// The outcome of Step 2: per-core cycle budget and platform figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Step2Report {
    /// Cycle breakdown of one integration step on the critical core
    /// (the Table 1 rows).
    pub cycles: IntegrationStepCycles,
    /// Time for one integration step in µs at the platform clock.
    pub time_per_block_us: f64,
    /// Whether the accumulation memory fits the tile's M01–M08.
    pub accumulators_fit: bool,
    /// Whether the shift registers fit M09/M10.
    pub shift_registers_fit: bool,
}

/// The combined report of both steps.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingReport {
    /// The application being mapped.
    pub application: CfdApplication,
    /// Number of cores of the target platform.
    pub cores: usize,
    /// Step 1: the folded architecture.
    pub step1: Step1Report,
    /// Step 2: the per-core cycle budget.
    pub step2: Step2Report,
    /// Platform-level metrics (area, power, analysed bandwidth).
    pub metrics: PlatformMetrics,
}

/// The two-step methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TwoStepMapping;

impl TwoStepMapping {
    /// Analyses the mapping of `application` onto `platform`.
    ///
    /// # Errors
    ///
    /// Returns [`CfdError`] if the application or folding parameters are
    /// invalid (a platform whose memories are too small is *not* an error —
    /// the report flags it instead, so design-space sweeps can see where the
    /// capacity limit lies).
    pub fn analyse(
        application: &CfdApplication,
        platform: &Platform,
    ) -> Result<MappingReport, CfdError> {
        let p = application.grid_size();
        let f = application.grid_size();
        let folding = Folding::new(p, platform.cores)?;

        // Step 1: structural derivation.
        let dg = DependenceGraph::new(application.max_offset, application.num_blocks);
        let conflict_free = SpaceTimeMapping::paper_step1()
            .check_conflict_free(&dg)
            .is_ok();
        let systolic =
            SystolicArray::new(application.max_offset, application.fft_len).architecture();
        let accumulator_memory = MemoryRequirement::new(&folding, f, 16);
        let shift_registers = ShiftRegisterRequirement::new(&folding);
        let step1 = Step1Report {
            initial_processors: p,
            cores: platform.cores,
            tasks_per_core: folding.tasks_per_core,
            systolic,
            accumulator_memory,
            shift_registers,
            conflict_free,
        };

        // Step 2: cycle model of one integration step on the critical core
        // (the core with the full T tasks).
        let tile = &platform.tile;
        let cycles = IntegrationStepCycles {
            multiply_accumulate: (folding.tasks_per_core * f) as u64 * tile.mac_cycles,
            read_data: f as u64 * tile.data_read_cycles,
            fft: tile.fft_cycles(application.fft_len),
            reshuffling: application.fft_len as u64,
            initialisation: f as u64,
        };
        let accumulators_fit = accumulator_memory
            .check_fits(tile.accumulation_capacity_words())
            .is_ok();
        let shift_registers_fit =
            2 * shift_registers.total_complex_values() <= tile.communication_capacity_words();
        let step2 = Step2Report {
            cycles,
            time_per_block_us: tile.cycles_to_us(cycles.total()),
            accumulators_fit,
            shift_registers_fit,
        };

        let metrics =
            PlatformMetrics::new(&platform.soc_config(), cycles.total(), application.fft_len);

        Ok(MappingReport {
            application: application.clone(),
            cores: platform.cores,
            step1,
            step2,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mapping_report_matches_the_published_numbers() {
        let report = TwoStepMapping::analyse(&CfdApplication::paper(), &Platform::paper()).unwrap();
        // Step 1.
        assert_eq!(report.step1.initial_processors, 127);
        assert_eq!(report.step1.tasks_per_core, 32);
        assert_eq!(report.step1.systolic.num_processors, 127);
        assert_eq!(report.step1.accumulator_memory.complex_values(), 4064);
        assert_eq!(report.step1.shift_registers.complex_values_per_flow(), 32);
        assert!(report.step1.conflict_free);
        // Step 2 = Table 1.
        assert_eq!(report.step2.cycles.multiply_accumulate, 12192);
        assert_eq!(report.step2.cycles.read_data, 381);
        assert_eq!(report.step2.cycles.fft, 1040);
        assert_eq!(report.step2.cycles.reshuffling, 256);
        assert_eq!(report.step2.cycles.initialisation, 127);
        assert_eq!(report.step2.cycles.total(), 13996);
        assert!((report.step2.time_per_block_us - 139.96).abs() < 1e-9);
        assert!(report.step2.accumulators_fit);
        assert!(report.step2.shift_registers_fit);
        // Section 5 metrics.
        assert!((report.metrics.area_mm2 - 8.0).abs() < 1e-12);
        assert!((report.metrics.power_mw - 200.0).abs() < 1e-9);
        assert!((report.metrics.analysed_bandwidth_khz - 915.0).abs() < 1.0);
    }

    #[test]
    fn analytic_step2_matches_the_tile_simulator() {
        // The analytic cycle model and the cycle-level tile simulation must
        // agree for the paper's configuration.
        use cfd_dsp::signal::complex_tone;
        use montium_sim::kernels::{configure_tile, run_integration_step, TileTaskSet};
        use montium_sim::MontiumCore;

        let report = TwoStepMapping::analyse(&CfdApplication::paper(), &Platform::paper()).unwrap();
        let mut tile = MontiumCore::paper();
        let task_set = TileTaskSet::paper(0).unwrap();
        configure_tile(&mut tile, &task_set).unwrap();
        let samples = complex_tone(256, 10.0, 256.0, 0.0);
        let run = run_integration_step(&mut tile, &task_set, &samples).unwrap();
        assert_eq!(run.cycles, report.step2.cycles);
    }

    #[test]
    fn small_platforms_are_flagged_as_not_fitting() {
        // A single Montium cannot hold the 127x127 DSCF accumulators.
        let report =
            TwoStepMapping::analyse(&CfdApplication::paper(), &Platform::with_cores(1)).unwrap();
        assert!(!report.step2.accumulators_fit);
        assert_eq!(report.step1.tasks_per_core, 127);
        // Two cores still do not fit; four do.
        let two =
            TwoStepMapping::analyse(&CfdApplication::paper(), &Platform::with_cores(2)).unwrap();
        assert!(!two.step2.accumulators_fit);
        let four =
            TwoStepMapping::analyse(&CfdApplication::paper(), &Platform::with_cores(4)).unwrap();
        assert!(four.step2.accumulators_fit);
    }

    #[test]
    fn more_cores_means_fewer_cycles_per_step() {
        let app = CfdApplication::paper();
        let t4 = TwoStepMapping::analyse(&app, &Platform::with_cores(4)).unwrap();
        let t8 = TwoStepMapping::analyse(&app, &Platform::with_cores(8)).unwrap();
        let t16 = TwoStepMapping::analyse(&app, &Platform::with_cores(16)).unwrap();
        assert!(t8.step2.cycles.total() < t4.step2.cycles.total());
        assert!(t16.step2.cycles.total() < t8.step2.cycles.total());
        // Analysed bandwidth grows with the number of cores (Section 5's
        // linear-scaling claim, up to the fixed FFT overhead).
        assert!(t8.metrics.analysed_bandwidth_khz > t4.metrics.analysed_bandwidth_khz);
        assert!(t16.metrics.analysed_bandwidth_khz > t8.metrics.analysed_bandwidth_khz);
    }

    #[test]
    fn invalid_applications_are_rejected() {
        let bad = CfdApplication {
            fft_len: 256,
            max_offset: 63,
            num_blocks: 1,
        };
        // Zero cores is a folding error.
        assert!(TwoStepMapping::analyse(&bad, &Platform::with_cores(0)).is_err());
    }
}
