//! Folding the systolic array onto `Q` physical cores (Section 3.3, eqs. 8–9,
//! Figs. 8 and 9).
//!
//! The full systolic array needs `P = 2M+1` processing elements (127 for the
//! paper's 256-point spectra), which exceeds the 4 Montium tiles of the AAF
//! platform. The paper therefore folds the array: each physical core executes
//! `T = ceil(P / Q)` tasks of the initial array (eq. 8), task `p` going to
//! core `q = floor(p / T)` (eq. 9). The chain registers of the tasks that
//! share a core become two local shift registers of length `T` (realised in
//! Montium memories M09/M10), read through synchronised switches (Fig. 9);
//! data crosses a core boundary only once every `T` multiply–accumulates.
//!
//! [`FoldedArray::run`] simulates the folded architecture functionally — the
//! result equals the reference DSCF — and counts the operations and
//! inter-core transfers that Step 2 later converts into cycle counts.

use crate::error::MappingError;
use cfd_dsp::complex::Cplx;
use cfd_dsp::scf::{centred_bin, ScfMatrix};

/// The task-to-core assignment of eqs. 8–9.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Folding {
    /// Number of tasks of the initial (unfolded) array, `P = 2M+1`.
    pub initial_processors: usize,
    /// Number of physical cores, `Q`.
    pub cores: usize,
    /// Tasks per core, `T = ceil(P/Q)` (eq. 8).
    pub tasks_per_core: usize,
}

impl Folding {
    /// Creates the folding of `initial_processors` tasks onto `cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InvalidParameter`] if either count is zero.
    pub fn new(initial_processors: usize, cores: usize) -> Result<Self, MappingError> {
        if initial_processors == 0 {
            return Err(MappingError::InvalidParameter {
                name: "initial_processors",
                message: "must be at least 1".into(),
            });
        }
        if cores == 0 {
            return Err(MappingError::InvalidParameter {
                name: "cores",
                message: "must be at least 1".into(),
            });
        }
        Ok(Folding {
            initial_processors,
            cores,
            tasks_per_core: initial_processors.div_ceil(cores),
        })
    }

    /// The paper's folding: `P = 127` tasks onto `Q = 4` Montium cores,
    /// giving `T = 32`.
    pub fn paper() -> Self {
        Folding::new(127, 4).expect("paper folding is valid")
    }

    /// Core executing task `p` (eq. 9: `q = floor(p / T)`).
    ///
    /// # Panics
    ///
    /// Panics if `p >= initial_processors`.
    pub fn core_of_task(&self, p: usize) -> usize {
        assert!(
            p < self.initial_processors,
            "task {p} out of range (P = {})",
            self.initial_processors
        );
        p / self.tasks_per_core
    }

    /// The tasks assigned to core `q`: `qT ..= min((q+1)T, P) - 1`.
    pub fn tasks_of_core(&self, q: usize) -> std::ops::Range<usize> {
        let start = (q * self.tasks_per_core).min(self.initial_processors);
        let end = ((q + 1) * self.tasks_per_core).min(self.initial_processors);
        start..end
    }

    /// Number of tasks actually executed by core `q` (the last core may have
    /// fewer than `T`).
    pub fn load_of_core(&self, q: usize) -> usize {
        self.tasks_of_core(q).len()
    }

    /// The largest per-core load (= `T` unless `Q·T` overshoots `P` by a
    /// whole core's worth).
    pub fn max_load(&self) -> usize {
        (0..self.cores)
            .map(|q| self.load_of_core(q))
            .max()
            .unwrap_or(0)
    }

    /// Checks that the assignment is a partition: every task is executed by
    /// exactly one core.
    pub fn is_partition(&self) -> bool {
        let mut covered = vec![false; self.initial_processors];
        for q in 0..self.cores {
            for p in self.tasks_of_core(q) {
                if covered[p] {
                    return false;
                }
                covered[p] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }
}

/// The switch schedule of Fig. 9: within one frequency step, the two
/// synchronised switches select shift-register taps `0, 1, …, T-1` in turn,
/// then the shift registers advance one position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchSchedule {
    tasks_per_core: usize,
}

impl SwitchSchedule {
    /// Creates the schedule for `tasks_per_core` (= `T`) tasks.
    pub fn new(tasks_per_core: usize) -> Self {
        SwitchSchedule { tasks_per_core }
    }

    /// The tap selected at MAC slot `slot` within a frequency step.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= T`.
    pub fn tap_at(&self, slot: usize) -> usize {
        assert!(slot < self.tasks_per_core, "slot {slot} out of range");
        slot
    }

    /// The full tap sequence for one frequency step.
    pub fn sequence(&self) -> Vec<usize> {
        (0..self.tasks_per_core).collect()
    }

    /// Number of MAC slots between two shift-register advances (= `T`).
    pub fn slots_per_shift(&self) -> usize {
        self.tasks_per_core
    }
}

/// Statistics of a functional run of the folded architecture.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FoldedRunStats {
    /// Complex multiply–accumulate operations per core (indexed by core).
    pub macs_per_core: Vec<usize>,
    /// Values transferred between adjacent cores (both flows together).
    pub inter_core_transfers: usize,
    /// Values injected from outside the array (the FFT source), including
    /// the initial preload.
    pub external_inputs: usize,
    /// Number of integration planes (blocks) processed.
    pub blocks: usize,
    /// Frequency steps per block.
    pub frequency_steps: usize,
}

impl FoldedRunStats {
    /// Total MAC operations over all cores.
    pub fn total_macs(&self) -> usize {
        self.macs_per_core.iter().sum()
    }

    /// The ratio between per-core MAC operations and per-core-boundary
    /// transfers — the paper's argument that communication runs at a rate
    /// `T` times lower than computation.
    pub fn compute_to_communication_ratio(&self) -> f64 {
        if self.inter_core_transfers == 0 {
            return f64::INFINITY;
        }
        let cores = self.macs_per_core.len().max(1);
        let max_core_macs = self.macs_per_core.iter().copied().max().unwrap_or(0) as f64;
        // Transfers per boundary (there are Q-1 internal boundaries, each
        // carrying two flows).
        let boundaries = (cores.saturating_sub(1)).max(1) as f64;
        let transfers_per_boundary = self.inter_core_transfers as f64 / boundaries;
        max_core_macs / transfers_per_boundary
    }
}

/// The folded processor array: `Q` cores, each executing `T` tasks through
/// local shift registers and switches (Figs. 8/9).
#[derive(Debug, Clone)]
pub struct FoldedArray {
    max_offset: usize,
    fft_len: usize,
    folding: Folding,
    /// Accumulators: `core -> local task -> frequency slot`.
    accumulators: Vec<Vec<Vec<Cplx>>>,
    blocks_accumulated: usize,
}

impl FoldedArray {
    /// Creates a folded array for a DSCF grid of half-width `max_offset`
    /// over `fft_len`-point spectra, folded onto `cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::InvalidParameter`] if `cores` is zero or the
    /// grid does not fit the spectrum (`2·max_offset >= fft_len`).
    pub fn new(max_offset: usize, fft_len: usize, cores: usize) -> Result<Self, MappingError> {
        if 2 * max_offset >= fft_len {
            return Err(MappingError::InvalidParameter {
                name: "max_offset",
                message: format!(
                    "2*max_offset ({}) must be smaller than fft_len ({fft_len})",
                    2 * max_offset
                ),
            });
        }
        let p = 2 * max_offset + 1;
        let folding = Folding::new(p, cores)?;
        let f_count = p;
        let accumulators = (0..cores)
            .map(|q| {
                (0..folding.load_of_core(q))
                    .map(|_| vec![Cplx::ZERO; f_count])
                    .collect()
            })
            .collect();
        Ok(FoldedArray {
            max_offset,
            fft_len,
            folding,
            accumulators,
            blocks_accumulated: 0,
        })
    }

    /// The paper's configuration: `M = 63` (127 tasks) on 4 cores over
    /// 256-point spectra.
    ///
    /// # Errors
    ///
    /// Never fails for the paper's constants; the `Result` mirrors
    /// [`FoldedArray::new`].
    pub fn paper() -> Result<Self, MappingError> {
        FoldedArray::new(63, 256, 4)
    }

    /// The folding (task-to-core assignment).
    pub fn folding(&self) -> &Folding {
        &self.folding
    }

    /// The grid half-width `M`.
    pub fn max_offset(&self) -> usize {
        self.max_offset
    }

    /// Per-core complex-accumulator requirement `T·F` (Section 4.1).
    pub fn accumulators_per_core(&self) -> usize {
        self.folding.tasks_per_core * (2 * self.max_offset + 1)
    }

    /// Runs the folded architecture over the given block spectra.
    ///
    /// Accumulation continues across calls until [`FoldedArray::reset`] (or
    /// a fresh instance) — mirroring the accumulate-over-`n` memories of the
    /// real architecture.
    ///
    /// # Panics
    ///
    /// Panics if a spectrum is shorter than `fft_len`.
    pub fn run(&mut self, spectra: &[Vec<Cplx>]) -> (ScfMatrix, FoldedRunStats) {
        let m = self.max_offset as i32;
        let p = 2 * self.max_offset + 1;
        let q_count = self.folding.cores;
        let t = self.folding.tasks_per_core;
        let k = self.fft_len;
        let mut stats = FoldedRunStats {
            macs_per_core: vec![0; q_count],
            blocks: spectra.len(),
            frequency_steps: p,
            ..Default::default()
        };

        for spectrum in spectra {
            assert!(
                spectrum.len() >= k,
                "spectrum has {} bins, expected at least {k}",
                spectrum.len()
            );
            // Local shift registers per core, preloaded for f = -M.
            // conj_regs[q][j]  = X_{n, f - a}  with a = qT + j - M
            // direct_regs[q][j] = X_{n, f + a}
            let f0 = -m;
            let mut conj_regs: Vec<Vec<Cplx>> = (0..q_count)
                .map(|q| {
                    (0..t)
                        .map(|j| {
                            let a = (q * t + j) as i32 - m;
                            spectrum[centred_bin(f0 - a, k)]
                        })
                        .collect()
                })
                .collect();
            let mut direct_regs: Vec<Vec<Cplx>> = (0..q_count)
                .map(|q| {
                    (0..t)
                        .map(|j| {
                            let a = (q * t + j) as i32 - m;
                            spectrum[centred_bin(f0 + a, k)]
                        })
                        .collect()
                })
                .collect();
            stats.external_inputs += 2 * q_count * t;

            for step in 0..p {
                let f = step as i32 - m;
                // Every core works through its T tasks (switch taps 0..T-1).
                for q in 0..q_count {
                    for j in 0..self.folding.load_of_core(q) {
                        let direct = direct_regs[q][j];
                        let conjugated = conj_regs[q][j];
                        self.accumulators[q][j][step] += direct * conjugated.conj();
                        stats.macs_per_core[q] += 1;
                    }
                }

                if step + 1 < p {
                    let f_next = f + 1;
                    // Conjugate flow: values move towards higher a, i.e. from
                    // core q-1 into core q (and within a core from tap j-1 to j).
                    for q in (0..q_count).rev() {
                        let incoming = if q == 0 {
                            stats.external_inputs += 1;
                            spectrum[centred_bin(f_next + m, k)]
                        } else {
                            stats.inter_core_transfers += 1;
                            conj_regs[q - 1][t - 1]
                        };
                        for j in (1..t).rev() {
                            conj_regs[q][j] = conj_regs[q][j - 1];
                        }
                        conj_regs[q][0] = incoming;
                    }
                    // Direct flow: values move towards lower a, i.e. from core
                    // q+1 into core q (within a core from tap j+1 to j).
                    for q in 0..q_count {
                        let incoming = if q + 1 == q_count {
                            stats.external_inputs += 1;
                            spectrum[centred_bin(f_next + (q_count * t) as i32 - 1 - m, k)]
                        } else {
                            stats.inter_core_transfers += 1;
                            direct_regs[q + 1][0]
                        };
                        for j in 0..t - 1 {
                            direct_regs[q][j] = direct_regs[q][j + 1];
                        }
                        direct_regs[q][t - 1] = incoming;
                    }
                }
            }
        }

        self.blocks_accumulated += spectra.len();
        (self.result(), stats)
    }

    /// The DSCF accumulated so far, normalised by the number of blocks.
    pub fn result(&self) -> ScfMatrix {
        let m = self.max_offset as i32;
        let mut matrix = ScfMatrix::zeros(self.max_offset);
        if self.blocks_accumulated == 0 {
            return matrix;
        }
        let norm = 1.0 / self.blocks_accumulated as f64;
        for q in 0..self.folding.cores {
            for (j, per_task) in self.accumulators[q].iter().enumerate() {
                let p_index = q * self.folding.tasks_per_core + j;
                let a = p_index as i32 - m;
                for (step, &value) in per_task.iter().enumerate() {
                    let f = step as i32 - m;
                    matrix.set(f, a, value * norm);
                }
            }
        }
        matrix
    }

    /// Clears all accumulators.
    pub fn reset(&mut self) {
        for core in &mut self.accumulators {
            for task in core {
                for v in task {
                    *v = Cplx::ZERO;
                }
            }
        }
        self.blocks_accumulated = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::prelude::*;
    use cfd_dsp::scf::{block_spectra, dscf_reference};
    use cfd_dsp::signal::{awgn, modulated_signal, ModulatedSignalSpec};

    #[test]
    fn folding_equations_8_and_9() {
        let folding = Folding::paper();
        assert_eq!(folding.initial_processors, 127);
        assert_eq!(folding.cores, 4);
        // Eq. 8: T = ceil(127 / 4) = 32.
        assert_eq!(folding.tasks_per_core, 32);
        // Eq. 9: q = floor(p / T).
        assert_eq!(folding.core_of_task(0), 0);
        assert_eq!(folding.core_of_task(31), 0);
        assert_eq!(folding.core_of_task(32), 1);
        assert_eq!(folding.core_of_task(126), 3);
        // The paper: tasks qT to (q+1)T - 1 on core q.
        assert_eq!(folding.tasks_of_core(1), 32..64);
        assert_eq!(folding.tasks_of_core(3), 96..127);
        assert_eq!(folding.load_of_core(3), 31);
        assert_eq!(folding.max_load(), 32);
        assert!(folding.is_partition());
    }

    #[test]
    fn folding_rejects_zero_parameters() {
        assert!(Folding::new(0, 4).is_err());
        assert!(Folding::new(10, 0).is_err());
    }

    #[test]
    fn folding_is_partition_for_many_shapes() {
        for p in [1usize, 2, 7, 16, 127, 128, 255] {
            for q in [1usize, 2, 3, 4, 5, 8] {
                let folding = Folding::new(p, q).unwrap();
                assert!(folding.is_partition(), "P={p}, Q={q}");
                assert!(folding.max_load() <= folding.tasks_per_core);
                let total: usize = (0..q).map(|c| folding.load_of_core(c)).sum();
                assert_eq!(total, p, "P={p}, Q={q}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_of_task_rejects_out_of_range() {
        Folding::paper().core_of_task(127);
    }

    #[test]
    fn switch_schedule_cycles_through_taps() {
        let schedule = SwitchSchedule::new(4);
        assert_eq!(schedule.sequence(), vec![0, 1, 2, 3]);
        assert_eq!(schedule.tap_at(2), 2);
        assert_eq!(schedule.slots_per_shift(), 4);
    }

    #[test]
    fn folded_array_matches_reference_dscf() {
        let params = ScfParams::new(32, 7, 4).unwrap();
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let signal = modulated_signal(params.samples_needed(), &spec, 3).unwrap();
        let reference = dscf_reference(&signal, &params).unwrap();
        let spectra = block_spectra(&signal, &params).unwrap();
        for cores in [1usize, 2, 3, 4, 5] {
            let mut array = FoldedArray::new(params.max_offset, params.fft_len, cores).unwrap();
            let (result, stats) = array.run(&spectra);
            assert!(
                result.max_abs_difference(&reference) < 1e-9,
                "cores = {cores}"
            );
            assert_eq!(stats.total_macs(), 4 * 15 * 15, "cores = {cores}");
        }
    }

    #[test]
    fn folded_array_matches_reference_for_noise_and_uneven_fold() {
        // 31 tasks on 4 cores: T = 8, last core has 7 tasks.
        let params = ScfParams::new(64, 15, 3).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 123);
        let reference = dscf_reference(&signal, &params).unwrap();
        let spectra = block_spectra(&signal, &params).unwrap();
        let mut array = FoldedArray::new(params.max_offset, params.fft_len, 4).unwrap();
        assert_eq!(array.folding().tasks_per_core, 8);
        assert_eq!(array.folding().load_of_core(3), 7);
        let (result, _) = array.run(&spectra);
        assert!(result.max_abs_difference(&reference) < 1e-9);
    }

    #[test]
    fn communication_runs_t_times_slower_than_computation() {
        // The paper's Section 4 argument: per frequency step a core executes
        // T MACs but exchanges only one value per flow with its neighbour.
        let params = ScfParams::new(64, 15, 2).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 7);
        let spectra = block_spectra(&signal, &params).unwrap();
        let mut array = FoldedArray::new(params.max_offset, params.fft_len, 4).unwrap();
        let t = array.folding().tasks_per_core as f64;
        let (_, stats) = array.run(&spectra);
        let ratio = stats.compute_to_communication_ratio();
        // Per boundary and per flow, one transfer per frequency step versus
        // T MACs per step: the ratio is T/2 when counting both flows.
        assert!(
            (ratio - t / 2.0).abs() / (t / 2.0) < 0.1,
            "ratio = {ratio}, T = {t}"
        );
    }

    #[test]
    fn paper_configuration_memory_requirement() {
        let array = FoldedArray::paper().unwrap();
        // T*F = 32 * 127 = 4064 complex values per core (Section 4.1).
        assert_eq!(array.accumulators_per_core(), 4064);
    }

    #[test]
    fn accumulation_across_runs_and_reset() {
        let params = ScfParams::new(32, 3, 2).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 55);
        let reference = dscf_reference(&signal, &params).unwrap();
        let spectra = block_spectra(&signal, &params).unwrap();
        let mut array = FoldedArray::new(params.max_offset, params.fft_len, 2).unwrap();
        // Feed the two blocks one at a time; the final result must equal the
        // reference over both blocks.
        let (_, _) = array.run(&spectra[0..1]);
        let (result, _) = array.run(&spectra[1..2]);
        assert!(result.max_abs_difference(&reference) < 1e-9);
        array.reset();
        let empty = array.result();
        assert_eq!(empty.max_magnitude(), 0.0);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(FoldedArray::new(8, 16, 4).is_err());
        assert!(FoldedArray::new(3, 16, 0).is_err());
    }
}
