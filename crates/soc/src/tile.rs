//! One tile of the platform: a Montium core plus its folded task set and the
//! per-block operand state it needs to source the array boundaries.

use crate::error::{tile_error, SocError};
use cfd_dsp::complex::Cplx;
use cfd_dsp::scf::centred_bin;
use montium_sim::kernels::{configure_tile, TileTaskSet};
use montium_sim::sequencer::Phase;
use montium_sim::{MontiumConfig, MontiumCore};

/// The Table-1-shaped cycle breakdown of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCycleBreakdown {
    /// Tile index.
    pub tile: usize,
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

impl TileCycleBreakdown {
    /// Total cycles of the tile.
    pub fn total(&self) -> u64 {
        self.multiply_accumulate
            + self.read_data
            + self.fft
            + self.reshuffling
            + self.initialisation
    }
}

/// One tile of the tiled SoC.
#[derive(Debug)]
pub struct Tile {
    index: usize,
    core: MontiumCore,
    task_set: TileTaskSet,
    /// Current block spectrum (direct-flow source values).
    spectrum: Vec<Cplx>,
    /// Current block conjugated spectrum (conjugate-flow source values).
    conjugated: Vec<Cplx>,
    /// Reusable readback buffer for [`Tile::results_flat`], so gathering
    /// the DSCF after every run allocates nothing in steady state.
    gather: Vec<Cplx>,
}

impl Tile {
    /// Creates and configures tile `index` for its task set.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the Montium core.
    pub fn new(
        index: usize,
        tile_config: MontiumConfig,
        task_set: TileTaskSet,
    ) -> Result<Self, SocError> {
        let mut core = MontiumCore::new(tile_config);
        configure_tile(&mut core, &task_set).map_err(|e| tile_error(index, e))?;
        Ok(Tile {
            index,
            core,
            task_set,
            spectrum: Vec::new(),
            conjugated: Vec::new(),
            gather: Vec::new(),
        })
    }

    /// The tile index within the platform.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The folded task set executed by this tile.
    pub fn task_set(&self) -> &TileTaskSet {
        &self.task_set
    }

    /// Number of frequency steps per block.
    pub fn num_frequencies(&self) -> usize {
        self.task_set.num_frequencies()
    }

    /// Prepares one integration step: computes the block spectrum on the
    /// tile's own ALU, reshuffles the conjugated values and loads the two
    /// shift registers with the window for the first frequency.
    ///
    /// # Errors
    ///
    /// Propagates tile errors (e.g. non-power-of-two block length).
    pub fn begin_block(&mut self, samples: &[Cplx]) -> Result<(), SocError> {
        let (spectrum, _) = self
            .core
            .fft(samples)
            .map_err(|e| tile_error(self.index, e))?;
        let (conjugated, _) = self.core.reshuffle(&spectrum);
        self.spectrum = spectrum;
        self.conjugated = conjugated;
        let k = self.task_set.fft_len;
        let t = self.task_set.tasks_per_core;
        let conj_window: Vec<Cplx> = (0..t)
            .map(|j| self.conjugated[centred_bin(self.task_set.conjugate_index(j, 0), k)])
            .collect();
        let direct_window: Vec<Cplx> = (0..t)
            .map(|j| self.spectrum[centred_bin(self.task_set.direct_index(j, 0), k)])
            .collect();
        self.core
            .load_shift_registers(&conj_window, &direct_window)
            .map_err(|e| tile_error(self.index, e))?;
        Ok(())
    }

    /// The spectrum of the current block, as [`Tile::begin_block`]
    /// computed it on the tile's ALU.
    pub(crate) fn spectrum(&self) -> &[Cplx] {
        &self.spectrum
    }

    /// Executes the `T` multiply–accumulates of frequency step `step`.
    ///
    /// # Errors
    ///
    /// Propagates tile errors.
    pub fn mac_step(&mut self, step: usize) -> Result<(), SocError> {
        self.core
            .mac_frequency_step(step)
            .map_err(|e| tile_error(self.index, e))?;
        Ok(())
    }

    /// The boundary values this tile hands to its neighbours before the next
    /// shift: `(conjugate_out, direct_out)`.
    ///
    /// # Errors
    ///
    /// Propagates tile errors.
    pub fn edge_outputs(&mut self) -> Result<(Cplx, Cplx), SocError> {
        self.core
            .edge_outputs()
            .map_err(|e| tile_error(self.index, e))
    }

    /// The conjugate-flow value the *source* (FFT output stream) injects into
    /// this tile for frequency step `step` — used when this tile sits at the
    /// low end of the array.
    pub fn source_conjugate(&self, step: usize) -> Cplx {
        let k = self.task_set.fft_len;
        self.conjugated[centred_bin(self.task_set.conjugate_index(0, step), k)]
    }

    /// The direct-flow value the source injects into this tile for frequency
    /// step `step` — used when this tile sits at the high end of the array.
    pub fn source_direct(&self, step: usize) -> Cplx {
        let k = self.task_set.fft_len;
        let t = self.task_set.tasks_per_core;
        self.spectrum[centred_bin(self.task_set.direct_index(t - 1, step), k)]
    }

    /// Advances the shift registers with the incoming boundary values.
    ///
    /// # Errors
    ///
    /// Propagates tile errors.
    pub fn shift_in(
        &mut self,
        incoming_conjugate: Cplx,
        incoming_direct: Cplx,
    ) -> Result<(), SocError> {
        self.core
            .shift_in(incoming_conjugate, incoming_direct)
            .map_err(|e| tile_error(self.index, e))
    }

    /// Finishes the current integration step.
    ///
    /// # Errors
    ///
    /// Propagates tile errors.
    pub fn finish_block(&mut self) -> Result<(), SocError> {
        self.core
            .finish_block()
            .map_err(|e| tile_error(self.index, e))
    }

    /// The accumulated, normalised DSCF slice of this tile, read flat into
    /// the tile's own reusable gather buffer:
    /// `result[local_task · F + frequency_step]`.
    /// This is the allocation-free readback the platform's DSCF gather uses
    /// — the buffer persists across runs.
    ///
    /// # Errors
    ///
    /// Propagates tile errors.
    pub fn results_flat(&mut self) -> Result<&[Cplx], SocError> {
        let index = self.index;
        let Tile { core, gather, .. } = self;
        core.accumulated_results_into(gather)
            .map_err(|e| tile_error(index, e))?;
        Ok(gather)
    }

    /// The Table-1-shaped cycle breakdown accumulated by this tile.
    pub fn cycle_breakdown(&self) -> TileCycleBreakdown {
        let s = self.core.sequencer();
        TileCycleBreakdown {
            tile: self.index,
            multiply_accumulate: s.cycles_in(Phase::MultiplyAccumulate),
            read_data: s.cycles_in(Phase::ReadData),
            fft: s.cycles_in(Phase::Fft),
            reshuffling: s.cycles_in(Phase::Reshuffle),
            initialisation: s.cycles_in(Phase::Initialisation),
        }
    }

    /// Clears cycle counters and accumulators, keeping the configuration.
    pub fn reset(&mut self) {
        self.core.reset_measurements();
        self.spectrum.clear();
        self.conjugated.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::signal::awgn;
    use cfd_mapping::folding::Folding;

    fn small_tile() -> Tile {
        let folding = Folding::new(15, 4).unwrap();
        let task_set = TileTaskSet::new(&folding, 0, 7, 32).unwrap();
        Tile::new(0, MontiumConfig::paper(), task_set).unwrap()
    }

    #[test]
    fn tile_construction_and_accessors() {
        let tile = small_tile();
        assert_eq!(tile.index(), 0);
        assert_eq!(tile.num_frequencies(), 15);
        assert_eq!(tile.task_set().tasks_per_core, 4);
        assert_eq!(tile.cycle_breakdown().total(), 0);
    }

    #[test]
    fn begin_block_loads_registers_and_counts_cycles() {
        let mut tile = small_tile();
        let samples = awgn(32, 1.0, 3);
        tile.begin_block(&samples).unwrap();
        let breakdown = tile.cycle_breakdown();
        assert!(breakdown.fft > 0);
        assert_eq!(breakdown.reshuffling, 32);
        assert_eq!(breakdown.initialisation, 15);
        assert_eq!(breakdown.multiply_accumulate, 0);
        // The source values are defined once a block has begun.
        let _ = tile.source_conjugate(1);
        let _ = tile.source_direct(1);
    }

    #[test]
    fn mac_and_shift_round_trip() {
        let mut tile = small_tile();
        let samples = awgn(32, 1.0, 5);
        tile.begin_block(&samples).unwrap();
        tile.mac_step(0).unwrap();
        let (c, d) = tile.edge_outputs().unwrap();
        tile.shift_in(c, d).unwrap();
        tile.finish_block().unwrap();
        assert_eq!(tile.results_flat().unwrap().len(), 4 * 15);
        let breakdown = tile.cycle_breakdown();
        assert_eq!(breakdown.read_data, 3);
        assert_eq!(breakdown.multiply_accumulate, 4 * 3);
        tile.reset();
        assert_eq!(tile.cycle_breakdown().total(), 0);
    }

    #[test]
    fn begin_block_rejects_bad_length() {
        let mut tile = small_tile();
        let samples = awgn(33, 1.0, 5);
        assert!(matches!(
            tile.begin_block(&samples),
            Err(SocError::Tile { tile: 0, .. })
        ));
    }
}
