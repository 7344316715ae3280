//! The tiled SoC: `Q` Montium tiles executing the folded DSCF computation
//! with explicit inter-tile streams.
//!
//! The platform corresponds to the AAF DRBPF of Section 4: the 127-task
//! systolic array of Step 1 is folded onto the tiles, each tile runs the
//! Fig. 11 kernel on its Montium core, and the array-boundary values cross
//! between tiles once per frequency step (a rate `T` times lower than the
//! multiply–accumulate rate, as the paper argues).
//!
//! Two execution modes produce the same [`SocRun`]:
//!
//! * **lockstep** — all tiles advance one frequency step at a time in a
//!   single thread (deterministic; the cycle-accurate golden reference);
//! * **analytic** — the model of what the hardware computes, without
//!   stepping it. The platform evaluates exactly eq. 3, so the DSCF comes
//!   from the `cfd-dsp` [`ScfEngine`], and every counter comes from the
//!   closed-form cost model:
//!   [`montium_sim::kernels::analytic_step_cycles`] per tile and block,
//!   `2·(Q−1)·(F−1)` inter-tile transfers and `2·(F−1)` source inputs per
//!   block. DSCF values and counters equal the lockstep mode's (pinned
//!   by `tests/soc_fast_path.rs`); the only bit-level difference is the
//!   sign of an exactly-zero imaginary part in the engine's mirrored
//!   `a < 0` half.
//!
//! [`TiledSoc::run_from_spectra`] feeds externally computed block spectra
//! to the analytic path (no FFT at all), and [`TiledSoc::book_blocks`]
//! books the closed-form cost alone for callers that already hold the DSCF
//! — a sensing backend deciding from an `Observation`'s shared matrix pays
//! for no second accumulation.

use crate::config::{ExecutionMode, SocConfig};
use crate::error::SocError;
use crate::link::{QueueLink, StreamWord};
use crate::power::PlatformMetrics;
use crate::tile::{Tile, TileCycleBreakdown};
use cfd_dsp::complex::Cplx;
use cfd_dsp::error::DspError;
use cfd_dsp::scf::{check_spectrum_bound, ScfEngine, ScfMatrix, ScfParams};
use cfd_mapping::folding::Folding;
use montium_sim::kernels::{analytic_step_cycles, IntegrationStepCycles, TileTaskSet};
use std::sync::OnceLock;

/// Cached handles to the SoC run instruments: stage histograms for the
/// simulated/analytic run and the spectra-fed correlator, per-mode run
/// counters, and last-run cycle/energy gauges (the analytic-vs-lockstep
/// comparison the paper's Table 1 is about).
struct SocInstruments {
    run_ns: cfd_telemetry::Histogram,
    correlate_ns: cfd_telemetry::Histogram,
    runs_lockstep: cfd_telemetry::Counter,
    runs_analytic: cfd_telemetry::Counter,
    runs_spectra_fed: cfd_telemetry::Counter,
    critical_cycles: cfd_telemetry::Gauge,
    energy_per_block_uj: cfd_telemetry::Gauge,
}

fn instruments() -> &'static SocInstruments {
    static INSTRUMENTS: OnceLock<SocInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| SocInstruments {
        run_ns: cfd_telemetry::histogram("soc.run_ns"),
        correlate_ns: cfd_telemetry::histogram("soc.correlate_ns"),
        runs_lockstep: cfd_telemetry::counter("soc.runs.lockstep"),
        runs_analytic: cfd_telemetry::counter("soc.runs.analytic"),
        runs_spectra_fed: cfd_telemetry::counter("soc.runs.spectra_fed"),
        critical_cycles: cfd_telemetry::gauge("soc.run.critical_cycles"),
        energy_per_block_uj: cfd_telemetry::gauge("soc.run.energy_per_block_uj"),
    })
}

/// The result of running one or more integration steps on the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SocRun {
    /// The accumulated DSCF over all processed blocks.
    pub scf: ScfMatrix,
    /// Number of blocks (integration steps) processed.
    pub blocks: usize,
    /// Per-tile cycle breakdowns (over all processed blocks).
    pub per_tile_cycles: Vec<TileCycleBreakdown>,
    /// Words exchanged between tiles (both flows).
    pub inter_tile_transfers: u64,
    /// Words injected from the FFT source at the array boundaries.
    pub source_inputs: u64,
}

impl SocRun {
    /// The critical-path cycle count: the largest per-tile total.
    pub fn max_tile_cycles(&self) -> u64 {
        self.per_tile_cycles
            .iter()
            .map(|t| t.total())
            .max()
            .unwrap_or(0)
    }

    /// The critical-path cycles per block.
    pub fn cycles_per_block(&self) -> u64 {
        let blocks = self.blocks as u64;
        self.max_tile_cycles().checked_div(blocks).unwrap_or(0)
    }
}

/// The tiled System-on-Chip.
#[derive(Debug)]
pub struct TiledSoc {
    config: SocConfig,
    max_offset: usize,
    fft_len: usize,
    folding: Folding,
    tiles: Vec<Tile>,
    /// The closed-form per-block cycle breakdown of each tile.
    steps: Vec<IntegrationStepCycles>,
    /// The eq.-3 engine of the analytic path (rectangular window,
    /// non-overlapping blocks: the platform's configuration).
    engine: ScfEngine,
    /// Block spectra the analytic path integrated since the last reset:
    /// the first `blocks_analytic` entries are live, the rest are kept
    /// allocations.
    spectra: Vec<Vec<Cplx>>,
    /// Blocks accumulated through the cycle-accurate tiles since the last
    /// reset.
    blocks_simulated: usize,
    /// Blocks integrated through the analytic path since the last reset.
    blocks_analytic: usize,
    /// Whether a simulated run touched the tiles since the last reset. Set
    /// when the run starts, so an errored run is cleared too.
    tiles_dirty: bool,
    inter_tile_transfers: u64,
    source_inputs: u64,
    configurations: u64,
}

impl TiledSoc {
    /// Builds a platform of `config.num_tiles` tiles for a DSCF grid of
    /// half-width `max_offset` over `fft_len`-point spectra.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidConfiguration`] for a zero-tile platform
    /// and propagates folding/capacity errors.
    pub fn new(config: SocConfig, max_offset: usize, fft_len: usize) -> Result<Self, SocError> {
        if config.num_tiles == 0 {
            return Err(SocError::InvalidConfiguration {
                message: "the platform needs at least one tile".into(),
            });
        }
        if config.mode == ExecutionMode::Analytic && config.tile.quantize_q15 {
            // The 16-bit accumulator quantisation happens on every memory
            // write of the cycle-accurate datapath; the analytic path
            // accumulates in full precision and would silently return
            // different numbers than the hardware model. Refuse up front.
            return Err(SocError::InvalidConfiguration {
                message: "the analytic execution mode models the full-precision datapath; \
                          use Lockstep for a Q15 platform"
                    .into(),
            });
        }
        let p = 2 * max_offset + 1;
        let folding = Folding::new(p, config.num_tiles)?;
        let mut tiles = Vec::with_capacity(config.num_tiles);
        let mut steps = Vec::with_capacity(config.num_tiles);
        for q in 0..config.num_tiles {
            let task_set = TileTaskSet::new(&folding, q, max_offset, fft_len)
                .map_err(|e| crate::error::tile_error(q, e))?;
            steps.push(analytic_step_cycles(&config.tile, &task_set));
            tiles.push(Tile::new(q, config.tile.clone(), task_set)?);
        }
        let engine = ScfEngine::new(ScfParams::new(fft_len, max_offset, 1)?)?;
        Ok(TiledSoc {
            config,
            max_offset,
            fft_len,
            folding,
            tiles,
            steps,
            engine,
            spectra: Vec::new(),
            blocks_simulated: 0,
            blocks_analytic: 0,
            tiles_dirty: false,
            inter_tile_transfers: 0,
            source_inputs: 0,
            configurations: 1,
        })
    }

    /// The paper's platform: 4 tiles, 256-point spectra, 127×127 DSCF.
    ///
    /// # Errors
    ///
    /// Never fails for the paper's constants; the `Result` mirrors
    /// [`TiledSoc::new`].
    pub fn paper() -> Result<Self, SocError> {
        TiledSoc::new(SocConfig::paper(), 63, 256)
    }

    /// The platform configuration.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The Step-1 folding realised by this platform.
    pub fn folding(&self) -> &Folding {
        &self.folding
    }

    /// The DSCF grid half-width `M`.
    pub fn max_offset(&self) -> usize {
        self.max_offset
    }

    /// The FFT length `K`.
    pub fn fft_len(&self) -> usize {
        self.fft_len
    }

    /// The number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// How many times this platform has been configured (sequencer programs
    /// loaded into the tiles). Construction configures once;
    /// [`TiledSoc::run`] and [`TiledSoc::reset`] never reconfigure — this
    /// counter is the observable that lets the session layer assert its
    /// "configure once, decide many" contract.
    pub fn configurations(&self) -> u64 {
        self.configurations
    }

    /// Runs `num_blocks` integration steps over `signal` (consecutive,
    /// non-overlapping blocks of `fft_len` samples) and returns the
    /// accumulated DSCF plus the platform statistics.
    ///
    /// In [`ExecutionMode::Analytic`] the block spectra and the DSCF come
    /// from the [`ScfEngine`] and the counters from the closed-form cost
    /// model; the result is the same `SocRun` the lockstep mode produces.
    ///
    /// Every block spectrum, whether the engine or the tiles computed it,
    /// is checked against the bound beyond which the DSCF would overflow
    /// ([`check_spectrum_bound`]), in both modes.
    ///
    /// # Errors
    ///
    /// * [`SocError::Dsp`] if the signal is too short, one of the samples
    ///   the blocks cover is NaN or infinite, or a block spectrum exceeds
    ///   the overflow bound (the accumulation then holds a partial run:
    ///   [`TiledSoc::reset`] before the next one),
    /// * [`SocError::ExecutionFailure`] when switching execution paths
    ///   without a [`TiledSoc::reset`],
    /// * tile and execution errors otherwise.
    pub fn run(&mut self, signal: &[Cplx], num_blocks: usize) -> Result<SocRun, SocError> {
        let mut out = self.empty_run();
        self.run_into(signal, num_blocks, &mut out)?;
        Ok(out)
    }

    /// [`TiledSoc::run`] writing into a caller-owned [`SocRun`], so
    /// decision loops (a sensing session taking thousands of decisions)
    /// reuse the DSCF matrix and the per-tile breakdown vector instead of
    /// reallocating them per run.
    ///
    /// # Errors
    ///
    /// Same contract as [`TiledSoc::run`].
    pub fn run_into(
        &mut self,
        signal: &[Cplx],
        num_blocks: usize,
        out: &mut SocRun,
    ) -> Result<(), SocError> {
        let needed = num_blocks * self.fft_len;
        if signal.len() < needed {
            return Err(SocError::Dsp(DspError::InsufficientSamples {
                needed,
                available: signal.len(),
            }));
        }
        // A NaN or infinity would otherwise run through the DSCF into a
        // statistic that reads as "band vacant".
        if let Some(index) = signal[..needed].iter().position(|x| !x.is_finite()) {
            return Err(SocError::Dsp(DspError::NonFiniteSample { index }));
        }
        let analytic = self.config.mode == ExecutionMode::Analytic;
        self.check_path(analytic)?;
        let instruments = instruments();
        let _span = instruments.run_ns.start_timer();
        match self.config.mode {
            ExecutionMode::Lockstep => instruments.runs_lockstep.increment(),
            ExecutionMode::Analytic => instruments.runs_analytic.increment(),
        }
        let k = self.fft_len;
        if analytic {
            for block in 0..num_blocks {
                let slot = self.next_spectrum_slot();
                self.engine
                    .block_spectrum_into(signal, block * k, &mut self.spectra[slot])?;
                check_spectrum_bound(&self.spectra[slot], block)?;
            }
        } else {
            self.tiles_dirty = true;
            for (index, block) in signal.chunks_exact(k).take(num_blocks).enumerate() {
                self.run_block_lockstep(index, block)?;
            }
        }
        self.fill_run(num_blocks, out)?;
        record_gauges(&self.config, out.cycles_per_block(), self.fft_len);
        Ok(())
    }

    /// The spectra-fed analytic path: integrates one step per externally
    /// computed block spectrum (eq.-2 spectra of consecutive
    /// non-overlapping blocks, e.g. the cached spectra an `Observation`
    /// already computed for the software CFD replicas) and returns the same
    /// `SocRun` — DSCF, closed-form cycle breakdowns, transfer and source
    /// counters — the simulated run would have produced for the equivalent
    /// signal. Works whatever the configured mode; the mode only selects
    /// what [`TiledSoc::run`] does with raw samples.
    ///
    /// # Errors
    ///
    /// * [`SocError::Dsp`] if any block spectrum's length differs from the
    ///   FFT length (a longer buffer would be a different FFT size's
    ///   spectrum, not a harmless tail),
    /// * [`SocError::ExecutionFailure`] when switching execution paths
    ///   without a [`TiledSoc::reset`].
    pub fn run_from_spectra(&mut self, spectra: &[Vec<Cplx>]) -> Result<SocRun, SocError> {
        let mut out = self.empty_run();
        self.run_from_spectra_into(spectra, &mut out)?;
        Ok(out)
    }

    /// [`TiledSoc::run_from_spectra`] writing into a caller-owned
    /// [`SocRun`] (same reuse contract as [`TiledSoc::run_into`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`TiledSoc::run_from_spectra`].
    pub fn run_from_spectra_into(
        &mut self,
        spectra: &[Vec<Cplx>],
        out: &mut SocRun,
    ) -> Result<(), SocError> {
        self.check_path(true)?;
        let instruments = instruments();
        let _span = instruments.correlate_ns.start_timer();
        instruments.runs_spectra_fed.increment();
        for (n, block) in spectra.iter().enumerate() {
            if block.len() != self.fft_len {
                return Err(SocError::Dsp(DspError::InvalidParameter {
                    name: "spectra",
                    message: format!(
                        "block {n} has {} bins, expected exactly fft_len = {}",
                        block.len(),
                        self.fft_len
                    ),
                }));
            }
        }
        for block in spectra {
            let slot = self.next_spectrum_slot();
            self.spectra[slot].clone_from(block);
        }
        self.fill_run(spectra.len(), out)
    }

    /// Books `blocks` integration steps on the closed-form cost model
    /// alone and returns their critical-path cycles (what
    /// [`SocRun::max_tile_cycles`] of the equivalent run reports).
    ///
    /// This is the entry for a caller that already holds the DSCF those
    /// blocks produce — an `Observation`'s shared matrix at the platform's
    /// parameters, bit-identical to the analytic run's — and needs only the
    /// platform's cost. Nothing is accumulated, so neither the accumulation
    /// state nor the path check is involved. The instruments advance as for
    /// a spectra-fed run: `soc.runs.spectra_fed`, `soc.correlate_ns` and
    /// the critical-cycle and energy gauges.
    pub fn book_blocks(&self, blocks: usize) -> u64 {
        let instruments = instruments();
        let _span = instruments.correlate_ns.start_timer();
        instruments.runs_spectra_fed.increment();
        let per_block = self
            .steps
            .iter()
            .map(IntegrationStepCycles::total)
            .max()
            .unwrap_or(0);
        record_gauges(&self.config, per_block, self.fft_len);
        per_block * blocks as u64
    }

    /// An empty [`SocRun`] sized for this platform, for use with the
    /// `*_into` entry points.
    pub fn empty_run(&self) -> SocRun {
        SocRun {
            scf: ScfMatrix::zeros(self.max_offset),
            blocks: 0,
            per_tile_cycles: Vec::with_capacity(self.tiles.len()),
            inter_tile_transfers: 0,
            source_inputs: 0,
        }
    }

    /// Platform metrics (area, power, bandwidth) given the critical-path
    /// cycles of a previous run.
    pub fn metrics(&self, run: &SocRun) -> PlatformMetrics {
        PlatformMetrics::new(&self.config, run.cycles_per_block(), self.fft_len)
    }

    /// Clears the accumulation and counters of both execution paths. The
    /// Montium tiles (megabytes of memory at wideband scales) are cleared
    /// only if a simulated run touched them since the last reset.
    pub fn reset(&mut self) {
        if self.tiles_dirty {
            for tile in &mut self.tiles {
                tile.reset();
            }
            self.tiles_dirty = false;
        }
        self.blocks_simulated = 0;
        self.blocks_analytic = 0;
        self.inter_tile_transfers = 0;
        self.source_inputs = 0;
    }

    /// The two paths keep separate accumulators, so interleaving them
    /// between resets would normalise each over only a fraction of the
    /// blocks. Refuse instead of silently mis-averaging.
    fn check_path(&self, analytic: bool) -> Result<(), SocError> {
        let mixed = if analytic {
            self.blocks_simulated > 0
        } else {
            self.blocks_analytic > 0
        };
        if mixed {
            return Err(SocError::ExecutionFailure {
                message: "cannot mix the analytic and the simulated execution path in one \
                          accumulation; call reset() before switching"
                    .into(),
            });
        }
        Ok(())
    }

    /// Index of the next retained block spectrum of the analytic path,
    /// reusing a kept allocation when there is one.
    fn next_spectrum_slot(&mut self) -> usize {
        if self.spectra.len() == self.blocks_analytic {
            self.spectra.push(Vec::with_capacity(self.fft_len));
        }
        self.blocks_analytic += 1;
        self.blocks_analytic - 1
    }

    /// Assembles the [`SocRun`] of the path that accumulated since the last
    /// reset into `out`, reusing its allocations. The analytic counters
    /// are the closed forms: per block, each tile's
    /// [`analytic_step_cycles`]; each of the `Q − 1` internal boundaries
    /// carries one word per flow per frequency step except the last
    /// (`2·(Q−1)·(F−1)` transfers); and the FFT source feeds both array
    /// ends once per shift (`2·(F−1)` inputs) — the volumes the links and
    /// source taps of the simulation count.
    fn fill_run(&mut self, blocks: usize, out: &mut SocRun) -> Result<(), SocError> {
        out.blocks = blocks;
        out.per_tile_cycles.clear();
        if self.blocks_analytic > 0 {
            let n = self.blocks_analytic as u64;
            self.engine
                .dscf_from_spectra_into(&self.spectra[..self.blocks_analytic], &mut out.scf);
            out.per_tile_cycles
                .extend(
                    self.steps
                        .iter()
                        .enumerate()
                        .map(|(tile, step)| TileCycleBreakdown {
                            tile,
                            multiply_accumulate: n * step.multiply_accumulate,
                            read_data: n * step.read_data,
                            fft: n * step.fft,
                            reshuffling: n * step.reshuffling,
                            initialisation: n * step.initialisation,
                        }),
                );
            let shifts = 2 * self.max_offset as u64;
            let boundaries = self.tiles.len() as u64 - 1;
            out.inter_tile_transfers = n * 2 * boundaries * shifts;
            out.source_inputs = n * 2 * shifts;
        } else {
            self.gather_scf_into(&mut out.scf)?;
            out.per_tile_cycles
                .extend(self.tiles.iter().map(Tile::cycle_breakdown));
            out.inter_tile_transfers = self.inter_tile_transfers;
            out.source_inputs = self.source_inputs;
        }
        Ok(())
    }

    /// Simulates block `index` of a run; every tile computes the same
    /// block spectrum, so the overflow bound is checked on the first one.
    fn run_block_lockstep(&mut self, index: usize, samples: &[Cplx]) -> Result<(), SocError> {
        let q_count = self.tiles.len();
        let f_count = 2 * self.max_offset + 1;
        for tile in &mut self.tiles {
            tile.begin_block(samples)?;
        }
        check_spectrum_bound(self.tiles[0].spectrum(), index)?;
        // One FIFO per internal boundary and flow; they carry exactly one
        // word per frequency step.
        let boundaries = q_count - 1;
        let mut conj_links: Vec<QueueLink> = (0..boundaries).map(|_| QueueLink::new()).collect();
        let mut direct_links: Vec<QueueLink> = (0..boundaries).map(|_| QueueLink::new()).collect();

        for step in 0..f_count {
            for tile in &mut self.tiles {
                tile.mac_step(step)?;
            }
            if step + 1 == f_count {
                break;
            }
            // Produce boundary values onto the links.
            for q in 0..q_count {
                let (conj_out, direct_out) = self.tiles[q].edge_outputs()?;
                if q + 1 < q_count {
                    conj_links[q].send(StreamWord {
                        value: conj_out,
                        conjugate_flow: true,
                    });
                }
                if q > 0 {
                    direct_links[q - 1].send(StreamWord {
                        value: direct_out,
                        conjugate_flow: false,
                    });
                }
            }
            // Consume and shift.
            for q in 0..q_count {
                let incoming_conj = if q == 0 {
                    self.source_inputs += 1;
                    self.tiles[q].source_conjugate(step + 1)
                } else {
                    conj_links[q - 1]
                        .receive()
                        .expect("conjugate link underflow")
                        .value
                };
                let incoming_direct = if q + 1 == q_count {
                    self.source_inputs += 1;
                    self.tiles[q].source_direct(step + 1)
                } else {
                    direct_links[q]
                        .receive()
                        .expect("direct link underflow")
                        .value
                };
                self.tiles[q].shift_in(incoming_conj, incoming_direct)?;
            }
        }
        for link in conj_links.iter().chain(direct_links.iter()) {
            self.inter_tile_transfers += link.transfers();
        }
        for tile in &mut self.tiles {
            tile.finish_block()?;
        }
        self.blocks_simulated += 1;
        Ok(())
    }

    /// Gathers the simulated DSCF into `matrix` (resized only if its grid
    /// differs), reading each tile's slice through its reusable flat gather
    /// buffer — no per-task or per-row allocation. The matrix is cleared
    /// first: an errored tile readback must not leave stale values behind.
    ///
    /// Tile `q` holds the columns (offsets `a`) of its task slice for every
    /// row (frequency `f`); a task's row of `F` values lands strided at
    /// `values[s·P + first_task + j]`.
    fn gather_scf_into(&mut self, matrix: &mut ScfMatrix) -> Result<(), SocError> {
        let p = 2 * self.max_offset + 1;
        if matrix.max_offset() != self.max_offset {
            *matrix = ScfMatrix::zeros(self.max_offset);
        } else {
            matrix.as_mut_slice().fill(Cplx::ZERO);
        }
        let values = matrix.as_mut_slice();
        for tile in &mut self.tiles {
            let first_task = tile.task_set().first_task;
            // The cores normalise at readback, so the values land as-is.
            let flat = tile.results_flat()?;
            for (j, row) in flat.chunks_exact(p).enumerate() {
                let col = first_task + j;
                for (s, &value) in row.iter().enumerate() {
                    values[s * p + col] = value;
                }
            }
        }
        Ok(())
    }
}

/// Sets the last-run critical-cycle and energy gauges.
fn record_gauges(config: &SocConfig, cycles_per_block: u64, fft_len: usize) {
    let instruments = instruments();
    instruments.critical_cycles.set(cycles_per_block as f64);
    instruments
        .energy_per_block_uj
        .set(PlatformMetrics::new(config, cycles_per_block, fft_len).energy_per_block_uj());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::scf::dscf_reference;
    use cfd_dsp::signal::{awgn, modulated_signal, ModulatedSignalSpec};

    fn small_soc(mode: ExecutionMode, tiles: usize) -> TiledSoc {
        let config = SocConfig::paper().with_tiles(tiles).with_mode(mode);
        TiledSoc::new(config, 7, 32).unwrap()
    }

    fn test_signal(blocks: usize) -> (Vec<Cplx>, ScfParams) {
        let params = ScfParams::new(32, 7, blocks).unwrap();
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let signal = modulated_signal(params.samples_needed(), &spec, 17).unwrap();
        (signal, params)
    }

    #[test]
    fn construction_and_accessors() {
        let soc = small_soc(ExecutionMode::Lockstep, 4);
        assert_eq!(soc.num_tiles(), 4);
        assert_eq!(soc.max_offset(), 7);
        assert_eq!(soc.fft_len(), 32);
        assert_eq!(soc.folding().tasks_per_core, 4);
        assert!(TiledSoc::new(SocConfig::paper().with_tiles(0), 7, 32).is_err());
    }

    #[test]
    fn lockstep_run_matches_reference_dscf() {
        let (signal, params) = test_signal(3);
        let reference = dscf_reference(&signal, &params).unwrap();
        let mut soc = small_soc(ExecutionMode::Lockstep, 4);
        let run = soc.run(&signal, 3).unwrap();
        assert!(
            run.scf.max_abs_difference(&reference) < 1e-9,
            "difference {}",
            run.scf.max_abs_difference(&reference)
        );
        assert_eq!(run.blocks, 3);
        assert_eq!(run.per_tile_cycles.len(), 4);
        assert!(run.inter_tile_transfers > 0);
    }

    #[test]
    fn threaded_run_matches_lockstep_exactly() {
        // Sweep cells run whole lockstep SoCs on worker threads; concurrent
        // runs must not disturb one another (the telemetry instruments are
        // process-wide) and must equal a run on the calling thread.
        let (signal, _) = test_signal(2);
        let mut lockstep = small_soc(ExecutionMode::Lockstep, 4);
        let run_a = lockstep.run(&signal, 2).unwrap();
        let runs: Vec<SocRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut soc = small_soc(ExecutionMode::Lockstep, 4);
                        soc.run(&signal, 2).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for run_b in &runs {
            assert_eq!(run_a.scf.max_abs_difference(&run_b.scf), 0.0);
            assert_eq!(run_a.inter_tile_transfers, run_b.inter_tile_transfers);
            assert_eq!(run_a.source_inputs, run_b.source_inputs);
            assert_eq!(run_a.per_tile_cycles, run_b.per_tile_cycles);
        }
    }

    #[test]
    fn different_tile_counts_give_identical_results() {
        let (signal, params) = test_signal(2);
        let reference = dscf_reference(&signal, &params).unwrap();
        for tiles in [1usize, 2, 3, 4, 5] {
            let mut soc = small_soc(ExecutionMode::Lockstep, tiles);
            let run = soc.run(&signal, 2).unwrap();
            assert!(
                run.scf.max_abs_difference(&reference) < 1e-9,
                "tiles = {tiles}"
            );
        }
    }

    #[test]
    fn communication_volume_matches_the_t_times_lower_rate_claim() {
        let (signal, _) = test_signal(1);
        let mut soc = small_soc(ExecutionMode::Lockstep, 4);
        let run = soc.run(&signal, 1).unwrap();
        let f_count = 15u64;
        // Two flows on each of the 3 internal boundaries, one word per
        // frequency step except the last.
        assert_eq!(run.inter_tile_transfers, 2 * 3 * (f_count - 1));
        // Per tile and per flow, transfers are F-1 while MACs are T*F: the
        // ratio is ~T.
        let macs = run.per_tile_cycles[0].multiply_accumulate / 3; // 3 cycles per MAC
        let transfers_per_flow = f_count - 1;
        let ratio = macs as f64 / transfers_per_flow as f64;
        let t = soc.folding().tasks_per_core as f64;
        assert!((ratio - t * f_count as f64 / (f_count - 1) as f64).abs() < 0.5);
    }

    #[test]
    fn paper_platform_cycle_budget_and_metrics() {
        let mut soc = TiledSoc::paper().unwrap();
        let signal = awgn(256, 1.0, 4);
        let run = soc.run(&signal, 1).unwrap();
        // The critical tile reproduces Table 1 exactly.
        assert_eq!(run.max_tile_cycles(), 13_996);
        assert_eq!(run.cycles_per_block(), 13_996);
        let metrics = soc.metrics(&run);
        assert!((metrics.time_per_block_us - 139.96).abs() < 1e-9);
        assert!((metrics.area_mm2 - 8.0).abs() < 1e-12);
        assert!((metrics.power_mw - 200.0).abs() < 1e-9);
        assert!((metrics.analysed_bandwidth_khz - 915.0).abs() < 1.0);
    }

    #[test]
    fn analytic_run_is_bit_identical_to_lockstep() {
        let (signal, _) = test_signal(3);
        let mut lockstep = small_soc(ExecutionMode::Lockstep, 4);
        let mut analytic = small_soc(ExecutionMode::Analytic, 4);
        let run_a = lockstep.run(&signal, 3).unwrap();
        let run_b = analytic.run(&signal, 3).unwrap();
        assert_eq!(run_a.scf.max_abs_difference(&run_b.scf), 0.0);
        assert_eq!(run_a.per_tile_cycles, run_b.per_tile_cycles);
        assert_eq!(run_a.inter_tile_transfers, run_b.inter_tile_transfers);
        assert_eq!(run_a.source_inputs, run_b.source_inputs);
        assert_eq!(run_a.blocks, run_b.blocks);
    }

    #[test]
    fn run_from_spectra_matches_the_analytic_run() {
        use cfd_dsp::scf::ScfEngine;
        let (signal, params) = test_signal(3);
        let engine = ScfEngine::new(params).unwrap();
        let spectra = engine.compute_spectra(&signal).unwrap();
        let mut from_samples = small_soc(ExecutionMode::Analytic, 4);
        let mut from_spectra = small_soc(ExecutionMode::Lockstep, 4);
        let run_a = from_samples.run(&signal, 3).unwrap();
        // `run_from_spectra` works whatever the configured mode — the mode
        // only selects what `run` does with raw samples.
        let run_b = from_spectra.run_from_spectra(&spectra).unwrap();
        assert_eq!(run_a.scf.max_abs_difference(&run_b.scf), 0.0);
        assert_eq!(run_a.per_tile_cycles, run_b.per_tile_cycles);
        assert_eq!(run_a.inter_tile_transfers, run_b.inter_tile_transfers);
        assert_eq!(run_a.source_inputs, run_b.source_inputs);
        // Wrong-length blocks are rejected, not panicked on or truncated:
        // a longer buffer would be a different FFT size's spectrum.
        from_spectra.reset();
        for wrong in [8usize, 64] {
            let blocks = vec![vec![Cplx::ZERO; wrong]];
            assert!(
                matches!(
                    from_spectra.run_from_spectra(&blocks),
                    Err(SocError::Dsp(_))
                ),
                "block length {wrong} must be rejected"
            );
        }
    }

    #[test]
    fn analytic_mode_refuses_a_q15_platform() {
        // The 16-bit accumulator quantisation exists only in the
        // cycle-accurate datapath; Analytic + Q15 would silently diverge.
        let q15 = montium_sim::MontiumConfig::paper().with_q15();
        let analytic = SocConfig::paper()
            .with_tile_config(q15.clone())
            .with_mode(ExecutionMode::Analytic);
        assert!(matches!(
            TiledSoc::new(analytic, 7, 32),
            Err(SocError::InvalidConfiguration { .. })
        ));
        // The lockstep mode keeps accepting Q15.
        let lockstep = SocConfig::paper().with_tile_config(q15);
        assert!(TiledSoc::new(lockstep, 7, 32).is_ok());
    }

    #[test]
    fn analytic_paper_platform_reproduces_table1() {
        let config = SocConfig::paper().with_mode(ExecutionMode::Analytic);
        let mut soc = TiledSoc::new(config, 63, 256).unwrap();
        let signal = awgn(256, 1.0, 4);
        let run = soc.run(&signal, 1).unwrap();
        assert_eq!(run.max_tile_cycles(), 13_996);
        let metrics = soc.metrics(&run);
        assert!((metrics.time_per_block_us - 139.96).abs() < 1e-9);
    }

    #[test]
    fn switching_paths_without_reset_is_refused() {
        let (signal, params) = test_signal(2);
        let mut soc = small_soc(ExecutionMode::Lockstep, 2);
        soc.run(&signal, 1).unwrap();
        let engine = cfd_dsp::scf::ScfEngine::new(params).unwrap();
        let spectra = engine.compute_spectra(&signal).unwrap();
        assert!(matches!(
            soc.run_from_spectra(&spectra),
            Err(SocError::ExecutionFailure { .. })
        ));
        // After a reset the analytic path is available again — and then the
        // simulated path is the refused one.
        soc.reset();
        soc.run_from_spectra(&spectra).unwrap();
        assert!(matches!(
            soc.run(&signal, 1),
            Err(SocError::ExecutionFailure { .. })
        ));
    }

    #[test]
    fn run_into_reuses_the_caller_buffers() {
        let (signal, _) = test_signal(2);
        let mut soc = small_soc(ExecutionMode::Analytic, 3);
        let mut scratch = soc.empty_run();
        soc.run_into(&signal, 2, &mut scratch).unwrap();
        let first = scratch.clone();
        soc.reset();
        soc.run_into(&signal, 2, &mut scratch).unwrap();
        assert_eq!(first, scratch);
        assert_eq!(scratch.per_tile_cycles.len(), 3);
    }

    #[test]
    fn run_rejects_short_signals() {
        let mut soc = small_soc(ExecutionMode::Lockstep, 2);
        let signal = awgn(40, 1.0, 1);
        assert!(matches!(soc.run(&signal, 2), Err(SocError::Dsp(_))));
    }

    #[test]
    fn reset_clears_accumulation() {
        let (signal, _) = test_signal(1);
        let mut soc = small_soc(ExecutionMode::Lockstep, 2);
        let first = soc.run(&signal, 1).unwrap();
        soc.reset();
        let second = soc.run(&signal, 1).unwrap();
        assert!(first.scf.max_abs_difference(&second.scf) < 1e-12);
        assert_eq!(first.inter_tile_transfers, second.inter_tile_transfers);
    }

    /// Equal DSCF values and equal counters.
    fn assert_same_run(got: &SocRun, want: &SocRun) {
        assert_eq!(got.scf.as_slice(), want.scf.as_slice());
        assert_eq!(got.per_tile_cycles, want.per_tile_cycles);
        assert_eq!(got.inter_tile_transfers, want.inter_tile_transfers);
        assert_eq!(got.source_inputs, want.source_inputs);
        assert_eq!(got.blocks, want.blocks);
    }

    #[test]
    fn lazy_reset_restores_a_fresh_platform() {
        let (signal, _) = test_signal(2);
        let other = awgn(signal.len(), 2.0, 99);
        let bits = |run: &SocRun| -> Vec<(u64, u64)> {
            let values = run.scf.as_slice().iter();
            values.map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let fresh = small_soc(ExecutionMode::Lockstep, 4).run(&signal, 2);
        let fresh = fresh.unwrap();
        let assert_fresh = |soc: &mut TiledSoc| {
            let run = soc.run(&signal, 2).unwrap();
            assert_same_run(&run, &fresh);
            assert_eq!(bits(&run), bits(&fresh));
        };
        // Lockstep run -> reset -> lockstep run.
        let mut soc = small_soc(ExecutionMode::Lockstep, 4);
        soc.run(&other, 2).unwrap();
        soc.reset();
        assert_fresh(&mut soc);
        // A run that fails (short signal) after tiles accumulated -> reset
        // -> lockstep run.
        let mut soc = small_soc(ExecutionMode::Lockstep, 4);
        soc.run(&other, 1).unwrap();
        assert!(matches!(
            soc.run(&signal[..40], 2),
            Err(SocError::Dsp(DspError::InsufficientSamples { .. }))
        ));
        soc.reset();
        assert_fresh(&mut soc);
        // Repeated resets with no simulated run in between stay fresh too.
        soc.reset();
        soc.reset();
        assert_fresh(&mut soc);
    }

    #[test]
    fn analytic_runs_accumulate_like_the_simulation() {
        // Without a reset both paths keep integrating: the second run
        // reports the DSCF and counters of all three blocks. (Values are
        // equal; the engine's mirrored `a < 0` half may carry `-0.0` where
        // the simulation writes `+0.0`.)
        let (signal, _) = test_signal(2);
        let mut lockstep = small_soc(ExecutionMode::Lockstep, 3);
        let mut analytic = small_soc(ExecutionMode::Analytic, 3);
        for blocks in [2, 1] {
            let golden = lockstep.run(&signal, blocks).unwrap();
            assert_same_run(&analytic.run(&signal, blocks).unwrap(), &golden);
        }
    }

    #[test]
    fn booked_blocks_cost_what_the_simulation_counts() {
        let (signal, _) = test_signal(3);
        for tiles in [1usize, 3, 4, 16] {
            let golden = small_soc(ExecutionMode::Lockstep, tiles)
                .run(&signal, 3)
                .unwrap();
            let soc = small_soc(ExecutionMode::Analytic, tiles);
            assert_eq!(soc.book_blocks(3), golden.max_tile_cycles(), "{tiles}");
        }
    }

    #[test]
    fn runs_and_resets_never_reconfigure() {
        let (signal, _) = test_signal(1);
        let mut soc = small_soc(ExecutionMode::Lockstep, 2);
        assert_eq!(soc.configurations(), 1);
        for _ in 0..5 {
            soc.reset();
            soc.run(&signal, 1).unwrap();
        }
        assert_eq!(soc.configurations(), 1);
    }
}
