//! The register-based systolic array of Section 3.3 (Figs. 6 and 7).
//!
//! After the two-stage mapping, the DSCF is computed by a linear array of
//! `P = 2M+1` processing elements (one per offset `a`), time-multiplexing
//! the frequencies `f` (one per clock). The operand values travel through
//! two register chains:
//!
//! * the conjugated values enter at the `a = -M` end and move one processor
//!   per clock towards `a = +M`;
//! * the direct values enter at the `a = +M` end and move towards `a = -M`.
//!
//! [`SystolicArray::run`] is a cycle-by-cycle functional simulation of this
//! architecture; its result is bit-identical (up to floating-point rounding)
//! to the reference DSCF of `cfd-dsp`, which the tests verify. The
//! structural summaries ([`SystolicArray::architecture`]) reproduce the
//! register counts of Figs. 6 and 7.

use crate::pe::MemoryPe;
use cfd_dsp::complex::Cplx;
use cfd_dsp::scf::{centred_bin, ScfMatrix};

/// Structural summary of the systolic array — the content of Figs. 6/7 in
/// numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicArchitecture {
    /// Array half-width `M`.
    pub max_offset: usize,
    /// Number of processing elements `P = 2M+1` (complex multiplier +
    /// integrator each).
    pub num_processors: usize,
    /// Registers in the conjugate-flow chain (Fig. 6): one per processor
    /// boundary, `2M` in total.
    pub conjugate_registers: usize,
    /// Registers in the direct-flow chain: also `2M`.
    pub direct_registers: usize,
    /// Complex accumulator words per processing element (`F`, one per
    /// frequency).
    pub accumulators_per_pe: usize,
}

impl SystolicArchitecture {
    /// Total register count of the combined architecture (Fig. 7).
    pub fn total_registers(&self) -> usize {
        self.conjugate_registers + self.direct_registers
    }

    /// Total complex accumulator words over the whole array.
    pub fn total_accumulators(&self) -> usize {
        self.num_processors * self.accumulators_per_pe
    }

    /// Renders a compact textual description of the Fig. 7 architecture.
    pub fn render(&self) -> String {
        format!(
            "systolic array: {} PEs (a = -{}..{}), {} + {} chain registers, {} complex accumulators/PE ({} total)",
            self.num_processors,
            self.max_offset,
            self.max_offset,
            self.conjugate_registers,
            self.direct_registers,
            self.accumulators_per_pe,
            self.total_accumulators(),
        )
    }
}

/// Statistics of one functional run of the systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SystolicRunStats {
    /// Complex multiply–accumulate operations executed.
    pub mac_operations: usize,
    /// Register-to-register transfers on the two chains.
    pub register_transfers: usize,
    /// Values injected into the array from outside (the FFT source).
    pub external_inputs: usize,
    /// Number of integration planes (blocks) processed.
    pub blocks: usize,
    /// Clock cycles per block (equal to the number of frequencies `F`).
    pub cycles_per_block: usize,
}

/// The systolic array computing the full `(2M+1) × (2M+1)` DSCF.
#[derive(Debug, Clone)]
pub struct SystolicArray {
    max_offset: usize,
    fft_len: usize,
    pes: Vec<MemoryPe>,
}

impl SystolicArray {
    /// Creates an array for a DSCF grid of half-width `max_offset` over
    /// spectra of `fft_len` points.
    ///
    /// # Panics
    ///
    /// Panics if `2·max_offset >= fft_len` (same constraint as
    /// [`cfd_dsp::scf::ScfParams`]).
    pub fn new(max_offset: usize, fft_len: usize) -> Self {
        assert!(
            2 * max_offset < fft_len,
            "2*max_offset ({}) must be smaller than fft_len ({fft_len})",
            2 * max_offset
        );
        let p = 2 * max_offset + 1;
        SystolicArray {
            max_offset,
            fft_len,
            pes: (0..p).map(|_| MemoryPe::new(p)).collect(),
        }
    }

    /// The array half-width `M`.
    pub fn max_offset(&self) -> usize {
        self.max_offset
    }

    /// The number of processing elements `P`.
    pub fn num_processors(&self) -> usize {
        self.pes.len()
    }

    /// The structural summary (Figs. 6/7).
    pub fn architecture(&self) -> SystolicArchitecture {
        SystolicArchitecture {
            max_offset: self.max_offset,
            num_processors: self.num_processors(),
            conjugate_registers: 2 * self.max_offset,
            direct_registers: 2 * self.max_offset,
            accumulators_per_pe: self.num_processors(),
        }
    }

    /// Runs the array over the given block spectra and returns the DSCF
    /// matrix plus run statistics.
    ///
    /// Each spectrum must contain at least `fft_len` bins. The register
    /// chains are preloaded at the start of each block (the
    /// "initialisation" the paper budgets 127 cycles for) and then advance
    /// one position per clock.
    ///
    /// # Panics
    ///
    /// Panics if a spectrum is shorter than `fft_len`.
    pub fn run(&mut self, spectra: &[Vec<Cplx>]) -> (ScfMatrix, SystolicRunStats) {
        let m = self.max_offset as i32;
        let p = self.num_processors();
        let k = self.fft_len;
        let mut stats = SystolicRunStats {
            blocks: spectra.len(),
            cycles_per_block: p,
            ..Default::default()
        };

        for spectrum in spectra {
            assert!(
                spectrum.len() >= k,
                "spectrum has {} bins, expected at least {k}",
                spectrum.len()
            );
            // Preload the chains for the first frequency f = -M:
            //   conjugate chain position i (PE a = i - M) holds X_{n, f - a} = X_{n, -i}
            //   direct    chain position i             holds X_{n, f + a} = X_{n, i - 2M}
            let mut conj_chain: Vec<Cplx> = (0..p)
                .map(|i| spectrum[centred_bin(-(i as i32), k)])
                .collect();
            let mut direct_chain: Vec<Cplx> = (0..p)
                .map(|i| spectrum[centred_bin(i as i32 - 2 * m, k)])
                .collect();
            stats.external_inputs += 2 * p;

            for t in 0..p {
                let f = t as i32 - m;
                // Every PE fires in parallel in this clock cycle.
                for (i, pe) in self.pes.iter_mut().enumerate() {
                    pe.step(t, direct_chain[i], conj_chain[i]);
                }
                stats.mac_operations += p;

                if t + 1 < p {
                    // Advance the chains for the next frequency.
                    // Conjugate flow: towards higher a.
                    for i in (1..p).rev() {
                        conj_chain[i] = conj_chain[i - 1];
                    }
                    conj_chain[0] = spectrum[centred_bin(f + 1 + m, k)];
                    // Direct flow: towards lower a.
                    for i in 0..p - 1 {
                        direct_chain[i] = direct_chain[i + 1];
                    }
                    direct_chain[p - 1] = spectrum[centred_bin(f + 1 + m, k)];
                    stats.register_transfers += 2 * (p - 1);
                    stats.external_inputs += 2;
                }
            }
        }

        let mut matrix = ScfMatrix::zeros(self.max_offset);
        for a in -m..=m {
            let pe = &self.pes[(a + m) as usize];
            for f in -m..=m {
                matrix.set(f, a, pe.result((f + m) as usize));
            }
        }
        (matrix, stats)
    }

    /// Clears all accumulators so the array can be reused for a new
    /// measurement.
    pub fn reset(&mut self) {
        for pe in &mut self.pes {
            pe.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::prelude::*;
    use cfd_dsp::scf::{block_spectra, dscf_reference};
    use cfd_dsp::signal::{awgn, modulated_signal, ModulatedSignalSpec};

    fn run_and_compare(params: &ScfParams, signal: &[Cplx]) -> (f64, SystolicRunStats) {
        let reference = dscf_reference(signal, params).unwrap();
        let spectra = block_spectra(signal, params).unwrap();
        let mut array = SystolicArray::new(params.max_offset, params.fft_len);
        let (result, stats) = array.run(&spectra);
        (result.max_abs_difference(&reference), stats)
    }

    #[test]
    fn architecture_summary_matches_fig6_and_fig7() {
        let array = SystolicArray::new(3, 16);
        let arch = array.architecture();
        assert_eq!(arch.num_processors, 7);
        assert_eq!(arch.conjugate_registers, 6);
        assert_eq!(arch.direct_registers, 6);
        assert_eq!(arch.total_registers(), 12);
        assert_eq!(arch.accumulators_per_pe, 7);
        assert_eq!(arch.total_accumulators(), 49);
        assert!(arch.render().contains("7 PEs"));
    }

    #[test]
    fn paper_sized_array_has_127_processors() {
        let array = SystolicArray::new(63, 256);
        assert_eq!(array.num_processors(), 127);
        assert_eq!(array.architecture().conjugate_registers, 126);
    }

    #[test]
    #[should_panic(expected = "max_offset")]
    fn oversized_grid_is_rejected() {
        let _ = SystolicArray::new(8, 16);
    }

    #[test]
    fn systolic_array_reproduces_reference_dscf_for_modulated_signal() {
        let params = ScfParams::new(32, 7, 5).unwrap();
        let spec = ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let signal = modulated_signal(params.samples_needed(), &spec, 31).unwrap();
        let (diff, stats) = run_and_compare(&params, &signal);
        assert!(diff < 1e-9, "max difference {diff}");
        assert_eq!(stats.blocks, 5);
        assert_eq!(stats.cycles_per_block, 15);
        assert_eq!(stats.mac_operations, 5 * 15 * 15);
    }

    #[test]
    fn systolic_array_reproduces_reference_dscf_for_noise() {
        let params = ScfParams::new(64, 15, 3).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 77);
        let (diff, _) = run_and_compare(&params, &signal);
        assert!(diff < 1e-9, "max difference {diff}");
    }

    #[test]
    fn systolic_array_reproduces_reference_dscf_for_tone() {
        let params = ScfParams::new(32, 5, 4).unwrap();
        let signal = cfd_dsp::signal::complex_tone(params.samples_needed(), 3.0, 32.0, 0.7);
        let (diff, _) = run_and_compare(&params, &signal);
        assert!(diff < 1e-9, "max difference {diff}");
    }

    #[test]
    fn register_transfer_and_input_counts_are_consistent() {
        let params = ScfParams::new(32, 3, 2).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 5);
        let spectra = block_spectra(&signal, &params).unwrap();
        let mut array = SystolicArray::new(params.max_offset, params.fft_len);
        let (_, stats) = array.run(&spectra);
        let p = 7usize;
        let blocks = 2usize;
        // Per block: preload 2P values, then (P-1) shifts of 2(P-1) transfers
        // and 2 new inputs each.
        assert_eq!(stats.external_inputs, blocks * (2 * p + 2 * (p - 1)));
        assert_eq!(stats.register_transfers, blocks * 2 * (p - 1) * (p - 1));
        assert_eq!(stats.mac_operations, blocks * p * p);
    }

    #[test]
    fn reset_clears_accumulators() {
        let params = ScfParams::new(32, 3, 1).unwrap();
        let signal = awgn(params.samples_needed(), 1.0, 9);
        let spectra = block_spectra(&signal, &params).unwrap();
        let mut array = SystolicArray::new(params.max_offset, params.fft_len);
        let (first, _) = array.run(&spectra);
        array.reset();
        let (second, _) = array.run(&spectra);
        assert!(first.max_abs_difference(&second) < 1e-12);
    }
}
