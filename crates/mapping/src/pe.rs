//! Processing-element models after each mapping stage (Figs. 3 and 4).
//!
//! * After the `n`-fold (`P1`/`s1`) each `(f, a)` point becomes a processing
//!   element containing a complex multiplier and an integrator
//!   (adder + register) — [`RegisterPe`], Fig. 3.
//! * After the additional `f`-fold (`P2`/`s2`) one processing element serves
//!   *all* frequencies of its offset `a`, so the single register becomes a
//!   memory of `F` accumulators addressed by the frequency (= time) —
//!   [`MemoryPe`], Fig. 4.
//!
//! Both are functional models: feeding them the operand streams produced by
//! the block spectra reproduces the DSCF values, which the tests verify
//! against the golden model of `cfd-dsp`.

use cfd_dsp::complex::Cplx;

/// The Fig. 3 processing element: complex multiplier plus integrator
/// (adder + register) for one `(f, a)` point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegisterPe {
    accumulator: Cplx,
    steps: usize,
}

impl RegisterPe {
    /// Creates a cleared processing element.
    pub fn new() -> Self {
        RegisterPe::default()
    }

    /// Executes one integration step: accumulate
    /// `direct · conj(conjugated)`.
    ///
    /// `direct` is `X_{n, f+a}`; `conjugated` is `X_{n, f-a}` (the PE applies
    /// the conjugation itself, mirroring the "flow of the complex conjugate"
    /// in Fig. 1).
    pub fn step(&mut self, direct: Cplx, conjugated: Cplx) {
        self.accumulator += direct * conjugated.conj();
        self.steps += 1;
    }

    /// Number of integration steps executed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The raw accumulated sum (without the `1/N` normalisation).
    pub fn accumulated(&self) -> Cplx {
        self.accumulator
    }

    /// The normalised result `S_f^a = accumulator / N`.
    ///
    /// Returns zero if no steps have been executed.
    pub fn result(&self) -> Cplx {
        if self.steps == 0 {
            Cplx::ZERO
        } else {
            self.accumulator / self.steps as f64
        }
    }

    /// Clears the accumulator and the step count.
    pub fn reset(&mut self) {
        *self = RegisterPe::default();
    }
}

/// The Fig. 4 processing element: one multiplier/adder shared by all
/// frequencies of a single offset `a`, with a memory of `F` accumulators
/// selected by the frequency index (which equals the time step after the
/// `P2`/`s2` mapping).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPe {
    memory: Vec<Cplx>,
    steps_per_slot: Vec<usize>,
}

impl MemoryPe {
    /// Creates a processing element with `num_frequencies` accumulator slots.
    pub fn new(num_frequencies: usize) -> Self {
        MemoryPe {
            memory: vec![Cplx::ZERO; num_frequencies],
            steps_per_slot: vec![0; num_frequencies],
        }
    }

    /// Number of accumulator slots (frequencies) this PE serves.
    pub fn num_frequencies(&self) -> usize {
        self.memory.len()
    }

    /// Executes the multiply–accumulate for frequency slot `slot`
    /// (`slot = f + M`, i.e. the time step within the plane).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn step(&mut self, slot: usize, direct: Cplx, conjugated: Cplx) {
        assert!(
            slot < self.memory.len(),
            "frequency slot {slot} out of range (F = {})",
            self.memory.len()
        );
        self.memory[slot] += direct * conjugated.conj();
        self.steps_per_slot[slot] += 1;
    }

    /// The raw accumulated sum for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn accumulated(&self, slot: usize) -> Cplx {
        self.memory[slot]
    }

    /// The normalised result for `slot` (zero if that slot never stepped).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn result(&self, slot: usize) -> Cplx {
        if self.steps_per_slot[slot] == 0 {
            Cplx::ZERO
        } else {
            self.memory[slot] / self.steps_per_slot[slot] as f64
        }
    }

    /// Number of complex values this PE must store — the per-PE share of the
    /// `T·F` memory requirement derived in Section 3.3/4.1 (here `T = 1`
    /// since the PE serves a single offset).
    pub fn storage_complex_words(&self) -> usize {
        self.memory.len()
    }

    /// Clears all accumulators.
    pub fn reset(&mut self) {
        for v in &mut self.memory {
            *v = Cplx::ZERO;
        }
        for s in &mut self.steps_per_slot {
            *s = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_dsp::prelude::*;
    use cfd_dsp::scf::{block_spectra, centred_bin, dscf_reference};
    use cfd_dsp::signal::modulated_signal;

    #[test]
    fn register_pe_accumulates_and_normalises() {
        let mut pe = RegisterPe::new();
        assert_eq!(pe.result(), Cplx::ZERO);
        pe.step(Cplx::new(1.0, 1.0), Cplx::new(1.0, -1.0));
        pe.step(Cplx::new(2.0, 0.0), Cplx::new(0.0, 1.0));
        assert_eq!(pe.steps(), 2);
        let expected = (Cplx::new(1.0, 1.0) * Cplx::new(1.0, 1.0)
            + Cplx::new(2.0, 0.0) * Cplx::new(0.0, -1.0))
            / 2.0;
        assert!((pe.result() - expected).abs() < 1e-12);
        pe.reset();
        assert_eq!(pe.steps(), 0);
        assert_eq!(pe.accumulated(), Cplx::ZERO);
    }

    #[test]
    fn memory_pe_keeps_slots_independent() {
        let mut pe = MemoryPe::new(4);
        pe.step(0, Cplx::ONE, Cplx::ONE);
        pe.step(2, Cplx::new(0.0, 1.0), Cplx::new(0.0, 1.0));
        assert_eq!(pe.result(0), Cplx::ONE);
        assert_eq!(pe.result(1), Cplx::ZERO);
        assert!((pe.result(2) - Cplx::ONE).abs() < 1e-12);
        assert_eq!(pe.num_frequencies(), 4);
        assert_eq!(pe.storage_complex_words(), 4);
        pe.reset();
        assert_eq!(pe.accumulated(2), Cplx::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn memory_pe_rejects_bad_slot() {
        let mut pe = MemoryPe::new(2);
        pe.step(2, Cplx::ONE, Cplx::ONE);
    }

    /// An array of Fig.-3/Fig.-4 PEs fed directly from the block spectra must
    /// reproduce the reference DSCF exactly (same arithmetic, different
    /// organisation).
    #[test]
    fn pe_array_reproduces_reference_dscf() {
        let params = ScfParams::new(32, 5, 6).unwrap();
        let spec = cfd_dsp::signal::ModulatedSignalSpec {
            samples_per_symbol: 4,
            ..Default::default()
        };
        let signal = modulated_signal(params.samples_needed(), &spec, 99).unwrap();
        let reference = dscf_reference(&signal, &params).unwrap();
        let spectra = block_spectra(&signal, &params).unwrap();

        let m = params.max_offset as i32;
        let f_count = params.grid_size();

        // Fig. 4 organisation: one MemoryPe per offset a.
        let mut pes: Vec<MemoryPe> = (0..params.grid_size())
            .map(|_| MemoryPe::new(f_count))
            .collect();
        for spectrum in &spectra {
            for a in -m..=m {
                for f in -m..=m {
                    let direct = spectrum[centred_bin(f + a, params.fft_len)];
                    let conjugated = spectrum[centred_bin(f - a, params.fft_len)];
                    pes[(a + m) as usize].step((f + m) as usize, direct, conjugated);
                }
            }
        }
        for a in -m..=m {
            for f in -m..=m {
                let got = pes[(a + m) as usize].result((f + m) as usize);
                let want = reference.at(f, a);
                assert!(
                    (got - want).abs() < 1e-9,
                    "mismatch at f={f}, a={a}: {got} vs {want}"
                );
            }
        }
    }
}
