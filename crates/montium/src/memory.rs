//! The Montium memory banks M01..M10 and their address-generation units.
//!
//! A Montium tile has ten separate memories that can be addressed in
//! parallel, each with its own Address Generation Unit (AGU). In the CFD
//! mapping, M01–M08 hold the `T·F` complex accumulation values and M09/M10
//! hold the two communication shift registers (Fig. 11).
//!
//! The simulator stores *complex values* (each occupying two 16-bit words of
//! the physical memory) and accounts capacity in words so the Section 4.1
//! sizing argument can be checked directly.

use crate::config::MontiumConfig;
use crate::error::MontiumError;
use cfd_dsp::complex::Cplx;

/// One of the ten memories of a Montium tile.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryBank {
    id: usize,
    capacity_words: usize,
    quantize_q15: bool,
    entries: Vec<Cplx>,
    reads: u64,
    writes: u64,
}

impl MemoryBank {
    /// Creates memory `M<id>` with the given capacity in 16-bit words.
    ///
    /// Each stored complex value occupies two words, so the bank holds
    /// `capacity_words / 2` complex entries.
    pub fn new(id: usize, capacity_words: usize, quantize_q15: bool) -> Self {
        MemoryBank {
            id,
            capacity_words,
            quantize_q15,
            entries: vec![Cplx::ZERO; capacity_words / 2],
            reads: 0,
            writes: 0,
        }
    }

    /// The bank identifier (1-based: 1 = M01).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Capacity in 16-bit words.
    pub fn capacity_words(&self) -> usize {
        self.capacity_words
    }

    /// Capacity in complex entries.
    pub fn capacity_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of read accesses so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write accesses so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Reads the complex entry at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`MontiumError::AddressOutOfRange`] if the address is outside
    /// the bank.
    pub fn read(&mut self, address: usize) -> Result<Cplx, MontiumError> {
        let value = self
            .entries
            .get(address)
            .copied()
            .ok_or(MontiumError::AddressOutOfRange {
                bank: self.id,
                address,
                capacity: self.entries.len(),
            })?;
        self.reads += 1;
        Ok(value)
    }

    /// Writes the complex entry at `address`, quantising to Q15 if the tile
    /// is configured for a 16-bit datapath.
    ///
    /// # Errors
    ///
    /// Returns [`MontiumError::AddressOutOfRange`] if the address is outside
    /// the bank.
    pub fn write(&mut self, address: usize, value: Cplx) -> Result<(), MontiumError> {
        let capacity = self.entries.len();
        let slot = self
            .entries
            .get_mut(address)
            .ok_or(MontiumError::AddressOutOfRange {
                bank: self.id,
                address,
                capacity,
            })?;
        *slot = if self.quantize_q15 {
            value.to_q15().to_cplx()
        } else {
            value
        };
        self.writes += 1;
        Ok(())
    }

    /// Clears all entries and the access counters.
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            *e = Cplx::ZERO;
        }
        self.reads = 0;
        self.writes = 0;
    }
}

/// The set of ten memories of one tile, with the CFD role assignment of
/// Fig. 11: M01–M08 for accumulation, M09/M10 for the communication shift
/// registers.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    banks: Vec<MemoryBank>,
}

impl MemorySystem {
    /// Builds the memory system described by `config`.
    pub fn new(config: &MontiumConfig) -> Self {
        MemorySystem {
            banks: (1..=config.num_memories)
                .map(|id| MemoryBank::new(id, config.words_per_memory, config.quantize_q15))
                .collect(),
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Borrows bank `M<id>` (1-based).
    ///
    /// # Errors
    ///
    /// Returns [`MontiumError::NoSuchBank`] for an invalid identifier.
    pub fn bank(&mut self, id: usize) -> Result<&mut MemoryBank, MontiumError> {
        if id == 0 || id > self.banks.len() {
            return Err(MontiumError::NoSuchBank { bank: id });
        }
        Ok(&mut self.banks[id - 1])
    }

    /// The identifiers of the accumulation banks (M01–M08 in the default
    /// configuration: all but the last two).
    pub fn accumulation_bank_ids(&self) -> Vec<usize> {
        (1..=self.banks.len().saturating_sub(2)).collect()
    }

    /// The identifiers of the communication banks (M09/M10 by default: the
    /// last two).
    pub fn communication_bank_ids(&self) -> Vec<usize> {
        let n = self.banks.len();
        if n < 2 {
            return Vec::new();
        }
        vec![n - 1, n]
    }

    /// Total accumulation capacity in complex entries.
    pub fn accumulation_capacity_entries(&self) -> usize {
        self.accumulation_bank_ids()
            .iter()
            .map(|&id| self.banks[id - 1].capacity_entries())
            .sum()
    }

    /// Total read accesses across all banks.
    pub fn total_reads(&self) -> u64 {
        self.banks.iter().map(|b| b.reads()).sum()
    }

    /// Total write accesses across all banks.
    pub fn total_writes(&self) -> u64 {
        self.banks.iter().map(|b| b.writes()).sum()
    }

    /// Clears every bank.
    pub fn clear(&mut self) {
        for b in &mut self.banks {
            b.clear();
        }
    }

    /// Reads a complex accumulator spread across the accumulation banks:
    /// logical index `index` lives in bank `accumulation_bank_ids()[index %
    /// n_banks]` at entry `index / n_banks`, mimicking the parallel
    /// interleaving a Montium configuration would use.
    ///
    /// # Errors
    ///
    /// Returns [`MontiumError::AddressOutOfRange`] if the logical index does
    /// not fit the accumulation banks.
    pub fn read_accumulator(&mut self, index: usize) -> Result<Cplx, MontiumError> {
        let (bank, address) = self.accumulator_location(index);
        self.bank(bank)?.read(address)
    }

    /// Writes a complex accumulator (see [`MemorySystem::read_accumulator`]).
    ///
    /// # Errors
    ///
    /// Returns [`MontiumError::AddressOutOfRange`] if the logical index does
    /// not fit the accumulation banks.
    pub fn write_accumulator(&mut self, index: usize, value: Cplx) -> Result<(), MontiumError> {
        let (bank, address) = self.accumulator_location(index);
        self.bank(bank)?.write(address, value)
    }

    /// The `(bank, entry)` location of logical accumulator `index`.
    pub fn accumulator_location(&self, index: usize) -> (usize, usize) {
        let banks = self.accumulation_bank_ids();
        let n = banks.len().max(1);
        (banks[index % n], index / n)
    }
}

/// An address-generation unit: produces the address sequence
/// `base, base+stride, base+2·stride, …` modulo `modulo`.
///
/// Each Montium memory is accompanied by an AGU (\[3\]); the CFD kernel uses
/// one to walk the `T` shift-register entries of M09/M10 every clock cycle
/// and one to address the accumulator of the current `(task, frequency)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agu {
    base: usize,
    stride: usize,
    modulo: usize,
    current: usize,
}

impl Agu {
    /// Creates an AGU generating `base + k·stride (mod modulo)`.
    ///
    /// # Panics
    ///
    /// Panics if `modulo` is zero.
    pub fn new(base: usize, stride: usize, modulo: usize) -> Self {
        assert!(modulo > 0, "AGU modulo must be positive");
        Agu {
            base,
            stride,
            modulo,
            current: base % modulo,
        }
    }

    /// The current address without advancing.
    pub fn peek(&self) -> usize {
        self.current
    }

    /// Returns the current address and advances to the next one.
    pub fn next_address(&mut self) -> usize {
        let address = self.current;
        self.current = (self.current + self.stride) % self.modulo;
        address
    }

    /// Resets the AGU to its base address.
    pub fn reset(&mut self) {
        self.current = self.base % self.modulo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_read_write_and_counters() {
        let mut bank = MemoryBank::new(1, 1024, false);
        assert_eq!(bank.id(), 1);
        assert_eq!(bank.capacity_words(), 1024);
        assert_eq!(bank.capacity_entries(), 512);
        bank.write(3, Cplx::new(0.5, -0.5)).unwrap();
        assert_eq!(bank.read(3).unwrap(), Cplx::new(0.5, -0.5));
        assert_eq!(bank.read(0).unwrap(), Cplx::ZERO);
        assert_eq!(bank.reads(), 2);
        assert_eq!(bank.writes(), 1);
        bank.clear();
        assert_eq!(bank.reads(), 0);
        assert_eq!(bank.read(3).unwrap(), Cplx::ZERO);
    }

    #[test]
    fn bank_rejects_out_of_range() {
        let mut bank = MemoryBank::new(2, 16, false);
        assert!(matches!(
            bank.read(8),
            Err(MontiumError::AddressOutOfRange { bank: 2, .. })
        ));
        assert!(bank.write(100, Cplx::ONE).is_err());
    }

    #[test]
    fn bank_quantises_when_configured() {
        let mut bank = MemoryBank::new(1, 16, true);
        bank.write(0, Cplx::new(0.123456789, -0.5)).unwrap();
        let v = bank.read(0).unwrap();
        assert!((v.re - 0.123456789).abs() > 0.0); // quantised
        assert!((v.re - 0.123456789).abs() < 1.0 / 32768.0);
        // Out-of-range values saturate rather than wrap.
        bank.write(1, Cplx::new(7.0, -7.0)).unwrap();
        let s = bank.read(1).unwrap();
        assert!(s.re <= 1.0 && s.im >= -1.0);
    }

    #[test]
    fn memory_system_layout_matches_fig11() {
        let system = MemorySystem::new(&MontiumConfig::paper());
        assert_eq!(system.num_banks(), 10);
        assert_eq!(system.accumulation_bank_ids(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(system.communication_bank_ids(), vec![9, 10]);
        // 8 banks * 512 complex entries = 4096 complex accumulators.
        assert_eq!(system.accumulation_capacity_entries(), 4096);
    }

    #[test]
    fn memory_system_bank_lookup() {
        let mut system = MemorySystem::new(&MontiumConfig::paper());
        assert!(system.bank(0).is_err());
        assert!(system.bank(11).is_err());
        assert_eq!(system.bank(9).unwrap().id(), 9);
    }

    #[test]
    fn accumulator_interleaving_round_trips() {
        let mut system = MemorySystem::new(&MontiumConfig::paper());
        for i in 0..4064 {
            system
                .write_accumulator(i, Cplx::new(i as f64, -(i as f64)))
                .unwrap();
        }
        for i in (0..4064).step_by(97) {
            assert_eq!(
                system.read_accumulator(i).unwrap(),
                Cplx::new(i as f64, -(i as f64))
            );
        }
        // Locations spread over all 8 accumulation banks.
        let banks: std::collections::HashSet<usize> =
            (0..64).map(|i| system.accumulator_location(i).0).collect();
        assert_eq!(banks.len(), 8);
        assert!(system.total_reads() > 0);
        assert!(system.total_writes() >= 4064);
        system.clear();
        assert_eq!(system.total_writes(), 0);
    }

    #[test]
    fn agu_generates_modular_sequences() {
        let mut agu = Agu::new(2, 3, 8);
        assert_eq!(agu.peek(), 2);
        let seq: Vec<usize> = (0..6).map(|_| agu.next_address()).collect();
        assert_eq!(seq, vec![2, 5, 0, 3, 6, 1]);
        agu.reset();
        assert_eq!(agu.next_address(), 2);
    }

    #[test]
    #[should_panic(expected = "modulo")]
    fn agu_rejects_zero_modulo() {
        let _ = Agu::new(0, 1, 0);
    }
}
