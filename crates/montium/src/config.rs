//! Configuration of a Montium tile.
//!
//! The constants default to the figures published for the Montium and used
//! in the paper: 10 parallel memories of 1K×16 bit (8K words in M01–M08),
//! 5 register files, one complex multiplication per clock cycle in the ALU
//! datapath, a complex multiply–accumulate taking 3 clock cycles in the
//! sequenced DSCF kernel, 100 MHz maximum clock, ~2 mm² in 0.13 µm CMOS and
//! ~500 µW/MHz typical power.

/// Static configuration of one Montium tile.
#[derive(Debug, Clone, PartialEq)]
pub struct MontiumConfig {
    /// Number of parallel memories (M01..M10).
    pub num_memories: usize,
    /// Capacity of each memory in 16-bit words.
    pub words_per_memory: usize,
    /// Number of register files (RF01..RF05).
    pub num_register_files: usize,
    /// Registers per register file.
    pub registers_per_file: usize,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Clock cycles consumed by one complex multiply–accumulate in the DSCF
    /// kernel (the paper's simulation: 3).
    pub mac_cycles: u64,
    /// Additional cycles needed to read new operand data after each group of
    /// `tasks_per_core` MACs (the paper's simulation: 3).
    pub data_read_cycles: u64,
    /// Cycles for a 256-point FFT on one tile (from Heysters \[3\]: 1040).
    pub fft256_cycles: u64,
    /// Silicon area of one tile in mm² (0.13 µm CMOS12).
    pub area_mm2: f64,
    /// Typical power consumption in µW per MHz.
    pub power_uw_per_mhz: f64,
    /// When `true`, every value written to a tile memory is quantised to
    /// Q15, modelling the 16-bit datapath; when `false` the functional
    /// simulation keeps full double precision (useful to isolate mapping
    /// errors from quantisation errors).
    pub quantize_q15: bool,
}

impl Default for MontiumConfig {
    fn default() -> Self {
        MontiumConfig {
            num_memories: 10,
            words_per_memory: 1024,
            num_register_files: 5,
            registers_per_file: 4,
            clock_mhz: 100.0,
            mac_cycles: 3,
            data_read_cycles: 3,
            fft256_cycles: 1040,
            area_mm2: 2.0,
            power_uw_per_mhz: 500.0,
            quantize_q15: false,
        }
    }
}

impl MontiumConfig {
    /// The configuration used throughout the paper.
    pub fn paper() -> Self {
        MontiumConfig::default()
    }

    /// Enables Q15 quantisation of all memory writes.
    pub fn with_q15(mut self) -> Self {
        self.quantize_q15 = true;
        self
    }

    /// Sets the clock frequency in MHz.
    pub fn with_clock_mhz(mut self, clock_mhz: f64) -> Self {
        self.clock_mhz = clock_mhz;
        self
    }

    /// Total accumulation-memory capacity in 16-bit words (M01–M08, the
    /// paper's "8K words of 16 bits").
    pub fn accumulation_capacity_words(&self) -> usize {
        self.words_per_memory * self.num_memories.saturating_sub(2)
    }

    /// Capacity of the two communication memories M09/M10 in 16-bit words.
    pub fn communication_capacity_words(&self) -> usize {
        self.words_per_memory * 2
    }

    /// The clock period in microseconds.
    pub fn clock_period_us(&self) -> f64 {
        1.0 / self.clock_mhz
    }

    /// Converts a cycle count to microseconds at this tile's clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_mhz
    }

    /// Typical power of one tile at its configured clock, in mW.
    pub fn power_mw(&self) -> f64 {
        self.power_uw_per_mhz * self.clock_mhz / 1000.0
    }

    /// Cycle cost of a `fft_len`-point FFT on one tile.
    ///
    /// Calibrated so that a 256-point FFT costs exactly the 1040 cycles
    /// reported by Heysters \[3\]; other sizes scale with the radix-2
    /// butterfly count `(K/2)·log2(K)` plus the same relative overhead.
    pub fn fft_cycles(&self, fft_len: usize) -> u64 {
        assert!(
            fft_len.is_power_of_two() && fft_len >= 2,
            "FFT length must be a power of two"
        );
        let butterflies = |k: usize| -> f64 { (k / 2 * k.trailing_zeros() as usize) as f64 };
        let scale = self.fft256_cycles as f64 / butterflies(256);
        (butterflies(fft_len) * scale).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = MontiumConfig::paper();
        assert_eq!(c.num_memories, 10);
        assert_eq!(c.accumulation_capacity_words(), 8192);
        assert_eq!(c.communication_capacity_words(), 2048);
        assert_eq!(c.mac_cycles, 3);
        assert_eq!(c.fft256_cycles, 1040);
        assert!((c.clock_mhz - 100.0).abs() < 1e-12);
        assert!((c.area_mm2 - 2.0).abs() < 1e-12);
        assert!(!c.quantize_q15);
    }

    #[test]
    fn unit_conversions() {
        let c = MontiumConfig::paper();
        assert!((c.clock_period_us() - 0.01).abs() < 1e-12);
        assert!((c.cycles_to_us(13996) - 139.96).abs() < 1e-9);
        // 500 µW/MHz at 100 MHz = 50 mW per tile.
        assert!((c.power_mw() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn builder_style_modifiers() {
        let c = MontiumConfig::paper().with_q15().with_clock_mhz(200.0);
        assert!(c.quantize_q15);
        assert!((c.clock_mhz - 200.0).abs() < 1e-12);
        assert!((c.cycles_to_us(200) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fft_cycles_calibrated_to_heysters() {
        let c = MontiumConfig::paper();
        assert_eq!(c.fft_cycles(256), 1040);
        // Smaller FFTs scale with the butterfly count.
        assert!(c.fft_cycles(64) < c.fft_cycles(256));
        assert!(c.fft_cycles(512) > c.fft_cycles(256));
        let expected_64 = (64.0_f64 / 2.0 * 6.0 * (1040.0 / 1024.0)).round() as u64;
        assert_eq!(c.fft_cycles(64), expected_64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_cycles_rejects_non_power_of_two() {
        MontiumConfig::paper().fft_cycles(100);
    }
}
