//! The complex ALU of a Montium tile.
//!
//! The Montium ALU is "tailored towards signal processing applications" and
//! can "execute one complex multiplication per clockcycle" (Section 4). In
//! the sequenced DSCF kernel a full complex multiply–accumulate — fetch the
//! two operands, multiply, add to the accumulator read from memory and write
//! it back — costs 3 clock cycles (the paper's simulation result).
//!
//! The ALU model executes operations functionally (in double precision, or
//! quantised by the surrounding memory model) and reports their cycle cost,
//! so kernels can both compute correct values and account cycles.

use crate::config::MontiumConfig;
use cfd_dsp::complex::Cplx;

/// The operations the complex ALU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `acc + a · conj(b)` — the DSCF primitive (multiply–accumulate with a
    /// conjugated second operand).
    ComplexMacConj,
    /// `acc + a · b` — plain complex multiply–accumulate.
    ComplexMac,
    /// `a · b` — single complex multiplication.
    ComplexMultiply,
    /// `a + b` — complex addition.
    ComplexAdd,
    /// `a - b` — complex subtraction.
    ComplexSub,
    /// The radix-2 FFT butterfly `(a + w·b, a - w·b)`; counted as one issue
    /// slot of the FFT kernel.
    Butterfly,
}

/// Execution statistics of an ALU instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AluStats {
    /// Operations executed, by rough class.
    pub multiplies: u64,
    /// Additions/subtractions executed (excluding those inside MAC/butterfly).
    pub additions: u64,
    /// MAC operations executed.
    pub macs: u64,
    /// Butterflies executed.
    pub butterflies: u64,
    /// Total cycles attributed to ALU operations.
    pub cycles: u64,
}

/// The complex ALU.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComplexAlu {
    mac_cycles: u64,
    stats: AluStats,
}

impl ComplexAlu {
    /// Creates an ALU with the cycle model of `config`.
    pub fn new(config: &MontiumConfig) -> Self {
        ComplexAlu {
            mac_cycles: config.mac_cycles,
            stats: AluStats::default(),
        }
    }

    /// The cycle cost of one operation in the sequenced kernel.
    pub fn cycles_for(&self, op: AluOp) -> u64 {
        match op {
            AluOp::ComplexMacConj | AluOp::ComplexMac => self.mac_cycles,
            // Single-issue operations: one per clock.
            AluOp::ComplexMultiply | AluOp::ComplexAdd | AluOp::ComplexSub | AluOp::Butterfly => 1,
        }
    }

    /// Executes `acc + a · conj(b)` and accounts its cycles.
    pub fn mac_conj(&mut self, acc: Cplx, a: Cplx, b: Cplx) -> Cplx {
        self.stats.macs += 1;
        self.stats.cycles += self.cycles_for(AluOp::ComplexMacConj);
        acc + a * b.conj()
    }

    /// Executes `acc + a · b` and accounts its cycles.
    pub fn mac(&mut self, acc: Cplx, a: Cplx, b: Cplx) -> Cplx {
        self.stats.macs += 1;
        self.stats.cycles += self.cycles_for(AluOp::ComplexMac);
        acc + a * b
    }

    /// Executes a single complex multiplication.
    pub fn multiply(&mut self, a: Cplx, b: Cplx) -> Cplx {
        self.stats.multiplies += 1;
        self.stats.cycles += self.cycles_for(AluOp::ComplexMultiply);
        a * b
    }

    /// Executes a complex addition.
    pub fn add(&mut self, a: Cplx, b: Cplx) -> Cplx {
        self.stats.additions += 1;
        self.stats.cycles += self.cycles_for(AluOp::ComplexAdd);
        a + b
    }

    /// Executes a complex subtraction.
    pub fn sub(&mut self, a: Cplx, b: Cplx) -> Cplx {
        self.stats.additions += 1;
        self.stats.cycles += self.cycles_for(AluOp::ComplexSub);
        a - b
    }

    /// Executes the radix-2 butterfly `(a + w·b, a - w·b)`.
    pub fn butterfly(&mut self, a: Cplx, b: Cplx, w: Cplx) -> (Cplx, Cplx) {
        self.stats.butterflies += 1;
        self.stats.cycles += self.cycles_for(AluOp::Butterfly);
        let t = w * b;
        (a + t, a - t)
    }

    /// Accounts `count` butterflies executed as one batch (e.g. a whole FFT
    /// evaluated through a precomputed plan rather than butterfly by
    /// butterfly). Statistics and cycles match `count` calls of
    /// [`ComplexAlu::butterfly`].
    pub fn record_butterflies(&mut self, count: u64) {
        self.stats.butterflies += count;
        self.stats.cycles += count * self.cycles_for(AluOp::Butterfly);
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> AluStats {
        self.stats
    }

    /// Clears the statistics.
    pub fn reset_stats(&mut self) {
        self.stats = AluStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu() -> ComplexAlu {
        ComplexAlu::new(&MontiumConfig::paper())
    }

    #[test]
    fn mac_conj_matches_eq3_primitive() {
        let mut alu = alu();
        let acc = Cplx::new(1.0, 1.0);
        let a = Cplx::new(2.0, 0.5);
        let b = Cplx::new(0.5, -1.0);
        let result = alu.mac_conj(acc, a, b);
        assert!((result - (acc + a * b.conj())).abs() < 1e-15);
        assert_eq!(alu.stats().macs, 1);
        assert_eq!(alu.stats().cycles, 3);
    }

    #[test]
    fn plain_mac_and_multiply() {
        let mut alu = alu();
        let r = alu.mac(Cplx::ZERO, Cplx::new(1.0, 2.0), Cplx::new(3.0, -1.0));
        assert_eq!(r, Cplx::new(1.0, 2.0) * Cplx::new(3.0, -1.0));
        let m = alu.multiply(Cplx::new(0.0, 1.0), Cplx::new(0.0, 1.0));
        assert_eq!(m, Cplx::new(-1.0, 0.0));
        assert_eq!(alu.stats().cycles, 3 + 1);
    }

    #[test]
    fn add_sub_butterfly() {
        let mut alu = alu();
        assert_eq!(
            alu.add(Cplx::new(1.0, 2.0), Cplx::new(3.0, 4.0)),
            Cplx::new(4.0, 6.0)
        );
        assert_eq!(
            alu.sub(Cplx::new(1.0, 2.0), Cplx::new(3.0, 4.0)),
            Cplx::new(-2.0, -2.0)
        );
        let (p, q) = alu.butterfly(Cplx::ONE, Cplx::ONE, Cplx::new(0.0, 1.0));
        assert_eq!(p, Cplx::new(1.0, 1.0));
        assert_eq!(q, Cplx::new(1.0, -1.0));
        assert_eq!(alu.stats().additions, 2);
        assert_eq!(alu.stats().butterflies, 1);
        assert_eq!(alu.stats().cycles, 3);
    }

    #[test]
    fn cycle_model_follows_configuration() {
        let mut config = MontiumConfig::paper();
        config.mac_cycles = 5;
        let alu = ComplexAlu::new(&config);
        assert_eq!(alu.cycles_for(AluOp::ComplexMacConj), 5);
        assert_eq!(alu.cycles_for(AluOp::ComplexMultiply), 1);
        assert_eq!(alu.cycles_for(AluOp::Butterfly), 1);
    }

    #[test]
    fn reset_clears_stats() {
        let mut alu = alu();
        alu.mac(Cplx::ZERO, Cplx::ONE, Cplx::ONE);
        alu.reset_stats();
        assert_eq!(alu.stats(), AluStats::default());
    }
}
