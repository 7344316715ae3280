//! Memory sizing of the folded architecture (Sections 3.3 and 4.1).
//!
//! After folding, each core must store `T · F` complex accumulation values
//! ("if the total number of frequency points to be processed equals F, the
//! overall memory requirement equals T·F complex values"). Section 4.1
//! checks this against the Montium storage: M01–M08 together hold 8K words
//! of 16 bits, which suffices "for dynamic ranges smaller than 96 dB".

use crate::error::MappingError;
use crate::folding::Folding;

/// The per-core memory requirement of a folded DSCF computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRequirement {
    /// Tasks per core, `T`.
    pub tasks_per_core: usize,
    /// Frequency points, `F`.
    pub frequency_points: usize,
    /// Word width in bits used for each real/imaginary part.
    pub word_bits: u32,
}

impl MemoryRequirement {
    /// Creates the requirement for a folding over `frequency_points`
    /// frequencies with `word_bits`-bit words.
    pub fn new(folding: &Folding, frequency_points: usize, word_bits: u32) -> Self {
        MemoryRequirement {
            tasks_per_core: folding.tasks_per_core,
            frequency_points,
            word_bits,
        }
    }

    /// The paper's accumulation-memory requirement: `T = 32`, `F = 127`,
    /// 16-bit words.
    pub fn paper() -> Self {
        MemoryRequirement::new(&Folding::paper(), 127, 16)
    }

    /// Complex accumulator values per core, `T · F`.
    pub fn complex_values(&self) -> usize {
        self.tasks_per_core * self.frequency_points
    }

    /// Real 16-bit (or `word_bits`-bit) words per core, `2 · T · F`.
    pub fn real_words(&self) -> usize {
        2 * self.complex_values()
    }

    /// Total accumulation storage per core in bits.
    pub fn total_bits(&self) -> usize {
        self.real_words() * self.word_bits as usize
    }

    /// Checks the requirement against a memory capacity given in words of
    /// `word_bits` bits (the Montium's M01–M08 provide 8K words).
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::CapacityExceeded`] if it does not fit.
    pub fn check_fits(&self, capacity_words: usize) -> Result<(), MappingError> {
        if self.real_words() > capacity_words {
            return Err(MappingError::CapacityExceeded {
                resource: "accumulation memory words",
                required: self.real_words(),
                available: capacity_words,
            });
        }
        Ok(())
    }

    /// The largest dynamic range (dB, by the 6.02 dB/bit rule the paper
    /// uses) representable by the accumulation words.
    pub fn dynamic_range_db(&self) -> f64 {
        6.02 * self.word_bits as f64
    }
}

/// The communication (shift-register) storage per core: `T` complex values
/// per flow, i.e. one Montium memory (M09 or M10) per flow with `T` complex
/// entries (Section 4.1: "Each memory contains 32 complex values").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShiftRegisterRequirement {
    /// Tasks per core, `T`.
    pub tasks_per_core: usize,
}

impl ShiftRegisterRequirement {
    /// Creates the requirement for a folding.
    pub fn new(folding: &Folding) -> Self {
        ShiftRegisterRequirement {
            tasks_per_core: folding.tasks_per_core,
        }
    }

    /// Complex values held per flow (per Montium memory M09/M10).
    pub fn complex_values_per_flow(&self) -> usize {
        self.tasks_per_core
    }

    /// Real words per flow.
    pub fn real_words_per_flow(&self) -> usize {
        2 * self.tasks_per_core
    }

    /// Total complex values over both flows.
    pub fn total_complex_values(&self) -> usize {
        2 * self.tasks_per_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_memory_requirement_matches_section_4_1() {
        let req = MemoryRequirement::paper();
        // T*F = 32*127 = 4064 complex values < 4K complex values.
        assert_eq!(req.complex_values(), 4064);
        assert!(req.complex_values() < 4096);
        // Less than 8K real values.
        assert_eq!(req.real_words(), 8128);
        assert!(req.real_words() < 8192);
        // Fits the 8K-word Montium memories M01-M08.
        req.check_fits(8192).unwrap();
        // 16-bit words give the 96 dB dynamic-range bound quoted.
        assert!((req.dynamic_range_db() - 96.32).abs() < 0.5);
        assert_eq!(req.total_bits(), 8128 * 16);
    }

    #[test]
    fn capacity_violation_is_reported() {
        let folding = Folding::new(127, 2).unwrap(); // T = 64
        let req = MemoryRequirement::new(&folding, 127, 16);
        assert_eq!(req.complex_values(), 64 * 127);
        let err = req.check_fits(8192).unwrap_err();
        assert!(matches!(err, MappingError::CapacityExceeded { .. }));
        assert!(err.to_string().contains("16256"));
    }

    #[test]
    fn shift_register_requirement_matches_paper() {
        let req = ShiftRegisterRequirement::new(&Folding::paper());
        // "Each memory contains 32 complex values."
        assert_eq!(req.complex_values_per_flow(), 32);
        assert_eq!(req.real_words_per_flow(), 64);
        assert_eq!(req.total_complex_values(), 64);
    }

    #[test]
    fn requirement_scales_with_cores() {
        // Fewer cores -> more tasks per core -> more memory per core.
        let f = 127;
        let req1 = MemoryRequirement::new(&Folding::new(127, 1).unwrap(), f, 16);
        let req4 = MemoryRequirement::new(&Folding::new(127, 4).unwrap(), f, 16);
        let req8 = MemoryRequirement::new(&Folding::new(127, 8).unwrap(), f, 16);
        assert!(req1.complex_values() > req4.complex_values());
        assert!(req4.complex_values() > req8.complex_values());
        // A single core cannot hold the whole 127x127 DSCF in 8K words.
        assert!(req1.check_fits(8192).is_err());
    }
}
