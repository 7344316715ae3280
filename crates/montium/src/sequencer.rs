//! The sequencer / cycle accountant of a Montium tile.
//!
//! The control/configuration/communication block of the Montium determines
//! the tasks executed by the ALU and the settings of the interconnect. For
//! the reproduction, its essential observable is the *cycle count per kernel
//! phase* — exactly the quantity Table 1 of the paper reports. The
//! [`Sequencer`] accumulates cycles attributed to each [`Phase`] and renders
//! the Table-1-shaped breakdown.

use std::collections::BTreeMap;
use std::fmt;

/// The phases of the CFD kernel, matching the rows of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The complex multiply–accumulate operations ("multiply accumulate").
    MultiplyAccumulate,
    /// Reading new operand data into the switches ("read data").
    ReadData,
    /// The 256-point FFT ("FFT").
    Fft,
    /// Reshuffling of the conjugated values ("reshuffling").
    Reshuffle,
    /// Initially loading the tile with data ("initialisation").
    Initialisation,
    /// Anything not part of the paper's breakdown.
    Other,
}

impl Phase {
    /// All phases in the row order of Table 1.
    pub const TABLE1_ORDER: [Phase; 5] = [
        Phase::MultiplyAccumulate,
        Phase::ReadData,
        Phase::Fft,
        Phase::Reshuffle,
        Phase::Initialisation,
    ];

    /// The row label used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            Phase::MultiplyAccumulate => "multiply accumulate",
            Phase::ReadData => "read data",
            Phase::Fft => "FFT",
            Phase::Reshuffle => "reshuffling",
            Phase::Initialisation => "initialisation",
            Phase::Other => "other",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The record of one kernel execution: which phase it belongs to and how
/// many cycles it consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRun {
    /// The phase the cycles are attributed to.
    pub phase: Phase,
    /// Clock cycles consumed.
    pub cycles: u64,
}

/// Accumulates cycles per phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sequencer {
    per_phase: BTreeMap<Phase, u64>,
}

impl Sequencer {
    /// Creates an empty sequencer.
    pub fn new() -> Self {
        Sequencer::default()
    }

    /// Records `cycles` cycles in `phase` and returns the corresponding
    /// [`KernelRun`].
    pub fn record(&mut self, phase: Phase, cycles: u64) -> KernelRun {
        *self.per_phase.entry(phase).or_default() += cycles;
        KernelRun { phase, cycles }
    }

    /// Cycles accumulated in one phase.
    pub fn cycles_in(&self, phase: Phase) -> u64 {
        self.per_phase.get(&phase).copied().unwrap_or(0)
    }

    /// Total cycles over all phases.
    pub fn total_cycles(&self) -> u64 {
        self.per_phase.values().sum()
    }

    /// The `(phase, cycles)` breakdown in Table 1 row order, followed by any
    /// non-zero `Other` cycles.
    pub fn breakdown(&self) -> Vec<(Phase, u64)> {
        let mut rows: Vec<(Phase, u64)> = Phase::TABLE1_ORDER
            .iter()
            .map(|&p| (p, self.cycles_in(p)))
            .collect();
        if self.cycles_in(Phase::Other) > 0 {
            rows.push((Phase::Other, self.cycles_in(Phase::Other)));
        }
        rows
    }

    /// Renders the breakdown as the text analogue of Table 1.
    pub fn render_table(&self) -> String {
        let mut out = String::from("Task                  #cycles\n");
        for (phase, cycles) in self.breakdown() {
            out.push_str(&format!("{:<22}{:>7}\n", phase.label(), cycles));
        }
        out.push_str(&format!("{:<22}{:>7}\n", "total", self.total_cycles()));
        out
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.per_phase.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut seq = Sequencer::new();
        let run = seq.record(Phase::Fft, 1040);
        assert_eq!(run.cycles, 1040);
        assert_eq!(run.phase, Phase::Fft);
        seq.record(Phase::Fft, 1040);
        seq.record(Phase::MultiplyAccumulate, 12192);
        assert_eq!(seq.cycles_in(Phase::Fft), 2080);
        assert_eq!(seq.cycles_in(Phase::ReadData), 0);
        assert_eq!(seq.total_cycles(), 2080 + 12192);
        seq.reset();
        assert_eq!(seq.total_cycles(), 0);
    }

    #[test]
    fn breakdown_follows_table1_order() {
        let mut seq = Sequencer::new();
        seq.record(Phase::Initialisation, 127);
        seq.record(Phase::MultiplyAccumulate, 12192);
        let rows = seq.breakdown();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, Phase::MultiplyAccumulate);
        assert_eq!(rows[4].0, Phase::Initialisation);
        // "Other" appears only when non-zero.
        seq.record(Phase::Other, 10);
        assert_eq!(seq.breakdown().len(), 6);
    }

    #[test]
    fn render_table_contains_labels_and_total() {
        let mut seq = Sequencer::new();
        seq.record(Phase::MultiplyAccumulate, 12192);
        seq.record(Phase::ReadData, 381);
        seq.record(Phase::Fft, 1040);
        seq.record(Phase::Reshuffle, 256);
        seq.record(Phase::Initialisation, 127);
        let table = seq.render_table();
        assert!(table.contains("multiply accumulate"));
        assert!(table.contains("12192"));
        assert!(table.contains("total"));
        assert!(table.contains("13996"));
    }

    #[test]
    fn phase_labels_match_paper_rows() {
        assert_eq!(Phase::MultiplyAccumulate.label(), "multiply accumulate");
        assert_eq!(Phase::ReadData.to_string(), "read data");
        assert_eq!(Phase::Fft.label(), "FFT");
        assert_eq!(Phase::Reshuffle.label(), "reshuffling");
        assert_eq!(Phase::Initialisation.label(), "initialisation");
    }
}
