//! Rendering the paper's evaluation artefacts: Table 1 and the Section 5
//! figures, plus the scaling study the paper sketches ("analysed bandwidth,
//! chip area and power consumption scale linearly with the number of
//! Montium processors").

use crate::app::{CfdApplication, Platform};
use crate::error::CfdError;
use crate::methodology::{MappingReport, TwoStepMapping};
use montium_sim::kernels::IntegrationStepCycles;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// The task label as printed in the paper.
    pub task: String,
    /// Number of processor cycles.
    pub cycles: u64,
}

/// The Table 1 reproduction: cycle counts per task for one integration step
/// on one Montium core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Report {
    /// The rows in the paper's order.
    pub rows: Vec<Table1Row>,
    /// The total row.
    pub total: u64,
}

impl Table1Report {
    /// Builds the report from a cycle breakdown.
    pub fn from_cycles(cycles: &IntegrationStepCycles) -> Self {
        let rows = vec![
            Table1Row {
                task: "multiply accumulate".into(),
                cycles: cycles.multiply_accumulate,
            },
            Table1Row {
                task: "read data".into(),
                cycles: cycles.read_data,
            },
            Table1Row {
                task: "FFT".into(),
                cycles: cycles.fft,
            },
            Table1Row {
                task: "reshuffling".into(),
                cycles: cycles.reshuffling,
            },
            Table1Row {
                task: "initialisation".into(),
                cycles: cycles.initialisation,
            },
        ];
        Table1Report {
            total: cycles.total(),
            rows,
        }
    }

    /// The cycle count published in the paper for each row, for comparison.
    pub fn paper_reference() -> Self {
        Table1Report {
            rows: vec![
                Table1Row {
                    task: "multiply accumulate".into(),
                    cycles: 12192,
                },
                Table1Row {
                    task: "read data".into(),
                    cycles: 381,
                },
                Table1Row {
                    task: "FFT".into(),
                    cycles: 1040,
                },
                Table1Row {
                    task: "reshuffling".into(),
                    cycles: 256,
                },
                Table1Row {
                    task: "initialisation".into(),
                    cycles: 127,
                },
            ],
            total: 13996,
        }
    }

    /// Renders the table as text in the shape of the paper's Table 1.
    pub fn render(&self) -> String {
        let mut out = String::from("Task                    #cycles\n");
        for row in &self.rows {
            out.push_str(&format!("{:<24}{:>7}\n", row.task, row.cycles));
        }
        out.push_str(&format!("{:<24}{:>7}\n", "total", self.total));
        out
    }

    /// Returns `true` if every row and the total match `other` exactly.
    pub fn matches(&self, other: &Table1Report) -> bool {
        self.total == other.total
            && self.rows.len() == other.rows.len()
            && self
                .rows
                .iter()
                .zip(other.rows.iter())
                .all(|(a, b)| a.task == b.task && a.cycles == b.cycles)
    }
}

/// One row of the Section 5 evaluation / scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationRow {
    /// Number of Montium cores.
    pub cores: usize,
    /// Tasks per core after folding.
    pub tasks_per_core: usize,
    /// Cycles for one integration step on the critical core.
    pub cycles_per_block: u64,
    /// Time for one integration step in µs.
    pub time_per_block_us: f64,
    /// Analysed bandwidth in kHz.
    pub analysed_bandwidth_khz: f64,
    /// Platform area in mm².
    pub area_mm2: f64,
    /// Platform power in mW.
    pub power_mw: f64,
    /// Whether the accumulation memories fit the tiles.
    pub fits_memory: bool,
}

impl EvaluationRow {
    /// Builds a row from a mapping report.
    pub fn from_report(report: &MappingReport) -> Self {
        EvaluationRow {
            cores: report.cores,
            tasks_per_core: report.step1.tasks_per_core,
            cycles_per_block: report.step2.cycles.total(),
            time_per_block_us: report.step2.time_per_block_us,
            analysed_bandwidth_khz: report.metrics.analysed_bandwidth_khz,
            area_mm2: report.metrics.area_mm2,
            power_mw: report.metrics.power_mw,
            fits_memory: report.step2.accumulators_fit && report.step2.shift_registers_fit,
        }
    }
}

/// The Section 5 evaluation: the paper's 4-core operating point plus the
/// scaling over other platform sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// One row per platform size.
    pub rows: Vec<EvaluationRow>,
}

impl EvaluationReport {
    /// Evaluates the application on platforms with the given core counts.
    ///
    /// # Errors
    ///
    /// Propagates analysis errors.
    pub fn scaling_study(
        application: &CfdApplication,
        core_counts: &[usize],
    ) -> Result<Self, CfdError> {
        let rows = core_counts
            .iter()
            .map(|&cores| {
                TwoStepMapping::analyse(application, &Platform::with_cores(cores))
                    .map(|r| EvaluationRow::from_report(&r))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EvaluationReport { rows })
    }

    /// Renders the study as a text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "cores  T    cycles/block  time/block [us]  bandwidth [kHz]  area [mm^2]  power [mW]  fits\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:>5}  {:>3}  {:>12}  {:>15.2}  {:>15.1}  {:>11.1}  {:>10.1}  {}\n",
                row.cores,
                row.tasks_per_core,
                row.cycles_per_block,
                row.time_per_block_us,
                row.analysed_bandwidth_khz,
                row.area_mm2,
                row.power_mw,
                if row.fits_memory { "yes" } else { "no" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_report_matches_the_paper_exactly() {
        let report = TwoStepMapping::analyse(&CfdApplication::paper(), &Platform::paper()).unwrap();
        let table = Table1Report::from_cycles(&report.step2.cycles);
        assert!(table.matches(&Table1Report::paper_reference()));
        let text = table.render();
        assert!(text.contains("multiply accumulate"));
        assert!(text.contains("12192"));
        assert!(text.contains("13996"));
    }

    #[test]
    fn table1_mismatch_is_detected() {
        let mut table = Table1Report::paper_reference();
        table.rows[0].cycles += 1;
        assert!(!table.matches(&Table1Report::paper_reference()));
    }

    #[test]
    fn scaling_study_shows_linear_trends() {
        let report =
            EvaluationReport::scaling_study(&CfdApplication::paper(), &[1, 2, 4, 8, 16]).unwrap();
        assert_eq!(report.rows.len(), 5);
        // Area and power scale exactly linearly with the core count.
        for row in &report.rows {
            assert!((row.area_mm2 - 2.0 * row.cores as f64).abs() < 1e-9);
            assert!((row.power_mw - 50.0 * row.cores as f64).abs() < 1e-9);
        }
        // Bandwidth grows monotonically with the core count.
        for pair in report.rows.windows(2) {
            assert!(pair[1].analysed_bandwidth_khz > pair[0].analysed_bandwidth_khz);
        }
        // The 4-core row is the paper's operating point.
        let four = report.rows.iter().find(|r| r.cores == 4).unwrap();
        assert_eq!(four.cycles_per_block, 13996);
        assert!(four.fits_memory);
        assert!((four.analysed_bandwidth_khz - 915.0).abs() < 1.0);
        // 1- and 2-core platforms do not fit the accumulators.
        assert!(!report.rows[0].fits_memory);
        assert!(!report.rows[1].fits_memory);
        let text = report.render();
        assert!(text.contains("13996"));
        assert!(text.contains("yes"));
        assert!(text.contains("no"));
    }
}
