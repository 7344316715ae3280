//! Platform-level area, power and analysed-bandwidth metrics (Section 5).
//!
//! The paper's evaluation: analysing 256 samples takes ≈140 µs on the 4-tile
//! platform, which corresponds to an analysed bandwidth of ≈915 kHz
//! (real-signal convention: bandwidth = sample rate / 2); the platform
//! occupies ≈8 mm² and consumes ≈200 mW at 100 MHz; all three scale linearly
//! with the number of Montium processors.

use crate::config::SocConfig;

/// Area/power/throughput roll-up for one platform configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformMetrics {
    /// Number of tiles.
    pub num_tiles: usize,
    /// Total silicon area in mm².
    pub area_mm2: f64,
    /// Total typical power in mW.
    pub power_mw: f64,
    /// Time to analyse one block (one integration step) in µs — the maximum
    /// over the tiles.
    pub time_per_block_us: f64,
    /// Samples analysed per block (the FFT length).
    pub samples_per_block: usize,
    /// Analysed bandwidth in kHz, real-signal convention
    /// (`sample rate / 2`).
    pub analysed_bandwidth_khz: f64,
}

impl PlatformMetrics {
    /// Computes the metrics for a platform that needs `cycles_per_block`
    /// clock cycles (on its critical tile) to analyse one block of
    /// `samples_per_block` samples.
    pub fn new(config: &SocConfig, cycles_per_block: u64, samples_per_block: usize) -> Self {
        let time_per_block_us = cycles_per_block as f64 / config.tile.clock_mhz;
        let sample_rate_mhz = if time_per_block_us > 0.0 {
            samples_per_block as f64 / time_per_block_us
        } else {
            0.0
        };
        PlatformMetrics {
            num_tiles: config.num_tiles,
            area_mm2: config.total_area_mm2(),
            power_mw: config.total_power_mw(),
            time_per_block_us,
            samples_per_block,
            analysed_bandwidth_khz: sample_rate_mhz / 2.0 * 1000.0,
        }
    }

    /// Energy per analysed block in µJ.
    pub fn energy_per_block_uj(&self) -> f64 {
        self.power_mw * self.time_per_block_us / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_evaluation_numbers() {
        let metrics = PlatformMetrics::new(&SocConfig::paper(), 13_996, 256);
        assert_eq!(metrics.num_tiles, 4);
        assert!((metrics.area_mm2 - 8.0).abs() < 1e-12);
        assert!((metrics.power_mw - 200.0).abs() < 1e-9);
        assert!((metrics.time_per_block_us - 139.96).abs() < 1e-9);
        // ~915 kHz analysed bandwidth.
        assert!(
            (metrics.analysed_bandwidth_khz - 915.0).abs() < 1.0,
            "bandwidth = {}",
            metrics.analysed_bandwidth_khz
        );
        // 200 mW * 139.96 us = 28 uJ per block.
        assert!((metrics.energy_per_block_uj() - 27.992).abs() < 1e-3);
    }

    #[test]
    fn degenerate_zero_cycles() {
        let metrics = PlatformMetrics::new(&SocConfig::paper(), 0, 256);
        assert_eq!(metrics.analysed_bandwidth_khz, 0.0);
        assert_eq!(metrics.energy_per_block_uj(), 0.0);
    }
}
