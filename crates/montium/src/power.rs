//! Area and power model of a Montium tile (Section 5).
//!
//! The paper quotes: one Montium occupies approximately 2 mm² in the Philips
//! 0.13 µm CMOS12 process, and typical power consumption is about
//! 500 µW/MHz, i.e. 50 mW per tile at 100 MHz (200 mW for the 4-tile
//! platform).

use crate::config::MontiumConfig;

/// Area/power figures for one tile at a given clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilePower {
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Area in mm².
    pub area_mm2: f64,
    /// Typical power in mW at the given clock.
    pub power_mw: f64,
}

impl TilePower {
    /// Derives the figures from a tile configuration.
    pub fn from_config(config: &MontiumConfig) -> Self {
        TilePower {
            clock_mhz: config.clock_mhz,
            area_mm2: config.area_mm2,
            power_mw: config.power_mw(),
        }
    }

    /// Energy in µJ consumed by `cycles` clock cycles.
    pub fn energy_uj(&self, cycles: u64) -> f64 {
        // power [mW] * time [s] = mJ; time = cycles / (clock_mhz * 1e6).
        let seconds = cycles as f64 / (self.clock_mhz * 1e6);
        self.power_mw * seconds * 1000.0
    }

    /// Execution time in microseconds of `cycles` clock cycles.
    pub fn time_us(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_mhz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tile_figures() {
        let p = TilePower::from_config(&MontiumConfig::paper());
        assert!((p.area_mm2 - 2.0).abs() < 1e-12);
        assert!((p.power_mw - 50.0).abs() < 1e-9);
        assert!((p.clock_mhz - 100.0).abs() < 1e-12);
    }

    #[test]
    fn energy_and_time_for_one_integration_step() {
        let p = TilePower::from_config(&MontiumConfig::paper());
        // 13996 cycles at 100 MHz = 139.96 us.
        assert!((p.time_us(13996) - 139.96).abs() < 1e-9);
        // 50 mW * 139.96 us ~= 7 uJ.
        assert!((p.energy_uj(13996) - 6.998).abs() < 1e-3);
    }

    #[test]
    fn power_scales_with_clock() {
        let slow = TilePower::from_config(&MontiumConfig::paper().with_clock_mhz(50.0));
        assert!((slow.power_mw - 25.0).abs() < 1e-9);
        assert!((slow.time_us(13996) - 2.0 * 139.96).abs() < 1e-6);
    }
}
