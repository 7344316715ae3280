//! Analysis windows applied before the block DFT of eq. 2.
//!
//! The paper uses plain rectangular blocks; other windows are provided
//! because spectrum-sensing front-ends commonly trade leakage against
//! resolution, and because they exercise the same datapath.

use std::f64::consts::PI;
use std::fmt;

/// Analysis window shape.
///
/// # Examples
///
/// ```
/// use cfd_dsp::window::Window;
///
/// let w = Window::Hann.coefficients(8);
/// assert_eq!(w.len(), 8);
/// assert!(w[0] < 1e-12);           // Hann starts at zero
/// assert!((w[4] - 1.0).abs() < 0.21); // and peaks near the middle
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// All-ones window (the paper's implicit choice).
    #[default]
    Rectangular,
    /// Hann (raised cosine) window.
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window.
    Blackman,
}

impl Window {
    /// All window variants, useful for sweeps and tests.
    pub const ALL: [Window; 4] = [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::Blackman,
    ];

    /// Returns the window coefficients for a block of `len` samples.
    ///
    /// A zero-length request returns an empty vector; a length of one
    /// returns `[1.0]` for every shape.
    pub fn coefficients(self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        if len == 1 {
            return vec![1.0];
        }
        let denom = (len - 1) as f64;
        (0..len)
            .map(|i| {
                let x = i as f64 / denom;
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
                    Window::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
                    Window::Blackman => {
                        0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos()
                    }
                }
            })
            .collect()
    }

    /// Coherent gain: the mean of the coefficients (1.0 for rectangular).
    pub fn coherent_gain(self, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        self.coefficients(len).iter().sum::<f64>() / len as f64
    }

    /// Equivalent noise bandwidth in bins
    /// (`len · Σw² / (Σw)²`, 1.0 for rectangular).
    pub fn equivalent_noise_bandwidth(self, len: usize) -> f64 {
        let coeffs = self.coefficients(len);
        let sum: f64 = coeffs.iter().sum();
        if sum == 0.0 {
            return 0.0;
        }
        let sum_sq: f64 = coeffs.iter().map(|w| w * w).sum();
        len as f64 * sum_sq / (sum * sum)
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Window::Rectangular => "rectangular",
            Window::Hann => "hann",
            Window::Hamming => "hamming",
            Window::Blackman => "blackman",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        let w = Window::Rectangular.coefficients(16);
        assert!(w.iter().all(|&c| (c - 1.0).abs() < 1e-15));
        assert!((Window::Rectangular.coherent_gain(16) - 1.0).abs() < 1e-15);
        assert!((Window::Rectangular.equivalent_noise_bandwidth(16) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn edge_cases_zero_and_one() {
        for w in Window::ALL {
            assert!(w.coefficients(0).is_empty());
            assert_eq!(w.coefficients(1), vec![1.0]);
        }
        assert_eq!(Window::Hann.coherent_gain(0), 0.0);
        assert_eq!(Window::Hann.equivalent_noise_bandwidth(0), 0.0);
    }

    #[test]
    fn windows_are_symmetric() {
        for w in Window::ALL {
            let c = w.coefficients(33);
            for i in 0..c.len() {
                assert!(
                    (c[i] - c[c.len() - 1 - i]).abs() < 1e-12,
                    "{w} not symmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn tapered_windows_have_lower_coherent_gain() {
        for w in [Window::Hann, Window::Hamming, Window::Blackman] {
            let g = w.coherent_gain(256);
            assert!(g > 0.0 && g < 1.0, "{w}: {g}");
        }
    }

    #[test]
    fn hann_enbw_is_about_1_5() {
        let enbw = Window::Hann.equivalent_noise_bandwidth(4096);
        assert!((enbw - 1.5).abs() < 0.01, "enbw = {enbw}");
    }

    #[test]
    fn coefficients_are_in_unit_range() {
        for w in Window::ALL {
            for &c in &w.coefficients(101) {
                assert!((-1e-9..=1.0 + 1e-9).contains(&c), "{w}: {c}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Window::Rectangular.to_string(), "rectangular");
        assert_eq!(Window::Blackman.to_string(), "blackman");
    }
}
