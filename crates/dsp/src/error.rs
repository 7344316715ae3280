//! Error types for the DSP substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the DSP substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DspError {
    /// A transform length was not a power of two.
    NotPowerOfTwo {
        /// The offending length.
        length: usize,
    },
    /// Not enough samples were available for the requested operation.
    InsufficientSamples {
        /// Number of samples required.
        needed: usize,
        /// Number of samples available.
        available: usize,
    },
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A frequency/offset index was outside the spectrum.
    IndexOutOfRange {
        /// Description of the index (e.g. "frequency f").
        what: &'static str,
        /// The offending value.
        value: i64,
        /// Lowest admissible value.
        min: i64,
        /// Highest admissible value.
        max: i64,
    },
    /// An input sample was NaN or infinite. A sensor must not turn such
    /// input into a verdict: "band vacant" would be permission to
    /// transmit.
    NonFiniteSample {
        /// Index of the first offending sample in the input.
        index: usize,
    },
    /// A block spectrum of finite input is too large for the DSCF and its
    /// cyclic profile to stay finite. Refused for the same reason as
    /// [`DspError::NonFiniteSample`]: an overflowing DSCF would read as
    /// "band vacant".
    SpectrumOverflow {
        /// Index of the first offending block.
        block: usize,
        /// Index of its first offending bin.
        bin: usize,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::NotPowerOfTwo { length } => {
                write!(f, "transform length {length} is not a power of two")
            }
            DspError::InsufficientSamples { needed, available } => write!(
                f,
                "insufficient samples: {needed} needed but only {available} available"
            ),
            DspError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            DspError::IndexOutOfRange {
                what,
                value,
                min,
                max,
            } => write!(f, "{what} = {value} outside valid range [{min}, {max}]"),
            DspError::NonFiniteSample { index } => {
                write!(f, "sample {index} is not finite (NaN or infinite)")
            }
            DspError::SpectrumOverflow { block, bin } => write!(
                f,
                "bin {bin} of block spectrum {block} is too large for a finite DSCF"
            ),
        }
    }
}

impl Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DspError::NotPowerOfTwo { length: 12 };
        assert!(e.to_string().contains("12"));
        let e = DspError::InsufficientSamples {
            needed: 10,
            available: 4,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains('4'));
        let e = DspError::InvalidParameter {
            name: "snr",
            message: "must be finite".into(),
        };
        assert!(e.to_string().contains("snr"));
        let e = DspError::IndexOutOfRange {
            what: "frequency f",
            value: 99,
            min: -63,
            max: 63,
        };
        assert!(e.to_string().contains("99") && e.to_string().contains("-63"));
        let e = DspError::NonFiniteSample { index: 14 };
        assert!(e.to_string().contains("14") && e.to_string().contains("finite"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_e: E) {}
        takes_error(DspError::NotPowerOfTwo { length: 3 });
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DspError>();
    }
}
