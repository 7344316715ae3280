//! Exact order statistics over raw in-memory samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples, so
//! every reported value is one that was actually measured. A percentile is
//! refused unless at least [`MIN_BEYOND`] samples lie beyond it: a p99 over
//! 200 samples would be decided by two measurements.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "quantile must be inside (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, have {n} samples ({beyond} beyond)",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median (nearest-rank p50) under the same refusal rule.
///
/// # Errors
///
/// See [`percentile`].
pub fn median(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_exact_sample_not_a_bucket_bound() {
        let samples: Vec<f64> = (1..=100).map(|x| x as f64 * 1.5).collect();
        assert_eq!(median(&samples).unwrap(), 75.0);
        assert_eq!(percentile(&samples, 0.9).unwrap(), 135.0);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        let ok: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&ok, 0.99).unwrap(), 989.0);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&short, 0.99).is_err());
        // p95 needs 200 samples; the median needs 20.
        assert!(percentile(&ok[..200], 0.95).is_ok());
        assert!(percentile(&ok[..199], 0.95).is_err());
        assert!(median(&ok[..20]).is_ok());
        assert!(median(&ok[..19]).is_err());
        assert!(median(&[]).is_err());
    }
}
