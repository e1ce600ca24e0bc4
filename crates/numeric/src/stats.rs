//! Error metrics for comparing model predictions against simulation.
//!
//! The paper reports per-cell percentage errors (Table 1, "< 5%") and the
//! accuracy of the repeater closed forms ("< 0.05%"); these helpers compute
//! the same statistics over whole sweeps.

use std::error::Error;
use std::fmt;

/// Error returned when a comparison cannot be formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The two slices have different lengths or are empty.
    LengthMismatch {
        /// Length of the predicted slice.
        predicted: usize,
        /// Length of the reference slice.
        reference: usize,
    },
    /// A reference value is zero, so a relative error is undefined.
    ZeroReference {
        /// Index of the zero reference value.
        index: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { predicted, reference } => write!(
                f,
                "predicted and reference slices must be non-empty and equal length (got {predicted} and {reference})"
            ),
            Self::ZeroReference { index } => {
                write!(f, "reference value at index {index} is zero")
            }
        }
    }
}

impl Error for StatsError {}

/// Summary statistics of the relative error between predictions and references.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    /// Largest absolute relative error, in per cent.
    pub max_percent: f64,
    /// Mean absolute relative error, in per cent.
    pub mean_percent: f64,
    /// Root-mean-square relative error, in per cent.
    pub rms_percent: f64,
    /// Number of points compared.
    pub count: usize,
}

impl fmt::Display for ErrorSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "max {:.2}% | mean {:.2}% | rms {:.2}% over {} points",
            self.max_percent, self.mean_percent, self.rms_percent, self.count
        )
    }
}

/// Computes max / mean / RMS relative error between two equal-length slices.
///
/// # Errors
///
/// Returns [`StatsError::LengthMismatch`] for empty or unequal slices and
/// [`StatsError::ZeroReference`] if any reference value is zero.
pub fn error_summary(predicted: &[f64], reference: &[f64]) -> Result<ErrorSummary, StatsError> {
    if predicted.is_empty() || predicted.len() != reference.len() {
        return Err(StatsError::LengthMismatch {
            predicted: predicted.len(),
            reference: reference.len(),
        });
    }
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for (i, (p, r)) in predicted.iter().zip(reference.iter()).enumerate() {
        if *r == 0.0 {
            return Err(StatsError::ZeroReference { index: i });
        }
        let e = (p - r).abs() / r.abs() * 100.0;
        max = max.max(e);
        sum += e;
        sum_sq += e * e;
    }
    let n = predicted.len() as f64;
    Ok(ErrorSummary {
        max_percent: max,
        mean_percent: sum / n,
        rms_percent: (sum_sq / n).sqrt(),
        count: predicted.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let predicted = [101.0, 99.0, 102.0, 100.0];
        let reference = [100.0, 100.0, 100.0, 100.0];
        let s = error_summary(&predicted, &reference).unwrap();
        assert!((s.max_percent - 2.0).abs() < 1e-12);
        assert!((s.mean_percent - 1.0).abs() < 1e-12);
        assert!(s.rms_percent >= s.mean_percent);
        assert_eq!(s.count, 4);
        let text = s.to_string();
        assert!(text.contains("max"));
        assert!(text.contains('4'));
    }

    #[test]
    fn summary_rejects_bad_input() {
        assert!(matches!(error_summary(&[], &[]), Err(StatsError::LengthMismatch { .. })));
        assert!(matches!(
            error_summary(&[1.0], &[1.0, 2.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            error_summary(&[1.0, 1.0], &[1.0, 0.0]),
            Err(StatsError::ZeroReference { index: 1 })
        ));
    }

    #[test]
    fn error_display() {
        assert!(StatsError::LengthMismatch { predicted: 1, reference: 2 }
            .to_string()
            .contains("equal length"));
        assert!(StatsError::ZeroReference { index: 3 }.to_string().contains('3'));
    }
}
