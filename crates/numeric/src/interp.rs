//! Interpolation and threshold-crossing search on sampled data.
//!
//! Transient simulation produces waveforms sampled on a time grid; the 50%
//! propagation delay is the time at which the output first crosses half the
//! supply. These helpers perform that search with linear interpolation
//! between samples.

use std::error::Error;
use std::fmt;

/// Error returned by the interpolation helpers.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// The abscissa and ordinate slices have different lengths or are empty.
    LengthMismatch {
        /// Length of the x slice.
        x_len: usize,
        /// Length of the y slice.
        y_len: usize,
    },
    /// The abscissas are not strictly increasing.
    NotIncreasing,
    /// The query lies outside the sampled range.
    OutOfRange {
        /// The query abscissa.
        x: f64,
    },
    /// The requested threshold is never crossed by the samples.
    NoCrossing {
        /// The threshold that was searched for.
        threshold: f64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { x_len, y_len } => {
                write!(f, "x and y must be non-empty and equal length (got {x_len} and {y_len})")
            }
            Self::NotIncreasing => write!(f, "abscissas must be strictly increasing"),
            Self::OutOfRange { x } => write!(f, "query {x} is outside the sampled range"),
            Self::NoCrossing { threshold } => {
                write!(f, "samples never cross the threshold {threshold}")
            }
        }
    }
}

impl Error for InterpError {}

fn validate(x: &[f64], y: &[f64]) -> Result<(), InterpError> {
    if x.is_empty() || x.len() != y.len() {
        return Err(InterpError::LengthMismatch { x_len: x.len(), y_len: y.len() });
    }
    if x.windows(2).any(|w| w[1] <= w[0]) {
        return Err(InterpError::NotIncreasing);
    }
    Ok(())
}

/// Linearly interpolates `y(xq)` on the sampled curve `(x, y)`.
///
/// # Errors
///
/// Returns [`InterpError`] if the inputs are malformed or `xq` lies outside
/// `[x[0], x[last]]`.
pub fn linear(x: &[f64], y: &[f64], xq: f64) -> Result<f64, InterpError> {
    validate(x, y)?;
    let n = x.len();
    if xq < x[0] || xq > x[n - 1] {
        return Err(InterpError::OutOfRange { x: xq });
    }
    // Binary search for the containing interval.
    let idx = match x.binary_search_by(|v| v.partial_cmp(&xq).expect("finite abscissas")) {
        Ok(i) => return Ok(y[i]),
        Err(i) => i,
    };
    let (x0, x1) = (x[idx - 1], x[idx]);
    let (y0, y1) = (y[idx - 1], y[idx]);
    Ok(y0 + (y1 - y0) * (xq - x0) / (x1 - x0))
}

/// Whether a curve sampled `prev` then `next` crosses `level` upward:
/// `prev ≤ level < next`. The one crossing test of the workspace, shared by
/// [`first_rising_crossing`], [`crate::roots::first_crossing`] and the
/// transient stop rule.
pub fn rises_through(prev: f64, next: f64, level: f64) -> bool {
    prev <= level && next > level
}

/// Finds the first upward crossing of `threshold` by the sampled curve,
/// interpolating linearly within the crossing interval.
///
/// "Upward" means the curve moves from below (or at) the threshold to above
/// it ([`rises_through`]). Samples already above the threshold at the first
/// point do not count as a crossing until the curve drops below and rises
/// again.
///
/// # Errors
///
/// Returns [`InterpError::NoCrossing`] if the threshold is never crossed, and
/// the validation errors of [`linear`] for malformed input.
pub fn first_rising_crossing(x: &[f64], y: &[f64], threshold: f64) -> Result<f64, InterpError> {
    validate(x, y)?;
    for i in 1..x.len() {
        let (y0, y1) = (y[i - 1], y[i]);
        if rises_through(y0, y1, threshold) {
            if (y1 - y0).abs() < f64::EPSILON {
                return Ok(x[i]);
            }
            let frac = (threshold - y0) / (y1 - y0);
            return Ok(x[i - 1] + frac * (x[i] - x[i - 1]));
        }
    }
    Err(InterpError::NoCrossing { threshold })
}

/// Peak (maximum) value of the samples and the abscissa where it occurs.
///
/// # Errors
///
/// Returns the validation errors of [`linear`] for malformed input.
pub fn peak(x: &[f64], y: &[f64]) -> Result<(f64, f64), InterpError> {
    validate(x, y)?;
    let mut best = (x[0], y[0]);
    for (xi, yi) in x.iter().zip(y.iter()) {
        if *yi > best.1 {
            best = (*xi, *yi);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolation() {
        let x = [0.0, 1.0, 2.0, 4.0];
        let y = [0.0, 10.0, 20.0, 0.0];
        assert_eq!(linear(&x, &y, 0.5).unwrap(), 5.0);
        assert_eq!(linear(&x, &y, 1.0).unwrap(), 10.0);
        assert_eq!(linear(&x, &y, 3.0).unwrap(), 10.0);
        assert_eq!(linear(&x, &y, 4.0).unwrap(), 0.0);
    }

    #[test]
    fn linear_out_of_range() {
        let x = [0.0, 1.0];
        let y = [0.0, 1.0];
        assert!(matches!(linear(&x, &y, -0.1), Err(InterpError::OutOfRange { .. })));
        assert!(matches!(linear(&x, &y, 1.1), Err(InterpError::OutOfRange { .. })));
    }

    #[test]
    fn malformed_inputs() {
        assert!(matches!(linear(&[], &[], 0.0), Err(InterpError::LengthMismatch { .. })));
        assert!(matches!(
            linear(&[0.0, 1.0], &[0.0], 0.5),
            Err(InterpError::LengthMismatch { .. })
        ));
        assert!(matches!(linear(&[0.0, 0.0], &[0.0, 1.0], 0.0), Err(InterpError::NotIncreasing)));
    }

    #[test]
    fn rising_crossing_simple() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [0.0, 0.2, 0.8, 1.0];
        let t = first_rising_crossing(&x, &y, 0.5).unwrap();
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rising_crossing_with_ringing() {
        // Crosses 0.5 upward at t=1, dips below at t=3, crosses again at t=5.
        let x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [0.0, 0.5001, 1.2, 0.4, 0.45, 0.6, 1.0];
        let first = first_rising_crossing(&x, &y, 0.5).unwrap();
        assert!(first < 1.01);
    }

    #[test]
    fn no_crossing_is_an_error() {
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 0.1, 0.2];
        assert!(matches!(first_rising_crossing(&x, &y, 0.5), Err(InterpError::NoCrossing { .. })));
    }

    #[test]
    fn peak_detection() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [0.0, 1.4, 1.1, 1.0];
        let (px, pv) = peak(&x, &y).unwrap();
        assert_eq!(px, 1.0);
        assert_eq!(pv, 1.4);
    }

    #[test]
    fn error_display() {
        assert!(InterpError::NoCrossing { threshold: 0.5 }.to_string().contains("0.5"));
        assert!(InterpError::NotIncreasing.to_string().contains("increasing"));
        assert!(InterpError::OutOfRange { x: 3.0 }.to_string().contains("3"));
        assert!(InterpError::LengthMismatch { x_len: 1, y_len: 2 }.to_string().contains("1"));
    }
}
