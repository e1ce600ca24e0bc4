//! Error type for sweep construction, execution and persistence.

use std::fmt;

/// Errors produced while building, executing or persisting a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// The sweep specification is malformed (empty axis, mismatched zip
    /// lengths, zero cells, …).
    Spec {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// An evaluator failed on one scenario.
    Evaluation {
        /// Human-readable description of the model/simulation failure.
        reason: String,
    },
    /// A result-store or sink file could not be read or written.
    Io(std::io::Error),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Spec { reason } => write!(f, "invalid sweep specification: {reason}"),
            Self::Evaluation { reason } => write!(f, "scenario evaluation failed: {reason}"),
            Self::Io(e) => write!(f, "sweep I/O error: {e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

macro_rules! from_model_error {
    ($($ty:ty),+ $(,)?) => {
        $(impl From<$ty> for SweepError {
            fn from(e: $ty) -> Self {
                Self::Evaluation { reason: e.to_string() }
            }
        })+
    };
}

from_model_error!(
    rlckit_circuit::CircuitError,
    rlckit_core::CoreError,
    rlckit_coupling::CouplingError,
    rlckit_interconnect::error::InterconnectError,
    rlckit_reduce::ReduceError,
    rlckit_repeater::RepeaterError,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let spec = SweepError::Spec { reason: "empty axis".into() };
        assert!(spec.to_string().contains("empty axis"));
        let eval = SweepError::Evaluation { reason: "no crossing".into() };
        assert!(eval.to_string().contains("no crossing"));
        let io = SweepError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("gone"));
        assert!(std::error::Error::source(&io).is_some());
        assert!(std::error::Error::source(&spec).is_none());
    }
}
