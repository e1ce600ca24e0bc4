//! Error type shared by all circuit analyses.

use std::error::Error;
use std::fmt;

use rlckit_numeric::lu::FactorizeError;

/// Error returned by circuit construction and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A component value is not usable (negative, NaN, or otherwise out of range).
    InvalidValue {
        /// Which component parameter was invalid.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A node identifier does not belong to this circuit.
    UnknownNode {
        /// The raw node index supplied.
        index: usize,
    },
    /// A source identifier does not belong to this circuit.
    UnknownSource {
        /// The raw source index supplied.
        index: usize,
    },
    /// An inductor identifier does not belong to this circuit.
    UnknownInductor {
        /// The raw inductor index supplied.
        index: usize,
    },
    /// The circuit has no elements to analyse.
    EmptyCircuit,
    /// The MNA matrix could not be factorised (floating node, short loop, ...).
    SingularSystem {
        /// Description of the analysis stage that failed.
        stage: &'static str,
    },
    /// An analysis option is invalid (non-positive stop time, zero timestep, ...).
    InvalidAnalysis {
        /// Human-readable description of the problem.
        reason: &'static str,
    },
    /// A requested measurement could not be computed from the waveform.
    Measurement {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A named element could not be added. Wraps the underlying error with
    /// the caller-supplied element name so higher-level frontends (the deck
    /// parser in particular) can cite the offending card instead of a bare
    /// node or value.
    Element {
        /// The caller-supplied element name (e.g. `"R7"` or `"Lclk"`).
        name: String,
        /// The underlying construction error.
        source: Box<CircuitError>,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidValue { what, value } => {
                write!(f, "invalid {what}: {value}")
            }
            Self::UnknownNode { index } => {
                write!(f, "node {index} does not belong to this circuit")
            }
            Self::UnknownSource { index } => {
                write!(f, "source {index} does not belong to this circuit")
            }
            Self::UnknownInductor { index } => {
                write!(f, "inductor {index} does not belong to this circuit")
            }
            Self::EmptyCircuit => write!(f, "circuit contains no elements"),
            Self::SingularSystem { stage } => {
                write!(f, "circuit matrix is singular during {stage} (floating node or short loop)")
            }
            Self::InvalidAnalysis { reason } => write!(f, "invalid analysis options: {reason}"),
            Self::Measurement { reason } => write!(f, "measurement failed: {reason}"),
            Self::Element { name, source } => write!(f, "element \"{name}\": {source}"),
        }
    }
}

impl Error for CircuitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Element { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// `Ok` if `value` is finite, else [`CircuitError::InvalidValue`] naming
/// `what`.
pub(crate) fn finite(value: f64, what: &'static str) -> Result<(), CircuitError> {
    value.is_finite().then_some(()).ok_or(CircuitError::InvalidValue { what, value })
}

/// `Ok` if `value` is finite and positive, else
/// [`CircuitError::InvalidValue`] naming `what`.
pub(crate) fn positive(value: f64, what: &'static str) -> Result<(), CircuitError> {
    let ok = value.is_finite() && value > 0.0;
    ok.then_some(()).ok_or(CircuitError::InvalidValue { what, value })
}

/// `Ok` if `value` is finite and not negative, else
/// [`CircuitError::InvalidValue`] naming `what`.
pub(crate) fn non_negative(value: f64, what: &'static str) -> Result<(), CircuitError> {
    let ok = value.is_finite() && value >= 0.0;
    ok.then_some(()).ok_or(CircuitError::InvalidValue { what, value })
}

impl From<FactorizeError> for CircuitError {
    fn from(_: FactorizeError) -> Self {
        Self::SingularSystem { stage: "matrix factorisation" }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(CircuitError::InvalidValue { what: "resistance", value: -1.0 }
            .to_string()
            .contains("resistance"));
        assert!(CircuitError::UnknownNode { index: 7 }.to_string().contains('7'));
        assert!(CircuitError::UnknownSource { index: 2 }.to_string().contains('2'));
        assert!(CircuitError::UnknownInductor { index: 4 }.to_string().contains("inductor 4"));
        assert!(CircuitError::EmptyCircuit.to_string().contains("no elements"));
        assert!(CircuitError::SingularSystem { stage: "dc" }.to_string().contains("dc"));
        assert!(CircuitError::InvalidAnalysis { reason: "zero step" }
            .to_string()
            .contains("zero step"));
        assert!(CircuitError::Measurement { reason: "no crossing".into() }
            .to_string()
            .contains("no crossing"));
        // The named-element wrapper cites the element and keeps the cause.
        let wrapped = CircuitError::Element {
            name: "R7".into(),
            source: Box::new(CircuitError::InvalidValue { what: "resistance", value: -1.0 }),
        };
        assert_eq!(wrapped.to_string(), "element \"R7\": invalid resistance: -1");
        assert!(Error::source(&wrapped).is_some());
        assert!(Error::source(&CircuitError::EmptyCircuit).is_none());
    }

    #[test]
    fn conversion_from_factorize_error() {
        let e: CircuitError = FactorizeError::Singular { column: 3 }.into();
        assert!(matches!(e, CircuitError::SingularSystem { .. }));
    }
}
