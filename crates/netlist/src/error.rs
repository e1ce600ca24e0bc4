//! Structured parse diagnostics.
//!
//! Every way a deck can be malformed maps to a [`ParseErrorKind`]; the
//! surrounding [`ParseError`] pins the problem to a line and column, quotes
//! the offending card, and carries a one-line hint. The `Display` output is
//! stable and exact-matched by the golden corpus tests, so changing a message
//! here deliberately fails `tests/netlist_golden.rs` until the committed
//! `.expected` files are regenerated.

use std::error::Error;
use std::fmt;

use rlckit_circuit::CircuitError;

/// Longest card excerpt quoted in a diagnostic; longer cards are clipped so
/// machine-generated (or fuzzed) kilobyte lines stay readable.
const CARD_CLIP: usize = 100;

/// Clips a card excerpt for quoting in diagnostics.
pub(crate) fn clip_card_text(text: &str) -> String {
    let mut out = String::new();
    for (count, c) in text.chars().enumerate() {
        if count == CARD_CLIP {
            out.push('…');
            return out;
        }
        out.push(c);
    }
    out
}

/// What went wrong, without the position information.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// A `+` continuation line appeared before any card.
    DanglingContinuation,
    /// The deck has no cards at all.
    EmptyDeck,
    /// The first token of a card is not a recognised element letter.
    UnknownCard {
        /// The unrecognised leading token.
        leader: String,
    },
    /// A `.directive` that is not part of the supported subset.
    UnknownDirective {
        /// The directive as written, including the dot.
        name: String,
    },
    /// A card ended before a required field.
    MissingToken {
        /// Description of the missing field.
        expected: &'static str,
    },
    /// A card carried more fields than its form allows.
    ExtraToken {
        /// The first surplus token.
        token: String,
    },
    /// A token in value position is not a number the subset accepts.
    BadNumber {
        /// The offending token.
        token: String,
    },
    /// A waveform keyword that is not DC/STEP/RAMP/PULSE/PWL.
    UnknownWaveform {
        /// The offending token.
        token: String,
    },
    /// Two elements in the same scope share a name.
    DuplicateElement {
        /// The reused name.
        name: String,
    },
    /// A `K` card references an inductor name with no `L` card in its scope.
    UnknownInductorRef {
        /// The unresolved inductor name.
        name: String,
    },
    /// Two `.subckt` definitions share a name.
    DuplicateSubckt {
        /// The reused subcircuit name.
        name: String,
    },
    /// A `.subckt` opened inside another `.subckt`.
    NestedSubckt,
    /// `.ends` with no open `.subckt`.
    EndsWithoutSubckt,
    /// `.ends NAME` closing a differently named `.subckt`.
    MismatchedEnds {
        /// Name of the subcircuit being closed.
        expected: String,
        /// Name written after `.ends`.
        found: String,
    },
    /// The deck ended while a `.subckt` was still open.
    UnclosedSubckt {
        /// Name of the unclosed subcircuit.
        name: String,
    },
    /// An `X` instance names a subcircuit the deck never defines.
    UnknownSubckt {
        /// The unresolved subcircuit name.
        name: String,
    },
    /// An `X` instance connects the wrong number of nodes.
    PortCountMismatch {
        /// Name of the instantiated subcircuit.
        subckt: String,
        /// Ports the definition declares.
        expected: usize,
        /// Nodes the instance supplied.
        found: usize,
    },
    /// A `{param}` reference or `name=value` override with no matching
    /// declared parameter.
    UnknownParameter {
        /// The unresolved parameter name.
        name: String,
    },
    /// A parameter assignment that is not `name=value`.
    BadParameter {
        /// The token where the assignment went wrong.
        token: String,
    },
    /// Subcircuit instantiation nested deeper than the supported limit
    /// (which in practice means the definitions are mutually recursive).
    RecursionLimit {
        /// The subcircuit whose expansion hit the limit.
        name: String,
    },
    /// A card appeared after `.end`.
    CardAfterEnd,
    /// `.nodes` lists the ground node.
    NodesListsGround,
    /// `.nodes` lists the same name twice.
    DuplicateNode {
        /// The repeated node name.
        name: String,
    },
    /// The element was rejected while lowering into the circuit (bad value,
    /// out-of-range coupling, invalid waveform, ...).
    Element {
        /// The underlying circuit-construction error, already citing the
        /// element's hierarchical name.
        error: CircuitError,
    },
}

impl ParseErrorKind {
    fn message(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DanglingContinuation => write!(f, "continuation line before any card"),
            Self::EmptyDeck => write!(f, "deck contains no cards"),
            Self::UnknownCard { leader } => write!(f, "unrecognised card \"{leader}\""),
            Self::UnknownDirective { name } => write!(f, "unknown directive \"{name}\""),
            Self::MissingToken { expected } => write!(f, "card ended early: expected {expected}"),
            Self::ExtraToken { token } => write!(f, "unexpected trailing token \"{token}\""),
            Self::BadNumber { token } => write!(f, "invalid number \"{token}\""),
            Self::UnknownWaveform { token } => write!(f, "unknown waveform \"{token}\""),
            Self::DuplicateElement { name } => write!(f, "duplicate element name \"{name}\""),
            Self::UnknownInductorRef { name } => {
                write!(f, "K card references unknown inductor \"{name}\"")
            }
            Self::DuplicateSubckt { name } => {
                write!(f, "subcircuit \"{name}\" is defined twice")
            }
            Self::NestedSubckt => write!(f, ".subckt opened inside another .subckt"),
            Self::EndsWithoutSubckt => write!(f, ".ends with no open .subckt"),
            Self::MismatchedEnds { expected, found } => {
                write!(f, ".ends \"{found}\" does not close .subckt \"{expected}\"")
            }
            Self::UnclosedSubckt { name } => {
                write!(f, "subcircuit \"{name}\" is never closed")
            }
            Self::UnknownSubckt { name } => {
                write!(f, "instance references unknown subcircuit \"{name}\"")
            }
            Self::PortCountMismatch { subckt, expected, found } => write!(
                f,
                "instance connects {found} node(s) but subcircuit \"{subckt}\" has {expected} port(s)"
            ),
            Self::UnknownParameter { name } => write!(f, "unknown parameter \"{name}\""),
            Self::BadParameter { token } => {
                write!(f, "malformed parameter assignment near \"{token}\"")
            }
            Self::RecursionLimit { name } => write!(
                f,
                "subcircuit \"{name}\" expands deeper than {} levels (recursive definition?)",
                crate::lower::MAX_SUBCKT_DEPTH
            ),
            Self::CardAfterEnd => write!(f, "card after .end"),
            Self::NodesListsGround => write!(f, ".nodes lists the ground node"),
            Self::DuplicateNode { name } => write!(f, ".nodes lists \"{name}\" twice"),
            Self::Element { error } => write!(f, "{error}"),
        }
    }

    /// One-line fix suggestion for this kind of error.
    pub(crate) fn hint(&self) -> &'static str {
        match self {
            Self::DanglingContinuation => {
                "a line starting with '+' extends the previous card; move it below one"
            }
            Self::EmptyDeck => "a deck needs at least one element card",
            Self::UnknownCard { .. } => {
                "element cards start with R, C, L, K, V, I or X; directives with '.'"
            }
            Self::UnknownDirective { .. } => "supported directives: .subckt .ends .nodes .end",
            Self::MissingToken { .. } => {
                "the card is truncated; long cards may continue on a '+' line"
            }
            Self::ExtraToken { .. } => "remove the surplus field or start a comment with ';'",
            Self::BadNumber { .. } => {
                "values are a decimal number with an optional SI suffix (f p n u m k meg g t)"
            }
            Self::UnknownWaveform { .. } => {
                "sources take a bare DC value or DC/STEP/RAMP/PULSE/PWL(...)"
            }
            Self::DuplicateElement { .. } => "element names must be unique within their scope",
            Self::UnknownInductorRef { .. } => {
                "a K card must name two L elements from the same scope"
            }
            Self::DuplicateSubckt { .. } => "rename one of the definitions",
            Self::NestedSubckt => "close the outer definition with .ends first",
            Self::EndsWithoutSubckt => "delete the .ends or add the matching .subckt above it",
            Self::MismatchedEnds { .. } => {
                "the name after .ends must repeat the .subckt name, or be omitted"
            }
            Self::UnclosedSubckt { .. } => "add .ends before the end of the deck",
            Self::UnknownSubckt { .. } => {
                "define it with '.subckt <name> <ports...>' anywhere in the deck"
            }
            Self::PortCountMismatch { .. } => {
                "an instance must connect exactly one node per declared port"
            }
            Self::UnknownParameter { .. } => {
                "parameters must be declared with a default on the .subckt line"
            }
            Self::BadParameter { .. } => "write parameter assignments as name=value",
            Self::RecursionLimit { .. } => "subcircuits must not instantiate themselves",
            Self::CardAfterEnd => "move the card above the .end line or delete it",
            Self::NodesListsGround => "ground (0 or gnd) always exists; list only other nodes",
            Self::DuplicateNode { .. } => "each node may be declared once",
            Self::Element { .. } => "fix the quoted element's value or connections",
        }
    }
}

/// A structured deck parse error: position, offending card, kind and hint.
///
/// The `Display` form spans up to three lines —
///
/// ```text
/// error at line 4, column 11: invalid number "1..5"
///   card: R1 in out 1..5
///   hint: values are a decimal number with an optional SI suffix (f p n u m k meg g t)
/// ```
///
/// — and is exact-matched by the golden corpus, so it must stay stable.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    line: usize,
    column: usize,
    card: String,
    kind: ParseErrorKind,
}

impl ParseError {
    pub(crate) fn at_line(line: usize, column: usize, card: &str, kind: ParseErrorKind) -> Self {
        Self { line, column, card: clip_card_text(card), kind }
    }

    /// 1-based physical line of the problem (for a multi-line card, the line
    /// of the offending token, not necessarily the card's first line).
    pub fn line(&self) -> usize {
        self.line
    }

    /// 1-based column of the offending token.
    pub fn column(&self) -> usize {
        self.column
    }

    /// The structured error kind.
    pub fn kind(&self) -> &ParseErrorKind {
        &self.kind
    }

    /// One-line fix suggestion.
    pub(crate) fn hint(&self) -> &'static str {
        self.kind.hint()
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at line {}, column {}: ", self.line, self.column)?;
        self.kind.message(f)?;
        if !self.card.is_empty() {
            write!(f, "\n  card: {}", self.card)?;
        }
        write!(f, "\n  hint: {}", self.hint())
    }
}

impl Error for ParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            ParseErrorKind::Element { error } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_positioned_and_hinted() {
        let err = ParseError::at_line(
            4,
            11,
            "R1 in out 1..5",
            ParseErrorKind::BadNumber { token: "1..5".into() },
        );
        let text = err.to_string();
        assert_eq!(
            text,
            "error at line 4, column 11: invalid number \"1..5\"\n  card: R1 in out 1..5\n  hint: values are a decimal number with an optional SI suffix (f p n u m k meg g t)"
        );
        assert_eq!(err.line(), 4);
        assert_eq!(err.column(), 11);
        assert_eq!(err.card, "R1 in out 1..5");
    }

    #[test]
    fn deck_level_errors_omit_the_card_line() {
        let err = ParseError::at_line(1, 1, "", ParseErrorKind::EmptyDeck);
        assert!(!err.to_string().contains("card:"));
        assert!(err.to_string().contains("hint:"));
    }

    #[test]
    fn long_cards_are_clipped() {
        let long = "R1 ".to_owned() + &"x".repeat(300);
        let err =
            ParseError::at_line(1, 1, &long, ParseErrorKind::ExtraToken { token: "x".into() });
        assert!(err.card.chars().count() <= 101);
        assert!(err.card.ends_with('…'));
    }

    #[test]
    fn element_errors_expose_a_source() {
        let err = ParseError::at_line(
            2,
            1,
            "R1 a 0 -5",
            ParseErrorKind::Element {
                error: CircuitError::Element {
                    name: "R1".into(),
                    source: Box::new(CircuitError::InvalidValue {
                        what: "resistance",
                        value: -5.0,
                    }),
                },
            },
        );
        assert!(Error::source(&err).is_some());
        assert!(err.to_string().contains("element \"R1\""));
    }

    #[test]
    fn every_kind_has_a_nonempty_hint() {
        let kinds = vec![
            ParseErrorKind::DanglingContinuation,
            ParseErrorKind::EmptyDeck,
            ParseErrorKind::UnknownCard { leader: "Q1".into() },
            ParseErrorKind::UnknownDirective { name: ".model".into() },
            ParseErrorKind::MissingToken { expected: "a node name" },
            ParseErrorKind::ExtraToken { token: "x".into() },
            ParseErrorKind::BadNumber { token: "x".into() },
            ParseErrorKind::UnknownWaveform { token: "SIN".into() },
            ParseErrorKind::DuplicateElement { name: "R1".into() },
            ParseErrorKind::UnknownInductorRef { name: "L9".into() },
            ParseErrorKind::DuplicateSubckt { name: "cell".into() },
            ParseErrorKind::NestedSubckt,
            ParseErrorKind::EndsWithoutSubckt,
            ParseErrorKind::MismatchedEnds { expected: "a".into(), found: "b".into() },
            ParseErrorKind::UnclosedSubckt { name: "cell".into() },
            ParseErrorKind::UnknownSubckt { name: "cell".into() },
            ParseErrorKind::PortCountMismatch { subckt: "cell".into(), expected: 2, found: 3 },
            ParseErrorKind::UnknownParameter { name: "w".into() },
            ParseErrorKind::BadParameter { token: "=".into() },
            ParseErrorKind::RecursionLimit { name: "cell".into() },
            ParseErrorKind::CardAfterEnd,
            ParseErrorKind::NodesListsGround,
            ParseErrorKind::DuplicateNode { name: "a".into() },
            ParseErrorKind::Element { error: CircuitError::EmptyCircuit },
        ];
        for kind in kinds {
            let err = ParseError::at_line(1, 1, "card", kind);
            assert!(!err.hint().is_empty());
            assert!(err.to_string().starts_with("error at line 1, column 1: "));
        }
    }
}
