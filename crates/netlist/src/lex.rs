//! Logical-line assembly and tokenization of a SPICE-like deck.
//!
//! The lexer turns raw deck text into `Card`s: one card per logical line,
//! after stripping `*` comment lines and `;` end-of-line comments and joining
//! `+` continuation lines onto the card they continue. Every token remembers
//! the physical line and column it came from, so parse errors can point at
//! the exact spot in the original text even when a card spans several lines.

use crate::error::{ParseError, ParseErrorKind};

/// A single token of a card, with its position in the original deck text.
///
/// Lines and columns are 1-based and refer to the *physical* line the token
/// appeared on, which for continuation lines differs from the card's first
/// line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text, exactly as written (no case folding).
    pub text: String,
    /// 1-based physical line number.
    pub line: usize,
    /// 1-based column of the token's first character.
    pub column: usize,
}

/// One logical card: a non-comment line plus any `+` continuations.
#[derive(Debug, Clone)]
pub(crate) struct Card {
    /// The card's tokens in order. Never empty.
    pub tokens: Vec<Token>,
    /// The card text reassembled from its tokens, used in diagnostics.
    pub text: String,
}

impl Card {
    fn from_tokens(tokens: Vec<Token>) -> Self {
        let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        Self { text: crate::error::clip_card_text(&words.join(" ")), tokens }
    }
}

/// Characters that split tokens and are discarded (SPICE treats parentheses
/// and commas as whitespace, so `PULSE(1 0 10p 2n)` and `PULSE 1,0,10p,2n`
/// tokenize identically).
fn is_soft_separator(c: char) -> bool {
    c.is_whitespace() || c == '(' || c == ')' || c == ','
}

/// Splits one physical line into tokens. `=` separates tokens and is kept as
/// a token of its own so `w=2` and `w = 2` parse the same way.
fn tokenize_line(line: &str, line_no: usize, out: &mut Vec<Token>) {
    fn flush(
        out: &mut Vec<Token>,
        line: &str,
        line_no: usize,
        start: &mut Option<usize>,
        end: usize,
        start_column: usize,
    ) {
        if let Some(s) = start.take() {
            out.push(Token { text: line[s..end].to_owned(), line: line_no, column: start_column });
        }
    }
    let mut start: Option<usize> = None;
    // Column bookkeeping counts characters, not bytes, so multi-byte input
    // (which only ever appears in malformed decks) still gets sane columns.
    let mut column = 0usize;
    let mut start_column = 0usize;
    for (idx, c) in line.char_indices() {
        column += 1;
        if c == ';' {
            // End-of-line comment: drop the rest of the physical line.
            flush(out, line, line_no, &mut start, idx, start_column);
            return;
        }
        if is_soft_separator(c) {
            flush(out, line, line_no, &mut start, idx, start_column);
        } else if c == '=' {
            flush(out, line, line_no, &mut start, idx, start_column);
            out.push(Token { text: "=".to_owned(), line: line_no, column });
        } else if start.is_none() {
            start = Some(idx);
            start_column = column;
        }
    }
    flush(out, line, line_no, &mut start, line.len(), start_column);
}

/// Assembles the deck text into logical cards.
///
/// * Lines whose first non-blank character is `*` are comments and are
///   skipped entirely.
/// * A line whose first non-blank character is `+` continues the most recent
///   card; its remaining tokens are appended to that card.
/// * Everything after a `;` on any line is an end-of-line comment.
/// * Blank lines are ignored.
///
/// # Errors
///
/// Returns [`ParseErrorKind::DanglingContinuation`] if a `+` line appears
/// before any card.
pub(crate) fn lex(text: &str) -> Result<Vec<Card>, ParseError> {
    let mut cards: Vec<Vec<Token>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.strip_suffix('\r').unwrap_or(raw);
        let trimmed = line.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('+') {
            let Some(last) = cards.last_mut() else {
                return Err(ParseError::at_line(
                    line_no,
                    1 + (line.len() - trimmed.len()),
                    line.trim(),
                    ParseErrorKind::DanglingContinuation,
                ));
            };
            // Columns on the continuation line still count from the physical
            // line start, so point-at-the-token diagnostics stay accurate.
            let offset = line.len() - rest.len();
            let mut tokens = Vec::new();
            tokenize_line(rest, line_no, &mut tokens);
            for mut t in tokens {
                t.column += offset;
                last.push(t);
            }
            continue;
        }
        let mut tokens = Vec::new();
        tokenize_line(line, line_no, &mut tokens);
        if !tokens.is_empty() {
            cards.push(tokens);
        }
    }
    Ok(cards.into_iter().filter(|t| !t.is_empty()).map(Card::from_tokens).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_tokens_with_positions() {
        let cards = lex("R1 in out 50\nC1 out 0 1p\n").unwrap();
        assert_eq!(cards.len(), 2);
        assert_eq!(cards[0].tokens.len(), 4);
        assert_eq!(cards[0].tokens[0].text, "R1");
        assert_eq!(cards[0].tokens[0].line, 1);
        assert_eq!(cards[0].tokens[0].column, 1);
        assert_eq!(cards[0].tokens[2].text, "out");
        assert_eq!(cards[0].tokens[2].column, 7);
        assert_eq!(cards[1].tokens[0].line, 2);
        assert_eq!(cards[1].text, "C1 out 0 1p");
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let deck = "* a title comment\n\n   * indented comment\nR1 a 0 1 ; trailing words\n";
        let cards = lex(deck).unwrap();
        assert_eq!(cards.len(), 1);
        assert_eq!(cards[0].tokens.len(), 4);
        assert_eq!(cards[0].tokens[0].line, 4);
    }

    #[test]
    fn continuations_join_previous_card() {
        let deck = "V1 in 0\n+ PULSE 1 0\n+ 10p 2n\n";
        let cards = lex(deck).unwrap();
        assert_eq!(cards.len(), 1);
        let words: Vec<&str> = cards[0].tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["V1", "in", "0", "PULSE", "1", "0", "10p", "2n"]);
        // Tokens keep their own physical line numbers.
        assert_eq!(cards[0].tokens[3].line, 2);
        assert_eq!(cards[0].tokens[6].line, 3);
        assert_eq!(cards[0].tokens[0].line, 1);
    }

    #[test]
    fn dangling_continuation_is_an_error() {
        let err = lex("+ R1 a 0 1\n").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(matches!(err.kind(), ParseErrorKind::DanglingContinuation));
    }

    #[test]
    fn comment_between_card_and_continuation() {
        // A comment line does not break the continuation chain (matching
        // common SPICE dialects).
        let deck = "R1 a b\n* interlude\n+ 50\n";
        let cards = lex(deck).unwrap();
        assert_eq!(cards.len(), 1);
        assert_eq!(cards[0].tokens.len(), 4);
    }

    #[test]
    fn parens_commas_and_equals() {
        let cards = lex("V1 in 0 PULSE(1,0,10p,2n)\nX1 a b cell w=2\n").unwrap();
        let words: Vec<&str> = cards[0].tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["V1", "in", "0", "PULSE", "1", "0", "10p", "2n"]);
        let words: Vec<&str> = cards[1].tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["X1", "a", "b", "cell", "w", "=", "2"]);
    }

    #[test]
    fn crlf_line_endings() {
        let cards = lex("R1 a 0 1\r\nC1 a 0 1p\r\n").unwrap();
        assert_eq!(cards.len(), 2);
        assert_eq!(cards[0].tokens[3].text, "1");
    }
}
