//! Bookkeeping for model-versus-reference delay comparisons.
//!
//! The paper's Table 1 is a grid of "Eq. (9) vs AS/X vs per-cent error" cells.
//! [`AccuracyTable`] collects such rows (from any reference — the transient
//! ladder simulator, the exact Laplace-domain response, or published numbers)
//! and summarises the error statistics, so the bench harness and the tests can
//! assert the paper's "< 5% error" claim mechanically.

use std::fmt;

use rlckit_numeric::stats::{error_summary, ErrorSummary, StatsError};
use rlckit_units::Time;

/// One model-versus-reference comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Human-readable operating-point label (e.g. `"RT=0.5 CT=1.0 Lt=1e-7"`).
    pub label: String,
    /// Delay predicted by the model under test.
    pub model: Time,
    /// Reference delay (simulation or published value).
    pub reference: Time,
}

impl ComparisonRow {
    /// Per-cent error of the model against the reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference delay is zero.
    pub fn percent_error(&self) -> f64 {
        self.model.percent_error_vs(self.reference)
    }
}

/// A collection of comparison rows with summary statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccuracyTable {
    rows: Vec<ComparisonRow>,
}

impl AccuracyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a comparison row.
    pub fn push(&mut self, label: impl Into<String>, model: Time, reference: Time) {
        self.rows.push(ComparisonRow { label: label.into(), model, reference });
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no rows have been collected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Max / mean / RMS per-cent error over all rows.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError`] if the table is empty or a reference is zero.
    pub fn summary(&self) -> Result<ErrorSummary, StatsError> {
        let model: Vec<f64> = self.rows.iter().map(|r| r.model.seconds()).collect();
        let reference: Vec<f64> = self.rows.iter().map(|r| r.reference.seconds()).collect();
        error_summary(&model, &reference)
    }

    /// The row with the largest error, if any.
    pub fn worst(&self) -> Option<&ComparisonRow> {
        self.rows.iter().max_by(|a, b| {
            a.percent_error().partial_cmp(&b.percent_error()).expect("finite errors")
        })
    }
}

impl fmt::Display for AccuracyTable {
    /// Renders the table as GitHub-flavoured markdown.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| operating point | model (ps) | reference (ps) | error |")?;
        writeln!(f, "|---|---:|---:|---:|")?;
        for row in &self.rows {
            writeln!(
                f,
                "| {} | {:.1} | {:.1} | {:.2}% |",
                row.label,
                row.model.picoseconds(),
                row.reference.picoseconds(),
                row.percent_error()
            )?;
        }
        if let Ok(summary) = self.summary() {
            writeln!(f, "\n{summary}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: f64) -> Time {
        Time::from_picoseconds(v)
    }

    #[test]
    fn row_error() {
        let row = ComparisonRow { label: "x".into(), model: ps(105.0), reference: ps(100.0) };
        assert!((row.percent_error() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn table_accumulates_and_summarises() {
        let mut table = AccuracyTable::new();
        assert!(table.is_empty());
        table.push("a", ps(102.0), ps(100.0));
        table.push("b", ps(97.0), ps(100.0));
        table.push("c", ps(100.5), ps(100.0));
        assert_eq!(table.len(), 3);
        assert!(!table.is_empty());
        let summary = table.summary().unwrap();
        assert!((summary.max_percent - 3.0).abs() < 1e-12);
        assert_eq!(table.worst().unwrap().label, "b");
        assert_eq!(table.rows.len(), 3);
    }

    #[test]
    fn empty_table_summary_is_an_error() {
        let table = AccuracyTable::new();
        assert!(table.summary().is_err());
        assert!(table.worst().is_none());
    }

    #[test]
    fn markdown_rendering() {
        let mut table = AccuracyTable::new();
        table.push("RT=0.5 CT=0.5", ps(1489.0), ps(1509.0));
        let text = table.to_string();
        assert!(text.contains("| RT=0.5 CT=0.5 |"));
        assert!(text.contains("error"));
        assert!(text.contains("max"));
    }
}
