//! The CSV emitter for sweep results.
//!
//! [`CsvSink`] renders a [`SweepResult`] deterministically — same result,
//! same bytes — which is what lets the committed figure artifacts double as
//! drift detectors in CI. Floats are rendered with Rust's shortest round-trip
//! `Display`, so re-parsing a CSV recovers the exact values.

use std::fmt::Write as _;
use std::path::Path;

use crate::error::SweepError;
use crate::exec::SweepResult;

/// Renders sweep results as CSV: one axis column per axis, then one metric
/// column per evaluator column. Cells of failed rows are left empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvSink;

impl CsvSink {
    /// Renders the result as a CSV document (with header row).
    pub fn render(&self, result: &SweepResult) -> String {
        let mut out = String::new();
        let mut header: Vec<&str> = result.axis_names.iter().map(String::as_str).collect();
        header.extend(result.columns.iter().map(String::as_str));
        let _ = writeln!(out, "{}", header.join(","));
        for row in &result.rows {
            let mut cells: Vec<String> = row.labels.iter().map(|l| csv_field(l)).collect();
            match &row.values {
                Ok(values) => cells.extend(values.iter().map(|v| format!("{v}"))),
                Err(_) => cells.extend(std::iter::repeat_n(String::new(), result.columns.len())),
            }
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// Renders and writes the result to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] if the file cannot be written.
    pub(crate) fn write(&self, result: &SweepResult, path: &Path) -> Result<(), SweepError> {
        std::fs::write(path, self.render(result))?;
        Ok(())
    }
}

/// Quotes a CSV field only when it contains a separator, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DelayModelEvaluator;
    use crate::exec::{run_sweep, SweepOptions};
    use crate::scenario::{Param, Scenario};
    use crate::spec::{Axis, SweepSpec};

    fn sample() -> SweepResult {
        let spec = SweepSpec::new(Scenario::default())
            .axis(Axis::new("length_mm", [5.0, 10.0].map(Param::LineLengthMm)))
            .axis(Axis::new("h", [100.0, -1.0].map(Param::DriverSize)));
        run_sweep(&spec, &DelayModelEvaluator, &SweepOptions::with_threads(1)).unwrap()
    }

    #[test]
    fn csv_has_axis_and_metric_columns_and_blank_error_cells() {
        let result = sample();
        let csv = CsvSink.render(&result);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("length_mm,h,rlc_delay_ps,"));
        assert_eq!(csv.lines().count(), 5, "header + 4 rows");
        // The h = -1 rows fail; their metric cells are empty.
        let bad_row = csv.lines().nth(2).unwrap();
        assert!(bad_row.starts_with("5,-1,"));
        assert!(bad_row.ends_with(",,,,,,,"), "bad row {bad_row:?} must have empty metrics");
    }

    #[test]
    fn csv_rendering_is_deterministic() {
        let result = sample();
        assert_eq!(CsvSink.render(&result), CsvSink.render(&result));
    }

    #[test]
    fn csv_fields_are_quoted_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn sinks_write_files() {
        let dir = std::env::temp_dir().join(format!("rlckit-sweep-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let result = sample();
        let csv_path = dir.join("out.csv");
        CsvSink.write(&result, &csv_path).unwrap();
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), CsvSink.render(&result));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
