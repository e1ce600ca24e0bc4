//! Plain-text / markdown / CSV table rendering for the experiment binaries.
//!
//! The experiment binaries print aligned text tables for reading in a terminal
//! and can optionally dump the same data as CSV (for plotting) by passing
//! `--csv` on the command line.

use std::fmt::Write as _;

use rlckit_telemetry::json::{number, quoted};

/// A simple column-oriented results table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the number of cells differs from the number of headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row must have one cell per header");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> =
            self.headers.iter().zip(widths.iter()).map(|(h, w)| format!("{h:>w$}")).collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(widths.iter()).map(|(c, w)| format!("{c:>w$}")).collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders the table as CSV (headers included).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Prints the table to stdout, as CSV when `csv` is `true`, otherwise as text.
    pub fn print(&self, csv: bool) {
        if csv {
            print!("{}", self.to_csv());
        } else {
            print!("{}", self.to_text());
        }
    }
}

/// Returns `true` if the process arguments request CSV output (`--csv`).
pub fn csv_requested() -> bool {
    std::env::args().any(|a| a == "--csv")
}

/// Returns `true` when the `RLCKIT_BENCH_SMOKE` environment variable is set.
///
/// In smoke mode every bench shrinks its sweep to the cheapest prefix of its
/// full parameter set while still exercising its full code path — including
/// the `BENCH_*.json` writers. Every recorded number is deterministic, so a
/// smoke run reproduces the committed full-run values for the sizes it
/// shares with them exactly; the committed trajectories come from full
/// runs because only those cover every size.
pub fn smoke_mode() -> bool {
    std::env::var_os("RLCKIT_BENCH_SMOKE").is_some()
}

/// Picks the smoke or full variant of a bench parameter set.
pub fn smoke_or<T>(smoke: T, full: T) -> T {
    if smoke_mode() {
        smoke
    } else {
        full
    }
}

/// One measured quantity in a performance report.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// Name of the measurement (e.g. `"sparse/500"`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of the value (e.g. `"count"`, `"ps"`).
    pub unit: String,
}

/// A machine-readable performance report, serialised as `BENCH_<name>.json`.
///
/// This is the workspace's trajectory format: each benchmark that wants its
/// deterministic numbers (fill counts, delay errors, hit rates — never
/// clock readings) tracked over time appends records here and calls
/// [`PerfReport::write`], producing a flat JSON document that the
/// [`check`](crate::check) gate diffs across commits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    bench: String,
    records: Vec<PerfRecord>,
}

impl PerfReport {
    /// Creates an empty report for the benchmark `bench`.
    pub fn new(bench: impl Into<String>) -> Self {
        Self { bench: bench.into(), records: Vec::new() }
    }

    /// Appends one measurement.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.records.push(PerfRecord { name: name.into(), value, unit: unit.into() });
    }

    /// Number of recorded measurements.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the report as a JSON document.
    ///
    /// The format is deliberately flat and dependency-free:
    /// `{"bench": …, "results": [{"name": …, "value": …, "unit": …}, …]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": {},", quoted(&self.bench));
        let _ = writeln!(out, "  \"results\": [");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"value\": {}, \"unit\": {}}}{comma}",
                quoted(&r.name),
                number(r.value),
                quoted(&r.unit)
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }

    /// The canonical file name for this report: `BENCH_<bench>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.bench)
    }

    /// Writes the report to `BENCH_<bench>.json` under `dir`, returning the
    /// path written.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// The workspace root (two levels above this crate's manifest), where the
/// committed `BENCH_*.json` trajectories and the `PROFILE_*.json` profiles
/// live.
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes a perf trajectory to the workspace root, printing the path on
/// success and **exiting the process nonzero** on failure.
///
/// Every perf-tracking bench used to hand-roll this epilogue with an
/// `eprintln!` that swallowed the error; a bench whose trajectory silently
/// failed to land would let the CI regression gate compare against a stale
/// file. Failing loudly keeps the gate honest.
pub fn write_trajectory_or_exit(report: &PerfReport) {
    match report.write(&workspace_root()) {
        Ok(path) => println!("perf trajectory written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write perf trajectory {}: {e}", report.file_name());
            std::process::exit(1);
        }
    }
}

/// If profiling is active, snapshots the telemetry registry and writes it to
/// `PROFILE_<profile>.json`; if timeline tracing is active, also writes the
/// Chrome trace-event document `TRACE_<profile>.json`. Both land in
/// `RLCKIT_PROFILE_DIR` when that is set, otherwise at the workspace root,
/// and an I/O failure exits nonzero (like [`write_trajectory_or_exit`]). A
/// no-op when neither layer is on, so every bench can call it
/// unconditionally.
pub fn write_profile_if_enabled(profile: &str) {
    let dir = rlckit_telemetry::output_dir(&workspace_root());
    if rlckit_telemetry::enabled() {
        let snapshot = rlckit_telemetry::Collector::snapshot();
        match snapshot.write(profile, &dir) {
            Ok(path) => println!("profile written to {}", path.display()),
            Err(e) => {
                eprintln!("could not write profile PROFILE_{profile}.json: {e}");
                std::process::exit(1);
            }
        }
    }
    if rlckit_telemetry::trace_enabled() {
        let trace = rlckit_telemetry::Collector::trace_snapshot();
        match trace.write(profile, &dir) {
            Ok(path) => println!("timeline trace written to {}", path.display()),
            Err(e) => {
                eprintln!("could not write trace TRACE_{profile}.json: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push_row(vec!["1".into(), "10.5".into()]);
        t.push_row(vec!["2".into(), "20.25".into()]);
        t
    }

    #[test]
    fn text_rendering_is_aligned() {
        let t = sample();
        let text = t.to_text();
        assert!(text.contains("== demo =="));
        assert!(text.contains("x"));
        assert!(text.contains("20.25"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("x,value\n"));
        assert!(csv.contains("2,20.25"));
    }

    #[test]
    #[should_panic]
    fn mismatched_row_length_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", &["a"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.to_csv().starts_with("a"));
    }

    #[test]
    fn perf_report_renders_valid_flat_json() {
        let mut r = PerfReport::new("tree");
        assert!(r.is_empty());
        r.push("fill_ratio/100", 0.125, "x");
        r.push("fill_ratio/500", f64::INFINITY, "x");
        r.push("a\n\"b\"\u{1}", 1.0, "x");
        assert_eq!(r.len(), 3);
        let json = r.to_json();
        // Control characters and quotes in names must be escaped, not emitted raw.
        assert!(json.contains("\"name\": \"a\\n\\\"b\\\"\\u0001\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"bench\": \"tree\""));
        assert!(json.contains("\"name\": \"fill_ratio/100\", \"value\": 0.125, \"unit\": \"x\""));
        // Non-finite values must not produce invalid JSON.
        assert!(json.contains("\"value\": null"));
        assert_eq!(r.file_name(), "BENCH_tree.json");
    }

    #[test]
    fn perf_report_writes_its_file() {
        let mut r = PerfReport::new("report_unit_test");
        r.push("x", 1.0, "count");
        let dir = std::env::temp_dir();
        let path = r.write(&dir).expect("writable temp dir");
        let body = std::fs::read_to_string(&path).expect("file exists");
        assert_eq!(body, r.to_json());
        let _ = std::fs::remove_file(path);
    }
}
