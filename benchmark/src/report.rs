//! The benchmark's output: human-readable metric lines with units and sample
//! counts, then, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;

use crate::reference::{self, Reference};
use crate::stats::{self, Summary};
use crate::{Phase, Window, Workload, WINDOW_S};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as registered in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured, printed with every digit.
    pub value: f64,
    /// Unit, as registered in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample count, spread or provenance for the human-readable line.
    pub detail: String,
}

/// Everything one run prints.
#[derive(Debug)]
pub struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// What an end-to-end run measured.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Wall time of each repetition of the set-up.
    pub setups_s: Vec<f64>,
    /// The measured phase, with the CPU time of the process doing the work.
    pub phase: Phase,
    /// `VmHWM` of the process doing the work, in MB.
    pub peak_rss_mb: f64,
    /// The run's reference kernel and its times, which scale every time
    /// metric to the host's nominal speed.
    pub reference: Reference,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: Workload) -> Self {
        Self { workload, attempted: 0, failed: 0, metrics: Vec::new(), notes: Vec::new() }
    }

    /// Counts ops and their output-check outcomes.
    pub fn count(&mut self, outcomes: &[bool]) {
        self.attempted += outcomes.len() as u64;
        self.failed += outcomes.iter().filter(|ok| !**ok).count() as u64;
    }

    /// Whether every attempted op passed and at least one was attempted.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: every metric is a measured number.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        detail: impl Into<String>,
    ) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, value, unit, detail: detail.into() });
    }

    /// Adds a free-text line printed after the metrics.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Adds the end-to-end metrics registered in `BENCHMARK.json`. Times
    /// and rates are scaled to the host's nominal speed: a window's by the
    /// reference kernel times at its two ends, the set-up by the run's
    /// median kernel time. Each line also gives the value as measured.
    pub fn push_end_to_end(&mut self, m: &Measured) {
        let run_k = m.reference.scale();
        let window_k = m.reference.window_scales();
        let raw = |v: f64| format!("; measured {}", stats::significant(v));
        let setup = Summary::of(&m.setups_s);
        self.push(
            "setup_s",
            setup.median * run_k,
            "s",
            format!("median of {}{}", setup.describe(), raw(setup.median)),
        );

        let ops = m.phase.latencies_s.len();
        let windows = m.phase.windows.len();
        let rate = |w: &Window| w.ops as f64 / w.seconds;
        let rates: Vec<f64> = m.phase.windows.iter().map(rate).collect();
        let scaled: Vec<f64> =
            m.phase.windows.iter().zip(&window_k).map(|(w, k)| rate(w) / k).collect();
        self.push(
            "ops_per_s",
            stats::median(&scaled),
            "1/s",
            format!(
                "median of {windows} windows of >= {WINDOW_S} s; n={ops} ops in {} s{}",
                stats::significant(m.phase.elapsed_s),
                raw(stats::median(&rates))
            ),
        );
        // Each op takes its window's factor; ops after the last full window
        // take the last one.
        let last_k = *window_k.last().expect("a phase has a window");
        let op_k = m
            .phase
            .windows
            .iter()
            .zip(&window_k)
            .flat_map(|(w, &k)| std::iter::repeat_n(k, w.ops))
            .chain(std::iter::repeat(last_k));
        let ms: Vec<f64> = m.phase.latencies_s.iter().map(|s| s * 1e3).collect();
        let scaled: Vec<f64> = ms.iter().zip(op_k).map(|(v, k)| v * k).collect();
        let (latency, measured) = (Summary::of(&scaled), Summary::of(&ms));
        self.push(
            "latency_p50_ms",
            latency.median,
            "ms",
            latency.describe() + &raw(measured.median),
        );
        // The p95 is printed but not a gated metric. On `daemon_cold` the
        // latencies fall in modes (a worker evaluates one cell more or
        // less), and which mode holds the 95th percentile changes from run
        // to run: ten runs of the same code spread by 0.27-0.35 of their
        // median, past the largest bound a metric may have.
        let tail = stats::beyond(ops, 95.0);
        if tail >= stats::MIN_TAIL {
            self.note(format!(
                "latency_p95_ms = {} ms, n={ops}, {tail} samples beyond{} (printed, not gated)",
                stats::significant(stats::nearest_rank(&scaled, 95.0)),
                raw(stats::nearest_rank(&ms, 95.0))
            ));
        } else {
            self.note(format!("no p95: n={ops} leaves {tail} samples beyond it, too few"));
        }
        self.push("peak_rss_mb", m.peak_rss_mb, "MB", "VmHWM of the process doing the work");
        let cpu = |w: &Window| w.cpu_s / w.ops as f64;
        let per_op: Vec<f64> = m.phase.windows.iter().map(cpu).collect();
        let scaled: Vec<f64> =
            m.phase.windows.iter().zip(&window_k).map(|(w, k)| cpu(w) * k).collect();
        self.push(
            "cpu_s_per_op",
            stats::median(&scaled),
            "s",
            format!(
                "user+system of that process, median of {windows} windows; {} s in all{}",
                stats::significant(m.phase.windows.iter().map(|w| w.cpu_s).sum()),
                raw(stats::median(&per_op))
            ),
        );
        let kernel = Summary::of(&m.reference.times_s);
        self.note(format!(
            "times scaled to the host's nominal speed (set-up by {}): reference kernel on {} \
             threads {} s nominal, median {} s of {}",
            stats::significant(run_k),
            m.reference.threads,
            reference::NOMINAL_S,
            stats::significant(kernel.median),
            kernel.describe()
        ));
        match stats::highest_supported_percentile(&ms) {
            Some((p, value)) => self.note(format!(
                "highest percentile with {} samples beyond it: p{} = {} ms as measured (n={ops})",
                stats::MIN_TAIL,
                stats::significant(p),
                stats::significant(value)
            )),
            None => self.note(format!(
                "no percentile above the median has {} samples beyond it (n={ops})",
                stats::MIN_TAIL
            )),
        }
    }

    /// The JSON object of the last output line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Prints the human-readable lines and then the JSON line.
    pub fn print(&self) {
        println!("workload {}", self.workload.name());
        for m in &self.metrics {
            println!(
                "  {:<44} {:>14} {:<5}  {}",
                m.name,
                stats::significant(m.value),
                m.unit,
                m.detail
            );
        }
        let ratio =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        println!(
            "  {:<44} {:>14} {:<5}  failed/attempted = {}/{} (the JSON's failed and attempted)",
            "failed_ratio",
            stats::significant(ratio),
            "ratio",
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            println!("  note: {note}");
        }
        println!("{}", self.json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(latencies_s: Vec<f64>, windows: Vec<Window>) -> Phase {
        let elapsed_s = latencies_s.iter().sum();
        Phase { latencies_s, elapsed_s, windows }
    }

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut r = Report::new(Workload::Figures);
        r.count(&[true, true, false]);
        r.push("latency_p50_ms", 1.25, "ms", "");
        r.push("setup_s", 0.000123, "s", "");
        assert!(!r.correct());
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.000123, \"unit\": \"s\"}}}"
        );
        assert!(!Report::new(Workload::Figures).correct(), "no ops attempted is not correct");
    }

    #[test]
    fn end_to_end_metrics_are_all_present() {
        let mut r = Report::new(Workload::DaemonCold);
        let windows = [(10, 1.0, 1.5), (20, 1.0, 2.0), (10, 2.0, 1.0)]
            .map(|(ops, seconds, cpu_s)| Window { ops, seconds, cpu_s });
        r.push_end_to_end(&Measured {
            setups_s: vec![0.01, 0.02, 0.03],
            phase: phase((1..=200).map(|i| f64::from(i) * 1e-3).collect(), windows.to_vec()),
            peak_rss_mb: 12.5,
            reference: Reference { threads: 2, times_s: vec![reference::NOMINAL_S; 4] },
        });
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb", "cpu_s_per_op"]
        );
        assert_eq!(r.metrics[0].value, 0.02);
        assert_eq!(r.metrics[1].value, 10.0, "median of the window rates 10, 20 and 5");
        assert_eq!(r.metrics[4].value, 0.1, "median of the window CPU per op 0.15, 0.1, 0.1");
        assert!(r
            .notes
            .iter()
            .any(|n| n.starts_with("latency_p95_ms = 190.00 ms, n=200, 10 samples")));

        // The same names and units, in the same order, as BENCHMARK.json.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let registry = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = registry.find("\"end_to_end\"").expect("end_to_end list");
        let end = registry.find("\"per_layer\"").expect("per_layer list");
        let section = &registry[start..end];
        let mut at = 0;
        for m in &r.metrics {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            at += section[at..].find(&entry).unwrap_or_else(|| panic!("{entry} missing"));
        }
        assert_eq!(section.matches("\"name\"").count(), r.metrics.len());
    }

    #[test]
    fn runs_at_half_speed_report_halved_times_and_no_short_p95() {
        let mut r = Report::new(Workload::LadderMeasure);
        let windows = (1..=10).map(|i| Window { ops: 1, seconds: f64::from(i), cpu_s: 1.0 });
        r.push_end_to_end(&Measured {
            setups_s: vec![0.002],
            phase: phase((1..=10).map(f64::from).collect(), windows.collect()),
            peak_rss_mb: 480.0,
            // The host ran at half its nominal speed throughout.
            reference: Reference { threads: 1, times_s: vec![2.0 * reference::NOMINAL_S; 11] },
        });
        let value = |name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("setup_s"), 0.001);
        assert_eq!(value("latency_p50_ms"), 2750.0, "median of 1..=10 s in ms, halved");
        assert_eq!(value("cpu_s_per_op"), 0.5);
        assert!(r.notes.iter().any(|n| n.starts_with("no p95: n=10")));
    }
}
