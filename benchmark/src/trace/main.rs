//! `perfbench-trace`: the traced run of one workload.
//!
//! ```text
//! perfbench-trace --workload NAME --seed N --seconds S --trace 1 --server PATH
//! ```
//!
//! Per-layer metrics come from timing calls into each layer's public
//! functions from outside the program: no library crate is instrumented,
//! and `RLCKIT_PROFILE` stays off because its per-solve health checks
//! distort timings. Each run first times plain ops, then ops with the layer
//! timers around them, then the layer calls on the workload's own inputs;
//! it prints every registered per-layer metric (0 for a layer the workload's
//! op does not run through), the closure of the layers over the op time,
//! and the tracing overhead.

mod breakdown;
mod daemon;
mod figures;
mod ladder;

use std::process::ExitCode;

use rlckit_perfbench::report::Report;
use rlckit_perfbench::{stats, Args, Workload};

/// Every per-layer metric, in report order, with its unit.
const LAYER_METRICS: [(&str, &str); 37] = [
    ("circuit.build_ms", "ms"),
    ("circuit.mna_build_ms", "ms"),
    ("numeric.factor_ms", "ms"),
    ("numeric.factors_per_run", "count"),
    ("numeric.solve_us", "us"),
    ("transient.run_ms", "ms"),
    ("transient.steps_per_op", "count"),
    ("transient.runs_per_op", "count"),
    ("transient.apply_us", "us"),
    ("transient.overhead_ms", "ms"),
    ("transient.stored_mb", "MB"),
    ("waveform.extract_ms", "ms"),
    ("waveform.measure_us", "us"),
    ("server.parse_us", "us"),
    ("server.render_us", "us"),
    ("sweep.cache_key_us", "us"),
    ("server.memo_hit_ratio", "ratio"),
    ("server.memo_len", "count"),
    ("pattern_cache.lookups", "count"),
    ("pattern_cache.hit_ratio", "ratio"),
    ("server.unaccounted_ms", "ms"),
    ("eval.cell_ms", "ms"),
    ("sweep.run_ms.delay_error_surface", "ms"),
    ("sweep.run_ms.repeater_optimum_vs_inductance", "ms"),
    ("sweep.run_ms.bus_worst_case_pushout", "ms"),
    ("sweep.run_ms.mor_accuracy_vs_order", "ms"),
    ("sweep.run_ms.tree_worst_sink_delay", "ms"),
    ("sweep.eval_ms.delay_model", "ms"),
    ("sweep.eval_ms.repeater_optimum", "ms"),
    ("sweep.eval_ms.bus_crosstalk", "ms"),
    ("sweep.eval_ms.reduced_delay", "ms"),
    ("sweep.eval_ms.tree_delay", "ms"),
    ("sweep.parallel_efficiency", "ratio"),
    ("reduce.prima_ms", "ms"),
    ("closure_ratio", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Closure below which the report names the unaccounted gap.
const CLOSURE_FLOOR: f64 = 0.9;

/// What a traced run collects.
pub struct Trace {
    values: Vec<Option<(f64, String)>>,
    /// Output-check outcome of every op, plain and traced.
    pub outcomes: Vec<bool>,
    notes: Vec<String>,
}

impl Trace {
    fn new() -> Self {
        Self { values: vec![None; LAYER_METRICS.len()], outcomes: Vec::new(), notes: Vec::new() }
    }

    /// Sets a registered per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from `LAYER_METRICS`.
    pub fn set(&mut self, name: &str, value: f64, detail: impl Into<String>) {
        let index = LAYER_METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a registered per-layer metric"));
        self.values[index] = Some((value, detail.into()));
    }

    /// Adds a free-text line to the report.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Sets `closure_ratio`, the measured layer time over the plain op time,
    /// and names the gap when the ratio is below [`CLOSURE_FLOOR`].
    pub fn closure(&mut self, accounted_ms: f64, op_ms: f64, layers: &str, gap: &str) {
        let ratio = accounted_ms / op_ms;
        self.set(
            "closure_ratio",
            ratio,
            format!(
                "{} of {} ms per op: {layers}",
                stats::significant(accounted_ms),
                stats::significant(op_ms)
            ),
        );
        if ratio < CLOSURE_FLOOR {
            self.note(format!(
                "closure {} is below {CLOSURE_FLOOR}: {} ms per op unaccounted, {gap}",
                stats::significant(ratio),
                stats::significant(op_ms - accounted_ms)
            ));
        }
    }

    /// Sets `trace.op_ms` and `trace.overhead_pct` from the op times of the
    /// traced and the plain phase, in seconds.
    pub fn overhead(&mut self, traced_s: &[f64], plain_s: &[f64]) {
        let traced = stats::median(traced_s) * 1e3;
        let plain = stats::median(plain_s) * 1e3;
        self.set(
            "trace.op_ms",
            traced,
            format!(
                "median of n={} traced ops; plain ops: median {} ms of n={}",
                traced_s.len(),
                stats::significant(plain),
                plain_s.len()
            ),
        );
        self.set("trace.overhead_pct", 100.0 * (traced - plain) / plain, "traced vs plain op time");
    }

    fn into_report(self, workload: Workload) -> Report {
        let mut report = Report::new(workload);
        report.count(&self.outcomes);
        for ((name, unit), value) in LAYER_METRICS.iter().zip(self.values) {
            match value {
                Some((value, detail)) => report.push(*name, value, unit, detail),
                None => report.push(*name, 0.0, unit, "not on this workload's path"),
            }
        }
        for note in self.notes {
            report.note(note);
        }
        report
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            return ExitCode::from(2);
        }
    };
    let mut trace = Trace::new();
    let ran = match args.workload {
        Workload::LadderMeasure => ladder::run(&args, &mut trace),
        Workload::DaemonCold => daemon::run(&args, false, &mut trace),
        Workload::DaemonWarm => daemon::run(&args, true, &mut trace),
        Workload::Figures => figures::run(&args, &mut trace),
    };
    if let Err(e) = ran {
        eprintln!("perfbench-trace: {}: {e}", args.workload.name());
        return ExitCode::FAILURE;
    }
    let report = trace.into_report(args.workload);
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_metric_is_registered_in_order() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let registry = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let per_layer = &registry[registry.find("\"per_layer\"").expect("per_layer list")..];
        let mut at = 0;
        for (name, unit) in LAYER_METRICS {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = per_layer[at..].find(&entry).unwrap_or_else(|| panic!("{entry} missing"));
            at += found + entry.len();
        }
        assert_eq!(per_layer.matches("\"name\"").count(), LAYER_METRICS.len());
    }
}
