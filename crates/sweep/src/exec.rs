//! The multi-threaded sweep executor.
//!
//! Expanded cells are resolved against the content-hash cache first; the
//! misses then go through a chunked work-queue over `std::thread` (no
//! external dependencies — the workspace is offline). Workers claim chunks of
//! cells with a single atomic counter and write each result back into its
//! cell's slot, so the output ordering is **deterministic and identical for
//! every thread count**: row `i` of a [`SweepResult`] is always grid cell `i`
//! of the spec's row-major expansion, whether it was computed by one thread,
//! sixteen, or replayed from the cache.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cache::{cache_key, ResultStore};
use crate::error::SweepError;
use crate::eval::Evaluator;
use crate::scenario::Scenario;
use crate::spec::SweepSpec;

/// A computed cell in flight between a worker and the result assembly:
/// `(cell index, cache key, outcome)`.
type ComputedCell = (usize, u64, Result<Vec<f64>, String>);

/// Execution policy for one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker thread count (at least 1).
    pub threads: usize,
}

impl Default for SweepOptions {
    /// One worker per available core, capped at 8.
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(8);
        Self { threads }
    }
}

impl SweepOptions {
    /// A policy with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }
}

/// One evaluated grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Row-major cell index (equals this row's position in the result).
    pub index: usize,
    /// One label per axis, aligned with [`SweepResult::axis_names`].
    pub labels: Vec<String>,
    /// The resolved scenario this row was evaluated at.
    pub scenario: Scenario,
    /// The metric row, or the evaluation error message for this cell (one bad
    /// cell does not abort a large sweep).
    pub values: Result<Vec<f64>, String>,
    /// Whether the row was replayed from the cache.
    pub from_cache: bool,
}

/// The complete, deterministically ordered outcome of one sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Name of the evaluator that produced the metric columns.
    pub evaluator: String,
    /// Axis names, in spec declaration order.
    pub axis_names: Vec<String>,
    /// Metric column names, in evaluator order.
    pub columns: Vec<String>,
    /// One row per grid cell, in row-major cell order.
    pub rows: Vec<SweepRow>,
    /// Number of rows replayed from the cache.
    pub cache_hits: usize,
    /// Number of rows computed by the workers in this run.
    pub computed: usize,
}

impl SweepResult {
    /// Returns the first per-cell evaluation error, if any cell failed.
    pub fn first_error(&self) -> Option<(usize, &str)> {
        self.rows.iter().find_map(|r| r.values.as_ref().err().map(|e| (r.index, e.as_str())))
    }
}

/// Runs a sweep without persistence (a throwaway, unbounded in-memory
/// store).
///
/// # Errors
///
/// Returns [`SweepError::Spec`] for a degenerate spec. Per-cell evaluation
/// failures, panics included, do not abort the run; they are recorded in
/// each row's `values`.
pub fn run_sweep(
    spec: &SweepSpec,
    evaluator: &dyn Evaluator,
    options: &SweepOptions,
) -> Result<SweepResult, SweepError> {
    run_sweep_cached(spec, evaluator, options, &mut ResultStore::in_memory(u64::MAX))
}

/// Runs a sweep against a result store: cells whose content hash is already
/// stored are replayed, only changed cells are computed (and then inserted
/// into the store). A disk-backed store ([`ResultStore::open`]) persists
/// every insert as it happens.
///
/// # Errors
///
/// Returns [`SweepError::Spec`] for a degenerate spec and [`SweepError::Io`]
/// if a disk-backed store cannot write a record. Per-cell evaluation
/// failures, panics included, do not abort the run; they are recorded in
/// each row's `values` and never cached.
pub fn run_sweep_cached(
    spec: &SweepSpec,
    evaluator: &dyn Evaluator,
    options: &SweepOptions,
    cache: &mut ResultStore,
) -> Result<SweepResult, SweepError> {
    let _span = rlckit_telemetry::span("sweep.run");
    let cells = spec.expand()?;
    let threads = options.threads.max(1);

    // Resolve cache hits up front; collect the misses for the work queue.
    let mut slots: Vec<Option<Result<Vec<f64>, String>>> = vec![None; cells.len()];
    let mut pending: Vec<(usize, u64)> = Vec::new();
    for cell in &cells {
        let key = cache_key(evaluator, &cell.scenario);
        match cache.get(key) {
            Some(values) => slots[cell.index] = Some(Ok(values)),
            None => pending.push((cell.index, key)),
        }
    }
    let cache_hits = cells.len() - pending.len();
    rlckit_telemetry::counter_add("sweep.cache_hits", cache_hits as u64);
    rlckit_telemetry::counter_add("sweep.cache_misses", pending.len() as u64);

    // Chunked work queue: one atomic cursor over the pending list. Chunks keep
    // queue traffic low on big grids while still giving each worker several
    // pops for load balancing on skewed cell costs.
    let chunk = (pending.len() / (threads * 4)).max(1);
    let computed: Mutex<Vec<ComputedCell>> = Mutex::new(Vec::with_capacity(pending.len()));
    let cursor = AtomicUsize::new(0);
    // Hoisted once per run: workers pay one branch per chunk, not an atomic
    // load per cell, and the per-worker clocks only exist while profiling.
    let profiling = rlckit_telemetry::enabled();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(pending.len().max(1)) {
            scope.spawn(|| loop {
                let wait_start = profiling.then(std::time::Instant::now);
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= pending.len() {
                    break;
                }
                let end = (start + chunk).min(pending.len());
                if let Some(t) = wait_start {
                    rlckit_telemetry::observe_seconds(
                        "sweep.worker_wait_seconds",
                        t.elapsed().as_secs_f64(),
                    );
                }
                let busy_start = profiling.then(std::time::Instant::now);
                let mut local = Vec::with_capacity(end - start);
                for &(index, key) in &pending[start..end] {
                    // The indexed span tags this cell in the timeline trace
                    // (`sweep.cell[i]`) while aggregating under `sweep.cell`
                    // in the profile registry.
                    let _cell_span = rlckit_telemetry::span_indexed("sweep.cell", index as u64);
                    local.push((index, key, evaluate_checked(evaluator, &cells[index].scenario)));
                }
                if let Some(t) = busy_start {
                    rlckit_telemetry::observe_seconds(
                        "sweep.worker_busy_seconds",
                        t.elapsed().as_secs_f64(),
                    );
                }
                computed.lock().expect("worker panicked holding results").extend(local);
            });
        }
    });

    let computed = computed.into_inner().expect("worker panicked holding results");
    let computed_count = computed.len();
    debug_assert_eq!(computed_count, pending.len());
    rlckit_telemetry::counter_add("sweep.cells_evaluated", computed_count as u64);
    for (index, key, outcome) in computed {
        if let Ok(values) = &outcome {
            cache.insert(key, values)?;
        }
        slots[index] = Some(outcome);
    }

    let rows = cells
        .into_iter()
        .map(|cell| {
            let values = slots[cell.index].take().expect("every cell resolved or computed");
            // A row came from the cache iff it never entered the pending list
            // (which is sorted by cell index by construction).
            let from_cache = pending.binary_search_by_key(&cell.index, |&(i, _)| i).is_err();
            SweepRow {
                index: cell.index,
                labels: cell.labels,
                scenario: cell.scenario,
                values,
                from_cache,
            }
        })
        .collect();

    Ok(SweepResult {
        evaluator: evaluator.name().to_owned(),
        axis_names: spec.axis_names(),
        columns: evaluator.columns().iter().map(|c| (*c).to_owned()).collect(),
        rows,
        cache_hits,
        computed: computed_count,
    })
}

/// Evaluates one scenario and verifies the row width against the declared
/// columns, turning model errors and evaluator panics into per-cell strings.
///
/// A panic is caught here, so one pathological cell fails alone instead of
/// taking down the worker that evaluated it (and with it the whole sweep or
/// a daemon worker). Every executor evaluates cells through this function.
pub fn evaluate_checked(
    evaluator: &dyn Evaluator,
    scenario: &Scenario,
) -> Result<Vec<f64>, String> {
    match catch_unwind(AssertUnwindSafe(|| evaluator.evaluate(scenario))) {
        Ok(Ok(values)) if values.len() == evaluator.columns().len() => Ok(values),
        Ok(Ok(values)) => Err(format!(
            "evaluator '{}' returned {} values for {} columns",
            evaluator.name(),
            values.len(),
            evaluator.columns().len()
        )),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Err(format!("evaluator panicked: {message}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DelayModelEvaluator;
    use crate::scenario::Param;
    use crate::spec::Axis;

    fn small_spec() -> SweepSpec {
        SweepSpec::new(Scenario::default())
            .axis(Axis::new("length_mm", [5.0, 10.0, 20.0].map(Param::LineLengthMm)))
            .axis(Axis::new("h", [25.0, 100.0].map(Param::DriverSize)))
    }

    #[test]
    fn rows_come_back_in_cell_order_with_matching_labels() {
        let result =
            run_sweep(&small_spec(), &DelayModelEvaluator, &SweepOptions::with_threads(3)).unwrap();
        assert_eq!(result.rows.len(), 6);
        assert_eq!(result.axis_names, ["length_mm", "h"]);
        assert_eq!(result.columns.len(), DelayModelEvaluator.columns().len());
        assert_eq!(result.cache_hits, 0);
        assert_eq!(result.computed, 6);
        assert!(result.first_error().is_none());
        for (i, row) in result.rows.iter().enumerate() {
            assert_eq!(row.index, i);
            assert!(!row.from_cache);
            assert_eq!(row.values.as_ref().unwrap().len(), result.columns.len());
        }
        assert_eq!(result.rows[0].labels, ["5", "25"]);
        assert_eq!(result.rows[5].labels, ["20", "100"]);
    }

    #[test]
    fn second_run_is_served_entirely_from_cache() {
        let spec = small_spec();
        let mut cache = ResultStore::in_memory(u64::MAX);
        let opts = SweepOptions::with_threads(2);
        let first = run_sweep_cached(&spec, &DelayModelEvaluator, &opts, &mut cache).unwrap();
        assert_eq!(first.computed, 6);
        assert_eq!(cache.len(), 6);
        let second = run_sweep_cached(&spec, &DelayModelEvaluator, &opts, &mut cache).unwrap();
        assert_eq!(second.computed, 0);
        assert_eq!(second.cache_hits, 6);
        for (a, b) in first.rows.iter().zip(second.rows.iter()) {
            assert!(b.from_cache);
            let (va, vb) = (a.values.as_ref().unwrap(), b.values.as_ref().unwrap());
            for (x, y) in va.iter().zip(vb.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "cache replay must be bit-exact");
            }
        }
    }

    #[test]
    fn only_changed_cells_recompute_when_the_spec_grows() {
        let mut cache = ResultStore::in_memory(u64::MAX);
        let opts = SweepOptions::with_threads(2);
        run_sweep_cached(&small_spec(), &DelayModelEvaluator, &opts, &mut cache).unwrap();
        // Add one more length: only the two new cells (2 driver sizes) compute.
        let grown = SweepSpec::new(Scenario::default())
            .axis(Axis::new("length_mm", [5.0, 10.0, 20.0, 40.0].map(Param::LineLengthMm)))
            .axis(Axis::new("h", [25.0, 100.0].map(Param::DriverSize)));
        let result = run_sweep_cached(&grown, &DelayModelEvaluator, &opts, &mut cache).unwrap();
        assert_eq!(result.cache_hits, 6);
        assert_eq!(result.computed, 2);
    }

    #[test]
    fn bad_cells_are_recorded_not_fatal_and_never_cached() {
        let spec = SweepSpec::new(Scenario::default())
            .axis(Axis::new("h", [100.0, -1.0, 50.0].map(Param::DriverSize)));
        let mut cache = ResultStore::in_memory(u64::MAX);
        let opts = SweepOptions::with_threads(2);
        let result = run_sweep_cached(&spec, &DelayModelEvaluator, &opts, &mut cache).unwrap();
        assert_eq!(result.rows.len(), 3);
        assert!(result.rows[0].values.is_ok());
        assert!(result.rows[1].values.is_err());
        assert!(result.rows[2].values.is_ok());
        let (index, _) = result.first_error().unwrap();
        assert_eq!(index, 1);
        assert_eq!(cache.len(), 2, "failed cells must not be memoised");
    }

    /// The closed-form delay model, except that it panics on one driver
    /// size: a stand-in for a pathological cell.
    struct PanicsAtDriverSize(f64);

    impl Evaluator for PanicsAtDriverSize {
        fn name(&self) -> &'static str {
            "panics_at_driver_size"
        }

        fn columns(&self) -> &'static [&'static str] {
            DelayModelEvaluator.columns()
        }

        fn evaluate(&self, scenario: &Scenario) -> Result<Vec<f64>, SweepError> {
            assert!(scenario.driver_size != self.0, "deliberate panic at h = {}", self.0);
            DelayModelEvaluator.evaluate(scenario)
        }
    }

    #[test]
    fn a_panicking_cell_fails_alone() {
        let spec = SweepSpec::new(Scenario::default())
            .axis(Axis::new("h", [100.0, 25.0, 50.0, 75.0].map(Param::DriverSize)));
        for threads in [1, 3] {
            let result =
                run_sweep(&spec, &PanicsAtDriverSize(25.0), &SweepOptions::with_threads(threads))
                    .expect("a panicking cell must not abort the sweep");
            assert_eq!(result.computed, 4);
            for row in &result.rows {
                if row.index == 1 {
                    let err = row.values.as_ref().unwrap_err();
                    assert!(
                        err.starts_with("evaluator panicked: deliberate panic at h = 25"),
                        "{err}"
                    );
                } else {
                    assert!(row.values.is_ok(), "cell {} must evaluate", row.index);
                }
            }
        }
    }

    /// `(sweep.cell spans, worker busy observations, worker wait
    /// observations)` recorded so far in the process-wide registry.
    fn cell_telemetry() -> (u64, u64, u64) {
        let snapshot = rlckit_telemetry::Collector::snapshot();
        let histogram =
            |name: &str| snapshot.histograms.iter().find(|h| h.name == name).map_or(0, |h| h.count);
        (
            snapshot.span("sweep.cell").map_or(0, |s| s.count),
            histogram("sweep.worker_busy_seconds"),
            histogram("sweep.worker_wait_seconds"),
        )
    }

    #[test]
    fn profiled_runs_record_cell_spans_and_worker_histograms() {
        let _serial = rlckit_telemetry::test_support::lock();
        let _on = rlckit_telemetry::Collector::enable();
        let (cells, busy, wait) = cell_telemetry();
        run_sweep(&small_spec(), &DelayModelEvaluator, &SweepOptions::with_threads(2)).unwrap();
        // Unlocked tests may run sweeps concurrently, so only lower bounds
        // hold: one span per computed cell, one busy/wait pair per chunk.
        let (cells_after, busy_after, wait_after) = cell_telemetry();
        assert!(cells_after >= cells + 6, "every computed cell opens a span");
        assert!(busy_after > busy && wait_after > wait, "workers record their clocks");
    }

    #[test]
    fn unprofiled_runs_carry_no_timing_or_health() {
        let _serial = rlckit_telemetry::test_support::lock();
        let _off = rlckit_telemetry::Collector::disable();
        let before = (cell_telemetry(), rlckit_telemetry::Collector::snapshot().health);
        run_sweep(&small_spec(), &DelayModelEvaluator, &SweepOptions::with_threads(2)).unwrap();
        let after = (cell_telemetry(), rlckit_telemetry::Collector::snapshot().health);
        assert_eq!(before, after, "an unprofiled run records nothing");
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let spec = small_spec();
        let one = run_sweep(&spec, &DelayModelEvaluator, &SweepOptions::with_threads(1)).unwrap();
        for threads in [2, 4, 7] {
            let many = run_sweep(&spec, &DelayModelEvaluator, &SweepOptions::with_threads(threads))
                .unwrap();
            assert_eq!(one, many, "{threads} threads must match the serial run");
        }
    }

    #[test]
    fn options_defaults_are_sane() {
        let d = SweepOptions::default();
        assert!(d.threads >= 1 && d.threads <= 8);
        assert_eq!(SweepOptions::with_threads(0).threads, 1);
    }
}
