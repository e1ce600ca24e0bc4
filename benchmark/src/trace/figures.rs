//! Traced `figures`: plain pipeline passes, then passes with each figure's
//! sweep timed apart from its CSV check, then every figure cell evaluated on
//! one thread (the work the sweep executor spreads over its threads), the
//! cache key of every cell, and the PRIMA reduction of every MOR cell.

use std::path::Path;

use rlckit_circuit::SolverBackend;
use rlckit_perfbench::figures::{self, DIR, THREADS};
use rlckit_perfbench::{closed_loop, stats, timed, Args};
use rlckit_reduce::reduce_ladder;
use rlckit_sweep::eval::scenario_ladder_spec;
use rlckit_sweep::exec::{SweepOptions, SweepResult};
use rlckit_sweep::figures::{self as specs, FIGURES};
use rlckit_sweep::{
    cache_key, BusCrosstalkEvaluator, CsvSink, DelayModelEvaluator, Evaluator,
    ReducedDelayEvaluator, RepeaterOptimumEvaluator, SweepError, SweepSpec, TreeDelayEvaluator,
};

use crate::Trace;

/// A figure's builder, and the grid and evaluator behind it.
struct Sweep {
    name: &'static str,
    build: fn(&SweepOptions) -> Result<SweepResult, SweepError>,
    spec: fn() -> SweepSpec,
    evaluator: &'static dyn Evaluator,
}

/// Every figure, in `FIGURES` order.
const SWEEPS: [Sweep; 5] = [
    Sweep {
        name: "delay_error_surface",
        build: specs::delay_error_surface,
        spec: specs::delay_error_surface_spec,
        evaluator: &DelayModelEvaluator,
    },
    Sweep {
        name: "repeater_optimum_vs_inductance",
        build: specs::repeater_optimum_vs_inductance,
        spec: specs::repeater_optimum_vs_inductance_spec,
        evaluator: &RepeaterOptimumEvaluator,
    },
    Sweep {
        name: "bus_worst_case_pushout",
        build: specs::bus_worst_case_pushout,
        spec: specs::bus_worst_case_pushout_spec,
        evaluator: &BusCrosstalkEvaluator,
    },
    Sweep {
        name: "mor_accuracy_vs_order",
        build: specs::mor_accuracy_vs_order,
        spec: specs::mor_accuracy_vs_order_spec,
        evaluator: &ReducedDelayEvaluator,
    },
    Sweep {
        name: "tree_worst_sink_delay",
        build: specs::tree_worst_sink_delay,
        spec: specs::tree_worst_sink_delay_spec,
        evaluator: &TreeDelayEvaluator,
    },
];
/// Index of the MOR figure in `SWEEPS`.
const MOR: usize = 3;

/// The committed CSV bytes of each figure, in `SWEEPS` order.
///
/// # Errors
///
/// Returns an unreadable file as text.
fn load_expected() -> Result<Vec<String>, String> {
    SWEEPS
        .iter()
        .zip(FIGURES.iter())
        .map(|(sweep, figure)| {
            assert_eq!(sweep.name, figure.name, "SWEEPS must follow FIGURES");
            let path = Path::new(DIR).join(figure.file);
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect()
}

/// Whether a built figure renders to its committed bytes.
fn matches(name: &str, built: Result<SweepResult, SweepError>, expected: &str) -> bool {
    match built {
        Ok(result) if CsvSink.render(&result) == expected => true,
        Ok(_) => {
            eprintln!("figures: {name} differs from the committed CSV");
            false
        }
        Err(e) => {
            eprintln!("figures: {name} failed: {e}");
            false
        }
    }
}

/// The traced run.
///
/// # Errors
///
/// Returns set-up, grid and evaluation errors as text.
pub fn run(args: &Args, trace: &mut Trace) -> Result<(), String> {
    let expected = load_expected()?;
    let options = SweepOptions::with_threads(THREADS);
    let phase = args.seconds / 3.0;
    let plain_s =
        closed_loop(phase, 1, None, None, &mut trace.outcomes, || Ok(figures::pass(&options)))?
            .latencies_s;

    let mut run_s = vec![Vec::new(); SWEEPS.len()];
    let mut check_s = Vec::new();
    let traced_s = closed_loop(phase, 1, None, None, &mut trace.outcomes, || {
        let mut ok = true;
        let mut checking = 0.0;
        for (i, sweep) in SWEEPS.iter().enumerate() {
            let (built, seconds) = timed(|| (sweep.build)(&options));
            run_s[i].push(seconds);
            let (passed, seconds) = timed(|| matches(sweep.name, built, &expected[i]));
            checking += seconds;
            ok &= passed;
        }
        check_s.push(checking);
        Ok(ok)
    })?
    .latencies_s;

    let (mut eval_total_s, mut cells, mut run_total_s) = (0.0, 0usize, 0.0);
    let mut key_s = Vec::new();
    for (i, sweep) in SWEEPS.iter().enumerate() {
        let evaluator = sweep.evaluator;
        let grid = (sweep.spec)().expand().map_err(|e| e.to_string())?;
        let mut eval_s = 0.0;
        for cell in &grid {
            let (row, seconds) = timed(|| evaluator.evaluate(&cell.scenario));
            row.map_err(|e| format!("{} cell {} failed: {e}", sweep.name, cell.index))?;
            eval_s += seconds;
            let (key, seconds) = timed(|| cache_key(evaluator, &cell.scenario));
            std::hint::black_box(key);
            key_s.push(seconds);
        }
        let run = stats::median(&run_s[i]);
        trace.set(
            &format!("sweep.run_ms.{}", sweep.name),
            run * 1e3,
            format!("median of n={} traced passes, {THREADS} threads", run_s[i].len()),
        );
        trace.set(
            &format!("sweep.eval_ms.{}", evaluator.name()),
            eval_s * 1e3,
            format!("sum over the {} cells, one thread", grid.len()),
        );
        eval_total_s += eval_s;
        cells += grid.len();
        run_total_s += run;
    }
    trace.set(
        "eval.cell_ms",
        eval_total_s / cells as f64 * 1e3,
        format!("mean over n={cells} figure cells, one thread"),
    );
    trace.set(
        "sweep.cache_key_us",
        stats::median(&key_s) * 1e6,
        format!("median of n={} cells", key_s.len()),
    );
    trace.set(
        "sweep.parallel_efficiency",
        eval_total_s / (THREADS as f64 * run_total_s),
        format!("sum of eval_ms / ({THREADS} threads x sum of run_ms)"),
    );

    let mut prima_s = Vec::new();
    for cell in (SWEEPS[MOR].spec)().expand().map_err(|e| e.to_string())? {
        let spec = scenario_ladder_spec(&cell.scenario).map_err(|e| e.to_string())?;
        let (reduced, seconds) =
            timed(|| reduce_ladder(&spec, cell.scenario.reduction_order, SolverBackend::Auto));
        reduced.map_err(|e| e.to_string())?;
        prima_s.push(seconds);
    }
    trace.set(
        "reduce.prima_ms",
        stats::median(&prima_s) * 1e3,
        format!("median of n={} MOR cells", prima_s.len()),
    );

    let check_ms = stats::median(&check_s) * 1e3;
    trace.closure(
        run_total_s * 1e3 + check_ms,
        stats::median(&plain_s) * 1e3,
        "sum of sweep.run_ms + CSV render and compare",
        "the builders and CSV checks cover a traced pass, so the gap is the plain passes \
         running slower than the traced ones (trace.overhead_pct)",
    );
    trace.overhead(&traced_s, &plain_s);
    Ok(())
}
