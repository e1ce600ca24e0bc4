//! Paper-figure reproduction pipeline: the sweeps behind the committed
//! `figures/FIG_*.csv` artifacts.
//!
//! Each builder returns a [`SweepResult`] for one paper-style dataset:
//!
//! 1. [`delay_error_surface`] — the RC models' delay error against the
//!    paper's Eq. (9) over a line-length × driver-strength grid (the Table 1 /
//!    Figure 2 story: RC-only estimates drift badly as inductance matters);
//! 2. [`repeater_optimum_vs_inductance`] — the optimal repeater count `k` and
//!    size `h` (RC vs RLC closed forms) as the per-unit-length inductance
//!    grows (the Figure 4 / Table 2 story: inductance wants fewer, smaller
//!    repeaters) plus the delay/area/energy penalties of ignoring it;
//! 3. [`bus_worst_case_pushout`] — worst-case-switching delay push-out and
//!    victim noise on a coupled bus as the pitch tightens, with and without
//!    grounded shields (the crosstalk extension);
//! 4. [`mor_accuracy_vs_order`] — the PRIMA reduced model's delay and
//!    overshoot against the full transient of the same ladder as the Krylov
//!    order grows;
//! 5. [`tree_worst_sink_delay`] — worst-sink delay, sink skew and per-path
//!    repeater penalties of symmetric routing trees across fan-out and
//!    per-unit-length inductance.
//!
//! The grids are deliberately **smoke-sized**: every dataset regenerates in
//! seconds in release mode, so CI can re-run the whole pipeline and fail on
//! any drift between the code and the committed CSVs. Pass more cells through
//! your own [`SweepSpec`] when you need plot-quality resolution.

use std::path::Path;

use crate::error::SweepError;
use crate::eval::{
    BusCrosstalkEvaluator, DelayModelEvaluator, ReducedDelayEvaluator, RepeaterOptimumEvaluator,
    TreeDelayEvaluator,
};
use crate::exec::{run_sweep, SweepOptions, SweepResult};
use crate::scenario::{Param, Scenario, TechnologyNode};
use crate::sink::CsvSink;
use crate::spec::{Axis, SweepSpec};

/// Metadata of one figure dataset: its artifact file and what it shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure {
    /// Stable dataset name.
    pub name: &'static str,
    /// Artifact file name under `figures/`.
    pub file: &'static str,
    /// One-line description of what the dataset reproduces.
    pub description: &'static str,
}

/// The committed figure datasets, in pipeline order.
pub const FIGURES: [Figure; 5] = [
    Figure {
        name: "delay_error_surface",
        file: "FIG_delay_error_surface.csv",
        description: "RC-model delay error vs Eq. (9) over line length x driver strength",
    },
    Figure {
        name: "repeater_optimum_vs_inductance",
        file: "FIG_repeater_optimum_vs_inductance.csv",
        description: "optimal repeater (h, k) and RC-design penalties vs inductance per length",
    },
    Figure {
        name: "bus_worst_case_pushout",
        file: "FIG_bus_worst_case_pushout.csv",
        description: "coupled-bus worst-case delay push-out vs pitch, with and without shields",
    },
    Figure {
        name: "mor_accuracy_vs_order",
        file: "FIG_mor_accuracy_vs_order.csv",
        description: "reduced-order delay/overshoot error vs Krylov order, against the transient",
    },
    Figure {
        name: "tree_worst_sink_delay",
        file: "FIG_tree_worst_sink_delay.csv",
        description: "worst-sink delay and RC-design penalty of a branching net vs fan-out and L",
    },
];

/// The sweep behind `FIG_delay_error_surface.csv`: Eq. (9) against the RC
/// baselines on the 0.25 µm global wire, over length × driver size.
pub fn delay_error_surface_spec() -> SweepSpec {
    SweepSpec::new(Scenario::default())
        .axis(Axis::new("length_mm", [2.0, 5.0, 10.0, 20.0, 30.0, 50.0].map(Param::LineLengthMm)))
        .axis(Axis::new("h", [10.0, 25.0, 50.0, 100.0, 200.0].map(Param::DriverSize)))
}

/// Builds the delay-error-surface dataset.
///
/// # Errors
///
/// Propagates sweep/spec errors; the evaluator itself cannot fail on this grid.
pub fn delay_error_surface(options: &SweepOptions) -> Result<SweepResult, SweepError> {
    run_sweep(&delay_error_surface_spec(), &DelayModelEvaluator, options)
}

/// The sweep behind `FIG_repeater_optimum_vs_inductance.csv`: a fixed 30 mm
/// wire whose per-unit-length inductance sweeps from negligible to strongly
/// inductive (the paper's `T_{L/R}` knob).
pub fn repeater_optimum_vs_inductance_spec() -> SweepSpec {
    let base = Scenario { line_length_mm: 30.0, ..Scenario::default() };
    SweepSpec::new(base).axis(Axis::new(
        "l_nh_per_mm",
        [0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0].map(Param::InductanceNhPerMm),
    ))
}

/// Builds the repeater-optimum-vs-inductance dataset.
///
/// # Errors
///
/// Propagates sweep/spec errors; the evaluator itself cannot fail on this grid.
pub fn repeater_optimum_vs_inductance(options: &SweepOptions) -> Result<SweepResult, SweepError> {
    run_sweep(&repeater_optimum_vs_inductance_spec(), &RepeaterOptimumEvaluator, options)
}

/// The sweep behind `FIG_bus_worst_case_pushout.csv`: a 3-wire 0.18 µm bus
/// whose pitch tightens along a **zipped** axis (coupling capacitance and
/// inductive coupling grow together, as they do physically), crossed with
/// shield insertion.
pub fn bus_worst_case_pushout_spec() -> SweepSpec {
    let base = Scenario {
        technology: TechnologyNode::N180,
        line_length_mm: 3.0,
        driver_size: 40.0,
        bus_lines: 3,
        ladder_sections: 8,
        ..Scenario::default()
    };
    let pitch = Axis::zipped(
        "pitch",
        ["wide", "nominal", "tight", "minimum"].map(str::to_owned),
        [
            vec![Param::CouplingCapFfPerUm(0.04), Param::InductiveCoupling(0.2)],
            vec![Param::CouplingCapFfPerUm(0.08), Param::InductiveCoupling(0.3)],
            vec![Param::CouplingCapFfPerUm(0.12), Param::InductiveCoupling(0.4)],
            vec![Param::CouplingCapFfPerUm(0.16), Param::InductiveCoupling(0.5)],
        ],
    )
    .expect("static pitch axis is well-formed");
    SweepSpec::new(base).axis(pitch).axis(Axis::new("shielded", [false, true].map(Param::Shielded)))
}

/// Builds the bus worst-case push-out dataset (transient simulations; the
/// slowest of the three figures, still seconds in release mode).
///
/// # Errors
///
/// Propagates sweep/spec errors and the first simulation failure, if any.
pub fn bus_worst_case_pushout(options: &SweepOptions) -> Result<SweepResult, SweepError> {
    let result = run_sweep(&bus_worst_case_pushout_spec(), &BusCrosstalkEvaluator, options)?;
    if let Some((index, error)) = result.first_error() {
        return Err(SweepError::Evaluation {
            reason: format!("bus figure cell {index} failed: {error}"),
        });
    }
    Ok(result)
}

/// The sweep behind `FIG_mor_accuracy_vs_order.csv`: the PRIMA reduction of
/// the paper's driven line at growing Krylov order `q`, each cell comparing
/// the closed-form reduced `delay_50`/overshoot against the full transient
/// of the same ladder (the accuracy half of the MOR story; `BENCH_mor.json`
/// is the speed half).
pub fn mor_accuracy_vs_order_spec() -> SweepSpec {
    // The paper's Fig. 1 line (R = 500 Ω, L = 10 nH, C = 1 pF over 10 mm)
    // via explicit overrides: a representative RLC regime where the MOR
    // error-vs-order story is clean. Nearly lossless tech wires are wave-
    // dominated and converge slowly in `q` — a separate (documented) story.
    let base = Scenario {
        resistance_ohm_per_mm: Some(50.0),
        inductance_nh_per_mm: Some(1.0),
        capacitance_ff_per_um: Some(0.1),
        ladder_sections: 24,
        ..Scenario::default()
    };
    // q starts at 2 — the paper's own two-pole order. An order-1 congruence
    // projection of an RLC pencil is degenerate (the lone basis vector can
    // make vᵀG'v ≈ 0, a spurious near-zero pole), so it carries no signal.
    SweepSpec::new(base).axis(Axis::new("q", [2usize, 3, 4, 6, 8, 10].map(Param::ReductionOrder)))
}

/// Builds the MOR accuracy-vs-order dataset (one transient reference per
/// cell; seconds in release mode).
///
/// # Errors
///
/// Propagates sweep/spec errors and the first reduction or simulation
/// failure, if any.
pub fn mor_accuracy_vs_order(options: &SweepOptions) -> Result<SweepResult, SweepError> {
    let result = run_sweep(&mor_accuracy_vs_order_spec(), &ReducedDelayEvaluator, options)?;
    if let Some((index, error)) = result.first_error() {
        return Err(SweepError::Evaluation {
            reason: format!("MOR figure cell {index} failed: {error}"),
        });
    }
    Ok(result)
}

/// The sweep behind `FIG_tree_worst_sink_delay.csv`: symmetric 3-level
/// routing trees whose root-to-sink paths are the paper's Fig. 1 regime over
/// 10 mm, across fan-out (1 = the uniform-line baseline) and per-unit-length
/// inductance. Worst-sink delay, sink skew and the per-path repeater
/// penalties come from one sparse-backend transient per cell.
pub fn tree_worst_sink_delay_spec() -> SweepSpec {
    let base = Scenario {
        resistance_ohm_per_mm: Some(50.0),
        inductance_nh_per_mm: Some(1.0),
        capacitance_ff_per_um: Some(0.1),
        tree_levels: 3,
        ..Scenario::default()
    };
    SweepSpec::new(base)
        .axis(Axis::new("fanout", [1usize, 2, 3].map(Param::TreeFanout)))
        .axis(Axis::new("l_nh_per_mm", [0.1, 0.5, 1.0, 2.0].map(Param::InductanceNhPerMm)))
}

/// Builds the tree worst-sink-delay dataset (one transient simulation per
/// cell on the sparse backend; seconds in release mode).
///
/// # Errors
///
/// Propagates sweep/spec errors and the first simulation failure, if any.
pub fn tree_worst_sink_delay(options: &SweepOptions) -> Result<SweepResult, SweepError> {
    let result = run_sweep(&tree_worst_sink_delay_spec(), &TreeDelayEvaluator, options)?;
    if let Some((index, error)) = result.first_error() {
        return Err(SweepError::Evaluation {
            reason: format!("tree figure cell {index} failed: {error}"),
        });
    }
    Ok(result)
}

/// Builds the dataset of `FIGURES[index]`.
fn build_figure(index: usize, options: &SweepOptions) -> Result<SweepResult, SweepError> {
    match index {
        0 => delay_error_surface(options),
        1 => repeater_optimum_vs_inductance(options),
        2 => bus_worst_case_pushout(options),
        3 => mor_accuracy_vs_order(options),
        4 => tree_worst_sink_delay(options),
        _ => unreachable!("FIGURES and build_figure must stay in sync"),
    }
}

/// Builds every figure dataset, in [`FIGURES`] order.
///
/// # Errors
///
/// Propagates the first builder failure.
pub(crate) fn build_all(options: &SweepOptions) -> Result<Vec<(Figure, SweepResult)>, SweepError> {
    FIGURES.iter().enumerate().map(|(i, &figure)| Ok((figure, build_figure(i, options)?))).collect()
}

/// Writes every figure CSV into `dir`, returning the written paths.
///
/// # Errors
///
/// Propagates builder and I/O errors.
pub fn write_all(
    options: &SweepOptions,
    dir: &Path,
) -> Result<Vec<std::path::PathBuf>, SweepError> {
    write_built(&build_all(options)?, dir)
}

/// Writes already-built figure datasets into `dir`.
fn write_built(
    built: &[(Figure, SweepResult)],
    dir: &Path,
) -> Result<Vec<std::path::PathBuf>, SweepError> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (figure, result) in built {
        let path = dir.join(figure.file);
        CsvSink.write(result, &path)?;
        written.push(path);
    }
    Ok(written)
}

/// Regenerates every figure in memory and compares against the committed
/// CSVs in `dir`. Returns the names of drifted or missing artifacts (empty
/// means everything matches byte-for-byte).
///
/// # Errors
///
/// Propagates builder and I/O errors (a missing file is reported as drift,
/// not an error).
pub fn check_all(options: &SweepOptions, dir: &Path) -> Result<Vec<&'static str>, SweepError> {
    drift(dir, |i| Ok(CsvSink.render(&build_figure(i, options)?)))
}

/// Compares `render(i)`, the CSV of `FIGURES[i]`, against the artifact in
/// `dir` for every figure.
fn drift(
    dir: &Path,
    mut render: impl FnMut(usize) -> Result<String, SweepError>,
) -> Result<Vec<&'static str>, SweepError> {
    let mut drifted = Vec::new();
    for (i, figure) in FIGURES.iter().enumerate() {
        // A missing artifact is drift on its own — no need to pay for the
        // sweep that would only confirm there is nothing to compare against.
        let Ok(committed) = std::fs::read_to_string(dir.join(figure.file)) else {
            drifted.push(figure.file);
            continue;
        };
        if render(i)? != committed {
            drifted.push(figure.file);
        }
    }
    Ok(drifted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_figures_have_the_paper_shape() {
        let options = SweepOptions::with_threads(2);
        let surface = delay_error_surface(&options).unwrap();
        assert_eq!(surface.rows.len(), 30);
        assert!(surface.first_error().is_none());

        let optimum = repeater_optimum_vs_inductance(&options).unwrap();
        assert_eq!(optimum.rows.len(), 11);
        assert!(optimum.first_error().is_none());
        // k_rlc (column 4) must fall monotonically as inductance grows, and the
        // area penalty (column 8) must grow.
        let k: Vec<f64> = optimum.rows.iter().map(|r| r.values.as_ref().unwrap()[4]).collect();
        assert!(k.windows(2).all(|w| w[1] <= w[0] + 1e-12), "k_rlc must not grow with L: {k:?}");
        let first = optimum.rows.first().unwrap().values.as_ref().unwrap()[8];
        let last = optimum.rows.last().unwrap().values.as_ref().unwrap()[8];
        assert!(last > first, "area penalty must grow with inductance");
    }

    #[test]
    fn figure_specs_expand_to_smoke_sized_grids() {
        assert_eq!(delay_error_surface_spec().len(), 30);
        assert_eq!(repeater_optimum_vs_inductance_spec().len(), 11);
        assert_eq!(bus_worst_case_pushout_spec().len(), 8);
        assert_eq!(mor_accuracy_vs_order_spec().len(), 6);
        assert_eq!(tree_worst_sink_delay_spec().len(), 12);
        assert_eq!(FIGURES.len(), 5);
    }

    #[test]
    fn check_reports_missing_artifacts_as_drift() {
        // The five figures are built once (the debug-time cost of this test);
        // both checks below compare against those renders.
        let dir =
            std::env::temp_dir().join(format!("rlckit-sweep-figcheck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let built = build_all(&SweepOptions::default()).unwrap();
        let render = |i: usize| Ok(CsvSink.render(&built[i].1));
        // Every artifact missing => one drift per figure.
        assert_eq!(drift(&dir, render).unwrap().len(), FIGURES.len());
        // Writing then re-checking must be clean.
        write_built(&built, &dir).unwrap();
        let drifted = drift(&dir, render).unwrap();
        assert!(drifted.is_empty(), "freshly written figures drifted: {drifted:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
