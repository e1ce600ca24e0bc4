//! The [`Evaluator`] trait plus built-in evaluators wiring every subsystem of
//! the workspace — delay models (`rlckit-core`), repeater insertion
//! (`rlckit-repeater`) and coupled buses (`rlckit-coupling`) — into the sweep
//! engine.
//!
//! An evaluator maps one resolved [`Scenario`] to a fixed row of named `f64`
//! metrics. Evaluators must be pure functions of the scenario ([`Sync`], no
//! interior mutability): the executor calls them from worker threads and the
//! cache assumes a scenario always produces the same row.

use rlckit_circuit::ladder::{measure_step_delay, LadderSpec};
use rlckit_circuit::mesh::measure_mesh_delay;
use rlckit_circuit::tree::measure_tree_delays;
use rlckit_circuit::SolverBackend;
use rlckit_core::load::GateRlcLoad;
use rlckit_core::model::propagation_delay;
use rlckit_core::rc_models;
use rlckit_coupling::bus::{CoupledBus, UniformBusSpec};
use rlckit_coupling::crosstalk::crosstalk_metrics;
use rlckit_coupling::netlist::BusDrive;
use rlckit_coupling::repeater::evaluate_bus_repeaters;
use rlckit_interconnect::{DistributedLine, MeshGeometry, RoutingTree, Technology};
use rlckit_netlist::{measure_sram_read, SramArraySpec};
use rlckit_reduce::reduce_ladder;
use rlckit_repeater::comparison;
use rlckit_repeater::tree::evaluate_tree_repeaters;
use rlckit_repeater::RepeaterProblem;
use rlckit_units::{CapacitancePerLength, InductancePerLength, Length, ResistancePerLength};

use crate::error::SweepError;
use crate::scenario::Scenario;

/// Maps one scenario to a fixed-width row of named metrics.
///
/// Implementations must be deterministic: the executor memoises rows by a
/// content hash of the scenario and replays them on later runs.
pub trait Evaluator: Sync {
    /// Stable evaluator name (part of the cache key).
    fn name(&self) -> &'static str;

    /// Metric column names, in the order [`Evaluator::evaluate`] returns them.
    fn columns(&self) -> &'static [&'static str];

    /// Computes the metric row for one scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Evaluation`] when the scenario cannot be built or
    /// measured (invalid parameters, no 50% crossing, …).
    fn evaluate(&self, scenario: &Scenario) -> Result<Vec<f64>, SweepError>;
}

/// Builds the scenario's distributed line: the technology's wide global wire
/// with any per-unit-length overrides applied.
pub fn scenario_line(s: &Scenario) -> Result<DistributedLine, SweepError> {
    let tech = s.technology.technology();
    let base = tech.global_wire;
    let r = s
        .resistance_ohm_per_mm
        .map(ResistancePerLength::from_ohms_per_millimeter)
        .unwrap_or(base.resistance);
    let l = s
        .inductance_nh_per_mm
        .map(InductancePerLength::from_nanohenries_per_millimeter)
        .unwrap_or(base.inductance);
    let c = s
        .capacitance_ff_per_um
        .map(CapacitancePerLength::from_femtofarads_per_micrometer)
        .unwrap_or(base.capacitance);
    Ok(DistributedLine::new(r, l, c, Length::from_millimeters(s.line_length_mm))?)
}

/// Builds the scenario's coupled bus from the same wire parameters plus the
/// bus-layout fields (`bus_lines`, coupling values, shielding).
pub(crate) fn scenario_bus(s: &Scenario) -> Result<CoupledBus, SweepError> {
    let line = scenario_line(s)?;
    // Inductive coupling falls off ~0.43× per pitch of separation (the repo's
    // bus idiom: 0.35 → 0.15 in the examples). Shield interleaving doubles the
    // conductor count, and shields do NOT remove mutual inductance — signal
    // pairs then sit at separations 2, 4, … — so the falloff vector must cover
    // every separation of the *built* conductor set, not just the signal count.
    let conductors = if s.shielded { 2 * s.bus_lines.max(1) - 1 } else { s.bus_lines };
    let inductive_coupling: Vec<f64> =
        (1..conductors.max(2)).map(|d| s.inductive_coupling * 0.43f64.powi(d as i32 - 1)).collect();
    let spec = UniformBusSpec {
        lines: s.bus_lines,
        resistance: line.resistance_per_length(),
        self_inductance: line.inductance_per_length(),
        ground_capacitance: line.capacitance_per_length(),
        coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(
            s.coupling_cap_ff_per_um,
        ),
        inductive_coupling,
        length: Length::from_millimeters(s.line_length_mm),
    };
    Ok(if s.shielded { spec.build_shielded()? } else { spec.build()? })
}

/// Builds the scenario's single-line ladder specification: the scenario wire
/// driven by the size-`h` buffer, discretised into `ladder_sections`
/// π-segments per millimetre-independent section count.
pub fn scenario_ladder_spec(s: &Scenario) -> Result<LadderSpec, SweepError> {
    let tech = s.technology.technology();
    let line = scenario_line(s)?;
    let mut spec = LadderSpec::new(
        line.total_resistance(),
        line.total_inductance(),
        line.total_capacitance(),
        tech.buffer_resistance(s.driver_size)?,
        tech.buffer_capacitance(s.driver_size)?,
    );
    spec.segments = s.ladder_sections.max(1);
    spec.supply = tech.supply;
    Ok(spec)
}

fn scenario_drive(s: &Scenario) -> Result<(Technology, BusDrive), SweepError> {
    let tech = s.technology.technology();
    let drive = BusDrive::new(
        tech.buffer_resistance(s.driver_size)?,
        tech.buffer_capacitance(s.driver_size)?,
        tech.supply,
    )
    .with_sections(s.ladder_sections);
    Ok((tech, drive))
}

/// Closed-form delay models (`rlckit-core`): the paper's Eq. (9) against the
/// RC baselines it improves on, for the scenario line driven by a size-`h`
/// buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayModelEvaluator;

impl Evaluator for DelayModelEvaluator {
    fn name(&self) -> &'static str {
        "delay_model"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "rlc_delay_ps",
            "elmore_delay_ps",
            "sakurai_delay_ps",
            "lumped_rc_delay_ps",
            "elmore_error_pct",
            "sakurai_error_pct",
            "lumped_rc_error_pct",
            "zeta",
        ]
    }

    fn evaluate(&self, s: &Scenario) -> Result<Vec<f64>, SweepError> {
        let tech = s.technology.technology();
        let line = scenario_line(s)?;
        let load = GateRlcLoad::from_line(
            &line,
            tech.buffer_resistance(s.driver_size)?,
            tech.buffer_capacitance(s.driver_size)?,
        )?;
        let rlc = propagation_delay(&load).picoseconds();
        let elmore = rc_models::elmore_delay(&load).picoseconds();
        let sakurai = rc_models::sakurai_delay(&load).picoseconds();
        let lumped = rc_models::lumped_rc_delay(&load).picoseconds();
        let err = |rc: f64| 100.0 * (rc - rlc) / rlc;
        Ok(vec![rlc, elmore, sakurai, lumped, err(elmore), err(sakurai), err(lumped), load.zeta()])
    }
}

/// Repeater insertion (`rlckit-repeater`): the Bakoglu RC and Ismail–Friedman
/// RLC optima for the scenario line, plus the delay/area/energy penalties of
/// designing RC-only (Eqs. 14–18).
#[derive(Debug, Clone, Copy, Default)]
pub struct RepeaterOptimumEvaluator;

impl Evaluator for RepeaterOptimumEvaluator {
    fn name(&self) -> &'static str {
        "repeater_optimum"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "t_l_over_r",
            "h_rc",
            "k_rc",
            "h_rlc",
            "k_rlc",
            "rc_delay_ps",
            "rlc_delay_ps",
            "delay_penalty_pct",
            "area_penalty_pct",
            "energy_penalty_pct",
        ]
    }

    fn evaluate(&self, s: &Scenario) -> Result<Vec<f64>, SweepError> {
        let tech = s.technology.technology();
        let line = scenario_line(s)?;
        let problem = RepeaterProblem::for_line(&line, &tech)?;
        let cmp = comparison::compare(&problem)?;
        Ok(vec![
            cmp.t_l_over_r,
            cmp.rc_design.size,
            cmp.rc_design.sections,
            cmp.rlc_design.size,
            cmp.rlc_design.sections,
            cmp.rc_design.total_delay.picoseconds(),
            cmp.rlc_design.total_delay.picoseconds(),
            cmp.delay_increase_percent,
            cmp.area_increase_percent,
            cmp.energy_increase_percent,
        ])
    }
}

/// An explicit repeater design point (`rlckit-repeater`): evaluates
/// `tpdtotal(h, k)` at the scenario's `driver_size` and `sections` — the
/// knobs an `(h, k)` sweep axis drives directly — plus the area/energy of
/// that design and its delay overhead against the closed-form RLC optimum.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepeaterDesignPointEvaluator;

impl Evaluator for RepeaterDesignPointEvaluator {
    fn name(&self) -> &'static str {
        "repeater_design_point"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["total_delay_ps", "area_um2", "energy_fj", "delay_vs_optimum_pct"]
    }

    fn evaluate(&self, s: &Scenario) -> Result<Vec<f64>, SweepError> {
        let tech = s.technology.technology();
        let line = scenario_line(s)?;
        let problem = RepeaterProblem::for_line(&line, &tech)?;
        let design = problem.design(s.driver_size, s.sections)?;
        let optimum = problem.rlc_optimum();
        let delay = design.total_delay.picoseconds();
        let opt = optimum.total_delay.picoseconds();
        Ok(vec![
            delay,
            problem.repeater_area(&design).square_micrometers(),
            problem.switching_energy(&design).joules() * 1e15,
            100.0 * (delay - opt) / opt,
        ])
    }
}

/// Reduced-order delay evaluation (`rlckit-reduce`): the order-`q` PRIMA
/// model's closed-form `delay_50`/overshoot/settling against the full
/// transient simulation of the same ladder — the accuracy-vs-order story
/// behind `FIG_mor_accuracy_vs_order.csv` and the speed story behind
/// `BENCH_mor.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReducedDelayEvaluator;

impl Evaluator for ReducedDelayEvaluator {
    fn name(&self) -> &'static str {
        "reduced_delay"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "order",
            "reduced_delay_ps",
            "transient_delay_ps",
            "delay_error_pct",
            "reduced_overshoot_pct",
            "transient_overshoot_pct",
            "settling_ps",
        ]
    }

    fn evaluate(&self, s: &Scenario) -> Result<Vec<f64>, SweepError> {
        let spec = scenario_ladder_spec(s)?;
        let reduced = reduce_ladder(&spec, s.reduction_order, SolverBackend::Auto)?;
        let metrics = reduced.metrics()?;
        let full = measure_step_delay(&spec)?;
        let fast = metrics.delay_50.picoseconds();
        let reference = full.delay_50.picoseconds();
        Ok(vec![
            s.reduction_order as f64,
            fast,
            reference,
            100.0 * (fast - reference).abs() / reference,
            metrics.overshoot_percent,
            full.overshoot_percent,
            metrics.settling_time.picoseconds(),
        ])
    }
}

/// Coupled-bus crosstalk (`rlckit-coupling`): transient simulation of the
/// victim-quiet, odd-mode and even-mode patterns plus the isolated-line
/// baseline, on the scenario bus. The victim is the middle signal wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusCrosstalkEvaluator;

impl Evaluator for BusCrosstalkEvaluator {
    fn name(&self) -> &'static str {
        "bus_crosstalk"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "isolated_delay_ps",
            "even_delay_ps",
            "odd_delay_ps",
            "pushout_ps",
            "pullin_ps",
            "pushout_pct",
            "noise_frac",
        ]
    }

    fn evaluate(&self, s: &Scenario) -> Result<Vec<f64>, SweepError> {
        let bus = scenario_bus(s)?;
        let (tech, drive) = scenario_drive(s)?;
        let victim = bus.signal_count() / 2;
        let m = crosstalk_metrics(&bus, victim, &drive)?;
        Ok(vec![
            m.isolated_delay.picoseconds(),
            m.even_mode_delay.picoseconds(),
            m.odd_mode_delay.picoseconds(),
            m.pushout().picoseconds(),
            m.pullin().picoseconds(),
            100.0 * m.pushout().seconds() / m.isolated_delay.seconds(),
            m.noise_fraction(tech.supply),
        ])
    }
}

/// Bus-aware repeater evaluation (`rlckit-coupling`): how far worst-case
/// (odd-mode) switching pushes the paper's closed-form repeater optimum for
/// the victim wire, and where the simulated worst-case optimum moves.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusRepeaterEvaluator;

impl Evaluator for BusRepeaterEvaluator {
    fn name(&self) -> &'static str {
        "bus_repeater"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "k_isolated",
            "k_bus",
            "section_shift",
            "even_total_ps",
            "worst_total_ps",
            "bus_worst_total_ps",
            "pushout_frac",
        ]
    }

    fn evaluate(&self, s: &Scenario) -> Result<Vec<f64>, SweepError> {
        let bus = scenario_bus(s)?;
        let tech = s.technology.technology();
        let victim = bus.signal_count() / 2;
        let shift = evaluate_bus_repeaters(&bus, victim, &tech, s.ladder_sections)?;
        Ok(vec![
            shift.isolated_optimum.rounded_sections() as f64,
            shift.bus_sections as f64,
            shift.section_shift() as f64,
            shift.even_mode_delay.picoseconds(),
            shift.worst_case_delay.picoseconds(),
            shift.bus_worst_case_delay.picoseconds(),
            shift.pushout_fraction(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TechnologyNode;

    #[test]
    fn delay_model_rows_match_their_columns() {
        let eval = DelayModelEvaluator;
        let row = eval.evaluate(&Scenario::default()).unwrap();
        assert_eq!(row.len(), eval.columns().len());
        let rlc = row[0];
        let elmore = row[1];
        assert!(rlc > 0.0 && elmore > rlc, "Elmore must be pessimistic on the default wire");
        assert!(row[4] > 0.0, "Elmore error percentage must be positive");
    }

    #[test]
    fn repeater_optimum_shows_the_paper_shift() {
        let eval = RepeaterOptimumEvaluator;
        let s = Scenario { line_length_mm: 50.0, ..Scenario::default() };
        let row = eval.evaluate(&s).unwrap();
        assert_eq!(row.len(), eval.columns().len());
        let (k_rc, k_rlc) = (row[2], row[4]);
        assert!(k_rlc < k_rc, "inductance must reduce the optimal repeater count");
        assert!(row[7] > 0.0 && row[8] > 0.0, "penalties must be positive");
    }

    #[test]
    fn line_overrides_replace_the_technology_wire() {
        let s = Scenario {
            resistance_ohm_per_mm: Some(3.0),
            inductance_nh_per_mm: Some(0.7),
            capacitance_ff_per_um: Some(0.3),
            line_length_mm: 10.0,
            ..Scenario::default()
        };
        let line = scenario_line(&s).unwrap();
        assert!((line.total_resistance().ohms() - 30.0).abs() < 1e-9);
        assert!((line.total_inductance().henries() - 7.0e-9).abs() < 1e-18);
        assert!((line.total_capacitance().farads() - 3.0e-12).abs() < 1e-21);
    }

    #[test]
    fn scenario_bus_respects_layout_fields() {
        let s = Scenario { bus_lines: 2, line_length_mm: 1.0, ..Scenario::default() };
        let bus = scenario_bus(&s).unwrap();
        assert_eq!(bus.signal_count(), 2);
        assert_eq!(bus.conductors(), 2);
        let shielded = scenario_bus(&Scenario { shielded: true, ..s }).unwrap();
        assert_eq!(shielded.signal_count(), 2);
        assert_eq!(shielded.conductors(), 3, "a shield is interleaved");
    }

    #[test]
    fn inductive_coupling_survives_shield_interleaving() {
        // Shields remove capacitive neighbours, not mutual inductance: the
        // signal pair of a shielded 2-line bus sits at separation 2 and must
        // keep the documented k1·0.43^(d−1) falloff.
        let s = Scenario {
            bus_lines: 2,
            line_length_mm: 1.0,
            inductive_coupling: 0.35,
            shielded: true,
            ..Scenario::default()
        };
        let bus = scenario_bus(&s).unwrap();
        let k = bus.coupling_coefficient(0, 2);
        assert!((k - 0.35 * 0.43).abs() < 1e-12, "signal-signal k = {k}");
        // Unshielded 4-line bus: separation 3 keeps a geometric tail too.
        let s = Scenario { bus_lines: 4, line_length_mm: 1.0, ..Scenario::default() };
        let bus = scenario_bus(&s).unwrap();
        let k = bus.coupling_coefficient(0, 3);
        assert!((k - 0.35 * 0.43 * 0.43).abs() < 1e-12, "separation-3 k = {k}");
    }

    #[test]
    fn repeater_design_point_consumes_the_sections_axis() {
        let eval = RepeaterDesignPointEvaluator;
        let base = Scenario { line_length_mm: 50.0, driver_size: 50.0, ..Scenario::default() };
        let one = eval.evaluate(&Scenario { sections: 1.0, ..base.clone() }).unwrap();
        let four = eval.evaluate(&Scenario { sections: 4.0, ..base }).unwrap();
        assert_eq!(one.len(), eval.columns().len());
        assert_ne!(one[0], four[0], "the sections axis must change the design point");
        assert!(four[1] > one[1], "more repeaters must cost more area");
        assert!(four[2] > one[2], "more repeaters must switch more energy");
        assert!(one[3] >= 0.0 && four[3] >= 0.0, "no design beats the optimum");
    }

    #[test]
    fn bus_crosstalk_orders_the_three_delays() {
        // Tiny bus so the debug-profile transient stays quick.
        let s = Scenario {
            technology: TechnologyNode::N180,
            bus_lines: 2,
            line_length_mm: 2.0,
            driver_size: 40.0,
            ladder_sections: 4,
            ..Scenario::default()
        };
        let eval = BusCrosstalkEvaluator;
        let row = eval.evaluate(&s).unwrap();
        assert_eq!(row.len(), eval.columns().len());
        let (isolated, even, odd) = (row[0], row[1], row[2]);
        assert!(odd > isolated && isolated > even, "odd {odd} / iso {isolated} / even {even}");
        assert!(row[5] > 0.0, "push-out percentage must be positive");
        assert!(row[6] > 0.0 && row[6] < 1.0, "noise fraction in (0, 1)");
    }

    #[test]
    fn reduced_delay_tracks_the_transient_at_moderate_order() {
        // Coarse ladder + q = 6 keeps the debug-profile cost of the
        // reference transient small; the reduced delay must sit within a
        // few per cent of it and the error column must be consistent. The
        // wire overrides pin the paper's RLC regime (R = 500 Ω, 10 nH,
        // 1 pF): on nearly lossless tech wires the delay is wave-dominated
        // and converges slowly in `q` — a documented MOR limitation, not
        // what this test is about.
        let s = Scenario {
            line_length_mm: 5.0,
            resistance_ohm_per_mm: Some(100.0),
            inductance_nh_per_mm: Some(2.0),
            capacitance_ff_per_um: Some(0.2),
            ladder_sections: 10,
            reduction_order: 6,
            ..Scenario::default()
        };
        let eval = ReducedDelayEvaluator;
        let row = eval.evaluate(&s).unwrap();
        assert_eq!(row.len(), eval.columns().len());
        assert_eq!(row[0], 6.0, "order column echoes the scenario");
        let (fast, reference, err_pct) = (row[1], row[2], row[3]);
        assert!(fast > 0.0 && reference > 0.0);
        assert!(err_pct < 3.0, "order-6 delay error {err_pct}% too large");
        assert!((err_pct - 100.0 * (fast - reference).abs() / reference).abs() < 1e-9);
        assert!(row[6] > fast, "settling time must exceed the 50% delay");
    }

    #[test]
    fn mesh_delay_rows_match_their_columns_and_grow_with_the_grid() {
        let base = Scenario {
            technology: TechnologyNode::N180,
            line_length_mm: 2.0,
            driver_size: 40.0,
            mesh_rows: 4,
            mesh_cols: 4,
            ..Scenario::default()
        };
        let eval = MeshDelayEvaluator;
        let small = eval.evaluate(&base).unwrap();
        assert_eq!(small.len(), eval.columns().len());
        assert!(small[0] > 0.0 && small[1] > 0.0, "delay and rise time positive");
        assert_eq!(small[3], 18.0, "4×4 grid + pad + source branch");
        // The grid spans the same line length, so refining it adds unknowns
        // while the total wire stays in the same ballpark (52 segments of
        // pitch L/7 vs 24 of pitch L/3).
        let wide = eval.evaluate(&Scenario { mesh_rows: 4, mesh_cols: 8, ..base }).unwrap();
        assert_eq!(wide[3], 34.0);
        assert!((wide[4] / small[4] - 52.0 / 7.0 * 3.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_scenarios_surface_as_evaluation_errors() {
        let s = Scenario { line_length_mm: -1.0, ..Scenario::default() };
        assert!(matches!(DelayModelEvaluator.evaluate(&s), Err(SweepError::Evaluation { .. })));
        let s = Scenario { driver_size: 0.0, ..Scenario::default() };
        assert!(DelayModelEvaluator.evaluate(&s).is_err());
    }

    #[test]
    fn sram_read_rows_match_their_columns_and_grow_with_the_array() {
        let eval = SramReadEvaluator;
        let small = eval.evaluate(&Scenario { sram_rows: 2, sram_cols: 2, ..Scenario::default() });
        let small = small.unwrap();
        assert_eq!(small.len(), eval.columns().len());
        assert!(small[0] > 0.0 && small[1] > 0.0, "delay and rise time positive");
        assert_eq!(small[2], 15.0, "3·rows·cols + 3 unknowns");
        assert_eq!(small[3], 4.0);
        let wide =
            eval.evaluate(&Scenario { sram_rows: 4, sram_cols: 4, ..Scenario::default() }).unwrap();
        assert_eq!(wide[2], 51.0);
        assert!(wide[0] > small[0], "a longer wordline/bitline path reads slower");
        // Degenerate arrays surface as evaluation errors, not panics.
        let bad = eval.evaluate(&Scenario { sram_rows: 0, sram_cols: 4, ..Scenario::default() });
        assert!(matches!(bad, Err(SweepError::Evaluation { .. })));
    }
}

/// The branching-tree workload (`rlckit-interconnect` → `rlckit-circuit` →
/// `rlckit-repeater`): a symmetric routing tree whose every root-to-sink
/// path is electrically the scenario line, simulated once for per-sink
/// timing (tree MNA systems route to the sparse solver backend) and
/// evaluated per path with the paper's repeater closed forms.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeDelayEvaluator;

impl Evaluator for TreeDelayEvaluator {
    fn name(&self) -> &'static str {
        "tree_delay"
    }

    fn columns(&self) -> &'static [&'static str] {
        &[
            "worst_sink_delay_ps",
            "sink_spread_ps",
            "worst_overshoot_pct",
            "sinks",
            "repeater_rlc_delay_ps",
            "repeater_rc_delay_ps",
            "rc_penalty_pct",
        ]
    }

    fn evaluate(&self, s: &Scenario) -> Result<Vec<f64>, SweepError> {
        let tech = s.technology.technology();
        let line = scenario_line(s)?;
        let tree = RoutingTree::symmetric(
            &line,
            s.tree_levels,
            s.tree_fanout,
            tech.buffer_capacitance(s.driver_size)?,
        )?;
        let spec = tree.to_tree_spec(
            tech.buffer_resistance(s.driver_size)?,
            tech.supply,
            s.ladder_sections.max(1),
        )?;
        let report = measure_tree_delays(&spec)?;
        let repeaters = evaluate_tree_repeaters(&tree, &tech)?;
        let worst = report.worst_sink();
        Ok(vec![
            worst.delay_50.picoseconds(),
            report.sink_spread().picoseconds(),
            report.worst_overshoot_percent(),
            report.sinks.len() as f64,
            repeaters.worst_sink_delay_rlc().picoseconds(),
            repeaters.worst_sink_delay_rc().picoseconds(),
            repeaters.rc_design_penalty_percent(),
        ])
    }
}

/// The power/clock-mesh workload (`rlckit-interconnect` → `rlckit-circuit`):
/// a `mesh_rows × mesh_cols` grid of scenario wire spanning the scenario
/// line length along its longer side, driven at the near corner by the
/// size-`h` buffer and measured at the far corner. Grid MNA systems force
/// genuine fill, so this is the sweep-level face of the sparse kernel's
/// AMD-plus-refactorization path.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeshDelayEvaluator;

impl Evaluator for MeshDelayEvaluator {
    fn name(&self) -> &'static str {
        "mesh_delay"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["far_corner_delay_ps", "rise_time_ps", "overshoot_pct", "unknowns", "total_wire_mm"]
    }

    fn evaluate(&self, s: &Scenario) -> Result<Vec<f64>, SweepError> {
        let tech = s.technology.technology();
        let line = scenario_line(s)?;
        let span = s.mesh_rows.max(s.mesh_cols).saturating_sub(1).max(1);
        let pitch = line.with_length(line.length() / span as f64)?;
        let mesh = MeshGeometry::new(s.mesh_rows, s.mesh_cols, pitch)?;
        let spec = mesh.to_mesh_spec(tech.buffer_resistance(s.driver_size)?, tech.supply, false)?;
        let report = measure_mesh_delay(&spec)?;
        Ok(vec![
            report.delay_50.picoseconds(),
            report.rise_time.picoseconds(),
            report.overshoot_percent,
            spec.unknown_count() as f64,
            mesh.total_wire_length().millimeters(),
        ])
    }
}

/// The netlist-frontend workload (`rlckit-netlist` → `rlckit-circuit`): a
/// `sram_rows × sram_cols` SRAM bitline/wordline array emitted as a SPICE
/// deck, lowered back through the parser, and simulated for the far-corner
/// read delay. Unlike every other evaluator this one reaches the MNA stamps
/// through deck text, so sweeping it continuously exercises the
/// parse → lower → simulate path end to end.
#[derive(Debug, Clone, Copy, Default)]
pub struct SramReadEvaluator;

impl Evaluator for SramReadEvaluator {
    fn name(&self) -> &'static str {
        "sram_read"
    }

    fn columns(&self) -> &'static [&'static str] {
        &["read_delay_ps", "rise_time_ps", "unknowns", "cells"]
    }

    fn evaluate(&self, s: &Scenario) -> Result<Vec<f64>, SweepError> {
        let spec = SramArraySpec::new(s.sram_rows, s.sram_cols);
        let report = measure_sram_read(&spec, SolverBackend::Auto)?;
        Ok(vec![
            report.delay_50.picoseconds(),
            report.rise_time.picoseconds(),
            report.unknowns as f64,
            (s.sram_rows * s.sram_cols) as f64,
        ])
    }
}
