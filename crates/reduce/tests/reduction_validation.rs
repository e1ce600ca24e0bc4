//! Cross-validation of the reduction subsystem against the rest of the
//! workspace — the acceptance criteria of the MOR tentpole:
//!
//! 1. the `q = 2` reduction of a driven line reproduces the paper's
//!    two-pole model and the `TransferMoments` closed forms (`b₁..b₃`);
//! 2. order-`q ≥ 4` reductions match the full sparse transient
//!    `delay_50` to ≤ 1% on RC and RLC ladders;
//! 3. the same holds on a coupled 2-line bus, for both even- and odd-mode
//!    switching, and the full-order reduction lands on the converged
//!    transient.

use rlckit_circuit::ladder::{measure_step_delay, LadderSpec};
use rlckit_circuit::state_space::DescriptorStateSpace;
use rlckit_circuit::SolverBackend;
use rlckit_core::response::TwoPoleResponse;
use rlckit_coupling::bus::UniformBusSpec;
use rlckit_coupling::crosstalk::{simulate_bus, suggested_options};
use rlckit_coupling::netlist::BusDrive;
use rlckit_coupling::scenario::SwitchingPattern;
use rlckit_interconnect::moments::TransferMoments;
use rlckit_reduce::awe::{moments_of, pade_denominator};
use rlckit_reduce::{reduce_bus, reduce_ladder};
use rlckit_units::{Capacitance, Inductance, Resistance, Voltage};

fn paper_spec() -> LadderSpec {
    LadderSpec::new(
        Resistance::from_ohms(500.0),
        Inductance::from_nanohenries(10.0),
        Capacitance::from_picofarads(1.0),
        Resistance::from_ohms(250.0),
        Capacitance::from_picofarads(0.1),
    )
}

#[test]
fn q2_reduction_reproduces_transfer_moments_closed_forms() {
    // Moments of the finely segmented ladder must land on the distributed
    // closed forms of Eq. (7): the ladder converges O(1/N²), so at N = 200
    // the b's agree to ~1e-4 relative.
    let mut spec = paper_spec();
    spec.segments = 200;
    let line = spec.build().unwrap();
    let ss = DescriptorStateSpace::new(&line.circuit, &[line.source], &[line.output]).unwrap();
    let m = moments_of(&ss, 0, 0, 4, SolverBackend::Auto).unwrap();
    let d = pade_denominator(&m, 3).unwrap();

    let closed = TransferMoments::from_impedances(500.0, 10e-9, 1e-12, 250.0, 0.1e-12);
    let checks = [
        (d.coeffs()[1], closed.b1, "b1"),
        (d.coeffs()[2], closed.b2, "b2"),
        (d.coeffs()[3], closed.b3, "b3"),
    ];
    for (got, want, name) in checks {
        let err = (got - want).abs() / want.abs();
        assert!(err < 2e-3, "{name}: reduced {got:e} vs closed form {want:e} (err {err:e})");
    }
}

#[test]
fn q2_reduction_reproduces_the_papers_two_pole_model() {
    // Build the paper's two-pole response from the MOR-extracted b1/b2 and
    // from the closed-form moments: the two must predict the same delay.
    let mut spec = paper_spec();
    spec.segments = 200;
    let line = spec.build().unwrap();
    let ss = DescriptorStateSpace::new(&line.circuit, &[line.source], &[line.output]).unwrap();
    let m = moments_of(&ss, 0, 0, 3, SolverBackend::Auto).unwrap();
    let d = pade_denominator(&m, 2).unwrap();
    let reduced_two_pole = TwoPoleResponse::from_moments(&TransferMoments {
        b1: d.coeffs()[1],
        b2: d.coeffs()[2],
        b3: 0.0,
    });
    let closed = TransferMoments::from_impedances(500.0, 10e-9, 1e-12, 250.0, 0.1e-12);
    let paper_two_pole = TwoPoleResponse::from_moments(&closed);

    let dr = reduced_two_pole.delay_50().unwrap().seconds();
    let dp = paper_two_pole.delay_50().unwrap().seconds();
    let err = (dr - dp).abs() / dp;
    assert!(err < 2e-3, "two-pole delay from MOR {dr:e} vs paper {dp:e} (err {err:e})");
    assert!(
        (reduced_two_pole.damping_ratio() - paper_two_pole.damping_ratio()).abs()
            / paper_two_pole.damping_ratio()
            < 2e-3
    );
}

/// Shared check: reduced `delay_50`, overshoot and settling vs the full
/// transient simulation of the same spec.
fn assert_reduced_delay_matches_transient(spec: &LadderSpec, order: usize, tol: f64) {
    let full = measure_step_delay(spec).unwrap();
    let reduced = reduce_ladder(spec, order, SolverBackend::Auto).unwrap();
    let metrics = reduced.metrics().unwrap();
    let err =
        (metrics.delay_50.seconds() - full.delay_50.seconds()).abs() / full.delay_50.seconds();
    assert!(
        err < tol,
        "order-{order} delay {:e} vs transient {:e} (err {err:e})",
        metrics.delay_50.seconds(),
        full.delay_50.seconds()
    );
    // Overshoot agreement is looser (peak vs sampled peak) but must agree on
    // the regime: both ringing or both monotone, within a few points.
    assert!(
        (metrics.overshoot_percent - full.overshoot_percent).abs() < 5.0,
        "overshoot {} vs transient {}",
        metrics.overshoot_percent,
        full.overshoot_percent
    );
}

#[test]
fn order_4_and_up_match_full_transient_on_the_rlc_ladder() {
    let spec = paper_spec();
    assert_reduced_delay_matches_transient(&spec, 4, 0.01);
    assert_reduced_delay_matches_transient(&spec, 8, 0.01);
}

#[test]
fn order_4_and_up_match_full_transient_on_an_rc_ladder() {
    let mut spec = paper_spec();
    // RC regime: negligible inductance.
    spec.total_inductance = Inductance::from_henries(1.0e-12);
    assert_reduced_delay_matches_transient(&spec, 4, 0.01);
    assert_reduced_delay_matches_transient(&spec, 6, 0.01);
}

/// The 2-wire bus of the bus checks.
fn bus_spec() -> UniformBusSpec {
    UniformBusSpec {
        lines: 2,
        resistance: rlckit_units::ResistancePerLength::from_ohms_per_millimeter(1.3),
        self_inductance: rlckit_units::InductancePerLength::from_nanohenries_per_millimeter(0.5),
        ground_capacitance: rlckit_units::CapacitancePerLength::from_femtofarads_per_micrometer(
            0.21,
        ),
        coupling_capacitance: rlckit_units::CapacitancePerLength::from_femtofarads_per_micrometer(
            0.1,
        ),
        inductive_coupling: vec![0.35],
        length: rlckit_units::Length::from_millimeters(3.0),
    }
}

/// Asserts that the order-`order` reduction of `spec`, driven in 6
/// sections, gives the even- and odd-mode victim delays of the coupled
/// transient run at `1/step_divisor` of the suggested step, to `tol`
/// relative.
fn assert_reduced_bus_matches_transient(
    spec: &UniformBusSpec,
    order: usize,
    step_divisor: f64,
    tol: f64,
) {
    let bus = spec.build().unwrap();
    let drive = BusDrive::new(
        Resistance::from_ohms(120.0),
        Capacitance::from_femtofarads(100.0),
        Voltage::from_volts(1.8),
    )
    .with_sections(6);
    let reduced = reduce_bus(&bus, &drive, order, SolverBackend::Auto).unwrap();
    let mut options = suggested_options(&bus, &drive).unwrap();
    options.step /= step_divisor;
    for pattern in
        [SwitchingPattern::even_mode(2).unwrap(), SwitchingPattern::odd_mode(0, 2).unwrap()]
    {
        let transient = simulate_bus(&bus, &pattern, &drive, &options).unwrap();
        let simulated = transient.delay_50(0).unwrap().seconds();
        let fast = reduced.victim_delay_50(0, &pattern).unwrap().seconds();
        let err = (fast - simulated).abs() / simulated;
        assert!(
            err < tol,
            "order {order}, pattern {pattern:?}: reduced delay {fast:e} vs simulated \
             {simulated:e} (err {err:e})"
        );
    }
}

#[test]
fn reduced_bus_delays_match_the_coupled_transient_to_one_percent() {
    assert_reduced_bus_matches_transient(&bus_spec(), 16, 1.0, 0.01);
}

#[test]
fn full_order_bus_reduction_reproduces_the_coupled_transient() {
    // At the full order (28 states) the reduction is exact, so its
    // pole/residue delays must land on the converged transient. Regression:
    // residues fitted at log-spaced samples broke down above order 16 here
    // (33.9 ps against 47.04 ps at the full order).
    assert_reduced_bus_matches_transient(&bus_spec(), 28, 4.0, 1e-4);
}

#[test]
fn repeated_poles_keep_the_residue_fit_exact() {
    // Two identical uncoupled wires: every pole of the bus appears twice, so
    // the residue fit sees clusters of (split) repeated poles. At the full
    // order the delays must still land on the converged transient.
    let mut spec = bus_spec();
    spec.coupling_capacitance =
        rlckit_units::CapacitancePerLength::from_femtofarads_per_micrometer(0.0);
    spec.inductive_coupling = vec![0.0];
    assert_reduced_bus_matches_transient(&spec, 28, 4.0, 1e-4);
}
