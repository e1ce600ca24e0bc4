//! Integration test: closed form and transient simulator against the exact
//! Laplace-domain solution of the distributed line.
//!
//! The exact two-port transfer function (Eq. 1, no truncation) inverted
//! numerically is an independent reference: it contains no lumping error (the
//! ladder) and no curve-fitting error (Eq. 9). All three descriptions of the
//! same circuit must agree for driven, loaded lines.

use rlckit::circuit::ladder::{measure_step_delay, LadderSpec, SegmentStyle};
use rlckit::prelude::*;

fn driven(rt: f64, lt: f64, ct: f64, rtr: f64, cl: f64) -> DrivenLine {
    let line = DistributedLine::from_totals(
        Resistance::from_ohms(rt),
        Inductance::from_henries(lt),
        Capacitance::from_farads(ct),
        Length::from_millimeters(10.0),
    )
    .expect("valid line");
    DrivenLine::new(line, Resistance::from_ohms(rtr), Capacitance::from_farads(cl))
        .expect("valid terminations")
}

#[test]
fn closed_form_matches_exact_laplace_solution() {
    // Driven, loaded lines across damping regimes (Rtr comparable to or larger
    // than Z0, as in the paper's Table 1).
    let cases = [
        (1000.0, 1e-7, 1e-12, 500.0, 0.5e-12),
        (1000.0, 1e-8, 1e-12, 500.0, 0.5e-12),
        (500.0, 1e-7, 1e-12, 500.0, 1e-12),
        (5000.0, 1e-6, 1e-12, 500.0, 0.1e-12),
        (2000.0, 1e-8, 1e-12, 1000.0, 0.2e-12),
    ];
    for &(rt, lt, ct, rtr, cl) in &cases {
        let exact = driven(rt, lt, ct, rtr, cl).delay_50().expect("exact delay");
        let load = GateRlcLoad::new(
            Resistance::from_ohms(rt),
            Inductance::from_henries(lt),
            Capacitance::from_farads(ct),
            Resistance::from_ohms(rtr),
            Capacitance::from_farads(cl),
        )
        .expect("valid load");
        let model = propagation_delay(&load);
        let err = model.percent_error_vs(exact);
        assert!(
            err < 6.0,
            "Rt={rt} Lt={lt} Rtr={rtr} CL={cl}: Eq. (9) {} vs exact {} ({err:.2}%)",
            model,
            exact
        );
    }
}

#[test]
fn ladder_simulation_converges_to_the_exact_distributed_solution() {
    // The lumped-ladder simulator and the exact two-port describe the same
    // physics through completely different numerics; their agreement validates
    // using the simulator as the stand-in for AS/X.
    let cases = [
        (1000.0, 1e-8, 1e-12, 500.0, 0.5e-12),
        (500.0, 1e-7, 1e-12, 500.0, 1e-12),
        (2000.0, 1e-7, 1e-12, 500.0, 0.1e-12),
    ];
    for &(rt, lt, ct, rtr, cl) in &cases {
        let exact = driven(rt, lt, ct, rtr, cl).delay_50().expect("exact delay");
        let spec = LadderSpec {
            total_resistance: Resistance::from_ohms(rt),
            total_inductance: Inductance::from_henries(lt),
            total_capacitance: Capacitance::from_farads(ct),
            segments: 60,
            style: SegmentStyle::Pi,
            driver_resistance: Resistance::from_ohms(rtr),
            load_capacitance: Capacitance::from_farads(cl),
            supply: Voltage::from_volts(1.0),
        };
        let sim = measure_step_delay(&spec).expect("simulation runs");
        let err = sim.delay_50.percent_error_vs(exact);
        assert!(
            err < 3.0,
            "Rt={rt} Lt={lt}: ladder {} vs exact {} ({err:.2}%)",
            sim.delay_50,
            exact
        );
    }
}

#[test]
fn exact_step_response_and_two_pole_model_agree_at_mid_rise() {
    // The two-pole analytic model is built from the exact moments; in the
    // neighbourhood of the 50% crossing it should track the exact response.
    let d = driven(1000.0, 1e-8, 1e-12, 500.0, 0.5e-12);
    let load = GateRlcLoad::from_driven_line(&d).expect("valid load");
    let two_pole = rlckit::model::response::TwoPoleResponse::of(&load);
    let t50 = d.delay_50().expect("exact delay");
    for factor in [0.8, 1.0, 1.2] {
        let t = Time::from_seconds(t50.seconds() * factor);
        let exact = d.step_response(t);
        let pade = two_pole.step_response(t);
        assert!(
            (exact - pade).abs() < 0.12,
            "at {factor}·t50: exact {exact:.3} vs two-pole {pade:.3}"
        );
    }
}

#[test]
fn exact_delay_matches_the_ladder_on_underdamped_lines() {
    // 10 nH, 1 pF, CL = 0.1 pF and Rtr = Rt/2 over Rt = 20..150 Ω:
    // ζ ≈ 0.11, 0.27, 0.55 and 0.82. The step response jumps at the time of
    // flight here, where cosh θ and sinh θ overflow on the Talbot contour.
    for rt in [20.0, 50.0, 100.0, 150.0] {
        let (lt, ct, rtr, cl) = (10e-9, 1e-12, rt / 2.0, 0.1e-12);
        let exact = driven(rt, lt, ct, rtr, cl).delay_50().expect("exact delay");
        let spec = LadderSpec {
            total_resistance: Resistance::from_ohms(rt),
            total_inductance: Inductance::from_henries(lt),
            total_capacitance: Capacitance::from_farads(ct),
            segments: 50,
            style: SegmentStyle::Pi,
            driver_resistance: Resistance::from_ohms(rtr),
            load_capacitance: Capacitance::from_farads(cl),
            supply: Voltage::from_volts(1.0),
        };
        let sim = measure_step_delay(&spec).expect("simulation runs");
        let err = exact.percent_error_vs(sim.delay_50);
        assert!(
            err < 1.5,
            "Rt={rt}: exact {} vs 50-section ladder {} ({err:.2}%)",
            exact,
            sim.delay_50
        );
    }
}
