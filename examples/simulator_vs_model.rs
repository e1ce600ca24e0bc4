//! One operating point, four views of the same step response.
//!
//! Takes a single Table-1-style operating point and compares:
//!
//! * the transient MNA ladder simulation (the AS/X substitute),
//! * the exact Laplace-domain two-port response inverted numerically,
//! * the two-pole analytic response built from the exact moments,
//! * the closed-form 50% delay of Eq. (9).
//!
//! Printing a few waveform samples makes the agreement (and the ringing of the
//! underdamped case) visible directly in the terminal.
//!
//! Run with `cargo run --release --example simulator_vs_model`.

use rlckit::circuit::mna::MnaSystem;
use rlckit::circuit::transient::{run_transient, TransientOptions};
use rlckit::model::response::TwoPoleResponse;
use rlckit::numeric::sparse::SparseLuFactor;
use rlckit::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // RT = 0.5, CT = 0.5, Lt = 10 nH: an underdamped, inductance-visible point.
    let total_resistance = Resistance::from_ohms(1000.0);
    let total_inductance = Inductance::from_nanohenries(10.0);
    let total_capacitance = Capacitance::from_picofarads(1.0);
    let driver = Resistance::from_ohms(500.0);
    let receiver = Capacitance::from_picofarads(0.5);

    let line = DistributedLine::from_totals(
        total_resistance,
        total_inductance,
        total_capacitance,
        Length::from_millimeters(10.0),
    )?;
    let driven = DrivenLine::new(line, driver, receiver)?;
    let load = GateRlcLoad::from_driven_line(&driven)?;
    let two_pole = TwoPoleResponse::of(&load);

    // Transient simulation of the 60-segment ladder.
    let spec = line.to_ladder_spec(driver, receiver, 60, Voltage::from_volts(1.0));
    let ladder = spec.build()?;
    let options = TransientOptions::new(spec.suggested_stop_time(), spec.suggested_timestep());
    let result = run_transient(&ladder.circuit, &options)?;
    let wave = result.node_voltage(ladder.output);

    println!("operating point: Rt = 1 kΩ, Lt = 10 nH, Ct = 1 pF, Rtr = 500 Ω, CL = 0.5 pF");
    println!("zeta = {:.3}  (underdamped < 1 < overdamped)", load.zeta());

    // The solve path the simulator picked: the sparse kernel factors the
    // ladder's stepping matrix with O(n) fill under its minimum-degree order.
    let mna = MnaSystem::build(&ladder.circuit)?;
    let stepping = mna.assemble_csc_real(0.5, 1.0 / options.step.seconds());
    let lu = SparseLuFactor::factor(&stepping, mna.sparse_symbolic())?;
    println!(
        "MNA system: {} unknowns, {} nonzeros → {} solver, L/U nonzeros {}/{}\n",
        mna.dim(),
        stepping.nnz(),
        result.backend().name(),
        lu.l_nnz(),
        lu.u_nnz(),
    );

    println!("{:>10} {:>12} {:>12} {:>12}", "t (ps)", "ladder sim", "exact 2-port", "2-pole model");
    let horizon = spec.suggested_stop_time().seconds();
    for i in 1..=12 {
        let t = Time::from_seconds(horizon * i as f64 / 12.0);
        let sim = wave.value_at(t)?.volts();
        let exact = driven.step_response(t);
        let pade = two_pole.step_response(t);
        println!("{:>10.1} {:>12.4} {:>12.4} {:>12.4}", t.picoseconds(), sim, exact, pade);
    }

    let sim_delay = wave.delay_50(Voltage::from_volts(1.0))?;
    let exact_delay = driven.delay_50()?;
    let pade_delay = two_pole.delay_50()?;
    let closed_form = propagation_delay(&load);

    println!("\n50% propagation delay:");
    println!("  transient ladder simulation : {sim_delay}");
    println!("  exact Laplace-domain 2-port : {exact_delay}");
    println!("  two-pole analytic response  : {pade_delay}");
    println!("  closed form (Eq. 9)         : {closed_form}");
    println!("\nEq. (9) vs simulation error: {:.2}%", closed_form.percent_error_vs(sim_delay));
    Ok(())
}
