//! A branching clock-distribution net and the solver kernel it lands on.
//!
//! Builds a symmetric routing tree in the paper's 0.25 µm technology —
//! every root-to-sink path a 20 mm wide global wire — simulates it once
//! with the transient solver and prints the per-sink 50% delays, the sink
//! skew and the overshoot; then applies the paper's RLC repeater closed
//! forms per root-to-sink path and compares the worst-sink delay against
//! the inductance-blind Bakoglu design. Finally it widens the net into a
//! 24-tap spine: narrow and wide trees alike run on the sparse
//! (approximate-minimum-degree Gilbert–Peierls) kernel, whose leaf-to-root
//! elimination keeps the factors linear in the net size.
//!
//! Run with `cargo run --release --example clock_tree`.

use rlckit::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::quarter_micron();
    let driver_size = 100.0;
    let path = tech.global_wire.line(Length::from_millimeters(20.0))?;
    let tree = RoutingTree::symmetric(&path, 3, 2, tech.buffer_capacitance(driver_size)?)?;

    println!(
        "symmetric clock tree in {}: {} branches, {} sinks, {:.1} mm of wire",
        tech.name,
        tree.len(),
        tree.sinks().len(),
        tree.total_length().millimeters(),
    );

    // One transient simulation covers every sink.
    let spec = tree.to_tree_spec(tech.buffer_resistance(driver_size)?, tech.supply, 8)?;
    let report = measure_tree_delays(&spec)?;
    println!("solver backend: {}", report.backend.name());
    for sink in &report.sinks {
        println!(
            "  sink at branch {:>2}: delay {:>8.1} ps, rise {:>8.1} ps, overshoot {:>5.1} %",
            sink.branch,
            sink.delay_50.picoseconds(),
            sink.rise_time.picoseconds(),
            sink.overshoot_percent,
        );
    }
    println!(
        "worst sink: branch {} at {:.1} ps; skew {:.2} ps",
        report.worst_sink().branch,
        report.worst_sink().delay_50.picoseconds(),
        report.sink_spread().picoseconds(),
    );

    // Per-path repeater insertion: the paper's closed forms on each
    // root-to-sink path, judged by the worst sink.
    let repeaters = evaluate_tree_repeaters(&tree, &tech)?;
    let worst = repeaters.worst_sink();
    println!(
        "\nper-path repeaters (T_L/R = {:.2}): RLC optimum h = {:.1}, k = {:.1}",
        worst.t_l_over_r, worst.rlc.size, worst.rlc.sections,
    );
    println!(
        "worst-sink delay: RLC design {:.1} ps, RC (Bakoglu) design {:.1} ps (+{:.1} %)",
        repeaters.worst_sink_delay_rlc().picoseconds(),
        repeaters.worst_sink_delay_rc().picoseconds(),
        repeaters.rc_design_penalty_percent(),
    );

    // Wide fan-out changes nothing for the kernel: the 24-tap spine still
    // eliminates leaf to root on the sparse backend.
    let spine = RoutingTree::symmetric(&path, 2, 24, tech.buffer_capacitance(driver_size)?)?;
    let spec = spine.to_tree_spec(tech.buffer_resistance(driver_size)?, tech.supply, 8)?;
    let wide = measure_tree_delays(&spec)?;
    println!(
        "\n24-tap spine ({} sinks): solver backend {}, worst sink {:.1} ps, skew {:.2} ps",
        wide.sinks.len(),
        wide.backend.name(),
        wide.worst_sink().delay_50.picoseconds(),
        wide.sink_spread().picoseconds(),
    );
    Ok(())
}
