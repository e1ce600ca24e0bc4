//! Profiling an analysis with the `rlckit-telemetry` collector.
//!
//! Enables the collector programmatically (the environment-variable route is
//! `RLCKIT_PROFILE=1`, see EXPERIMENTS.md), runs a transient simulation of a
//! 400-section RLC ladder and a small cached parameter sweep twice, then
//! prints the collected span tree, counters and histograms as a summary
//! table and writes the same data to `PROFILE_example.json`.
//!
//! Run with `cargo run --release --example profile`.

use rlckit::prelude::*;
use rlckit::telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The collector is an RAII guard: profiling is active until it drops,
    // and every instrumentation site upstream of this call costs a single
    // relaxed atomic load while it is off.
    let collector = Collector::enable();

    // A transient run: exercises MNA assembly, the solver kernels and the
    // stepping loop (spans "mna.build", "transient.run/transient.stepping",
    // the per-step histogram and the "transient.steps" counter).
    let tech = Technology::quarter_micron();
    let line = tech.global_wire.line(Length::from_millimeters(10.0))?;
    let mut spec = LadderSpec::new(
        line.total_resistance(),
        line.total_inductance(),
        line.total_capacitance(),
        tech.buffer_resistance(100.0)?,
        tech.buffer_capacitance(100.0)?,
    );
    spec.segments = 400;
    let delay = measure_step_delay(&spec)?;
    println!("400-section ladder 50% delay: {}\n", delay.delay_50);

    // A parameter sweep, twice against one result store: the first pass
    // computes every cell ("sweep.cache_misses"), the replay hits the
    // content-hash store for all of them ("sweep.cache_hits").
    let sweep = SweepSpec::new(Scenario::default())
        .axis(Axis::new("length_mm", [2.0, 5.0, 10.0].map(Param::LineLengthMm)))
        .axis(Axis::new("h", [50.0, 100.0].map(Param::DriverSize)));
    let mut cache = ResultStore::in_memory(rlckit::sweep::cache::DEFAULT_STORE_BUDGET);
    let opts = SweepOptions::with_threads(2);
    run_sweep_cached(&sweep, &DelayModelEvaluator, &opts, &mut cache)?;
    run_sweep_cached(&sweep, &DelayModelEvaluator, &opts, &mut cache)?;

    // Freeze and render. The snapshot is deterministic (sorted by name), so
    // the JSON is diffable across runs of the same workload.
    let snapshot = Collector::snapshot();
    print!("{}", snapshot.summary());
    let path = snapshot.write("example", std::path::Path::new("."))?;
    println!("\nfull profile written to {}", path.display());

    let hits = snapshot.counter("sweep.cache_hits").unwrap_or(0);
    let misses = snapshot.counter("sweep.cache_misses").unwrap_or(0);
    assert_eq!((hits, misses), (sweep.len() as u64, sweep.len() as u64));
    assert!(telemetry::enabled());
    drop(collector);
    Ok(())
}
