//! The sweep engine's result store on a transient-heavy workload.
//!
//! A 12-cell coupled-bus crosstalk sweep (each cell is four transient
//! simulations) runs once cold against a fresh result store, then replays
//! against the warm store, and the executor is held to a 100 % cache hit
//! rate through its own telemetry counters. No trajectory is written; the
//! gated sweep timings (`sweep.run_ms.*`, `sweep.parallel_efficiency`) come
//! from the `benchmark/` harness.
//!
//! Run with `cargo bench -p rlckit-bench --bench sweep_scaling`.

use rlckit_bench::report::write_profile_if_enabled;
use rlckit_sweep::cache::{ResultStore, DEFAULT_STORE_BUDGET};
use rlckit_sweep::eval::BusCrosstalkEvaluator;
use rlckit_sweep::exec::{run_sweep_cached, SweepOptions};
use rlckit_sweep::scenario::{Param, Scenario, TechnologyNode};
use rlckit_sweep::spec::{Axis, SweepSpec};

/// A 12-cell transient sweep: bus pitch (zipped Cc + k axis) × line count.
fn sweep_spec() -> SweepSpec {
    let base = Scenario {
        technology: TechnologyNode::N180,
        line_length_mm: 2.0,
        driver_size: 40.0,
        ladder_sections: 6,
        ..Scenario::default()
    };
    let pitch = Axis::zipped(
        "pitch",
        ["wide".to_owned(), "nominal".to_owned(), "tight".to_owned(), "minimum".to_owned()],
        [
            vec![Param::CouplingCapFfPerUm(0.04), Param::InductiveCoupling(0.2)],
            vec![Param::CouplingCapFfPerUm(0.08), Param::InductiveCoupling(0.3)],
            vec![Param::CouplingCapFfPerUm(0.12), Param::InductiveCoupling(0.4)],
            vec![Param::CouplingCapFfPerUm(0.16), Param::InductiveCoupling(0.5)],
        ],
    )
    .expect("static pitch axis is well-formed");
    SweepSpec::new(base).axis(pitch).axis(Axis::new("lines", [2usize, 3, 4].map(Param::BusLines)))
}

/// Fills a result store with one cold pass, then replays the sweep under the
/// telemetry collector and holds the executor to a 100% hit rate through its
/// own counters rather than the result struct.
fn check_warm_replay() {
    let spec = sweep_spec();
    let mut cache = ResultStore::in_memory(DEFAULT_STORE_BUDGET);
    let opts = SweepOptions::with_threads(1);
    let cold =
        run_sweep_cached(&spec, &BusCrosstalkEvaluator, &opts, &mut cache).expect("cold run");
    assert!(cold.first_error().is_none(), "bench sweep must evaluate cleanly");

    let _collector = rlckit_telemetry::Collector::enable();
    let before = rlckit_telemetry::Collector::snapshot();
    let replay =
        run_sweep_cached(&spec, &BusCrosstalkEvaluator, &opts, &mut cache).expect("replay");
    let after = rlckit_telemetry::Collector::snapshot();
    let hits = after.counter("sweep.cache_hits").unwrap_or(0)
        - before.counter("sweep.cache_hits").unwrap_or(0);
    let misses = after.counter("sweep.cache_misses").unwrap_or(0)
        - before.counter("sweep.cache_misses").unwrap_or(0);
    assert_eq!(replay.cache_hits, spec.len());
    assert_eq!(
        (hits, misses),
        (spec.len() as u64, 0),
        "warm replay must report a 100% cache hit rate through telemetry"
    );
    println!("warm replay telemetry: {hits} hits, {misses} misses (100% hit rate)");
}

fn main() {
    check_warm_replay();
    write_profile_if_enabled("sweep");
}
