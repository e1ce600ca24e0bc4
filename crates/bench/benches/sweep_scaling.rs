//! Thread scaling of the sweep engine on a transient-heavy workload.
//!
//! The sweep executor is a chunked work-queue over `std::thread`; this bench
//! measures how a coupled-bus crosstalk sweep (each cell is four transient
//! simulations) scales from 1 to 4 workers. The timings are for reading by
//! hand; no trajectory is written. After the timed groups it replays the
//! sweep against a warm result store and holds the executor to a 100 %
//! cache hit rate through its own telemetry counters.
//!
//! Run with `cargo bench -p rlckit-bench --bench sweep_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rlckit_bench::report::{smoke_or, write_profile_if_enabled};
use rlckit_sweep::cache::{ResultStore, DEFAULT_STORE_BUDGET};
use rlckit_sweep::eval::BusCrosstalkEvaluator;
use rlckit_sweep::exec::{run_sweep, run_sweep_cached, SweepOptions};
use rlckit_sweep::scenario::{Param, Scenario, TechnologyNode};
use rlckit_sweep::spec::{Axis, SweepSpec};

/// Worker counts timed; smoke mode stops at two workers.
fn threads() -> Vec<usize> {
    smoke_or(vec![1, 2], vec![1, 2, 4])
}

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

fn bench_sweep_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_scaling");
    group.sample_size(smoke_or(2, 10));
    for threads in threads() {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &threads| {
            let spec = sweep_spec();
            let opts = SweepOptions::with_threads(threads);
            b.iter(|| run_sweep(black_box(&spec), &BusCrosstalkEvaluator, &opts).expect("runs"))
        });
    }
    group.finish();
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

fn bench_with_replay_check(c: &mut Criterion) {
    bench_sweep_scaling(c);
    check_warm_replay();
    write_profile_if_enabled("sweep");
}

criterion_group!(benches, bench_with_replay_check);
criterion_main!(benches);
