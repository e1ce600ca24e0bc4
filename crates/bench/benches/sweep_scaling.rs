//! Thread scaling of the sweep engine on a transient-heavy workload.
//!
//! The sweep executor is a chunked work-queue over `std::thread`; this bench
//! measures how a coupled-bus crosstalk sweep (each cell is four transient
//! simulations) scales from 1 to 4 workers, plus the cost of a fully warm
//! content-hash cache run. The wall-clock numbers and speedups go into the
//! perf trajectory as `BENCH_sweep.json`.
//!
//! Run with `cargo bench -p rlckit-bench --bench sweep_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use rlckit_bench::report::{
    smoke_or, write_profile_if_enabled, write_trajectory_or_exit, PerfReport,
};
use rlckit_sweep::cache::{ResultStore, DEFAULT_STORE_BUDGET};
use rlckit_sweep::eval::BusCrosstalkEvaluator;
use rlckit_sweep::exec::{run_sweep, run_sweep_cached, SweepOptions};
use rlckit_sweep::scenario::{Param, Scenario, TechnologyNode};
use rlckit_sweep::spec::{Axis, SweepSpec};

/// Worker counts the trajectory records; smoke mode stops at two workers.
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

fn time_threads(threads: usize) -> f64 {
    let spec = sweep_spec();
    let opts = SweepOptions::with_threads(threads);
    let start = Instant::now();
    let result = run_sweep(black_box(&spec), &BusCrosstalkEvaluator, &opts).expect("sweep runs");
    let elapsed = start.elapsed().as_secs_f64();
    assert!(result.first_error().is_none(), "bench sweep must evaluate cleanly");
    black_box(result.rows.len());
    elapsed
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

/// One timed pass per configuration, written to `BENCH_sweep.json`.
fn write_perf_trajectory() {
    let spec = sweep_spec();
    let mut report = PerfReport::new("sweep");
    report.push("cells", spec.len() as f64, "count");
    // Speedups are only meaningful relative to the cores the machine grants;
    // on a single-CPU container the 2/4-thread numbers are expected to be ~1x.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.push("cpus", cpus as f64, "count");

    let mut serial = None;
    for threads in threads() {
        let seconds = time_threads(threads);
        report.push(format!("threads/{threads}"), seconds, "seconds");
        match serial {
            None => serial = Some(seconds),
            Some(base) => report.push(format!("speedup/{threads}"), base / seconds, "x"),
        }
        println!("{threads} thread(s): {seconds:.3} s");
    }

    // A fully warm cache run: expansion + hashing + replay only.
    let mut cache = ResultStore::in_memory(DEFAULT_STORE_BUDGET);
    let opts = SweepOptions::with_threads(1);
    run_sweep_cached(&spec, &BusCrosstalkEvaluator, &opts, &mut cache).expect("cold run");
    let start = Instant::now();
    let warm = run_sweep_cached(&spec, &BusCrosstalkEvaluator, &opts, &mut cache).expect("warm");
    let cached_seconds = start.elapsed().as_secs_f64();
    assert_eq!(warm.computed, 0);
    report.push("cached", cached_seconds, "seconds");
    println!("warm cache: {cached_seconds:.6} s for {} cells", spec.len());

    // Replay the warm pass once more under the telemetry collector — after
    // the timed measurement above, so profiling overhead never touches the
    // recorded number — and hold the executor to a 100% hit rate through its
    // own counters rather than the result struct.
    {
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

    write_trajectory_or_exit(&report);
}

fn bench_with_trajectory(c: &mut Criterion) {
    bench_sweep_scaling(c);
    write_perf_trajectory();
    write_profile_if_enabled("sweep");
}

criterion_group!(benches, bench_with_trajectory);
criterion_main!(benches);
