//! Dense vs sparse solver scaling on RLC-ladder transient runs.
//!
//! The transient simulator factorises one constant matrix and then performs a
//! substitution per timestep. With the dense kernel that is `O(n³) + steps·O(n²)`;
//! the sparse kernel (a ladder eliminates end to end with no fill under its
//! minimum-degree order) brings it down to `O(n) + steps·O(n)`. This bench
//! sweeps ladders from 10 to 2000 sections, times both kernels on a fixed
//! 200-step run, and writes the measurements — including the dense/sparse
//! speedup per size — into the perf trajectory as
//! `BENCH_solver_scaling.json`.
//!
//! The dense kernel is only swept up to 500 sections: beyond that a single
//! dense factorisation takes minutes, which is exactly the point.
//!
//! Run with `cargo bench -p rlckit-bench --bench solver_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use rlckit_bench::report::{smoke_or, write_trajectory_or_exit, PerfReport};
use rlckit_circuit::ladder::{LadderSpec, SegmentStyle};
use rlckit_circuit::transient::{run_transient, TransientOptions};
use rlckit_circuit::SolverBackend;
use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

/// Sizes both kernels run; the dense kernel stops at [`DENSE_LIMIT`].
/// Smoke mode (`RLCKIT_BENCH_SMOKE`) keeps only the two cheapest points.
fn sections() -> Vec<usize> {
    smoke_or(vec![10, 50], vec![10, 50, 100, 200, 500, 1000, 2000])
}
const DENSE_LIMIT: usize = 500;

fn spec(sections: usize) -> LadderSpec {
    LadderSpec {
        total_resistance: Resistance::from_ohms(500.0),
        total_inductance: Inductance::from_nanohenries(10.0),
        total_capacitance: Capacitance::from_picofarads(1.0),
        segments: sections,
        style: SegmentStyle::Pi,
        driver_resistance: Resistance::from_ohms(250.0),
        load_capacitance: Capacitance::from_picofarads(0.1),
        supply: Voltage::from_volts(1.0),
    }
}

/// A fixed 200-step horizon so every size pays one factorisation plus the
/// same number of substitutions.
fn options(backend: SolverBackend) -> TransientOptions {
    TransientOptions::new(Time::from_picoseconds(200.0), Time::from_picoseconds(1.0))
        .with_backend(backend)
}

fn time_one(sections: usize, backend: SolverBackend) -> f64 {
    let line = spec(sections).build().expect("ladder builds");
    let opts = options(backend);
    let start = Instant::now();
    let result = run_transient(black_box(&line.circuit), &opts).expect("simulates");
    let elapsed = start.elapsed().as_secs_f64();
    black_box(result.len());
    elapsed
}

fn bench_solver_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_scaling");
    group.sample_size(smoke_or(2, 10));
    for sections in sections() {
        group.bench_with_input(BenchmarkId::new("sparse", sections), &sections, |b, &sections| {
            let line = spec(sections).build().expect("ladder builds");
            let opts = options(SolverBackend::Sparse);
            b.iter(|| run_transient(black_box(&line.circuit), &opts).expect("simulates"))
        });
        if sections <= DENSE_LIMIT {
            group.bench_with_input(
                BenchmarkId::new("dense", sections),
                &sections,
                |b, &sections| {
                    let line = spec(sections).build().expect("ladder builds");
                    let opts = options(SolverBackend::Dense);
                    b.iter(|| run_transient(black_box(&line.circuit), &opts).expect("simulates"))
                },
            );
        }
    }
    group.finish();
}

/// One timed pass per configuration, written to `BENCH_solver_scaling.json`.
///
/// Criterion's own numbers stay on stdout; this single-shot sweep is what the
/// perf trajectory records, so the JSON is cheap to regenerate and the file
/// contents do not depend on criterion internals.
fn write_perf_trajectory() {
    let mut report = PerfReport::new("solver_scaling");
    let mut speedup_at_500 = None;
    for sections in sections() {
        let sparse = time_one(sections, SolverBackend::Sparse);
        report.push(format!("sparse/{sections}"), sparse, "seconds");
        if sections <= DENSE_LIMIT {
            let dense = time_one(sections, SolverBackend::Dense);
            report.push(format!("dense/{sections}"), dense, "seconds");
            let speedup = dense / sparse;
            report.push(format!("speedup/{sections}"), speedup, "x");
            if sections == 500 {
                speedup_at_500 = Some(speedup);
            }
            println!("{sections:>5} sections: dense {dense:.4} s, sparse {sparse:.4} s, speedup {speedup:.1}x");
        } else {
            println!("{sections:>5} sections: sparse {sparse:.4} s (dense skipped)");
        }
    }
    write_trajectory_or_exit(&report);
    if let Some(s) = speedup_at_500 {
        println!("dense/sparse speedup at 500 sections: {s:.1}x");
    }
}

fn bench_with_trajectory(c: &mut Criterion) {
    bench_solver_scaling(c);
    write_perf_trajectory();
}

criterion_group!(benches, bench_with_trajectory);
criterion_main!(benches);
