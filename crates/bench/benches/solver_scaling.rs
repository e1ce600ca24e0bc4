//! Dense vs sparse solver scaling on RLC-ladder transient runs.
//!
//! The transient simulator factorises one constant matrix and then performs a
//! substitution per timestep. With the dense kernel that is `O(n³) + steps·O(n²)`;
//! the sparse kernel (a ladder eliminates end to end with no fill under its
//! minimum-degree order) brings it down to `O(n) + steps·O(n)`. This bench
//! sweeps ladders from 10 to 2000 sections and times both kernels on a fixed
//! 200-step run; compare the `sparse` and `dense` groups in the output for
//! the speedup per size. The timings are for reading by hand; no trajectory
//! is written.
//!
//! The dense kernel is only swept up to 500 sections: beyond that a single
//! dense factorisation takes minutes, which is exactly the point.
//!
//! Run with `cargo bench -p rlckit-bench --bench solver_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rlckit_bench::report::smoke_or;
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

criterion_group!(benches, bench_solver_scaling);
criterion_main!(benches);
