//! Dense vs sparse solver scaling on coupled-bus transient runs.
//!
//! Coupled buses are a harder workload for the sparse kernel than single-line
//! ladders: the conductor-to-conductor coupling capacitors and mutual-
//! inductance stamps tie the `N` per-line ladders together at every section,
//! so elimination creates fill that grows with the line count. This bench
//! sweeps `N` lines × `M` sections under worst-case (odd-mode) switching,
//! times both kernels on a fixed 200-step run, and writes the measurements —
//! including the dense/sparse speedup where both ran — into the perf
//! trajectory as `BENCH_coupled_bus.json`.
//!
//! The dense kernel is only swept while the MNA dimension stays below a few
//! thousand unknowns; beyond that a single dense factorisation dominates the
//! wall clock, which is exactly the point.
//!
//! Run with `cargo bench -p rlckit-bench --bench coupled_bus_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use rlckit_bench::report::{smoke_or, write_trajectory_or_exit, PerfReport};
use rlckit_circuit::transient::{run_transient, TransientOptions};
use rlckit_circuit::SolverBackend;
use rlckit_coupling::bus::UniformBusSpec;
use rlckit_coupling::netlist::{build_bus_circuit, BusCircuit, BusDrive};
use rlckit_coupling::scenario::SwitchingPattern;
use rlckit_units::{
    Capacitance, CapacitancePerLength, InductancePerLength, Length, Resistance,
    ResistancePerLength, Time, Voltage,
};

/// (lines, sections) points of the sweep; smoke mode keeps the two cheapest.
fn sweep() -> Vec<(usize, usize)> {
    smoke_or(vec![(2, 25), (3, 50)], vec![(2, 25), (2, 100), (3, 50), (3, 200), (5, 100), (5, 400)])
}
/// The dense kernel only runs while `dim ≤ DENSE_DIM_LIMIT`.
const DENSE_DIM_LIMIT: usize = 1500;

fn bus_circuit(lines: usize, sections: usize) -> BusCircuit {
    let bus = UniformBusSpec {
        lines,
        resistance: ResistancePerLength::from_ohms_per_millimeter(1.3),
        self_inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
        ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
        coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
        inductive_coupling: vec![0.35, 0.15],
        length: Length::from_millimeters(5.0),
    }
    .build()
    .expect("bus builds");
    let drive = BusDrive::new(
        Resistance::from_ohms(112.5),
        Capacitance::from_femtofarads(120.0),
        Voltage::from_volts(1.8),
    )
    .with_sections(sections);
    let pattern = SwitchingPattern::odd_mode(lines / 2, lines).expect("pattern");
    build_bus_circuit(&bus, &pattern, &drive).expect("circuit builds")
}

/// Rough MNA dimension: nodes (input + 2 per section, per conductor) plus
/// branch currents (source + one inductor per section, per conductor).
fn mna_dim(lines: usize, sections: usize) -> usize {
    lines * (1 + 2 * sections) + lines * (1 + sections)
}

/// A fixed 200-step horizon so every size pays one factorisation plus the
/// same number of substitutions.
fn options(backend: SolverBackend) -> TransientOptions {
    TransientOptions::new(Time::from_picoseconds(200.0), Time::from_picoseconds(1.0))
        .with_backend(backend)
}

fn time_one(built: &BusCircuit, backend: SolverBackend) -> f64 {
    let opts = options(backend);
    let start = Instant::now();
    let result = run_transient(black_box(&built.circuit), &opts).expect("simulates");
    let elapsed = start.elapsed().as_secs_f64();
    black_box(result.len());
    elapsed
}

fn bench_coupled_bus(c: &mut Criterion) {
    let mut group = c.benchmark_group("coupled_bus_scaling");
    group.sample_size(smoke_or(2, 10));
    for (lines, sections) in sweep() {
        let label = format!("{lines}x{sections}");
        let built = bus_circuit(lines, sections);
        group.bench_with_input(BenchmarkId::new("sparse", &label), &built, |b, built| {
            let opts = options(SolverBackend::Sparse);
            b.iter(|| run_transient(black_box(&built.circuit), &opts).expect("simulates"))
        });
        if mna_dim(lines, sections) <= DENSE_DIM_LIMIT {
            group.bench_with_input(BenchmarkId::new("dense", &label), &built, |b, built| {
                let opts = options(SolverBackend::Dense);
                b.iter(|| run_transient(black_box(&built.circuit), &opts).expect("simulates"))
            });
        }
    }
    group.finish();
}

/// One timed pass per configuration, written to `BENCH_coupled_bus.json`.
///
/// Criterion's own numbers stay on stdout; this single-shot sweep is what the
/// perf trajectory records, so the JSON is cheap to regenerate and the file
/// contents do not depend on criterion internals.
fn write_perf_trajectory() {
    let mut report = PerfReport::new("coupled_bus");
    for (lines, sections) in sweep() {
        let label = format!("{lines}x{sections}");
        let built = bus_circuit(lines, sections);
        let sparse = time_one(&built, SolverBackend::Sparse);
        report.push(format!("sparse/{label}"), sparse, "seconds");
        if mna_dim(lines, sections) <= DENSE_DIM_LIMIT {
            let dense = time_one(&built, SolverBackend::Dense);
            let speedup = dense / sparse;
            report.push(format!("dense/{label}"), dense, "seconds");
            report.push(format!("speedup/{label}"), speedup, "x");
            println!(
                "{lines} lines x {sections:>4} sections: dense {dense:.4} s, sparse {sparse:.4} s, speedup {speedup:.1}x"
            );
        } else {
            println!(
                "{lines} lines x {sections:>4} sections: sparse {sparse:.4} s (dense skipped)"
            );
        }
    }
    write_trajectory_or_exit(&report);
}

fn bench_with_trajectory(c: &mut Criterion) {
    bench_coupled_bus(c);
    write_perf_trajectory();
}

criterion_group!(benches, bench_with_trajectory);
criterion_main!(benches);
