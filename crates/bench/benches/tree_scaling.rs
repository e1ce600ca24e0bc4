//! Sparse vs dense solver scaling on branching RLC trees, plus the
//! power-grid mesh workload that scales the sparse kernel to 10⁵⁺ unknowns.
//!
//! Under any ordering the bandwidth of a tree-shaped MNA system grows with
//! the fan-out, while its actual pattern stays `O(n)` sparse and eliminates
//! leaf to root with no fill. Criterion times a fixed 200-step transient run
//! of symmetric routing trees of growing size under each forced backend.
//!
//! Meshes go where trees cannot: a regular grid has no fill-free elimination
//! order, so it exercises the AMD ordering quality and the value-only
//! refactorisation path for real. The trajectory pass factors each grid
//! cold (symbolic analysis + pivoting Gilbert–Peierls) and refactors it warm
//! (frozen pattern, new values — the per-timestep/per-frequency operation)
//! at every size up to a ≥100 000-unknown grid in the full run, and asserts
//! the warm path stays at least 2× faster at the largest grid.
//!
//! What `BENCH_tree.json` records is deterministic: per tree and mesh size
//! the MNA dimension, the branch count, `nnz(L)` and the fill ratio
//! `(nnz(L)+nnz(U))/nnz(A)`, so an ordering-quality regression fails the
//! gate exactly. The timings are printed only.
//!
//! The dense kernel is only swept while the MNA dimension stays below
//! [`FULL_KERNEL_DIM_LIMIT`]: beyond that a single dense factorisation
//! takes many seconds, which is exactly the point.
//!
//! Run with `cargo bench -p rlckit-bench --bench tree_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use rlckit_bench::report::{
    smoke_or, write_profile_if_enabled, write_trajectory_or_exit, PerfReport,
};
use rlckit_circuit::mesh::MeshSpec;
use rlckit_circuit::mna::MnaSystem;
use rlckit_circuit::netlist::Circuit;
use rlckit_circuit::transient::{run_transient, TransientOptions};
use rlckit_circuit::tree::TreeSpec;
use rlckit_circuit::SolverBackend;
use rlckit_interconnect::{DistributedLine, RoutingTree};
use rlckit_numeric::sparse::SparseLuFactor;
use rlckit_units::{
    Capacitance, CapacitancePerLength, InductancePerLength, Length, Resistance,
    ResistancePerLength, Time, Voltage,
};

/// Tree shapes swept: `(levels, fanout, segments per branch)`. Smoke mode
/// (`RLCKIT_BENCH_SMOKE`) keeps the two cheapest shapes, whose record labels
/// are a strict subset of the full run's.
fn shapes() -> Vec<(usize, usize, usize)> {
    smoke_or(
        vec![(3, 2, 4), (3, 3, 8)],
        vec![(3, 2, 4), (3, 3, 8), (4, 3, 9), (4, 4, 8), (5, 4, 8)],
    )
}

/// Mesh shapes swept: `(rows, cols)` power-grid style RC grids. The full
/// sweep tops out past 100 000 unknowns (317² junctions); smoke mode keeps
/// two cheap grids whose labels are a subset of the full run's while still
/// exercising every mesh record family.
fn mesh_shapes() -> Vec<(usize, usize)> {
    smoke_or(vec![(8, 8), (24, 24)], vec![(8, 8), (24, 24), (100, 100), (180, 180), (317, 317)])
}

/// Largest MNA dimension the dense kernel is still timed at.
const FULL_KERNEL_DIM_LIMIT: usize = 1300;

/// The paper's Fig. 1 electrical regime as the root-to-sink path: 10 mm of
/// 50 Ω/mm, 1 nH/mm, 0.1 fF/µm wire behind a 250 Ω driver.
fn tree_spec(levels: usize, fanout: usize, segments: usize) -> TreeSpec {
    let path = DistributedLine::new(
        ResistancePerLength::from_ohms_per_millimeter(50.0),
        InductancePerLength::from_nanohenries_per_millimeter(1.0),
        CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
        Length::from_millimeters(10.0),
    )
    .expect("paper line parameters are valid");
    let tree = RoutingTree::symmetric(&path, levels, fanout, Capacitance::from_femtofarads(50.0))
        .expect("bench tree shapes are valid");
    tree.to_tree_spec(Resistance::from_ohms(250.0), Voltage::from_volts(1.0), segments)
        .expect("bench trees lower to circuit specs")
}

/// A power-grid style RC mesh: 2 Ω segments, 10 fF junctions, a 10 Ω pad.
fn mesh_spec(rows: usize, cols: usize) -> MeshSpec {
    MeshSpec::new(
        rows,
        cols,
        Resistance::from_ohms(2.0),
        Capacitance::from_femtofarads(10.0),
        Resistance::from_ohms(10.0),
    )
}

/// MNA dimension of a circuit — the "node count" the records are labelled by.
fn mna_dim(circuit: &Circuit) -> usize {
    MnaSystem::build(circuit).expect("bench circuit assembles").dim()
}

/// A fixed 200-step horizon so every size pays one factorisation plus the
/// same number of substitutions.
fn options(backend: SolverBackend) -> TransientOptions {
    TransientOptions::new(Time::from_picoseconds(200.0), Time::from_picoseconds(1.0))
        .with_backend(backend)
}

fn bench_tree_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_scaling");
    group.sample_size(smoke_or(2, 10));
    for (levels, fanout, segments) in shapes() {
        let spec = tree_spec(levels, fanout, segments);
        let dim = mna_dim(&spec.build().expect("bench tree builds").circuit);
        group.bench_with_input(BenchmarkId::new("sparse", dim), &spec, |b, spec| {
            let net = spec.build().expect("bench tree builds");
            let opts = options(SolverBackend::Sparse);
            b.iter(|| run_transient(black_box(&net.circuit), &opts).expect("simulates"))
        });
        if dim <= FULL_KERNEL_DIM_LIMIT {
            group.bench_with_input(BenchmarkId::new("dense", dim), &spec, |b, spec| {
                let net = spec.build().expect("bench tree builds");
                let opts = options(SolverBackend::Dense);
                b.iter(|| run_transient(black_box(&net.circuit), &opts).expect("simulates"))
            });
        }
    }
    group.finish();
}

/// Cold-factor, warm-refactor and fill statistics of one assembled system.
struct KernelStats {
    /// One pivoting factorisation from the symbolic analysis, seconds.
    factor: f64,
    /// One value-only refactorisation of the frozen pattern, seconds
    /// (best of three, so scheduler noise cannot fake a slowdown).
    refactor: f64,
    /// `(nnz(L) + nnz(U)) / nnz(A)`.
    fill_ratio: f64,
    /// `nnz(L)` (unit diagonal included).
    l_nnz: f64,
}

/// Times the sparse kernel directly on a circuit's transient-step matrix
/// `G + C/dt`, then refactors the same pattern with a different timestep
/// scalar — the exact warm operation a timestep change or AC sweep pays.
fn kernel_stats(circuit: &Circuit) -> KernelStats {
    let mna = MnaSystem::build(circuit).expect("bench circuit assembles");
    let dt = 1e-12;
    let a = mna.assemble_csc_real(1.0, 1.0 / dt);
    let start = Instant::now();
    let mut factor =
        SparseLuFactor::factor(&a, mna.sparse_symbolic()).expect("bench system factors");
    let factor_time = start.elapsed().as_secs_f64();
    let fill_ratio = (factor.l_nnz() + factor.u_nnz()) as f64 / a.nnz() as f64;
    let l_nnz = factor.l_nnz() as f64;
    let a2 = mna.assemble_csc_real(1.0, 2.0 / dt);
    let mut refactor_time = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        factor.refactor(black_box(&a2)).expect("bench system refactors");
        refactor_time = refactor_time.min(start.elapsed().as_secs_f64());
    }
    black_box(factor.solve(&vec![1.0; mna.dim()]));
    KernelStats { factor: factor_time, refactor: refactor_time, fill_ratio, l_nnz }
}

/// One pass per configuration: the structural counts go to
/// `BENCH_tree.json`, the mesh factor/refactor timings are printed and the
/// refactor speedup asserted.
fn write_perf_trajectory() {
    let mut report = PerfReport::new("tree");
    for (levels, fanout, segments) in shapes() {
        let spec = tree_spec(levels, fanout, segments);
        let net = spec.build().expect("bench tree builds");
        let dim = mna_dim(&net.circuit);
        let stats = kernel_stats(&net.circuit);
        report.push(format!("nodes/{dim}"), dim as f64, "count");
        report.push(format!("branches/{dim}"), spec.branches.len() as f64, "count");
        report.push(format!("fill_ratio/{dim}"), stats.fill_ratio, "x");
        report.push(format!("l_nnz/{dim}"), stats.l_nnz, "count");
        println!(
            "{dim:>6} unknowns ({levels} levels x {fanout} fanout): fill ratio {:.3}, \
             nnz(L) {}",
            stats.fill_ratio, stats.l_nnz
        );
    }
    let mut largest_speedup = None;
    for (rows, cols) in mesh_shapes() {
        let net = mesh_spec(rows, cols).build().expect("bench mesh builds");
        let dim = mna_dim(&net.circuit);
        let stats = kernel_stats(&net.circuit);
        let speedup = stats.factor / stats.refactor;
        report.push(format!("mesh_nodes/{dim}"), dim as f64, "count");
        report.push(format!("mesh_fill_ratio/{dim}"), stats.fill_ratio, "x");
        report.push(format!("mesh_l_nnz/{dim}"), stats.l_nnz, "count");
        largest_speedup = Some(speedup);
        println!(
            "{dim:>6} unknowns ({rows}x{cols} mesh): factor {:.4} s, refactor {:.4} s \
             (speedup {speedup:.1}x), fill ratio {:.2}, nnz(L) {}",
            stats.factor, stats.refactor, stats.fill_ratio, stats.l_nnz
        );
    }
    // The warm path must stay clearly ahead of a cold factorisation at the
    // largest grid of the sweep — the whole point of the refactor path.
    let speedup = largest_speedup.expect("mesh sweep is never empty");
    assert!(
        speedup >= 2.0,
        "value-only refactorisation must be at least 2x faster than a cold \
         factorisation at the largest mesh (got {speedup:.2}x)"
    );
    write_trajectory_or_exit(&report);
}

/// Under `RLCKIT_PROFILE=1` only: exercise the sweep executor's cache twice
/// (one cold pass, one fully warm replay) so the emitted `PROFILE_tree.json`
/// also carries the `sweep.cache_hits` / `sweep.cache_misses` counters next
/// to the solver and transient spans this bench produces anyway.
fn profile_sweep_cache() {
    if !rlckit_telemetry::enabled() {
        return;
    }
    use rlckit_sweep::{
        cache::{ResultStore, DEFAULT_STORE_BUDGET},
        eval::DelayModelEvaluator,
        exec::{run_sweep_cached, SweepOptions},
        scenario::{Param, Scenario},
        spec::{Axis, SweepSpec},
    };
    let spec = SweepSpec::new(Scenario::default())
        .axis(Axis::new("length_mm", [5.0, 10.0].map(Param::LineLengthMm)));
    let mut cache = ResultStore::in_memory(DEFAULT_STORE_BUDGET);
    let opts = SweepOptions::with_threads(2);
    let cold = run_sweep_cached(&spec, &DelayModelEvaluator, &opts, &mut cache)
        .expect("profile sweep runs");
    let warm = run_sweep_cached(&spec, &DelayModelEvaluator, &opts, &mut cache)
        .expect("profile sweep replays");
    assert_eq!(cold.computed, spec.len());
    assert_eq!(warm.cache_hits, spec.len());
}

fn bench_with_trajectory(c: &mut Criterion) {
    bench_tree_scaling(c);
    write_perf_trajectory();
    profile_sweep_cache();
    write_profile_if_enabled("tree");
}

criterion_group!(benches, bench_with_trajectory);
criterion_main!(benches);
