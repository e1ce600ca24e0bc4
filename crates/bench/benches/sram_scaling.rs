//! Netlist-frontend scaling on SRAM bitline/wordline array decks.
//!
//! The frontend's scaling workload is an SRAM array: `n × n` cells emitted as
//! a SPICE deck (two parameterized subcircuits, one `X` instance per cell),
//! lowered back through the tokenizer/parser/elaborator, and simulated for
//! the far-corner read delay on the sparse kernel. This bench sweeps the
//! array edge from 8 to 64 — 195 to 12 291 MNA unknowns. The far-corner
//! read delay of every array, a deterministic number, lands in the
//! trajectory `BENCH_sram.json`.
//!
//! The 64 × 64 point is the acceptance workload: a deck-lowered system past
//! 10⁴ unknowns completing a sparse-backend transient.
//!
//! Run with `cargo bench -p rlckit-bench --bench sram_scaling`.

use rlckit_bench::report::{
    smoke_or, write_profile_if_enabled, write_trajectory_or_exit, PerfReport,
};
use rlckit_circuit::SolverBackend;
use rlckit_netlist::{measure_sram_read, SramArraySpec};

/// Array edges swept; smoke mode (`RLCKIT_BENCH_SMOKE`) keeps the two
/// cheapest points.
fn edges() -> Vec<usize> {
    smoke_or(vec![8, 16], vec![8, 16, 32, 64])
}

/// One read per array, its delay written to `BENCH_sram.json`.
fn write_perf_trajectory() {
    let mut report = PerfReport::new("sram");
    for n in edges() {
        let read = measure_sram_read(&SramArraySpec::new(n, n), SolverBackend::Sparse)
            .expect("read completes");
        report.push(format!("read_delay/{n}x{n}"), read.delay_50.picoseconds(), "ps");
        println!(
            "{n:>3}x{n:<3} {:>6} unknowns ({:?}): read delay {}",
            read.unknowns, read.backend, read.delay_50,
        );
    }
    write_trajectory_or_exit(&report);
}

fn main() {
    write_perf_trajectory();
    // Under RLCKIT_PROFILE=1 this lands PROFILE_sram.json, which CI audits
    // for the frontend spans (netlist.parse / netlist.lower) and the
    // numerical-health rollup of the deck-lowered transient reads.
    write_profile_if_enabled("sram");
}
