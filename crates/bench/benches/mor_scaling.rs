//! Reduced-order vs full-transient delay evaluation at growing ladder sizes.
//!
//! The whole point of the `rlckit-reduce` subsystem: a transient run costs a
//! factorisation plus thousands of sparse solves *per evaluation*, while an
//! order-`q` PRIMA reduction costs `q` sparse solves once and then answers
//! `delay_50`/overshoot/settling in closed form. This bench times both paths
//! on the paper's driven line from 50 to 1000 π-sections and checks they
//! agree on the delay to better than 1 %. The reduction order and the
//! per-size delay error — deterministic numbers — go into the trajectory
//! `BENCH_mor.json`; the timings and the reduced-vs-transient speedup are
//! printed only. The acceptance target is a ≥10× speedup at 1000 sections;
//! in practice the gap is orders of magnitude.
//!
//! Run with `cargo bench -p rlckit-bench --bench mor_scaling`.

use std::hint::black_box;
use std::time::Instant;

use rlckit_bench::report::{smoke_or, write_trajectory_or_exit, PerfReport};
use rlckit_circuit::ladder::{measure_step_delay, LadderSpec, SegmentStyle};
use rlckit_circuit::SolverBackend;
use rlckit_reduce::reduce_ladder;
use rlckit_units::{Capacitance, Inductance, Resistance, Voltage};

/// Reduction order used throughout (well past the ≤1% delay-accuracy knee).
const ORDER: usize = 8;

/// Ladder sizes; smoke mode keeps the two cheapest.
fn sections() -> Vec<usize> {
    smoke_or(vec![50, 100], vec![50, 100, 200, 500, 1000])
}

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

/// One reduced evaluation: PRIMA projection + closed-form metrics.
fn reduced_seconds(sections: usize) -> (f64, f64) {
    let spec = spec(sections);
    let start = Instant::now();
    let reduced = reduce_ladder(black_box(&spec), ORDER, SolverBackend::Auto).expect("reduces");
    let metrics = reduced.metrics().expect("measures");
    (start.elapsed().as_secs_f64(), metrics.delay_50.seconds())
}

/// One full evaluation: transient simulation + waveform measurement.
fn transient_seconds(sections: usize) -> (f64, f64) {
    let spec = spec(sections);
    let start = Instant::now();
    let m = measure_step_delay(black_box(&spec)).expect("simulates");
    (start.elapsed().as_secs_f64(), m.delay_50.seconds())
}

/// One pass per size: records the delay error, asserts it and the
/// speedup target, prints the timings.
fn write_perf_trajectory() {
    let mut report = PerfReport::new("mor");
    report.push("order", ORDER as f64, "count");
    let mut speedup_at_1000 = None;
    for sections in sections() {
        let (fast, fast_delay) = reduced_seconds(sections);
        let (full, full_delay) = transient_seconds(sections);
        let speedup = full / fast;
        let err = 100.0 * (fast_delay - full_delay).abs() / full_delay;
        report.push(format!("delay_error_pct/{sections}"), err, "percent");
        if sections == 1000 {
            speedup_at_1000 = Some(speedup);
        }
        println!(
            "{sections:>5} sections: transient {full:.4} s, reduced {fast:.6} s, \
             speedup {speedup:.0}x, delay error {err:.3}%"
        );
        assert!(err < 1.0, "reduced delay drifted {err}% from the transient at {sections}");
    }
    write_trajectory_or_exit(&report);
    if let Some(s) = speedup_at_1000 {
        println!("reduced vs transient speedup at 1000 sections: {s:.0}x");
        assert!(s >= 10.0, "speedup target at 1000 sections not met: {s:.1}x");
    }
}

fn main() {
    write_perf_trajectory();
}
