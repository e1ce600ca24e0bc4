//! Telemetry must be a pure observer: enabling the collector may not change
//! any numerical output, bit for bit.
//!
//! Each property runs the same workload twice — once with profiling forced
//! off, once with the [`Collector`] enabled together with timeline tracing
//! (which also arms every numerical-health monitor: backward-error checks,
//! condition estimates, pivot-growth and step-residual spot checks) — and
//! compares the results via `f64::to_bits`, so even a sign-of-zero or
//! NaN-payload difference fails. The workloads cover the three instrumented
//! layers: the sparse LU kernel, the transient stepping loop (through
//! `run_transient` and through the probe-driven `measure_*` driver), and the
//! parameter-sweep executor. Two last tests check that the driver, profiled,
//! still emits every span, counter and health check of the stepping loop,
//! and that a run its stop rule ends early counts only the steps it took.
//!
//! This lives in its own integration-test binary on purpose: the collector
//! state is process-global, and here only these tests touch it, one at a
//! time under the telemetry test lock.

use proptest::prelude::*;

use rlckit::circuit::transient::{measure_transient, run_transient, StopRule, TransientOptions};
use rlckit::circuit::CircuitError;
use rlckit::numeric::sparse::{CscMatrix, SparseLuFactor};
use rlckit::prelude::*;
use rlckit::telemetry::test_support;

/// Runs `workload` once with profiling off and once with profiling, health
/// monitoring and timeline tracing all on, returning both outputs for
/// comparison.
fn off_and_on<T>(mut workload: impl FnMut() -> T) -> (T, T) {
    let _serial = test_support::lock();
    let off = {
        let _collector = Collector::disable();
        let _trace = Collector::disable_trace();
        workload()
    };
    let on = {
        // `enable` arms the profile/health layer; `enable_trace` additionally
        // records begin/end timeline events for every span.
        let _collector = Collector::enable();
        let _trace = Collector::enable_trace();
        workload()
    };
    (off, on)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A global wire of the quarter-micron technology behind a 100× buffer.
fn quarter_micron_ladder(length_mm: f64, segments: usize) -> LadderSpec {
    let tech = Technology::quarter_micron();
    let line = tech.global_wire.line(Length::from_millimeters(length_mm)).unwrap();
    let mut spec = LadderSpec::new(
        line.total_resistance(),
        line.total_inductance(),
        line.total_capacitance(),
        tech.buffer_resistance(100.0).unwrap(),
        tech.buffer_capacitance(100.0).unwrap(),
    );
    spec.segments = segments;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sparse factor + solve: identical solution vectors either way.
    #[test]
    fn sparse_solve_is_bitwise_invariant(
        (n_seed, shift, rhs_seed) in (5.0f64..40.0, 0.1f64..2.0, 0.0f64..1.0)
    ) {
        let n = n_seed as usize;
        // An unsymmetric diagonally dominant tridiagonal system: enough
        // structure to exercise elimination and pivot-growth accounting.
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 4.0 + shift));
            if i + 1 < n {
                triplets.push((i + 1, i, -1.0));
                triplets.push((i, i + 1, -1.5));
            }
        }
        let a = CscMatrix::from_triplets(n, &triplets);
        let b: Vec<f64> = (0..n).map(|i| rhs_seed + i as f64 / n as f64).collect();
        let (off, on) = off_and_on(|| {
            let factor = SparseLuFactor::factor_auto(&a).expect("dominant system factors");
            factor.solve(&b)
        });
        prop_assert_eq!(bits(&off), bits(&on));
    }

    /// Transient ladder simulation: identical time grids and waveforms.
    #[test]
    fn transient_run_is_bitwise_invariant(
        (length_mm, seg_seed) in (2.0f64..10.0, 8.0f64..24.0)
    ) {
        let spec = quarter_micron_ladder(length_mm, seg_seed as usize);
        let ladder = spec.build().unwrap();
        let options = TransientOptions::new(spec.suggested_stop_time(), spec.suggested_timestep());
        let (off, on) = off_and_on(|| {
            let result = run_transient(&ladder.circuit, &options).expect("ladder simulates");
            let output = result.node_voltage(ladder.output);
            (bits(output.times()), bits(output.values()))
        });
        prop_assert_eq!(off, on);
    }

    /// Probe-driven measurement: identical delay, rise time and overshoot.
    #[test]
    fn transient_driver_is_bitwise_invariant(
        (length_mm, seg_seed) in (2.0f64..10.0, 8.0f64..24.0)
    ) {
        let spec = quarter_micron_ladder(length_mm, seg_seed as usize);
        let (off, on) = off_and_on(|| {
            let m = measure_step_delay(&spec).expect("ladder measures");
            bits(&[m.delay_50.seconds(), m.rise_time.seconds(), m.overshoot_percent])
        });
        prop_assert_eq!(off, on);
    }

    /// Parameter sweep: identical row values (and row count) either way.
    #[test]
    fn sweep_is_bitwise_invariant(
        (l0, l1, h) in (1.0f64..4.0, 5.0f64..9.0, 40.0f64..160.0)
    ) {
        let spec = SweepSpec::new(Scenario::default())
            .axis(Axis::new("length_mm", [l0, l1].map(Param::LineLengthMm)))
            .axis(Axis::new("h", [h].map(Param::DriverSize)));
        let opts = SweepOptions::with_threads(2);
        let (off, on) = off_and_on(|| {
            let result = run_sweep(&spec, &DelayModelEvaluator, &opts).expect("sweep runs");
            result
                .rows
                .iter()
                .map(|row| bits(row.values.as_ref().expect("model evaluates")))
                .collect::<Vec<_>>()
        });
        prop_assert_eq!(off, on);
    }
}

/// Profiled, the driver emits what the stepping loop always has — the
/// `transient.run` and `transient.stepping` spans, the `transient.steps`
/// counter, the every-16th-step `step_residual` check and one
/// `backward_error` per solve — across an in-place horizon extension, and
/// factorises once: a step stimulus needs no DC solve.
#[test]
fn profiled_driver_emits_the_stepping_telemetry() {
    let _serial = test_support::lock();
    let _collector = Collector::enable();
    Collector::reset();
    let spec = quarter_micron_ladder(5.0, 12);
    let line = spec.build().unwrap();
    // The second attempt extends the first in place.
    let stop = spec.suggested_stop_time();
    let options = TransientOptions::new(stop, stop / 4000.0);
    let mut attempts = 0;
    let steps = measure_transient(&line.circuit, &[line.output], &options, None, |result| {
        attempts += 1;
        if attempts == 1 {
            Err(CircuitError::Measurement { reason: "ask for a longer horizon".to_owned() })
        } else {
            Ok(result.len() - 1)
        }
    })
    .expect("second horizon is accepted");
    let snapshot = Collector::snapshot();
    Collector::reset();

    assert_eq!(snapshot.span("transient.run").map(|s| s.count), Some(1));
    assert_eq!(snapshot.span("transient.run/transient.stepping").map(|s| s.count), Some(2));
    assert_eq!(snapshot.counter("transient.steps"), Some(steps as u64));
    let health = &snapshot.health;
    let residuals = health.site("transient.stepping", "step_residual").expect("residual checks");
    assert_eq!(residuals.count, (steps / 16) as u64);
    let solves = health.site("sparse.solve", "backward_error").expect("backward errors");
    // The first step is two backward-Euler half-steps, so it solves twice.
    assert_eq!(solves.count, steps as u64 + 1, "one backward error per solve");
    let factors = health.site("sparse.factor", "condest").expect("condition estimate");
    assert_eq!(factors.count, 1, "the zero-DC initial condition needs no factorisation");
    assert_eq!(health.error, 0);
}

/// Profiled, a run that its stop rule ends early counts, times and
/// health-checks the steps it took and no more: the `transient.steps`
/// counter, the per-step `transient.step_seconds` histogram inside the one
/// `transient.stepping` span, every 16th step's residual and every solve.
#[test]
fn an_early_stop_counts_only_the_steps_it_took() {
    let _serial = test_support::lock();
    let _collector = Collector::enable();
    Collector::reset();
    let spec = quarter_micron_ladder(5.0, 12);
    let line = spec.build().unwrap();
    let stop = spec.suggested_stop_time();
    let options = TransientOptions::new(stop, stop / 2000.0);
    let rule = StopRule::rising(0.9 * spec.supply.volts());
    let steps = measure_transient(&line.circuit, &[line.output], &options, Some(rule), |result| {
        Ok::<_, CircuitError>(result.len() - 1)
    })
    .expect("the output crosses 90%");
    let snapshot = Collector::snapshot();
    Collector::reset();

    assert!(steps < 1000, "the run took {steps} of 2000 steps");
    assert_eq!(snapshot.span("transient.run/transient.stepping").map(|s| s.count), Some(1));
    assert_eq!(snapshot.counter("transient.steps"), Some(steps as u64));
    let timed = snapshot.histograms.iter().find(|h| h.name == "transient.step_seconds");
    assert_eq!(timed.map(|h| h.count), Some(steps as u64));
    let health = &snapshot.health;
    let residuals = health.site("transient.stepping", "step_residual").expect("residual checks");
    assert_eq!(residuals.count, (steps / 16) as u64);
    let solves = health.site("sparse.solve", "backward_error").expect("backward errors");
    assert_eq!(solves.count, steps as u64 + 1);
}
