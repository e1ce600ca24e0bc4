//! The transient measurement restated from outside: the horizon-retry loop
//! of `measure_step_delay` and `measure_mesh_delay` over `run_transient`,
//! with each public call timed, and the kernel calls of one run and one
//! step (MNA build, factorisation, solve, history mat-vec) timed one by one.

use rlckit_circuit::mna::MnaSystem;
use rlckit_circuit::pattern_cache::{self, PatternCacheGuard};
use rlckit_circuit::solve::factor_real;
use rlckit_circuit::transient::{run_transient, TransientOptions};
use rlckit_circuit::{Circuit, NodeId, SolverBackend};
use rlckit_perfbench::{stats, timed};
use rlckit_units::{Time, Voltage};

use crate::Trace;

/// Horizons the measurement entry points try before giving up.
const HORIZONS: usize = 4;
/// Repetitions of the MNA build and of the factorisation.
const KERNEL_REPEATS: usize = 5;
/// Steps of the stepping loop whose solves and mat-vecs are timed.
const KERNEL_STEPS: usize = 2000;

/// A measurement to decompose: the circuit, its probed node, and the entry
/// point's suggested horizon and timestep.
pub struct Probe<'a> {
    /// The built circuit.
    pub circuit: &'a Circuit,
    /// The node whose delay is measured.
    pub output: NodeId,
    /// The step amplitude.
    pub supply: Voltage,
    /// The first horizon tried.
    pub stop: Time,
    /// The suggested timestep.
    pub timestep: Time,
}

/// One decomposed measurement; times in seconds.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Wall time inside `run_transient`, over every horizon tried.
    pub run_s: f64,
    /// Horizons tried (1 when the first one sees the crossing).
    pub runs: usize,
    /// Timesteps over every horizon.
    pub steps: usize,
    /// Samples of the longest run, including the initial point.
    pub samples: usize,
    /// Wall time of `node_voltage`.
    pub extract_s: f64,
    /// Wall time of `delay_50` + `rise_time` + `overshoot_percent`.
    pub measure_s: f64,
    /// The measured 50 % delay.
    pub delay_s: f64,
    /// Timestep of the last run, in seconds.
    pub step_s: f64,
}

/// Runs the measurement loop of the entry points, timing each call.
///
/// # Errors
///
/// Returns analysis errors, and a probe that never crosses 50 %.
pub fn measure(probe: &Probe) -> Result<Measurement, String> {
    let mut m = Measurement::default();
    let mut stop = probe.stop;
    for _ in 0..HORIZONS {
        let step = probe.timestep.min(stop / 2000.0);
        let options = TransientOptions::new(stop, step);
        let (result, run_s) = timed(|| run_transient(probe.circuit, &options));
        let result = result.map_err(|e| format!("transient failed: {e}"))?;
        m.run_s += run_s;
        m.runs += 1;
        m.steps += result.len() - 1;
        m.samples = m.samples.max(result.len());
        m.step_s = step.seconds();
        let (wave, extract_s) = timed(|| result.node_voltage(probe.output));
        m.extract_s += extract_s;
        let ((delay, rise), measure_s) = timed(|| {
            let delay = wave.delay_50(probe.supply);
            let rise = wave.rise_time(probe.supply);
            std::hint::black_box(wave.overshoot_percent(probe.supply));
            (delay, rise)
        });
        m.measure_s += measure_s;
        if let (Ok(delay), Ok(_)) = (delay, rise) {
            m.delay_s = delay.seconds();
            return Ok(m);
        }
        stop *= 4.0;
    }
    Err("the probe never crossed 50 % of the supply".to_owned())
}

/// Mean per-call cost of the kernels of one run and one step, in seconds.
#[derive(Debug, Clone)]
pub struct Kernels {
    /// `MnaSystem::build`.
    pub mna_build_s: f64,
    /// `factor_real` of the stepping matrix.
    pub factor_s: f64,
    /// Factorisations one `run_transient` performs.
    pub factors_per_run: u64,
    /// `FactoredMna::solve`.
    pub solve_s: f64,
    /// `MnaSystem::apply_real` (the history mat-vec).
    pub apply_s: f64,
    /// MNA unknowns.
    pub dim: usize,
}

/// Times the kernels of a run of `circuit` at timestep `step`: MNA build
/// and factorisation medians, and solve and mat-vec means over the steps of
/// a stepping loop (means, so steps × mean is the time those calls take in
/// a run).
///
/// # Errors
///
/// Returns assembly and factorisation errors as text.
pub fn kernels(circuit: &Circuit, step: Time) -> Result<Kernels, String> {
    let options = TransientOptions::new(step * 4.0, step);
    let dt = step.seconds();
    let mut mna_times = Vec::new();
    let mut mna = None;
    for _ in 0..KERNEL_REPEATS {
        let (built, seconds) = timed(|| MnaSystem::build(circuit));
        mna = Some(built.map_err(|e| e.to_string())?);
        mna_times.push(seconds);
    }
    let mna = mna.expect("at least one build");
    let mut factor_times = Vec::new();
    let mut factor = None;
    for _ in 0..KERNEL_REPEATS {
        let (factored, seconds) =
            timed(|| factor_real(&mna, 0.5, 1.0 / dt, options.backend, "benchmark stepping"));
        factor = Some(factored.map_err(|e| e.to_string())?);
        factor_times.push(seconds);
    }
    let factor = factor.expect("at least one factorisation");

    // An untimed trapezoidal stepping loop from rest records the operands of
    // every step; the mat-vecs and the solves are then timed as two batches
    // over those operands, so each kernel sees the values a run feeds it.
    let dim = mna.dim();
    let (mut x, mut b_prev, mut b_next) = (vec![0.0; dim], vec![0.0; dim], vec![0.0; dim]);
    mna.rhs_at(Time::ZERO, &mut b_prev);
    let (mut states, mut rhss) = (Vec::new(), Vec::new());
    for n in 1..=KERNEL_STEPS {
        mna.rhs_at(Time::from_seconds(n as f64 * dt), &mut b_next);
        let mut rhs = mna.apply_real(-0.5, 1.0 / dt, &x);
        for ((r, next), prev) in rhs.iter_mut().zip(&b_next).zip(&b_prev) {
            *r += 0.5 * (next + prev);
        }
        let solved = factor.solve(&rhs);
        states.push(std::mem::replace(&mut x, solved));
        rhss.push(rhs);
        std::mem::swap(&mut b_prev, &mut b_next);
    }
    let ((), apply_s) = timed(|| {
        for state in &states {
            std::hint::black_box(mna.apply_real(-0.5, 1.0 / dt, state));
        }
    });
    let ((), solve_s) = timed(|| {
        for rhs in &rhss {
            std::hint::black_box(factor.solve(rhs));
        }
    });

    Ok(Kernels {
        mna_build_s: stats::median(&mna_times),
        factor_s: stats::median(&factor_times),
        factors_per_run: count_factorisations(circuit, step)?,
        solve_s: solve_s / KERNEL_STEPS as f64,
        apply_s: apply_s / KERNEL_STEPS as f64,
        dim,
    })
}

/// Factorisations one `run_transient` performs, counted from outside: the
/// pattern cache counts a lookup per factorisation on the sparse kernel, so
/// a few-step run forced onto that kernel with the cache on counts them.
fn count_factorisations(circuit: &Circuit, step: Time) -> Result<u64, String> {
    let options = TransientOptions::new(step * 4.0, step).with_backend(SolverBackend::Sparse);
    let _enabled = PatternCacheGuard::enable();
    pattern_cache::clear();
    pattern_cache::reset_stats();
    let ran = run_transient(circuit, &options);
    let counted = pattern_cache::stats();
    pattern_cache::clear();
    ran.map_err(|e| e.to_string())?;
    Ok(counted.value_hits + counted.refactor_hits + counted.misses)
}

/// Sets the circuit, numeric, transient and waveform metrics from the
/// circuit build times and decomposed measurements of several ops and the
/// kernel costs, and returns the milliseconds per op those measured calls
/// account for (the derived overhead excluded).
pub fn record(trace: &mut Trace, builds_s: &[f64], ops: &[Measurement], k: &Kernels) -> f64 {
    let per_op =
        |f: &dyn Fn(&Measurement) -> f64| stats::median(&ops.iter().map(f).collect::<Vec<_>>());
    let n = ops.len();
    let kernels_s = |m: &Measurement| {
        m.runs as f64 * (k.mna_build_s + k.factors_per_run as f64 * k.factor_s)
            + m.steps as f64 * (k.solve_s + k.apply_s)
    };
    let build_ms = stats::median(builds_s) * 1e3;
    let run_ms = per_op(&|m| m.run_s) * 1e3;
    let overhead_ms = per_op(&|m| m.run_s - kernels_s(m)) * 1e3;
    let extract_ms = per_op(&|m| m.extract_s) * 1e3;
    let measure_us = per_op(&|m| m.measure_s) * 1e6;
    let steps = per_op(&|m| m.steps as f64);
    let runs = per_op(&|m| m.runs as f64);
    let samples = ops.iter().map(|m| m.samples).max().unwrap_or(0);

    trace.set("circuit.build_ms", build_ms, format!("median of n={} builds", builds_s.len()));
    trace.set("circuit.mna_build_ms", k.mna_build_s * 1e3, format!("median of n={KERNEL_REPEATS}"));
    trace.set(
        "numeric.factor_ms",
        k.factor_s * 1e3,
        format!("median of n={KERNEL_REPEATS}, stepping matrix"),
    );
    trace.set(
        "numeric.factors_per_run",
        k.factors_per_run as f64,
        "pattern-cache lookups of a sparse-kernel probe run",
    );
    trace.set("numeric.solve_us", k.solve_s * 1e6, format!("mean of n={KERNEL_STEPS} steps"));
    trace.set("transient.run_ms", run_ms, format!("median of n={n} ops"));
    trace.set("transient.steps_per_op", steps, format!("median of n={n} ops"));
    trace.set("transient.runs_per_op", runs, "horizons tried per op (1 is the useful case)");
    trace.set("transient.apply_us", k.apply_s * 1e6, format!("mean of n={KERNEL_STEPS} steps"));
    trace.set(
        "transient.overhead_ms",
        overhead_ms,
        "run_ms - steps*(solve+apply) - runs*(factors*factor + mna_build)",
    );
    trace.set(
        "transient.stored_mb",
        samples as f64 * k.dim as f64 * 8.0 / 1e6,
        format!("computed: {samples} samples x {} unknowns x 8 B", k.dim),
    );
    trace.set("waveform.extract_ms", extract_ms, format!("median of n={n} ops"));
    trace.set("waveform.measure_us", measure_us, format!("median of n={n} ops"));

    build_ms + per_op(&kernels_s) * 1e3 + extract_ms + measure_us / 1e3
}
