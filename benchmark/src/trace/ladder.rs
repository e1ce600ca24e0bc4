//! Traced `ladder_measure`: plain `measure_step_delay` calls, then the same
//! measurement decomposed into circuit build, transient runs, waveform
//! extraction and measurement, then the kernels of one run.

use rlckit_perfbench::ladder;
use rlckit_perfbench::{closed_loop, stats, timed};
use rlckit_units::Time;

use crate::breakdown::{self, Probe};
use crate::Trace;

/// Fewest ops per phase.
const MIN_OPS: usize = 2;

/// The traced run.
///
/// # Errors
///
/// Returns set-up, build and kernel errors as text.
pub fn run(args: &rlckit_perfbench::Args, trace: &mut Trace) -> Result<(), String> {
    let (spec, mut check) = ladder::setup(args.seed)?;
    let phase = args.seconds / 3.0;
    let plain_s = closed_loop(phase, MIN_OPS, None, None, &mut trace.outcomes, || {
        ladder::measure(&spec, &mut check)
    })?
    .latencies_s;

    let mut builds_s = Vec::new();
    let mut ops = Vec::new();
    let traced_s = closed_loop(phase, MIN_OPS, None, None, &mut trace.outcomes, || {
        let (line, build_s) = timed(|| spec.build());
        let line = line.map_err(|e| e.to_string())?;
        builds_s.push(build_s);
        let probe = Probe {
            circuit: &line.circuit,
            output: line.output,
            supply: spec.supply,
            stop: spec.suggested_stop_time(),
            timestep: spec.suggested_timestep(),
        };
        match breakdown::measure(&probe) {
            Ok(m) => {
                let ok = check.accept(m.delay_s);
                ops.push(m);
                Ok(ok)
            }
            Err(e) => {
                eprintln!("ladder_measure: {e}");
                Ok(false)
            }
        }
    })?
    .latencies_s;
    let last = ops.last().ok_or("no traced measurement succeeded")?;
    let line = spec.build().map_err(|e| e.to_string())?;
    let kernels = breakdown::kernels(&line.circuit, Time::from_seconds(last.step_s))?;
    let accounted_ms = breakdown::record(trace, &builds_s, &ops, &kernels);

    let runs = stats::median(&ops.iter().map(|m| m.runs as f64).collect::<Vec<_>>());
    let retries =
        if runs > 1.0 { format!(", {runs} horizons per op (retries)") } else { String::new() };
    trace.closure(
        accounted_ms,
        stats::median(&plain_s) * 1e3,
        "circuit.build + runs*(mna_build + factors*factor) + steps*(solve + apply) + waveform",
        &format!(
            "the gap is transient.overhead_ms: per-step RHS assembly, allocation and state storage{retries}"
        ),
    );
    trace.overhead(&traced_s, &plain_s);
    Ok(())
}
