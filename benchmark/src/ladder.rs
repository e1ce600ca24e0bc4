//! `ladder_measure`: back-to-back `measure_step_delay` calls on the
//! BENCH_solver_scaling ladder at 200 sections, the paper's reference
//! measurement. One thread, no server, sweep or cache code.

use rlckit_circuit::ladder::{measure_step_delay, LadderSpec};
use rlckit_circuit::SolverBackend;
use rlckit_reduce::reduce_ladder;
use rlckit_units::{Capacitance, Inductance, Resistance};

use crate::reference::Reference;
use crate::report::{Measured, Report};
use crate::{closed_loop, procfs, repeat_timed, Args, Rng, Workload};

/// π-sections of the measured ladder.
pub const SECTIONS: usize = 200;
/// Krylov order of the PRIMA model the transient delay is checked against.
pub const PRIMA_ORDER: usize = 8;
/// Largest accepted relative gap between the transient and PRIMA delays.
/// A tolerance rather than a bit pattern, so a later, re-blessed transient
/// still passes; the order-8 model of this ladder sits far inside it.
pub const PRIMA_TOLERANCE: f64 = 0.005;
/// Set-up repetitions before the measured phase; the last one is kept.
const SETUP_REPEATS: usize = 3;
/// Fewest measure calls per run.
const MIN_OPS: usize = 3;

/// The seeded ladder: 500 Ω, 10 nH, 1 pF line behind a 250 Ω driver into a
/// 0.1 pF load, with driver and load jittered by ±0.25 %, which moves the
/// step count by well under 1 % so the work per call stays constant.
pub fn spec(seed: u64) -> LadderSpec {
    let mut rng = Rng::new(seed);
    let mut jitter = || 1.0 + 0.005 * (rng.unit() - 0.5);
    let mut spec = LadderSpec::new(
        Resistance::from_ohms(500.0),
        Inductance::from_nanohenries(10.0),
        Capacitance::from_picofarads(1.0),
        Resistance::from_ohms(250.0 * jitter()),
        Capacitance::from_picofarads(0.1 * jitter()),
    );
    spec.segments = SECTIONS;
    spec
}

/// The 50 % delay of the order-[`PRIMA_ORDER`] PRIMA model of `spec`, in s.
///
/// # Errors
///
/// Returns the reduction or measurement error as text.
pub fn prima_delay(spec: &LadderSpec) -> Result<f64, String> {
    let reduced = reduce_ladder(spec, PRIMA_ORDER, SolverBackend::Auto)
        .map_err(|e| format!("PRIMA reduction failed: {e}"))?;
    Ok(reduced.metrics().map_err(|e| format!("PRIMA metrics failed: {e}"))?.delay_50.seconds())
}

/// The ladder workload's output check: every call returns the first call's
/// `delay_50` bit for bit, and that delay is within [`PRIMA_TOLERANCE`] of
/// the PRIMA model of the same ladder.
#[derive(Debug, Clone)]
pub struct DelayCheck {
    prima_s: f64,
    first: Option<f64>,
}

impl DelayCheck {
    /// A check against the PRIMA delay `prima_s`.
    pub fn new(prima_s: f64) -> Self {
        Self { prima_s, first: None }
    }

    /// Whether one call's delay passes.
    pub fn accept(&mut self, delay_s: f64) -> bool {
        let first = *self.first.get_or_insert(delay_s);
        delay_s.to_bits() == first.to_bits()
            && (delay_s - self.prima_s).abs() <= PRIMA_TOLERANCE * self.prima_s
    }

    /// The relative gap between the first delay and the PRIMA delay.
    pub fn prima_gap(&self) -> Option<f64> {
        self.first.map(|d| (d - self.prima_s).abs() / self.prima_s)
    }
}

/// Set-up: the seeded spec, its PRIMA reference delay, and a first measure
/// call whose delay every later call must reproduce.
///
/// # Errors
///
/// Returns the reduction error, and a first call that fails or misses the
/// PRIMA reference, as text.
pub fn setup(seed: u64) -> Result<(LadderSpec, DelayCheck), String> {
    let spec = spec(seed);
    let mut check = DelayCheck::new(prima_delay(&spec)?);
    let first = measure_step_delay(&spec).map_err(|e| format!("first measure call failed: {e}"))?;
    if !check.accept(first.delay_50.seconds()) {
        return Err(format!(
            "first delay_50 misses the order-{PRIMA_ORDER} PRIMA delay by {:.3e} (tolerance {PRIMA_TOLERANCE})",
            check.prima_gap().unwrap_or(f64::NAN)
        ));
    }
    Ok((spec, check))
}

/// One checked measure call.
///
/// # Errors
///
/// A failed call is a failed op, not an error; this never errors.
pub fn measure(spec: &LadderSpec, check: &mut DelayCheck) -> Result<bool, String> {
    Ok(match measure_step_delay(spec) {
        Ok(m) => check.accept(m.delay_50.seconds()),
        Err(e) => {
            eprintln!("ladder_measure: measure_step_delay failed: {e}");
            false
        }
    })
}

/// The end-to-end run.
///
/// # Errors
///
/// Returns set-up and `/proc` errors as text.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups_s = Vec::new();
    let (spec, mut check) = repeat_timed(SETUP_REPEATS, &mut setups_s, || setup(args.seed))?;
    let mut outcomes = Vec::new();
    let mut reference = Reference::new(1);
    let phase =
        closed_loop(args.seconds, MIN_OPS, None, Some(&mut reference), &mut outcomes, || {
            measure(&spec, &mut check)
        })?;
    let peak_rss_mb = procfs::peak_rss_mb(None).map_err(|e| e.to_string())?;

    let mut report = Report::new(Workload::LadderMeasure);
    report.count(&outcomes);
    report.push_end_to_end(&Measured { setups_s, phase, peak_rss_mb, reference });
    if let Some(gap) = check.prima_gap() {
        report.note(format!(
            "delay_50 vs order-{PRIMA_ORDER} PRIMA: relative gap {:.3e} (tolerance {PRIMA_TOLERANCE})",
            gap
        ));
    }
    Ok(report)
}
