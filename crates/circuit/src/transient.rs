//! Fixed-step transient analysis.
//!
//! The circuit is linear, so the time-discretised system matrix is constant
//! and is factorised once per timestep size; every timestep is then a single
//! forward/backward substitution. Two A-stable one-step integration methods
//! are provided:
//!
//! * **Backward Euler** — first order, strongly damping (useful as a
//!   cross-check; it artificially damps ringing);
//! * **Trapezoidal** — second order, the default. It preserves the ringing of
//!   underdamped RLC lines, which is essential when comparing against the
//!   paper's inductance-dominated cases.
//!
//! The iteration matrix is factorised through the pluggable
//! [`SolverBackend`] — sparse under a fill-reducing ordering, or the dense
//! oracle on request — and the history operator is applied straight from the
//! MNA stamps in `O(nnz)`, so no other matrix is ever materialised.
//!
//! One stepping loop serves every caller. [`run_transient`] records every
//! node at every step. [`measure_transient`] records only the probed
//! nodes, and when its measurement needs a longer horizon it continues the
//! same run instead of restarting from `t = 0`. Every step reuses the same
//! preallocated buffers, so stepping allocates only to store the probes'
//! samples.
//!
//! **The start.** The state at `t = 0` is the operating point before the
//! stimulus switches; a step source is at its full value from `t = 0⁺`. A
//! trapezoidal first step would average the source at `0` and `dt` (every
//! crossing late by `dt/2`) and leave algebraic unknowns ringing, so the
//! first step is two backward-Euler half-steps (SPICE's breakpoint rule),
//! whose matrix `G + 2C/dt` is twice the trapezoidal one.
//!
//! **Where the step comes from.** Every `measure_*` entry point takes its
//! step from one rule: ~8 points per fastest segment mode (a segment's LC
//! time of flight) and at least ~2000 per horizon, never below 1/200 000 of
//! the horizon. A segment's modes decay as `e^{−R/(2L)·t}`; when all are
//! down to 1e-3 by the earliest 50 % crossing, the step resolves that
//! crossing with ~500 points instead, never finer than the segment rule.
//! The crossing is estimated as the larger of the time of flight and
//! `ln 2` × the Elmore delay ([`path_crossing`]). On a tree that Elmore
//! delay counts every side branch, which can put the estimate after the
//! real crossing of a sink near the root, so
//! [`measure_tree_delays`](crate::tree::measure_tree_delays) checks the
//! step against the crossing its run measured.
//!
//! **Where a run ends.** A measurement reads a few crossings and perhaps
//! the peak, and every sample after the last of them is wasted. So each
//! entry point states a [`StopRule`], and [`measure_transient`] ends the
//! run at the first step where every probe has made the last crossing its
//! measurement reads and, where it reads a peak (overshoot), the slowest
//! segment mode has rung down: `e^{−α_min·t} ≤ 1e-3` with
//! `α_min = min R/(2L)`, the threshold of the step rule. An RC circuit has
//! no such mode. The step and the horizon do not change, so every sample up
//! to the stop is the one a full-horizon run computes, and a first crossing
//! (a delay, a rise time) is bit for bit the same; a peak is exact wherever
//! the ring-down comes after the horizon, and otherwise misses only ringing
//! already below 1e-3 of its start. A ladder or a tree reads 90 % and the
//! peak, an SRAM read 90 %, a bus wire its 50 % crossing in its own
//! direction; a mesh runs to its horizon.

use rlckit_numeric::interp::rises_through;
use rlckit_numeric::solver::{ResolvedBackend, SolverBackend};
use rlckit_units::Time;

use crate::dc::operating_point_of;
use crate::error::CircuitError;
use crate::mna::MnaSystem;
use crate::netlist::{Circuit, NodeId};
use crate::solve::{factor_real, FactoredMna};
use crate::waveform::Waveform;

/// Horizons [`measure_transient`] tries, each four times the last, before it
/// returns the last measurement error.
const HORIZON_ATTEMPTS: usize = 4;

/// The step rule of the module docs, in seconds. `horizon` is the
/// suggested stop time, `crossing` the estimated earliest 50 % crossing
/// ([`path_crossing`]), and each segment is its modes' decay rate `R/(2L)`
/// and its time of flight `√(LC)`.
pub fn suggested_step(
    horizon: f64,
    crossing: f64,
    segments: impl IntoIterator<Item = (f64, f64)>,
) -> f64 {
    let mut segment_rule = horizon / 2000.0;
    let mut modes_dead = true;
    for (decay_rate, time_of_flight) in segments {
        segment_rule = segment_rule.min(time_of_flight / 8.0);
        modes_dead &= (-decay_rate * crossing).exp() <= 1e-3;
    }
    let segment_rule = segment_rule.max(horizon / 200_000.0);
    if modes_dead {
        segment_rule.max((crossing / 500.0).min(horizon / 2000.0))
    } else {
        segment_rule
    }
}

/// The estimated earliest 50 % crossing, in seconds, at the far end of a
/// chain of elements listed from the far end back to the source: the larger
/// of the time of flight `Σ√(LC)` and `ln 2` × the Elmore delay, in which
/// every resistance sees all the capacitance downstream of it. Each element
/// `(R, L, C, C_side)` is a uniform line of totals `R`, `L` and `C` with
/// `C_side` hanging at its far end (a load, or a side branch's whole
/// capacitance); the driver is the last element, `(R_tr, 0, 0, C_side)`.
pub fn path_crossing(path: impl IntoIterator<Item = (f64, f64, f64, f64)>) -> f64 {
    let (mut elmore, mut time_of_flight, mut downstream_c) = (0.0, 0.0, 0.0);
    for (r, l, c, side_c) in path {
        downstream_c += side_c;
        elmore += r * (downstream_c + c / 2.0);
        downstream_c += c;
        time_of_flight += (l * c).sqrt();
    }
    time_of_flight.max(std::f64::consts::LN_2 * elmore)
}

/// Where a [`measure_transient`] run may end before its horizon (the module
/// docs, "Where a run ends"): at the first step after every probe has
/// crossed a level upward, read as the measurement reads it, and the
/// slowest mode has rung down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    level: f64,
    /// `Some(v0)` reads a probe as `v0 − v`, a fall from `v0` measured as a
    /// rise.
    falling_from: Option<f64>,
    /// The slowest mode's decay rate `α_min`; infinite when the measurement
    /// reads no peak.
    ring_down_rate: f64,
}

impl StopRule {
    /// Every probe has crossed `level` volts upward, as
    /// [`Waveform::first_crossing`] finds it.
    pub fn rising(level: f64) -> Self {
        Self { level, falling_from: None, ring_down_rate: f64::INFINITY }
    }

    /// Every probe, read as `from − v` (a fall from `from` measured as a
    /// rise), has crossed `level` volts upward.
    pub fn falling(from: f64, level: f64) -> Self {
        Self { level, falling_from: Some(from), ring_down_rate: f64::INFINITY }
    }

    /// The measurement also reads the peak, so the run goes on until the
    /// slowest mode, decaying as `e^{−rate·t}` (`rate = min R/(2L)` over the
    /// segments; infinite for an RC circuit), is down to 1e-3.
    #[must_use]
    pub fn and_ring_down(mut self, rate: f64) -> Self {
        self.ring_down_rate = rate;
        self
    }

    /// Whether a probe moving from `prev` to `next` volts crosses the level.
    fn crosses(&self, prev: f64, next: f64) -> bool {
        let read = |v: f64| self.falling_from.map_or(v, |from| from - v);
        rises_through(read(prev), read(next), self.level)
    }

    /// Whether the slowest mode has rung down by `t` seconds.
    fn rung_down(&self, t: f64) -> bool {
        (-self.ring_down_rate * t).exp() <= 1e-3
    }
}

/// Time-integration method for [`run_transient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integration {
    /// First-order backward Euler.
    BackwardEuler,
    /// Second-order trapezoidal rule (default).
    #[default]
    Trapezoidal,
}

/// Options controlling a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// End time of the simulation (the run covers `[0, stop_time]`).
    pub stop_time: Time,
    /// Fixed integration timestep.
    pub step: Time,
    /// Integration method.
    pub method: Integration,
    /// Solver backend used for the one-off factorisation (default
    /// [`SolverBackend::Auto`], the sparse kernel).
    pub backend: SolverBackend,
}

impl TransientOptions {
    /// Convenience constructor using the default (trapezoidal) method and
    /// automatic backend selection.
    pub fn new(stop_time: Time, step: Time) -> Self {
        Self { stop_time, step, method: Integration::Trapezoidal, backend: SolverBackend::Auto }
    }

    /// Returns a copy with the given solver backend.
    #[must_use]
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    fn validate(&self) -> Result<(), CircuitError> {
        if !(self.stop_time.seconds() > 0.0) || !self.stop_time.seconds().is_finite() {
            return Err(CircuitError::InvalidAnalysis {
                reason: "stop time must be positive and finite",
            });
        }
        if !(self.step.seconds() > 0.0) || !self.step.seconds().is_finite() {
            return Err(CircuitError::InvalidAnalysis {
                reason: "timestep must be positive and finite",
            });
        }
        if self.step.seconds() > self.stop_time.seconds() {
            return Err(CircuitError::InvalidAnalysis {
                reason: "timestep must not exceed the stop time",
            });
        }
        let steps = self.stop_time.seconds() / self.step.seconds();
        if steps > 50_000_000.0 {
            return Err(CircuitError::InvalidAnalysis {
                reason: "too many timesteps (> 5e7); increase the step",
            });
        }
        Ok(())
    }

    /// Timesteps that cover `[0, stop_time]`.
    fn num_steps(&self) -> usize {
        (self.stop_time.seconds() / self.step.seconds()).ceil() as usize
    }
}

/// Result of a transient run: the recorded unknowns at every timestep.
///
/// A [`run_transient`] result records every node; a [`measure_transient`]
/// result records only the probed nodes.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// One vector of samples per node unknown, empty for a node not recorded.
    states: Vec<Vec<f64>>,
    backend: ResolvedBackend,
}

impl TransientResult {
    /// Number of timesteps (including the initial point).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the result has no samples (never true for a
    /// successful run).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage waveform of a node.
    ///
    /// Ground returns an all-zero waveform.
    ///
    /// # Panics
    ///
    /// Panics if the node was not recorded (not one of the probes of a
    /// [`measure_transient`] run).
    pub fn node_voltage(&self, node: NodeId) -> Waveform {
        let values = if node.is_ground() {
            vec![0.0; self.times.len()]
        } else {
            self.samples(node).to_vec()
        };
        Waveform::from_samples(self.times.clone(), values)
            .expect("transient sample grid is strictly increasing")
    }

    /// Which solver kernel factorised the iteration matrix.
    pub fn backend(&self) -> ResolvedBackend {
        self.backend
    }

    /// The recorded samples of a non-ground node.
    fn samples(&self, node: NodeId) -> &[f64] {
        let samples = &self.states[node.index() - 1];
        assert!(!samples.is_empty(), "node {node:?} was not recorded");
        samples
    }
}

/// Runs a fixed-step transient analysis over `[0, stop_time]`, recording
/// every node voltage.
///
/// The initial condition is the DC operating point with sources evaluated at
/// `t = 0`, so a step source that switches at `t = 0` starts the circuit from
/// rest — the paper's setup — and sees its full value from `t = 0⁺` (see
/// the module docs). When every source is zero at `t = 0` that
/// operating point is `x = 0` and no DC system is factorised, so a circuit
/// whose DC matrix is singular (a voltage source across an inductor, say)
/// still simulates from a zero-at-`t = 0` stimulus.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidAnalysis`] for bad options,
/// [`CircuitError::EmptyCircuit`] for an element-free circuit and
/// [`CircuitError::SingularSystem`] if the discretised system (or, for a
/// stimulus that is nonzero at `t = 0`, the DC system) cannot be factorised.
pub fn run_transient(
    circuit: &Circuit,
    options: &TransientOptions,
) -> Result<TransientResult, CircuitError> {
    options.validate()?;
    let _span = rlckit_telemetry::span("transient.run");
    let mna = MnaSystem::build(circuit)?;
    // Branch currents are not readable from a result, so only nodes are kept.
    let mut run = Stepper::start(&mna, options, (0..mna.node_unknowns()).collect())?;
    run.advance_to(options.num_steps(), None);
    Ok(run.result)
}

/// Simulates `circuit`, recording only the `probes`, until `measure`
/// accepts the result — the driver behind every `measure_*` entry point.
///
/// `options` carries the horizon and the timestep (the entry points take
/// both from the rule in the module docs). Each attempt steps on to the
/// first step where `stop` holds or to its horizon (`None` always runs to
/// the horizon), and hands the probes' waveforms to `measure`. If `measure`
/// fails at the horizon, the horizon grows fourfold, up to four attempts,
/// and the run continues in place from where it stopped, at the same step:
/// bit for bit what a run started with the longer horizon computes. `stop`
/// must not hold before what `measure` reads has happened: an error from a
/// run it ended is returned as it is.
///
/// # Errors
///
/// Returns the analysis errors of [`run_transient`] (for every horizon
/// tried), the error of `measure` on a run that `stop` ended, and the last
/// error of `measure` if no horizon satisfies it.
///
/// # Panics
///
/// Panics if `measure` reads a node that is not a probe.
pub fn measure_transient<T, E: From<CircuitError>>(
    circuit: &Circuit,
    probes: &[NodeId],
    options: &TransientOptions,
    stop: Option<StopRule>,
    mut measure: impl FnMut(&TransientResult) -> Result<T, E>,
) -> Result<T, E> {
    options.validate()?;
    let _span = rlckit_telemetry::span("transient.run");
    let mna = MnaSystem::build(circuit)?;
    let mut rows: Vec<usize> = probes.iter().filter_map(|&node| mna.row_of_node(node)).collect();
    rows.sort_unstable();
    rows.dedup();
    let mut run = Stepper::start(&mna, options, rows)?;
    let mut attempt = *options;
    let mut last_error = None;
    for _ in 0..HORIZON_ATTEMPTS {
        attempt.validate()?;
        let stopped = run.advance_to(attempt.num_steps(), stop.as_ref());
        match measure(&run.result) {
            Ok(value) => return Ok(value),
            // The rule held, so a longer horizon reads nothing new.
            Err(e) if stopped => return Err(e),
            Err(e) => {
                last_error = Some(e);
                attempt.stop_time *= 4.0;
            }
        }
    }
    Err(last_error.expect("at least one attempt was measured"))
}

/// The fixed-step integrator: the factorised iteration matrix, the step's
/// reusable buffers, and the samples recorded so far.
struct Stepper<'a> {
    mna: &'a MnaSystem,
    /// The node rows recorded, each once.
    rows: Vec<usize>,
    method: Integration,
    dt: f64,
    factor: FactoredMna<f64>,
    /// `G` scale of the iteration matrix.
    lhs_g: f64,
    state: Vec<f64>,
    b_prev: Vec<f64>,
    b_next: Vec<f64>,
    rhs: Vec<f64>,
    /// Solve scratch.
    work: Vec<f64>,
    /// `A·x` of the sampled step-residual check.
    ax: Vec<f64>,
    /// Steps taken so far.
    steps: usize,
    /// The recorded rows that have not yet made a [`StopRule`]'s crossing.
    uncrossed: Vec<usize>,
    result: TransientResult,
}

impl<'a> Stepper<'a> {
    /// Factorises the iteration matrix and records the initial condition
    /// of the node `rows`, which must be distinct.
    fn start(
        mna: &'a MnaSystem,
        options: &TransientOptions,
        rows: Vec<usize>,
    ) -> Result<Self, CircuitError> {
        let dim = mna.dim();
        let dt = options.step.seconds();
        // The constant iteration matrix and the history operator:
        //   BE:   (G + C/dt)        x_{n+1} = b_{n+1} + (C/dt) x_n
        //   TRAP: (G/2 + C/dt)      x_{n+1} = (b_{n+1}+b_n)/2 + (C/dt - G/2) x_n
        // The history mat-vec is the stamp-level `O(nnz)` `apply_real_into`,
        // in logical order like the factored system.
        let lhs_g = match options.method {
            Integration::BackwardEuler => 1.0,
            Integration::Trapezoidal => 0.5,
        };
        let factor = factor_real(mna, lhs_g, 1.0 / dt, options.backend, "transient analysis")?;

        // Initial condition: the DC operating point at t = 0, which is x = 0
        // without a second factorisation when every source is zero then.
        let mut b_prev = vec![0.0; dim];
        mna.rhs_at(Time::ZERO, &mut b_prev);
        let state = if b_prev.iter().all(|&b| b == 0.0) {
            vec![0.0; dim]
        } else {
            operating_point_of(mna, Time::ZERO, options.backend)?.state().to_vec()
        };

        let mut states = vec![Vec::new(); mna.node_unknowns()];
        for &row in &rows {
            states[row].push(state[row]);
        }
        let result = TransientResult { times: vec![0.0], states, backend: factor.backend() };
        Ok(Self {
            mna,
            uncrossed: rows.clone(),
            rows,
            method: options.method,
            dt,
            factor,
            lhs_g,
            state,
            b_prev,
            b_next: vec![0.0; dim],
            rhs: vec![0.0; dim],
            work: Vec::new(),
            ax: vec![0.0; dim],
            steps: 0,
            result,
        })
    }

    /// Solves one step ending at `t`: sources `w_next·b(t) + w_prev·b_prev`
    /// plus memory `(C/dt + hist_g·G)·x`. Inline, or 10×10 meshes lose 3–5 %.
    #[inline(always)]
    fn solve_step(&mut self, t: f64, hist_g: f64, w_next: f64, w_prev: f64) {
        self.mna.rhs_at(Time::from_seconds(t), &mut self.b_next);
        self.mna.apply_real_into(hist_g, 1.0 / self.dt, &self.state, &mut self.rhs);
        for ((r, next), prev) in self.rhs.iter_mut().zip(&self.b_next).zip(&self.b_prev) {
            *r += w_next * next + w_prev * prev;
        }
        self.factor.solve_into(&self.rhs, &mut self.state, &mut self.work);
    }

    /// Steps on until `t = num_steps·dt`, recording every step, or until
    /// `stop` holds; returns whether `stop` ended the run.
    fn advance_to(&mut self, num_steps: usize, stop: Option<&StopRule>) -> bool {
        let (mna, dt) = (self.mna, self.dt);
        let first = self.steps + 1;
        let new_steps = num_steps.saturating_sub(self.steps);
        self.result.times.reserve(new_steps);
        for &row in &self.rows {
            self.result.states[row].reserve(new_steps);
        }

        // Hoisted so the loop body pays one branch, not an atomic load per step.
        let profiling = rlckit_telemetry::enabled();
        let _stepping = rlckit_telemetry::span("transient.stepping");
        let mut stopped = false;
        for n in first..=num_steps {
            let step_start = profiling.then(std::time::Instant::now);
            let t = n as f64 * dt;
            match self.method {
                // A backward-Euler half-step is `(G + 2C/dt)·x = b(t) +
                // (2C/dt)·x_prev`, halved to solve with `G/2 + C/dt`.
                Integration::Trapezoidal if n == 1 => {
                    self.solve_step(0.5 * dt, 0.0, 0.5, 0.0);
                    self.solve_step(t, 0.0, 0.5, 0.0);
                }
                Integration::Trapezoidal => self.solve_step(t, -0.5, 0.5, 0.5),
                Integration::BackwardEuler => self.solve_step(t, 0.0, 1.0, 0.0),
            }
            let rhs = &self.rhs;
            if profiling && n.is_multiple_of(16) {
                // Spot-check the step's linear system with one extra O(nnz)
                // stamp-level mat-vec: ‖A·x − b‖∞ / max(‖A·x‖∞, ‖b‖∞).
                mna.apply_real_into(self.lhs_g, 1.0 / dt, &self.state, &mut self.ax);
                let mut residual = 0.0_f64;
                let mut scale = 0.0_f64;
                for (axi, ri) in self.ax.iter().zip(rhs.iter()) {
                    residual = residual.max((axi - ri).abs());
                    scale = scale.max(axi.abs()).max(ri.abs());
                }
                let metric = if scale == 0.0 { 0.0 } else { residual / scale };
                rlckit_telemetry::check_metric(
                    "transient.stepping",
                    "step_residual",
                    metric,
                    rlckit_numeric::condition::STEP_RESIDUAL_WARN,
                    rlckit_numeric::condition::STEP_RESIDUAL_ERROR,
                );
            }
            self.result.times.push(t);
            for &row in &self.rows {
                self.result.states[row].push(self.state[row]);
            }
            std::mem::swap(&mut self.b_prev, &mut self.b_next);
            self.steps = n;
            if let Some(start) = step_start {
                rlckit_telemetry::observe_seconds(
                    "transient.step_seconds",
                    start.elapsed().as_secs_f64(),
                );
            }
            if let Some(rule) = stop {
                let states = &self.result.states;
                self.uncrossed.retain(|&row| !rule.crosses(states[row][n - 1], states[row][n]));
                if self.uncrossed.is_empty() && rule.rung_down(t) {
                    stopped = true;
                    break;
                }
            }
        }
        drop(_stepping);
        rlckit_telemetry::counter_add("transient.steps", (self.steps + 1 - first) as u64);
        stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;
    use rlckit_units::{Capacitance, Inductance, Resistance, Voltage};

    /// Step-driven RC low-pass: analytic response 1 − e^{−t/RC}.
    fn rc_circuit() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let input = c.add_node();
        let out = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(input, out, Resistance::from_ohms(1000.0)).unwrap();
        c.add_capacitor(out, gnd, Capacitance::from_picofarads(1.0)).unwrap();
        (c, out)
    }

    /// Series RLC driven by a step; underdamped for the chosen values.
    fn rlc_circuit() -> (Circuit, NodeId, f64, f64) {
        let r = 20.0;
        let l = 10e-9;
        let cap = 1e-12;
        let mut c = Circuit::new();
        let input = c.add_node();
        let mid = c.add_node();
        let out = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(input, mid, Resistance::from_ohms(r)).unwrap();
        c.add_inductor(mid, out, Inductance::from_henries(l)).unwrap();
        c.add_capacitor(out, gnd, Capacitance::from_farads(cap)).unwrap();
        let zeta = r / 2.0 * (cap / l).sqrt();
        let wn = 1.0 / (l * cap).sqrt();
        (c, out, zeta, wn)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (c, out) = rc_circuit();
        let tau = 1e-9; // RC = 1 kΩ × 1 pF
        let options =
            TransientOptions::new(Time::from_seconds(5.0 * tau), Time::from_seconds(tau / 1000.0));
        let result = run_transient(&c, &options).unwrap();
        let w = result.node_voltage(out);
        for &frac in &[0.5, 1.0, 2.0, 4.0] {
            let t = frac * tau;
            let got = w.value_at(Time::from_seconds(t)).unwrap().volts();
            let want = 1.0 - (-t / tau).exp();
            assert!((got - want).abs() < 2e-3, "t/τ = {frac}: got {got}, want {want}");
        }
        // 50% delay of an RC low-pass is ln 2 · τ ≈ 0.693 ns.
        let d = w.delay_50(Voltage::from_volts(1.0)).unwrap();
        assert!((d.seconds() - tau * std::f64::consts::LN_2).abs() < 5e-12);
    }

    #[test]
    fn backward_euler_also_converges_for_rc() {
        let (c, out) = rc_circuit();
        let tau = 1e-9;
        let options = TransientOptions {
            stop_time: Time::from_seconds(5.0 * tau),
            step: Time::from_seconds(tau / 2000.0),
            method: Integration::BackwardEuler,
            backend: SolverBackend::Auto,
        };
        let result = run_transient(&c, &options).unwrap();
        let got = result.node_voltage(out).value_at(Time::from_seconds(tau)).unwrap().volts();
        let want = 1.0 - (-1.0f64).exp();
        assert!((got - want).abs() < 5e-3, "got {got}, want {want}");
    }

    #[test]
    fn rlc_step_response_matches_analytic_second_order() {
        let (c, out, zeta, wn) = rlc_circuit();
        assert!(zeta < 1.0, "test circuit should be underdamped");
        let t_end = 20.0 / wn;
        let options =
            TransientOptions::new(Time::from_seconds(t_end), Time::from_seconds(t_end / 20_000.0));
        let result = run_transient(&c, &options).unwrap();
        let w = result.node_voltage(out);
        let wd = wn * (1.0 - zeta * zeta).sqrt();
        for &frac in &[0.1, 0.3, 0.5, 0.8] {
            let t = frac * t_end;
            let got = w.value_at(Time::from_seconds(t)).unwrap().volts();
            let want =
                1.0 - (-zeta * wn * t).exp() * ((wd * t).cos() + zeta * wn / wd * (wd * t).sin());
            assert!((got - want).abs() < 5e-3, "t = {t}: got {got}, want {want}");
        }
        // The response of an underdamped circuit must overshoot.
        assert!(w.overshoot_percent(Voltage::from_volts(1.0)) > 10.0);
    }

    #[test]
    fn final_value_reaches_supply() {
        let (c, out) = rc_circuit();
        let options =
            TransientOptions::new(Time::from_seconds(20.0e-9), Time::from_picoseconds(5.0));
        let result = run_transient(&c, &options).unwrap();
        let last = *result.node_voltage(out).values().last().unwrap();
        assert!((last - 1.0).abs() < 1e-6);
        assert!(result.len() > 100);
        assert!(!result.is_empty());
        // Ground waveform is identically zero.
        let gnd_wave = result.node_voltage(c.ground());
        assert!(gnd_wave.values().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn invalid_options_are_rejected() {
        let (c, _) = rc_circuit();
        let bad_stop = TransientOptions::new(Time::ZERO, Time::from_picoseconds(1.0));
        assert!(matches!(run_transient(&c, &bad_stop), Err(CircuitError::InvalidAnalysis { .. })));
        let bad_step = TransientOptions::new(Time::from_seconds(1.0e-9), Time::ZERO);
        assert!(matches!(run_transient(&c, &bad_step), Err(CircuitError::InvalidAnalysis { .. })));
        let step_too_large =
            TransientOptions::new(Time::from_seconds(1.0e-9), Time::from_seconds(2.0e-9));
        assert!(matches!(
            run_transient(&c, &step_too_large),
            Err(CircuitError::InvalidAnalysis { .. })
        ));
        let too_many = TransientOptions::new(Time::from_seconds(1.0), Time::from_picoseconds(1.0));
        assert!(matches!(run_transient(&c, &too_many), Err(CircuitError::InvalidAnalysis { .. })));
    }

    #[test]
    fn step_equal_to_stop_time_is_a_single_step_run() {
        // Regression test: the bound used to be `step >= stop_time` while the
        // message promised only "smaller than" was required. A step equal to
        // the stop time is a legitimate one-step run and must be accepted; a
        // strictly larger step must still be rejected with the (now accurate)
        // "must not exceed" message.
        let (c, _) = rc_circuit();
        let one_step =
            TransientOptions::new(Time::from_seconds(1.0e-9), Time::from_seconds(1.0e-9));
        let result = run_transient(&c, &one_step).unwrap();
        assert_eq!(result.len(), 2); // the initial point plus exactly one step

        let too_large =
            TransientOptions::new(Time::from_seconds(1.0e-9), Time::from_seconds(1.0001e-9));
        match run_transient(&c, &too_large) {
            Err(CircuitError::InvalidAnalysis { reason }) => {
                assert_eq!(reason, "timestep must not exceed the stop time");
            }
            other => panic!("expected InvalidAnalysis, got {other:?}"),
        }
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let c = Circuit::new();
        let options =
            TransientOptions::new(Time::from_seconds(1.0e-9), Time::from_picoseconds(1.0));
        assert!(matches!(run_transient(&c, &options), Err(CircuitError::EmptyCircuit)));
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_backward_euler() {
        let (c, out, zeta, wn) = rlc_circuit();
        let t_end = 10.0 / wn;
        let dt = t_end / 2000.0;
        let wd = wn * (1.0 - zeta * zeta).sqrt();
        let analytic = |t: f64| {
            1.0 - (-zeta * wn * t).exp() * ((wd * t).cos() + zeta * wn / wd * (wd * t).sin())
        };
        let sample_t = 0.4 * t_end;

        let mut errors = Vec::new();
        for method in [Integration::Trapezoidal, Integration::BackwardEuler] {
            let options = TransientOptions {
                stop_time: Time::from_seconds(t_end),
                step: Time::from_seconds(dt),
                method,
                backend: SolverBackend::Auto,
            };
            let result = run_transient(&c, &options).unwrap();
            let got =
                result.node_voltage(out).value_at(Time::from_seconds(sample_t)).unwrap().volts();
            errors.push((got - analytic(sample_t)).abs());
        }
        assert!(
            errors[0] < errors[1],
            "trapezoidal error {} should beat backward Euler {}",
            errors[0],
            errors[1]
        );
    }

    #[test]
    fn small_circuits_resolve_to_the_sparse_kernel() {
        let (c, _) = rc_circuit();
        let options =
            TransientOptions::new(Time::from_seconds(1.0e-9), Time::from_picoseconds(1.0));
        let result = run_transient(&c, &options).unwrap();
        assert_eq!(result.backend(), ResolvedBackend::Sparse);
    }
}
