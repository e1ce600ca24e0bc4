//! A linear circuit simulator used as the dynamic-simulation referee for the
//! `rlckit` workspace.
//!
//! The DAC 1999 paper validates its closed-form delay model against AS/X,
//! IBM's proprietary dynamic circuit simulator. This crate plays that role:
//! it builds linear circuits (resistors, capacitors, inductors, independent
//! sources), assembles the modified nodal analysis (MNA) equations, and runs
//! DC, AC and transient analyses.
//!
//! Because every element is linear and the timestep is fixed, the transient
//! solver factorises the system matrix once and reuses the factors at every
//! step, so even finely segmented transmission-line ladders simulate quickly.
//!
//! # Modules
//!
//! * [`netlist`] — circuit construction ([`Circuit`], [`NodeId`], elements);
//! * [`source`] — independent source waveforms (step, ramp, pulse, PWL);
//! * [`mna`] — structure-preserving assembly of the `G·x + C·dx/dt = b(t)`
//!   system straight into compressed-sparse-column form;
//! * [`solve`] — the circuit-side face of the pluggable sparse/dense
//!   [`SolverBackend`];
//! * [`state_space`] — the descriptor state-space view `(G, C, B, Lᵀ)` of an
//!   assembled circuit, consumed by the Krylov model-order reducer;
//! * [`dc`] — DC operating point;
//! * [`transient`] — fixed-step transient analysis (backward Euler or
//!   trapezoidal) and the probe-driven measurement driver behind every
//!   `measure_*` entry point;
//! * [`ac`] — complex-frequency transfer functions;
//! * [`waveform`] — sampled waveforms and delay/overshoot measurements;
//! * [`ladder`] — convenience builder for gate-driven RLC transmission-line
//!   ladders (the circuit of Fig. 1 in the paper);
//! * [`tree`] — gate-driven branching RLC nets ([`tree::TreeSpec`]) with
//!   per-sink delay/overshoot extraction, the workload of the sparse solver
//!   backend;
//! * [`mesh`] — gate-driven regular RC(L) grids ([`mesh::MeshSpec`]), the
//!   power-grid/clock-mesh workload that forces genuine fill and scales the
//!   sparse kernel to 10⁵⁺ unknowns;
//! * [`pattern_cache`] — opt-in process-global cache sharing symbolic
//!   analyses, and the factors of identical matrices, across systems whose
//!   MNA sparsity pattern matches (the cross-request fast path of the
//!   `rlckit-server` daemon).
//!
//! # Example: 50% delay of a driven RLC line
//!
//! ```
//! use rlckit_circuit::ladder::{LadderSpec, SegmentStyle};
//! use rlckit_circuit::transient::{run_transient, Integration, TransientOptions};
//! use rlckit_circuit::SolverBackend;
//! use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};
//!
//! # fn main() -> Result<(), rlckit_circuit::CircuitError> {
//! let spec = LadderSpec {
//!     total_resistance: Resistance::from_ohms(500.0),
//!     total_inductance: Inductance::from_nanohenries(10.0),
//!     total_capacitance: Capacitance::from_picofarads(1.0),
//!     segments: 40,
//!     style: SegmentStyle::Pi,
//!     driver_resistance: Resistance::from_ohms(250.0),
//!     load_capacitance: Capacitance::from_picofarads(0.1),
//!     supply: Voltage::from_volts(1.0),
//! };
//! let line = spec.build()?;
//! let options = TransientOptions {
//!     stop_time: Time::from_seconds(2.0e-9),
//!     step: Time::from_picoseconds(1.0),
//!     method: Integration::Trapezoidal,
//!     backend: SolverBackend::Auto,
//! };
//! let result = run_transient(&line.circuit, &options)?;
//! let vout = result.node_voltage(line.output);
//! let delay = vout.first_crossing(0.5)?;
//! assert!(delay.seconds() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac;
pub mod dc;
pub mod error;
pub mod ladder;
pub mod mesh;
pub mod mna;
pub mod netlist;
pub mod pattern_cache;
pub mod solve;
pub mod source;
pub mod state_space;
pub mod transient;
pub mod tree;
pub mod waveform;

pub use error::CircuitError;
pub use netlist::{Circuit, InductorId, NodeId, SourceId};
pub use rlckit_numeric::solver::{ResolvedBackend, SolverBackend};
pub use source::SourceWaveform;
pub use state_space::DescriptorStateSpace;
pub use waveform::Waveform;
