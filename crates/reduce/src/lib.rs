//! Krylov moment-matching model-order reduction for `rlckit`.
//!
//! The paper's two-pole transfer function (Eqs. 1/6/7) is exactly an
//! order-2 moment-matched reduction of the full RLC line. This crate
//! generalises that idea into a subsystem: project the descriptor system
//! `G·x + C·ẋ = B·u, y = Lᵀx` of any ladder or coupled bus onto a small
//! Krylov subspace, extract poles and residues, and read `delay_50`,
//! overshoot and settling time off a **closed-form sum of exponentials** —
//! no time-stepping. At 1000 ladder sections the reduced evaluation is
//! orders of magnitude faster than the transient reference (see
//! `BENCH_mor.json`), which is what repeater-optimisation loops and large
//! sweeps need.
//!
//! * [`krylov`] — the PRIMA-style block-Arnoldi congruence projector
//!   ([`prima`]), built on the sparse `G`-solves and stamp-level `C`
//!   products of [`DescriptorStateSpace`](rlckit_circuit::state_space);
//! * [`awe`] — full-system transfer moments ([`awe::moments_of`]) and the
//!   paper's own `[0/q]` denominator form ([`awe::pade_denominator`]),
//!   the test oracles PRIMA and `TransferMoments` are checked against;
//! * [`rom`] — [`ReducedSystem`], [`PoleResidueModel`] and the closed-form
//!   [`StepMetrics`];
//! * [`ladder`] — one-call reduction of a [`LadderSpec`]
//!   ([`reduce_ladder`]);
//! * [`bus`] — MIMO reduction of coupled buses ([`reduce_bus`]) with
//!   switching-pattern superposition;
//! * [`error`] — the [`ReduceError`] type (non-finite inputs rejected at
//!   every entry point).
//!
//! [`LadderSpec`]: rlckit_circuit::ladder::LadderSpec
//!
//! # Example: 50% delay of a 200-section ladder without time-stepping
//!
//! ```
//! use rlckit_circuit::ladder::LadderSpec;
//! use rlckit_circuit::SolverBackend;
//! use rlckit_reduce::reduce_ladder;
//! use rlckit_units::{Capacitance, Inductance, Resistance};
//!
//! # fn main() -> Result<(), rlckit_reduce::ReduceError> {
//! let mut spec = LadderSpec::new(
//!     Resistance::from_ohms(500.0),
//!     Inductance::from_nanohenries(10.0),
//!     Capacitance::from_picofarads(1.0),
//!     Resistance::from_ohms(250.0),
//!     Capacitance::from_picofarads(0.1),
//! );
//! spec.segments = 200;
//! let reduced = reduce_ladder(&spec, 8, SolverBackend::Auto)?;
//! let metrics = reduced.metrics()?;
//! assert!(metrics.delay_50.picoseconds() > 100.0);
//! assert!(metrics.overshoot_percent >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod awe;
pub mod bus;
pub mod error;
pub mod krylov;
pub mod ladder;
pub mod rom;

pub use bus::{reduce_bus, ReducedBus};
pub use error::ReduceError;
pub use krylov::{prima, ReductionOptions};
pub use ladder::{reduce_ladder, ReducedLadder};
pub use rom::{PoleResidueModel, ReducedSystem, StepMetrics};
