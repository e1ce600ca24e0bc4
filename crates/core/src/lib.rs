//! The closed-form RLC propagation-delay model of Ismail & Friedman (DAC 1999).
//!
//! This crate is the paper's primary contribution: an accurate closed-form
//! estimate of the 50% propagation delay of a CMOS gate (modelled by its
//! equivalent output resistance `Rtr`) driving a uniform distributed RLC line
//! loaded by a gate input capacitance `CL`.
//!
//! The model reduces the five impedances `Rt`, `Lt`, `Ct`, `Rtr`, `CL` to a
//! single parameter `ζ` (plus a time scale `1/ωn`):
//!
//! ```text
//! ωn   = 1 / sqrt( Lt·(Ct + CL) )                                   (Eq. 3)
//! RT   = Rtr/Rt ,  CT = CL/Ct                                       (Eq. 5)
//! ζ    = (Rt/2)·sqrt(Ct/Lt)·(RT + CT + RT·CT + 0.5)/sqrt(1 + CT)    (Eq. 6)
//! t'pd = e^(−2.9·ζ^1.35) + 1.48·ζ                                   (Eq. 9)
//! tpd  = t'pd / ωn
//! ```
//!
//! Modules:
//!
//! * [`load`] — the [`GateRlcLoad`] bundle of the five impedances with its
//!   normalised quantities (`RT`, `CT`, `ωn`, `ζ`);
//! * [`model`] — Eq. (9) and its limiting cases;
//! * [`response`] — a two-pole analytic step-response model built from the
//!   exact transfer-function moments (useful for full waveforms, not just the
//!   50% point);
//! * [`rc_models`] — the classical RC baselines (Elmore, Sakurai, lumped RC)
//!   that the paper argues against;
//! * [`accuracy`] — error bookkeeping when comparing the model against a
//!   dynamic simulation.
//!
//! Everything downstream of the closed forms — repeater insertion, the
//! coupled-bus baselines and the sweep engine's delay evaluators — funnels
//! through [`load::GateRlcLoad`] and [`model::propagation_delay`], so this
//! crate's public surface is deliberately small and fully documented
//! (`#![warn(missing_docs)]`, an error in CI).
//!
//! # Example
//!
//! ```
//! use rlckit_core::load::GateRlcLoad;
//! use rlckit_core::model::propagation_delay;
//! use rlckit_units::{Capacitance, Inductance, Resistance};
//!
//! # fn main() -> Result<(), rlckit_core::CoreError> {
//! // One of the Table 1 operating points: Ct = 1 pF, Rtr = 500 Ω, RT = 1, CT = 0.5.
//! let load = GateRlcLoad::new(
//!     Resistance::from_ohms(500.0),
//!     Inductance::from_henries(1e-7),
//!     Capacitance::from_picofarads(1.0),
//!     Resistance::from_ohms(500.0),
//!     Capacitance::from_picofarads(0.5),
//! )?;
//! let tpd = propagation_delay(&load);
//! assert!(tpd.picoseconds() > 500.0 && tpd.picoseconds() < 2000.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod error;
pub mod load;
pub mod model;
pub mod rc_models;
pub mod response;

pub use error::CoreError;
pub use load::GateRlcLoad;
