//! Distributed RLC interconnect modelling for the `rlckit` workspace.
//!
//! This crate provides everything between "a wire on a chip" and "the five
//! impedances the delay model needs":
//!
//! * [`mod@line`] — uniform [`DistributedLine`]s described by per-unit-length
//!   `R`, `L`, `C` and a length, with totals and conversion to simulatable
//!   ladder specifications;
//! * [`technology`] — technology-generation presets (minimum-buffer `R0`,
//!   `C0`, `Amin`, representative wire classes) used by the repeater and
//!   scaling experiments;
//! * [`twoport`] — the exact Laplace-domain transfer function of a gate-driven,
//!   capacitively loaded lossy line (Eq. 1 of the paper) and its step response
//!   via numerical inverse Laplace;
//! * [`moments`] — closed-form low-order denominator coefficients (Elmore
//!   delay and friends);
//! * [`merit`] — figures of merit deciding when inductance must be modelled
//!   (ref. \[8\] of the paper) and the `T_{L/R}` parameter of Eq. (13).
//!
//! # Example
//!
//! ```
//! use rlckit_interconnect::technology::Technology;
//! use rlckit_interconnect::merit::{assess_inductance, t_l_over_r, InductanceAssessment};
//! use rlckit_units::{Length, Time};
//!
//! # fn main() -> Result<(), rlckit_interconnect::InterconnectError> {
//! let tech = Technology::quarter_micron();
//! let clock_spine = tech.global_wire.line(Length::from_millimeters(10.0))?;
//! let assessment = assess_inductance(&clock_spine, Time::from_picoseconds(50.0));
//! assert_eq!(assessment, InductanceAssessment::Significant);
//! let t_lr = t_l_over_r(&clock_spine, tech.buffer_time_constant());
//! assert!(t_lr > 3.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod line;
pub mod merit;
pub mod mesh;
pub mod moments;
pub mod technology;
pub mod tree;
pub mod twoport;

pub use error::InterconnectError;
pub use line::DistributedLine;
pub use mesh::MeshGeometry;
pub use technology::Technology;
pub use tree::{RoutingBranch, RoutingTree};
pub use twoport::DrivenLine;
