//! Numerical-methods substrate for the `rlckit` workspace.
//!
//! Everything the rest of the workspace needs that is "just math" lives here,
//! implemented from scratch on top of `std`:
//!
//! * [`complex`] — a small `Complex` type (the workspace avoids external
//!   numerics crates);
//! * [`matrix`] / [`lu`] — dense matrices and LU factorisation with partial
//!   pivoting, over both real and complex scalars (the test oracle of the
//!   sparse kernel, and the solver of small dense systems);
//! * [`sparse`] — compressed-sparse-column matrices and the fill-reducing
//!   sparse LU that factors every MNA system;
//! * [`solver`] — the [`SolverBackend`] policy that
//!   dispatches between the sparse kernel and the dense oracle;
//! * [`condition`] — normwise backward error and the Hager–Higham 1-norm
//!   condition estimate, feeding the numerical-health monitors of
//!   `rlckit-telemetry` from retained factors at `O(nnz)` cost;
//! * [`roots`] — the bracketing Brent root finder and the first-crossing
//!   search every closed-form delay goes through;
//! * [`optimize`] — the Nelder–Mead simplex (used by the numerical repeater
//!   optimiser);
//! * [`orth`] — modified Gram–Schmidt orthonormalization with
//!   reorthogonalization and deflation (the Krylov-basis kernel of the
//!   model-order-reduction crate);
//! * [`eig`] — a small dense nonsymmetric eigensolver (Householder
//!   Hessenberg reduction + Francis double-shift QR), used for reduced-model
//!   pole extraction;
//! * [`laplace`] — the fixed-Talbot numerical inverse Laplace transform,
//!   used to evaluate the exact transmission-line transfer function in the
//!   time domain;
//! * [`interp`] — linear interpolation, threshold-crossing search on
//!   sampled waveforms, and the one crossing test ([`interp::rises_through`]);
//! * [`poly`] — the [`poly::Polynomial`] coefficient container and root
//!   cluster separation;
//! * [`stats`] — error metrics used when comparing model against simulation.
//!
//! Nothing here knows about circuits or units: this crate sits directly
//! above `std` so the kernels stay reusable and independently testable. The
//! sparse LU is the workhorse of every transient sweep in the workspace
//! (see `DESIGN.md` for the complexity accounting), and the
//! `#![warn(missing_docs)]` gate (an error in CI) keeps the public surface
//! documented.
//!
//! # Example
//!
//! ```
//! use rlckit_numeric::roots::brent;
//!
//! // Solve x² = 2 on [1, 2].
//! let root = brent(|x| x * x - 2.0, 1.0, 2.0, 1e-12, 100).expect("bracketed root");
//! assert!((root - 2f64.sqrt()).abs() < 1e-10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod condition;
pub mod eig;
pub mod interp;
pub mod laplace;
pub mod lu;
pub mod matrix;
pub mod optimize;
pub mod orth;
pub mod poly;
pub mod roots;
pub mod solver;
pub mod sparse;
pub mod stats;

pub use complex::Complex;
pub use eig::{eigenvalues, EigError};
pub use matrix::Matrix;
pub use orth::OrthoBuilder;
pub use solver::{FactoredSolver, ResolvedBackend, SolverBackend};
