//! Physical-quantity newtypes for the `rlckit` workspace.
//!
//! Interconnect analysis juggles many raw `f64` values whose units are easy to
//! confuse: total versus per-unit-length resistance, farads versus farads per
//! metre, seconds versus radians per second. This crate wraps each physical
//! dimension in a dedicated newtype ([`Resistance`], [`Capacitance`],
//! [`Inductance`], [`Length`], [`Time`], …) so the compiler catches unit
//! mix-ups, while keeping the runtime representation a plain `f64`.
//!
//! The crate also provides:
//!
//! * per-unit-length quantities ([`ResistancePerLength`],
//!   [`CapacitancePerLength`], [`InductancePerLength`]) that multiply with
//!   [`Length`] to give totals — exactly the `Rt = R·l` relations of the
//!   Ismail–Friedman formulation;
//! * the cross-dimension product of delay analysis, `R·C → Time`;
//! * engineering-notation formatting (`"1 pF"`, `"500 Ω"`).
//!
//! This is the bottom crate of the workspace: everything else — the numeric
//! kernels, the MNA simulator, the delay/repeater closed forms, the coupled
//! buses and the sweep engine — speaks in these types, and the
//! `#![warn(missing_docs)]` gate (enforced as an error in CI) keeps every
//! public quantity documented.
//!
//! # Example
//!
//! ```
//! use rlckit_units::{Capacitance, Inductance, Length, Resistance};
//!
//! // A 10 mm long global wire at 0.25 µm-era parasitics.
//! let length = Length::from_millimeters(10.0);
//! let rt = rlckit_units::ResistancePerLength::from_ohms_per_meter(1.5e3) * length;
//! let ct = rlckit_units::CapacitancePerLength::from_farads_per_meter(100e-12) * length;
//! let lt = rlckit_units::InductancePerLength::from_henries_per_meter(400e-9) * length;
//! assert_eq!(rt, Resistance::from_ohms(15.0));
//! assert_eq!(ct, Capacitance::from_picofarads(1.0));
//! assert_eq!(lt, Inductance::from_nanohenries(4.0));
//!
//! let rc = rt * ct; // Time
//! assert!(rc.seconds() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod format;
mod per_length;
mod quantities;

pub use format::{format_eng, EngFormat};
pub use per_length::{CapacitancePerLength, InductancePerLength, ResistancePerLength};
pub use quantities::{Area, Capacitance, Energy, Inductance, Length, Resistance, Time, Voltage};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_style_flow() {
        let length = Length::from_millimeters(10.0);
        let rt = ResistancePerLength::from_ohms_per_meter(1.5e3) * length;
        let ct = CapacitancePerLength::from_farads_per_meter(100e-12) * length;
        let lt = InductancePerLength::from_henries_per_meter(400e-9) * length;
        assert!((rt.ohms() - 15.0).abs() < 1e-12);
        assert!((ct.farads() - 1e-12).abs() < 1e-24);
        assert!((lt.henries() - 4e-9).abs() < 1e-20);
        let rc = rt * ct;
        assert!(rc.seconds() > 0.0);
    }
}
