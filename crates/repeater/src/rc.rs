//! The classical Bakoglu RC repeater optimum (Eq. 11).
//!
//! For a purely resistive-capacitive line driven through repeaters of size `h`
//! partitioning it into `k` sections, minimising the total Elmore-style delay
//! gives the well-known closed forms
//!
//! ```text
//! h_opt(RC) = sqrt( R0·Ct / (Rt·C0) )
//! k_opt(RC) = sqrt( Rt·Ct / (2·R0·C0) )
//! ```
//!
//! The paper recovers these as the `Lt → 0` limit of its RLC expressions; this
//! module provides them directly so the comparison experiments can quantify
//! the penalty of using them on inductive lines.

use rlckit_units::{Capacitance, Resistance};

/// Optimum repeater size `h_opt(RC) = sqrt(R0·Ct / (Rt·C0))` for an RC line.
///
/// # Panics
///
/// Panics if any argument is non-positive (repeater sizing for a degenerate
/// line is meaningless); construct inputs through
/// [`RepeaterProblem`](crate::system::RepeaterProblem) to get validation as an
/// error instead.
pub(crate) fn optimal_size_rc(
    line_resistance: Resistance,
    line_capacitance: Capacitance,
    buffer_resistance: Resistance,
    buffer_capacitance: Capacitance,
) -> f64 {
    let rt = line_resistance.ohms();
    let ct = line_capacitance.farads();
    let r0 = buffer_resistance.ohms();
    let c0 = buffer_capacitance.farads();
    assert!(
        rt > 0.0 && ct > 0.0 && r0 > 0.0 && c0 > 0.0,
        "all impedances must be strictly positive"
    );
    (r0 * ct / (rt * c0)).sqrt()
}

/// Optimum number of sections `k_opt(RC) = sqrt(Rt·Ct / (2·R0·C0))` for an RC line.
///
/// # Panics
///
/// Same conditions as [`optimal_size_rc`].
pub(crate) fn optimal_sections_rc(
    line_resistance: Resistance,
    line_capacitance: Capacitance,
    buffer_resistance: Resistance,
    buffer_capacitance: Capacitance,
) -> f64 {
    let rt = line_resistance.ohms();
    let ct = line_capacitance.farads();
    let r0 = buffer_resistance.ohms();
    let c0 = buffer_capacitance.farads();
    assert!(
        rt > 0.0 && ct > 0.0 && r0 > 0.0 && c0 > 0.0,
        "all impedances must be strictly positive"
    );
    (rt * ct / (2.0 * r0 * c0)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ohms(v: f64) -> Resistance {
        Resistance::from_ohms(v)
    }
    fn farads(v: f64) -> Capacitance {
        Capacitance::from_farads(v)
    }

    #[test]
    fn matches_hand_calculation() {
        // Rt = 100 Ω, Ct = 2 pF, R0 = 10 kΩ, C0 = 2 fF.
        let h = optimal_size_rc(ohms(100.0), farads(2e-12), ohms(10e3), farads(2e-15));
        assert!((h - (10e3f64 * 2e-12 / (100.0 * 2e-15)).sqrt()).abs() < 1e-9);
        let k = optimal_sections_rc(ohms(100.0), farads(2e-12), ohms(10e3), farads(2e-15));
        assert!((k - (100.0f64 * 2e-12 / (2.0 * 10e3 * 2e-15)).sqrt()).abs() < 1e-9);
        assert!(h > 1.0, "global wires want large repeaters (h = {h})");
        assert!(k > 1.0, "long resistive lines want several sections (k = {k})");
    }

    #[test]
    fn size_shrinks_for_more_resistive_lines() {
        let less = optimal_size_rc(ohms(1000.0), farads(1e-12), ohms(10e3), farads(2e-15));
        let more = optimal_size_rc(ohms(100.0), farads(1e-12), ohms(10e3), farads(2e-15));
        assert!(less < more);
    }

    #[test]
    fn sections_grow_with_line_length() {
        // Doubling the length doubles Rt and Ct, so k grows by 2 (k ∝ length).
        let k1 = optimal_sections_rc(ohms(100.0), farads(1e-12), ohms(10e3), farads(2e-15));
        let k2 = optimal_sections_rc(ohms(200.0), farads(2e-12), ohms(10e3), farads(2e-15));
        assert!((k2 / k1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn size_is_independent_of_line_length() {
        // h depends only on the R/C ratio per unit length, not the length.
        let h1 = optimal_size_rc(ohms(100.0), farads(1e-12), ohms(10e3), farads(2e-15));
        let h2 = optimal_size_rc(ohms(200.0), farads(2e-12), ohms(10e3), farads(2e-15));
        assert!((h1 - h2).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_resistance_panics() {
        let _ = optimal_size_rc(ohms(0.0), farads(1e-12), ohms(10e3), farads(2e-15));
    }
}
