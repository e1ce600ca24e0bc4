//! The paper's closed-form RLC repeater optimum (Eqs. 13–15).
//!
//! Inductance is folded into a single dimensionless parameter
//!
//! ```text
//! T_{L/R} = sqrt( (Lt/Rt) / (R0·C0) )                       (Eq. 13)
//! ```
//!
//! which compares the line's `L/R` time constant with the intrinsic buffer
//! delay. The optimum repeater size and count are the Bakoglu RC values
//! multiplied by error factors that depend only on `T_{L/R}`:
//!
//! ```text
//! h' = 1 / [1 + 0.16·(T_{L/R})³]^0.24                        (Eq. 14)
//! k' = 1 / [1 + 0.18·(T_{L/R})³]^0.30                        (Eq. 15)
//! h_opt = h'·sqrt(R0·Ct/(Rt·C0)),   k_opt = k'·sqrt(Rt·Ct/(2·R0·C0))
//! ```
//!
//! Both factors approach 1 as `Lt → 0` and fall below 1 as inductance grows:
//! inductive lines want fewer (and relatively smaller) repeaters, because the
//! delay of an LC-dominated line is linear in length and partitioning it buys
//! nothing.

use rlckit_units::{Capacitance, Inductance, Resistance, Time};

/// The `T_{L/R}` figure of merit of Eq. (13): `sqrt((Lt/Rt)/(R0·C0))`.
///
/// # Panics
///
/// Panics if any argument is non-positive; use
/// [`RepeaterProblem`](crate::system::RepeaterProblem) for validated
/// construction.
pub fn t_l_over_r(
    line_resistance: Resistance,
    line_inductance: Inductance,
    buffer_time_constant: Time,
) -> f64 {
    let rt = line_resistance.ohms();
    let lt = line_inductance.henries();
    let tau = buffer_time_constant.seconds();
    assert!(rt > 0.0 && lt > 0.0 && tau > 0.0, "all parameters must be strictly positive");
    ((lt / rt) / tau).sqrt()
}

/// The repeater-size error factor `h'(T_{L/R})` of Eq. (14).
///
/// Equals 1 at `T_{L/R} = 0` and decreases monotonically with inductance.
pub fn size_error_factor(t_l_over_r: f64) -> f64 {
    assert!(t_l_over_r >= 0.0, "T_L/R must be non-negative");
    1.0 / (1.0 + 0.16 * t_l_over_r.powi(3)).powf(0.24)
}

/// The section-count error factor `k'(T_{L/R})` of Eq. (15).
///
/// Equals 1 at `T_{L/R} = 0` and decreases monotonically with inductance.
pub fn sections_error_factor(t_l_over_r: f64) -> f64 {
    assert!(t_l_over_r >= 0.0, "T_L/R must be non-negative");
    1.0 / (1.0 + 0.18 * t_l_over_r.powi(3)).powf(0.30)
}

/// Optimum repeater size for an RLC line (Eq. 14):
/// `h_opt = sqrt(R0·Ct/(Rt·C0)) / [1 + 0.16·T³]^0.24`.
///
/// # Panics
///
/// Panics if any impedance is non-positive.
pub(crate) fn optimal_size_rlc(
    line_resistance: Resistance,
    line_inductance: Inductance,
    line_capacitance: Capacitance,
    buffer_resistance: Resistance,
    buffer_capacitance: Capacitance,
) -> f64 {
    let t = t_l_over_r(line_resistance, line_inductance, buffer_resistance * buffer_capacitance);
    crate::rc::optimal_size_rc(
        line_resistance,
        line_capacitance,
        buffer_resistance,
        buffer_capacitance,
    ) * size_error_factor(t)
}

/// Optimum number of sections for an RLC line (Eq. 15):
/// `k_opt = sqrt(Rt·Ct/(2·R0·C0)) / [1 + 0.18·T³]^0.30`.
///
/// # Panics
///
/// Panics if any impedance is non-positive.
pub(crate) fn optimal_sections_rlc(
    line_resistance: Resistance,
    line_inductance: Inductance,
    line_capacitance: Capacitance,
    buffer_resistance: Resistance,
    buffer_capacitance: Capacitance,
) -> f64 {
    let t = t_l_over_r(line_resistance, line_inductance, buffer_resistance * buffer_capacitance);
    crate::rc::optimal_sections_rc(
        line_resistance,
        line_capacitance,
        buffer_resistance,
        buffer_capacitance,
    ) * sections_error_factor(t)
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
    fn henries(v: f64) -> Inductance {
        Inductance::from_henries(v)
    }

    #[test]
    fn t_l_over_r_matches_equation_13() {
        // Lt/Rt = 5 nH / 10 Ω = 0.5 ns; R0·C0 = 20 ps ⇒ T = sqrt(25) = 5.
        let t = t_l_over_r(ohms(10.0), henries(5e-9), Time::from_picoseconds(20.0));
        assert!((t - 5.0).abs() < 1e-9);
    }

    #[test]
    fn error_factors_are_one_without_inductance() {
        assert!((size_error_factor(0.0) - 1.0).abs() < 1e-12);
        assert!((sections_error_factor(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_factors_decrease_monotonically() {
        let mut prev_h = 1.0;
        let mut prev_k = 1.0;
        for i in 1..=100 {
            let t = i as f64 * 0.1;
            let h = size_error_factor(t);
            let k = sections_error_factor(t);
            assert!(h < prev_h);
            assert!(k < prev_k);
            assert!(h > 0.0 && k > 0.0);
            prev_h = h;
            prev_k = k;
        }
    }

    #[test]
    fn paper_reference_points() {
        // The paper's area-increase figures imply the products of the factors:
        // at T = 3, [1+0.18·27]^0.3 · [1+0.16·27]^0.24 ≈ 2.54 (154% increase);
        // at T = 5 the product is ≈ 5.35 (435% increase).
        let product = |t: f64| 1.0 / (size_error_factor(t) * sections_error_factor(t));
        assert!((product(3.0) - 2.54).abs() < 0.05, "product at T=3 is {}", product(3.0));
        assert!((product(5.0) - 5.35).abs() < 0.15, "product at T=5 is {}", product(5.0));
    }

    #[test]
    fn rlc_optimum_reduces_to_rc_as_inductance_vanishes() {
        let h_rlc =
            optimal_size_rlc(ohms(100.0), henries(1e-15), farads(2e-12), ohms(10e3), farads(2e-15));
        let h_rc =
            crate::rc::optimal_size_rc(ohms(100.0), farads(2e-12), ohms(10e3), farads(2e-15));
        assert!((h_rlc - h_rc).abs() / h_rc < 1e-6);
        let k_rlc = optimal_sections_rlc(
            ohms(100.0),
            henries(1e-15),
            farads(2e-12),
            ohms(10e3),
            farads(2e-15),
        );
        let k_rc =
            crate::rc::optimal_sections_rc(ohms(100.0), farads(2e-12), ohms(10e3), farads(2e-15));
        assert!((k_rlc - k_rc).abs() / k_rc < 1e-6);
    }

    #[test]
    fn inductance_reduces_both_size_and_sections() {
        let h_rc = crate::rc::optimal_size_rc(ohms(10.0), farads(2e-12), ohms(10e3), farads(2e-15));
        let k_rc =
            crate::rc::optimal_sections_rc(ohms(10.0), farads(2e-12), ohms(10e3), farads(2e-15));
        let h_rlc =
            optimal_size_rlc(ohms(10.0), henries(5e-9), farads(2e-12), ohms(10e3), farads(2e-15));
        let k_rlc = optimal_sections_rlc(
            ohms(10.0),
            henries(5e-9),
            farads(2e-12),
            ohms(10e3),
            farads(2e-15),
        );
        assert!(h_rlc < h_rc);
        assert!(k_rlc < k_rc);
    }

    #[test]
    #[should_panic]
    fn negative_t_panics() {
        let _ = size_error_factor(-1.0);
    }
}
