//! Property-based tests of the numerical substrate.
//!
//! Random well-conditioned systems, random bracketed roots and random unimodal
//! objectives: the numerical routines must hit their advertised tolerances for
//! all of them, not just the hand-picked unit-test cases. Random ringing and
//! overdamped step responses: `first_crossing` must find the *first*
//! crossing, as a dense scan of the same response does.

use proptest::prelude::*;

use rlckit_numeric::complex::Complex;
use rlckit_numeric::interp::first_rising_crossing;
use rlckit_numeric::laplace::talbot;
use rlckit_numeric::lu::{solve, LuFactor};
use rlckit_numeric::matrix::Matrix;
use rlckit_numeric::optimize::{nelder_mead, NelderMeadOptions};
use rlckit_numeric::roots::{brent, first_crossing, RootError};
use rlckit_numeric::sparse::{CscMatrix, SparseLuFactor};

/// A random diagonally dominant matrix (guaranteed non-singular) and a RHS.
fn arb_system(n: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (proptest::collection::vec(-1.0f64..1.0, n * n), proptest::collection::vec(-10.0f64..10.0, n))
}

/// Builds a diagonally dominant sparse matrix whose pattern is the band
/// `i - kl ..= i + ku` of every row, from a flat supply of entries (`data`
/// must hold at least `n * (kl + ku + 1)` values).
fn band_pattern_from_data(n: usize, kl: usize, ku: usize, data: &[f64]) -> CscMatrix<f64> {
    let mut triplets = Vec::new();
    let mut next = data.iter().copied();
    for i in 0..n {
        let lo = i.saturating_sub(kl);
        let hi = (i + ku).min(n - 1);
        for j in lo..=hi {
            triplets.push((i, j, next.next().expect("enough band data")));
        }
        // Diagonal dominance keeps the comparison numerically meaningful.
        triplets.push((i, i, 4.0));
    }
    CscMatrix::from_triplets(n, &triplets)
}

/// Checks sparse against dense LU on the same system to a relative tolerance
/// of 1e-12 componentwise (relative to the solution's infinity norm).
fn assert_sparse_matches_dense(a: &CscMatrix<f64>, b: &[f64]) {
    let sparse = SparseLuFactor::factor_auto(a).expect("diagonally dominant").solve(b);
    let dense = LuFactor::new(&a.to_dense()).expect("diagonally dominant").solve(b);
    let scale = dense.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (idx, (u, v)) in sparse.iter().zip(dense.iter()).enumerate() {
        assert!(
            (u - v).abs() <= 1e-12 * scale,
            "component {idx}: sparse {u} vs dense {v} (scale {scale})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solves_diagonally_dominant_systems((data, b) in arb_system(12)) {
        let n = 12;
        let mut m = Matrix::<f64>::from_rows(n, n, data);
        for i in 0..n {
            let dom = m[(i, i)] + 5.0;
            m[(i, i)] = dom;
        }
        let x = solve(&m, &b).expect("diagonally dominant systems factorise");
        let r = m.mul_vec(&x);
        for (ri, bi) in r.iter().zip(b.iter()) {
            prop_assert!((ri - bi).abs() < 1e-8, "residual {}", (ri - bi).abs());
        }
    }

    #[test]
    fn sparse_lu_matches_dense_on_random_band_patterns(
        data in proptest::collection::vec(-1.0f64..1.0, 24 * 11),
        b in proptest::collection::vec(-10.0f64..10.0, 24),
        kl_raw in 0.0f64..5.0,
        ku_raw in 0.0f64..5.0,
    ) {
        let n = 24;
        let kl = kl_raw as usize;
        let ku = ku_raw as usize;
        let a = band_pattern_from_data(n, kl, ku, &data);
        assert_sparse_matches_dense(&a, &b);
    }

    #[test]
    fn sparse_lu_matches_dense_on_tridiagonal_systems(
        data in proptest::collection::vec(-1.0f64..1.0, 32 * 3),
        b in proptest::collection::vec(-10.0f64..10.0, 32),
    ) {
        // Bandwidth-1 (kl = ku = 1): the shape every discretised RC line has.
        let a = band_pattern_from_data(32, 1, 1, &data);
        assert_sparse_matches_dense(&a, &b);
    }

    #[test]
    fn sparse_lu_matches_dense_on_full_patterns(
        data in proptest::collection::vec(-1.0f64..1.0, 12 * 23),
        b in proptest::collection::vec(-10.0f64..10.0, 12),
    ) {
        // kl = ku = n - 1: the pattern covers the whole matrix, so the sparse
        // kernel must degenerate gracefully to a (slower) dense factorisation.
        let a = band_pattern_from_data(12, 11, 11, &data);
        assert_sparse_matches_dense(&a, &b);
    }

    #[test]
    fn brent_finds_cubic_roots(root in -5.0f64..5.0, offset in 0.1f64..3.0) {
        // f(x) = (x - root)^3 + small linear term keeps a single real root at ~root.
        let f = |x: f64| (x - root).powi(3) + 1e-3 * (x - root);
        let a = root - offset;
        let b = root + offset * 1.7;
        let r = brent(f, a, b, 1e-12, 200).expect("bracketed");
        prop_assert!((r - root).abs() < 1e-5);
    }

    #[test]
    fn nelder_mead_finds_shifted_paraboloid_minimum(cx in -3.0f64..3.0, cy in -3.0f64..3.0) {
        let f = move |p: &[f64]| (p[0] - cx).powi(2) + 2.0 * (p[1] - cy).powi(2) + 1.0;
        let m = nelder_mead(f, &[0.0, 0.0], NelderMeadOptions {
            initial_step: 0.5,
            tolerance: 1e-14,
            max_iterations: 4000,
        }).expect("converges");
        prop_assert!((m.point[0] - cx).abs() < 1e-4);
        prop_assert!((m.point[1] - cy).abs() < 1e-4);
    }

    #[test]
    fn talbot_inverts_first_order_lags(tau in 0.05f64..20.0, t in 0.01f64..10.0) {
        // F(s) = 1/(1 + s·tau) ⇒ f(t) = e^{-t/tau}/tau ... use the step response
        // form F(s)/s which is 1 - e^{-t/tau}: bounded, well-conditioned.
        let f = |s: Complex| (s * tau + 1.0).recip() / s;
        let got = talbot(f, t, 32);
        let want = 1.0 - (-t / tau).exp();
        prop_assert!((got - want).abs() < 1e-6, "t={t}, tau={tau}: {got} vs {want}");
    }

    #[test]
    fn complex_field_axioms_hold(re1 in -5.0f64..5.0, im1 in -5.0f64..5.0,
                                 re2 in -5.0f64..5.0, im2 in -5.0f64..5.0) {
        let a = Complex::new(re1, im1);
        let b = Complex::new(re2, im2);
        // Commutativity and distributivity within floating-point tolerance.
        prop_assert!(((a * b) - (b * a)).abs() < 1e-12);
        let lhs = a * (b + Complex::ONE);
        let rhs = a * b + a;
        prop_assert!((lhs - rhs).abs() < 1e-10);
        // |a·b| = |a|·|b|
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
    }
}

/// Unit-step response of `1/(1 + 2ζ·s + s²)` (ωn = 1) and its slowest time
/// constant.
fn two_pole(zeta: f64) -> (impl Fn(f64) -> f64, f64) {
    let response = move |t: f64| {
        if zeta < 1.0 {
            let wd = (1.0 - zeta * zeta).sqrt();
            1.0 - (-zeta * t).exp() * ((wd * t).cos() + zeta / wd * (wd * t).sin())
        } else {
            let root = (zeta * zeta - 1.0).sqrt();
            let (p1, p2) = (-zeta + root, -zeta - root);
            1.0 + (p2 * (p1 * t).exp() - p1 * (p2 * t).exp()) / (p1 - p2)
        }
    };
    (response, 1.0 / (zeta - (zeta * zeta - 1.0).max(0.0).sqrt()))
}

/// `first_crossing` with the arguments the closed-form models use (4096
/// samples from ten slowest time constants, five horizons), checked against
/// a scan of 20 000 samples of the horizon it ended in: both must find the
/// same first crossing, within the dense scan's spacing.
fn assert_first_crossing(f: impl Fn(f64) -> f64, level: f64, rising: bool, tau: f64) {
    let t = first_crossing(&f, level, rising, 10.0 * tau, 4096, 5, tau * 1e-12)
        .unwrap_or_else(|e| panic!("level {level}, rising {rising}: {e}"));
    let mut horizon = 10.0 * tau;
    while horizon < t {
        horizon *= 4.0;
    }
    const DENSE: usize = 20_000;
    let times: Vec<f64> = (0..=DENSE).map(|i| horizon * i as f64 / DENSE as f64).collect();
    let read = |v: f64| if rising { v } else { -v };
    let values: Vec<f64> = times.iter().map(|&x| read(f(x))).collect();
    let dense = first_rising_crossing(&times, &values, read(level)).expect("dense crossing");
    assert!(
        (t - dense).abs() <= horizon / DENSE as f64,
        "level {level}, rising {rising}: first_crossing {t} vs dense scan {dense}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn first_crossing_finds_the_first_two_pole_crossing(zeta in 0.05f64..3.0) {
        let (response, tau) = two_pole(zeta);
        for level in [0.1, 0.5, 0.9] {
            assert_first_crossing(&response, level, true, tau);
        }
    }

    /// A real pole plus a ringing pair, `Σ Re zᵢ(1 − e^{pᵢt})` with final
    /// value 1, read rising and, as `1 − y`, falling.
    #[test]
    fn first_crossing_finds_the_first_pole_residue_crossing(
        weight in 0.0f64..1.0,
        real_pole in 0.05f64..2.0,
        damping in 0.05f64..2.0,
        frequency in 0.5f64..5.0,
    ) {
        let pair = Complex::new(-damping, frequency);
        // The pair's step weights make `1 − e^{−σt}(cos ωt + σ/ω·sin ωt)`.
        let z = Complex::new(0.5, -0.5 * damping / frequency).scale(1.0 - weight);
        let y = move |t: f64| {
            weight * (1.0 - (-real_pole * t).exp())
                + 2.0 * (z * (Complex::ONE - pair.scale(t).exp())).re
        };
        let tau = 1.0 / real_pole.min(damping);
        for level in [0.1, 0.5, 0.9] {
            assert_first_crossing(y, level, true, tau);
            assert_first_crossing(|t| 1.0 - y(t), 1.0 - level, false, tau);
        }
    }

    /// A non-finite sample ends the search with an error, even one that
    /// would read as a crossing (+∞ above the level).
    #[test]
    fn a_non_finite_sample_is_an_error_not_a_crossing(at in 0.05f64..0.45) {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let f = |t: f64| if t >= at { bad } else { t };
            let err = first_crossing(f, 0.5, true, 1.0, 100, 3, 1e-12).unwrap_err();
            prop_assert!(matches!(err, RootError::NonFinite { at: x } if x >= at), "{err:?}");
        }
    }

    /// A level never reached scans every horizon, each four times the last,
    /// and then reports the last.
    #[test]
    fn a_level_never_reached_errors_after_the_last_attempt(attempts in 1.0f64..6.0) {
        let attempts = attempts as usize;
        let mut samples = 0;
        let f = |t: f64| {
            samples += 1;
            1.0 - (-t).exp()
        };
        let err = first_crossing(f, 2.0, true, 1.0, 64, attempts, 1e-12).unwrap_err();
        let last = 4f64.powi(attempts as i32 - 1);
        prop_assert!(matches!(err, RootError::NoCrossing { horizon } if horizon == last), "{err:?}");
        prop_assert_eq!(samples, attempts * 65);
    }
}
