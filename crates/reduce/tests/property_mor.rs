//! Property-based tests of the reduction subsystem.
//!
//! Over random (but physically sensible) driven lines:
//!
//! * the order-`q` AWE reduction matches the first `2q` transfer-function
//!   moments of the closed-form `TransferMoments` (the `[0/q]` denominator
//!   lands on `b₁..b₃` within the ladder's discretisation error);
//! * the order-`q` PRIMA reduction matches the leading moments of the full
//!   extracted system to near machine precision;
//! * the dense and sparse solver backends agree on the extracted
//!   `(G, C, B, Lᵀ)` state space and everything derived from it.

use proptest::prelude::*;

use rlckit_circuit::ladder::{LadderSpec, SegmentStyle};
use rlckit_circuit::state_space::DescriptorStateSpace;
use rlckit_circuit::SolverBackend;
use rlckit_interconnect::moments::TransferMoments;
use rlckit_reduce::awe::{moments_of, pade_denominator};
use rlckit_reduce::{prima, ReductionOptions};
use rlckit_units::{Capacitance, Inductance, Resistance, Voltage};

/// A physically plausible driven line, finely segmented so the lumped
/// moments sit close to the distributed closed forms.
fn arb_spec() -> impl Strategy<Value = LadderSpec> {
    (10.0f64..5e3, 1e-10f64..5e-8, 1e-13f64..2e-12, 0.0f64..1e3, 0.0f64..1e-12).prop_map(
        |(rt, lt, ct, rtr, cl)| LadderSpec {
            total_resistance: Resistance::from_ohms(rt),
            total_inductance: Inductance::from_henries(lt),
            total_capacitance: Capacitance::from_farads(ct),
            segments: 100,
            style: SegmentStyle::Pi,
            driver_resistance: Resistance::from_ohms(rtr),
            load_capacitance: Capacitance::from_farads(cl),
            supply: Voltage::from_volts(1.0),
        },
    )
}

fn state_space(spec: &LadderSpec) -> DescriptorStateSpace {
    let line = spec.build().expect("spec builds");
    DescriptorStateSpace::new(&line.circuit, &[line.source], &[line.output])
        .expect("state space extracts")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn order_q_reduction_matches_2q_closed_form_moments(spec in arb_spec()) {
        // q = 2 AWE consumes 2q = 4 moments (m₀..m₃ ⇔ 1, b₁, b₂, b₃); the
        // [0/q] denominator of the extracted moments must land on the
        // closed-form TransferMoments within the ladder's O(1/N²) error.
        let ss = state_space(&spec);
        let m = moments_of(&ss, 0, 0, 4, SolverBackend::Auto).unwrap();
        let d = pade_denominator(&m, 3).unwrap();
        let closed = TransferMoments::from_impedances(
            spec.total_resistance.ohms(),
            spec.total_inductance.henries(),
            spec.total_capacitance.farads(),
            spec.driver_resistance.ohms(),
            spec.load_capacitance.farads(),
        );
        for (k, want) in [closed.b1, closed.b2, closed.b3].iter().enumerate() {
            let got = d.coeffs()[k + 1];
            let err = (got - want).abs() / want.abs();
            prop_assert!(
                err < 5e-3,
                "b{}: reduced {:e} vs closed form {:e} (err {:e})",
                k + 1, got, want, err
            );
        }
    }

    #[test]
    fn prima_matches_the_leading_moments_of_the_full_system(spec in arb_spec()) {
        // One-sided Arnoldi of order q matches the first q moments of the
        // extracted system itself (not just the distributed limit) to
        // numerical precision.
        let q = 6;
        let ss = state_space(&spec);
        let full = moments_of(&ss, 0, 0, q, SolverBackend::Auto).unwrap();
        let sys = prima(&ss, &ReductionOptions::new(q)).unwrap();
        prop_assert!(sys.order() == q);
        let reduced = sys.moments(0, 0, q).unwrap();
        for (k, (f, r)) in full.iter().zip(reduced.iter()).enumerate() {
            let err = (f - r).abs() / f.abs();
            prop_assert!(err < 1e-6, "m{k}: full {f:e} vs reduced {r:e} (err {err:e})");
        }
    }

    #[test]
    fn dense_and_sparse_backends_agree_on_the_state_space(spec in arb_spec()) {
        let ss = state_space(&spec);
        // Raw moment extraction agrees across backends…
        let dense_m = moments_of(&ss, 0, 0, 6, SolverBackend::Dense).unwrap();
        let sparse_m = moments_of(&ss, 0, 0, 6, SolverBackend::Sparse).unwrap();
        for (k, (d, s)) in dense_m.iter().zip(sparse_m.iter()).enumerate() {
            prop_assert!(
                (d - s).abs() <= 1e-8 * d.abs(),
                "moment {k}: dense {d:e} vs sparse {s:e}"
            );
        }
        // …and so does the full PRIMA pipeline down to the extracted delay.
        let dense =
            prima(&ss, &ReductionOptions::new(6).with_backend(SolverBackend::Dense)).unwrap();
        let sparse =
            prima(&ss, &ReductionOptions::new(6).with_backend(SolverBackend::Sparse)).unwrap();
        let dd = dense.pole_residue(0, 0).unwrap().delay_50().unwrap().seconds();
        let ds = sparse.pole_residue(0, 0).unwrap().delay_50().unwrap().seconds();
        prop_assert!(
            (dd - ds).abs() <= 1e-6 * dd,
            "dense delay {dd:e} vs sparse delay {ds:e}"
        );
    }
}
