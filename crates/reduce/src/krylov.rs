//! The PRIMA-style block-Arnoldi projector.
//!
//! Starting from the descriptor system `G·x + C·ẋ = B·u, y = Lᵀx`, the
//! block Krylov subspace
//!
//! ```text
//! K_q(A, R) = span{R, A·R, A²·R, …},   A = G⁻¹C,  R = G⁻¹B
//! ```
//!
//! contains the leading moments of every transfer function of the system.
//! [`prima`] builds an orthonormal basis `V` of that subspace (modified
//! Gram–Schmidt with deflation, [`OrthoBuilder`]) and projects congruently —
//! `Gᵣ = VᵀGV`, `Cᵣ = VᵀCV`, `Bᵣ = VᵀB`, `Lᵣ = VᵀL` — the PRIMA recipe
//! that preserves the moment match (`⌈q/p⌉` block moments for `p` inputs,
//! `q` moments in the single-input case) while keeping the projection
//! numerically tame.
//!
//! `prima_interpolating` swaps the tail of the `s = 0` space for
//! `(G + jωC)⁻¹B` at chosen frequencies (real and imaginary parts), so the
//! reduction also interpolates the transfer function at `±jω` — a
//! multipoint (rational Krylov) basis that congruence projection keeps
//! stable just the same.
//!
//! The expensive part is `q` solves against `G`, which go through the same
//! pluggable [`SolverBackend`] as every other analysis: on a ladder-shaped
//! circuit the sparse kernel makes the whole reduction `O(n) + q·O(n)` — no
//! dense `n × n` matrix is ever formed.

use rlckit_circuit::solve::factor_complex;
use rlckit_circuit::state_space::DescriptorStateSpace;
use rlckit_numeric::complex::Complex;
use rlckit_numeric::matrix::Matrix;
use rlckit_numeric::orth::{dot, OrthoBuilder};
use rlckit_numeric::solver::SolverBackend;

use crate::error::ReduceError;
use crate::rom::ReducedSystem;

/// Options controlling a PRIMA reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionOptions {
    /// Target reduction order `q` (number of basis vectors).
    pub order: usize,
    /// Solver backend for the `G` factorisation (default
    /// [`SolverBackend::Auto`], the sparse kernel).
    pub backend: SolverBackend,
    /// Relative deflation tolerance of the Gram–Schmidt step.
    pub deflation_tol: f64,
}

impl ReductionOptions {
    /// Options for an order-`q` reduction with automatic backend selection.
    pub fn new(order: usize) -> Self {
        Self { order, backend: SolverBackend::Auto, deflation_tol: 1e-10 }
    }

    /// Returns a copy with the given solver backend.
    #[must_use]
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    fn validate(&self, dim: usize) -> Result<(), ReduceError> {
        if self.order == 0 {
            return Err(ReduceError::InvalidOrder {
                order: 0,
                reason: "reduction order must be at least 1",
            });
        }
        if self.order > dim {
            return Err(ReduceError::InvalidOrder {
                order: self.order,
                reason: "reduction order exceeds the full system dimension",
            });
        }
        if !self.deflation_tol.is_finite() || !(self.deflation_tol > 0.0) {
            return Err(ReduceError::NonFinite {
                what: "deflation tolerance",
                value: self.deflation_tol,
            });
        }
        Ok(())
    }
}

/// Reduces a descriptor system to order ≤ `options.order` by block-Arnoldi
/// congruence projection.
///
/// The achieved order can be smaller than requested when the Krylov space
/// is exhausted (every candidate of a block deflates) — query it with
/// [`ReducedSystem::order`].
///
/// # Errors
///
/// Returns [`ReduceError::InvalidOrder`] / [`ReduceError::NonFinite`] for
/// bad options — including an order smaller than the input count, which
/// would silently leave some inputs with *zero* Krylov content (their
/// transfer functions would reduce to garbage, not merely low accuracy) —
/// [`ReduceError::Breakdown`] if the starting block deflates entirely or a
/// solve produces non-finite values, and propagates circuit errors from the
/// `G` factorisation.
pub fn prima(
    ss: &DescriptorStateSpace,
    options: &ReductionOptions,
) -> Result<ReducedSystem, ReduceError> {
    prima_interpolating(ss, options, &[])
}

/// [`prima`] whose basis also holds the real and imaginary parts of
/// `(G + jωC)⁻¹B` for every `ω` in `frequencies` (rad/s): each frequency
/// takes two vectors per input out of `options.order`, and the `s = 0`
/// Krylov space fills the rest.
///
/// # Errors
///
/// As [`prima`], with [`ReduceError::InvalidOrder`] also when the order
/// leaves the `s = 0` space fewer vectors than inputs, and propagates the
/// `G + jωC` factorisations' errors.
pub(crate) fn prima_interpolating(
    ss: &DescriptorStateSpace,
    options: &ReductionOptions,
    frequencies: &[f64],
) -> Result<ReducedSystem, ReduceError> {
    options.validate(ss.dim())?;
    let inputs = ss.input_count();
    let moment_order = options.order.saturating_sub(2 * inputs * frequencies.len());
    if moment_order < inputs {
        return Err(ReduceError::InvalidOrder {
            order: options.order,
            reason: "reduction order must be at least the input count \
                     (every B column needs Krylov content)",
        });
    }
    let _span = rlckit_telemetry::span("mor.prima");
    let factor = ss.factor_g(options.backend)?;
    let mut builder = OrthoBuilder::new(ss.dim(), options.deflation_tol);
    let mut iterations = 0u64;
    let mut deflations = 0u64;

    // Starting block: R = G⁻¹B, one candidate per input.
    let mut block: Vec<Vec<f64>> = Vec::new();
    for j in 0..inputs {
        if builder.len() == moment_order {
            break;
        }
        let r = finite_solve(&factor, ss.input_column(j))?;
        iterations += 1;
        if builder.push(&r) {
            block.push(builder.columns().last().expect("vector just accepted").clone());
        } else {
            deflations += 1;
        }
    }
    if builder.is_empty() {
        return Err(ReduceError::Breakdown { stage: "starting Krylov block deflated" });
    }

    // Arnoldi recursion: next block = A·(previous block), orthogonalized.
    while builder.len() < moment_order && !block.is_empty() {
        let mut next = Vec::new();
        for v in &block {
            if builder.len() == moment_order {
                break;
            }
            let w = finite_solve(&factor, &ss.apply_c(v))?;
            iterations += 1;
            if builder.push(&w) {
                next.push(builder.columns().last().expect("vector just accepted").clone());
            } else {
                deflations += 1;
            }
        }
        block = next;
    }

    // Interpolation points: Re and Im of (G + jωC)⁻¹b for every input.
    for &omega in frequencies {
        let s = Complex::new(0.0, omega);
        let factor = factor_complex(ss.mna(), s, options.backend, "G + jωC factorisation")?;
        for j in 0..inputs {
            let b: Vec<Complex> =
                ss.input_column(j).iter().map(|&v| Complex::from_real(v)).collect();
            let x = factor.solve(&b);
            iterations += 1;
            for part in
                [x.iter().map(|z| z.re).collect::<Vec<_>>(), x.iter().map(|z| z.im).collect()]
            {
                if !part.iter().all(|v| v.is_finite()) {
                    return Err(ReduceError::Breakdown {
                        stage: "interpolation solve produced non-finite values",
                    });
                }
                if !builder.push(&part) {
                    deflations += 1;
                }
            }
        }
    }
    rlckit_telemetry::counter_add("mor.arnoldi_iterations", iterations);
    rlckit_telemetry::counter_add("mor.deflations", deflations);

    // Congruence projection through the stamp-level mat-vecs — in the
    // PRIMA sign convention: the branch-current equation rows (inductor and
    // source branches, appended after the node rows) are negated, which
    // turns the storage matrix into `diag(C, +L) ⪰ 0` and the conductance
    // matrix into "semidefinite plus skew". Row scaling cancels inside
    // `G⁻¹C`, so the Krylov space above is untouched, but projecting the
    // *signed* matrices is what makes the reduced model provably stable —
    // the symmetric (−L) form can and does produce spurious right-half-
    // plane poles.
    let flip_from = ss.mna().node_unknowns();
    let flip = |mut y: Vec<f64>| -> Vec<f64> {
        for x in &mut y[flip_from..] {
            *x = -*x;
        }
        y
    };
    let v = builder.columns();
    let q = v.len();
    let mut gr = Matrix::zeros(q, q);
    let mut cr = Matrix::zeros(q, q);
    for j in 0..q {
        let gv = flip(ss.apply_g(&v[j]));
        let cv = flip(ss.apply_c(&v[j]));
        for i in 0..q {
            gr[(i, j)] = dot(&v[i], &gv);
            cr[(i, j)] = dot(&v[i], &cv);
        }
    }
    let mut br = Matrix::zeros(q, ss.input_count());
    for j in 0..ss.input_count() {
        let b = flip(ss.input_column(j).to_vec());
        for i in 0..q {
            br[(i, j)] = dot(&v[i], &b);
        }
    }
    let mut lr = Matrix::zeros(q, ss.output_count());
    for k in 0..ss.output_count() {
        let l = ss.output_column(k);
        for i in 0..q {
            lr[(i, k)] = dot(&v[i], l);
        }
    }
    ReducedSystem::new(gr, cr, br, lr)
}

fn finite_solve(
    factor: &rlckit_circuit::solve::FactoredMna<f64>,
    rhs: &[f64],
) -> Result<Vec<f64>, ReduceError> {
    let x = factor.solve(rhs);
    if x.iter().all(|v| v.is_finite()) {
        Ok(x)
    } else {
        Err(ReduceError::Breakdown { stage: "Krylov solve produced non-finite values" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_circuit::source::SourceWaveform;
    use rlckit_circuit::{Circuit, NodeId, SourceId};
    use rlckit_units::{Capacitance, Inductance, Resistance};

    fn rlc_chain(segments: usize) -> (Circuit, SourceId, NodeId) {
        let mut c = Circuit::new();
        let gnd = c.ground();
        let input = c.add_node();
        let src = c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        let mut prev = input;
        for _ in 0..segments {
            let mid = c.add_node();
            let next = c.add_node();
            c.add_resistor(prev, mid, Resistance::from_ohms(12.0)).unwrap();
            c.add_inductor(mid, next, Inductance::from_henries(80.0e-12)).unwrap();
            c.add_capacitor(next, gnd, Capacitance::from_femtofarads(25.0)).unwrap();
            prev = next;
        }
        (c, src, prev)
    }

    fn state_space(segments: usize) -> DescriptorStateSpace {
        let (c, src, out) = rlc_chain(segments);
        DescriptorStateSpace::new(&c, &[src], &[out]).unwrap()
    }

    #[test]
    fn order_and_dc_gain_are_preserved() {
        let ss = state_space(20);
        let sys = prima(&ss, &ReductionOptions::new(6)).unwrap();
        assert_eq!(sys.order(), 6);
        assert_eq!(sys.input_count(), 1);
        assert_eq!(sys.output_count(), 1);
        // m₀ of the reduction equals the full DC gain (= 1 for the chain).
        let m = sys.moments(0, 0, 1).unwrap();
        assert!((m[0] - 1.0).abs() < 1e-6, "reduced DC gain {}", m[0]);
    }

    #[test]
    fn interpolating_reduction_matches_the_full_system_at_each_frequency() {
        let ss = state_space(20);
        let omegas = [2.0e10, 7.0e10];
        let sys = prima_interpolating(&ss, &ReductionOptions::new(6), &omegas).unwrap();
        assert_eq!(sys.order(), 6);
        let m0 = sys.moments(0, 0, 1).unwrap()[0];
        assert!((m0 - 1.0).abs() < 1e-6, "reduced DC gain {m0}");
        for omega in omegas {
            let s = Complex::new(0.0, omega);
            let b: Vec<Complex> =
                ss.input_column(0).iter().map(|&v| Complex::from_real(v)).collect();
            let x = factor_complex(ss.mna(), s, SolverBackend::Auto, "test").unwrap().solve(&b);
            let full: Complex =
                ss.output_column(0).iter().zip(&x).map(|(&l, &xi)| xi.scale(l)).sum();
            let reduced = sys.transfer_at(0, 0, s).unwrap();
            assert!((reduced - full).abs() < 1e-9 * full.abs(), "H(j{omega}) {reduced} vs {full}");
        }
        // Two vectors per frequency leave the s = 0 space at least one.
        assert!(matches!(
            prima_interpolating(&ss, &ReductionOptions::new(4), &omegas),
            Err(ReduceError::InvalidOrder { .. })
        ));
    }

    #[test]
    fn invalid_options_are_rejected() {
        let ss = state_space(3);
        assert!(matches!(
            prima(&ss, &ReductionOptions::new(0)),
            Err(ReduceError::InvalidOrder { .. })
        ));
        assert!(matches!(
            prima(&ss, &ReductionOptions::new(10_000)),
            Err(ReduceError::InvalidOrder { .. })
        ));
        let mut bad = ReductionOptions::new(2);
        bad.deflation_tol = f64::NAN;
        assert!(matches!(prima(&ss, &bad), Err(ReduceError::NonFinite { .. })));
    }

    #[test]
    fn order_below_the_input_count_is_rejected() {
        // Regression: a MIMO reduction whose order is smaller than the input
        // count used to succeed with zero Krylov content for the dropped
        // inputs — their transfer functions came out wildly wrong as `Ok`.
        let (mut c, src1, out) = rlc_chain(4);
        let gnd = c.ground();
        let extra = c.add_node();
        let src2 = c.add_voltage_source(extra, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(extra, out, Resistance::from_ohms(100.0)).unwrap();
        let ss = DescriptorStateSpace::new(&c, &[src1, src2], &[out]).unwrap();
        assert_eq!(ss.input_count(), 2);
        assert!(matches!(
            prima(&ss, &ReductionOptions::new(1)),
            Err(ReduceError::InvalidOrder { order: 1, .. })
        ));
        // At order == input count every input gets its starting vector.
        let sys = prima(&ss, &ReductionOptions::new(2)).unwrap();
        let m0 = sys.moments(0, 1, 1).unwrap()[0];
        assert!(m0.abs() > 1e-3, "second input must carry Krylov content, m0 = {m0}");
    }

    #[test]
    fn dense_and_sparse_backends_agree() {
        let ss = state_space(25);
        let dense =
            prima(&ss, &ReductionOptions::new(8).with_backend(SolverBackend::Dense)).unwrap();
        let sparse =
            prima(&ss, &ReductionOptions::new(8).with_backend(SolverBackend::Sparse)).unwrap();
        let md = dense.moments(0, 0, 8).unwrap();
        let ms = sparse.moments(0, 0, 8).unwrap();
        for (d, s) in md.iter().zip(ms.iter()) {
            assert!((d - s).abs() <= 1e-9 * d.abs().max(1e-300), "dense moment {d} vs sparse {s}");
        }
    }

    #[test]
    fn krylov_exhaustion_truncates_the_order() {
        // A 1-segment chain has a tiny state space; asking for the full
        // dimension must still succeed with q ≤ dim and no breakdown.
        let ss = state_space(1);
        let sys = prima(&ss, &ReductionOptions::new(ss.dim())).unwrap();
        assert!(sys.order() >= 1 && sys.order() <= ss.dim());
    }
}
