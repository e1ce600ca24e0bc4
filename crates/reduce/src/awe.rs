//! Moment-matching oracles for the PRIMA reducer.
//!
//! [`moments_of`] computes the transfer-function moments of the full system
//! by repeated `G`-solves, and [`pade_denominator`] fits the paper's own
//! `[0/q]` denominator form to them (a Hankel solve). PRIMA
//! ([`crate::krylov::prima`]) is the reducer; the tests and the
//! `reduced_order` example check it against these two.

use rlckit_circuit::state_space::DescriptorStateSpace;
use rlckit_numeric::poly::Polynomial;
use rlckit_numeric::solver::SolverBackend;

use crate::error::ReduceError;

/// Transfer-function moments `m₀..m_{count−1}` of one input/output pair of
/// the **full** system, via `count` sparse `G`-solves
/// (`m_k = (−1)^k·lᵀ(G⁻¹C)^k G⁻¹ b`).
///
/// # Errors
///
/// Returns [`ReduceError::Measurement`] for out-of-range indices,
/// [`ReduceError::Breakdown`] for non-finite solve results and propagates
/// circuit errors from the `G` factorisation.
pub fn moments_of(
    ss: &DescriptorStateSpace,
    output: usize,
    input: usize,
    count: usize,
    backend: SolverBackend,
) -> Result<Vec<f64>, ReduceError> {
    if output >= ss.output_count() || input >= ss.input_count() {
        return Err(ReduceError::Measurement {
            reason: format!(
                "pair ({output}, {input}) out of range for a {}x{} state space",
                ss.output_count(),
                ss.input_count()
            ),
        });
    }
    let factor = ss.factor_g(backend)?;
    let l = ss.output_column(output);
    let mut v = factor.solve(ss.input_column(input));
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if !v.iter().all(|x| x.is_finite()) {
            return Err(ReduceError::Breakdown { stage: "moment recursion" });
        }
        out.push(l.iter().zip(v.iter()).map(|(a, x)| a * x).sum());
        let cv = ss.apply_c(&v);
        v = factor.solve(&cv);
        for x in &mut v {
            *x = -*x;
        }
    }
    Ok(out)
}

/// The `[0/q]` Padé denominator `1 + b₁s + … + b_q s^q` of a zero-free
/// transfer function, from its moments `m₀..m_q`.
///
/// For the paper's driven line (numerator exactly 1) this reproduces the
/// closed-form `TransferMoments` coefficients: `b₁`, `b₂`, `b₃` for
/// `q = 3`. Coefficients are returned lowest degree first.
///
/// # Errors
///
/// Returns [`ReduceError::InvalidOrder`] if fewer than `q + 1` moments are
/// supplied or `q == 0`, and [`ReduceError::NonFinite`] for non-finite
/// moments or a zero `m₀`.
pub fn pade_denominator(moments: &[f64], q: usize) -> Result<Polynomial, ReduceError> {
    validate_moments(moments, q, q + 1)?;
    let m0 = moments[0];
    if m0 == 0.0 {
        return Err(ReduceError::NonFinite { what: "zeroth moment (DC gain)", value: m0 });
    }
    let mut d = vec![1.0f64];
    for k in 1..=q {
        let mut acc = 0.0;
        for j in 0..k {
            acc += d[j] * moments[k - j];
        }
        d.push(-acc / m0);
    }
    Ok(Polynomial::new(d))
}

fn validate_moments(moments: &[f64], q: usize, needed: usize) -> Result<(), ReduceError> {
    if q == 0 {
        return Err(ReduceError::InvalidOrder { order: 0, reason: "order must be at least 1" });
    }
    if moments.len() < needed {
        return Err(ReduceError::InvalidOrder {
            order: q,
            reason: "not enough moments for the requested order",
        });
    }
    for &m in moments {
        if !m.is_finite() {
            return Err(ReduceError::NonFinite { what: "moment", value: m });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pade_denominator_recovers_known_coefficients() {
        // H(s) = 1/(1 + 2s + 3s² + 4s³): moments from long division.
        // m0=1, m1=−2, m2=2²−3=1, m3=−(2³)+2·2·3−4 = 8−… compute: the moment
        // recursion m_k = −Σ_{j=1..k} b_j m_{k−j} with b=[2,3,4].
        let b = [2.0, 3.0, 4.0];
        let mut m = vec![1.0];
        for k in 1..=3usize {
            let mut acc = 0.0;
            for (j, bj) in b.iter().enumerate().take(k) {
                acc += bj * m[k - 1 - j];
            }
            m.push(-acc);
        }
        let d = pade_denominator(&m, 3).unwrap();
        assert_eq!(d.coeffs().len(), 4);
        assert!((d.coeffs()[1] - 2.0).abs() < 1e-12);
        assert!((d.coeffs()[2] - 3.0).abs() < 1e-12);
        assert!((d.coeffs()[3] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_moment_sequences_are_typed_errors() {
        assert!(matches!(pade_denominator(&[1.0, 2.0], 3), Err(ReduceError::InvalidOrder { .. })));
        assert!(matches!(pade_denominator(&[1.0], 0), Err(ReduceError::InvalidOrder { .. })));
        assert!(matches!(pade_denominator(&[0.0, 1.0], 1), Err(ReduceError::NonFinite { .. })));
        assert!(matches!(
            pade_denominator(&[1.0, f64::NAN], 1),
            Err(ReduceError::NonFinite { .. })
        ));
    }
}
