//! Reduced systems, pole/residue models and closed-form step-response
//! metrics — the payoff of model-order reduction: `delay_50`, overshoot and
//! settling time **without time-stepping**.
//!
//! A [`ReducedSystem`] is the projected descriptor pencil
//! `(Gᵣ, Cᵣ, Bᵣ, Lᵣᵀ)` of order `q` (tens at most). Its transfer functions
//! are rational with a shared denominator, so each input/output pair
//! collapses to a [`PoleResidueModel`]
//!
//! ```text
//! H(s) = d + Σᵢ rᵢ / (s − pᵢ)
//! ```
//!
//! whose unit-step response is the closed-form sum of exponentials
//! `y(t) = d + Σᵢ Re[zᵢ·(1 − e^{pᵢ t})]` with `zᵢ = −rᵢ/pᵢ`. Delay and
//! settling metrics then come from scalar root-finding on that expression —
//! thousands of times cheaper than a transient run of the full ladder.
//!
//! Pole extraction goes through the dense QR eigensolver on
//! `Aᵣ = Gᵣ⁻¹Cᵣ`, and clusters of (nearly) repeated eigenvalues — which
//! symmetric buses produce by construction — are split with
//! [`rlckit_numeric::poly::separate_clustered`] before the
//! partial-fraction solve, keeping it non-singular.

use rlckit_numeric::complex::Complex;
use rlckit_numeric::eig::eigenvalues;
use rlckit_numeric::lu::LuFactor;
use rlckit_numeric::matrix::Matrix;
use rlckit_numeric::poly::separate_clustered;
use rlckit_numeric::roots::{brent, first_crossing};
use rlckit_units::Time;

use crate::error::ReduceError;

/// Relative threshold under which an eigenvalue of `Aᵣ` counts as zero (a
/// pole at infinity, folded into the direct term).
const ZERO_EIGENVALUE_TOL: f64 = 1e-12;

/// Relative cluster-splitting tolerance applied to the eigenvalues of `Aᵣ`
/// before the residue solve.
const CLUSTER_TOL: f64 = 1e-8;

/// Relative distance below which two residue-fit sample points count as
/// the same point.
const SAMPLE_SEPARATION: f64 = 1e-3;

/// The order-`q` projected descriptor system `(Gᵣ, Cᵣ, Bᵣ, Lᵣᵀ)`.
#[derive(Debug, Clone)]
pub struct ReducedSystem {
    gr: Matrix<f64>,
    cr: Matrix<f64>,
    br: Matrix<f64>,
    lr: Matrix<f64>,
}

impl ReducedSystem {
    /// Bundles projected matrices into a reduced system.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidOrder`] for inconsistent shapes and
    /// [`ReduceError::NonFinite`] if any entry is not finite.
    pub(crate) fn new(
        gr: Matrix<f64>,
        cr: Matrix<f64>,
        br: Matrix<f64>,
        lr: Matrix<f64>,
    ) -> Result<Self, ReduceError> {
        let q = gr.rows();
        if !gr.is_square() || !cr.is_square() || cr.rows() != q || br.rows() != q || lr.rows() != q
        {
            return Err(ReduceError::InvalidOrder {
                order: q,
                reason: "projected matrices must share the reduction order",
            });
        }
        for (m, what) in [(&gr, "Gr"), (&cr, "Cr"), (&br, "Br"), (&lr, "Lr")] {
            if !m.is_finite() {
                return Err(ReduceError::NonFinite { what, value: f64::NAN });
            }
        }
        Ok(Self { gr, cr, br, lr })
    }

    /// The reduction order `q`.
    pub fn order(&self) -> usize {
        self.gr.rows()
    }

    /// Number of inputs (columns of `Bᵣ`).
    pub(crate) fn input_count(&self) -> usize {
        self.br.cols()
    }

    /// Number of outputs (columns of `Lᵣ`).
    pub(crate) fn output_count(&self) -> usize {
        self.lr.cols()
    }

    /// Transfer-function moments `m₀..m_{count−1}` of one input/output pair,
    /// from the recursion `m_k = (−1)^k·lᵀ(Gᵣ⁻¹Cᵣ)^k Gᵣ⁻¹b`.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::Breakdown`] if `Gᵣ` is singular and
    /// [`ReduceError::Measurement`] for out-of-range indices.
    pub fn moments(
        &self,
        output: usize,
        input: usize,
        count: usize,
    ) -> Result<Vec<f64>, ReduceError> {
        let (l, b) = self.pair(output, input)?;
        let lu = LuFactor::new(&self.gr)
            .map_err(|_| ReduceError::Breakdown { stage: "reduced G factorisation" })?;
        let mut v = lu.solve(&b);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(l.iter().zip(v.iter()).map(|(a, x)| a * x).sum());
            let cv = self.cr.mul_vec(&v);
            v = lu.solve(&cv);
            for x in &mut v {
                *x = -*x;
            }
        }
        Ok(out)
    }

    /// The exact reduced transfer function of one pair at a complex
    /// frequency: `H(s) = lᵀ(Gᵣ + s·Cᵣ)⁻¹b`.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::Breakdown`] if `Gᵣ + s·Cᵣ` is singular (`s`
    /// on a pole) and [`ReduceError::Measurement`] for out-of-range indices.
    pub(crate) fn transfer_at(
        &self,
        output: usize,
        input: usize,
        s: Complex,
    ) -> Result<Complex, ReduceError> {
        let (l, b) = self.pair(output, input)?;
        let q = self.order();
        let mut a = Matrix::<Complex>::zeros(q, q);
        for i in 0..q {
            for j in 0..q {
                a[(i, j)] = Complex::from_real(self.gr[(i, j)]) + s * self.cr[(i, j)];
            }
        }
        let bc: Vec<Complex> = b.iter().map(|&v| Complex::from_real(v)).collect();
        let x = rlckit_numeric::lu::solve(&a, &bc)
            .map_err(|_| ReduceError::Breakdown { stage: "reduced transfer evaluation" })?;
        Ok(l.iter().zip(x.iter()).map(|(&li, &xi)| xi.scale(li)).fold(Complex::ZERO, |a, b| a + b))
    }

    /// Collapses one input/output pair to its pole/residue form.
    ///
    /// Poles are `pᵢ = −1/μᵢ` for the eigenvalues `μᵢ` of `Aᵣ = Gᵣ⁻¹Cᵣ`
    /// (near-zero `μ` fold into the direct term), with clusters of (nearly)
    /// repeated eigenvalues split first. Residues are then fitted to exact
    /// samples of the reduced transfer function — `s = 0` plus one distinct
    /// point near `±j|pₖ|` per pole — a Cauchy-structured solve that stays
    /// well conditioned where the classical moment (Vandermonde) solve does
    /// not, and conjugate pairs are symmetrised so the impulse response is
    /// exactly real.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::Breakdown`] on singular kernels and propagates
    /// eigensolver failures.
    pub fn pole_residue(
        &self,
        output: usize,
        input: usize,
    ) -> Result<PoleResidueModel, ReduceError> {
        let q = self.order();
        let lu = LuFactor::new(&self.gr)
            .map_err(|_| ReduceError::Breakdown { stage: "reduced G factorisation" })?;
        // Aᵣ = Gᵣ⁻¹Cᵣ, column by column.
        let mut ar = Matrix::zeros(q, q);
        let mut col = vec![0.0; q];
        for j in 0..q {
            for (i, c) in col.iter_mut().enumerate() {
                *c = self.cr[(i, j)];
            }
            let x = lu.solve(&col);
            for (i, &v) in x.iter().enumerate() {
                ar[(i, j)] = v;
            }
        }
        let mut mu = eigenvalues(&ar)?;
        separate_clustered(&mut mu, CLUSTER_TOL);
        let mu_max = mu.iter().map(|m| m.abs()).fold(0.0f64, f64::max);
        // Keep the numerically meaningful eigenvalues; the rest are poles at
        // infinity whose step contribution is a constant.
        let poles: Vec<Complex> = mu
            .iter()
            .filter(|m| m.abs() > ZERO_EIGENVALUE_TOL * mu_max)
            .map(|m| -m.recip())
            .collect();
        let f = poles.len();
        if f == 0 {
            let dc = self.moments(output, input, 1)?[0];
            return PoleResidueModel::from_parts(Vec::new(), Vec::new(), dc);
        }

        // Fit [r₁..r_f, d] to f + 1 exact samples of H(s): the DC point plus
        // one point per pole on the imaginary axis at ±j|pₖ| (the sign of
        // Im pₖ), so every pole has a sample near it whatever the spread of
        // the spectrum. A point that repeats an earlier one (a cluster, or a
        // real and a complex pole of equal magnitude) moves up the axis in
        // 10 % steps until it is clear, so no two rows coincide.
        let mut samples = vec![Complex::ZERO];
        for p in &poles {
            let mut s = Complex::new(0.0, if p.im < 0.0 { -p.abs() } else { p.abs() });
            while samples.iter().any(|t| (*t - s).abs() <= SAMPLE_SEPARATION * s.abs()) {
                s = s.scale(1.1);
            }
            samples.push(s);
        }
        let mut a = Matrix::<Complex>::zeros(f + 1, f + 1);
        let mut rhs = vec![Complex::ZERO; f + 1];
        for (k, &s) in samples.iter().enumerate() {
            for (i, p) in poles.iter().enumerate() {
                a[(k, i)] = (s - *p).recip();
            }
            a[(k, f)] = Complex::ONE;
            rhs[k] = self.transfer_at(output, input, s)?;
        }
        let mut fit = rlckit_numeric::lu::solve(&a, &rhs)
            .map_err(|_| ReduceError::Breakdown { stage: "residue fit solve" })?;
        let direct = fit[f].re;
        fit.truncate(f);
        symmetrize_conjugate_pairs(&poles, &mut fit);
        PoleResidueModel::from_parts(poles, fit, direct)
    }

    /// Checked access to one output selector / input column pair.
    fn pair(&self, output: usize, input: usize) -> Result<(Vec<f64>, Vec<f64>), ReduceError> {
        if output >= self.output_count() || input >= self.input_count() {
            return Err(ReduceError::Measurement {
                reason: format!(
                    "pair ({output}, {input}) out of range for a {}x{} reduced system",
                    self.output_count(),
                    self.input_count()
                ),
            });
        }
        let q = self.order();
        let mut l = vec![0.0; q];
        let mut b = vec![0.0; q];
        for i in 0..q {
            l[i] = self.lr[(i, output)];
            b[i] = self.br[(i, input)];
        }
        Ok((l, b))
    }
}

/// Makes the residues of exact conjugate pole pairs exact conjugates (and
/// of real poles exactly real), so the recovered impulse response is real.
/// The QR eigensolver emits conjugate pairs bit-exactly, so exact matching
/// is safe here; an unpaired complex pole is left untouched.
fn symmetrize_conjugate_pairs(poles: &[Complex], residues: &mut [Complex]) {
    let n = poles.len();
    let mut done = vec![false; n];
    for i in 0..n {
        if done[i] {
            continue;
        }
        if poles[i].im == 0.0 {
            residues[i] = Complex::from_real(residues[i].re);
            done[i] = true;
            continue;
        }
        let partner = (i + 1..n)
            .find(|&j| !done[j] && poles[j].re == poles[i].re && poles[j].im == -poles[i].im);
        if let Some(j) = partner {
            let w = (residues[i] + residues[j].conj()).scale(0.5);
            residues[i] = w;
            residues[j] = w.conj();
            done[j] = true;
        }
        done[i] = true;
    }
}

/// A rational transfer function in pole/residue form,
/// `H(s) = d + Σ rᵢ/(s − pᵢ)`, with its closed-form unit-step response.
///
/// Built from a [`ReducedSystem`] pair or from AWE Padé coefficients; also
/// used directly as a *waveform* model for superposed bus responses (where
/// `d` additionally absorbs constant initial levels).
#[derive(Debug, Clone)]
pub struct PoleResidueModel {
    pub(crate) poles: Vec<Complex>,
    pub(crate) residues: Vec<Complex>,
    pub(crate) direct: f64,
}

impl PoleResidueModel {
    /// Builds a model from explicit poles, residues and direct term.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::NonFinite`] for non-finite entries and
    /// [`ReduceError::InvalidOrder`] for mismatched lengths.
    pub(crate) fn from_parts(
        poles: Vec<Complex>,
        residues: Vec<Complex>,
        direct: f64,
    ) -> Result<Self, ReduceError> {
        if poles.len() != residues.len() {
            return Err(ReduceError::InvalidOrder {
                order: poles.len(),
                reason: "poles and residues must pair up",
            });
        }
        if !direct.is_finite() {
            return Err(ReduceError::NonFinite { what: "direct term", value: direct });
        }
        for p in &poles {
            if !p.is_finite() {
                return Err(ReduceError::NonFinite { what: "pole", value: p.re });
            }
        }
        for r in &residues {
            if !r.is_finite() {
                return Err(ReduceError::NonFinite { what: "residue", value: r.re });
            }
        }
        Ok(Self { poles, residues, direct })
    }

    /// The steady-state value of the unit-step response,
    /// `y(∞) = d − Σ Re(rᵢ/pᵢ)` (equals `H(0)` for stable models).
    pub(crate) fn final_value(&self) -> f64 {
        self.direct
            + self.poles.iter().zip(self.residues.iter()).map(|(p, r)| -(*r / *p).re).sum::<f64>()
    }

    /// The unit-step response `y(t)` in closed form (no time-stepping).
    ///
    /// Returns 0 for `t < 0`.
    pub(crate) fn step_response(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        let mut y = self.direct;
        for (p, r) in self.poles.iter().zip(self.residues.iter()) {
            let z = -(*r / *p); // step weight zᵢ = −rᵢ/pᵢ
            y += (z * (Complex::ONE - (p.scale(t)).exp())).re;
        }
        y
    }

    /// The slowest time constant `max 1/|Re pᵢ|` — the natural horizon unit
    /// for scanning the response.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::Measurement`] if there is no decaying pole.
    pub(crate) fn dominant_time_constant(&self) -> Result<f64, ReduceError> {
        self.poles
            .iter()
            .filter(|p| p.re < 0.0)
            .map(|p| 1.0 / -p.re)
            .fold(None, |acc: Option<f64>, t| Some(acc.map_or(t, |a| a.max(t))))
            .ok_or_else(|| ReduceError::Measurement {
                reason: "model has no decaying pole to set a time scale".to_owned(),
            })
    }

    /// First time the step response crosses `level` in the given direction
    /// ([`first_crossing`] on the closed form, from a horizon of ten slowest
    /// time constants).
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::NonFinite`] for a non-finite level and
    /// [`ReduceError::Measurement`] for a non-finite sample or if no crossing
    /// is found within 4⁴ times that horizon.
    pub(crate) fn time_to_cross(&self, level: f64, rising: bool) -> Result<Time, ReduceError> {
        if !level.is_finite() {
            return Err(ReduceError::NonFinite { what: "crossing level", value: level });
        }
        let tau = self.dominant_time_constant()?;
        first_crossing(|t| self.step_response(t), level, rising, 10.0 * tau, 4096, 5, tau * 1e-12)
            .map(Time::from_seconds)
            .map_err(|e| ReduceError::Measurement {
                reason: format!("could not locate the {level} crossing: {e}"),
            })
    }

    /// Time for the step response to first reach `fraction` of its final
    /// value (e.g. `0.5` for the 50% propagation delay).
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::Measurement`] for a fraction outside `(0, 1)`
    /// or an unlocatable crossing.
    pub(crate) fn delay_to_fraction(&self, fraction: f64) -> Result<Time, ReduceError> {
        if !(fraction > 0.0 && fraction < 1.0) {
            return Err(ReduceError::Measurement {
                reason: format!("threshold fraction {fraction} must lie strictly in (0, 1)"),
            });
        }
        self.time_to_cross(fraction * self.final_value(), true)
    }

    /// The 50% propagation delay of the unit-step response.
    ///
    /// # Errors
    ///
    /// Same conditions as `PoleResidueModel::delay_to_fraction`.
    pub fn delay_50(&self) -> Result<Time, ReduceError> {
        self.delay_to_fraction(0.5)
    }

    /// All step-response metrics at once: 50% delay, overshoot above the
    /// final value (per cent) and the 2% settling time.
    ///
    /// # Errors
    ///
    /// Propagates [`ReduceError::Measurement`] from the individual metrics.
    pub(crate) fn step_metrics(&self) -> Result<StepMetrics, ReduceError> {
        let delay_50 = self.delay_50()?;
        let tau = self.dominant_time_constant()?;
        let final_value = self.final_value();
        // One dense scan covers both the peak and the settling boundary.
        const SAMPLES: usize = 8192;
        const SETTLE_BAND: f64 = 0.02;
        let mut horizon = 12.0 * tau;
        for _ in 0..5 {
            let dt = horizon / SAMPLES as f64;
            let mut peak = f64::MIN;
            let mut last_outside: Option<usize> = None;
            for i in 0..=SAMPLES {
                let y = self.step_response(i as f64 * dt);
                peak = peak.max(y);
                if (y - final_value).abs() > SETTLE_BAND * final_value.abs() {
                    last_outside = Some(i);
                }
            }
            match last_outside {
                Some(i) if i == SAMPLES => {
                    // Not settled inside this horizon yet; widen and retry.
                    horizon *= 4.0;
                }
                Some(i) => {
                    // Refine the band boundary between samples i and i+1.
                    let g = |t: f64| {
                        (self.step_response(t) - final_value).abs()
                            - SETTLE_BAND * final_value.abs()
                    };
                    let lo = i as f64 * dt;
                    let hi = (i + 1) as f64 * dt;
                    let settle = brent(g, lo, hi, tau * 1e-9, 200).unwrap_or(hi);
                    let overshoot = (100.0 * (peak - final_value) / final_value.abs()).max(0.0);
                    return Ok(StepMetrics {
                        delay_50,
                        overshoot_percent: overshoot,
                        settling_time: Time::from_seconds(settle),
                        final_value,
                    });
                }
                None => {
                    // Inside the band from t = 0 on: settled immediately.
                    let overshoot = (100.0 * (peak - final_value) / final_value.abs()).max(0.0);
                    return Ok(StepMetrics {
                        delay_50,
                        overshoot_percent: overshoot,
                        settling_time: Time::ZERO,
                        final_value,
                    });
                }
            }
        }
        Err(ReduceError::Measurement {
            reason: "step response did not settle within the scan horizon".to_owned(),
        })
    }

    /// A copy with every residue and the direct term scaled by `k` —
    /// superposition building block for multi-input responses.
    #[must_use]
    pub(crate) fn scaled(&self, k: f64) -> Self {
        Self {
            poles: self.poles.clone(),
            residues: self.residues.iter().map(|r| r.scale(k)).collect(),
            direct: self.direct * k,
        }
    }

    /// Superposes waveform models (shared time axis): concatenates all
    /// pole/residue terms, sums direct terms and adds `offset` — used to
    /// assemble a bus victim waveform from per-aggressor responses.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::Measurement`] for an empty model list and
    /// [`ReduceError::NonFinite`] for a non-finite offset.
    pub(crate) fn superpose(models: &[Self], offset: f64) -> Result<Self, ReduceError> {
        if models.is_empty() {
            return Err(ReduceError::Measurement {
                reason: "cannot superpose an empty set of models".to_owned(),
            });
        }
        if !offset.is_finite() {
            return Err(ReduceError::NonFinite { what: "superposition offset", value: offset });
        }
        let mut poles = Vec::new();
        let mut residues = Vec::new();
        let mut direct = offset;
        for m in models {
            poles.extend_from_slice(&m.poles);
            residues.extend_from_slice(&m.residues);
            direct += m.direct;
        }
        Self::from_parts(poles, residues, direct)
    }
}

/// Step-response metrics of a reduced model, computed in closed form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMetrics {
    /// Time to first reach 50% of the final value.
    pub delay_50: Time,
    /// Peak overshoot above the final value, in per cent (0 when monotone).
    pub overshoot_percent: f64,
    /// Time after which the response stays within ±2% of the final value.
    pub settling_time: Time,
    /// Steady-state value of the unit-step response.
    pub final_value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `H(s) = d + Σ rᵢ/(s − pᵢ)` of a pole-residue model.
    fn transfer_at(m: &PoleResidueModel, s: Complex) -> Complex {
        let mut h = Complex::from_real(m.direct);
        for (p, r) in m.poles.iter().zip(m.residues.iter()) {
            h += *r / (s - *p);
        }
        h
    }

    /// Single-pole RC model: H(s) = (1/τ)/(s + 1/τ), y(t) = 1 − e^{−t/τ}.
    fn rc_model(tau: f64) -> PoleResidueModel {
        PoleResidueModel::from_parts(
            vec![Complex::from_real(-1.0 / tau)],
            vec![Complex::from_real(1.0 / tau)],
            0.0,
        )
        .unwrap()
    }

    /// Underdamped two-pole model with ωn = 1, ζ: poles −ζ ± j√(1−ζ²),
    /// residues chosen so H(s) = 1/(s² + 2ζs + 1).
    fn two_pole(zeta: f64) -> PoleResidueModel {
        let wd = (1.0 - zeta * zeta).sqrt();
        let p = Complex::new(-zeta, wd);
        // H = 1/((s−p)(s−p̄)); residue at p is 1/(p − p̄) = 1/(2j·wd).
        let r = (Complex::new(0.0, 2.0 * wd)).recip();
        PoleResidueModel::from_parts(vec![p, p.conj()], vec![r, -r], 0.0).unwrap()
    }

    #[test]
    fn rc_step_response_and_delay() {
        let tau = 2.5e-9;
        let m = rc_model(tau);
        assert!((m.final_value() - 1.0).abs() < 1e-12);
        assert!((m.step_response(tau) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        let d = m.delay_50().unwrap();
        assert!((d.seconds() - tau * std::f64::consts::LN_2).abs() < 1e-15 * 1e9);
        assert!(m.poles.iter().all(|p| p.re < 0.0));
        let metrics = m.step_metrics().unwrap();
        assert_eq!(metrics.overshoot_percent, 0.0);
        // 2% settling of a first-order lag is ln(50)·τ ≈ 3.912 τ.
        assert!((metrics.settling_time.seconds() - tau * 50f64.ln()).abs() < 0.01 * tau);
    }

    #[test]
    fn underdamped_two_pole_overshoot_matches_theory() {
        let zeta = 0.3;
        let m = two_pole(zeta);
        assert!((m.final_value() - 1.0).abs() < 1e-12);
        let metrics = m.step_metrics().unwrap();
        let expected = 100.0 * (-std::f64::consts::PI * zeta / (1.0 - zeta * zeta).sqrt()).exp();
        assert!(
            (metrics.overshoot_percent - expected).abs() < 0.1,
            "overshoot {} vs theory {expected}",
            metrics.overshoot_percent
        );
        // Analytic 50% delay for ζ=0.3, ωn=1 is near 1.2 (first crossing).
        let d = metrics.delay_50.seconds();
        let y = m.step_response(d);
        assert!((y - 0.5).abs() < 1e-9, "response at the reported delay is {y}");
    }

    #[test]
    fn transfer_function_evaluation() {
        let m = rc_model(1.0);
        // H(0) = 1, H(j/τ) has magnitude 1/√2.
        assert!((transfer_at(&m, Complex::ZERO).re - 1.0).abs() < 1e-12);
        assert!((transfer_at(&m, Complex::new(0.0, 1.0)).abs() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn falling_crossing_direction() {
        // 1 − y falls through 0.5 exactly at the rising 50% point.
        let tau = 1.0;
        let m = rc_model(tau);
        let down = PoleResidueModel::from_parts(
            m.poles.to_vec(),
            m.residues.iter().map(|r| -*r).collect(),
            1.0,
        )
        .unwrap();
        let t = down.time_to_cross(0.5, false).unwrap();
        assert!((t.seconds() - tau * std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn scaling_and_superposition() {
        let a = rc_model(1.0).scaled(2.0);
        assert!((a.final_value() - 2.0).abs() < 1e-12);
        let b = rc_model(0.5).scaled(-1.0);
        let combined = PoleResidueModel::superpose(&[a, b], 1.0).unwrap();
        // Final: 2 − 1 + 1 = 2.
        assert!((combined.final_value() - 2.0).abs() < 1e-12);
        assert_eq!(combined.poles.len(), 2);
        assert!(PoleResidueModel::superpose(&[], 0.0).is_err());
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        assert!(matches!(
            PoleResidueModel::from_parts(vec![Complex::ONE], vec![], 0.0),
            Err(ReduceError::InvalidOrder { .. })
        ));
        assert!(matches!(
            PoleResidueModel::from_parts(vec![], vec![], f64::NAN),
            Err(ReduceError::NonFinite { .. })
        ));
        assert!(matches!(
            PoleResidueModel::from_parts(
                vec![Complex::new(f64::INFINITY, 0.0)],
                vec![Complex::ONE],
                0.0
            ),
            Err(ReduceError::NonFinite { .. })
        ));
        let m = rc_model(1.0);
        assert!(matches!(m.delay_to_fraction(1.5), Err(ReduceError::Measurement { .. })));
        assert!(matches!(m.time_to_cross(f64::NAN, true), Err(ReduceError::NonFinite { .. })));
        // A model with only a growing pole has no time scale.
        let unstable = PoleResidueModel::from_parts(
            vec![Complex::from_real(1.0)],
            vec![Complex::from_real(-1.0)],
            0.0,
        )
        .unwrap();
        assert!(unstable.poles.iter().any(|p| p.re >= 0.0));
        assert!(unstable.dominant_time_constant().is_err());
    }

    #[test]
    fn reduced_system_shape_validation() {
        let ok = ReducedSystem::new(
            Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            Matrix::zeros(2, 1),
            Matrix::zeros(2, 1),
        )
        .unwrap();
        assert_eq!(ok.order(), 2);
        assert_eq!(ok.input_count(), 1);
        assert_eq!(ok.output_count(), 1);
        assert!(matches!(
            ReducedSystem::new(
                Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
                Matrix::from_rows(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
                Matrix::zeros(2, 1),
                Matrix::zeros(2, 1),
            ),
            Err(ReduceError::InvalidOrder { .. })
        ));
        let mut nan = Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        nan[(0, 1)] = f64::NAN;
        assert!(matches!(
            ReducedSystem::new(
                nan,
                Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
                Matrix::zeros(2, 1),
                Matrix::zeros(2, 1)
            ),
            Err(ReduceError::NonFinite { .. })
        ));
    }

    #[test]
    fn hand_built_reduced_system_round_trips_through_poles() {
        // Gr = diag(1, 2), Cr = diag(1, 1), b = l = [1, 1]ᵀ:
        // H(s) = 1/(1+s) + 1/(2+s), poles −1 and −2.
        let gr = Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 2.0]);
        let cr = Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Matrix::from_rows(2, 1, vec![1.0, 1.0]);
        let l = Matrix::from_rows(2, 1, vec![1.0, 1.0]);
        let sys = ReducedSystem::new(gr, cr, b, l).unwrap();
        let m = sys.moments(0, 0, 3).unwrap();
        // m0 = 1 + 1/2, m1 = −(1 + 1/4), m2 = 1 + 1/8.
        assert!((m[0] - 1.5).abs() < 1e-12);
        assert!((m[1] + 1.25).abs() < 1e-12);
        assert!((m[2] - 1.125).abs() < 1e-12);
        let pr = sys.pole_residue(0, 0).unwrap();
        assert_eq!(pr.poles.len(), 2);
        let mut re: Vec<f64> = pr.poles.iter().map(|p| p.re).collect();
        re.sort_by(f64::total_cmp);
        assert!((re[0] + 2.0).abs() < 1e-9 && (re[1] + 1.0).abs() < 1e-9, "poles {re:?}");
        // Transfer function matches at a probe frequency.
        let s = Complex::new(0.3, 1.1);
        let exact = (s + 1.0).recip() + (s + 2.0).recip();
        assert!((transfer_at(&pr, s) - exact).abs() < 1e-9);
        assert!((pr.final_value() - 1.5).abs() < 1e-9);
        // Out-of-range pairs are rejected.
        assert!(sys.pole_residue(1, 0).is_err());
        assert!(sys.moments(0, 3, 2).is_err());
    }

    #[test]
    fn equal_magnitude_poles_get_distinct_fit_samples() {
        // Gr = I and Cr = diag(1, R) with R the rotation-scaled block whose
        // eigenvalues are 0.5 ± 0.866j: the poles are −1 and −0.5 ± 0.866j,
        // all of magnitude 1, so the real pole and the upper complex pole
        // would both sample H at s = +j.
        let (c, si) = (0.5, 0.75f64.sqrt());
        let gr = Matrix::from_rows(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let cr = Matrix::from_rows(3, 3, vec![1.0, 0.0, 0.0, 0.0, c, -si, 0.0, si, c]);
        let b = Matrix::from_rows(3, 1, vec![1.0, 1.0, 0.5]);
        let l = Matrix::from_rows(3, 1, vec![1.0, 0.3, 1.0]);
        let sys = ReducedSystem::new(gr, cr, b, l).unwrap();
        let pr = sys.pole_residue(0, 0).unwrap();
        assert_eq!(pr.poles.len(), 3);
        for s in [Complex::new(0.0, 1.0), Complex::new(0.2, -0.7), Complex::new(1.5, 3.0)] {
            let exact = sys.transfer_at(0, 0, s).unwrap();
            let err = (transfer_at(&pr, s) - exact).abs();
            assert!(err < 1e-9 * exact.abs(), "H({s}) off by {err:e}");
        }
    }
}
