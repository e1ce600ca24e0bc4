//! Numerical minimisation of the total repeater-system delay.
//!
//! The paper validates Eqs. (14)–(15) against "numerical solutions" of the two
//! stationarity conditions (Eq. 10). Minimising `tpdtotal(h, k)` directly is
//! equivalent and more robust; this module does so with a Nelder–Mead simplex
//! in log-space (so `h` and `k` stay positive), seeded by the closed form.
//! Fig. 4 is reproduced by sweeping `T_{L/R}` and comparing this optimum with
//! the closed form.

use rlckit_numeric::optimize::{nelder_mead, NelderMeadOptions};

use crate::error::RepeaterError;
use crate::system::{RepeaterDesign, RepeaterProblem};

/// Result of the numerical optimisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericalOptimum {
    /// The optimal design found.
    pub design: RepeaterDesign,
    /// Number of objective evaluations used by the optimiser.
    pub evaluations: usize,
}

/// Numerically minimises `tpdtotal(h, k)` over real `h > 0`, `k > 0`.
///
/// The optimiser works in `(ln h, ln k)` so both variables remain positive,
/// and is seeded from the closed-form optimum (Eqs. 14–15), which is always in
/// the basin of the global minimum.
///
/// Note that `k` is treated as a continuous variable, exactly as in the
/// paper's Fig. 4; use [`crate::design::RepeaterDesigner`] for integer
/// repeater counts.
///
/// # Errors
///
/// Returns [`RepeaterError::Optimization`] if the simplex fails to converge.
pub fn optimize(problem: &RepeaterProblem) -> Result<NumericalOptimum, RepeaterError> {
    let seed = problem.rlc_optimum();
    let start = [seed.size.ln(), seed.sections.ln()];

    let objective = |x: &[f64]| {
        let size = x[0].exp();
        let sections = x[1].exp();
        match problem.total_delay(size, sections) {
            Ok(t) => t.seconds(),
            Err(_) => f64::INFINITY,
        }
    };

    let options = NelderMeadOptions { initial_step: 0.25, tolerance: 1e-12, max_iterations: 4000 };
    let minimum = nelder_mead(objective, &start, options)
        .map_err(|e| RepeaterError::Optimization { reason: e.to_string() })?;

    let size = minimum.point[0].exp();
    let sections = minimum.point[1].exp();
    let design = problem.design(size, sections)?;
    Ok(NumericalOptimum { design, evaluations: minimum.evaluations })
}

/// Numerically minimises the delay with the number of sections fixed.
///
/// Used by the integer-rounding designer: once `k` is chosen, the best `h`
/// for that `k` is a one-dimensional problem.
///
/// # Errors
///
/// Returns [`RepeaterError::InvalidParameter`] for a non-positive `sections`
/// and [`RepeaterError::Optimization`] if the search fails.
pub(crate) fn optimize_size_for_sections(
    problem: &RepeaterProblem,
    sections: f64,
) -> Result<RepeaterDesign, RepeaterError> {
    if !(sections > 0.0) || !sections.is_finite() {
        return Err(RepeaterError::InvalidParameter { what: "section count k", value: sections });
    }
    let seed = problem.rlc_optimum().size;
    let objective = |x: &[f64]| {
        let size = x[0].exp();
        match problem.total_delay(size, sections) {
            Ok(t) => t.seconds(),
            Err(_) => f64::INFINITY,
        }
    };
    let options = NelderMeadOptions { initial_step: 0.25, tolerance: 1e-12, max_iterations: 2000 };
    let minimum = nelder_mead(objective, &[seed.ln()], options)
        .map_err(|e| RepeaterError::Optimization { reason: e.to_string() })?;
    problem.design(minimum.point[0].exp(), sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_interconnect::Technology;
    use rlckit_units::Length;

    fn problem(mm: f64) -> RepeaterProblem {
        let tech = Technology::quarter_micron();
        let line = tech.global_wire.line(Length::from_millimeters(mm)).unwrap();
        RepeaterProblem::for_line(&line, &tech).unwrap()
    }

    fn resistive_problem(mm: f64) -> RepeaterProblem {
        let tech = Technology::quarter_micron();
        let line = tech.intermediate_wire.line(Length::from_millimeters(mm)).unwrap();
        RepeaterProblem::for_line(&line, &tech).unwrap()
    }

    #[test]
    fn numerical_optimum_is_at_least_as_good_as_the_closed_form() {
        for p in [problem(50.0), resistive_problem(10.0), problem(20.0)] {
            let closed = p.rlc_optimum();
            let numerical = optimize(&p).unwrap();
            assert!(
                numerical.design.total_delay.seconds() <= closed.total_delay.seconds() * 1.0001,
                "numerical optimum should not be worse than the closed form"
            );
            assert!(numerical.evaluations > 0);
        }
    }

    #[test]
    fn closed_form_is_within_a_fraction_of_a_percent_of_the_numerical_optimum() {
        // The paper claims the closed forms give a total delay within 0.05% of
        // the numerical optimum; allow a slightly looser bound here because the
        // objective is the full Eq. (9) rather than the paper's fitting setup.
        for p in [problem(50.0), resistive_problem(10.0)] {
            let closed = p.rlc_optimum();
            let numerical = optimize(&p).unwrap();
            let excess = (closed.total_delay.seconds() - numerical.design.total_delay.seconds())
                / numerical.design.total_delay.seconds();
            assert!(excess.abs() < 5e-3, "closed-form delay excess {excess}");
        }
    }

    #[test]
    fn numerical_optimum_prefers_fewer_sections_on_inductive_lines() {
        let inductive = optimize(&problem(50.0)).unwrap();
        let resistive = optimize(&resistive_problem(50.0)).unwrap();
        // Same length, but the wide (inductive) wire wants fewer repeaters.
        assert!(inductive.design.sections < resistive.design.sections);
    }

    #[test]
    fn fixed_sections_search_matches_full_optimum_at_the_optimal_k() {
        let p = resistive_problem(10.0);
        let full = optimize(&p).unwrap();
        let fixed = optimize_size_for_sections(&p, full.design.sections).unwrap();
        let diff = (fixed.total_delay.seconds() - full.design.total_delay.seconds()).abs()
            / full.design.total_delay.seconds();
        assert!(diff < 1e-6, "fixed-k search should recover the same optimum (diff {diff})");
        assert!(optimize_size_for_sections(&p, 0.0).is_err());
        assert!(optimize_size_for_sections(&p, f64::NAN).is_err());
    }
}
