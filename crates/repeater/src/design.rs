//! High-level repeater design for physical lines.
//!
//! [`RepeaterDesigner`] takes a [`DistributedLine`] in a [`Technology`] and
//! produces a physically realisable design: an **integer** number of sections
//! (the continuous optimum rounded to the better of floor/ceil, never below
//! one) with the buffer size re-optimised for that integer count. Three
//! strategies are offered so the experiments can compare them directly.

use rlckit_interconnect::{DistributedLine, Technology};
use rlckit_units::{Area, Energy, Length, Time};

use crate::error::RepeaterError;
use crate::numerical::optimize_size_for_sections;
use crate::system::{RepeaterDesign, RepeaterProblem};

/// How the repeater design is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DesignStrategy {
    /// The paper's closed-form RLC optimum (Eqs. 14–15) — the default.
    #[default]
    RlcClosedForm,
    /// The Bakoglu RC optimum (Eq. 11), ignoring inductance.
    RcClosedForm,
    /// Direct numerical minimisation of the total delay.
    Numerical,
}

/// A physically realisable repeater design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedRepeaterDesign {
    /// Strategy used to derive the design.
    pub strategy: DesignStrategy,
    /// Repeater size as a multiple of the minimum buffer.
    pub size: f64,
    /// Integer number of sections (= number of repeaters).
    pub sections: usize,
    /// Length of each section.
    pub section_length: Length,
    /// Estimated total propagation delay.
    pub total_delay: Time,
    /// Total repeater silicon area.
    pub repeater_area: Area,
    /// Switching energy per transition of line plus repeaters.
    pub switching_energy: Energy,
}

/// Designs repeaters for one line in one technology.
#[derive(Debug, Clone, Copy)]
pub struct RepeaterDesigner<'a> {
    line: &'a DistributedLine,
    technology: &'a Technology,
}

impl<'a> RepeaterDesigner<'a> {
    /// Creates a designer for the given line and technology.
    pub fn new(line: &'a DistributedLine, technology: &'a Technology) -> Self {
        Self { line, technology }
    }

    /// The underlying continuous repeater problem.
    ///
    /// # Errors
    ///
    /// Returns [`RepeaterError::InvalidParameter`] if the line or technology
    /// parameters are degenerate.
    pub(crate) fn problem(&self) -> Result<RepeaterProblem, RepeaterError> {
        RepeaterProblem::for_line(self.line, self.technology)
    }

    /// Produces an integer-section design with the given strategy.
    ///
    /// The continuous optimum `k*` is rounded by evaluating both `floor(k*)`
    /// and `ceil(k*)` (clamped to at least 1) with the buffer size re-optimised
    /// for each, and keeping the faster one.
    ///
    /// # Errors
    ///
    /// Returns [`RepeaterError`] if the problem is degenerate or the
    /// size re-optimisation fails.
    pub fn design(&self, strategy: DesignStrategy) -> Result<PlacedRepeaterDesign, RepeaterError> {
        let problem = self.problem()?;
        let continuous: RepeaterDesign = match strategy {
            DesignStrategy::RlcClosedForm => problem.rlc_optimum(),
            DesignStrategy::RcClosedForm => problem.bakoglu_optimum(),
            DesignStrategy::Numerical => crate::numerical::optimize(&problem)?.design,
        };

        let k_low = continuous.sections.floor().max(1.0);
        let k_high = continuous.sections.ceil().max(1.0);
        let mut best: Option<RepeaterDesign> = None;
        let mut k_seen = Vec::new();
        for k in [k_low, k_high] {
            if k_seen.contains(&(k as u64)) {
                continue;
            }
            k_seen.push(k as u64);
            let candidate = match strategy {
                // The RC strategy keeps the RC-formula size to represent an
                // RC-only flow faithfully; the others re-optimise the size.
                DesignStrategy::RcClosedForm => problem.design(continuous.size, k)?,
                _ => optimize_size_for_sections(&problem, k)?,
            };
            let better = match &best {
                None => true,
                Some(b) => candidate.total_delay < b.total_delay,
            };
            if better {
                best = Some(candidate);
            }
        }
        let chosen = best.expect("at least one candidate section count is evaluated");

        let sections = chosen.sections.round().max(1.0) as usize;
        Ok(PlacedRepeaterDesign {
            strategy,
            size: chosen.size,
            sections,
            section_length: self.line.length() / sections as f64,
            total_delay: chosen.total_delay,
            repeater_area: problem.repeater_area(&chosen),
            switching_energy: problem.switching_energy(&chosen),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::Length;

    fn designer_for(
        mm: f64,
        tech: &Technology,
        wire: rlckit_interconnect::technology::WireClass,
    ) -> (DistributedLine, Technology) {
        let line = wire.line(Length::from_millimeters(mm)).unwrap();
        (line, *tech)
    }

    #[test]
    fn default_design_is_rlc_closed_form() {
        let tech = Technology::quarter_micron();
        let (line, tech) = designer_for(50.0, &tech, Technology::quarter_micron().global_wire);
        let designer = RepeaterDesigner::new(&line, &tech);
        let d = designer.design(DesignStrategy::default()).unwrap();
        assert_eq!(d.strategy, DesignStrategy::RlcClosedForm);
        assert!(d.sections >= 1);
        assert!(d.size > 1.0);
        assert!(d.total_delay.seconds() > 0.0);
        assert!(
            (d.section_length.meters() * d.sections as f64 - line.length().meters()).abs() < 1e-12
        );
    }

    #[test]
    fn integer_rounding_never_beats_the_continuous_optimum_by_much() {
        let tech = Technology::quarter_micron();
        let (line, tech) =
            designer_for(10.0, &tech, Technology::quarter_micron().intermediate_wire);
        let designer = RepeaterDesigner::new(&line, &tech);
        let placed = designer.design(DesignStrategy::Numerical).unwrap();
        let continuous = crate::numerical::optimize(&designer.problem().unwrap()).unwrap();
        let ratio = placed.total_delay.seconds() / continuous.design.total_delay.seconds();
        assert!((0.999..1.2).contains(&ratio), "integer design is {ratio}× the continuous optimum");
    }

    #[test]
    fn rc_strategy_is_never_faster_than_rlc_strategy() {
        let tech = Technology::quarter_micron();
        for mm in [20.0, 50.0] {
            let (line, tech) = designer_for(mm, &tech, Technology::quarter_micron().global_wire);
            let designer = RepeaterDesigner::new(&line, &tech);
            let rc = designer.design(DesignStrategy::RcClosedForm).unwrap();
            let rlc = designer.design(DesignStrategy::RlcClosedForm).unwrap();
            assert!(
                rc.total_delay.seconds() >= rlc.total_delay.seconds() * 0.999,
                "RC design faster than RLC design on a {mm} mm global wire"
            );
            assert!(rc.repeater_area.square_meters() >= rlc.repeater_area.square_meters());
        }
    }

    #[test]
    fn numerical_and_closed_form_strategies_agree_closely() {
        let tech = Technology::quarter_micron();
        let (line, tech) =
            designer_for(30.0, &tech, Technology::quarter_micron().intermediate_wire);
        let designer = RepeaterDesigner::new(&line, &tech);
        let closed = designer.design(DesignStrategy::RlcClosedForm).unwrap();
        let numerical = designer.design(DesignStrategy::Numerical).unwrap();
        let diff = (closed.total_delay.seconds() - numerical.total_delay.seconds()).abs()
            / numerical.total_delay.seconds();
        assert!(diff < 0.02, "strategies differ by {diff}");
    }

    #[test]
    fn resistive_lines_get_more_repeaters_than_inductive_lines() {
        let tech = Technology::quarter_micron();
        let (global, t1) = designer_for(30.0, &tech, Technology::quarter_micron().global_wire);
        let (intermediate, t2) =
            designer_for(30.0, &tech, Technology::quarter_micron().intermediate_wire);
        let d_global =
            RepeaterDesigner::new(&global, &t1).design(DesignStrategy::default()).unwrap();
        let d_intermediate =
            RepeaterDesigner::new(&intermediate, &t2).design(DesignStrategy::default()).unwrap();
        assert!(d_intermediate.sections > d_global.sections);
    }
}
