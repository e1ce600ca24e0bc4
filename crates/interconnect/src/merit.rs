//! Figures of merit deciding when on-chip inductance matters.
//!
//! Reference \[8\] of the paper (Ismail, Friedman & Neves, DAC 1998) gives the
//! now-standard criterion: transmission-line behaviour is significant when the
//! line length satisfies
//!
//! ```text
//! tr / (2·sqrt(L·C))   <   l   <   (2/R)·sqrt(L/C)
//! ```
//!
//! The lower bound says the input rise time must be comparable to (or faster
//! than) the round-trip time of flight; the upper bound says the line must not
//! attenuate the wave into an RC-like response. This module implements that
//! window, the line damping factor, and the `T_{L/R}` figure of merit used by
//! the repeater analysis (Eq. 13).

use rlckit_units::{Length, Time};

use crate::line::DistributedLine;

/// Why (or why not) inductance needs to be modelled for a particular line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InductanceAssessment {
    /// The line falls inside the significance window: use an RLC model.
    Significant,
    /// The line is shorter than the lower bound: the rise time is slow compared
    /// with the time of flight, so an RC model is adequate.
    TooShortForRiseTime,
    /// The line is longer than the upper bound: resistive attenuation dominates
    /// and the response is RC-like regardless of inductance.
    TooResistive,
    /// The significance window is empty (lower bound above upper bound):
    /// no length of this wire shows transmission-line behaviour at this rise time.
    WindowEmpty,
}

/// The length window within which inductance is significant for a wire class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignificanceWindow {
    /// Minimum length for transmission-line behaviour at the given rise time.
    pub min_length: Length,
    /// Maximum length before resistive attenuation hides the inductance.
    pub max_length: Length,
}

impl SignificanceWindow {
    /// Computes the window for the wire class of `line` at the given input rise time.
    ///
    /// The window depends only on the per-unit-length parasitics and the rise
    /// time, not on the particular length of `line`.
    pub fn for_line(line: &DistributedLine, rise_time: Time) -> Self {
        let r = line.resistance_per_length().ohms_per_meter();
        let l = line.inductance_per_length().henries_per_meter();
        let c = line.capacitance_per_length().farads_per_meter();
        let min_length = rise_time.seconds() / (2.0 * (l * c).sqrt());
        let max_length = 2.0 / r * (l / c).sqrt();
        Self {
            min_length: Length::from_meters(min_length),
            max_length: Length::from_meters(max_length),
        }
    }

    /// Returns `true` if the window is non-empty.
    pub(crate) fn is_open(&self) -> bool {
        self.min_length < self.max_length
    }

    /// Classifies a particular line length against this window.
    pub(crate) fn assess(&self, length: Length) -> InductanceAssessment {
        if !self.is_open() {
            InductanceAssessment::WindowEmpty
        } else if length < self.min_length {
            InductanceAssessment::TooShortForRiseTime
        } else if length > self.max_length {
            InductanceAssessment::TooResistive
        } else {
            InductanceAssessment::Significant
        }
    }
}

/// Assesses whether inductance matters for this specific line at the given rise time.
pub fn assess_inductance(line: &DistributedLine, rise_time: Time) -> InductanceAssessment {
    SignificanceWindow::for_line(line, rise_time).assess(line.length())
}

/// The `T_{L/R}` figure of merit of Eq. (13): `sqrt((Lt/Rt) / (R0·C0))`.
///
/// `buffer_time_constant` is the minimum-buffer `R0·C0` of the technology.
/// `T_{L/R}` is independent of the line length (both `Lt` and `Rt` scale with
/// `l`) and grows as gates get faster, which is the paper's scaling argument.
pub fn t_l_over_r(line: &DistributedLine, buffer_time_constant: Time) -> f64 {
    let lt = line.total_inductance().henries();
    let rt = line.total_resistance().ohms();
    ((lt / rt) / buffer_time_constant.seconds()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::Technology;
    use rlckit_units::Length;

    fn global_line(mm: f64) -> DistributedLine {
        Technology::quarter_micron().global_wire.line(Length::from_millimeters(mm)).unwrap()
    }

    fn resistive_line(mm: f64) -> DistributedLine {
        Technology::quarter_micron().intermediate_wire.line(Length::from_millimeters(mm)).unwrap()
    }

    #[test]
    fn wide_global_wire_with_fast_edge_is_inductive() {
        let line = global_line(10.0);
        let assessment = assess_inductance(&line, Time::from_picoseconds(50.0));
        assert_eq!(assessment, InductanceAssessment::Significant);
        assert_eq!(assessment, InductanceAssessment::Significant);
    }

    #[test]
    fn short_line_with_slow_edge_is_rc() {
        let line = global_line(0.3);
        let assessment = assess_inductance(&line, Time::from_seconds(1.0e-9));
        assert_eq!(assessment, InductanceAssessment::TooShortForRiseTime);
        assert_ne!(assessment, InductanceAssessment::Significant);
    }

    #[test]
    fn very_long_resistive_line_is_rc() {
        let line = resistive_line(40.0);
        let assessment = assess_inductance(&line, Time::from_picoseconds(50.0));
        assert_eq!(assessment, InductanceAssessment::TooResistive);
    }

    #[test]
    fn window_can_close_for_resistive_wires_and_slow_edges() {
        let line = resistive_line(5.0);
        let window = SignificanceWindow::for_line(&line, Time::from_seconds(3.0e-9));
        assert!(!window.is_open());
        assert_eq!(window.assess(line.length()), InductanceAssessment::WindowEmpty);
    }

    #[test]
    fn window_bounds_are_physically_ordered_for_global_wires() {
        let line = global_line(10.0);
        let window = SignificanceWindow::for_line(&line, Time::from_picoseconds(50.0));
        assert!(window.is_open());
        assert!(window.min_length.millimeters() < 10.0);
        assert!(window.max_length.millimeters() > 10.0);
        // Faster edges widen the window from below.
        let faster = SignificanceWindow::for_line(&line, Time::from_picoseconds(10.0));
        assert!(faster.min_length < window.min_length);
        assert_eq!(faster.max_length, window.max_length);
    }

    #[test]
    fn t_l_over_r_matches_quarter_micron_expectation_and_is_length_invariant() {
        let tech = Technology::quarter_micron();
        let t5 = t_l_over_r(&global_line(5.0), tech.buffer_time_constant());
        let t10 = t_l_over_r(&global_line(10.0), tech.buffer_time_constant());
        assert!((t5 - t10).abs() < 1e-9, "T_L/R should not depend on length");
        assert!((t10 - 5.0).abs() < 0.5, "T_L/R = {t10}");
        // Faster buffers (smaller R0·C0) increase T_L/R.
        let faster = t_l_over_r(&global_line(10.0), Technology::node_90nm().buffer_time_constant());
        assert!(faster > t10);
    }
}
