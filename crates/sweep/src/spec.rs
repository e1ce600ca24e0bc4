//! Declarative sweep specifications: cartesian grids of (possibly zipped) axes.
//!
//! A [`SweepSpec`] is a base [`Scenario`] plus an ordered list of [`Axis`]
//! values. Expansion takes the cartesian product of the axes in declaration
//! order (the last axis varies fastest — row-major, like nested `for` loops),
//! producing one [`SweepCell`] per grid point with a deterministic index.
//! An axis whose values each carry *several* [`Param`] assignments is a
//! *zipped* axis: its parameters advance together instead of multiplying the
//! grid (e.g. a "pitch" axis that tightens coupling capacitance and inductive
//! coupling in lock-step).

use crate::error::SweepError;
use crate::scenario::{Param, Scenario};

/// One value of an axis: a display label plus the parameter assignments it
/// applies (one for a plain axis, several for a zipped axis).
#[derive(Debug, Clone, PartialEq)]
pub struct AxisValue {
    /// Label used for this value in the axis column of emitted tables.
    pub label: String,
    /// Parameter assignments applied to the base scenario.
    pub params: Vec<Param>,
}

/// One sweep dimension: a named, ordered list of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    name: String,
    values: Vec<AxisValue>,
}

impl Axis {
    /// A plain axis: one [`Param`] per value, labelled by the value itself.
    pub fn new(name: impl Into<String>, values: impl IntoIterator<Item = Param>) -> Self {
        let values =
            values.into_iter().map(|p| AxisValue { label: p.label(), params: vec![p] }).collect();
        Self { name: name.into(), values }
    }

    /// A zipped axis: each value applies several parameters together. Labels
    /// are taken from `labels`; the parameter rows advance in lock-step.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] if `labels` and `rows` differ in length or
    /// any row is empty.
    pub fn zipped(
        name: impl Into<String>,
        labels: impl IntoIterator<Item = String>,
        rows: impl IntoIterator<Item = Vec<Param>>,
    ) -> Result<Self, SweepError> {
        let name = name.into();
        let labels: Vec<String> = labels.into_iter().collect();
        let rows: Vec<Vec<Param>> = rows.into_iter().collect();
        if labels.len() != rows.len() {
            return Err(SweepError::Spec {
                reason: format!(
                    "zipped axis '{name}' has {} labels but {} parameter rows",
                    labels.len(),
                    rows.len()
                ),
            });
        }
        for (label, row) in labels.iter().zip(rows.iter()) {
            if row.is_empty() {
                return Err(SweepError::Spec {
                    reason: format!("zipped axis '{name}' value '{label}' sets no parameters"),
                });
            }
        }
        let values = labels
            .into_iter()
            .zip(rows)
            .map(|(label, params)| AxisValue { label, params })
            .collect();
        Ok(Self { name, values })
    }
}

/// One expanded grid point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Deterministic row-major index of this cell in the expanded grid.
    pub index: usize,
    /// The fully resolved scenario for this cell.
    pub scenario: Scenario,
    /// One label per axis, aligned with [`SweepSpec::axis_names`].
    pub labels: Vec<String>,
}

/// A declarative sweep: a base scenario and the axes that vary around it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    base: Scenario,
    axes: Vec<Axis>,
}

impl SweepSpec {
    /// Starts a sweep around a base scenario.
    pub fn new(base: Scenario) -> Self {
        Self { base, axes: Vec::new() }
    }

    /// Adds the next (slower-varying) axis; builder style.
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Axis names in declaration order (the label columns of every emitter).
    pub fn axis_names(&self) -> Vec<String> {
        self.axes.iter().map(|a| a.name.clone()).collect()
    }

    /// Number of grid cells the spec expands to (product of axis lengths).
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Returns `true` if expansion would produce no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into scenario cells in deterministic row-major order
    /// (first axis slowest, last axis fastest).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] if there are no axes or any axis is empty.
    pub fn expand(&self) -> Result<Vec<SweepCell>, SweepError> {
        if self.axes.is_empty() {
            return Err(SweepError::Spec { reason: "sweep has no axes".into() });
        }
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(SweepError::Spec {
                    reason: format!("axis '{}' has no values", axis.name),
                });
            }
        }
        let total = self.len();
        let mut cells = Vec::with_capacity(total);
        let mut cursor = vec![0usize; self.axes.len()];
        for index in 0..total {
            let mut scenario = self.base.clone();
            let mut labels = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(cursor.iter()) {
                let value = &axis.values[i];
                for p in &value.params {
                    scenario.apply(p);
                }
                labels.push(value.label.clone());
            }
            cells.push(SweepCell { index, scenario, labels });
            // Odometer increment: last axis fastest.
            for d in (0..cursor.len()).rev() {
                cursor[d] += 1;
                if cursor[d] < self.axes[d].values.len() {
                    break;
                }
                cursor[d] = 0;
            }
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TechnologyNode;

    #[test]
    fn cartesian_expansion_is_row_major() {
        let spec = SweepSpec::new(Scenario::default())
            .axis(Axis::new("length_mm", [Param::LineLengthMm(5.0), Param::LineLengthMm(10.0)]))
            .axis(Axis::new(
                "h",
                [Param::DriverSize(25.0), Param::DriverSize(50.0), Param::DriverSize(100.0)],
            ));
        assert_eq!(spec.len(), 6);
        assert!(!spec.is_empty());
        assert_eq!(spec.axis_names(), ["length_mm", "h"]);
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 6);
        // Last axis varies fastest.
        assert_eq!(cells[0].labels, ["5", "25"]);
        assert_eq!(cells[1].labels, ["5", "50"]);
        assert_eq!(cells[3].labels, ["10", "25"]);
        assert_eq!(cells[3].scenario.line_length_mm, 10.0);
        assert_eq!(cells[3].scenario.driver_size, 25.0);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
    }

    #[test]
    fn zipped_axis_advances_parameters_together() {
        let pitch = Axis::zipped(
            "pitch",
            ["tight".to_owned(), "loose".to_owned()],
            [
                vec![Param::CouplingCapFfPerUm(0.2), Param::InductiveCoupling(0.5)],
                vec![Param::CouplingCapFfPerUm(0.05), Param::InductiveCoupling(0.2)],
            ],
        )
        .unwrap();
        let spec = SweepSpec::new(Scenario::default()).axis(pitch);
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].scenario.coupling_cap_ff_per_um, 0.2);
        assert_eq!(cells[0].scenario.inductive_coupling, 0.5);
        assert_eq!(cells[1].scenario.coupling_cap_ff_per_um, 0.05);
        assert_eq!(cells[1].scenario.inductive_coupling, 0.2);
        assert_eq!(cells[1].labels, ["loose"]);
    }

    #[test]
    fn zipped_axis_rejects_mismatched_or_empty_rows() {
        assert!(Axis::zipped("p", ["a".to_owned()], []).is_err());
        assert!(Axis::zipped("p", ["a".to_owned()], [vec![]]).is_err());
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        assert!(SweepSpec::new(Scenario::default()).expand().is_err());
        let empty_axis = Axis::new("x", []);
        let spec = SweepSpec::new(Scenario::default()).axis(empty_axis);
        assert!(spec.is_empty());
        assert!(spec.expand().is_err());
    }

    #[test]
    fn base_scenario_fields_survive_unrelated_axes() {
        let base = Scenario { technology: TechnologyNode::N130, ..Scenario::default() };
        let spec = SweepSpec::new(base).axis(Axis::new("h", [Param::DriverSize(10.0)]));
        assert_eq!(spec.base.technology, TechnologyNode::N130);
        let cells = spec.expand().unwrap();
        assert_eq!(cells[0].scenario.technology, TechnologyNode::N130);
    }
}
