//! Tree-aware repeater insertion: the paper's closed forms applied per
//! root-to-sink path.
//!
//! Hybrid tree repeater schemes (RIP-style) decompose a branching net into
//! its root-to-sink paths, size and space repeaters on each path as if it
//! were a uniform line, and judge the net by its *worst sink*. This module
//! implements exactly that on top of [`RoutingTree::path_line`]: every sink
//! path becomes a [`RepeaterProblem`], the paper's RLC optimum (Eqs. 14–15)
//! and the Bakoglu RC optimum are evaluated on it, and the report carries
//! the worst-sink delay under each scheme — so the cost of ignoring
//! inductance on a *tree* is one subtraction away.

use rlckit_interconnect::{RoutingTree, Technology};
use rlckit_units::{Length, Time};

use crate::error::RepeaterError;
use crate::system::{RepeaterDesign, RepeaterProblem};

/// The repeater plans of one root-to-sink path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkRepeaterPlan {
    /// Leaf branch index in the source tree.
    pub sink: usize,
    /// Root-to-sink path length.
    pub path_length: Length,
    /// The paper's `T_{L/R}` of the path-equivalent uniform line.
    pub t_l_over_r: f64,
    /// The RLC closed-form optimum (Eqs. 14–15) on this path.
    pub rlc: RepeaterDesign,
    /// The inductance-blind Bakoglu optimum, with its delay evaluated on the
    /// true RLC path (what you actually get when you design with an RC model).
    pub rc: RepeaterDesign,
}

/// Tree-wide result of per-path repeater evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRepeaterReport {
    /// One plan per sink, in tree sink order.
    pub per_sink: Vec<SinkRepeaterPlan>,
}

impl TreeRepeaterReport {
    /// The sink whose RLC-optimal path delay is largest — the delay of the
    /// repeatered net.
    ///
    /// # Panics
    ///
    /// Never panics on a report from [`evaluate_tree_repeaters`], which
    /// rejects sink-free trees.
    pub fn worst_sink(&self) -> &SinkRepeaterPlan {
        self.per_sink
            .iter()
            .max_by(|a, b| a.rlc.total_delay.seconds().total_cmp(&b.rlc.total_delay.seconds()))
            .expect("an evaluated tree has at least one sink")
    }

    /// Worst-sink delay when every path uses the paper's RLC optimum.
    pub fn worst_sink_delay_rlc(&self) -> Time {
        self.worst_sink().rlc.total_delay
    }

    /// Worst-sink delay when every path is designed with the RC model
    /// (Bakoglu `h`, `k`) but evaluated on the true RLC line.
    pub fn worst_sink_delay_rc(&self) -> Time {
        Time::from_seconds(
            self.per_sink.iter().map(|p| p.rc.total_delay.seconds()).fold(0.0, f64::max),
        )
    }

    /// Relative delay penalty (per cent) of designing the worst path with an
    /// RC model instead of the paper's RLC closed forms.
    pub fn rc_design_penalty_percent(&self) -> f64 {
        let rlc = self.worst_sink_delay_rlc().seconds();
        let rc = self.worst_sink_delay_rc().seconds();
        100.0 * (rc - rlc) / rlc
    }
}

/// Evaluates repeater insertion on every root-to-sink path of a tree.
///
/// Each path is summarised as its equivalent uniform line
/// ([`RoutingTree::path_line`]); the paper's RLC optimum and the Bakoglu RC
/// optimum are computed on that line with the technology's minimum buffer.
///
/// # Errors
///
/// Returns [`RepeaterError::InvalidParameter`] for a tree without sinks, and
/// propagates path/problem construction failures.
pub fn evaluate_tree_repeaters(
    tree: &RoutingTree,
    technology: &Technology,
) -> Result<TreeRepeaterReport, RepeaterError> {
    let sinks = tree.sinks();
    if sinks.is_empty() {
        return Err(RepeaterError::InvalidParameter { what: "tree sink count", value: 0.0 });
    }
    let mut per_sink = Vec::with_capacity(sinks.len());
    for sink in sinks {
        let line = tree.path_line(sink).map_err(|_| RepeaterError::InvalidParameter {
            what: "root-to-sink path line",
            value: f64::NAN,
        })?;
        let problem = RepeaterProblem::for_line(&line, technology)?;
        per_sink.push(SinkRepeaterPlan {
            sink,
            path_length: tree.path_length(sink),
            t_l_over_r: problem.t_l_over_r(),
            rlc: problem.rlc_optimum(),
            rc: problem.bakoglu_optimum(),
        });
    }
    Ok(TreeRepeaterReport { per_sink })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_interconnect::DistributedLine;
    use rlckit_units::{Capacitance, Length};

    fn technology() -> Technology {
        Technology::quarter_micron()
    }

    fn long_inductive_tree(levels: usize, fanout: usize) -> RoutingTree {
        let tech = technology();
        let path = tech.global_wire.line(Length::from_millimeters(30.0)).unwrap();
        RoutingTree::symmetric(&path, levels, fanout, Capacitance::from_femtofarads(50.0)).unwrap()
    }

    #[test]
    fn every_sink_gets_a_plan_and_symmetric_sinks_match() {
        let tree = long_inductive_tree(3, 2);
        let report = evaluate_tree_repeaters(&tree, &technology()).unwrap();
        assert_eq!(report.per_sink.len(), 4);
        let d0 = report.per_sink[0].rlc.total_delay.seconds();
        for p in &report.per_sink {
            assert!((p.rlc.total_delay.seconds() - d0).abs() < 1e-15 * d0.max(1.0));
            assert!(p.t_l_over_r > 0.0);
            assert!((p.path_length.meters() - 0.03).abs() < 1e-12);
        }
    }

    #[test]
    fn inductance_means_fewer_repeaters_and_rc_designs_are_slower() {
        // The 30 mm wide global wire in 0.25 µm is strongly inductive: the
        // RLC optimum must use fewer sections than Bakoglu and the RC design
        // must pay a delay penalty on the true line (the paper's Fig. 4 /
        // Table 2 story, now per tree path).
        let tree = long_inductive_tree(2, 3);
        let report = evaluate_tree_repeaters(&tree, &technology()).unwrap();
        let worst = report.worst_sink();
        assert!(worst.rlc.sections < worst.rc.sections);
        assert!(report.worst_sink_delay_rc() >= report.worst_sink_delay_rlc());
        assert!(report.rc_design_penalty_percent() >= 0.0);
    }

    #[test]
    fn asymmetric_trees_report_the_long_path_as_worst() {
        let tech = technology();
        let mut tree = long_inductive_tree(2, 2);
        let stretched = tech.global_wire.line(Length::from_millimeters(45.0)).unwrap();
        let leaf = tree.sinks()[1];
        tree.branches[leaf].line = stretched;
        let report = evaluate_tree_repeaters(&tree, &tech).unwrap();
        assert_eq!(report.worst_sink().sink, leaf);
        assert!(report.worst_sink().path_length.meters() > 0.03);
    }

    #[test]
    fn single_path_tree_matches_the_uniform_line_machinery() {
        let tech = technology();
        let line = tech.global_wire.line(Length::from_millimeters(30.0)).unwrap();
        let mut tree = RoutingTree::new();
        tree.branches.push(rlckit_interconnect::RoutingBranch {
            parent: None,
            line,
            sink_capacitance: Capacitance::ZERO,
        });
        let report = evaluate_tree_repeaters(&tree, &tech).unwrap();
        let reference = RepeaterProblem::for_line(&line, &tech).unwrap().rlc_optimum();
        let got = report.worst_sink_delay_rlc().seconds();
        assert!((got - reference.total_delay.seconds()).abs() < 1e-18);
        let _ = DistributedLine::from_totals(
            line.total_resistance(),
            line.total_inductance(),
            line.total_capacitance(),
            line.length(),
        )
        .unwrap();
    }

    #[test]
    fn sink_free_trees_are_rejected() {
        let empty = RoutingTree::new();
        assert!(evaluate_tree_repeaters(&empty, &technology()).is_err());
    }
}
