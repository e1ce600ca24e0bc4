//! Routing trees: branching interconnect built from physical lines.
//!
//! A [`RoutingTree`] is the physical-layer description of a branching global
//! net: every branch is a [`DistributedLine`] (per-unit-length `R`, `L`, `C`
//! and a length) hanging off its parent's far end, with an optional receiver
//! capacitance at the branch tip. It lowers to the circuit layer's
//! [`TreeSpec`] for dynamic simulation and summarises root-to-sink paths as
//! equivalent uniform lines for the closed-form repeater machinery.

use rlckit_circuit::tree::{TreeBranch, TreeSpec};
use rlckit_units::{Capacitance, Inductance, Length, Resistance, Voltage};

use crate::error::InterconnectError;
use crate::line::DistributedLine;

/// One branch of a routing tree: a physical line plus its attachment point
/// and tip load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingBranch {
    /// Index of the parent branch, or `None` for a trunk branch at the
    /// driver output. Must be smaller than this branch's own index.
    pub parent: Option<usize>,
    /// The physical line of this branch.
    pub line: DistributedLine,
    /// Receiver capacitance at the branch tip (zero for junctions).
    pub sink_capacitance: Capacitance,
}

/// A branching net of distributed RLC lines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoutingTree {
    /// The branches, in topological order (every parent precedes its child).
    pub branches: Vec<RoutingBranch>,
}

impl RoutingTree {
    /// An empty tree; push branches onto [`RoutingTree::branches`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a symmetric tree: `levels` levels of branches, each non-leaf
    /// branch fanning out into `fanout` children, every branch carrying the
    /// per-unit-length parasitics of `path` over `path.length() / levels` —
    /// so every root-to-sink path is electrically identical to `path` — and
    /// every sink loaded by `sink_capacitance`.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] if `levels` or
    /// `fanout` is zero, if the resulting branch count would exceed 100 000,
    /// or if `sink_capacitance` is negative or not finite.
    pub fn symmetric(
        path: &DistributedLine,
        levels: usize,
        fanout: usize,
        sink_capacitance: Capacitance,
    ) -> Result<Self, InterconnectError> {
        if levels == 0 {
            return Err(InterconnectError::InvalidParameter { what: "tree levels", value: 0.0 });
        }
        if fanout == 0 {
            return Err(InterconnectError::InvalidParameter { what: "tree fanout", value: 0.0 });
        }
        if !(sink_capacitance.farads() >= 0.0) || !sink_capacitance.farads().is_finite() {
            return Err(InterconnectError::InvalidParameter {
                what: "sink capacitance",
                value: sink_capacitance.farads(),
            });
        }
        // Branch count: 1 + f + f² + … + f^(levels-1).
        let mut count = 0usize;
        let mut level_size = 1usize;
        for _ in 0..levels {
            count = count.checked_add(level_size).filter(|&c| c <= 100_000).ok_or(
                InterconnectError::InvalidParameter {
                    what: "tree branch count (levels/fanout too large)",
                    value: f64::INFINITY,
                },
            )?;
            level_size = level_size.saturating_mul(fanout);
        }
        let segment = path.with_length(path.length() / levels as f64)?;
        let mut tree = Self::new();
        // Parents of the previous level, used to attach the next one.
        let mut previous: Vec<Option<usize>> = vec![None];
        for level in 0..levels {
            let is_leaf_level = level + 1 == levels;
            let mut current = Vec::with_capacity(previous.len() * fanout.max(1));
            for &parent in &previous {
                let children = if level == 0 { 1 } else { fanout };
                for _ in 0..children {
                    let index = tree.branches.len();
                    tree.branches.push(RoutingBranch {
                        parent,
                        line: segment,
                        sink_capacitance: if is_leaf_level {
                            sink_capacitance
                        } else {
                            Capacitance::ZERO
                        },
                    });
                    current.push(Some(index));
                }
            }
            previous = current;
        }
        Ok(tree)
    }

    /// Number of branches.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Returns `true` if the tree has no branches.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Indices of the leaf (sink) branches (one `O(branches)` pass).
    pub fn sinks(&self) -> Vec<usize> {
        let mut has_child = vec![false; self.branches.len()];
        for b in &self.branches {
            if let Some(p) = b.parent {
                has_child[p] = true;
            }
        }
        (0..self.branches.len()).filter(|&i| !has_child[i]).collect()
    }

    /// The branch indices from the root to branch `i` (inclusive),
    /// root-first.
    pub(crate) fn path_from_root(&self, i: usize) -> Vec<usize> {
        let mut path = vec![i];
        let mut cur = i;
        while let Some(p) = self.branches[cur].parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Length of the root-to-tip path of branch `i`.
    pub fn path_length(&self, i: usize) -> Length {
        self.path_from_root(i).iter().map(|&b| self.branches[b].line.length()).sum()
    }

    /// Summarises the root-to-tip path of branch `i` as an equivalent
    /// uniform line: summed totals distributed over the summed length.
    ///
    /// This is the per-path abstraction behind tree-aware repeater insertion:
    /// each root-to-sink path is treated as the uniform line the paper's
    /// closed forms apply to.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] only for degenerate
    /// trees (it cannot fail on branches built from valid lines).
    pub fn path_line(&self, i: usize) -> Result<DistributedLine, InterconnectError> {
        let path = self.path_from_root(i);
        let mut r = Resistance::ZERO;
        let mut l = Inductance::ZERO;
        let mut c = Capacitance::ZERO;
        let mut len = Length::ZERO;
        for &b in &path {
            let line = &self.branches[b].line;
            r += line.total_resistance();
            l += line.total_inductance();
            c += line.total_capacitance();
            len += line.length();
        }
        DistributedLine::from_totals(r, l, c, len)
    }

    /// Total wire length over all branches.
    pub fn total_length(&self) -> Length {
        self.branches.iter().map(|b| b.line.length()).sum()
    }

    /// Lowers the tree to the circuit layer's [`TreeSpec`] for dynamic
    /// simulation.
    ///
    /// Each branch gets at least `min_segments_per_branch` lumped segments,
    /// scaled up proportionally to its length so long branches stay finely
    /// discretised.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] for an empty tree or
    /// zero `min_segments_per_branch`.
    pub fn to_tree_spec(
        &self,
        driver_resistance: Resistance,
        supply: Voltage,
        min_segments_per_branch: usize,
    ) -> Result<TreeSpec, InterconnectError> {
        if self.is_empty() {
            return Err(InterconnectError::InvalidParameter {
                what: "tree branch count",
                value: 0.0,
            });
        }
        if min_segments_per_branch == 0 {
            return Err(InterconnectError::InvalidParameter {
                what: "segments per branch",
                value: 0.0,
            });
        }
        let shortest =
            self.branches.iter().map(|b| b.line.length().meters()).fold(f64::INFINITY, f64::min);
        let mut spec = TreeSpec::new(driver_resistance);
        spec.supply = supply;
        for b in &self.branches {
            let scale = (b.line.length().meters() / shortest).round().max(1.0) as usize;
            spec.branches.push(TreeBranch {
                parent: b.parent,
                total_resistance: b.line.total_resistance(),
                total_inductance: b.line.total_inductance(),
                total_capacitance: b.line.total_capacitance(),
                segments: min_segments_per_branch * scale,
                sink_capacitance: b.sink_capacitance,
            });
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::{CapacitancePerLength, InductancePerLength, ResistancePerLength};

    fn path() -> DistributedLine {
        DistributedLine::new(
            ResistancePerLength::from_ohms_per_millimeter(50.0),
            InductancePerLength::from_nanohenries_per_millimeter(1.0),
            CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
            Length::from_millimeters(10.0),
        )
        .unwrap()
    }

    #[test]
    fn symmetric_tree_has_the_expected_shape() {
        let tree =
            RoutingTree::symmetric(&path(), 3, 2, Capacitance::from_femtofarads(20.0)).unwrap();
        // 1 trunk + 2 + 4 = 7 branches, 4 sinks.
        assert_eq!(tree.len(), 7);
        assert_eq!(tree.sinks().len(), 4);
        assert!(!tree.is_empty());
        // Every root-to-sink path is electrically the template line.
        for sink in tree.sinks() {
            let p = tree.path_line(sink).unwrap();
            assert!((p.length().meters() - 0.01).abs() < 1e-12);
            assert!((p.total_resistance().ohms() - 500.0).abs() < 1e-9);
        }
        // Sinks carry the load, junctions do not.
        assert_eq!(tree.branches[0].sink_capacitance, Capacitance::ZERO);
        let sink = tree.sinks()[0];
        assert!((tree.branches[sink].sink_capacitance.farads() - 20e-15).abs() < 1e-24);
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let c = Capacitance::ZERO;
        assert!(RoutingTree::symmetric(&path(), 0, 2, c).is_err());
        assert!(RoutingTree::symmetric(&path(), 3, 0, c).is_err());
        assert!(RoutingTree::symmetric(&path(), 3, 2, Capacitance::from_farads(-1.0)).is_err());
        assert!(RoutingTree::symmetric(&path(), 30, 10, c).is_err(), "cap the branch count");
        let empty = RoutingTree::new();
        assert!(empty.to_tree_spec(Resistance::ZERO, Voltage::from_volts(1.0), 4).is_err());
    }

    #[test]
    fn path_summaries_accumulate_down_the_tree() {
        let tree = RoutingTree::symmetric(&path(), 2, 3, Capacitance::ZERO).unwrap();
        assert_eq!(tree.path_from_root(3), vec![0, 3]);
        assert!((tree.path_length(3).meters() - 0.01).abs() < 1e-12);
        assert!((tree.total_length().meters() - 4.0 * 0.005).abs() < 1e-12);
    }

    #[test]
    fn lowering_preserves_topology_and_scales_segments() {
        let mut tree =
            RoutingTree::symmetric(&path(), 2, 2, Capacitance::from_femtofarads(10.0)).unwrap();
        // Stretch one leaf so it gets proportionally more segments.
        let long = tree.branches[2].line.with_length(Length::from_millimeters(15.0)).unwrap();
        tree.branches[2].line = long;
        let spec =
            tree.to_tree_spec(Resistance::from_ohms(100.0), Voltage::from_volts(1.8), 4).unwrap();
        assert_eq!(spec.branches.len(), 3);
        assert_eq!(spec.branches[1].parent, Some(0));
        assert_eq!(spec.branches[1].segments, 4);
        assert_eq!(spec.branches[2].segments, 12, "3x longer branch gets 3x the segments");
        assert!((spec.supply.volts() - 1.8).abs() < 1e-12);
        // The lowered tree simulates (smoke check through the circuit layer).
        let report = rlckit_circuit::tree::measure_tree_delays(&spec).unwrap();
        assert_eq!(report.sinks.len(), 2);
        assert_eq!(report.worst_sink().branch, 2);
    }
}
