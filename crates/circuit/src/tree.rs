//! Gate-driven RLC interconnect *trees*.
//!
//! The paper derives its delay and repeater results on uniform lines, but
//! real global nets branch: a clock spine feeds taps, a signal net fans out
//! to several receivers. A [`TreeSpec`] describes such a net as a list of
//! branches — each a uniform RLC segment chain hanging off its parent's far
//! end — driven by the usual gate abstraction (step source behind `Rtr`).
//!
//! Under *any* ordering the bandwidth of a tree-shaped MNA system grows with
//! the fan-out, but eliminating it leaf to root creates no fill, so the
//! sparse backend of [`crate::solve::factor_real`] keeps the factors `O(n)`.
//!
//! [`measure_tree_delays`] runs the transient analysis once and extracts the
//! 50% delay, rise time and overshoot at *every* sink, so callers get the
//! worst-sink delay and the skew across sinks from a single simulation.

use rlckit_numeric::solver::ResolvedBackend;
use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

use crate::error::{non_negative, positive, CircuitError};
use crate::ladder::{add_step_driver, SegmentStyle};
use crate::netlist::{Circuit, NodeId, SourceId};
use crate::transient::{
    measure_transient, path_crossing, suggested_step, StopRule, TransientOptions,
};

/// One uniform branch of an interconnect tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeBranch {
    /// Index of the parent branch this one hangs off (its near end attaches
    /// to the parent's far end), or `None` for a trunk branch starting at the
    /// driver output. Must be smaller than this branch's own index.
    pub parent: Option<usize>,
    /// Total branch resistance.
    pub total_resistance: Resistance,
    /// Total branch inductance.
    pub total_inductance: Inductance,
    /// Total branch capacitance.
    pub total_capacitance: Capacitance,
    /// Number of lumped segments approximating this branch.
    pub segments: usize,
    /// Receiver capacitance at the branch's far end (zero for pure junction
    /// branches).
    pub sink_capacitance: Capacitance,
}

/// Description of a CMOS gate driving a branching RLC net.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSpec {
    /// The branches, in topological order (every parent precedes its child).
    pub branches: Vec<TreeBranch>,
    /// Segment topology used for every branch.
    pub style: SegmentStyle,
    /// Driver equivalent output resistance `Rtr` (zero allowed).
    pub driver_resistance: Resistance,
    /// Step amplitude (the supply voltage).
    pub supply: Voltage,
}

impl TreeSpec {
    /// An empty tree with a 1 V supply and π segments; push branches onto
    /// [`TreeSpec::branches`].
    pub fn new(driver_resistance: Resistance) -> Self {
        Self {
            branches: Vec::new(),
            style: SegmentStyle::Pi,
            driver_resistance,
            supply: Voltage::from_volts(1.0),
        }
    }

    fn validate(&self) -> Result<(), CircuitError> {
        if self.branches.is_empty() {
            return Err(CircuitError::InvalidValue { what: "tree branch count", value: 0.0 });
        }
        positive(self.supply.volts(), "supply voltage")?;
        non_negative(self.driver_resistance.ohms(), "driver resistance")?;
        for (i, b) in self.branches.iter().enumerate() {
            if let Some(p) = b.parent {
                if p >= i {
                    return Err(CircuitError::InvalidValue {
                        what: "tree branch parent (must precede the branch)",
                        value: p as f64,
                    });
                }
            }
            positive(b.total_resistance.ohms(), "branch resistance")?;
            positive(b.total_inductance.henries(), "branch inductance")?;
            positive(b.total_capacitance.farads(), "branch capacitance")?;
            positive(b.segments as f64, "branch segment count")?;
            non_negative(b.sink_capacitance.farads(), "sink capacitance")?;
        }
        Ok(())
    }

    /// One flag per branch: `true` when some other branch hangs off it — the
    /// single source of truth for sink detection.
    fn has_child(&self) -> Vec<bool> {
        let mut has_child = vec![false; self.branches.len()];
        for b in &self.branches {
            if let Some(p) = b.parent {
                has_child[p] = true;
            }
        }
        has_child
    }

    /// The branch indices along the path from the root down to branch `i`
    /// (inclusive), in root-first order.
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

    /// Builds the step-driven tree circuit described by this specification.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for empty trees, out-of-order
    /// parent references or non-positive impedances (driver resistance and
    /// sink capacitances may be zero).
    pub fn build(&self) -> Result<TreeNet, CircuitError> {
        self.validate()?;
        let mut circuit = Circuit::new();
        let gnd = circuit.ground();
        let (source, root) = add_step_driver(&mut circuit, self.supply, self.driver_resistance)?;

        let mut branch_ends: Vec<NodeId> = Vec::with_capacity(self.branches.len());
        for branch in &self.branches {
            let start = match branch.parent {
                Some(p) => branch_ends[p],
                None => root,
            };
            let totals =
                (branch.total_resistance, branch.total_inductance, branch.total_capacitance);
            let prev = self.style.add_line(&mut circuit, start, branch.segments, totals)?;
            if branch.sink_capacitance.farads() > 0.0 {
                circuit.add_capacitor(prev, gnd, branch.sink_capacitance)?;
            }
            branch_ends.push(prev);
        }

        let has_child = self.has_child();
        let sinks = (0..self.branches.len())
            .filter(|&i| !has_child[i])
            .map(|i| TreeSink { branch: i, node: branch_ends[i] })
            .collect();

        Ok(TreeNet { circuit, source, sinks, spec: self.clone() })
    }

    /// Path totals (resistance, inductance, capacitance *of the path
    /// branches only*) from the root to the far end of branch `i`.
    pub(crate) fn path_totals(&self, i: usize) -> (Resistance, Inductance, Capacitance) {
        let mut r = Resistance::ZERO;
        let mut l = Inductance::ZERO;
        let mut c = Capacitance::ZERO;
        for &b in &self.path_from_root(i) {
            let branch = &self.branches[b];
            r += branch.total_resistance;
            l += branch.total_inductance;
            c += branch.total_capacitance;
        }
        (r, l, c)
    }

    /// The timestep of this tree's transient, by the one step rule of
    /// [`crate::transient`], from the earliest crossing of any sink. Each
    /// sink's crossing is `ln 2` × its Elmore delay over the whole tree (the
    /// driver and every resistance on its root path see all the
    /// capacitance downstream, side branches included) or its path's time
    /// of flight, whichever is larger. On an unbalanced tree that can be
    /// later than the real crossing of a sink near the root, so
    /// [`measure_tree_delays`] checks the step against its run.
    pub fn suggested_timestep(&self) -> Time {
        self.step_for(self.earliest_crossing())
    }

    /// The step rule's timestep for an earliest sink crossing at `crossing`
    /// seconds.
    fn step_for(&self, crossing: f64) -> Time {
        let segments = self.branches.iter().map(|b| {
            let (r, l) = (b.total_resistance.ohms(), b.total_inductance.henries());
            (r / (2.0 * l), (l * b.total_capacitance.farads()).sqrt() / b.segments as f64)
        });
        Time::from_seconds(suggested_step(self.suggested_stop_time().seconds(), crossing, segments))
    }

    /// The estimated earliest 50 % crossing over all sinks, in seconds
    /// ([`path_crossing`] along each root path, with every side subtree's
    /// capacitance hanging where it branches off).
    fn earliest_crossing(&self) -> f64 {
        // The capacitance of each branch's subtree (line and sinks), of what
        // hangs at its far end, and of the trunks at the driver, leaves first.
        let c = |b: &TreeBranch| b.total_capacitance.farads();
        let mut far_end_c: Vec<f64> =
            self.branches.iter().map(|b| b.sink_capacitance.farads()).collect();
        let mut subtree_c: Vec<f64> = self.branches.iter().map(c).collect();
        let mut trunks_c = 0.0;
        for (i, b) in self.branches.iter().enumerate().rev() {
            subtree_c[i] += far_end_c[i];
            match b.parent {
                Some(p) => far_end_c[p] += subtree_c[i],
                None => trunks_c += subtree_c[i],
            }
        }
        let driver = self.driver_resistance.ohms();
        let has_child = self.has_child();
        (0..self.branches.len())
            .filter(|&i| !has_child[i])
            .map(|i| {
                let path = self.path_from_root(i);
                // Each path branch carries at its far end all but the next
                // path branch's subtree.
                let elements = path.iter().enumerate().rev().map(|(k, &b)| {
                    let next_c = path.get(k + 1).map_or(0.0, |&n| subtree_c[n]);
                    let branch = &self.branches[b];
                    let (r, l) =
                        (branch.total_resistance.ohms(), branch.total_inductance.henries());
                    (r, l, c(branch), far_end_c[b] - next_c)
                });
                let driver = (driver, 0.0, 0.0, trunks_c - subtree_c[path[0]]);
                path_crossing(elements.chain([driver]))
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// A stop time long enough for every sink to cross 50% in every damping
    /// regime: several RC constants plus several round trips of the slowest
    /// root-to-sink path, with the total tree capacitance behind the driver.
    pub fn suggested_stop_time(&self) -> Time {
        let total_cap: f64 = self
            .branches
            .iter()
            .map(|b| b.total_capacitance.farads() + b.sink_capacitance.farads())
            .sum();
        let has_child = self.has_child();
        let mut worst = 0.0f64;
        for (i, _) in has_child.iter().enumerate().filter(|&(_, &parent)| !parent) {
            let (r, l, c) = self.path_totals(i);
            let ct = c.farads() + self.branches[i].sink_capacitance.farads();
            let rc = (r.ohms() + self.driver_resistance.ohms()) * total_cap.max(ct);
            let tof = (l.henries() * ct).sqrt();
            worst = worst.max(4.0 * rc + 10.0 * tof);
        }
        Time::from_seconds(worst)
    }
}

/// One sink (leaf far-end) of a built tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSink {
    /// Index of the leaf branch.
    pub branch: usize,
    /// The sink node in the netlist.
    pub node: NodeId,
}

/// A built tree circuit plus its interesting nodes.
#[derive(Debug, Clone)]
pub struct TreeNet {
    /// The assembled netlist.
    pub circuit: Circuit,
    /// The step source driving the tree.
    pub source: SourceId,
    /// The sinks (far ends of leaf branches).
    pub sinks: Vec<TreeSink>,
    spec: TreeSpec,
}

impl TreeNet {
    /// The specification this tree was built from.
    pub(crate) fn spec(&self) -> &TreeSpec {
        &self.spec
    }
}

/// Timing measurements at one sink of a simulated tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkMeasurement {
    /// Index of the leaf branch this sink terminates.
    pub branch: usize,
    /// 50% propagation delay at this sink.
    pub delay_50: Time,
    /// 10%–90% rise time at this sink.
    pub rise_time: Time,
    /// Overshoot above the supply at this sink, in per cent.
    pub overshoot_percent: f64,
}

/// Per-sink timing of one transient run over a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDelayReport {
    /// One measurement per sink, in leaf-branch order.
    pub sinks: Vec<SinkMeasurement>,
    /// Which solver kernel factorised the system.
    pub backend: ResolvedBackend,
}

impl TreeDelayReport {
    /// The sink with the largest 50% delay — the delay that matters for the
    /// net.
    ///
    /// # Panics
    ///
    /// Never panics on a report from [`measure_tree_delays`], which always
    /// measures at least one sink.
    pub fn worst_sink(&self) -> &SinkMeasurement {
        self.sinks
            .iter()
            .max_by(|a, b| a.delay_50.seconds().total_cmp(&b.delay_50.seconds()))
            .expect("a measured tree has at least one sink")
    }

    /// Skew between the slowest and fastest sink.
    pub fn sink_spread(&self) -> Time {
        let max = self.sinks.iter().map(|s| s.delay_50.seconds()).fold(f64::MIN, f64::max);
        let min = self.sinks.iter().map(|s| s.delay_50.seconds()).fold(f64::MAX, f64::min);
        Time::from_seconds(max - min)
    }

    /// The largest overshoot over all sinks, in per cent.
    pub fn worst_overshoot_percent(&self) -> f64 {
        self.sinks.iter().map(|s| s.overshoot_percent).fold(0.0, f64::max)
    }
}

/// The fewest steps to the earliest sink crossing that
/// [`measure_tree_delays`] accepts without checking it at half the step;
/// the step rule aims at ~500.
const CROSSING_STEPS_CHECKED: f64 = 400.0;

/// The largest relative change of the earliest sink's crossing between the
/// step and half of it that [`measure_tree_delays`] accepts without a rerun:
/// a tenth of the 1e-4 that a grown step keeps on the ladders.
const HALF_STEP_AGREEMENT: f64 = 1e-5;

/// Builds, simulates and measures a step-driven tree in one call.
///
/// One transient run, recording only the sinks, covers every sink; if some
/// sink has not crossed 50% by the suggested horizon the run is extended
/// ([`measure_transient`]). It ends once every sink has crossed 90% and the
/// slowest branch mode (`e^{−R/(2L)·t}`) has rung down to 1e-3, which
/// leaves delays and rise times bit for bit those of a run to the horizon
/// (the [`crate::transient`] docs, "Where a run ends"). The step comes from
/// an estimate of the earliest sink crossing
/// ([`TreeSpec::suggested_timestep`]). If the earliest sink crossed in fewer
/// than ~400 steps and the measured crossing asks for a finer step, a run
/// at half the step that stops at that sink's 50% crossing checks it; if
/// the two crossings differ by more than 1e-5, the tree is run once more at
/// the step of the measured crossing.
///
/// # Errors
///
/// Propagates construction/analysis errors, or [`CircuitError::Measurement`]
/// if some sink never crosses 50% even after extending the horizon.
pub fn measure_tree_delays(spec: &TreeSpec) -> Result<TreeDelayReport, CircuitError> {
    let net = spec.build()?;
    let probes: Vec<NodeId> = net.sinks.iter().map(|sink| sink.node).collect();
    let supply = spec.supply.volts();
    let ring_down = spec
        .branches
        .iter()
        .map(|b| b.total_resistance.ohms() / (2.0 * b.total_inductance.henries()))
        .fold(f64::INFINITY, f64::min);
    let stop = StopRule::rising(0.9 * supply).and_ring_down(ring_down);
    let options = |step: Time| TransientOptions::new(spec.suggested_stop_time(), step);
    let run = |step: Time| {
        measure_transient(&net.circuit, &probes, &options(step), Some(stop), |result| {
            Ok(TreeDelayReport { sinks: measure_sinks(&net, result)?, backend: result.backend() })
        })
    };
    let step = spec.suggested_timestep();
    let report = run(step)?;
    let (earliest, sink) = report
        .sinks
        .iter()
        .zip(&net.sinks)
        .map(|(measured, sink)| (measured.delay_50.seconds(), sink.node))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("a built tree has at least one sink");
    let measured_step = spec.step_for(earliest);
    if earliest >= CROSSING_STEPS_CHECKED * step.seconds() || measured_step >= step {
        return Ok(report);
    }
    let at_crossing = Some(StopRule::rising(0.5 * supply));
    let checked =
        measure_transient(&net.circuit, &[sink], &options(step / 2.0), at_crossing, |r| {
            r.node_voltage(sink).delay_50(spec.supply)
        })?;
    if (earliest - checked.seconds()).abs() <= HALF_STEP_AGREEMENT * earliest {
        Ok(report)
    } else {
        run(measured_step)
    }
}

fn measure_sinks(
    net: &TreeNet,
    result: &crate::transient::TransientResult,
) -> Result<Vec<SinkMeasurement>, CircuitError> {
    let supply = net.spec().supply;
    let mut out = Vec::with_capacity(net.sinks.len());
    for sink in &net.sinks {
        let wave = result.node_voltage(sink.node);
        out.push(SinkMeasurement {
            branch: sink.branch,
            delay_50: wave.delay_50(supply)?,
            rise_time: wave.rise_time(supply)?,
            overshoot_percent: wave.overshoot_percent(supply),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{measure_step_delay, LadderSpec};

    fn branch(parent: Option<usize>, scale: f64, sink_ff: f64) -> TreeBranch {
        TreeBranch {
            parent,
            total_resistance: Resistance::from_ohms(250.0 * scale),
            total_inductance: Inductance::from_nanohenries(5.0 * scale),
            total_capacitance: Capacitance::from_picofarads(0.5 * scale),
            segments: 10,
            sink_capacitance: Capacitance::from_femtofarads(sink_ff),
        }
    }

    /// Trunk + two symmetric leaves.
    fn y_tree() -> TreeSpec {
        let mut spec = TreeSpec::new(Resistance::from_ohms(250.0));
        spec.branches.push(branch(None, 1.0, 0.0));
        spec.branches.push(branch(Some(0), 0.5, 50.0));
        spec.branches.push(branch(Some(0), 0.5, 50.0));
        spec
    }

    #[test]
    fn build_wires_branches_to_their_parents() {
        let spec = y_tree();
        let net = spec.build().unwrap();
        assert_eq!(net.sinks.len(), 2);
        assert!(net.sinks.iter().all(|s| s.branch != 0), "the trunk is not a sink");
        assert_eq!(net.spec(), &spec);
        // π style: per segment 1 R + 1 L + 2 C, plus source, driver R and two
        // sink capacitors.
        assert_eq!(
            net.circuit.elements().len(),
            1 + 1 + spec.branches.iter().map(|b| b.segments).sum::<usize>() * 4 + 2
        );
    }

    #[test]
    fn invalid_trees_are_rejected() {
        let empty = TreeSpec::new(Resistance::from_ohms(100.0));
        assert!(empty.build().is_err());

        let mut forward_parent = y_tree();
        forward_parent.branches[0].parent = Some(2);
        assert!(forward_parent.build().is_err());

        let mut bad_r = y_tree();
        bad_r.branches[1].total_resistance = Resistance::ZERO;
        assert!(bad_r.build().is_err());

        let mut bad_segments = y_tree();
        bad_segments.branches[2].segments = 0;
        assert!(bad_segments.build().is_err());

        let mut bad_sink = y_tree();
        bad_sink.branches[1].sink_capacitance = Capacitance::from_farads(f64::NAN);
        assert!(bad_sink.build().is_err());
    }

    #[test]
    fn paths_and_totals_follow_the_topology() {
        let spec = y_tree();
        assert_eq!(spec.path_from_root(2), vec![0, 2]);
        let (r, l, c) = spec.path_totals(1);
        assert!((r.ohms() - 375.0).abs() < 1e-9);
        assert!((l.henries() - 7.5e-9).abs() < 1e-20);
        assert!((c.farads() - 0.75e-12).abs() < 1e-24);
    }

    #[test]
    fn symmetric_sinks_see_identical_delay() {
        let report = measure_tree_delays(&y_tree()).unwrap();
        assert_eq!(report.sinks.len(), 2);
        let d1 = report.sinks[0].delay_50.seconds();
        let d2 = report.sinks[1].delay_50.seconds();
        assert!((d1 - d2).abs() < 1e-4 * d1.max(d2), "symmetric sinks must match: {d1} vs {d2}");
        assert!(report.sink_spread().seconds() < 1e-4 * d1);
        assert!(report.worst_sink().delay_50.seconds() > 0.0);
    }

    #[test]
    fn asymmetric_tree_reports_the_long_path_as_worst() {
        let mut spec = y_tree();
        // Make branch 2 four times longer: its sink must be the worst.
        spec.branches[2] = branch(Some(0), 2.0, 50.0);
        let report = measure_tree_delays(&spec).unwrap();
        assert_eq!(report.worst_sink().branch, 2);
        assert!(report.sink_spread().seconds() > 0.0);
        assert!(report.worst_overshoot_percent() >= 0.0);
    }

    #[test]
    fn single_branch_tree_matches_the_equivalent_ladder() {
        // A tree with one branch is exactly a ladder; the two builders must
        // produce the same 50% delay.
        let mut spec = TreeSpec::new(Resistance::from_ohms(250.0));
        spec.branches.push(TreeBranch {
            parent: None,
            total_resistance: Resistance::from_ohms(500.0),
            total_inductance: Inductance::from_nanohenries(10.0),
            total_capacitance: Capacitance::from_picofarads(1.0),
            segments: 40,
            sink_capacitance: Capacitance::from_picofarads(0.1),
        });
        let tree = measure_tree_delays(&spec).unwrap();

        let ladder = LadderSpec::new(
            Resistance::from_ohms(500.0),
            Inductance::from_nanohenries(10.0),
            Capacitance::from_picofarads(1.0),
            Resistance::from_ohms(250.0),
            Capacitance::from_picofarads(0.1),
        );
        let reference = measure_step_delay(&ladder).unwrap();

        let tree_delay = tree.worst_sink().delay_50.seconds();
        let ladder_delay = reference.delay_50.seconds();
        let err = (tree_delay - ladder_delay).abs() / ladder_delay;
        assert!(err < 0.02, "tree {tree_delay} vs ladder {ladder_delay}, err {err}");
    }

    #[test]
    fn wide_trees_resolve_to_the_sparse_backend() {
        // A flat 24-way fan-out: Auto must route it to the sparse kernel.
        let mut spec = TreeSpec::new(Resistance::from_ohms(100.0));
        spec.branches.push(branch(None, 1.0, 0.0));
        for _ in 0..24 {
            spec.branches.push(branch(Some(0), 0.5, 20.0));
        }
        let report = measure_tree_delays(&spec).unwrap();
        assert_eq!(report.backend, ResolvedBackend::Sparse);
        assert_eq!(report.sinks.len(), 24);
    }
}
