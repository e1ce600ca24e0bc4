//! Gate-driven RC(L) *meshes* — power-grid / clock-mesh style workloads.
//!
//! Trees factor with no fill; meshes are where the sparse kernel earns its
//! keep. A regular grid has no leaf to eliminate: every fill-reducing order
//! must pay genuine fill (`Θ(n log n)` factor
//! entries under nested-dissection-quality orderings on an `√n × √n` grid),
//! so a mesh exercises exactly the part of the sparse kernel that trees
//! leave cold — the approximate-minimum-degree ordering quality and the
//! cost of refactoring a filled pattern. That makes [`MeshSpec`] the
//! scaling workload for the 10⁵–10⁶-unknown regime of power grids and
//! clock meshes, 100–1000× beyond the routing-tree sizes.
//!
//! A [`MeshSpec`] describes a `rows × cols` grid of nodes, each with a
//! capacitance to ground, joined to its right/down neighbours by uniform
//! segments (resistive, or R+L when a segment inductance is given), driven
//! by the usual gate abstraction (step source behind `Rtr`) at the
//! near corner and measured at the far corner — the worst-case load point.
//!
//! [`measure_mesh_delay`] runs one transient and extracts the far-corner
//! 50% delay, rise time and overshoot, mirroring
//! [`crate::tree::measure_tree_delays`].

use std::f64::consts::LN_2;

use rlckit_numeric::solver::ResolvedBackend;
use rlckit_units::{Capacitance, Inductance, Resistance, Time, Voltage};

use crate::error::{non_negative, positive, CircuitError};
use crate::ladder::add_step_driver;
use crate::netlist::{Circuit, NodeId, SourceId};
use crate::transient::{measure_transient, suggested_step, TransientOptions};

/// Description of a CMOS gate driving a regular RC(L) mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Number of grid rows (≥ 1).
    pub rows: usize,
    /// Number of grid columns (≥ 1, with `rows·cols ≥ 2`).
    pub cols: usize,
    /// Resistance of every horizontal/vertical segment between neighbours.
    pub segment_resistance: Resistance,
    /// Series inductance of every segment; zero gives a pure RC mesh with no
    /// branch unknowns, a positive value adds one internal node and one
    /// inductor branch per segment.
    pub segment_inductance: Inductance,
    /// Capacitance to ground at every grid node.
    pub node_capacitance: Capacitance,
    /// Driver equivalent output resistance `Rtr` (zero allowed: the source
    /// pad then *is* the near corner).
    pub driver_resistance: Resistance,
    /// Extra load capacitance at the far corner (zero allowed).
    pub load_capacitance: Capacitance,
    /// Step amplitude (the supply voltage).
    pub supply: Voltage,
}

impl MeshSpec {
    fn validate(&self) -> Result<(), CircuitError> {
        if self.rows == 0 || self.cols == 0 || self.rows * self.cols < 2 {
            return Err(CircuitError::InvalidValue {
                what: "mesh dimensions (rows·cols must be at least 2)",
                value: (self.rows * self.cols) as f64,
            });
        }
        positive(self.segment_resistance.ohms(), "mesh segment resistance")?;
        positive(self.node_capacitance.farads(), "mesh node capacitance")?;
        positive(self.supply.volts(), "supply voltage")?;
        non_negative(self.segment_inductance.henries(), "mesh segment inductance")?;
        non_negative(self.driver_resistance.ohms(), "driver resistance")?;
        non_negative(self.load_capacitance.farads(), "load capacitance")
    }

    /// Number of segments (edges) in the grid.
    pub(crate) fn segment_count(&self) -> usize {
        self.rows * (self.cols - 1) + (self.rows - 1) * self.cols
    }

    /// Number of MNA unknowns the built circuit will have: grid nodes, the
    /// source pad (when a driver resistance separates it from the grid), the
    /// source branch, and — in the inductive variant — one internal node and
    /// one branch current per segment.
    pub fn unknown_count(&self) -> usize {
        let pad = usize::from(self.driver_resistance.ohms() > 0.0);
        let per_segment =
            if self.segment_inductance.henries() > 0.0 { 2 * self.segment_count() } else { 0 };
        self.rows * self.cols + pad + 1 + per_segment
    }

    /// Builds the step-driven mesh circuit described by this specification.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for degenerate grids or
    /// non-positive segment values (driver resistance, segment inductance
    /// and load capacitance may be zero).
    pub fn build(&self) -> Result<MeshNet, CircuitError> {
        self.validate()?;
        let mut circuit = Circuit::new();
        let gnd = circuit.ground();
        let (source, near) = add_step_driver(&mut circuit, self.supply, self.driver_resistance)?;

        let mut nodes: Vec<NodeId> = Vec::with_capacity(self.rows * self.cols);
        nodes.push(near);
        for _ in 1..self.rows * self.cols {
            nodes.push(circuit.add_node());
        }
        for &node in &nodes {
            circuit.add_capacitor(node, gnd, self.node_capacitance)?;
        }

        let inductive = self.segment_inductance.henries() > 0.0;
        let connect = |circuit: &mut Circuit, a: NodeId, b: NodeId| -> Result<(), CircuitError> {
            if inductive {
                let mid = circuit.add_node();
                circuit.add_resistor(a, mid, self.segment_resistance)?;
                circuit.add_inductor(mid, b, self.segment_inductance)?;
            } else {
                circuit.add_resistor(a, b, self.segment_resistance)?;
            }
            Ok(())
        };
        for r in 0..self.rows {
            for c in 0..self.cols {
                let here = nodes[r * self.cols + c];
                if c + 1 < self.cols {
                    connect(&mut circuit, here, nodes[r * self.cols + c + 1])?;
                }
                if r + 1 < self.rows {
                    connect(&mut circuit, here, nodes[(r + 1) * self.cols + c])?;
                }
            }
        }

        let far = nodes[self.rows * self.cols - 1];
        if self.load_capacitance.farads() > 0.0 {
            circuit.add_capacitor(far, gnd, self.load_capacitance)?;
        }

        Ok(MeshNet { circuit, source, near, far, nodes })
    }

    /// The timestep of this mesh's transient, by the one step rule of
    /// [`crate::transient`]. The earliest crossing takes the driver's share
    /// of the Elmore delay and the straight-line time of flight to the far
    /// corner, both lower bounds.
    pub fn suggested_timestep(&self) -> Time {
        let (r, l) = (self.segment_resistance.ohms(), self.segment_inductance.henries());
        let c = self.node_capacitance.farads();
        let total_c = (self.rows * self.cols) as f64 * c + self.load_capacitance.farads();
        let hops = ((self.rows - 1) as f64).hypot((self.cols - 1) as f64);
        let crossing = (hops * (l * c).sqrt()).max(LN_2 * self.driver_resistance.ohms() * total_c);
        let segments = (l > 0.0).then(|| (r / (2.0 * l), (l * c).sqrt()));
        Time::from_seconds(suggested_step(self.suggested_stop_time().seconds(), crossing, segments))
    }

    /// A stop time long enough for the far corner to cross 50%: several RC
    /// constants of the worst series path (driver plus the Manhattan
    /// distance of segments — a deliberate overestimate, since the mesh's
    /// parallel paths only lower the effective resistance) charging the
    /// whole grid capacitance.
    pub fn suggested_stop_time(&self) -> Time {
        let manhattan = (self.rows - 1) + (self.cols - 1);
        let path_r =
            self.driver_resistance.ohms() + manhattan as f64 * self.segment_resistance.ohms();
        let total_c = self.rows as f64 * self.cols as f64 * self.node_capacitance.farads()
            + self.load_capacitance.farads();
        let tof = (manhattan as f64
            * self.segment_inductance.henries()
            * total_c.max(self.node_capacitance.farads()))
        .sqrt();
        Time::from_seconds(4.0 * path_r * total_c + 10.0 * tof)
    }
}

/// A built mesh circuit plus its interesting nodes.
#[derive(Debug, Clone)]
pub struct MeshNet {
    /// The assembled netlist.
    pub circuit: Circuit,
    /// The step source driving the mesh.
    pub source: SourceId,
    /// The near corner (grid node (0, 0), after the driver resistance).
    pub near: NodeId,
    /// The far corner (grid node (rows−1, cols−1)) — the measured load point.
    pub far: NodeId,
    /// Every grid node in row-major order (`nodes[r·cols + c]`).
    pub nodes: Vec<NodeId>,
}

/// Far-corner timing of one transient run over a mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshDelayReport {
    /// 50% propagation delay at the far corner.
    pub delay_50: Time,
    /// 10%–90% rise time at the far corner.
    pub rise_time: Time,
    /// Overshoot above the supply at the far corner, in per cent.
    pub overshoot_percent: f64,
    /// Which solver kernel factorised the system.
    pub backend: ResolvedBackend,
}

/// Builds, simulates and measures a step-driven mesh in one call.
///
/// Only the far corner is recorded. If it has not crossed 50% by the
/// suggested horizon the run is extended ([`measure_transient`]), like the
/// tree workload. Unlike the other workloads, the run always goes on to
/// its horizon.
///
/// # Errors
///
/// Propagates construction/analysis errors, or [`CircuitError::Measurement`]
/// if the far corner never crosses 50% even after extending the horizon.
pub fn measure_mesh_delay(spec: &MeshSpec) -> Result<MeshDelayReport, CircuitError> {
    let net = spec.build()?;
    let options = TransientOptions::new(spec.suggested_stop_time(), spec.suggested_timestep());
    measure_transient(&net.circuit, &[net.far], &options, None, |result| {
        let wave = result.node_voltage(net.far);
        Ok(MeshDelayReport {
            delay_50: wave.delay_50(spec.supply)?,
            rise_time: wave.rise_time(spec.supply)?,
            overshoot_percent: wave.overshoot_percent(spec.supply),
            backend: result.backend(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::{measure_step_delay, LadderSpec};
    use crate::transient::run_transient;

    fn small_mesh(rows: usize, cols: usize) -> MeshSpec {
        MeshSpec {
            rows,
            cols,
            segment_resistance: Resistance::from_ohms(5.0),
            segment_inductance: Inductance::ZERO,
            node_capacitance: Capacitance::from_femtofarads(20.0),
            driver_resistance: Resistance::from_ohms(100.0),
            load_capacitance: Capacitance::ZERO,
            supply: Voltage::from_volts(1.0),
        }
    }

    #[test]
    fn build_wires_the_grid() {
        let spec = small_mesh(4, 5);
        let net = spec.build().unwrap();
        assert_eq!(net.nodes.len(), 20);
        assert_eq!(spec.segment_count(), 4 * 4 + 3 * 5);
        assert_eq!(net.nodes[0], net.near);
        assert_eq!(net.nodes[3 * 5 + 4], net.far);
        // Elements: source + driver R + one C per node + one R per segment.
        assert_eq!(net.circuit.elements().len(), 2 + 20 + spec.segment_count());
        // dim = 20 grid nodes + pad + source branch.
        let mna = crate::mna::MnaSystem::build(&net.circuit).unwrap();
        assert_eq!(mna.dim(), spec.unknown_count());
    }

    #[test]
    fn inductive_mesh_counts_branch_unknowns() {
        let mut spec = small_mesh(3, 3);
        spec.segment_inductance = Inductance::from_henries(10.0e-12);
        let net = spec.build().unwrap();
        let mna = crate::mna::MnaSystem::build(&net.circuit).unwrap();
        assert_eq!(mna.dim(), spec.unknown_count());
    }

    #[test]
    fn invalid_meshes_are_rejected() {
        assert!(small_mesh(1, 1).build().is_err());
        assert!(small_mesh(0, 5).build().is_err());
        let mut bad_r = small_mesh(3, 3);
        bad_r.segment_resistance = Resistance::ZERO;
        assert!(bad_r.build().is_err());
        let mut bad_c = small_mesh(3, 3);
        bad_c.node_capacitance = Capacitance::from_farads(f64::NAN);
        assert!(bad_c.build().is_err());
        let mut bad_l = small_mesh(3, 3);
        bad_l.segment_inductance = Inductance::from_henries(-1.0);
        assert!(bad_l.build().is_err());
    }

    #[test]
    fn one_by_n_mesh_matches_the_equivalent_rc_ladder() {
        // A 1×n mesh is a distributed RC line; compare against the ladder
        // builder with negligible inductance.
        let n = 20;
        let mut spec = small_mesh(1, n);
        spec.load_capacitance = Capacitance::from_femtofarads(50.0);
        let mesh = measure_mesh_delay(&spec).unwrap();

        let ladder = LadderSpec {
            total_resistance: Resistance::from_ohms(5.0 * (n - 1) as f64),
            // The ladder builder needs L > 0; keep it electrically invisible.
            total_inductance: Inductance::from_henries(0.001e-12),
            total_capacitance: Capacitance::from_femtofarads(20.0 * (n - 1) as f64),
            segments: n - 1,
            style: crate::ladder::SegmentStyle::Pi,
            driver_resistance: Resistance::from_ohms(100.0),
            load_capacitance: Capacitance::from_femtofarads(50.0 + 10.0),
            supply: Voltage::from_volts(1.0),
        };
        let reference = measure_step_delay(&ladder).unwrap();
        let mesh_delay = mesh.delay_50.seconds();
        let ladder_delay = reference.delay_50.seconds();
        let err = (mesh_delay - ladder_delay).abs() / ladder_delay;
        // π segments split end capacitance differently from the mesh's
        // per-node placement, so agreement is approximate.
        assert!(err < 0.1, "mesh {mesh_delay} vs ladder {ladder_delay}, err {err}");
    }

    #[test]
    fn far_corner_is_slower_than_the_centre() {
        let spec = small_mesh(6, 6);
        let net = spec.build().unwrap();
        let options = TransientOptions::new(spec.suggested_stop_time(), spec.suggested_timestep());
        let result = run_transient(&net.circuit, &options).unwrap();
        let far = result.node_voltage(net.far).delay_50(spec.supply).unwrap();
        let centre = result.node_voltage(net.nodes[2 * 6 + 2]).delay_50(spec.supply).unwrap();
        assert!(
            far.seconds() > centre.seconds(),
            "far {} vs centre {}",
            far.seconds(),
            centre.seconds()
        );
    }

    #[test]
    fn grids_resolve_to_the_sparse_backend() {
        let spec = small_mesh(24, 24);
        let report = measure_mesh_delay(&spec).unwrap();
        assert_eq!(report.backend, ResolvedBackend::Sparse);
        assert!(report.delay_50.seconds() > 0.0);
        assert!(report.rise_time.seconds() > 0.0);
        assert!(report.overshoot_percent >= 0.0);
    }
}
