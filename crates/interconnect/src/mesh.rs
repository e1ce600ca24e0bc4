//! Power/clock meshes: regular grids of physical wire segments.
//!
//! A [`MeshGeometry`] is the physical-layer description of a power-grid or
//! clock-mesh net: a `rows × cols` lattice of junctions joined by identical
//! wire segments, each one pitch of a [`DistributedLine`]. It lowers to the
//! circuit layer's [`MeshSpec`] for dynamic simulation, putting each
//! segment's series parasitics on the grid edges and spreading the total
//! wire capacitance uniformly over the junctions.

use rlckit_circuit::mesh::MeshSpec;
use rlckit_units::{Capacitance, Inductance, Length, Resistance, Voltage};

use crate::error::InterconnectError;
use crate::line::DistributedLine;

/// A regular grid of identical wire segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshGeometry {
    /// Number of junction rows (≥ 1).
    pub rows: usize,
    /// Number of junction columns (≥ 1, with `rows·cols ≥ 2`).
    pub cols: usize,
    /// One pitch of wire between adjacent junctions; its length is the grid
    /// pitch and its per-unit-length parasitics describe the wiring layer.
    pub segment: DistributedLine,
}

impl MeshGeometry {
    /// A grid of `rows × cols` junctions wired with `segment`.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidParameter`] for degenerate grids
    /// (`rows·cols < 2`) or when the junction count exceeds 4 000 000.
    pub fn new(
        rows: usize,
        cols: usize,
        segment: DistributedLine,
    ) -> Result<Self, InterconnectError> {
        match rows.checked_mul(cols) {
            Some(n) if n > 4_000_000 => {
                return Err(InterconnectError::InvalidParameter {
                    what: "mesh junction count (rows/cols too large)",
                    value: n as f64,
                });
            }
            None => {
                return Err(InterconnectError::InvalidParameter {
                    what: "mesh junction count (rows/cols too large)",
                    value: f64::INFINITY,
                });
            }
            Some(n) if rows == 0 || cols == 0 || n < 2 => {
                return Err(InterconnectError::InvalidParameter {
                    what: "mesh junction count (rows·cols must be at least 2)",
                    value: n as f64,
                });
            }
            Some(_) => {}
        }
        Ok(Self { rows, cols, segment })
    }

    /// Number of wire segments in the grid.
    pub(crate) fn segment_count(&self) -> usize {
        self.rows * (self.cols - 1) + (self.rows - 1) * self.cols
    }

    /// Total wire length over every segment.
    pub fn total_wire_length(&self) -> Length {
        self.segment.length() * self.segment_count() as f64
    }

    /// Total wire capacitance over every segment.
    pub(crate) fn total_wire_capacitance(&self) -> Capacitance {
        self.segment.total_capacitance() * self.segment_count() as f64
    }

    /// Lowers the grid to the circuit layer's [`MeshSpec`] for dynamic
    /// simulation.
    ///
    /// Series parasitics go on the edges (inductance only when
    /// `include_inductance` is set — RC meshes are the common power-grid
    /// abstraction and keep the unknown count at `rows·cols`); the total
    /// wire capacitance is spread uniformly over the junctions.
    ///
    /// # Errors
    ///
    /// This lowering cannot fail on a validated geometry, but the returned
    /// spec's own `build()` revalidates electrical values.
    pub fn to_mesh_spec(
        &self,
        driver_resistance: Resistance,
        supply: Voltage,
        include_inductance: bool,
    ) -> Result<MeshSpec, InterconnectError> {
        let junctions = (self.rows * self.cols) as f64;
        let node_capacitance = self.total_wire_capacitance() / junctions;
        Ok(MeshSpec {
            rows: self.rows,
            cols: self.cols,
            segment_resistance: self.segment.total_resistance(),
            segment_inductance: if include_inductance {
                self.segment.total_inductance()
            } else {
                Inductance::ZERO
            },
            node_capacitance,
            driver_resistance,
            load_capacitance: Capacitance::ZERO,
            supply,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::{CapacitancePerLength, InductancePerLength, ResistancePerLength};

    fn pitch() -> DistributedLine {
        DistributedLine::new(
            ResistancePerLength::from_ohms_per_millimeter(50.0),
            InductancePerLength::from_nanohenries_per_millimeter(1.0),
            CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
            Length::from_meters(100.0e-6),
        )
        .unwrap()
    }

    #[test]
    fn geometry_counts_segments_and_wire() {
        let mesh = MeshGeometry::new(4, 5, pitch()).unwrap();
        assert_eq!(mesh.segment_count(), 4 * 4 + 3 * 5);
        assert!((mesh.total_wire_length().meters() - 31.0 * 100e-6).abs() < 1e-12);
    }

    #[test]
    fn degenerate_grids_are_rejected() {
        assert!(MeshGeometry::new(1, 1, pitch()).is_err());
        assert!(MeshGeometry::new(0, 4, pitch()).is_err());
        assert!(MeshGeometry::new(3000, 3000, pitch()).is_err());
    }

    #[test]
    fn lowering_conserves_resistance_and_capacitance() {
        let mesh = MeshGeometry::new(3, 4, pitch()).unwrap();
        let spec =
            mesh.to_mesh_spec(Resistance::from_ohms(25.0), Voltage::from_volts(1.2), true).unwrap();
        assert_eq!(spec.rows, 3);
        assert_eq!(spec.cols, 4);
        // Each edge carries one pitch of series parasitics.
        assert!((spec.segment_resistance.ohms() - 5.0).abs() < 1e-12);
        assert!(spec.segment_inductance.henries() > 0.0);
        // Total capacitance is conserved: 12 junctions share 17 segments' C.
        let total = spec.node_capacitance * 12.0;
        assert!(
            (total.farads() - mesh.total_wire_capacitance().farads()).abs() < 1e-24,
            "lowered C {} vs wire C {}",
            total.farads(),
            mesh.total_wire_capacitance().farads()
        );
        let rc = mesh
            .to_mesh_spec(Resistance::from_ohms(25.0), Voltage::from_volts(1.2), false)
            .unwrap();
        assert_eq!(rc.segment_inductance, Inductance::ZERO);
    }

    #[test]
    fn lowered_mesh_simulates_through_the_circuit_layer() {
        let mesh = MeshGeometry::new(5, 5, pitch()).unwrap();
        let spec = mesh
            .to_mesh_spec(Resistance::from_ohms(50.0), Voltage::from_volts(1.0), false)
            .unwrap();
        let report = rlckit_circuit::mesh::measure_mesh_delay(&spec).unwrap();
        assert!(report.delay_50.seconds() > 0.0);
    }
}
