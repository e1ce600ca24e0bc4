//! Coupled multi-conductor bus models.
//!
//! A [`CoupledBus`] describes `N` parallel conductors by their per-unit-length
//! matrices in SI units:
//!
//! * a diagonal series-resistance vector `R` (Ω/m);
//! * a symmetric inductance matrix `L` (H/m) whose diagonal holds the self
//!   inductances and whose off-diagonal entries hold the mutual inductances
//!   `M_ij = k_ij·sqrt(L_ii·L_jj)` with `|k_ij| < 1`;
//! * a ground-capacitance vector `Cg` (F/m) and a symmetric, zero-diagonal
//!   coupling-capacitance matrix `Cc` (F/m) between conductor pairs.
//!
//! This is the standard multi-conductor transmission-line decomposition: the
//! Maxwell capacitance matrix is `C_ii = Cg_i + Σ_j Cc_ij`, `C_ij = −Cc_ij`.
//! A positive `k_ij` means the conductors are dotted the same way — currents
//! flowing in the same physical direction produce aiding flux, the on-chip
//! situation for parallel bus wires over a common return.
//!
//! [`UniformBusSpec`] builds the common symmetric case (identical conductors
//! on a uniform pitch, coupling capacitance to nearest neighbours only and an
//! inductive-coupling falloff indexed by separation) and can interleave
//! grounded shield conductors between the signal wires.

use rlckit_interconnect::DistributedLine;
use rlckit_units::{CapacitancePerLength, InductancePerLength, Length, ResistancePerLength};

use crate::error::CouplingError;

/// Relative tolerance for symmetry checks on user-supplied matrices.
const SYMMETRY_TOL: f64 = 1e-9;

/// Cholesky-based positive-definiteness test of a symmetric matrix.
fn is_positive_definite(m: &[Vec<f64>]) -> bool {
    let n = m.len();
    let mut chol = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..=i {
            let dot: f64 = chol[i][..j].iter().zip(&chol[j][..j]).map(|(a, b)| a * b).sum();
            let sum = m[i][j] - dot;
            if i == j {
                if sum <= 0.0 {
                    return false;
                }
                chol[i][i] = sum.sqrt();
            } else {
                chol[i][j] = sum / chol[j][j];
            }
        }
    }
    true
}

/// What a conductor of the bus is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConductorRole {
    /// A signal wire, driven according to the switching pattern.
    Signal,
    /// A grounded shield wire (tied to ground at both ends when simulated).
    Shield,
}

/// An `N`-conductor coupled bus described by per-unit-length RLC matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledBus {
    /// Series resistance per conductor, Ω/m.
    resistance: Vec<f64>,
    /// Symmetric inductance matrix, H/m (diagonal self, off-diagonal mutual).
    inductance: Vec<Vec<f64>>,
    /// Capacitance to ground per conductor, F/m.
    ground_capacitance: Vec<f64>,
    /// Symmetric zero-diagonal conductor-to-conductor capacitance, F/m.
    coupling_capacitance: Vec<Vec<f64>>,
    roles: Vec<ConductorRole>,
    length: Length,
}

impl CoupledBus {
    /// Creates a bus from raw per-unit-length matrices in SI units
    /// (Ω/m, H/m, F/m).
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::Shape`] for mismatched dimensions, asymmetry,
    /// a non-zero `Cc` diagonal or a mutual term with `|k| ≥ 1`, and
    /// [`CouplingError::InvalidParameter`] for non-finite or non-positive
    /// entries where positivity is required.
    pub fn from_matrices(
        resistance: Vec<f64>,
        inductance: Vec<Vec<f64>>,
        ground_capacitance: Vec<f64>,
        coupling_capacitance: Vec<Vec<f64>>,
        roles: Vec<ConductorRole>,
        length: Length,
    ) -> Result<Self, CouplingError> {
        let n = resistance.len();
        if n == 0 {
            return Err(CouplingError::Shape { what: "a bus needs at least one conductor" });
        }
        if ground_capacitance.len() != n || roles.len() != n {
            return Err(CouplingError::Shape {
                what: "R, Cg and role vectors must have one entry per conductor",
            });
        }
        if inductance.len() != n || inductance.iter().any(|row| row.len() != n) {
            return Err(CouplingError::Shape { what: "L must be an N×N matrix" });
        }
        if coupling_capacitance.len() != n || coupling_capacitance.iter().any(|r| r.len() != n) {
            return Err(CouplingError::Shape { what: "Cc must be an N×N matrix" });
        }
        let positive = |v: f64, what: &'static str| -> Result<(), CouplingError> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(CouplingError::InvalidParameter { what, value: v })
            }
        };
        for &r in &resistance {
            positive(r, "resistance per length")?;
        }
        for &c in &ground_capacitance {
            positive(c, "ground capacitance per length")?;
        }
        positive(length.meters(), "bus length")?;
        for i in 0..n {
            positive(inductance[i][i], "self inductance per length")?;
            if coupling_capacitance[i][i] != 0.0 {
                return Err(CouplingError::Shape { what: "Cc must have a zero diagonal" });
            }
            for j in 0..n {
                let (l, lt) = (inductance[i][j], inductance[j][i]);
                if !l.is_finite() {
                    return Err(CouplingError::InvalidParameter {
                        what: "mutual inductance per length",
                        value: l,
                    });
                }
                if (l - lt).abs() > SYMMETRY_TOL * l.abs().max(lt.abs()) {
                    return Err(CouplingError::Shape { what: "L must be symmetric" });
                }
                let cc = coupling_capacitance[i][j];
                if !cc.is_finite() || cc < 0.0 {
                    return Err(CouplingError::InvalidParameter {
                        what: "coupling capacitance per length",
                        value: cc,
                    });
                }
                if (cc - coupling_capacitance[j][i]).abs()
                    > SYMMETRY_TOL * cc.abs().max(coupling_capacitance[j][i].abs())
                {
                    return Err(CouplingError::Shape { what: "Cc must be symmetric" });
                }
            }
        }
        // |k| < 1 per pair (what the circuit-level K element enforces) for a
        // readable error on the common two-conductor mistake ...
        for i in 0..n {
            for j in (i + 1)..n {
                let k = inductance[i][j] / (inductance[i][i] * inductance[j][j]).sqrt();
                if k.abs() >= 1.0 {
                    return Err(CouplingError::Shape {
                        what: "inductive coupling must satisfy |k| < 1 for every pair",
                    });
                }
            }
        }
        // ... but for N ≥ 3 the pairwise bound is necessary, not sufficient:
        // the stored magnetic energy ½·Iᵀ·L·I must be positive for every
        // current vector, i.e. L must be positive definite, or transient
        // simulation diverges silently. Cholesky is the definitive check.
        if !is_positive_definite(&inductance) {
            return Err(CouplingError::Shape {
                what: "the inductance matrix must be positive definite \
                       (the conductors would store negative magnetic energy)",
            });
        }
        Ok(Self { resistance, inductance, ground_capacitance, coupling_capacitance, roles, length })
    }

    /// Number of conductors (signal wires plus shields).
    pub fn conductors(&self) -> usize {
        self.resistance.len()
    }

    /// Role of conductor `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn role(&self, i: usize) -> ConductorRole {
        self.roles[i]
    }

    /// Indices of the signal conductors, in order.
    pub fn signal_indices(&self) -> Vec<usize> {
        (0..self.conductors()).filter(|&i| self.roles[i] == ConductorRole::Signal).collect()
    }

    /// Number of signal conductors.
    pub fn signal_count(&self) -> usize {
        self.roles.iter().filter(|r| **r == ConductorRole::Signal).count()
    }

    /// Bus length.
    pub(crate) fn length(&self) -> Length {
        self.length
    }

    /// Series resistance of conductor `i`.
    pub(crate) fn resistance(&self, i: usize) -> ResistancePerLength {
        ResistancePerLength::from_ohms_per_meter(self.resistance[i])
    }

    /// Self inductance of conductor `i`.
    pub(crate) fn self_inductance(&self, i: usize) -> InductancePerLength {
        InductancePerLength::from_henries_per_meter(self.inductance[i][i])
    }

    /// Inductive coupling coefficient `k_ij = M_ij / sqrt(L_ii·L_jj)`
    /// (zero for `i == j`).
    pub fn coupling_coefficient(&self, i: usize, j: usize) -> f64 {
        if i == j {
            0.0
        } else {
            self.inductance[i][j] / (self.inductance[i][i] * self.inductance[j][j]).sqrt()
        }
    }

    /// Capacitance to ground of conductor `i`.
    pub(crate) fn ground_capacitance(&self, i: usize) -> CapacitancePerLength {
        CapacitancePerLength::from_farads_per_meter(self.ground_capacitance[i])
    }

    /// Coupling capacitance between conductors `i` and `j` (zero for `i == j`).
    pub(crate) fn coupling_capacitance(&self, i: usize, j: usize) -> CapacitancePerLength {
        let c = if i == j { 0.0 } else { self.coupling_capacitance[i][j] };
        CapacitancePerLength::from_farads_per_meter(c)
    }

    /// Returns the same bus with a new length (as repeater sectioning does).
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::InvalidParameter`] for a non-positive length.
    pub(crate) fn with_length(&self, length: Length) -> Result<Self, CouplingError> {
        if !(length.meters() > 0.0) || !length.meters().is_finite() {
            return Err(CouplingError::InvalidParameter {
                what: "bus length",
                value: length.meters(),
            });
        }
        let mut bus = self.clone();
        bus.length = length;
        Ok(bus)
    }

    /// Splits the bus into `sections` equal pieces, as repeater insertion does.
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::InvalidParameter`] if `sections` is zero.
    pub(crate) fn section(&self, sections: usize) -> Result<Self, CouplingError> {
        if sections == 0 {
            return Err(CouplingError::InvalidParameter { what: "section count", value: 0.0 });
        }
        self.with_length(self.length / sections as f64)
    }

    /// The equivalent isolated line of conductor `i`: its own `R` and self
    /// `L`, with total capacitance `Cg + Σ_j Cc_ij` — the environment the
    /// conductor sees when every neighbour is held quiet at an ideal ground.
    /// This is the single-line baseline that crosstalk delay push-out and
    /// pull-in are measured against.
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::LineIndex`] for an out-of-range conductor.
    pub fn isolated_line(&self, i: usize) -> Result<DistributedLine, CouplingError> {
        self.check_index(i)?;
        let cc_sum: f64 = self.coupling_capacitance[i].iter().sum();
        DistributedLine::new(
            ResistancePerLength::from_ohms_per_meter(self.resistance[i]),
            InductancePerLength::from_henries_per_meter(self.inductance[i][i]),
            CapacitancePerLength::from_farads_per_meter(self.ground_capacitance[i] + cc_sum),
            self.length,
        )
        .map_err(CouplingError::from)
    }

    pub(crate) fn check_index(&self, i: usize) -> Result<(), CouplingError> {
        if i < self.conductors() {
            Ok(())
        } else {
            Err(CouplingError::LineIndex { index: i, lines: self.conductors() })
        }
    }

    pub(crate) fn check_signal_index(&self, signal: usize) -> Result<usize, CouplingError> {
        self.signal_indices()
            .get(signal)
            .copied()
            .ok_or(CouplingError::LineIndex { index: signal, lines: self.signal_count() })
    }
}

/// Symmetric uniform-pitch bus description (the common layout: identical
/// conductors, coupling capacitance to nearest neighbours, inductive coupling
/// falling off with separation).
#[derive(Debug, Clone, PartialEq)]
pub struct UniformBusSpec {
    /// Number of signal wires.
    pub lines: usize,
    /// Series resistance of every conductor.
    pub resistance: ResistancePerLength,
    /// Self inductance of every conductor.
    pub self_inductance: InductancePerLength,
    /// Capacitance to ground of every conductor.
    pub ground_capacitance: CapacitancePerLength,
    /// Coupling capacitance between adjacent conductors (non-adjacent pairs
    /// are taken as uncoupled capacitively).
    pub coupling_capacitance: CapacitancePerLength,
    /// Inductive coupling coefficients by separation: `inductive_coupling[d-1]`
    /// is `k` for conductors `d` pitches apart; beyond the vector `k = 0`.
    /// Entries must satisfy `|k| < 1` and decrease in magnitude with distance.
    pub inductive_coupling: Vec<f64>,
    /// Bus length.
    pub length: Length,
}

impl UniformBusSpec {
    /// Builds the N-signal-wire bus (no shields).
    ///
    /// # Errors
    ///
    /// Returns [`CouplingError::InvalidParameter`] or [`CouplingError::Shape`]
    /// under the rules of [`CoupledBus::from_matrices`], including non-monotone
    /// or out-of-range coupling falloff.
    pub fn build(&self) -> Result<CoupledBus, CouplingError> {
        self.build_conductors(self.lines, false)
    }

    /// Builds the bus with a grounded shield conductor inserted between every
    /// pair of neighbouring signal wires (`2N − 1` conductors total; signals
    /// sit on even positions). The shields have the same per-unit-length
    /// parasitics as the signal wires; what changes for the signals is that
    /// their nearest capacitive neighbour is now a shield and the
    /// signal-to-signal inductive coupling drops to the separation-2 value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`UniformBusSpec::build`].
    pub fn build_shielded(&self) -> Result<CoupledBus, CouplingError> {
        if self.lines == 0 {
            return Err(CouplingError::InvalidParameter { what: "line count", value: 0.0 });
        }
        self.build_conductors(2 * self.lines - 1, true)
    }

    fn build_conductors(&self, n: usize, shielded: bool) -> Result<CoupledBus, CouplingError> {
        if self.lines == 0 {
            return Err(CouplingError::InvalidParameter { what: "line count", value: 0.0 });
        }
        for w in self.inductive_coupling.windows(2) {
            if w[1].abs() > w[0].abs() {
                return Err(CouplingError::Shape {
                    what: "inductive coupling must not grow with separation",
                });
            }
        }
        let r = self.resistance.ohms_per_meter();
        let l = self.self_inductance.henries_per_meter();
        let cg = self.ground_capacitance.farads_per_meter();
        let cc = self.coupling_capacitance.farads_per_meter();
        if !cc.is_finite() || cc < 0.0 {
            return Err(CouplingError::InvalidParameter {
                what: "coupling capacitance per length",
                value: cc,
            });
        }
        let k_at = |d: usize| self.inductive_coupling.get(d - 1).copied().unwrap_or(0.0);
        let mut inductance = vec![vec![0.0; n]; n];
        let mut coupling = vec![vec![0.0; n]; n];
        for i in 0..n {
            inductance[i][i] = l;
            for j in (i + 1)..n {
                let m = k_at(j - i) * l;
                inductance[i][j] = m;
                inductance[j][i] = m;
                if j - i == 1 {
                    coupling[i][j] = cc;
                    coupling[j][i] = cc;
                }
            }
        }
        let roles =
            (0..n)
                .map(|i| {
                    if shielded && i % 2 == 1 {
                        ConductorRole::Shield
                    } else {
                        ConductorRole::Signal
                    }
                })
                .collect();
        CoupledBus::from_matrices(vec![r; n], inductance, vec![cg; n], coupling, roles, self.length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::Length;

    fn spec() -> UniformBusSpec {
        UniformBusSpec {
            lines: 3,
            resistance: ResistancePerLength::from_ohms_per_millimeter(1.3),
            self_inductance: InductancePerLength::from_nanohenries_per_millimeter(0.5),
            ground_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.21),
            coupling_capacitance: CapacitancePerLength::from_femtofarads_per_micrometer(0.1),
            inductive_coupling: vec![0.35, 0.15],
            length: Length::from_millimeters(5.0),
        }
    }

    #[test]
    fn uniform_bus_has_expected_structure() {
        let bus = spec().build().unwrap();
        assert_eq!(bus.conductors(), 3);
        assert_eq!(bus.signal_count(), 3);
        assert_eq!(bus.signal_indices(), vec![0, 1, 2]);
        assert!((bus.coupling_coefficient(0, 1) - 0.35).abs() < 1e-12);
        assert!((bus.coupling_coefficient(0, 2) - 0.15).abs() < 1e-12);
        assert_eq!(bus.coupling_coefficient(1, 1), 0.0);
        // Coupling capacitance is nearest-neighbour only.
        assert!(bus.coupling_capacitance(0, 1).farads_per_meter() > 0.0);
        assert_eq!(bus.coupling_capacitance(0, 2).farads_per_meter(), 0.0);
    }

    #[test]
    fn shielded_bus_interleaves_shields() {
        let bus = spec().build_shielded().unwrap();
        assert_eq!(bus.conductors(), 5);
        assert_eq!(bus.signal_count(), 3);
        assert_eq!(bus.signal_indices(), vec![0, 2, 4]);
        assert_eq!(bus.role(1), ConductorRole::Shield);
        assert_eq!(bus.role(2), ConductorRole::Signal);
        // Signal-to-signal capacitive coupling disappears behind the shield
        // and the inductive coupling drops to the separation-2 value.
        assert_eq!(bus.coupling_capacitance(0, 2).farads_per_meter(), 0.0);
        assert!((bus.coupling_coefficient(0, 2) - 0.15).abs() < 1e-12);
        assert!((bus.coupling_coefficient(0, 1) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn isolated_line_adds_coupling_capacitance_to_ground() {
        let bus = spec().build().unwrap();
        // The middle wire sees Cc on both sides.
        let mid = bus.isolated_line(1).unwrap();
        let edge = bus.isolated_line(0).unwrap();
        let cg = 0.21e-9;
        let cc = 0.1e-9;
        assert!((mid.capacitance_per_length().farads_per_meter() - (cg + 2.0 * cc)).abs() < 1e-15);
        assert!((edge.capacitance_per_length().farads_per_meter() - (cg + cc)).abs() < 1e-15);
        assert!(bus.isolated_line(3).is_err());
    }

    #[test]
    fn sectioning_preserves_per_length_data() {
        let bus = spec().build().unwrap();
        let half = bus.section(2).unwrap();
        assert!((half.length().millimeters() - 2.5).abs() < 1e-12);
        assert_eq!(half.coupling_coefficient(0, 1), bus.coupling_coefficient(0, 1));
        assert!(bus.section(0).is_err());
    }

    #[test]
    fn malformed_matrices_are_rejected() {
        let len = Length::from_millimeters(1.0);
        let ok_l = vec![vec![5e-7, 1e-7], vec![1e-7, 5e-7]];
        let ok_cc = vec![vec![0.0, 1e-10], vec![1e-10, 0.0]];
        let roles = vec![ConductorRole::Signal; 2];
        // Baseline is fine.
        assert!(CoupledBus::from_matrices(
            vec![1e3; 2],
            ok_l.clone(),
            vec![1e-10; 2],
            ok_cc.clone(),
            roles.clone(),
            len
        )
        .is_ok());
        // Asymmetric L.
        let bad_l = vec![vec![5e-7, 1e-7], vec![2e-7, 5e-7]];
        assert!(matches!(
            CoupledBus::from_matrices(
                vec![1e3; 2],
                bad_l,
                vec![1e-10; 2],
                ok_cc.clone(),
                roles.clone(),
                len
            ),
            Err(CouplingError::Shape { .. })
        ));
        // |k| >= 1.
        let tight = vec![vec![5e-7, 5e-7], vec![5e-7, 5e-7]];
        assert!(matches!(
            CoupledBus::from_matrices(
                vec![1e3; 2],
                tight,
                vec![1e-10; 2],
                ok_cc.clone(),
                roles.clone(),
                len
            ),
            Err(CouplingError::Shape { .. })
        ));
        // Non-zero Cc diagonal.
        let bad_cc = vec![vec![1e-12, 1e-10], vec![1e-10, 0.0]];
        assert!(matches!(
            CoupledBus::from_matrices(
                vec![1e3; 2],
                ok_l.clone(),
                vec![1e-10; 2],
                bad_cc,
                roles.clone(),
                len
            ),
            Err(CouplingError::Shape { .. })
        ));
        // Negative ground capacitance.
        assert!(matches!(
            CoupledBus::from_matrices(
                vec![1e3; 2],
                ok_l.clone(),
                vec![-1e-10, 1e-10],
                ok_cc.clone(),
                roles.clone(),
                len
            ),
            Err(CouplingError::InvalidParameter { .. })
        ));
        // Empty bus.
        assert!(matches!(
            CoupledBus::from_matrices(vec![], vec![], vec![], vec![], vec![], len),
            Err(CouplingError::Shape { .. })
        ));
        // Growing falloff in the uniform builder.
        let mut s = spec();
        s.inductive_coupling = vec![0.1, 0.3];
        assert!(matches!(s.build(), Err(CouplingError::Shape { .. })));
        // Zero lines error cleanly from both builders (regression: the
        // shielded conductor count 2N − 1 must not underflow first).
        let mut s = spec();
        s.lines = 0;
        assert!(matches!(s.build(), Err(CouplingError::InvalidParameter { .. })));
        assert!(matches!(s.build_shielded(), Err(CouplingError::InvalidParameter { .. })));
    }

    #[test]
    fn non_positive_definite_inductance_is_rejected() {
        // Regression: every pair satisfies |k| = 0.6 < 1, but the 3×3 matrix
        // with k = −0.6 everywhere has the eigenvalue L·(1 − 2·0.6) < 0 —
        // negative stored energy, which made transient runs diverge silently.
        let l = 5e-7;
        let m = -0.6 * l;
        let bad = vec![vec![l, m, m], vec![m, l, m], vec![m, m, l]];
        let err = CoupledBus::from_matrices(
            vec![1e3; 3],
            bad,
            vec![1e-10; 3],
            vec![vec![0.0; 3]; 3],
            vec![ConductorRole::Signal; 3],
            Length::from_millimeters(1.0),
        );
        assert!(matches!(err, Err(CouplingError::Shape { .. })));
        // The same matrix through the uniform builder (monotone |k| falloff
        // passes the per-pair checks) must also be rejected.
        let mut s = spec();
        s.inductive_coupling = vec![-0.6, -0.6];
        assert!(matches!(s.build(), Err(CouplingError::Shape { .. })));
        // A strongly but physically coupled bus still builds.
        let mut s = spec();
        s.inductive_coupling = vec![0.45, 0.2];
        assert!(s.build().is_ok());
        assert!(s.build_shielded().is_ok());
    }
}
