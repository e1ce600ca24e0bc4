//! Circuit construction: nodes, elements and independent sources.
//!
//! A [`Circuit`] is a flat netlist of linear two-terminal elements. Nodes are
//! created with [`Circuit::add_node`]; the ground node always exists and is
//! returned by [`Circuit::ground`]. Element values are validated at insertion
//! so analyses can assume well-formed data.

use std::collections::HashMap;

use rlckit_units::{Capacitance, Inductance, Resistance};

use crate::error::{positive, CircuitError};
use crate::source::SourceWaveform;

/// Identifier of a circuit node.
///
/// Index 0 is always the ground/reference node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index of the node (0 is ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// Returns `true` if this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// Identifier of an independent source within a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub(crate) usize);

impl SourceId {
    /// Raw index of the source in insertion order.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an inductor within a circuit, used to attach mutual coupling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InductorId(pub(crate) usize);

impl InductorId {
    /// Raw index of the inductor in insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A linear circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// A resistor between two nodes.
    Resistor {
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// Resistance value.
        value: Resistance,
    },
    /// A capacitor between two nodes.
    Capacitor {
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// Capacitance value.
        value: Capacitance,
    },
    /// An inductor between two nodes. Its branch current becomes an MNA unknown.
    Inductor {
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// Inductance value.
        value: Inductance,
    },
    /// Mutual inductive coupling between two previously added inductors
    /// (a SPICE `K` element). Adds no unknowns of its own: it stamps the
    /// mutual inductance `M = k·sqrt(L1·L2)` between the two inductor branch
    /// rows.
    MutualInductor {
        /// The first coupled inductor.
        first: InductorId,
        /// The second coupled inductor.
        second: InductorId,
        /// Coupling coefficient `k ∈ (-1, 1)`, `k ≠ 0`. A positive `k` means
        /// the two `plus` terminals are the dotted terminals (fields aiding
        /// when both branch currents flow `plus` → `minus`).
        coupling: f64,
    },
    /// An independent voltage source. Its branch current becomes an MNA unknown.
    VoltageSource {
        /// Positive terminal.
        plus: NodeId,
        /// Negative terminal.
        minus: NodeId,
        /// Source identifier (for AC excitation selection).
        source: SourceId,
        /// Time-domain waveform.
        waveform: SourceWaveform,
    },
    /// An independent current source flowing from `plus` through the source to `minus`.
    CurrentSource {
        /// Terminal the current leaves the source from (conventional current
        /// is injected *into* this node).
        plus: NodeId,
        /// Terminal the current returns to the source at.
        minus: NodeId,
        /// Source identifier.
        source: SourceId,
        /// Time-domain waveform, interpreted in amperes (the `Voltage` payload
        /// of the waveform is reused as a numeric level).
        waveform: SourceWaveform,
    },
}

/// A flat netlist of linear elements.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    num_nodes: usize,
    elements: Vec<Element>,
    num_sources: usize,
    num_inductors: usize,
    /// Running sum of the coupling coefficients stamped between each inductor
    /// pair (keyed by ordered indices), so the cumulative |k| stays below 1.
    mutual_coupling: HashMap<(usize, usize), f64>,
}

impl Default for Circuit {
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self {
            num_nodes: 1,
            elements: Vec::new(),
            num_sources: 0,
            num_inductors: 0,
            mutual_coupling: HashMap::new(),
        }
    }

    /// The ground (reference) node.
    pub fn ground(&self) -> NodeId {
        NodeId::GROUND
    }

    /// Creates a new node and returns its identifier.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.num_nodes);
        self.num_nodes += 1;
        id
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.num_nodes
    }

    /// Number of inductors.
    pub fn inductor_count(&self) -> usize {
        self.num_inductors
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Returns `true` if the circuit has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// `Ok` if `node` belongs to this circuit, else
    /// [`CircuitError::UnknownNode`].
    pub(crate) fn check_node(&self, node: NodeId) -> Result<(), CircuitError> {
        if node.0 < self.num_nodes {
            Ok(())
        } else {
            Err(CircuitError::UnknownNode { index: node.0 })
        }
    }

    fn check_inductor(&self, inductor: InductorId) -> Result<(), CircuitError> {
        if inductor.0 < self.num_inductors {
            Ok(())
        } else {
            Err(CircuitError::UnknownInductor { index: inductor.0 })
        }
    }

    /// Adds a resistor between `plus` and `minus`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] if the resistance is not finite
    /// and strictly positive, or [`CircuitError::UnknownNode`] for foreign nodes.
    pub fn add_resistor(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        value: Resistance,
    ) -> Result<(), CircuitError> {
        self.check_node(plus)?;
        self.check_node(minus)?;
        positive(value.ohms(), "resistance")?;
        self.elements.push(Element::Resistor { plus, minus, value });
        Ok(())
    }

    /// Adds a capacitor between `plus` and `minus`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] if the capacitance is not finite
    /// and strictly positive, or [`CircuitError::UnknownNode`] for foreign nodes.
    pub fn add_capacitor(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        value: Capacitance,
    ) -> Result<(), CircuitError> {
        self.check_node(plus)?;
        self.check_node(minus)?;
        positive(value.farads(), "capacitance")?;
        self.elements.push(Element::Capacitor { plus, minus, value });
        Ok(())
    }

    /// Adds an inductor between `plus` and `minus`.
    ///
    /// Returns the [`InductorId`] used to couple this inductor to others with
    /// [`Circuit::add_mutual_inductor`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] if the inductance is not finite
    /// and strictly positive, or [`CircuitError::UnknownNode`] for foreign nodes.
    pub fn add_inductor(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        value: Inductance,
    ) -> Result<InductorId, CircuitError> {
        self.check_node(plus)?;
        self.check_node(minus)?;
        positive(value.henries(), "inductance")?;
        let id = InductorId(self.num_inductors);
        self.num_inductors += 1;
        self.elements.push(Element::Inductor { plus, minus, value });
        Ok(id)
    }

    /// Adds mutual inductive coupling `k` between two previously added
    /// inductors (a SPICE `K` element). The mutual inductance stamped into
    /// the MNA system is `M = k·sqrt(L1·L2)`; a positive `k` makes the two
    /// `plus` terminals the dotted pair.
    ///
    /// The `|k| < 1` bound (enforced per pair, cumulatively over repeated `K`
    /// elements) is necessary but — for three or more mutually coupled
    /// inductors — not sufficient for a physical system: the full inductance
    /// matrix must be positive definite, which is the caller's
    /// responsibility (`rlckit-coupling` validates it at the bus level).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] if `k` is not finite, is zero,
    /// does not satisfy `|k| < 1` (cumulatively, when several `K` elements
    /// couple the same pair), or couples an inductor to itself, and
    /// [`CircuitError::UnknownInductor`] if either identifier does not belong
    /// to this circuit.
    pub fn add_mutual_inductor(
        &mut self,
        first: InductorId,
        second: InductorId,
        coupling: f64,
    ) -> Result<(), CircuitError> {
        self.check_inductor(first)?;
        self.check_inductor(second)?;
        if !coupling.is_finite() || coupling == 0.0 || coupling.abs() >= 1.0 {
            return Err(CircuitError::InvalidValue {
                what: "coupling coefficient",
                value: coupling,
            });
        }
        if first == second {
            return Err(CircuitError::InvalidValue {
                what: "mutual coupling pair (an inductor cannot couple to itself)",
                value: first.index() as f64,
            });
        }
        // Several K elements on one pair stamp additively, so the physical
        // |k| < 1 bound must hold for their sum too.
        let key = (first.index().min(second.index()), first.index().max(second.index()));
        let total = self.mutual_coupling.get(&key).copied().unwrap_or(0.0) + coupling;
        if total.abs() >= 1.0 {
            return Err(CircuitError::InvalidValue {
                what: "cumulative coupling coefficient of an inductor pair",
                value: total,
            });
        }
        self.mutual_coupling.insert(key, total);
        self.elements.push(Element::MutualInductor { first, second, coupling });
        Ok(())
    }

    /// Adds an independent voltage source with the given waveform.
    ///
    /// Returns the [`SourceId`] used to select this source as the excitation
    /// in AC analysis.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] for foreign nodes and
    /// [`CircuitError::InvalidValue`] for a waveform with non-finite levels
    /// or times (see `SourceWaveform::validate`).
    pub fn add_voltage_source(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        waveform: SourceWaveform,
    ) -> Result<SourceId, CircuitError> {
        self.check_node(plus)?;
        self.check_node(minus)?;
        waveform.validate()?;
        let source = SourceId(self.num_sources);
        self.num_sources += 1;
        self.elements.push(Element::VoltageSource { plus, minus, source, waveform });
        Ok(source)
    }

    /// Adds an independent current source with the given waveform
    /// (amplitudes interpreted in amperes).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] for foreign nodes and
    /// [`CircuitError::InvalidValue`] for a waveform with non-finite levels
    /// or times (see `SourceWaveform::validate`).
    pub fn add_current_source(
        &mut self,
        plus: NodeId,
        minus: NodeId,
        waveform: SourceWaveform,
    ) -> Result<SourceId, CircuitError> {
        self.check_node(plus)?;
        self.check_node(minus)?;
        waveform.validate()?;
        let source = SourceId(self.num_sources);
        self.num_sources += 1;
        self.elements.push(Element::CurrentSource { plus, minus, source, waveform });
        Ok(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::{Time, Voltage};

    #[test]
    fn node_management() {
        let mut c = Circuit::new();
        assert_eq!(c.node_count(), 1);
        assert!(c.ground().is_ground());
        let a = c.add_node();
        let b = c.add_node();
        assert_eq!(a.index(), 1);
        assert_eq!(b.index(), 2);
        assert!(!a.is_ground());
        assert_eq!(c.node_count(), 3);
        assert!(c.is_empty());
    }

    #[test]
    fn element_insertion_and_validation() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let gnd = c.ground();
        c.add_resistor(a, gnd, Resistance::from_ohms(100.0)).unwrap();
        c.add_capacitor(a, gnd, Capacitance::from_picofarads(1.0)).unwrap();
        c.add_inductor(a, gnd, Inductance::from_nanohenries(2.0)).unwrap();
        assert_eq!(c.elements().len(), 3);
        assert!(!c.is_empty());

        assert!(matches!(
            c.add_resistor(a, gnd, Resistance::from_ohms(0.0)),
            Err(CircuitError::InvalidValue { what: "resistance", .. })
        ));
        assert!(matches!(
            c.add_resistor(a, gnd, Resistance::from_ohms(-5.0)),
            Err(CircuitError::InvalidValue { .. })
        ));
        assert!(matches!(
            c.add_capacitor(a, gnd, Capacitance::from_farads(f64::NAN)),
            Err(CircuitError::InvalidValue { .. })
        ));
        assert!(matches!(
            c.add_inductor(a, gnd, Inductance::from_henries(f64::INFINITY)),
            Err(CircuitError::InvalidValue { .. })
        ));
    }

    #[test]
    fn mutual_inductor_insertion_and_validation() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let gnd = c.ground();
        let l1 = c.add_inductor(a, gnd, Inductance::from_nanohenries(2.0)).unwrap();
        let l2 = c.add_inductor(b, gnd, Inductance::from_nanohenries(8.0)).unwrap();
        assert_eq!(l1.index(), 0);
        assert_eq!(l2.index(), 1);
        assert_eq!(c.inductor_count(), 2);

        c.add_mutual_inductor(l1, l2, 0.5).unwrap();
        assert!(matches!(
            c.elements().last(),
            Some(Element::MutualInductor { coupling, .. }) if *coupling == 0.5
        ));
        // Negative coupling (reversed dots) is allowed.
        c.add_mutual_inductor(l2, l1, -0.9).unwrap();

        // Out-of-range identifiers.
        assert!(matches!(
            c.add_mutual_inductor(l1, InductorId(7), 0.5),
            Err(CircuitError::UnknownInductor { index: 7 })
        ));
        // Self-coupling and out-of-range/non-finite coefficients all use the
        // InvalidValue variant, consistently with the other element adders.
        assert!(matches!(
            c.add_mutual_inductor(l1, l1, 0.5),
            Err(CircuitError::InvalidValue { .. })
        ));
        for k in [0.0, 1.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    c.add_mutual_inductor(l1, l2, k),
                    Err(CircuitError::InvalidValue { what: "coupling coefficient", .. })
                ),
                "k = {k} should be rejected"
            );
        }

        // Several K elements on one pair stamp additively, so the |k| < 1
        // bound applies to the running sum too: 0.5 − 0.9 + 0.8 = 0.4 is
        // fine, but a further 0.7 (total 1.1) is not — in either argument
        // order.
        c.add_mutual_inductor(l1, l2, 0.8).unwrap();
        assert!(matches!(
            c.add_mutual_inductor(l2, l1, 0.7),
            Err(CircuitError::InvalidValue {
                what: "cumulative coupling coefficient of an inductor pair",
                ..
            })
        ));
    }

    #[test]
    fn non_finite_source_waveforms_are_rejected() {
        // Regression: source adders used to accept any waveform, so NaN or
        // infinite levels reached the analyses. They must now fail with the
        // same InvalidValue variant the passive-element adders use.
        let mut c = Circuit::new();
        let a = c.add_node();
        let gnd = c.ground();
        let bad_levels: Vec<SourceWaveform> = vec![
            SourceWaveform::Dc { level: Voltage::from_volts(f64::NAN) },
            SourceWaveform::Step {
                amplitude: Voltage::from_volts(f64::INFINITY),
                delay: Time::ZERO,
            },
            SourceWaveform::Step {
                amplitude: Voltage::from_volts(1.0),
                delay: Time::from_seconds(f64::NAN),
            },
            SourceWaveform::Ramp {
                amplitude: Voltage::from_volts(1.0),
                delay: Time::ZERO,
                rise_time: Time::from_seconds(-1.0),
            },
            SourceWaveform::Pulse {
                amplitude: Voltage::from_volts(1.0),
                delay: Time::ZERO,
                edge_time: Time::from_seconds(f64::NEG_INFINITY),
                width: Time::ZERO,
            },
            SourceWaveform::PieceWiseLinear {
                points: vec![
                    (Time::ZERO, Voltage::from_volts(1.0)),
                    (Time::from_seconds(1.0), Voltage::from_volts(f64::NAN)),
                ],
            },
            SourceWaveform::PieceWiseLinear {
                points: vec![
                    (Time::from_seconds(2.0), Voltage::ZERO),
                    (Time::from_seconds(1.0), Voltage::ZERO),
                ],
            },
        ];
        for w in bad_levels {
            assert!(
                matches!(
                    c.add_voltage_source(a, gnd, w.clone()),
                    Err(CircuitError::InvalidValue { .. })
                ),
                "voltage source with {w:?} should be rejected"
            );
            assert!(
                matches!(
                    c.add_current_source(a, gnd, w.clone()),
                    Err(CircuitError::InvalidValue { .. })
                ),
                "current source with {w:?} should be rejected"
            );
        }
        // A rejected source must not consume an id or leave an element behind.
        assert_eq!(c.num_sources, 0);
        assert!(c.is_empty());
        // Negative amplitudes and delayed PWL corners remain valid.
        c.add_voltage_source(
            a,
            gnd,
            SourceWaveform::Step { amplitude: Voltage::from_volts(-1.0), delay: Time::ZERO },
        )
        .unwrap();
    }

    #[test]
    fn foreign_nodes_are_rejected() {
        let mut other = Circuit::new();
        let foreign = other.add_node();
        let _ = other.add_node();

        let mut c = Circuit::new();
        let a = c.add_node();
        // `foreign` has index 1 which exists in `c` too, so craft an index that doesn't.
        let bogus = NodeId(99);
        assert!(matches!(
            c.add_resistor(a, bogus, Resistance::from_ohms(1.0)),
            Err(CircuitError::UnknownNode { index: 99 })
        ));
        // An in-range foreign id is indistinguishable by design — document that.
        assert!(c.add_resistor(a, foreign, Resistance::from_ohms(1.0)).is_ok());
    }

    #[test]
    fn sources_get_sequential_ids() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let gnd = c.ground();
        let s0 = c.add_voltage_source(a, gnd, SourceWaveform::unit_step()).unwrap();
        let s1 = c
            .add_current_source(a, gnd, SourceWaveform::Dc { level: Voltage::from_volts(1e-3) })
            .unwrap();
        assert_eq!(s0.index(), 0);
        assert_eq!(s1.index(), 1);
        assert_eq!(c.num_sources, 2);
    }

    #[test]
    fn default_is_empty_circuit_with_ground() {
        let c = Circuit::default();
        assert!(c.is_empty());
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.num_sources, 0);
    }
}
