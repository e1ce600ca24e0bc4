//! The scenario parameter space: one concrete, hashable operating point.
//!
//! A [`Scenario`] bundles everything the built-in evaluators can depend on —
//! technology node, line geometry, optional per-unit-length RLC overrides,
//! driver strength, repeater partitioning and the coupled-bus layout — with
//! engineering-unit defaults matching the paper's 0.25 µm setting. Sweep axes
//! mutate scenarios through the typed [`Param`] enum, and the result cache
//! keys on a stable FNV-1a content hash of the *resolved* scenario, so two
//! axes that produce the same operating point share one cache entry.

use rlckit_interconnect::Technology;

/// A built-in CMOS technology generation, named so scenarios stay hashable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechnologyNode {
    /// The paper's contemporary 0.25 µm generation.
    QuarterMicron,
    /// A representative 0.18 µm generation.
    N180,
    /// A representative 0.13 µm generation.
    N130,
    /// A representative 90 nm generation.
    N90,
}

impl TechnologyNode {
    /// All built-in nodes, ordered from the paper's generation to the most scaled.
    pub const ROADMAP: [Self; 4] = [Self::QuarterMicron, Self::N180, Self::N130, Self::N90];

    /// The full [`Technology`] preset for this node.
    pub fn technology(self) -> Technology {
        match self {
            Self::QuarterMicron => Technology::quarter_micron(),
            Self::N180 => Technology::node_180nm(),
            Self::N130 => Technology::node_130nm(),
            Self::N90 => Technology::node_90nm(),
        }
    }

    /// Short display name (`"0.25um"`, `"90nm"`, …).
    pub fn name(self) -> &'static str {
        self.technology().name
    }

    fn tag(self) -> u8 {
        match self {
            Self::QuarterMicron => 0,
            Self::N180 => 1,
            Self::N130 => 2,
            Self::N90 => 3,
        }
    }
}

/// One concrete operating point of the sweep parameter space.
///
/// Fields carry the engineering units used throughout the workspace examples:
/// lengths in millimetres, resistance in Ω/mm, inductance in nH/mm and
/// capacitance in fF/µm (which equals pF/mm). `None` overrides fall back to
/// the technology's wide global wire class.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Technology generation providing buffers, supply and default wires.
    pub technology: TechnologyNode,
    /// Line (or bus) length in millimetres.
    pub line_length_mm: f64,
    /// Per-unit-length resistance override, Ω/mm.
    pub resistance_ohm_per_mm: Option<f64>,
    /// Per-unit-length inductance override, nH/mm.
    pub inductance_nh_per_mm: Option<f64>,
    /// Per-unit-length ground capacitance override, fF/µm.
    pub capacitance_ff_per_um: Option<f64>,
    /// Driver/repeater size `h` as a multiple of the minimum buffer.
    pub driver_size: f64,
    /// Repeater section count `k` (continuous, as in the paper's closed forms).
    pub sections: f64,
    /// Number of signal wires in the coupled bus.
    pub bus_lines: usize,
    /// Nearest-neighbour coupling capacitance, fF/µm.
    pub coupling_cap_ff_per_um: f64,
    /// Nearest-neighbour inductive coupling coefficient `k₁` (further
    /// separations fall off as `k₁·0.43^(d−1)`, the repo's bus idiom).
    pub inductive_coupling: f64,
    /// Whether grounded shields are interleaved between the signal wires.
    pub shielded: bool,
    /// π-sections per conductor used by the transient bus evaluators.
    pub ladder_sections: usize,
    /// Krylov reduction order `q` used by the reduced-order evaluators.
    pub reduction_order: usize,
    /// Levels of the symmetric routing tree used by the tree evaluators
    /// (each root-to-sink path spans the scenario line length).
    pub tree_levels: usize,
    /// Fan-out at every junction of the symmetric routing tree.
    pub tree_fanout: usize,
    /// Junction rows of the power/clock mesh used by the mesh evaluators
    /// (the grid spans the scenario line length along each side).
    pub mesh_rows: usize,
    /// Junction columns of the power/clock mesh used by the mesh evaluators.
    pub mesh_cols: usize,
    /// Wordline rows of the SRAM bitline/wordline array used by the SRAM
    /// read evaluator (the deck-lowered netlist workload).
    pub sram_rows: usize,
    /// Bitline columns of the SRAM bitline/wordline array.
    pub sram_cols: usize,
}

impl Default for Scenario {
    /// The paper's setting: a 10 mm wide global wire in 0.25 µm driven by a
    /// 100× buffer, and a 3-wire unshielded bus discretised into 8 sections.
    fn default() -> Self {
        Self {
            technology: TechnologyNode::QuarterMicron,
            line_length_mm: 10.0,
            resistance_ohm_per_mm: None,
            inductance_nh_per_mm: None,
            capacitance_ff_per_um: None,
            driver_size: 100.0,
            sections: 1.0,
            bus_lines: 3,
            coupling_cap_ff_per_um: 0.1,
            inductive_coupling: 0.35,
            shielded: false,
            ladder_sections: 8,
            reduction_order: 8,
            tree_levels: 3,
            tree_fanout: 2,
            mesh_rows: 8,
            mesh_cols: 8,
            sram_rows: 8,
            sram_cols: 8,
        }
    }
}

impl Scenario {
    /// Applies one parameter assignment.
    pub fn apply(&mut self, param: &Param) {
        match *param {
            Param::Technology(node) => self.technology = node,
            Param::LineLengthMm(v) => self.line_length_mm = v,
            Param::ResistanceOhmPerMm(v) => self.resistance_ohm_per_mm = Some(v),
            Param::InductanceNhPerMm(v) => self.inductance_nh_per_mm = Some(v),
            Param::CapacitanceFfPerUm(v) => self.capacitance_ff_per_um = Some(v),
            Param::DriverSize(v) => self.driver_size = v,
            Param::Sections(v) => self.sections = v,
            Param::BusLines(v) => self.bus_lines = v,
            Param::CouplingCapFfPerUm(v) => self.coupling_cap_ff_per_um = v,
            Param::InductiveCoupling(v) => self.inductive_coupling = v,
            Param::Shielded(v) => self.shielded = v,
            Param::LadderSections(v) => self.ladder_sections = v,
            Param::ReductionOrder(v) => self.reduction_order = v,
            Param::TreeLevels(v) => self.tree_levels = v,
            Param::TreeFanout(v) => self.tree_fanout = v,
            Param::MeshRows(v) => self.mesh_rows = v,
            Param::MeshCols(v) => self.mesh_cols = v,
            Param::SramRows(v) => self.sram_rows = v,
            Param::SramCols(v) => self.sram_cols = v,
        }
    }

    /// Feeds every field of the resolved scenario into a content hash.
    pub(crate) fn hash_into(&self, h: &mut Fnv64) {
        h.write_u8(self.technology.tag());
        h.write_f64(self.line_length_mm);
        h.write_opt_f64(self.resistance_ohm_per_mm);
        h.write_opt_f64(self.inductance_nh_per_mm);
        h.write_opt_f64(self.capacitance_ff_per_um);
        h.write_f64(self.driver_size);
        h.write_f64(self.sections);
        h.write_u64(self.bus_lines as u64);
        h.write_f64(self.coupling_cap_ff_per_um);
        h.write_f64(self.inductive_coupling);
        h.write_u8(u8::from(self.shielded));
        h.write_u64(self.ladder_sections as u64);
        h.write_u64(self.reduction_order as u64);
        h.write_u64(self.tree_levels as u64);
        h.write_u64(self.tree_fanout as u64);
        h.write_u64(self.mesh_rows as u64);
        h.write_u64(self.mesh_cols as u64);
        h.write_u64(self.sram_rows as u64);
        h.write_u64(self.sram_cols as u64);
    }
}

/// One typed parameter assignment — the value an axis sets on a [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// Select a technology generation.
    Technology(TechnologyNode),
    /// Line/bus length in millimetres.
    LineLengthMm(f64),
    /// Per-unit-length resistance override, Ω/mm.
    ResistanceOhmPerMm(f64),
    /// Per-unit-length inductance override, nH/mm.
    InductanceNhPerMm(f64),
    /// Per-unit-length ground capacitance override, fF/µm.
    CapacitanceFfPerUm(f64),
    /// Driver/repeater size `h`.
    DriverSize(f64),
    /// Repeater section count `k`.
    Sections(f64),
    /// Number of signal wires in the bus.
    BusLines(usize),
    /// Nearest-neighbour coupling capacitance, fF/µm.
    CouplingCapFfPerUm(f64),
    /// Nearest-neighbour inductive coupling coefficient.
    InductiveCoupling(f64),
    /// Interleave grounded shields between signal wires.
    Shielded(bool),
    /// Transient discretisation: π-sections per conductor.
    LadderSections(usize),
    /// Krylov reduction order `q` for the reduced-order evaluators.
    ReductionOrder(usize),
    /// Levels of the symmetric routing tree for the tree evaluators.
    TreeLevels(usize),
    /// Fan-out at every junction of the symmetric routing tree.
    TreeFanout(usize),
    /// Junction rows of the power/clock mesh for the mesh evaluators.
    MeshRows(usize),
    /// Junction columns of the power/clock mesh for the mesh evaluators.
    MeshCols(usize),
    /// Wordline rows of the SRAM array for the SRAM read evaluator.
    SramRows(usize),
    /// Bitline columns of the SRAM array for the SRAM read evaluator.
    SramCols(usize),
}

impl Param {
    /// Short value label used for the axis column of emitted tables
    /// (`"0.25um"`, `"10"`, `"true"`, …).
    pub(crate) fn label(&self) -> String {
        match *self {
            Self::Technology(node) => node.name().to_owned(),
            Self::LineLengthMm(v)
            | Self::ResistanceOhmPerMm(v)
            | Self::InductanceNhPerMm(v)
            | Self::CapacitanceFfPerUm(v)
            | Self::DriverSize(v)
            | Self::Sections(v)
            | Self::CouplingCapFfPerUm(v)
            | Self::InductiveCoupling(v) => format!("{v}"),
            Self::BusLines(v)
            | Self::LadderSections(v)
            | Self::ReductionOrder(v)
            | Self::TreeLevels(v)
            | Self::TreeFanout(v)
            | Self::MeshRows(v)
            | Self::MeshCols(v)
            | Self::SramRows(v)
            | Self::SramCols(v) => {
                format!("{v}")
            }
            Self::Shielded(v) => format!("{v}"),
        }
    }
}

/// A tiny 64-bit FNV-1a hasher — the stable content hash behind the result
/// cache (independent of `std`'s randomized `DefaultHasher`).
#[derive(Debug, Clone)]
pub(crate) struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x1_0000_0000_01B3;

    pub(crate) fn new() -> Self {
        Self { state: Self::OFFSET }
    }

    pub(crate) fn write_u8(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(Self::PRIME);
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub(crate) fn write_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.write_u8(1);
                self.write_f64(v);
            }
            None => self.write_u8(0),
        }
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for b in s.bytes() {
            self.write_u8(b);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_apply_to_the_right_fields() {
        let mut s = Scenario::default();
        for p in [
            Param::Technology(TechnologyNode::N90),
            Param::LineLengthMm(25.0),
            Param::ResistanceOhmPerMm(2.0),
            Param::InductanceNhPerMm(0.4),
            Param::CapacitanceFfPerUm(0.25),
            Param::DriverSize(50.0),
            Param::Sections(3.0),
            Param::BusLines(5),
            Param::CouplingCapFfPerUm(0.08),
            Param::InductiveCoupling(0.2),
            Param::Shielded(true),
            Param::LadderSections(12),
            Param::ReductionOrder(6),
            Param::TreeLevels(4),
            Param::TreeFanout(3),
            Param::MeshRows(12),
            Param::MeshCols(16),
            Param::SramRows(32),
            Param::SramCols(16),
        ] {
            s.apply(&p);
        }
        assert_eq!(s.technology, TechnologyNode::N90);
        assert_eq!(s.line_length_mm, 25.0);
        assert_eq!(s.resistance_ohm_per_mm, Some(2.0));
        assert_eq!(s.inductance_nh_per_mm, Some(0.4));
        assert_eq!(s.capacitance_ff_per_um, Some(0.25));
        assert_eq!(s.driver_size, 50.0);
        assert_eq!(s.sections, 3.0);
        assert_eq!(s.bus_lines, 5);
        assert_eq!(s.coupling_cap_ff_per_um, 0.08);
        assert_eq!(s.inductive_coupling, 0.2);
        assert!(s.shielded);
        assert_eq!(s.ladder_sections, 12);
        assert_eq!(s.reduction_order, 6);
        assert_eq!(s.tree_levels, 4);
        assert_eq!(s.tree_fanout, 3);
        assert_eq!(s.mesh_rows, 12);
        assert_eq!(s.mesh_cols, 16);
        assert_eq!(s.sram_rows, 32);
        assert_eq!(s.sram_cols, 16);
    }

    #[test]
    fn content_hash_is_stable_and_field_sensitive() {
        let hash = |s: &Scenario| {
            let mut h = Fnv64::new();
            s.hash_into(&mut h);
            h.finish()
        };
        let a = Scenario::default();
        assert_eq!(hash(&a), hash(&a.clone()), "hash must be deterministic");
        let mut b = a.clone();
        b.line_length_mm += 1e-9;
        assert_ne!(hash(&a), hash(&b), "any bit change must move the hash");
        let mut c = a.clone();
        c.resistance_ohm_per_mm = Some(1.0);
        assert_ne!(hash(&a), hash(&c), "None vs Some must differ");
    }

    #[test]
    fn labels_render_compactly() {
        assert_eq!(Param::Technology(TechnologyNode::QuarterMicron).label(), "0.25um");
        assert_eq!(Param::LineLengthMm(10.0).label(), "10");
        assert_eq!(Param::BusLines(3).label(), "3");
        assert_eq!(Param::Shielded(true).label(), "true");
    }

    #[test]
    fn roadmap_nodes_resolve_to_distinct_presets() {
        let names: Vec<_> = TechnologyNode::ROADMAP.iter().map(|n| n.name()).collect();
        assert_eq!(names, ["0.25um", "0.18um", "0.13um", "90nm"]);
    }
}
