//! Assembly of the modified nodal analysis (MNA) equations.
//!
//! A linear circuit is described by the differential-algebraic system
//!
//! ```text
//! G·x(t) + C·dx/dt = b(t)
//! ```
//!
//! where `x` stacks the non-ground node voltages followed by the branch
//! currents of voltage sources and inductors. [`MnaSystem::build`] collects
//! the element stamps of the constant `G` and `C` matrices in
//! structure-preserving triplet form — no dense matrix is materialised during
//! assembly. Analyses then assemble whatever combination of `G` and `C` they
//! need in compressed-sparse-column form, in logical (node/branch) order
//! ([`MnaSystem::assemble_csc_real`] / `MnaSystem::assemble_csc_complex`),
//! and hand it to a [`SolverBackend`](rlckit_numeric::solver::SolverBackend):
//! the fill-reducing sparse kernel, or the dense oracle in tests.
//!
//! A small conductance (`GMIN`) is added from every node to ground so that
//! circuits with capacitor-only nodes still have a non-singular `G`, matching
//! common SPICE practice.

use rlckit_numeric::complex::Complex;
use rlckit_numeric::matrix::Matrix;
use rlckit_numeric::sparse::{CscMatrix, SparseSymbolic};
use rlckit_units::Time;

use crate::error::CircuitError;
use crate::netlist::{Circuit, Element, NodeId, SourceId};
use crate::source::SourceWaveform;

/// Minimum conductance to ground added at every node (siemens).
pub(crate) const GMIN: f64 = 1e-12;

/// One additive contribution to a system matrix: `matrix[row][col] += value`.
type Stamp = (usize, usize, f64);

/// Right-hand-side contribution of one independent source.
#[derive(Debug, Clone)]
enum SourceStamp {
    /// Voltage source occupying the given branch row.
    Voltage { row: usize, waveform: SourceWaveform },
    /// Current source injecting into `plus_row` and drawing from `minus_row`
    /// (either may be `None` when that terminal is ground).
    Current { plus_row: Option<usize>, minus_row: Option<usize>, waveform: SourceWaveform },
}

/// The assembled MNA system of a circuit.
#[derive(Debug, Clone)]
pub struct MnaSystem {
    node_unknowns: usize,
    dim: usize,
    g_stamps: Vec<Stamp>,
    c_stamps: Vec<Stamp>,
    sources: Vec<SourceStamp>,
    source_ids: Vec<usize>,
    /// Fill-reducing symbolic phase of the union pattern, computed on first
    /// sparse use and shared by every sparse factorisation of this system
    /// (DC, transient, AC frequencies). Behind an [`std::sync::Arc`] so the
    /// process-global [`crate::pattern_cache`] can share one analysis across
    /// *different* systems with the same pattern.
    sparse_symbolic: std::sync::OnceLock<std::sync::Arc<SparseSymbolic>>,
    /// Fill-reducing symbolic phase of the pattern of `G` alone, computed on
    /// first use by a factorisation without a storage term.
    dc_symbolic: std::sync::OnceLock<SparseSymbolic>,
    /// Stamp→CSC scatter map of the union pattern, computed on first CSC
    /// assembly; later assemblies only write values.
    csc_assembly: std::sync::OnceLock<CscAssembly>,
}

/// The triplet→CSC position map behind [`MnaSystem::assemble_csc_real`] and
/// [`MnaSystem::assemble_csc_complex`]: the union sparsity pattern of `G` and
/// `C` (every stamp position kept, even where values cancel, so the pattern
/// is identical for every `(gs, cs)`) plus, per stamp, the index of its value
/// slot. Building it costs one sort of the pattern; every assembly after that
/// is a single `O(stamps)` scatter pass.
#[derive(Debug, Clone)]
struct CscAssembly {
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    /// `g_pos[t]` = value slot of the `t`-th `G` stamp.
    g_pos: Vec<usize>,
    /// `c_pos[t]` = value slot of the `t`-th `C` stamp.
    c_pos: Vec<usize>,
}

impl MnaSystem {
    /// Assembles the MNA stamps for a circuit.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyCircuit`] if the circuit has no elements.
    pub fn build(circuit: &Circuit) -> Result<Self, CircuitError> {
        let _span = rlckit_telemetry::span("mna.build");
        if circuit.is_empty() {
            return Err(CircuitError::EmptyCircuit);
        }
        let node_unknowns = circuit.node_count() - 1;

        // Count branch unknowns: one per voltage source and per inductor.
        let branch_count = circuit
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::VoltageSource { .. } | Element::Inductor { .. }))
            .count();
        let dim = node_unknowns + branch_count;
        let dim = dim.max(1);

        let mut g_stamps: Vec<Stamp> = Vec::new();
        let mut c_stamps: Vec<Stamp> = Vec::new();
        let mut sources = Vec::new();
        let mut source_ids = Vec::new();

        // GMIN from every node to ground keeps G invertible.
        for i in 0..node_unknowns {
            g_stamps.push((i, i, GMIN));
        }

        let row_of = |node: NodeId| -> Option<usize> {
            if node.is_ground() {
                None
            } else {
                Some(node.index() - 1)
            }
        };

        let mut next_branch = node_unknowns;
        // Branch row and inductance of every inductor in insertion order,
        // for resolving mutual-coupling references. `Circuit` guarantees a
        // mutual element is inserted after both of its inductors.
        let mut inductors: Vec<(usize, f64)> = Vec::with_capacity(circuit.inductor_count());
        for element in circuit.elements() {
            match element {
                Element::Resistor { plus, minus, value } => {
                    let conductance = 1.0 / value.ohms();
                    stamp_conductance(&mut g_stamps, row_of(*plus), row_of(*minus), conductance);
                }
                Element::Capacitor { plus, minus, value } => {
                    stamp_conductance(&mut c_stamps, row_of(*plus), row_of(*minus), value.farads());
                }
                Element::Inductor { plus, minus, value } => {
                    let b = next_branch;
                    next_branch += 1;
                    stamp_branch_incidence(&mut g_stamps, row_of(*plus), row_of(*minus), b);
                    c_stamps.push((b, b, -value.henries()));
                    inductors.push((b, value.henries()));
                }
                Element::MutualInductor { first, second, coupling } => {
                    // The branch equation of an inductor coupled to another
                    // is v⁺ − v⁻ = L·dI/dt + M·dI_other/dt: the mutual term
                    // is an off-diagonal −M in the storage matrix, mirroring
                    // the −L convention of the diagonal.
                    let (b1, l1) = inductors[first.index()];
                    let (b2, l2) = inductors[second.index()];
                    let mutual = coupling * (l1 * l2).sqrt();
                    c_stamps.push((b1, b2, -mutual));
                    c_stamps.push((b2, b1, -mutual));
                }
                Element::VoltageSource { plus, minus, source, waveform } => {
                    let b = next_branch;
                    next_branch += 1;
                    stamp_branch_incidence(&mut g_stamps, row_of(*plus), row_of(*minus), b);
                    sources.push(SourceStamp::Voltage { row: b, waveform: waveform.clone() });
                    source_ids.push(source.index());
                }
                Element::CurrentSource { plus, minus, source, waveform } => {
                    sources.push(SourceStamp::Current {
                        plus_row: row_of(*plus),
                        minus_row: row_of(*minus),
                        waveform: waveform.clone(),
                    });
                    source_ids.push(source.index());
                }
            }
        }

        rlckit_telemetry::gauge_set("mna.dim", dim as f64);
        Ok(Self {
            node_unknowns,
            dim,
            g_stamps,
            c_stamps,
            sources,
            source_ids,
            sparse_symbolic: std::sync::OnceLock::new(),
            dc_symbolic: std::sync::OnceLock::new(),
            csc_assembly: std::sync::OnceLock::new(),
        })
    }

    /// The fill-reducing symbolic phase of the sparse backend, computed
    /// lazily from the union pattern of `G` and `C` on first use and then
    /// shared by every sparse numeric factorisation of this system — the DC,
    /// transient and AC analyses all factor `gs·G + cs·C` matrices with this
    /// one pattern.
    pub fn sparse_symbolic(&self) -> &SparseSymbolic {
        self.sparse_symbolic.get_or_init(|| {
            let analyze = || {
                SparseSymbolic::analyze(
                    self.dim,
                    self.g_stamps.iter().chain(self.c_stamps.iter()).map(|&(r, c, _)| (r, c)),
                )
            };
            if crate::pattern_cache::enabled() {
                let map = self.csc_assembly();
                crate::pattern_cache::shared_symbolic(self.dim, &map.col_ptr, &map.row_idx, analyze)
            } else {
                std::sync::Arc::new(analyze())
            }
        })
    }

    /// The fill-reducing symbolic phase of the pattern of `G` alone — the
    /// ordering of every factorisation without a storage term (DC operating
    /// points, the `G` of the state space, AC at `s = 0`).
    ///
    /// Without `C` the branch rows of inductors and voltage sources have
    /// zero diagonals, so their columns pivot off the diagonal. Under the
    /// union-pattern ordering, which counts the storage couplings between
    /// coupled lines, those pivots fill the factors toward dense; ordered on
    /// the pattern of `G` they stay sparse.
    pub fn dc_symbolic(&self) -> &SparseSymbolic {
        self.dc_symbolic.get_or_init(|| {
            SparseSymbolic::analyze(self.dim, self.g_stamps.iter().map(|&(r, c, _)| (r, c)))
        })
    }

    /// The stamp→CSC scatter map, built on first use.
    fn csc_assembly(&self) -> &CscAssembly {
        self.csc_assembly.get_or_init(|| {
            let n = self.dim;
            let mut per_col: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &(r, c, _) in self.g_stamps.iter().chain(self.c_stamps.iter()) {
                per_col[c].push(r);
            }
            let mut col_ptr = Vec::with_capacity(n + 1);
            let mut row_idx = Vec::new();
            col_ptr.push(0);
            for col in &mut per_col {
                col.sort_unstable();
                col.dedup();
                row_idx.extend_from_slice(col);
                col_ptr.push(row_idx.len());
            }
            let pos_of = |r: usize, c: usize| -> usize {
                let lo = col_ptr[c];
                let rows = &row_idx[lo..col_ptr[c + 1]];
                lo + rows.binary_search(&r).expect("stamp position is in the union pattern")
            };
            let g_pos = self.g_stamps.iter().map(|&(r, c, _)| pos_of(r, c)).collect();
            let c_pos = self.c_stamps.iter().map(|&(r, c, _)| pos_of(r, c)).collect();
            CscAssembly { col_ptr, row_idx, g_pos, c_pos }
        })
    }

    /// Assembles `gs·G + cs·C` in compressed-sparse-column form, in logical
    /// (node/branch) order — the sparse backend applies its own fill-reducing
    /// ordering, so no relabelling happens here.
    ///
    /// Every assembly of one system shares the union pattern of `G` and `C`
    /// (stamp positions whose values cancel stay stored as explicit zeros),
    /// built once and then only re-valued — which is exactly the pattern
    /// stability [`rlckit_numeric::sparse::SparseLuFactor::refactor`] needs
    /// to reuse a factorisation across `(gs, cs)` pairs.
    pub fn assemble_csc_real(&self, gs: f64, cs: f64) -> CscMatrix<f64> {
        let _span = rlckit_telemetry::span("mna.assemble");
        let map = self.csc_assembly();
        let mut values = vec![0.0; map.row_idx.len()];
        if gs != 0.0 {
            for (&(_, _, v), &p) in self.g_stamps.iter().zip(&map.g_pos) {
                values[p] += gs * v;
            }
        }
        if cs != 0.0 {
            for (&(_, _, v), &p) in self.c_stamps.iter().zip(&map.c_pos) {
                values[p] += cs * v;
            }
        }
        CscMatrix::from_parts(self.dim, map.col_ptr.clone(), map.row_idx.clone(), values)
    }

    /// Assembles the complex system `G + s·C` in compressed-sparse-column
    /// form, in logical order, on the same shared union pattern as
    /// [`MnaSystem::assemble_csc_real`].
    pub(crate) fn assemble_csc_complex(&self, s: Complex) -> CscMatrix<Complex> {
        let _span = rlckit_telemetry::span("mna.assemble");
        let map = self.csc_assembly();
        let mut values = vec![Complex::ZERO; map.row_idx.len()];
        for (&(_, _, v), &p) in self.g_stamps.iter().zip(&map.g_pos) {
            values[p] += Complex::from_real(v);
        }
        for (&(_, _, v), &p) in self.c_stamps.iter().zip(&map.c_pos) {
            values[p] += s * v;
        }
        CscMatrix::from_parts(self.dim, map.col_ptr.clone(), map.row_idx.clone(), values)
    }

    /// Computes `y = (gs·G + cs·C)·x` in logical order directly from the
    /// triplet stamps (`O(nnz)`, no matrix materialised) — the history
    /// operator application of the transient hot loop.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn apply_real(&self, gs: f64, cs: f64, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim];
        self.apply_real_into(gs, cs, x, &mut y);
        y
    }

    /// Computes `y = (gs·G + cs·C)·x` into a caller-provided buffer,
    /// allocating nothing; `y`'s contents on entry are overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` differs from `self.dim()`.
    pub fn apply_real_into(&self, gs: f64, cs: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.dim, "vector length must equal system dimension");
        assert_eq!(y.len(), self.dim, "output length must equal system dimension");
        y.fill(0.0);
        if gs != 0.0 {
            apply_stamps_scaled(&self.g_stamps, gs, x, y);
        }
        if cs != 0.0 {
            apply_stamps_scaled(&self.c_stamps, cs, x, y);
        }
    }

    /// Dimension of the unknown vector (node voltages + branch currents).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of node-voltage unknowns (nodes excluding ground).
    pub fn node_unknowns(&self) -> usize {
        self.node_unknowns
    }

    /// The conductance/incidence matrix `G`, materialised densely in logical
    /// order (intended for inspection and small systems; analyses use the
    /// compressed-sparse-column assemblers).
    pub fn dense_g(&self) -> Matrix<f64> {
        dense_from_stamps(self.dim, &self.g_stamps)
    }

    /// The storage matrix `C` (capacitances and inductances), materialised
    /// densely in logical order.
    pub fn dense_c(&self) -> Matrix<f64> {
        dense_from_stamps(self.dim, &self.c_stamps)
    }

    /// Row of the unknown vector holding the voltage of `node`, or `None` for
    /// ground.
    pub(crate) fn row_of_node(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Evaluates the right-hand side `b(t)` into `out`, in logical order.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn rhs_at(&self, t: Time, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "rhs buffer length must equal system dimension");
        out.fill(0.0);
        for source in &self.sources {
            match source {
                SourceStamp::Voltage { row, waveform } => {
                    out[*row] += waveform.value_at(t).volts();
                }
                SourceStamp::Current { plus_row, minus_row, waveform } => {
                    let value = waveform.value_at(t).volts();
                    if let Some(p) = plus_row {
                        out[*p] += value;
                    }
                    if let Some(m) = minus_row {
                        out[*m] -= value;
                    }
                }
            }
        }
    }

    /// Computes `y = G·x` in logical order directly from the triplet stamps
    /// (`O(nnz)`, no matrix materialised) — the sparse mat-vec the Krylov
    /// model-order reducer leans on.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub(crate) fn apply_g(&self, x: &[f64]) -> Vec<f64> {
        apply_stamps(self.dim, &self.g_stamps, x)
    }

    /// Computes `y = C·x` in logical order directly from the triplet stamps.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub(crate) fn apply_c(&self, x: &[f64]) -> Vec<f64> {
        apply_stamps(self.dim, &self.c_stamps, x)
    }

    /// Real-valued unit excitation of one source (every other source off) —
    /// the `B` column of the descriptor state space.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownSource`] if the source does not exist.
    pub(crate) fn unit_excitation_real(&self, excited: SourceId) -> Result<Vec<f64>, CircuitError> {
        Ok(self.unit_excitation(excited)?.iter().map(|z| z.re).collect())
    }

    /// Builds the complex system matrix `A(s) = G + s·C` densely, in logical
    /// order (intended for inspection; `MnaSystem::assemble_csc_complex` is
    /// the sparse equivalent the AC analysis uses).
    pub fn complex_system(&self, s: Complex) -> Matrix<Complex> {
        let mut a = Matrix::<Complex>::zeros(self.dim, self.dim);
        for &(r, c, v) in &self.g_stamps {
            a.add_at(r, c, Complex::from_real(v));
        }
        for &(r, c, v) in &self.c_stamps {
            a.add_at(r, c, s * v);
        }
        a
    }

    /// Builds the right-hand side for an AC/complex-frequency analysis in which
    /// the source `excited` has unit amplitude and every other source is off.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownSource`] if the source does not exist.
    pub(crate) fn unit_excitation(&self, excited: SourceId) -> Result<Vec<Complex>, CircuitError> {
        let position = self
            .source_ids
            .iter()
            .position(|&id| id == excited.index())
            .ok_or(CircuitError::UnknownSource { index: excited.index() })?;
        let mut b = vec![Complex::ZERO; self.dim];
        match &self.sources[position] {
            SourceStamp::Voltage { row, .. } => {
                b[*row] = Complex::ONE;
            }
            SourceStamp::Current { plus_row, minus_row, .. } => {
                if let Some(p) = plus_row {
                    b[*p] = Complex::ONE;
                }
                if let Some(m) = minus_row {
                    b[*m] -= Complex::ONE;
                }
            }
        }
        Ok(b)
    }
}

fn apply_stamps(dim: usize, stamps: &[Stamp], x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), dim, "vector length must equal system dimension");
    let mut y = vec![0.0; dim];
    apply_stamps_scaled(stamps, 1.0, x, &mut y);
    y
}

/// Accumulates `y += scale · stamps · x` — the one scatter-accumulate kernel
/// behind every stamp-level operator application.
fn apply_stamps_scaled(stamps: &[Stamp], scale: f64, x: &[f64], y: &mut [f64]) {
    for &(r, c, v) in stamps {
        y[r] += scale * v * x[c];
    }
}

fn dense_from_stamps(dim: usize, stamps: &[Stamp]) -> Matrix<f64> {
    let mut m = Matrix::zeros(dim, dim);
    for &(r, c, v) in stamps {
        m.add_at(r, c, v);
    }
    m
}

/// Stamps a two-terminal admittance-like value.
fn stamp_conductance(
    stamps: &mut Vec<Stamp>,
    plus: Option<usize>,
    minus: Option<usize>,
    value: f64,
) {
    if let Some(p) = plus {
        stamps.push((p, p, value));
    }
    if let Some(q) = minus {
        stamps.push((q, q, value));
    }
    if let (Some(p), Some(q)) = (plus, minus) {
        stamps.push((p, q, -value));
        stamps.push((q, p, -value));
    }
}

/// Stamps the incidence pattern of a branch-current unknown (voltage source or
/// inductor) into `G`.
fn stamp_branch_incidence(
    stamps: &mut Vec<Stamp>,
    plus: Option<usize>,
    minus: Option<usize>,
    branch: usize,
) {
    if let Some(p) = plus {
        stamps.push((p, branch, 1.0));
        stamps.push((branch, p, 1.0));
    }
    if let Some(q) = minus {
        stamps.push((q, branch, -1.0));
        stamps.push((branch, q, -1.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_units::{Capacitance, Inductance, Resistance, Voltage};

    fn simple_rc() -> (Circuit, NodeId, NodeId) {
        // V(step) - R - node a - C - ground
        let mut c = Circuit::new();
        let input = c.add_node();
        let a = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_resistor(input, a, Resistance::from_ohms(1000.0)).unwrap();
        c.add_capacitor(a, gnd, Capacitance::from_picofarads(1.0)).unwrap();
        (c, input, a)
    }

    #[test]
    fn dimensions_count_branches() {
        let (c, _, _) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        // 2 node unknowns + 1 voltage-source branch.
        assert_eq!(mna.node_unknowns(), 2);
        assert_eq!(mna.dim(), 3);
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let c = Circuit::new();
        assert!(matches!(MnaSystem::build(&c), Err(CircuitError::EmptyCircuit)));
    }

    #[test]
    fn resistor_stamp_is_symmetric() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_resistor(a, b, Resistance::from_ohms(500.0)).unwrap();
        let mna = MnaSystem::build(&c).unwrap();
        let g = mna.dense_g();
        let conductance = 1.0 / 500.0;
        assert!((g[(0, 0)] - conductance - GMIN).abs() < 1e-15);
        assert!((g[(1, 1)] - conductance - GMIN).abs() < 1e-15);
        assert!((g[(0, 1)] + conductance).abs() < 1e-15);
        assert!((g[(1, 0)] + conductance).abs() < 1e-15);
    }

    #[test]
    fn capacitor_stamps_into_storage_matrix() {
        let (c, _, a) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        let row = mna.row_of_node(a).unwrap();
        assert!((mna.dense_c()[(row, row)] - 1e-12).abs() < 1e-24);
        // G at that node only has the resistor + GMIN.
        assert!((mna.dense_g()[(row, row)] - 1e-3 - GMIN).abs() < 1e-12);
    }

    #[test]
    fn inductor_gets_branch_row() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(a, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_inductor(a, b, Inductance::from_nanohenries(5.0)).unwrap();
        c.add_resistor(b, gnd, Resistance::from_ohms(50.0)).unwrap();
        let mna = MnaSystem::build(&c).unwrap();
        // 2 nodes + 2 branches (V source + inductor).
        assert_eq!(mna.dim(), 4);
        // Inductor branch is the last row; its C entry is -L.
        assert!((mna.dense_c()[(3, 3)] + 5e-9).abs() < 1e-20);
        // Incidence of the inductor branch into its nodes.
        let g = mna.dense_g();
        assert_eq!(g[(0, 3)], 1.0);
        assert_eq!(g[(1, 3)], -1.0);
        assert_eq!(g[(3, 0)], 1.0);
        assert_eq!(g[(3, 1)], -1.0);
    }

    #[test]
    fn mutual_inductor_stamps_minus_m_between_branch_rows() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(a, gnd, SourceWaveform::unit_step()).unwrap();
        let l1 = c.add_inductor(a, gnd, Inductance::from_nanohenries(2.0)).unwrap();
        let l2 = c.add_inductor(b, gnd, Inductance::from_nanohenries(8.0)).unwrap();
        c.add_resistor(b, gnd, Resistance::from_ohms(50.0)).unwrap();
        c.add_mutual_inductor(l1, l2, 0.5).unwrap();
        let mna = MnaSystem::build(&c).unwrap();
        // 2 nodes + 3 branches (source + 2 inductors); the K element adds none.
        assert_eq!(mna.dim(), 5);
        let cc = mna.dense_c();
        // M = k·sqrt(L1·L2) = 0.5·sqrt(2n·8n) = 2 nH, stamped as −M
        // symmetrically between the two inductor branch rows (3 and 4).
        let m = 0.5 * (2e-9f64 * 8e-9).sqrt();
        assert!((cc[(3, 4)] + m).abs() < 1e-22);
        assert!((cc[(4, 3)] + m).abs() < 1e-22);
        // The self terms are untouched.
        assert!((cc[(3, 3)] + 2e-9).abs() < 1e-22);
        assert!((cc[(4, 4)] + 8e-9).abs() < 1e-22);
        // The K element leaves G alone.
        let g = mna.dense_g();
        assert_eq!(g[(3, 4)], 0.0);
        assert_eq!(g[(4, 3)], 0.0);
    }

    #[test]
    fn negative_coupling_flips_the_mutual_sign() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(a, gnd, SourceWaveform::unit_step()).unwrap();
        let l1 = c.add_inductor(a, gnd, Inductance::from_nanohenries(4.0)).unwrap();
        let l2 = c.add_inductor(b, gnd, Inductance::from_nanohenries(4.0)).unwrap();
        c.add_mutual_inductor(l1, l2, -0.25).unwrap();
        let mna = MnaSystem::build(&c).unwrap();
        let cc = mna.dense_c();
        assert!((cc[(3, 4)] - 0.25 * 4e-9).abs() < 1e-22);
    }

    #[test]
    fn rhs_tracks_source_waveform() {
        let (c, _, _) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        let mut b = vec![0.0; mna.dim()];
        mna.rhs_at(Time::ZERO, &mut b);
        assert_eq!(b, vec![0.0, 0.0, 0.0]);
        mna.rhs_at(Time::from_picoseconds(1.0), &mut b);
        assert_eq!(b[2], 1.0);
    }

    #[test]
    fn current_source_rhs() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let gnd = c.ground();
        c.add_resistor(a, gnd, Resistance::from_ohms(100.0)).unwrap();
        let src = c
            .add_current_source(a, gnd, SourceWaveform::Dc { level: Voltage::from_volts(2e-3) })
            .unwrap();
        let mna = MnaSystem::build(&c).unwrap();
        let mut b = vec![0.0; mna.dim()];
        mna.rhs_at(Time::ZERO, &mut b);
        assert!((b[0] - 2e-3).abs() < 1e-15);
        let ac = mna.unit_excitation(src).unwrap();
        assert_eq!(ac[0], Complex::ONE);
    }

    #[test]
    fn unit_excitation_selects_the_right_source() {
        let (c, _, _) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        let b = mna.unit_excitation(SourceId(0)).unwrap();
        assert_eq!(b[2], Complex::ONE);
        assert!(matches!(
            mna.unit_excitation(SourceId(5)),
            Err(CircuitError::UnknownSource { index: 5 })
        ));
    }

    #[test]
    fn stamp_mat_vec_matches_dense_products() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(a, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_inductor(a, b, Inductance::from_nanohenries(3.0)).unwrap();
        c.add_capacitor(b, gnd, Capacitance::from_picofarads(2.0)).unwrap();
        c.add_resistor(b, gnd, Resistance::from_ohms(75.0)).unwrap();
        let mna = MnaSystem::build(&c).unwrap();
        let x: Vec<f64> = (0..mna.dim()).map(|i| (i as f64 + 1.0) * 0.5).collect();
        let via_stamps = mna.apply_g(&x);
        let via_dense = mna.dense_g().mul_vec(&x);
        for (s, d) in via_stamps.iter().zip(via_dense.iter()) {
            assert!((s - d).abs() < 1e-12 * d.abs().max(1.0));
        }
        let via_stamps = mna.apply_c(&x);
        let via_dense = mna.dense_c().mul_vec(&x);
        for (s, d) in via_stamps.iter().zip(via_dense.iter()) {
            assert!((s - d).abs() < 1e-24 + 1e-12 * d.abs());
        }
    }

    #[test]
    fn real_unit_excitation_matches_the_complex_one() {
        let (c, _, _) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        let real = mna.unit_excitation_real(SourceId(0)).unwrap();
        assert_eq!(real, vec![0.0, 0.0, 1.0]);
        assert!(mna.unit_excitation_real(SourceId(9)).is_err());
    }

    #[test]
    fn complex_system_combines_g_and_c() {
        let (c, _, a) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        let s = Complex::new(0.0, 1e9);
        let m = mna.complex_system(s);
        let row = mna.row_of_node(a).unwrap();
        let expected = Complex::new(1e-3 + GMIN, 1e9 * 1e-12);
        assert!((m[(row, row)] - expected).abs() < 1e-12);
    }

    #[test]
    fn ground_node_has_no_row() {
        let (c, input, _) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        assert_eq!(mna.row_of_node(c.ground()), None);
        assert_eq!(mna.row_of_node(input), Some(0));
    }

    #[test]
    fn assemble_csc_matches_dense_combination() {
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let gnd = c.ground();
        c.add_voltage_source(a, gnd, SourceWaveform::unit_step()).unwrap();
        c.add_inductor(a, b, Inductance::from_nanohenries(5.0)).unwrap();
        c.add_capacitor(b, gnd, Capacitance::from_picofarads(2.0)).unwrap();
        c.add_resistor(b, gnd, Resistance::from_ohms(50.0)).unwrap();
        let mna = MnaSystem::build(&c).unwrap();
        let (gs, cs) = (0.5, 1e12);
        let csc = mna.assemble_csc_real(gs, cs).to_dense();
        let g = mna.dense_g();
        let cc = mna.dense_c();
        for i in 0..mna.dim() {
            for j in 0..mna.dim() {
                let want = gs * g[(i, j)] + cs * cc[(i, j)];
                let got = csc[(i, j)];
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "({i},{j}): csc {got} vs dense {want}"
                );
            }
        }
    }

    #[test]
    fn apply_real_matches_the_dense_operator() {
        let (c, _, _) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        let x: Vec<f64> = (0..mna.dim()).map(|i| 0.3 * i as f64 - 0.5).collect();
        let (gs, cs) = (-0.5, 1e12);
        let got = mna.apply_real(gs, cs, &x);
        let g = mna.dense_g().mul_vec(&x);
        let cc = mna.dense_c().mul_vec(&x);
        for i in 0..mna.dim() {
            let want = gs * g[i] + cs * cc[i];
            assert!((got[i] - want).abs() < 1e-9 * want.abs().max(1.0));
        }
    }

    #[test]
    fn sparse_symbolic_is_computed_once_and_covers_the_union_pattern() {
        let (c, _, _) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        let first = mna.sparse_symbolic() as *const _;
        let second = mna.sparse_symbolic() as *const _;
        assert_eq!(first, second, "the symbolic phase must be cached");
        assert_eq!(mna.sparse_symbolic().dim(), mna.dim());
    }

    #[test]
    fn assemble_complex_matches_complex_system() {
        let (c, _, _) = simple_rc();
        let mna = MnaSystem::build(&c).unwrap();
        let s = Complex::new(1e8, -2e9);
        let csc = mna.assemble_csc_complex(s).to_dense();
        let dense = mna.complex_system(s);
        for i in 0..mna.dim() {
            for j in 0..mna.dim() {
                assert!((csc[(i, j)] - dense[(i, j)]).abs() < 1e-12);
            }
        }
    }
}
