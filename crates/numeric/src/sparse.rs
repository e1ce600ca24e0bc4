//! Compressed-sparse-column matrices and fill-reducing sparse LU — the one
//! LU kernel of every MNA analysis (ladders, buses, branching trees and
//! meshes alike):
//!
//! * [`CscMatrix`] — compressed-sparse-column storage built from triplet
//!   stamps, `O(nnz)` memory;
//! * [`approximate_minimum_degree`] — the AMD fill-reducing elimination
//!   ordering on the symmetrised pattern (quotient graph, approximate
//!   external degrees), near-linear and therefore viable at 10⁵–10⁶
//!   unknowns; [`minimum_degree`] keeps the classical quadratic heuristic
//!   around as the fill-quality reference;
//! * [`SparseSymbolic`] — the reusable symbolic phase: the fill-reducing
//!   column order computed once per sparsity pattern and shared by every
//!   numeric factorisation of that pattern (DC, transient and each AC
//!   frequency point factor different matrices with the *same* pattern);
//! * [`SparseLuFactor`] — the numeric phase: a left-looking Gilbert–Peierls
//!   LU with threshold partial pivoting, `O(nnz(L) + nnz(U))` storage and
//!   `O(flops(L·U))` time, generic over real and complex scalars. A factor
//!   additionally supports value-only **refactorisation**
//!   ([`SparseLuFactor::refactor`] — same pattern, new values, frozen pivot
//!   sequence, no symbolic work and no allocation of factor storage).
//!
//! On an RLC ladder or tree with `n` unknowns the factors stay `O(n)`
//! (elimination of a tree in leaf-to-root order creates no fill), so
//! factorisation and each solve are `O(n)` against the dense
//! `O(n³)`/`O(n²)`.

use crate::lu::{FactorizeError, SINGULARITY_THRESHOLD};
use crate::matrix::{Matrix, Scalar};

/// Sentinel for "row not yet pivotal" during factorisation.
const UNSET: usize = usize::MAX;

/// Threshold partial pivoting: the diagonal entry stays the pivot while its
/// magnitude is at least this fraction of the column's largest candidate
/// (SPICE's default relative pivot tolerance). Keeping diagonal pivots keeps
/// the elimination on the fill-reducing order of the symmetrised pattern;
/// strict partial pivoting on coupled-bus MNA systems picks off-diagonal
/// rows whose fill grows toward a dense factor.
const DIAGONAL_PIVOT_THRESHOLD: f64 = 1e-3;

/// A square sparse matrix in compressed-sparse-column form.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix<T: Scalar = f64> {
    n: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes the entries of column `j`.
    col_ptr: Vec<usize>,
    /// Row index of every entry, sorted within each column.
    row_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CscMatrix<T> {
    /// Builds an `n × n` matrix from additive triplets `(row, col, value)`.
    ///
    /// Duplicate positions are summed — exactly the MNA stamping convention —
    /// and explicit zeros (including stamps that cancel) are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or any index is out of range.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, T)]) -> Self {
        assert!(n > 0, "sparse matrix dimension must be non-zero");
        let mut cols: Vec<Vec<(usize, T)>> = vec![Vec::new(); n];
        for &(r, c, v) in triplets {
            assert!(r < n && c < n, "triplet index ({r}, {c}) out of bounds for dimension {n}");
            cols[c].push((r, v));
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        col_ptr.push(0);
        for col in &mut cols {
            col.sort_unstable_by_key(|&(r, _)| r);
            let mut iter = col.iter().copied().peekable();
            while let Some((r, mut v)) = iter.next() {
                while iter.peek().is_some_and(|&(r2, _)| r2 == r) {
                    v = v + iter.next().expect("peeked").1;
                }
                if v != T::zero() {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        Self { n, col_ptr, row_idx, values }
    }

    /// Builds a matrix directly from compressed-sparse-column arrays.
    ///
    /// Unlike [`CscMatrix::from_triplets`] this keeps explicitly stored
    /// zeros. Callers that reuse one pattern with changing values — the
    /// scatter-map assembly feeding [`SparseLuFactor::refactor`] — need the
    /// pattern to stay identical no matter which values happen to cancel.
    ///
    /// # Panics
    ///
    /// Panics unless the arrays form a well-formed CSC structure: `col_ptr`
    /// has length `n + 1`, starts at 0, ends at `row_idx.len()` and is
    /// non-decreasing; each column's row indices are strictly increasing and
    /// in range; `values` parallels `row_idx`.
    pub fn from_parts(n: usize, col_ptr: Vec<usize>, row_idx: Vec<usize>, values: Vec<T>) -> Self {
        assert!(n > 0, "sparse matrix dimension must be non-zero");
        assert_eq!(col_ptr.len(), n + 1, "col_ptr length must be dimension + 1");
        assert_eq!(col_ptr[0], 0, "col_ptr must start at zero");
        assert_eq!(*col_ptr.last().expect("non-empty"), row_idx.len(), "col_ptr must end at nnz");
        assert_eq!(values.len(), row_idx.len(), "values must parallel row_idx");
        for j in 0..n {
            assert!(col_ptr[j] <= col_ptr[j + 1], "col_ptr must be non-decreasing");
            let rows = &row_idx[col_ptr[j]..col_ptr[j + 1]];
            for pair in rows.windows(2) {
                assert!(pair[0] < pair[1], "row indices of column {j} must strictly increase");
            }
            if let Some(&last) = rows.last() {
                assert!(last < n, "row index {last} out of bounds for dimension {n}");
            }
        }
        Self { n, col_ptr, row_idx, values }
    }

    /// Matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The row indices of column `j`.
    #[inline]
    pub(crate) fn col_rows(&self, j: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// The values of column `j`, parallel to [`CscMatrix::col_rows`].
    #[inline]
    pub(crate) fn col_values(&self, j: usize) -> &[T] {
        &self.values[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    /// Matrix–vector product `A·x` in `O(nnz)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n, "vector length must equal matrix dimension");
        let mut y = vec![T::zero(); self.n];
        for (j, &xj) in x.iter().enumerate() {
            if xj != T::zero() {
                for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                    y[i] = y[i] + v * xj;
                }
            }
        }
        y
    }

    /// Expands to a dense [`Matrix`] (tests and small-system fallbacks).
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Induced ∞-norm `‖A‖∞` — the maximum row sum of moduli, `O(nnz)`.
    pub fn norm_inf(&self) -> f64 {
        let mut row_sums = vec![0.0_f64; self.n];
        for (&i, &v) in self.row_idx.iter().zip(self.values.iter()) {
            row_sums[i] += v.modulus();
        }
        row_sums.into_iter().fold(0.0, f64::max)
    }

    /// Induced 1-norm `‖A‖₁` — the maximum column sum of moduli, `O(nnz)`.
    pub(crate) fn norm_one(&self) -> f64 {
        (0..self.n)
            .map(|j| self.col_values(j).iter().map(|v| v.modulus()).sum())
            .fold(0.0, f64::max)
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.n).flat_map(move |j| {
            self.col_rows(j).iter().zip(self.col_values(j)).map(move |(&i, &v)| (i, j, v))
        })
    }

    /// The column-pointer array of the CSC structure (`n + 1` entries).
    #[inline]
    pub fn col_ptr_slice(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row-index array of the CSC structure, parallel per column to the
    /// stored values.
    #[inline]
    pub fn row_idx_slice(&self) -> &[usize] {
        &self.row_idx
    }

    /// A stable 64-bit FNV-1a content hash of the **sparsity pattern alone**
    /// (dimension, column pointers, row indices — no values).
    ///
    /// Two matrices share a pattern key exactly when they share their stored
    /// structure, which is the precondition for reusing a
    /// [`SparseSymbolic`] and for value-only
    /// [`SparseLuFactor::refactor`]-style factor reuse. The hash is
    /// process-independent (no randomised state), so it can key cross-run
    /// caches. Equivalent to [`csc_pattern_key`] over this matrix's arrays.
    pub fn pattern_key(&self) -> u64 {
        csc_pattern_key(self.n, &self.col_ptr, &self.row_idx)
    }
}

/// The stable pattern hash behind [`CscMatrix::pattern_key`], usable by
/// callers that hold raw CSC structure arrays without a materialised matrix
/// (e.g. a cached assembly scatter map).
pub fn csc_pattern_key(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> u64 {
    let mut h = PatternHash::new();
    h.write_u64(n as u64);
    for &p in col_ptr {
        h.write_u64(p as u64);
    }
    for &r in row_idx {
        h.write_u64(r as u64);
    }
    h.finish()
}

impl CscMatrix<f64> {
    /// A stable 64-bit FNV-1a hash of the stored **values' bit patterns**
    /// (pattern not included). Combined with [`CscMatrix::pattern_key`] it
    /// identifies a matrix bit-exactly: same pattern key and same value key
    /// means byte-identical storage.
    pub fn value_key(&self) -> u64 {
        let mut h = PatternHash::new();
        for &v in &self.values {
            h.write_u64(v.to_bits());
        }
        h.finish()
    }
}

/// Minimal FNV-1a hasher behind [`CscMatrix::pattern_key`] /
/// [`CscMatrix::value_key`] — deliberately independent of `std`'s randomised
/// `DefaultHasher` so keys are stable across processes and runs.
struct PatternHash {
    state: u64,
}

impl PatternHash {
    fn new() -> Self {
        Self { state: 0xCBF2_9CE4_8422_2325 }
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x1_0000_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Computes a fill-reducing elimination ordering of a symmetric sparsity
/// pattern with the classical minimum-degree heuristic.
///
/// `adjacency[i]` lists the neighbours of unknown `i` (self-loops ignored).
/// Returns `perm` with `perm[logical] = position`: the unknown eliminated
/// first has position 0. Ties break on the smallest index, so the ordering
/// is deterministic.
///
/// Eliminating a vertex joins its remaining neighbours into a clique (the
/// fill its pivot would create); always eliminating a currently
/// minimum-degree vertex keeps those cliques — and therefore the LU fill —
/// small. On trees it reproduces a perfect (zero-fill) leaf-to-root order.
pub fn minimum_degree(n: usize, adjacency: &[Vec<usize>]) -> Vec<usize> {
    assert_eq!(adjacency.len(), n, "adjacency list length must equal dimension");
    use std::collections::BTreeSet;
    let mut adj: Vec<BTreeSet<usize>> = adjacency
        .iter()
        .enumerate()
        .map(|(i, list)| list.iter().copied().filter(|&j| j != i && j < n).collect())
        .collect();
    let mut alive = vec![true; n];
    let mut perm = vec![0usize; n];
    for k in 0..n {
        // Smallest degree, smallest index first: deterministic and cheap.
        let mut best = UNSET;
        let mut best_degree = usize::MAX;
        for (v, a) in adj.iter().enumerate() {
            if alive[v] && a.len() < best_degree {
                best_degree = a.len();
                best = v;
            }
        }
        let v = best;
        perm[v] = k;
        alive[v] = false;
        let neighbours: Vec<usize> = adj[v].iter().copied().collect();
        for &u in &neighbours {
            adj[u].remove(&v);
            for &w in &neighbours {
                if w != u {
                    adj[u].insert(w);
                }
            }
        }
        adj[v].clear();
    }
    perm
}

/// Computes a fill-reducing elimination ordering with the **approximate
/// minimum degree** (AMD) heuristic of Amestoy, Davis and Duff.
///
/// Same contract as [`minimum_degree`] — `adjacency[i]` lists the neighbours
/// of unknown `i`, the result is `perm[logical] = position`, ties break on
/// the smallest index so the ordering is deterministic — but where the
/// classical algorithm materialises every fill clique and rescans all
/// degrees per pivot (quadratic, hopeless past ~10⁴ unknowns), AMD works on
/// the *quotient graph*: an eliminated vertex becomes an *element* that
/// stands for its clique by reference, overlapping elements are absorbed
/// into one another, and external degrees are tracked through an
/// upper-bound approximation `d̂ᵢ ≥ dᵢ` that one pass over the pivot's
/// front can maintain. A lazy priority queue replaces the min-degree scan.
///
/// The approximation is exact whenever a vertex touches at most two
/// elements — always true while the graph is a forest — so AMD reproduces
/// the classical zero-fill leaf-to-root order on trees, while staying
/// near-linear in `nnz` on meshes and other fill-heavy patterns.
pub fn approximate_minimum_degree(n: usize, adjacency: &[Vec<usize>]) -> Vec<usize> {
    assert_eq!(adjacency.len(), n, "adjacency list length must equal dimension");
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Node {
        Variable,
        Element,
        Absorbed,
    }

    // Quotient-graph state. A live variable i keeps its remaining direct
    // neighbours (`adj_vars[i]`) and the elements whose cliques contain it
    // (`adj_elems[i]`); an element e (slot reused from the variable
    // eliminated there) keeps its boundary `elem_vars[e]` — the live
    // variables of its clique. Dead entries are pruned lazily against
    // `state`, so no list is ever rebuilt wholesale.
    let mut adj_vars: Vec<Vec<usize>> = adjacency
        .iter()
        .enumerate()
        .map(|(i, list)| {
            let mut l: Vec<usize> = list.iter().copied().filter(|&j| j != i && j < n).collect();
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect();
    let mut adj_elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elem_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut degree: Vec<usize> = adj_vars.iter().map(Vec::len).collect();
    let mut state = vec![Node::Variable; n];
    let mut perm = vec![0usize; n];

    // Lazy min-heap over (degree, index): entries go stale when a degree
    // changes and are skipped on pop; the index component gives the
    // smallest-index tie-break.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|i| Reverse((degree[i], i))).collect();

    // Stamped marker arrays (no clearing between pivots):
    // `in_front[v] == stamp` ⇔ v ∈ Lp ∪ {p}; `seen_elem[e] == stamp` ⇔
    // `excess[e]` currently holds |Le \ Lp| for this pivot.
    let mut in_front = vec![0u64; n];
    let mut seen_elem = vec![0u64; n];
    let mut excess = vec![0usize; n];
    let mut stamp = 0u64;
    let mut front: Vec<usize> = Vec::new();

    for k in 0..n {
        let p = loop {
            let Reverse((d, v)) = heap.pop().expect("every live variable has a valid heap entry");
            if state[v] == Node::Variable && degree[v] == d {
                break v;
            }
        };
        perm[p] = k;
        state[p] = Node::Element;
        stamp += 1;
        in_front[p] = stamp;

        // The pivot front Lp: p's live direct neighbours plus the boundaries
        // of every element containing p. Those elements merge into the new
        // element p and disappear.
        front.clear();
        for &v in &adj_vars[p] {
            if state[v] == Node::Variable && in_front[v] != stamp {
                in_front[v] = stamp;
                front.push(v);
            }
        }
        let merged = std::mem::take(&mut adj_elems[p]);
        for &e in &merged {
            if state[e] != Node::Element {
                continue;
            }
            let vars = std::mem::take(&mut elem_vars[e]);
            for &v in &vars {
                if state[v] == Node::Variable && in_front[v] != stamp {
                    in_front[v] = stamp;
                    front.push(v);
                }
            }
            state[e] = Node::Absorbed;
        }
        front.sort_unstable();
        elem_vars[p] = front.clone();
        adj_vars[p] = Vec::new();
        adj_elems[p] = Vec::new();

        // One pass over the front counts |Le \ Lp| for every surviving
        // element e touching it: start from |Le| and subtract one per front
        // variable that lists e.
        for &i in &front {
            for &e in &adj_elems[i] {
                if state[e] != Node::Element {
                    continue;
                }
                if seen_elem[e] != stamp {
                    seen_elem[e] = stamp;
                    excess[e] = elem_vars[e].len();
                }
                excess[e] -= 1;
            }
        }
        // Aggressive absorption: a clique entirely inside the new one adds
        // no information and would only slow later passes down.
        for &i in &front {
            for &e in &adj_elems[i] {
                if state[e] == Node::Element && seen_elem[e] == stamp && excess[e] == 0 {
                    state[e] = Node::Absorbed;
                    elem_vars[e].clear();
                }
            }
        }

        // Rebuild each front variable's lists and recompute its approximate
        // external degree d̂ᵢ = min(n−k−1, d̂ᵢ + |Lp∖i|, |Aᵢ∖Lp| + |Lp∖i| +
        // Σ_{e∈Eᵢ∖p} |Le∖Lp|) — the AMD bound.
        let front_minus = front.len().saturating_sub(1);
        for &i in &front {
            adj_elems[i].retain(|&e| state[e] == Node::Element);
            let mut clique_sum = 0usize;
            for &e in &adj_elems[i] {
                clique_sum += excess[e];
            }
            adj_elems[i].push(p);
            // Neighbours inside the front are now reached through element p;
            // drop them (and dead vertices) from the direct list.
            adj_vars[i].retain(|&v| state[v] == Node::Variable && in_front[v] != stamp);
            let exact_part = adj_vars[i].len() + front_minus;
            let amd_bound = degree[i] + front_minus;
            let clique_bound = exact_part + clique_sum;
            degree[i] = (n - k - 1).min(amd_bound).min(clique_bound);
            heap.push(Reverse((degree[i], i)));
        }
    }
    perm
}

/// The symbolic phase of a sparse factorisation: the fill-reducing column
/// order of one sparsity pattern.
///
/// Computed once per pattern ([`SparseSymbolic::analyze`]) and reused by
/// every [`SparseLuFactor`] of a matrix with that pattern — the DC, transient
/// and AC analyses of one circuit all factor `gs·G + cs·C` for different
/// scalars, so they share one symbolic object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseSymbolic {
    n: usize,
    /// `order[k]` = logical column eliminated at step `k`.
    order: Vec<usize>,
    /// Inverse of `order`: `perm[logical] = position`.
    perm: Vec<usize>,
}

impl SparseSymbolic {
    /// Analyses a sparsity pattern given as `(row, col)` pairs.
    ///
    /// The pattern is symmetrised (`A + Aᵀ`), as usual for LU with partial
    /// pivoting on structurally symmetric MNA systems, and ordered with
    /// [`approximate_minimum_degree`] — near-linear in `nnz`, so the
    /// symbolic phase stays off the critical path even at 10⁵–10⁶ unknowns.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or any index is out of range.
    pub fn analyze(n: usize, pattern: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let _span = rlckit_telemetry::span("sparse.symbolic");
        assert!(n > 0, "symbolic dimension must be non-zero");
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (r, c) in pattern {
            assert!(r < n && c < n, "pattern index ({r}, {c}) out of bounds for dimension {n}");
            if r != c {
                adjacency[r].push(c);
                adjacency[c].push(r);
            }
        }
        for list in &mut adjacency {
            list.sort_unstable();
            list.dedup();
        }
        let perm = approximate_minimum_degree(n, &adjacency);
        let mut order = vec![0usize; n];
        for (logical, &position) in perm.iter().enumerate() {
            order[position] = logical;
        }
        Self { n, order, perm }
    }

    /// Wraps an externally computed elimination order given in
    /// `perm[logical] = position` convention (the convention of
    /// [`minimum_degree`] and [`approximate_minimum_degree`]), so ordering
    /// heuristics can be compared through the same factorisation kernel.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n` or `n` is zero.
    pub fn from_permutation(n: usize, perm: Vec<usize>) -> Self {
        assert!(n > 0, "symbolic dimension must be non-zero");
        assert_eq!(perm.len(), n, "permutation length must match the dimension");
        let mut order = vec![usize::MAX; n];
        for (logical, &position) in perm.iter().enumerate() {
            assert!(position < n, "permutation entry {position} out of range");
            assert_eq!(order[position], usize::MAX, "permutation must be a bijection");
            order[position] = logical;
        }
        Self { n, order, perm }
    }

    /// Dimension of the analysed pattern.
    pub fn dim(&self) -> usize {
        self.n
    }
}

/// A sparse LU factorisation `P·A·Q = L·U` (left-looking Gilbert–Peierls with
/// threshold partial pivoting).
///
/// `Q` is the fill-reducing column order from a [`SparseSymbolic`]; `P` is
/// chosen during elimination for stability, preferring the diagonal while its
/// magnitude is at least 10⁻³ of the largest candidate's. `L` is unit lower triangular with
/// the unit diagonal stored first in each column, `U` is upper triangular
/// with the diagonal stored last — both in compressed-column form, so a solve
/// is one sparse forward and one sparse backward substitution.
#[derive(Debug, Clone)]
pub struct SparseLuFactor<T: Scalar = f64> {
    n: usize,
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<T>,
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<T>,
    /// `pinv[old_row] = pivotal position`.
    pinv: Vec<usize>,
    /// `order[k]` = logical column eliminated at step `k` (from the symbolic).
    order: Vec<usize>,
}

impl<T: Scalar> SparseLuFactor<T> {
    /// Factorises `a` under the column order of `symbolic`.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError::Singular`] if no acceptable pivot exists in
    /// some column (reported with the *logical* column index).
    ///
    /// # Panics
    ///
    /// Panics if `symbolic.dim() != a.dim()`.
    pub fn factor(a: &CscMatrix<T>, symbolic: &SparseSymbolic) -> Result<Self, FactorizeError> {
        let _span = rlckit_telemetry::span("sparse.factor");
        let n = a.dim();
        assert_eq!(symbolic.dim(), n, "symbolic and matrix dimensions must agree");

        let mut pinv = vec![UNSET; n];
        // Dense workspaces indexed by old row: the current column's values,
        // a visited flag for the DFS, and the DFS stacks.
        let mut x = vec![T::zero(); n];
        let mut visited = vec![false; n];
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut node_stack: Vec<usize> = Vec::with_capacity(n);
        let mut edge_stack: Vec<usize> = Vec::with_capacity(n);

        let mut l_colptr = Vec::with_capacity(n + 1);
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<T> = Vec::new();
        let mut u_colptr = Vec::with_capacity(n + 1);
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<T> = Vec::new();
        l_colptr.push(0);
        u_colptr.push(0);

        for k in 0..n {
            let col = symbolic.order[k];

            // Symbolic step: reachability of A(:, col) through the computed L
            // columns, producing the fill pattern in topological order
            // (reverse DFS completion order). Graph edges run from a pivotal
            // row `i` to the rows of L column `pinv[i]`, i.e. along the
            // updates the numeric pass must apply in sequence.
            topo.clear();
            for &start in a.col_rows(col) {
                if visited[start] {
                    continue;
                }
                node_stack.push(start);
                edge_stack.push(0);
                visited[start] = true;
                while let Some(&i) = node_stack.last() {
                    let children: &[usize] = match pinv[i] {
                        UNSET => &[],
                        j => &l_rows[l_colptr[j]..l_colptr[j + 1]],
                    };
                    let e = edge_stack.last_mut().expect("stacks stay in lockstep");
                    let mut descended = false;
                    while *e < children.len() {
                        let child = children[*e];
                        *e += 1;
                        if !visited[child] {
                            visited[child] = true;
                            node_stack.push(child);
                            edge_stack.push(0);
                            descended = true;
                            break;
                        }
                    }
                    if !descended {
                        topo.push(i);
                        node_stack.pop();
                        edge_stack.pop();
                    }
                }
            }
            // Reverse completion order = topological order over update edges.
            topo.reverse();

            // Numeric step: scatter A(:, col), then run the sparse triangular
            // solve x ← L⁻¹·A(:, col) over the pattern.
            for (&i, &v) in a.col_rows(col).iter().zip(a.col_values(col)) {
                x[i] = v;
            }
            for &j in &topo {
                let pj = pinv[j];
                if pj == UNSET {
                    continue;
                }
                let xj = x[j];
                if xj != T::zero() {
                    // Skip the leading unit-diagonal entry of L column pj.
                    for p in (l_colptr[pj] + 1)..l_colptr[pj + 1] {
                        x[l_rows[p]] = x[l_rows[p]] - l_vals[p] * xj;
                    }
                }
            }

            // Pivot search over the not-yet-pivotal rows of the pattern,
            // keeping the diagonal while it passes the threshold.
            let mut pivot_row = UNSET;
            let mut pivot_mag = 0.0;
            for &i in &topo {
                if pinv[i] == UNSET {
                    let mag = x[i].modulus();
                    if mag > pivot_mag {
                        pivot_mag = mag;
                        pivot_row = i;
                    }
                }
            }
            if pinv[col] == UNSET && x[col].modulus() >= DIAGONAL_PIVOT_THRESHOLD * pivot_mag {
                pivot_row = col;
                pivot_mag = x[col].modulus();
            }
            if pivot_row == UNSET || !(pivot_mag > SINGULARITY_THRESHOLD) {
                // Clean the workspaces before reporting, for reuse safety.
                for &i in &topo {
                    x[i] = T::zero();
                    visited[i] = false;
                }
                return Err(FactorizeError::Singular { column: col });
            }
            let pivot = x[pivot_row];

            // Emit U column k: the already-pivotal pattern rows, diagonal last.
            for &i in &topo {
                if pinv[i] != UNSET {
                    u_rows.push(pinv[i]);
                    u_vals.push(x[i]);
                }
            }
            u_rows.push(k);
            u_vals.push(pivot);
            u_colptr.push(u_rows.len());

            // Emit L column k: unit diagonal first, then the below-diagonal
            // multipliers. Rows stay in *old* indices until the final remap.
            pinv[pivot_row] = k;
            l_rows.push(pivot_row);
            l_vals.push(T::one());
            for &i in &topo {
                if pinv[i] == UNSET {
                    l_rows.push(i);
                    l_vals.push(x[i] / pivot);
                }
            }
            l_colptr.push(l_rows.len());

            for &i in &topo {
                x[i] = T::zero();
                visited[i] = false;
            }
        }

        // Remap L's rows from old indices to pivotal positions.
        for r in &mut l_rows {
            *r = pinv[*r];
        }

        // Sort every U column ascending by row. Ascending pivotal order is a
        // valid topological order of the update dependencies (L is strictly
        // lower triangular in pivotal indices), which is what the value-only
        // refactorisation walks; the diagonal — the largest row of its
        // column — stays last, which `solve` relies on.
        let mut scratch: Vec<(usize, T)> = Vec::new();
        for j in 0..n {
            let lo = u_colptr[j];
            let hi = u_colptr[j + 1];
            scratch.clear();
            scratch.extend(u_rows[lo..hi].iter().copied().zip(u_vals[lo..hi].iter().copied()));
            scratch.sort_unstable_by_key(|&(r, _)| r);
            for (off, &(r, v)) in scratch.iter().enumerate() {
                u_rows[lo + off] = r;
                u_vals[lo + off] = v;
            }
        }

        // Factor-quality gauges, computed only under an active profiler: the
        // max-ratio scan over U and A is O(nnz) work the cold path skips.
        if rlckit_telemetry::enabled() {
            let nnz = a.nnz() as f64;
            rlckit_telemetry::gauge_set("sparse.l_nnz", l_rows.len() as f64);
            rlckit_telemetry::gauge_set("sparse.u_nnz", u_rows.len() as f64);
            rlckit_telemetry::gauge_set(
                "sparse.fill_ratio",
                (l_rows.len() + u_rows.len()) as f64 / nnz.max(1.0),
            );
            let max_u = u_vals.iter().map(|v| v.modulus()).fold(0.0, f64::max);
            let max_a =
                (0..n).flat_map(|j| a.col_values(j)).map(|v| v.modulus()).fold(0.0, f64::max);
            if max_a > 0.0 {
                let growth = max_u / max_a;
                rlckit_telemetry::gauge_set("sparse.pivot_growth", growth);
                rlckit_telemetry::check_metric(
                    "sparse.factor",
                    "pivot_growth",
                    growth,
                    crate::condition::PIVOT_GROWTH_WARN,
                    crate::condition::PIVOT_GROWTH_ERROR,
                );
            }
            // Near-singularity proxy from the U diagonal (see lu.rs): the
            // diagonal sits last in every U column.
            let mut max_d = 0.0_f64;
            let mut min_d = f64::INFINITY;
            for j in 0..n {
                let m = u_vals[u_colptr[j + 1] - 1].modulus();
                max_d = max_d.max(m);
                min_d = min_d.min(m);
            }
            rlckit_telemetry::check_metric(
                "sparse.factor",
                "near_singularity",
                f64::EPSILON * max_d / min_d,
                crate::condition::NEAR_SINGULAR_WARN,
                crate::condition::NEAR_SINGULAR_ERROR,
            );
        }

        Ok(Self {
            n,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            pinv,
            order: symbolic.order.clone(),
        })
    }

    /// Factorises with a freshly analysed symbolic phase (convenience for
    /// one-off factorisations; reuse a [`SparseSymbolic`] when factoring many
    /// matrices with one pattern).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SparseLuFactor::factor`].
    pub fn factor_auto(a: &CscMatrix<T>) -> Result<Self, FactorizeError> {
        let symbolic = SparseSymbolic::analyze(a.dim(), a.triplets().map(|(r, c, _)| (r, c)));
        Self::factor(a, &symbolic)
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in the `L` factor (including the unit diagonal).
    pub fn l_nnz(&self) -> usize {
        self.l_rows.len()
    }

    /// Stored entries in the `U` factor (including the diagonal).
    pub fn u_nnz(&self) -> usize {
        self.u_rows.len()
    }

    /// Recomputes the numeric values of the factors for a matrix with the
    /// same sparsity pattern as (or a sub-pattern of) the one originally
    /// factored, reusing the symbolic order, the pivot sequence **and** the
    /// fill pattern discovered by [`SparseLuFactor::factor`].
    ///
    /// This is the warm path for re-solving one circuit with new element
    /// values: no reachability DFS, no per-column pivot search, no growth of
    /// factor storage — just the sparse triangular-solve flops, column by
    /// column over the frozen pattern. Entries the new matrix lacks are
    /// treated as stored zeros.
    ///
    /// Because the pivot sequence is frozen, stability is inherited from the
    /// original pivot choice. That is the right trade for the intended
    /// caller — MNA matrices `gs·G + cs·C` re-evaluated for new scalars or
    /// perturbed element values keep their diagonal character — and a pivot
    /// that the new values do break shows up as an error, never silently.
    ///
    /// # Errors
    ///
    /// Returns [`FactorizeError::Singular`] if a frozen pivot becomes
    /// numerically zero under the new values (reported with the logical
    /// column index).
    ///
    /// # Panics
    ///
    /// Panics if `a.dim()` differs from the factored dimension, or if `a`
    /// has an entry outside the factored fill pattern (refactor a changed
    /// pattern with a fresh [`SparseLuFactor::factor`] instead).
    pub fn refactor(&mut self, a: &CscMatrix<T>) -> Result<(), FactorizeError> {
        let _span = rlckit_telemetry::span("sparse.refactor");
        assert_eq!(a.dim(), self.n, "refactor dimension must match the factored matrix");
        let n = self.n;
        let mut x = vec![T::zero(); n];
        // `in_pattern[pos] == k` ⇔ pivotal position `pos` belongs to column
        // k's frozen pattern (stamp scheme, never cleared).
        let mut in_pattern = vec![UNSET; n];
        for k in 0..n {
            let col = self.order[k];
            // Column k's pattern in pivotal positions: the U rows (all < k,
            // plus the trailing diagonal k) and the below-diagonal L rows.
            for p in self.u_colptr[k]..self.u_colptr[k + 1] {
                let r = self.u_rows[p];
                x[r] = T::zero();
                in_pattern[r] = k;
            }
            for p in (self.l_colptr[k] + 1)..self.l_colptr[k + 1] {
                let r = self.l_rows[p];
                x[r] = T::zero();
                in_pattern[r] = k;
            }
            for (&i, &v) in a.col_rows(col).iter().zip(a.col_values(col)) {
                let pos = self.pinv[i];
                assert_eq!(
                    in_pattern[pos], k,
                    "refactor pattern mismatch: entry ({i}, {col}) is outside the factored fill pattern"
                );
                x[pos] = v;
            }
            // Sparse triangular solve over the frozen pattern. U rows are
            // sorted ascending — a topological order of the updates — and
            // every row an applied L column touches is inside the pattern
            // (the fill-path property that created those entries).
            let diag = self.u_colptr[k + 1] - 1;
            for p in self.u_colptr[k]..diag {
                let j = self.u_rows[p];
                let xj = x[j];
                self.u_vals[p] = xj;
                if xj != T::zero() {
                    for q in (self.l_colptr[j] + 1)..self.l_colptr[j + 1] {
                        x[self.l_rows[q]] = x[self.l_rows[q]] - self.l_vals[q] * xj;
                    }
                }
            }
            let pivot = x[k];
            if !(pivot.modulus() > SINGULARITY_THRESHOLD) {
                return Err(FactorizeError::Singular { column: col });
            }
            self.u_vals[diag] = pivot;
            for q in (self.l_colptr[k] + 1)..self.l_colptr[k + 1] {
                self.l_vals[q] = x[self.l_rows[q]] / pivot;
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` with the stored factors in `O(nnz(L) + nnz(U))`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = vec![T::zero(); self.n];
        let mut work = vec![T::zero(); self.n];
        self.solve_into(b, &mut x, &mut work);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer, allocating nothing.
    ///
    /// The substitutions run in pivot order in `work`, which is then
    /// permuted into `x`; its contents on entry are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `b`, `x` or `work` does not have the matrix dimension.
    pub(crate) fn solve_into(&self, b: &[T], x: &mut [T], work: &mut [T]) {
        let _span = rlckit_telemetry::span("sparse.solve");
        assert_eq!(b.len(), self.n, "right-hand side length must equal matrix dimension");
        assert_eq!(x.len(), self.n, "solution length must equal matrix dimension");
        assert_eq!(work.len(), self.n, "workspace length must equal matrix dimension");
        // Row permutation: position k of the permuted system holds b[i] for
        // the row i pivotal at step k.
        for (i, &bi) in b.iter().enumerate() {
            work[self.pinv[i]] = bi;
        }
        // Forward substitution with unit-lower L (diagonal stored first).
        for j in 0..self.n {
            let xj = work[j];
            if xj != T::zero() {
                for p in (self.l_colptr[j] + 1)..self.l_colptr[j + 1] {
                    work[self.l_rows[p]] = work[self.l_rows[p]] - self.l_vals[p] * xj;
                }
            }
        }
        // Backward substitution with U (diagonal stored last).
        for j in (0..self.n).rev() {
            let d = self.u_vals[self.u_colptr[j + 1] - 1];
            let xj = work[j] / d;
            work[j] = xj;
            if xj != T::zero() {
                for p in self.u_colptr[j]..(self.u_colptr[j + 1] - 1) {
                    work[self.u_rows[p]] = work[self.u_rows[p]] - self.u_vals[p] * xj;
                }
            }
        }
        // Column permutation: solution position k belongs to logical
        // unknown order[k].
        for (k, &logical) in self.order.iter().enumerate() {
            x[logical] = work[k];
        }
    }

    /// Solves the transposed system `Aᵀ·x = b` with the same stored factors
    /// in `O(nnz(L) + nnz(U))`.
    ///
    /// With `P·A·Q = L·U` the transpose factors as `Aᵀ = Q·Uᵀ·Lᵀ·P`, so the
    /// permutations swap roles (the column order applies to the input, the
    /// pivot order to the output) and each substitution runs in dot-product
    /// form over the stored columns read as rows. Fuel for the Hager–Higham
    /// condition estimator ([`crate::condition::invnorm1_estimate`]).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the matrix dimension.
    pub(crate) fn solve_transpose(&self, b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.n, "right-hand side length must equal matrix dimension");
        // Column permutation on the input side: position k takes the logical
        // unknown eliminated at step k.
        let mut z = vec![T::zero(); self.n];
        for (k, &logical) in self.order.iter().enumerate() {
            z[k] = b[logical];
        }
        // Forward substitution with Uᵀ: row j of Uᵀ is U's column j, whose
        // off-diagonal entries (rows < j) precede the trailing diagonal.
        for j in 0..self.n {
            let diag = self.u_colptr[j + 1] - 1;
            let mut acc = z[j];
            for p in self.u_colptr[j]..diag {
                acc = acc - self.u_vals[p] * z[self.u_rows[p]];
            }
            z[j] = acc / self.u_vals[diag];
        }
        // Backward substitution with the unit-diagonal Lᵀ.
        for j in (0..self.n).rev() {
            let mut acc = z[j];
            for p in (self.l_colptr[j] + 1)..self.l_colptr[j + 1] {
                acc = acc - self.l_vals[p] * z[self.l_rows[p]];
            }
            z[j] = acc;
        }
        // Row permutation on the output side: x = Pᵀ·z.
        let mut out = vec![T::zero(); self.n];
        for (i, out_i) in out.iter_mut().enumerate() {
            *out_i = z[self.pinv[i]];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::lu::LuFactor;

    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }

    /// A random symmetric-pattern sparse matrix shaped like a tree MNA
    /// system: parent/child couplings of a random tree plus a dominant
    /// diagonal.
    fn random_tree_matrix(n: usize, seed: u64) -> CscMatrix<f64> {
        let mut state = seed;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 4.0 + lcg(&mut state).abs()));
            if i > 0 {
                // Pick a random earlier node as parent.
                let parent = (((lcg(&mut state) + 0.5) * i as f64) as usize).min(i - 1);
                let v = lcg(&mut state);
                triplets.push((i, parent, v));
                triplets.push((parent, i, v * 0.5 - 0.7));
            }
        }
        CscMatrix::from_triplets(n, &triplets)
    }

    #[test]
    fn from_triplets_sums_duplicates_and_drops_zeros() {
        let a = CscMatrix::from_triplets(
            3,
            &[(0, 0, 1.0), (0, 0, 2.0), (1, 2, 5.0), (1, 2, -5.0), (2, 1, -1.0)],
        );
        assert_eq!(a.dim(), 3);
        assert_eq!(a.to_dense()[(0, 0)], 3.0);
        assert_eq!(a.to_dense()[(1, 2)], 0.0); // cancelled stamp is dropped
        assert_eq!(a.to_dense()[(2, 1)], -1.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn mul_vec_and_to_dense_agree() {
        let a = random_tree_matrix(17, 0xFEED);
        let x: Vec<f64> = (0..17).map(|i| (i as f64 * 0.31).sin()).collect();
        let ys = a.mul_vec(&x);
        let yd = a.to_dense().mul_vec(&x);
        for (s, d) in ys.iter().zip(yd.iter()) {
            assert!((s - d).abs() < 1e-14);
        }
    }

    #[test]
    fn minimum_degree_is_a_bijection_and_orders_leaves_first() {
        // Star graph: centre 0 with 4 leaves. Leaves have degree 1 and must
        // all be eliminated before the centre.
        let adjacency = vec![vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]];
        let perm = minimum_degree(5, &adjacency);
        let mut seen = [false; 5];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        // Degree-1 leaves go first; the hub only becomes eligible once its
        // degree has dropped to match theirs (after 3 of 4 leaves are gone).
        assert!(perm[0] >= 3, "the hub must wait until the leaves shrink it, got {}", perm[0]);
    }

    #[test]
    fn symbolic_order_inverts_its_permutation() {
        let a = random_tree_matrix(12, 3);
        let sym = SparseSymbolic::analyze(12, a.triplets().map(|(r, c, _)| (r, c)));
        assert_eq!(sym.dim(), 12);
        for (logical, &position) in sym.perm.iter().enumerate() {
            assert_eq!(sym.order[position], logical);
        }
    }

    #[test]
    fn sparse_solve_matches_dense_on_tree_matrices() {
        for seed in [1u64, 2, 3] {
            let n = 60;
            let a = random_tree_matrix(n, seed);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos()).collect();
            let xs = SparseLuFactor::factor_auto(&a).unwrap().solve(&b);
            let xd = LuFactor::new(&a.to_dense()).unwrap().solve(&b);
            for (s, d) in xs.iter().zip(xd.iter()) {
                assert!((s - d).abs() < 1e-10, "sparse {s} vs dense {d}");
            }
        }
    }

    #[test]
    fn tree_factorisation_has_no_fill() {
        // Eliminating a tree leaf-to-root creates no fill: nnz(L) + nnz(U)
        // equals nnz(A) + n (the unit diagonal of L).
        let n = 200;
        let a = random_tree_matrix(n, 7);
        let f = SparseLuFactor::factor_auto(&a).unwrap();
        assert_eq!(f.l_nnz() + f.u_nnz(), a.nnz() + n, "min-degree must keep trees fill-free");
    }

    #[test]
    fn symbolic_phase_is_reused_across_numeric_factorisations() {
        // Two matrices with the same pattern, different values (the DC and
        // transient matrices of one circuit): one analyze, two factors.
        let n = 40;
        let a = random_tree_matrix(n, 11);
        let sym = SparseSymbolic::analyze(n, a.triplets().map(|(r, c, _)| (r, c)));
        let scaled = CscMatrix::from_triplets(
            n,
            &a.triplets().map(|(r, c, v)| (r, c, 2.5 * v)).collect::<Vec<_>>(),
        );
        let b: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let x1 = SparseLuFactor::factor(&a, &sym).unwrap().solve(&b);
        let x2 = SparseLuFactor::factor(&scaled, &sym).unwrap().solve(&b);
        for (u, v) in x1.iter().zip(x2.iter()) {
            assert!((u - 2.5 * v).abs() < 1e-10, "scaling the matrix scales the solution down");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = CscMatrix::from_triplets(2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let x = SparseLuFactor::factor_auto(&a).unwrap().solve(&[3.0, 5.0]);
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_pivoting_keeps_a_small_but_acceptable_diagonal() {
        // Strict partial pivoting would swap in row 1 (|1| > |0.01|); the
        // threshold keeps the diagonal, whose magnitude is 1e-2 of the
        // largest candidate's.
        let a = CscMatrix::from_triplets(2, &[(0, 0, 0.01), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let f =
            SparseLuFactor::factor(&a, &SparseSymbolic::from_permutation(2, vec![0, 1])).unwrap();
        assert_eq!(f.pinv, vec![0, 1], "the diagonal stays the pivot");
        let x = f.solve(&[1.0, 2.0]);
        let r = a.mul_vec(&x);
        assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
        // Below the threshold the largest candidate wins.
        let b = CscMatrix::from_triplets(2, &[(0, 0, 1e-5), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let f =
            SparseLuFactor::factor(&b, &SparseSymbolic::from_permutation(2, vec![0, 1])).unwrap();
        assert_eq!(f.pinv, vec![1, 0], "a tiny diagonal is passed over");
    }

    #[test]
    fn singular_matrices_are_reported() {
        // Zero column.
        let a = CscMatrix::from_triplets(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 0, 1.0)]);
        match SparseLuFactor::factor_auto(&a) {
            Err(FactorizeError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
        // Linearly dependent rows.
        let b = CscMatrix::from_triplets(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        match SparseLuFactor::factor_auto(&b) {
            Err(FactorizeError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn complex_sparse_system() {
        let a = CscMatrix::from_triplets(
            2,
            &[
                (0, 0, Complex::new(1.0, 1.0)),
                (0, 1, Complex::ONE),
                (1, 0, Complex::ONE),
                (1, 1, -Complex::ONE),
            ],
        );
        let x = SparseLuFactor::factor_auto(&a)
            .unwrap()
            .solve(&[Complex::new(2.0, 0.0), Complex::new(0.0, 1.0)]);
        assert!((x[0] - Complex::ONE).abs() < 1e-12);
        assert!((x[1] - Complex::new(1.0, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn residuals_stay_small_on_random_pentadiagonal_patterns() {
        // Not a tree: a pentadiagonal pattern exercises genuine fill.
        let n: usize = 50;
        let mut state = 0xBADC0FFEu64;
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in i.saturating_sub(2)..(i + 3).min(n) {
                triplets.push((i, j, lcg(&mut state)));
            }
            triplets.push((i, i, 6.0));
        }
        let a = CscMatrix::from_triplets(n, &triplets);
        let b: Vec<f64> = (0..n).map(|i| lcg(&mut { state + i as u64 })).collect();
        let f = SparseLuFactor::factor_auto(&a).unwrap();
        assert_eq!(f.dim(), n);
        let x = f.solve(&b);
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(b.iter()) {
            assert!((ri - bi).abs() < 1e-10, "residual {}", (ri - bi).abs());
        }
    }

    #[test]
    #[should_panic]
    fn solve_with_wrong_rhs_length_panics() {
        let a = CscMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let f = SparseLuFactor::factor_auto(&a).unwrap();
        let _ = f.solve(&[1.0]);
    }

    /// A diagonally dominant matrix on a `rows × cols` grid graph — the
    /// power-mesh pattern whose elimination creates genuine fill, unlike the
    /// zero-fill tree path.
    fn grid_matrix(rows: usize, cols: usize, seed: u64) -> CscMatrix<f64> {
        let n = rows * cols;
        let mut state = seed;
        let mut triplets = Vec::new();
        let idx = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                let i = idx(r, c);
                triplets.push((i, i, 8.0 + lcg(&mut state).abs()));
                if c + 1 < cols {
                    let v = 1.0 + 0.5 * lcg(&mut state);
                    triplets.push((i, idx(r, c + 1), -v));
                    triplets.push((idx(r, c + 1), i, -v));
                }
                if r + 1 < rows {
                    let v = 1.0 + 0.5 * lcg(&mut state);
                    triplets.push((i, idx(r + 1, c), -v));
                    triplets.push((idx(r + 1, c), i, -v));
                }
            }
        }
        CscMatrix::from_triplets(n, &triplets)
    }

    fn grid_adjacency(rows: usize, cols: usize) -> Vec<Vec<usize>> {
        let a = grid_matrix(rows, cols, 1);
        let n = a.dim();
        let mut adjacency = vec![Vec::new(); n];
        for (r, c, _) in a.triplets() {
            if r != c {
                adjacency[r].push(c);
            }
        }
        adjacency
    }

    fn fill_under(a: &CscMatrix<f64>, perm: Vec<usize>) -> usize {
        let n = a.dim();
        let mut order = vec![0usize; n];
        for (logical, &position) in perm.iter().enumerate() {
            order[position] = logical;
        }
        let sym = SparseSymbolic { n, order, perm };
        let f = SparseLuFactor::factor(a, &sym).unwrap();
        f.l_nnz() + f.u_nnz()
    }

    #[test]
    fn amd_is_a_bijection_and_orders_leaves_first() {
        let adjacency = vec![vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]];
        let perm = approximate_minimum_degree(5, &adjacency);
        let mut seen = [false; 5];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        assert!(perm[0] >= 3, "the hub must wait until the leaves shrink it, got {}", perm[0]);
    }

    #[test]
    fn amd_keeps_trees_fill_free() {
        // AMD degrees are exact on forests, so it must reproduce the
        // classical zero-fill leaf-to-root elimination.
        let n = 300;
        let a = random_tree_matrix(n, 21);
        let mut adjacency = vec![Vec::new(); n];
        for (r, c, _) in a.triplets() {
            if r != c {
                adjacency[r].push(c);
            }
        }
        let fill = fill_under(&a, approximate_minimum_degree(n, &adjacency));
        assert_eq!(fill, a.nnz() + n, "AMD must keep trees fill-free");
    }

    #[test]
    fn amd_fill_is_competitive_with_classical_minimum_degree_on_grids() {
        for (rows, cols) in [(7usize, 9usize), (10, 10), (12, 8)] {
            let a = grid_matrix(rows, cols, 0xA11CE);
            let n = a.dim();
            let adjacency = grid_adjacency(rows, cols);
            let amd_fill = fill_under(&a, approximate_minimum_degree(n, &adjacency));
            let md_fill = fill_under(&a, minimum_degree(n, &adjacency));
            assert!(
                amd_fill <= 2 * md_fill,
                "{rows}x{cols} grid: AMD fill {amd_fill} vs classical {md_fill}"
            );
        }
    }

    #[test]
    fn from_parts_round_trips_and_keeps_explicit_zeros() {
        let a = grid_matrix(4, 4, 3);
        let mut values: Vec<f64> = Vec::new();
        for j in 0..a.dim() {
            values.extend_from_slice(a.col_values(j));
        }
        let b = CscMatrix::from_parts(a.dim(), a.col_ptr.clone(), a.row_idx.clone(), values);
        assert_eq!(a, b);
        // Explicit zeros stay stored: the pattern is value-independent.
        let z = CscMatrix::from_parts(2, vec![0, 1, 2], vec![0, 1], vec![0.0, 1.0]);
        assert_eq!(z.nnz(), 2);
        assert_eq!(z.to_dense()[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_unsorted_rows() {
        let _ = CscMatrix::from_parts(2, vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0]);
    }

    #[test]
    fn refactor_matches_fresh_factor_on_trees_and_grids() {
        let patterns: Vec<CscMatrix<f64>> = vec![random_tree_matrix(80, 13), grid_matrix(9, 9, 17)];
        for a in patterns {
            let n = a.dim();
            let mut f = SparseLuFactor::factor_auto(&a).unwrap();
            let mut state = 0xD1CEu64;
            for round in 0..3 {
                // Perturb every value but keep the pattern byte-identical.
                let perturbed: Vec<(usize, usize, f64)> = a
                    .triplets()
                    .map(|(r, c, v)| (r, c, v * (1.0 + 0.2 * lcg(&mut state))))
                    .collect();
                let b = CscMatrix::from_triplets(n, &perturbed);
                f.refactor(&b).unwrap();
                let fresh = SparseLuFactor::factor_auto(&b).unwrap();
                let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7 + round as f64).sin()).collect();
                let xw = f.solve(&rhs);
                let xf = fresh.solve(&rhs);
                for (w, fr) in xw.iter().zip(xf.iter()) {
                    assert!((w - fr).abs() < 1e-12, "refactor {w} vs fresh {fr}");
                }
            }
        }
    }

    #[test]
    fn refactor_accepts_a_sub_pattern() {
        // Missing entries read as stored zeros — a transient matrix with a
        // dropped coupling still refactors against the wider pattern.
        let a = grid_matrix(5, 5, 29);
        let mut f = SparseLuFactor::factor_auto(&a).unwrap();
        let sub: Vec<(usize, usize, f64)> =
            a.triplets().filter(|&(r, c, _)| r == c || (r + c) % 3 != 0).collect();
        let b = CscMatrix::from_triplets(a.dim(), &sub);
        f.refactor(&b).unwrap();
        let rhs: Vec<f64> = (0..a.dim()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let xw = f.solve(&rhs);
        let xf = SparseLuFactor::factor_auto(&b).unwrap().solve(&rhs);
        for (w, fr) in xw.iter().zip(xf.iter()) {
            assert!((w - fr).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn refactor_rejects_entries_outside_the_pattern() {
        let a = CscMatrix::from_triplets(3, &[(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0), (1, 0, 1.0)]);
        let mut f = SparseLuFactor::factor_auto(&a).unwrap();
        let b = CscMatrix::from_triplets(3, &[(0, 0, 2.0), (1, 1, 2.0), (2, 2, 2.0), (2, 0, 1.0)]);
        let _ = f.refactor(&b);
    }

    #[test]
    fn refactor_reports_a_broken_pivot_as_singular() {
        let a = CscMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let mut f = SparseLuFactor::factor_auto(&a).unwrap();
        let b = CscMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 0.0)]);
        // from_triplets drops the explicit zero, so (1,1) is simply absent —
        // a sub-pattern whose frozen pivot is now exactly zero.
        match f.refactor(&b) {
            Err(FactorizeError::Singular { .. }) => {}
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn refactor_with_complex_values() {
        let a = CscMatrix::from_triplets(
            2,
            &[
                (0, 0, Complex::new(1.0, 1.0)),
                (0, 1, Complex::ONE),
                (1, 0, Complex::ONE),
                (1, 1, -Complex::ONE),
            ],
        );
        let mut f = SparseLuFactor::factor_auto(&a).unwrap();
        let scaled = CscMatrix::from_triplets(
            2,
            &a.triplets().map(|(r, c, v)| (r, c, v * Complex::new(0.0, 2.0))).collect::<Vec<_>>(),
        );
        f.refactor(&scaled).unwrap();
        let b = [Complex::new(2.0, 0.0), Complex::new(0.0, 1.0)];
        let xw = f.solve(&b);
        let xf = SparseLuFactor::factor_auto(&scaled).unwrap().solve(&b);
        for (w, fr) in xw.iter().zip(xf.iter()) {
            assert!((*w - *fr).abs() < 1e-12);
        }
    }

    #[test]
    fn pattern_and_value_keys_separate_structure_from_values() {
        let a = grid_matrix(6, 5, 0xAB);
        let same_pattern = CscMatrix::from_parts(
            a.dim(),
            a.col_ptr.clone(),
            a.row_idx.clone(),
            a.values.iter().map(|v| v * 1.5).collect(),
        );
        // Identical structure, different values: pattern keys agree, value
        // keys differ.
        assert_eq!(a.pattern_key(), same_pattern.pattern_key());
        assert_ne!(a.value_key(), same_pattern.value_key());
        // Identical everything: both keys agree (and are deterministic).
        assert_eq!(a.value_key(), a.clone().value_key());
        // A different structure moves the pattern key.
        let other = grid_matrix(5, 6, 0xAB);
        assert_ne!(a.pattern_key(), other.pattern_key());
        // Accessors expose the raw CSC arrays consistently.
        assert_eq!(a.col_ptr_slice().len(), a.dim() + 1);
        assert_eq!(a.row_idx_slice().len(), a.nnz());
    }
}
