//! Cross-request, pattern-keyed factorisation cache.
//!
//! Long-running services (the `rlckit-server` daemon) see request streams in
//! which most scenarios differ only in element *values* — wire resistance,
//! inductance, driver sizing — while the MNA sparsity pattern repeats
//! exactly, and some scenarios repeat outright. This module keeps a
//! process-global registry of the two artefacts such a stream can reuse:
//!
//! * the **symbolic analysis** ([`SparseSymbolic`]): AMD ordering of the
//!   pattern, a pure function of the pattern alone;
//! * a **numeric factor** ([`SparseLuFactor`]) of the first matrix factored
//!   with that pattern, keyed by its [`CscMatrix::value_key`].
//!
//! Entries are keyed by the stable [`CscMatrix::pattern_key`] content hash
//! and **verified** against the full column-pointer/row-index arrays on every
//! hit (a 64-bit hash collision therefore degrades to a miss, never to a
//! wrong answer). Two hit tiers, both bit-identical to a cold factorisation:
//!
//! 1. **value hit** — pattern and value key both match the stored factor:
//!    it is returned verbatim.
//! 2. **symbolic hit** — the pattern matches: the cached analysis is shared,
//!    so a matrix with new values skips only the ordering and runs a fresh
//!    [`SparseLuFactor::factor`] (counted as a miss).
//!
//! A cell's bits therefore never depend on which earlier request seeded an
//! entry. There is deliberately no frozen-pivot refactor tier: reusing
//! another matrix's pivot sequence changes the last bits of the result and
//! showed no measured time win.
//!
//! The cache is **disabled by default** — every analysis behaves exactly as
//! without it — and switched on by an RAII [`PatternCacheGuard`], the same
//! scoped-activation shape as `rlckit_telemetry::Collector`. The registry is
//! bounded by an approximate byte budget with least-recently-used eviction;
//! hits, misses and evictions are tracked both in the always-on [`Stats`]
//! and as `circuit.pattern_*` telemetry counters when profiling is active.
//!
//! Concurrency: the global lock is held only for registry lookups and
//! insertions, never across a factorisation, so worker threads factoring
//! different matrices do not serialise on the cache. When several threads
//! miss the same pattern at once, the first insertion wins and later ones
//! are dropped — the stored factor is stable once seeded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rlckit_numeric::lu::FactorizeError;
use rlckit_numeric::sparse::{csc_pattern_key, CscMatrix, SparseLuFactor, SparseSymbolic};

/// Default approximate byte budget for cached symbolic + factor storage.
pub(crate) const DEFAULT_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// Returns `true` when the pattern cache is active. One relaxed atomic load,
/// so the disabled hot path costs nothing measurable.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn registry() -> MutexGuard<'static, Option<Registry>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One cached pattern: the verified structure arrays, the shared symbolic
/// analysis, and (once a factorisation has completed) its numeric factor.
struct Entry {
    dim: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    symbolic: Arc<SparseSymbolic>,
    /// `(value_key, factor)` of the first factorisation of this pattern.
    factor: Option<(u64, SparseLuFactor<f64>)>,
    /// Monotonic recency stamp for LRU eviction.
    stamp: u64,
}

impl Entry {
    /// Approximate retained bytes: pattern arrays, symbolic fill estimate and
    /// the L/U factor storage (index + value per entry).
    fn approx_bytes(&self) -> u64 {
        let pattern = (self.col_ptr.len() + self.row_idx.len()) * 8;
        let factor =
            self.factor.as_ref().map_or(0, |(_, f)| (f.l_nnz() + f.u_nnz()) * 16 + f.dim() * 24);
        let symbolic = self.dim * 16;
        (pattern + factor + symbolic) as u64
    }
}

/// Cumulative cache statistics, exposed independently of the telemetry layer
/// so a service can report them without profiling overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Lookups answered verbatim from a value-key match (bit-identical).
    pub value_hits: u64,
    /// Always 0: the cache has no refactor tier. Kept so readers of the
    /// server's `stats` reply see a stable set of keys.
    pub refactor_hits: u64,
    /// Lookups that ran a fresh factorisation (no entry, or different
    /// values).
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Symbolic analyses answered by a cached [`SparseSymbolic`].
    pub symbolic_hits: u64,
}

struct Registry {
    entries: HashMap<u64, Entry>,
    next_stamp: u64,
    stats: Stats,
}

impl Registry {
    fn new() -> Self {
        Self { entries: HashMap::new(), next_stamp: 0, stats: Stats::default() }
    }

    fn touch(&mut self, key: u64) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.stamp = stamp;
        }
    }

    /// Looks up `key` and verifies the stored pattern arrays match; a hash
    /// collision is reported as absent.
    fn verified(&mut self, key: u64, dim: usize, col_ptr: &[usize], row_idx: &[usize]) -> bool {
        match self.entries.get(&key) {
            Some(e) => e.dim == dim && e.col_ptr == col_ptr && e.row_idx == row_idx,
            None => false,
        }
    }

    /// Evicts least-recently-used entries until the approximate total is
    /// within `budget_bytes`. Ties (impossible with monotonic stamps, but
    /// cheap to make deterministic) break on the smaller key.
    fn evict_to_budget(&mut self, budget_bytes: u64) {
        loop {
            let total: u64 = self.entries.values().map(Entry::approx_bytes).sum();
            if total <= budget_bytes || self.entries.len() <= 1 {
                return;
            }
            let victim = self.entries.iter().min_by_key(|(k, e)| (e.stamp, **k)).map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                    self.stats.evictions += 1;
                    rlckit_telemetry::counter_add("circuit.pattern_evictions", 1);
                }
                None => return,
            }
        }
    }
}

/// RAII guard activating the process-global pattern cache for its lifetime.
///
/// Dropping the guard restores the previous activation state (guards nest)
/// but keeps the registry contents, so a re-enabled cache is warm. Use
/// [`clear`] to drop the cached factors as well.
#[derive(Debug)]
pub struct PatternCacheGuard {
    previous: bool,
}

impl PatternCacheGuard {
    /// Switches the cache on, returning a guard restoring the prior state.
    #[must_use]
    pub fn enable() -> Self {
        let previous = ENABLED.swap(true, Ordering::Relaxed);
        Self { previous }
    }

    /// Switches the cache off, returning a guard restoring the prior state.
    #[must_use]
    pub fn disable() -> Self {
        let previous = ENABLED.swap(false, Ordering::Relaxed);
        Self { previous }
    }
}

impl Drop for PatternCacheGuard {
    fn drop(&mut self) {
        ENABLED.store(self.previous, Ordering::Relaxed);
    }
}

/// Drops every cached symbolic object and numeric factor and resets the
/// recency clock. Statistics are preserved (see [`reset_stats`]).
pub fn clear() {
    if let Some(reg) = registry().as_mut() {
        reg.entries.clear();
        reg.next_stamp = 0;
    }
}

/// Zeroes the cumulative [`Stats`] counters.
pub fn reset_stats() {
    if let Some(reg) = registry().as_mut() {
        reg.stats = Stats::default();
    }
}

/// A copy of the cumulative cache statistics.
pub fn stats() -> Stats {
    registry().as_ref().map(|r| r.stats).unwrap_or_default()
}

/// Number of distinct patterns currently cached.
pub fn len() -> usize {
    registry().as_ref().map_or(0, |r| r.entries.len())
}

/// Returns the shared symbolic analysis for the pattern `(dim, col_ptr,
/// row_idx)`, running `analyze` and caching the result on first sight.
///
/// Callers holding a raw assembly scatter map (the MNA layer) use this to
/// share one AMD ordering across every system with the same pattern. When
/// the cache is disabled this simply wraps `analyze()` in an [`Arc`].
pub(crate) fn shared_symbolic(
    dim: usize,
    col_ptr: &[usize],
    row_idx: &[usize],
    analyze: impl FnOnce() -> SparseSymbolic,
) -> Arc<SparseSymbolic> {
    if !enabled() {
        return Arc::new(analyze());
    }
    let key = csc_pattern_key(dim, col_ptr, row_idx);
    {
        let mut guard = registry();
        let reg = guard.get_or_insert_with(Registry::new);
        if reg.verified(key, dim, col_ptr, row_idx) {
            reg.touch(key);
            reg.stats.symbolic_hits += 1;
            rlckit_telemetry::counter_add("circuit.pattern_symbolic_hits", 1);
            let entry = reg.entries.get(&key).expect("verified entry present");
            return Arc::clone(&entry.symbolic);
        }
    }
    // Analyse outside the lock: symbolic analysis is a deterministic pure
    // function of the pattern, so concurrent duplicates are equal and the
    // first insertion winning keeps every consumer coherent.
    let symbolic = Arc::new(analyze());
    let mut guard = registry();
    let reg = guard.get_or_insert_with(Registry::new);
    if reg.verified(key, dim, col_ptr, row_idx) {
        reg.touch(key);
        let entry = reg.entries.get(&key).expect("verified entry present");
        return Arc::clone(&entry.symbolic);
    }
    let stamp = reg.next_stamp;
    reg.next_stamp += 1;
    reg.entries.insert(
        key,
        Entry {
            dim,
            col_ptr: col_ptr.to_vec(),
            row_idx: row_idx.to_vec(),
            symbolic: Arc::clone(&symbolic),
            factor: None,
            stamp,
        },
    );
    reg.evict_to_budget(DEFAULT_BUDGET_BYTES);
    symbolic
}

/// Factorises `a` through the cache: verbatim on a value hit, fresh
/// factorisation otherwise (seeding the entry's factor on the first miss of
/// a pattern). `symbolic` is the caller's already-shared analysis for `a`'s
/// pattern — the miss path uses it directly, so no duplicate analysis
/// happens even on a cold cache.
///
/// # Errors
///
/// Propagates [`FactorizeError`] from the fresh factorisation.
pub fn factor_real(
    a: &CscMatrix<f64>,
    symbolic: &SparseSymbolic,
) -> Result<SparseLuFactor<f64>, FactorizeError> {
    if !enabled() {
        return SparseLuFactor::factor(a, symbolic);
    }
    let key = a.pattern_key();
    let value_key = a.value_key();
    {
        let mut guard = registry();
        let reg = guard.get_or_insert_with(Registry::new);
        if reg.verified(key, a.dim(), a.col_ptr_slice(), a.row_idx_slice()) {
            reg.touch(key);
            let entry = reg.entries.get(&key).expect("verified entry present");
            if let Some((vk, factor)) = &entry.factor {
                if *vk == value_key {
                    let factor = factor.clone();
                    reg.stats.value_hits += 1;
                    rlckit_telemetry::counter_add("circuit.pattern_value_hits", 1);
                    return Ok(factor);
                }
            }
        }
    }
    factor_fresh(a, symbolic, key, value_key)
}

/// The miss path: factor outside the lock, then seed the entry's factor if
/// nobody beat us to it (first writer wins, so the stored factor is stable
/// once set).
fn factor_fresh(
    a: &CscMatrix<f64>,
    symbolic: &SparseSymbolic,
    key: u64,
    value_key: u64,
) -> Result<SparseLuFactor<f64>, FactorizeError> {
    let factor = SparseLuFactor::factor(a, symbolic)?;
    let mut guard = registry();
    let reg = guard.get_or_insert_with(Registry::new);
    reg.stats.misses += 1;
    rlckit_telemetry::counter_add("circuit.pattern_misses", 1);
    if reg.verified(key, a.dim(), a.col_ptr_slice(), a.row_idx_slice()) {
        reg.touch(key);
        let entry = reg.entries.get_mut(&key).expect("verified entry present");
        if entry.factor.is_none() {
            entry.factor = Some((value_key, factor.clone()));
        }
    } else {
        let stamp = reg.next_stamp;
        reg.next_stamp += 1;
        reg.entries.insert(
            key,
            Entry {
                dim: a.dim(),
                col_ptr: a.col_ptr_slice().to_vec(),
                row_idx: a.row_idx_slice().to_vec(),
                symbolic: Arc::new(symbolic.clone()),
                factor: Some((value_key, factor.clone())),
                stamp,
            },
        );
    }
    reg.evict_to_budget(DEFAULT_BUDGET_BYTES);
    Ok(factor)
}

/// Serialisation helper for tests that toggle the process-global cache,
/// mirroring `rlckit_telemetry::test_support`: activation and registry are
/// shared process state, so such tests must not interleave — neither with
/// each other nor with tolerance-sensitive solver tests running in the same
/// binary.
pub mod test_support {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Acquires the process-wide pattern-cache test lock (poisoning ignored
    /// so one panicked test cannot cascade).
    pub fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::MnaSystem;
    use crate::netlist::Circuit;
    use crate::solve::factor_real as solve_factor_real;
    use crate::source::SourceWaveform;
    use rlckit_numeric::solver::SolverBackend;
    use rlckit_units::{Capacitance, Inductance, Resistance};

    /// An RLC ladder: a fixed topology whose MNA pattern is independent of
    /// the per-section resistance, so different `r_per` values share a key.
    fn ladder(r_per: f64) -> MnaSystem {
        let mut c = Circuit::new();
        let gnd = c.ground();
        let input = c.add_node();
        c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        let mut prev = input;
        for _ in 0..40 {
            let mid = c.add_node();
            let next = c.add_node();
            c.add_resistor(prev, mid, Resistance::from_ohms(r_per)).unwrap();
            c.add_inductor(mid, next, Inductance::from_henries(12.0e-12)).unwrap();
            c.add_capacitor(next, gnd, Capacitance::from_femtofarads(9.0)).unwrap();
            prev = next;
        }
        MnaSystem::build(&c).unwrap()
    }

    #[test]
    fn disabled_cache_records_nothing() {
        let _serial = test_support::lock();
        let _off = PatternCacheGuard::disable();
        clear();
        reset_stats();
        let mna = ladder(25.0);
        let a = mna.assemble_csc_real(1.0, 0.0);
        let f = factor_real(&a, mna.sparse_symbolic()).expect("factors");
        assert_eq!(f.dim(), a.dim());
        assert_eq!(len(), 0);
        assert_eq!(stats(), Stats::default());
    }

    #[test]
    fn value_hits_and_value_misses_are_bit_identical_to_cold_factorisations() {
        let _serial = test_support::lock();
        let _on = PatternCacheGuard::enable();
        clear();
        reset_stats();

        let mna = ladder(25.0);
        let a = mna.assemble_csc_real(1.0, 0.0);
        let sym = mna.sparse_symbolic();

        let cold = factor_real(&a, sym).expect("cold factor");
        assert_eq!(stats().misses, 1);
        assert_eq!(len(), 1);

        // Same pattern, same values: the stored factor verbatim.
        let again = factor_real(&a, sym).expect("value hit");
        assert_eq!(stats().value_hits, 1);
        let b = vec![1.0; a.dim()];
        let x_cold = cold.solve(&b);
        let x_again = again.solve(&b);
        for (c, w) in x_cold.iter().zip(&x_again) {
            assert_eq!(c.to_bits(), w.to_bits(), "value hit must be bit-identical");
        }

        // Same pattern, different values: a fresh factorisation against the
        // shared analysis, counted as a miss, equal to a cold factorisation
        // with the cache off.
        let mna2 = ladder(40.0);
        let a2 = mna2.assemble_csc_real(1.0, 0.0);
        assert_eq!(a2.pattern_key(), a.pattern_key(), "ladders share a pattern");
        let warm = factor_real(&a2, mna2.sparse_symbolic()).expect("value miss");
        assert_eq!(stats().misses, 2);
        assert_eq!(stats().refactor_hits, 0);
        let fresh = {
            let _off = PatternCacheGuard::disable();
            let cold = ladder(40.0);
            let a_cold = cold.assemble_csc_real(1.0, 0.0);
            SparseLuFactor::factor(&a_cold, cold.sparse_symbolic()).expect("fresh")
        };
        for (w, f) in warm.solve(&b).iter().zip(&fresh.solve(&b)) {
            assert_eq!(w.to_bits(), f.to_bits(), "value miss must be bit-identical");
        }
        clear();
    }

    #[test]
    fn symbolic_analysis_is_shared_across_matching_patterns() {
        let _serial = test_support::lock();
        let _on = PatternCacheGuard::enable();
        clear();
        reset_stats();

        let first = ladder(25.0);
        let second = ladder(75.0);
        let s1 = first.sparse_symbolic();
        let s2 = second.sparse_symbolic();
        assert_eq!(s1, s2, "same pattern must share one analysis");
        assert!(stats().symbolic_hits >= 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_pattern() {
        let _serial = test_support::lock();
        let _on = PatternCacheGuard::enable();
        clear();
        reset_stats();
        // Budget small enough that two ladder factors cannot coexist.
        let evict = || registry().as_mut().expect("cache in use").evict_to_budget(1);

        let mna = ladder(25.0);
        let a = mna.assemble_csc_real(1.0, 0.0);
        factor_real(&a, mna.sparse_symbolic()).expect("first pattern");
        evict();
        assert_eq!(len(), 1, "a single entry is always retained");

        // A second, different pattern forces the first out.
        let mna_c = {
            let mut c = Circuit::new();
            let gnd = c.ground();
            let input = c.add_node();
            c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
            let mut prev = input;
            for _ in 0..50 {
                let next = c.add_node();
                c.add_resistor(prev, next, Resistance::from_ohms(10.0)).unwrap();
                c.add_capacitor(next, gnd, Capacitance::from_femtofarads(5.0)).unwrap();
                prev = next;
            }
            MnaSystem::build(&c).unwrap()
        };
        let a_c = mna_c.assemble_csc_real(1.0, 0.0);
        assert_ne!(a_c.pattern_key(), a.pattern_key());
        factor_real(&a_c, mna_c.sparse_symbolic()).expect("second pattern");
        evict();
        assert_eq!(len(), 1, "budget of one byte keeps only the newest entry");
        assert!(stats().evictions >= 1);
        clear();
    }

    #[test]
    fn solve_path_routes_through_the_cache_when_enabled() {
        let _serial = test_support::lock();
        let _on = PatternCacheGuard::enable();
        clear();
        reset_stats();

        // A trapezoidal stepping matrix; a DC matrix (`cs = 0`) factors
        // under its own ordering and bypasses the cache.
        let mna = ladder(25.0);
        solve_factor_real(&mna, 1.0, 0.0, SolverBackend::Sparse, "test").expect("DC factors");
        assert_eq!(stats(), Stats::default(), "DC factorisations bypass the cache");
        let first = solve_factor_real(&mna, 0.5, 1e12, SolverBackend::Sparse, "test")
            .expect("first factorisation");
        let second = solve_factor_real(&mna, 0.5, 1e12, SolverBackend::Sparse, "test")
            .expect("second factorisation");
        assert!(stats().misses >= 1);
        assert!(stats().value_hits >= 1, "identical system must value-hit");
        let b = vec![1.0; mna.dim()];
        let x1 = first.solve(&b);
        let x2 = second.solve(&b);
        for (p, q) in x1.iter().zip(&x2) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        clear();
    }
}
