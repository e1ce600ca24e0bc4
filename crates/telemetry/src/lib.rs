//! Zero-dependency tracing and metrics for the `rlckit` hot paths.
//!
//! Every expensive phase of the workspace — sparse symbolic analysis and
//! numeric (re)factorisation, the dense oracle, MNA assembly, transient
//! stepping, block-Arnoldi reduction, the sweep executor — carries an
//! instrumentation site from this crate. The sites are **free when profiling
//! is off**: each one costs a single relaxed atomic load (see [`enabled`]),
//! so the instrumented kernels keep their benchmarked performance.
//!
//! Profiling is activated either by setting `RLCKIT_PROFILE=1` in the
//! environment (read once, lazily) or programmatically through a
//! [`Collector`] handle. While active, three kinds of measurements flow into
//! one process-wide, thread-safe registry:
//!
//! * **spans** ([`span`]) — RAII-timed regions with parent nesting. A span's
//!   registry key is its full slash-joined path (`"transient.run/
//!   transient.stepping/sparse.solve"`), built from a per-thread span stack,
//!   and each key accumulates call count, total wall time, **self** time
//!   (total minus the time spent in child spans) and min/max durations on
//!   the monotonic clock;
//! * **counters / gauges** ([`counter_add`] / [`gauge_set`]) — atomic event
//!   counts (cache hits, Arnoldi deflations, transient steps) and
//!   last-write-wins measurements (fill ratio, pivot growth);
//! * **histograms** ([`observe_seconds`]) — power-of-two-bucketed duration
//!   distributions (per-step time, per-worker busy time).
//!
//! [`Collector::snapshot`] freezes everything into a deterministic
//! [`ProfileSnapshot`], which renders as a human-readable summary table
//! ([`ProfileSnapshot::summary`]) or as a flat `PROFILE_<name>.json`
//! document ([`ProfileSnapshot::write`]) following the same dependency-free
//! JSON conventions as the workspace's `BENCH_*.json` perf trajectories.
//!
//! Two further observability layers share the same activation machinery:
//!
//! * **numerical health** ([`health_event`] / [`check_metric`]) — structured
//!   events from the solver kernels (backward error, condition estimates,
//!   pivot growth, step residuals), aggregated per `(site, metric)` into the
//!   [`HealthReport`] attached to every [`ProfileSnapshot`]. Health
//!   monitoring rides the **profiling** gate: active exactly when [`enabled`]
//!   is;
//! * **timeline traces** ([`trace_enabled`], `RLCKIT_TRACE=1` or
//!   [`Collector::enable_trace`]) — every span additionally records its
//!   begin/end timestamps per thread, and [`Collector::trace_snapshot`]
//!   freezes them into a [`TraceSnapshot`] that serialises as Chrome
//!   trace-event-format JSON (`TRACE_<name>.json`, loadable in
//!   `chrome://tracing` or Perfetto). Sweep worker spans carry their cell
//!   index ([`span_indexed`]), so slow or unhealthy cells are attributable
//!   on the timeline.
//!
//! # Output directory
//!
//! Writers of `PROFILE_*.json` / `TRACE_*.json` documents resolve their
//! target directory with [`output_dir`]: the `RLCKIT_PROFILE_DIR`
//! environment variable (when set and non-empty) takes precedence over the
//! caller-supplied default (the workspace root for the bench binaries, the
//! current directory otherwise). The variable is consulted at write time,
//! not cached.
//!
//! The crate also owns the workspace's one JSON codec, [`json`]: the parser
//! and the string/number writers behind the profile and trace documents,
//! the `BENCH_*.json` trajectories and their gate, the sweep sinks and the
//! daemon's wire protocol.
//!
//! This crate sits at the very bottom of the workspace graph (it depends
//! only on `std`), so every other crate can instrument without cycles.
//!
//! # Example
//!
//! ```
//! use rlckit_telemetry::{counter_add, span, Collector};
//!
//! let collector = Collector::enable();
//! {
//!     let _outer = span("outer");
//!     let _inner = span("inner");
//!     counter_add("events", 3);
//! }
//! let snapshot = Collector::snapshot();
//! assert_eq!(snapshot.counter("events"), Some(3));
//! assert!(snapshot.span("outer/inner").is_some());
//! drop(collector);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod health;
pub mod json;
mod metrics;
mod span;
mod trace;

pub use export::{HistogramSnapshot, ProfileSnapshot, SpanSnapshot};
pub use health::{check_metric, health_event, HealthReport, HealthSite, Severity};
pub use metrics::{counter_add, gauge_set, observe_seconds};
pub use span::{span, span_indexed, SpanGuard};
pub use trace::{TraceEvent, TraceSnapshot};

use std::sync::atomic::{AtomicU8, Ordering};

/// Global activation state: `UNINIT` until the first site runs (or a
/// [`Collector`] forces a state), then a resolved bitmask — `INIT` plus the
/// active layer bits.
const UNINIT: u8 = 0;
/// Set once the environment has been resolved; distinguishes "everything
/// off" from "not yet initialised".
const INIT: u8 = 1;
/// Profiling (spans, metrics, health monitoring) is active.
pub(crate) const PROFILE: u8 = 2;
/// Timeline tracing (per-span begin/end timestamps) is active.
pub(crate) const TRACE: u8 = 4;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Resolved activation bitmask — one relaxed load after the first call.
#[inline]
pub(crate) fn state_bits() -> u8 {
    let s = STATE.load(Ordering::Relaxed);
    if s == UNINIT {
        init_from_env()
    } else {
        s
    }
}

/// Returns `true` when profiling is active.
///
/// This is the per-site gate every instrumentation point starts with. After
/// the first call it is exactly **one relaxed atomic load** — the contract
/// that keeps the disabled kernels at their uninstrumented speed. The first
/// call in a process resolves the `RLCKIT_PROFILE` and `RLCKIT_TRACE`
/// environment variables (any non-empty value other than `"0"` activates
/// the corresponding layer).
#[inline]
pub fn enabled() -> bool {
    state_bits() & PROFILE != 0
}

/// Returns `true` when timeline tracing is active (same one-relaxed-load
/// contract as [`enabled`]; first call resolves `RLCKIT_TRACE`).
#[inline]
pub fn trace_enabled() -> bool {
    state_bits() & TRACE != 0
}

/// Cold path of [`state_bits`]: resolve the environment once. A racing
/// [`Collector`] wins over the environment (compare-exchange from `UNINIT`).
#[cold]
fn init_from_env() -> u8 {
    let flag = |name: &str| match std::env::var(name) {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    };
    let mut from_env = INIT;
    if flag("RLCKIT_PROFILE") {
        from_env |= PROFILE;
    }
    if flag("RLCKIT_TRACE") {
        from_env |= TRACE;
    }
    let _ = STATE.compare_exchange(UNINIT, from_env, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed)
}

/// Resolves the directory profile/trace documents should be written to:
/// the `RLCKIT_PROFILE_DIR` environment variable when set and non-empty,
/// otherwise the caller's `default`. Consulted at write time, never cached.
pub fn output_dir(default: &std::path::Path) -> std::path::PathBuf {
    match std::env::var_os("RLCKIT_PROFILE_DIR") {
        Some(dir) if !dir.is_empty() => std::path::PathBuf::from(dir),
        _ => default.to_path_buf(),
    }
}

/// A handle over the process-wide metrics collector.
///
/// [`Collector::enable`] switches profiling on and returns an RAII guard
/// that restores the previous activation state when dropped, so a scoped
/// measurement (a bench assertion, a test) cannot leak profiling overhead
/// into the rest of the process. The registry itself is cumulative across
/// enable/disable cycles; use [`Collector::reset`] to clear it.
#[derive(Debug)]
pub struct Collector {
    previous: u8,
}

impl Collector {
    /// Resolves the current state, then stores `(state | set) & !clear`,
    /// returning a guard that restores the full previous byte on drop.
    fn shift(set: u8, clear: u8) -> Self {
        let previous = state_bits();
        STATE.store((previous | set | INIT) & !clear, Ordering::Relaxed);
        Self { previous }
    }

    /// Switches profiling on, returning a guard that restores the previous
    /// state on drop.
    #[must_use]
    pub fn enable() -> Self {
        Self::shift(PROFILE, 0)
    }

    /// Switches profiling off, returning a guard that restores the previous
    /// state on drop.
    #[must_use]
    pub fn disable() -> Self {
        Self::shift(0, PROFILE)
    }

    /// Switches timeline tracing on, returning a guard that restores the
    /// previous state on drop. Tracing composes with profiling: each layer
    /// has its own bit, and a guard only touches the bit it names.
    #[must_use]
    pub fn enable_trace() -> Self {
        Self::shift(TRACE, 0)
    }

    /// Switches timeline tracing off, returning a guard that restores the
    /// previous state on drop.
    #[must_use]
    pub fn disable_trace() -> Self {
        Self::shift(0, TRACE)
    }

    /// Freezes the current registry contents into a deterministic snapshot.
    pub fn snapshot() -> ProfileSnapshot {
        export::snapshot()
    }

    /// Freezes the timeline events recorded so far into a deterministic
    /// [`TraceSnapshot`] (Chrome trace-event-format on export).
    pub fn trace_snapshot() -> TraceSnapshot {
        trace::snapshot()
    }

    /// Clears every span, counter, gauge, histogram, health site and trace
    /// event accumulated so far.
    pub fn reset() {
        metrics::reset();
        health::reset();
        trace::reset();
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        STATE.store(self.previous, Ordering::Relaxed);
    }
}

/// Serialisation helper for tests that toggle the process-global collector.
///
/// The activation state (and every registry behind it) is process-global, so
/// tests that enable/disable the collector — in this crate or any downstream
/// crate's test binary — must not interleave. Such tests take
/// [`lock`](test_support::lock) for their whole body; ordinary tests that
/// never touch the collector need not.
pub mod test_support {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Acquires the process-wide telemetry test lock (poisoning ignored:
    /// a panicked test must not cascade into unrelated failures).
    pub fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_guard_restores_the_previous_state() {
        let _serial = test_support::lock();
        let baseline = Collector::disable();
        assert!(!enabled());
        {
            let _on = Collector::enable();
            assert!(enabled());
            {
                let _off = Collector::disable();
                assert!(!enabled());
            }
            assert!(enabled(), "inner guard must restore the enabled state");
        }
        assert!(!enabled(), "outer guard must restore the disabled state");
        drop(baseline);
    }

    #[test]
    fn disabled_sites_record_nothing() {
        let _serial = test_support::lock();
        let _off = Collector::disable();
        Collector::reset();
        counter_add("lib.disabled_counter", 7);
        gauge_set("lib.disabled_gauge", 1.0);
        observe_seconds("lib.disabled_hist", 0.5);
        {
            let _span = span("lib.disabled_span");
        }
        let snapshot = Collector::snapshot();
        assert_eq!(snapshot.counter("lib.disabled_counter"), None);
        assert_eq!(snapshot.gauge("lib.disabled_gauge"), None);
        assert!(snapshot.span("lib.disabled_span").is_none());
        assert!(snapshot.histograms.iter().all(|h| h.name != "lib.disabled_hist"));
    }
}
