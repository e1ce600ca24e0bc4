//! RAII timed spans with parent nesting.
//!
//! Each thread keeps a stack of the spans currently open on it. Opening a
//! span pushes a frame whose path is the parent's path plus its own name;
//! dropping the guard pops the frame, charges the elapsed time to the parent
//! frame's child accumulator (which is how **self time** — total minus
//! children — falls out without any post-processing) and folds the
//! occurrence into the registry under the full path.
//!
//! A span participates in up to two layers, decided once at creation time
//! (so toggling a layer mid-span never half-records anything): the metrics
//! **registry** when profiling is on, and the **timeline trace** buffer
//! when tracing is on ([`trace_enabled`](crate::trace_enabled)). The span
//! stack and path allocation are registry concerns; a trace-only span skips
//! them entirely and just records its leaf name plus timestamps.

use std::cell::RefCell;
use std::time::Instant;

/// One open span on the current thread.
struct Frame {
    path: String,
    /// Total wall time of already-finished direct children, seconds.
    child_seconds: f64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Opens a timed span named `name`, nested under whatever span is currently
/// open on this thread.
///
/// When profiling and tracing are both off this is a single relaxed atomic
/// load and the returned guard is inert. When profiling is on, the span
/// records its wall-clock duration (monotonic [`Instant`] clock) into the
/// registry on drop, keyed by its slash-joined path — so the same kernel
/// shows up separately per calling context (`"sparse.factor"` vs
/// `"transient.run/sparse.factor"`), exactly like a flame graph. When
/// tracing is on, the span also records a begin/duration timeline event
/// under its leaf name (see [`Collector::trace_snapshot`](crate::Collector)).
///
/// Guards are expected to drop in LIFO order (the natural result of binding
/// them to scopes). Out-of-order drops are tolerated: any deeper frames
/// still open are folded into their parents as if closed at that moment.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with_index(name, None)
}

/// Opens a timed span whose timeline event carries an index tag, rendered
/// as `name[index]` in trace exports.
///
/// The registry path is unaffected — indexed instances aggregate under the
/// plain `name`, keeping registry key cardinality bounded — but on the
/// trace timeline each instance is individually attributable (the sweep
/// executor tags each worker cell span with its cell index this way).
#[inline]
pub fn span_indexed(name: &'static str, index: u64) -> SpanGuard {
    span_with_index(name, Some(index))
}

#[inline]
fn span_with_index(name: &'static str, index: Option<u64>) -> SpanGuard {
    let state = crate::state_bits();
    let profiled = state & crate::PROFILE != 0;
    let traced = state & crate::TRACE != 0;
    if !profiled && !traced {
        return SpanGuard(None);
    }
    if traced {
        // Pin the trace epoch at span *open* so begin timestamps are never
        // negative, no matter which span finishes first.
        crate::trace::epoch();
    }
    let registry = if profiled {
        Some(SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{}/{name}", parent.path),
                None => name.to_owned(),
            };
            stack.push(Frame { path: path.clone(), child_seconds: 0.0 });
            (path, stack.len())
        }))
    } else {
        None
    };
    SpanGuard(Some(ActiveSpan { name, index, registry, traced, start: Instant::now() }))
}

/// Live state of an enabled span between [`span`] and the guard's drop.
#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    index: Option<u64>,
    /// Registry bookkeeping — slash-joined path and the stack length right
    /// after this span's frame was pushed (used to find, and defensively
    /// close past, the frame on drop). `None` for trace-only spans.
    registry: Option<(String, usize)>,
    /// Whether this span records a timeline event on drop.
    traced: bool,
    start: Instant,
}

/// RAII guard returned by [`span`]; records the timing when dropped.
#[derive(Debug)]
#[must_use = "a span measures the scope holding its guard; dropping it immediately records nothing useful"]
pub struct SpanGuard(Option<ActiveSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        let end = Instant::now();
        if active.traced {
            crate::trace::record(active.name, active.index, active.start, end);
        }
        let Some((path, depth)) = active.registry else {
            return;
        };
        let elapsed = end.saturating_duration_since(active.start).as_secs_f64();
        let child_seconds = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Defensive: drop any deeper frames an out-of-order caller left
            // open, then pop our own.
            stack.truncate(depth);
            let child = stack.pop().map_or(0.0, |frame| frame.child_seconds);
            if let Some(parent) = stack.last_mut() {
                parent.child_seconds += elapsed;
            }
            child
        });
        let self_seconds = (elapsed - child_seconds).max(0.0);
        crate::metrics::record_span(&path, elapsed, self_seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use crate::Collector;

    #[test]
    fn nesting_builds_paths_and_self_time_excludes_children() {
        let _serial = test_support::lock();
        let _on = Collector::enable();
        Collector::reset();
        {
            let _outer = span("span.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("span.inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let snapshot = Collector::snapshot();
        let outer = snapshot.span("span.outer").expect("outer span recorded");
        let inner = snapshot.span("span.outer/span.inner").expect("inner span nested under outer");
        assert!(snapshot.span("span.inner").is_none(), "inner must not appear as a root span");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_seconds >= inner.total_seconds);
        // Outer self time excludes the inner child entirely.
        assert!(
            outer.self_seconds <= outer.total_seconds - inner.total_seconds + 1e-6,
            "outer self {} vs total {} minus inner {}",
            outer.self_seconds,
            outer.total_seconds,
            inner.total_seconds
        );
        assert!(inner.self_seconds > 0.0);
        assert!(outer.min_seconds <= outer.max_seconds);
    }

    #[test]
    fn sibling_spans_share_a_parent_path_and_aggregate_by_count() {
        let _serial = test_support::lock();
        let _on = Collector::enable();
        Collector::reset();
        {
            let _parent = span("span.parent");
            for _ in 0..3 {
                let _child = span("span.child");
            }
        }
        let snapshot = Collector::snapshot();
        assert_eq!(snapshot.span("span.parent/span.child").map(|s| s.count), Some(3));
    }

    #[test]
    fn spans_opened_while_disabled_stay_inert_across_a_late_enable() {
        let _serial = test_support::lock();
        let off = Collector::disable();
        let trace_off = Collector::disable_trace();
        Collector::reset();
        let guard = span("span.inert");
        let on = Collector::enable();
        let trace_on = Collector::enable_trace();
        drop(guard); // created disabled ⇒ records nothing even though now enabled
        assert!(Collector::snapshot().span("span.inert").is_none());
        assert!(Collector::trace_snapshot().events.iter().all(|e| e.name != "span.inert"));
        drop(trace_on);
        drop(on);
        drop(trace_off);
        drop(off);
    }

    #[test]
    fn indexed_spans_aggregate_under_the_plain_name_in_the_registry() {
        let _serial = test_support::lock();
        let _on = Collector::enable();
        let _trace_off = Collector::disable_trace();
        Collector::reset();
        for i in 0..4 {
            let _cell = span_indexed("span.cell", i);
        }
        let snapshot = Collector::snapshot();
        assert_eq!(snapshot.span("span.cell").map(|s| s.count), Some(4));
        assert!(snapshot.spans.iter().all(|s| !s.name.contains('[')));
        Collector::reset();
    }
}
