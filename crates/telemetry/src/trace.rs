//! Timeline trace recording and Chrome trace-event-format export.
//!
//! When tracing is active ([`trace_enabled`](crate::trace_enabled), via
//! `RLCKIT_TRACE=1` or [`Collector::enable_trace`](crate::Collector)),
//! every span additionally records one complete event — leaf name, optional
//! index tag, thread id, begin timestamp and duration — into a process-wide
//! buffer. [`snapshot`] freezes the buffer into a [`TraceSnapshot`] whose
//! [`to_json`](TraceSnapshot::to_json) output follows the Chrome
//! trace-event format (`"ph": "X"` complete events, microsecond units), so
//! a `TRACE_<name>.json` document loads directly in `chrome://tracing` or
//! Perfetto.
//!
//! Timestamps are measured against a process-wide epoch pinned at the first
//! traced span open, so every `ts` is non-negative. The buffer is capped at
//! [`MAX_EVENTS`]; past the cap events are counted as dropped rather than
//! recorded, keeping long sweeps bounded in memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Hard cap on buffered events (~1M); beyond it events are dropped and
/// counted so the export can report the truncation.
pub(crate) const MAX_EVENTS: usize = 1 << 20;

/// One complete ("ph":"X") timeline event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span leaf name (static, as passed to `span`/`span_indexed`).
    pub name: &'static str,
    /// Optional index tag (`span_indexed`), rendered as `name[index]`.
    pub index: Option<u64>,
    /// Recording thread id (small integers assigned in first-span order).
    pub tid: u64,
    /// Begin timestamp in microseconds since the trace epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

#[derive(Default)]
struct Buffer {
    events: Vec<TraceEvent>,
    dropped: u64,
}

fn buffer() -> MutexGuard<'static, Buffer> {
    static BUFFER: OnceLock<Mutex<Buffer>> = OnceLock::new();
    BUFFER.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide trace epoch, pinned the first time it is needed (the
/// first traced span **open**, so begin timestamps are never negative).
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Small, stable per-thread id for the `tid` field (assigned from 1 in the
/// order threads first record a traced span).
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Records one complete event. Called from the span guard's drop path only
/// when the span was created with tracing active.
pub(crate) fn record(name: &'static str, index: Option<u64>, begin: Instant, end: Instant) {
    let epoch = epoch();
    let ts_us = end.min(begin).duration_since(epoch).as_secs_f64() * 1e6;
    let dur_us = end.saturating_duration_since(begin).as_secs_f64() * 1e6;
    let tid = thread_id();
    let mut buf = buffer();
    if buf.events.len() >= MAX_EVENTS {
        buf.dropped += 1;
        return;
    }
    buf.events.push(TraceEvent { name, index, tid, ts_us, dur_us });
}

/// Freezes the buffered events into a deterministic snapshot (sorted by
/// begin timestamp, then thread id, then name).
pub(crate) fn snapshot() -> TraceSnapshot {
    let buf = buffer();
    let mut events = buf.events.clone();
    let dropped = buf.dropped;
    drop(buf);
    events.sort_by(|a, b| {
        a.ts_us
            .partial_cmp(&b.ts_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.tid.cmp(&b.tid))
            .then_with(|| a.name.cmp(b.name))
    });
    TraceSnapshot { events, dropped }
}

/// Clears the trace buffer and the dropped-event count.
pub(crate) fn reset() {
    let mut buf = buffer();
    buf.events.clear();
    buf.dropped = 0;
}

/// A frozen timeline: every traced span as a complete event, ordered by
/// begin timestamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Complete events sorted by `(ts_us, tid, name)`.
    pub events: Vec<TraceEvent>,
    /// Events discarded after the buffer cap was reached.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Renders the snapshot as a Chrome trace-event-format JSON document:
    /// `{"displayTimeUnit": "ms", "traceEvents": [...]}` with one
    /// `"ph": "X"` complete event per span, microsecond `ts`/`dur`, `pid`
    /// fixed at 1 and per-thread `tid`s. Indexed spans render their name as
    /// `name[index]`.
    pub(crate) fn to_json(&self, trace: &str) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\n");
        out.push_str("  \"displayTimeUnit\": \"ms\",\n");
        out.push_str(&format!(
            "  \"otherData\": {{\"trace\": {}, \"dropped_events\": {}}},\n",
            crate::json::quoted(trace),
            self.dropped
        ));
        out.push_str("  \"traceEvents\": [\n");
        for (i, event) in self.events.iter().enumerate() {
            let name = match event.index {
                Some(index) => format!("{}[{index}]", event.name),
                None => event.name.to_string(),
            };
            out.push_str(&format!(
                "    {{\"name\": {}, \"cat\": \"rlckit\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}{}\n",
                crate::json::quoted(&name),
                json_number(event.ts_us),
                json_number(event.dur_us),
                event.tid,
                comma(i, self.events.len()),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// File name convention for trace documents: `TRACE_<trace>.json`.
    pub(crate) fn file_name(trace: &str) -> String {
        format!("TRACE_{trace}.json")
    }

    /// Writes the JSON document as `TRACE_<trace>.json` under `dir`
    /// (resolve `dir` with [`output_dir`](crate::output_dir) to honour
    /// `RLCKIT_PROFILE_DIR`).
    pub fn write(&self, trace: &str, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(Self::file_name(trace));
        std::fs::write(&path, self.to_json(trace))?;
        Ok(path)
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use crate::{span, span_indexed, Collector};

    #[test]
    fn traced_spans_produce_chrome_events() {
        let _serial = crate::test_support::lock();
        let _profile = Collector::disable();
        let _trace = Collector::enable_trace();
        Collector::reset();
        {
            let _outer = span("trace.outer");
            let _inner = span_indexed("trace.cell", 7);
        }
        let snapshot = Collector::trace_snapshot();
        assert_eq!(snapshot.events.len(), 2);
        assert_eq!(snapshot.dropped, 0);
        assert_eq!(snapshot.events.iter().filter(|e| e.name == "trace.outer").count(), 1);
        let cell = snapshot.events.iter().find(|e| e.name == "trace.cell").expect("indexed event");
        assert_eq!(cell.index, Some(7));
        assert!(cell.ts_us >= 0.0 && cell.dur_us >= 0.0);

        let json = snapshot.to_json("test");
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"name\": \"trace.cell[7]\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"displayTimeUnit\": \"ms\""));
        Collector::reset();
    }

    #[test]
    fn tracing_disabled_records_no_events() {
        let _serial = crate::test_support::lock();
        let _profile = Collector::enable();
        let _trace = Collector::disable_trace();
        Collector::reset();
        {
            let _span = span("trace.silent");
        }
        assert!(Collector::trace_snapshot().events.is_empty());
        // ...but the registry still sees the span: the layers are independent.
        assert!(Collector::snapshot().span("trace.silent").is_some());
        Collector::reset();
    }

    #[test]
    fn snapshot_is_sorted_by_begin_timestamp() {
        let _serial = crate::test_support::lock();
        let _trace = Collector::enable_trace();
        Collector::reset();
        for _ in 0..8 {
            let _span = span("trace.sorted");
        }
        let snapshot = Collector::trace_snapshot();
        assert!(snapshot.events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        Collector::reset();
    }
}
