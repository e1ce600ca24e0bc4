//! Deterministic exporters: the frozen [`ProfileSnapshot`], its
//! `PROFILE_<name>.json` serialisation and the human-readable summary table.
//!
//! The JSON document follows the same conventions as the workspace's
//! `BENCH_*.json` perf trajectories (flat machine-written records, escaped
//! strings, `null` for non-finite numbers, records sorted by name) so the
//! same dependency-free tooling style can audit both. The schema:
//!
//! ```json
//! {
//!   "profile": "<name>",
//!   "spans":      [{"name": …, "count": …, "total_s": …, "self_s": …, "min_s": …, "max_s": …}],
//!   "counters":   [{"name": …, "value": …}],
//!   "gauges":     [{"name": …, "value": …}],
//!   "histograms": [{"name": …, "count": …, "sum_s": …, "buckets": [{"le_s": …, "count": …}]}],
//!   "health":     {"info": …, "warning": …, "error": …,
//!                  "sites": [{"site": …, "metric": …, "severity": …, "count": …, "worst": …, "threshold": …}]}
//! }
//! ```

use std::fmt::Write as _;

use crate::health::{self, HealthReport};
use crate::json::{number, quoted};
use crate::metrics;

/// Frozen statistics of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Full slash-joined span path (`"transient.run/sparse.solve"`).
    pub name: String,
    /// Number of completed occurrences.
    pub count: u64,
    /// Summed wall time over all occurrences, seconds.
    pub total_seconds: f64,
    /// Summed wall time minus time spent in child spans, seconds.
    pub self_seconds: f64,
    /// Shortest single occurrence, seconds.
    pub min_seconds: f64,
    /// Longest single occurrence, seconds.
    pub max_seconds: f64,
}

/// Frozen contents of one duration histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed durations, seconds.
    pub sum_seconds: f64,
    /// Non-empty power-of-two buckets as `(upper edge in seconds, count)`,
    /// ascending by edge.
    pub buckets: Vec<(f64, u64)>,
}

/// A deterministic, point-in-time copy of the whole metrics registry.
///
/// Every section is sorted by name, so two snapshots of identical registry
/// contents serialise byte-identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileSnapshot {
    /// Span statistics, sorted by path.
    pub spans: Vec<SpanSnapshot>,
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Aggregated numerical-health events, rows sorted by `(site, metric)`.
    pub health: HealthReport,
}

/// Builds a snapshot from the live registry.
pub(crate) fn snapshot() -> ProfileSnapshot {
    let spans = metrics::lock_spans()
        .iter()
        .map(|(path, stat)| SpanSnapshot {
            name: path.clone(),
            count: stat.count,
            total_seconds: stat.total_seconds,
            self_seconds: stat.self_seconds,
            min_seconds: stat.min_seconds,
            max_seconds: stat.max_seconds,
        })
        .collect();
    let histograms = metrics::histograms_snapshot()
        .into_iter()
        .map(|(name, count, sum_seconds, buckets)| HistogramSnapshot {
            name,
            count,
            sum_seconds,
            buckets,
        })
        .collect();
    ProfileSnapshot {
        spans,
        counters: metrics::counters_snapshot(),
        gauges: metrics::gauges_snapshot(),
        histograms,
        health: health::snapshot_report(),
    }
}

impl ProfileSnapshot {
    /// Value of the counter `name`, if it was ever recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of the gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Statistics of the exact span path `name`, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Renders the snapshot as a deterministic flat JSON document.
    pub fn to_json(&self, profile: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"profile\": {},", quoted(profile));
        let _ = writeln!(out, "  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"count\": {}, \"total_s\": {}, \"self_s\": {}, \
                 \"min_s\": {}, \"max_s\": {}}}{}",
                quoted(&s.name),
                s.count,
                number(s.total_seconds),
                number(s.self_seconds),
                number(s.min_seconds),
                number(s.max_seconds),
                comma(i, self.spans.len())
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"counters\": [");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"value\": {value}}}{}",
                quoted(name),
                comma(i, self.counters.len())
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"gauges\": [");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"value\": {}}}{}",
                quoted(name),
                number(*value),
                comma(i, self.gauges.len())
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(le, n)| format!("{{\"le_s\": {}, \"count\": {n}}}", number(*le)))
                .collect();
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"count\": {}, \"sum_s\": {}, \"buckets\": [{}]}}{}",
                quoted(&h.name),
                h.count,
                number(h.sum_seconds),
                buckets.join(", "),
                comma(i, self.histograms.len())
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(
            out,
            "  \"health\": {{\"info\": {}, \"warning\": {}, \"error\": {}, \"sites\": [",
            self.health.info, self.health.warning, self.health.error
        );
        for (i, site) in self.health.sites.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"site\": {}, \"metric\": {}, \"severity\": \"{}\", \
                 \"count\": {}, \"worst\": {}, \"threshold\": {}}}{}",
                quoted(site.site),
                quoted(site.metric),
                site.severity.name(),
                site.count,
                number(site.worst_value),
                number(site.threshold),
                comma(i, self.health.sites.len())
            );
        }
        let _ = writeln!(out, "  ]}}");
        let _ = write!(out, "}}");
        out
    }

    /// The canonical file name for a profile: `PROFILE_<name>.json`.
    pub(crate) fn file_name(profile: &str) -> String {
        format!("PROFILE_{profile}.json")
    }

    /// Writes the snapshot to `PROFILE_<profile>.json` under `dir`,
    /// returning the path written.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write(
        &self,
        profile: &str,
        dir: &std::path::Path,
    ) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(Self::file_name(profile));
        std::fs::write(&path, self.to_json(profile))?;
        Ok(path)
    }

    /// Renders a human-readable summary: the top spans ranked by self time,
    /// then the counter, gauge and histogram dumps.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== profile summary ==");
        if self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty() {
            let _ = writeln!(out, "(no telemetry recorded — is the collector enabled?)");
            return out;
        }
        let mut ranked: Vec<&SpanSnapshot> = self.spans.iter().collect();
        ranked.sort_by(|a, b| {
            b.self_seconds
                .partial_cmp(&a.self_seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        let _ = writeln!(out, "top spans by self time:");
        let _ = writeln!(out, "  {:>12}  {:>12}  {:>8}  span", "self(s)", "total(s)", "count");
        for s in ranked.iter().take(15) {
            let _ = writeln!(
                out,
                "  {:>12.6}  {:>12.6}  {:>8}  {}",
                s.self_seconds, s.total_seconds, s.count, s.name
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for h in &self.histograms {
                let mean = if h.count > 0 { h.sum_seconds / h.count as f64 } else { 0.0 };
                let _ = writeln!(
                    out,
                    "  {}: {} observation(s), mean {:.3e} s, {} bucket(s)",
                    h.name,
                    h.count,
                    mean,
                    h.buckets.len()
                );
            }
        }
        if !self.health.is_empty() {
            let _ = writeln!(
                out,
                "health: {} info / {} warning / {} error",
                self.health.info, self.health.warning, self.health.error
            );
            for site in self.health.worst_sites(10) {
                let _ = writeln!(
                    out,
                    "  [{}] {} {}: worst {:.3e} (threshold {:.3e}, {} event(s))",
                    site.severity.name(),
                    site.site,
                    site.metric,
                    site.worst_value,
                    site.threshold,
                    site.count
                );
            }
        }
        out
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;
    use crate::{counter_add, gauge_set, observe_seconds, span, Collector};

    fn populated_snapshot() -> ProfileSnapshot {
        Collector::reset();
        {
            let _outer = span("export.outer");
            let _inner = span("export.inner");
            counter_add("export.counter", 5);
            gauge_set("export.gauge", 2.25);
            observe_seconds("export.hist", 1e-6);
            observe_seconds("export.hist", 3e-3);
            crate::check_metric("export.site", "backward_error", 0.5, 1.0, 2.0);
        }
        Collector::snapshot()
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let _serial = test_support::lock();
        let _on = Collector::enable();
        let snapshot = populated_snapshot();
        let json = snapshot.to_json("unit");
        assert_eq!(json, snapshot.to_json("unit"), "serialisation must be deterministic");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"profile\": \"unit\""));
        assert!(json.contains("\"name\": \"export.outer/export.inner\""));
        assert!(json.contains("\"name\": \"export.counter\", \"value\": 5"));
        assert!(json.contains("\"name\": \"export.gauge\", \"value\": 2.25"));
        assert!(json.contains("\"le_s\""));
        assert!(json.contains("\"health\": {\"info\": 1, \"warning\": 0, \"error\": 0"));
        assert!(json.contains(
            "{\"site\": \"export.site\", \"metric\": \"backward_error\", \
             \"severity\": \"info\", \"count\": 1, \"worst\": 0.5, \"threshold\": 1}"
        ));
        assert_eq!(ProfileSnapshot::file_name("unit"), "PROFILE_unit.json");
    }

    #[test]
    fn write_round_trips_to_disk() {
        let _serial = test_support::lock();
        let _on = Collector::enable();
        let snapshot = populated_snapshot();
        let dir = std::env::temp_dir();
        let path = snapshot.write("export_unit_test", &dir).expect("writable temp dir");
        let body = std::fs::read_to_string(&path).expect("file exists");
        assert_eq!(body, snapshot.to_json("export_unit_test"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn summary_ranks_spans_and_dumps_counters() {
        let _serial = test_support::lock();
        let _on = Collector::enable();
        let snapshot = populated_snapshot();
        let summary = snapshot.summary();
        assert!(summary.contains("top spans by self time"));
        assert!(summary.contains("export.outer"));
        assert!(summary.contains("export.counter = 5"));
        assert!(summary.contains("export.gauge = 2.25"));
        assert!(summary.contains("export.hist"));
        // Accessors agree with the rendered sections.
        assert_eq!(snapshot.counter("export.counter"), Some(5));
        assert_eq!(snapshot.counter("export.absent"), None);
        assert_eq!(snapshot.gauge("export.gauge"), Some(2.25));
        assert_eq!(snapshot.spans.iter().filter(|s| s.name.ends_with("/export.inner")).count(), 1);
    }

    #[test]
    fn empty_snapshot_summary_points_at_the_collector() {
        let snapshot = ProfileSnapshot::default();
        assert!(snapshot.summary().contains("no telemetry recorded"));
    }
}
