//! The bench-regression gate: exact comparison of the deterministic
//! `BENCH_*.json` trajectories.
//!
//! Every committed trajectory holds only numbers the code computes
//! deterministically — fill counts, reduced-model delay errors, read
//! delays, cache hit rates — never a clock reading. CI regenerates them in
//! smoke mode (`RLCKIT_BENCH_SMOKE=1`, which runs the *cheapest prefix* of
//! each bench's full parameter set) and diffs the fresh files against the
//! committed full-run baselines with [`compare_reports`]:
//!
//! * **structure is exact** — the top-level schema, the per-record keys and
//!   the units must match; every fresh record name must exist in the
//!   baseline (a rename or a new metric fails until the baseline is
//!   recommitted) and every baseline metric *family* (the `name` prefix
//!   before `/`) must still be produced (a silently deleted writer fails);
//! * **values are exact** — every shared record must satisfy
//!   `|fresh − baseline| ≤ 1e-9·|baseline|` ([`RELATIVE_BOUND`]), so a
//!   one-entry fill change or a drifted delay error fails, while the last
//!   bits of a float printed by a different platform's libm do not.
//!
//! Timing is gated where it can fail — by repeated samples in the
//! `benchmark/` harness — not here.
//!
//! The comparison is a plain function over parsed reports so the failure
//! modes are unit-testable; the `bench-check` binary wires it to
//! directories.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

use rlckit_telemetry::json::{self, Value};

/// The one value rule: a fresh value passes when
/// `|fresh − baseline| ≤ RELATIVE_BOUND·|baseline|`.
pub const RELATIVE_BOUND: f64 = 1e-9;

/// One `{"name": …, "value": …, "unit": …}` record of a parsed report.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// Metric name (`"sparse/1082"`).
    pub name: String,
    /// Measured value; `None` for JSON `null` (a non-finite measurement).
    pub value: Option<f64>,
    /// Unit string (`"seconds"`, `"x"`, `"count"`, …).
    pub unit: String,
}

impl ParsedRecord {
    /// The metric family: the name up to the first `/` (the whole name when
    /// there is no `/`). `"sparse/1082"` → `"sparse"`.
    pub fn family(&self) -> &str {
        self.name.split('/').next().unwrap_or(&self.name)
    }
}

/// A parsed `BENCH_*.json` trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedReport {
    /// The bench name from the `"bench"` field.
    pub bench: String,
    /// The records, in file order.
    pub records: Vec<ParsedRecord>,
}

/// Parses the flat trajectory format, rejecting any structural deviation
/// (unknown keys, missing keys, wrong value types).
///
/// # Errors
///
/// Returns a human-readable description of the first structural problem.
pub fn parse_report(text: &str) -> Result<ParsedReport, String> {
    let json = json::parse(text).map_err(|e| e.to_string())?;
    let Value::Obj(fields) = &json else {
        return Err("top level must be a JSON object".to_owned());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["bench", "results"] {
        return Err(format!("top-level keys must be [bench, results], got {keys:?}"));
    }
    let Value::Str(bench) = &fields[0].1 else {
        return Err("\"bench\" must be a string".to_owned());
    };
    let Value::Arr(items) = &fields[1].1 else {
        return Err("\"results\" must be an array".to_owned());
    };
    let mut records = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let Value::Obj(fields) = item else {
            return Err(format!("result {i} must be an object"));
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["name", "value", "unit"] {
            return Err(format!("result {i} keys must be [name, value, unit], got {keys:?}"));
        }
        let Value::Str(name) = &fields[0].1 else {
            return Err(format!("result {i}: \"name\" must be a string"));
        };
        let value = match &fields[1].1 {
            Value::Num(v) => Some(*v),
            Value::Null => None,
            other => return Err(format!("result {i}: \"value\" must be a number, got {other:?}")),
        };
        let Value::Str(unit) = &fields[2].1 else {
            return Err(format!("result {i}: \"unit\" must be a string"));
        };
        records.push(ParsedRecord { name: name.clone(), value, unit: unit.clone() });
    }
    Ok(ParsedReport { bench: bench.clone(), records })
}

/// Compares a fresh (smoke-run) report against its committed baseline.
///
/// Returns one message per violation; an empty vector means the gate passes.
pub fn compare_reports(baseline: &ParsedReport, fresh: &ParsedReport) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.bench != fresh.bench {
        violations
            .push(format!("bench renamed: baseline {:?}, fresh {:?}", baseline.bench, fresh.bench));
    }

    // Every fresh record must exist in the baseline, with the same unit.
    for record in &fresh.records {
        match baseline.records.iter().find(|b| b.name == record.name) {
            None => violations.push(format!(
                "metric {:?} is not in the committed baseline (renamed or added without \
                 recommitting the full-run trajectory)",
                record.name
            )),
            Some(base) => {
                if base.unit != record.unit {
                    violations.push(format!(
                        "metric {:?} changed unit: baseline {:?}, fresh {:?}",
                        record.name, base.unit, record.unit
                    ));
                }
                check_value(record, base, &mut violations);
            }
        }
    }

    // Every baseline metric family must still be produced: smoke runs shrink
    // each sweep to a prefix but never drop a whole metric.
    let fresh_families: BTreeSet<&str> = fresh.records.iter().map(ParsedRecord::family).collect();
    let baseline_families: BTreeSet<&str> =
        baseline.records.iter().map(ParsedRecord::family).collect();
    for family in baseline_families.difference(&fresh_families) {
        violations.push(format!(
            "metric family {family:?} is in the committed baseline but the bench no longer \
             produces it"
        ));
    }
    violations
}

fn check_value(fresh: &ParsedRecord, baseline: &ParsedRecord, violations: &mut Vec<String>) {
    let name = &fresh.name;
    match (baseline.value, fresh.value) {
        (Some(b), Some(f)) if (f - b).abs() <= RELATIVE_BOUND * b.abs() => {}
        (Some(b), Some(f)) => violations.push(format!(
            "metric {name:?} moved: baseline {b}, fresh {f} (|fresh - baseline| = {:e}, \
             bound {RELATIVE_BOUND:e} x |baseline|)",
            (f - b).abs()
        )),
        (b, f) => violations.push(format!(
            "metric {name:?} has a null (non-finite) value: baseline {b:?}, fresh {f:?}"
        )),
    }
}

/// Compares every `BENCH_*.json` in `baseline_dir` against its counterpart
/// in `fresh_dir`.
///
/// A baseline without a fresh counterpart (a bench that stopped writing its
/// trajectory) and a fresh trajectory without a baseline (a bench added
/// without committing its full run) are both violations.
///
/// # Errors
///
/// Propagates I/O errors from listing or reading the directories; parse
/// failures are reported as violations, not errors.
pub fn check_directories(baseline_dir: &Path, fresh_dir: &Path) -> std::io::Result<Vec<String>> {
    let list = |dir: &Path| -> std::io::Result<BTreeSet<String>> {
        let mut names = BTreeSet::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                names.insert(name);
            }
        }
        Ok(names)
    };
    let baselines = list(baseline_dir)?;
    let fresh_files = list(fresh_dir)?;

    let mut violations = Vec::new();
    for name in baselines.difference(&fresh_files) {
        violations.push(format!("baseline {name} has no freshly generated counterpart"));
    }
    for name in fresh_files.difference(&baselines) {
        violations.push(format!("fresh {name} has no committed baseline"));
    }
    for name in baselines.intersection(&fresh_files) {
        let read_parse = |dir: &Path| -> Result<ParsedReport, String> {
            let text = std::fs::read_to_string(dir.join(name)).map_err(|e| e.to_string())?;
            parse_report(&text)
        };
        match (read_parse(baseline_dir), read_parse(fresh_dir)) {
            (Ok(baseline), Ok(fresh)) => {
                for v in compare_reports(&baseline, &fresh) {
                    violations.push(format!("{name}: {v}"));
                }
            }
            (Err(e), _) => violations.push(format!("{name}: baseline unreadable: {e}")),
            (_, Err(e)) => violations.push(format!("{name}: fresh file unreadable: {e}")),
        }
    }
    Ok(violations)
}

/// One span entry of a parsed `PROFILE_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// Full slash-joined span path.
    pub name: String,
    /// Occurrence count.
    pub count: f64,
    /// Total wall seconds; `None` for JSON `null`.
    pub total_s: Option<f64>,
    /// Self (total minus children) wall seconds; `None` for JSON `null`.
    pub self_s: Option<f64>,
}

/// One `(site, metric)` row of a profile's health section.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedHealthSite {
    /// Instrumentation site (`"sparse.solve"`).
    pub site: String,
    /// Metric name (`"backward_error"`).
    pub metric: String,
    /// Highest severity observed (`"info"`, `"warning"` or `"error"`).
    pub severity: String,
    /// Total events recorded at this site.
    pub count: f64,
    /// Worst value observed; `None` for JSON `null` (non-finite).
    pub worst: Option<f64>,
    /// Threshold the worst observation was classified against.
    pub threshold: Option<f64>,
}

/// The health section of a parsed `PROFILE_*.json` document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedHealth {
    /// Total info-severity events.
    pub info: f64,
    /// Total warning-severity events.
    pub warning: f64,
    /// Total error-severity events.
    pub error: f64,
    /// The per-`(site, metric)` rows, in file order.
    pub sites: Vec<ParsedHealthSite>,
}

/// A parsed `PROFILE_*.json` document (spans plus the name sets of the
/// counter/gauge/histogram sections — the audit only needs names and span
/// timings — plus the numerical-health aggregates).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedProfile {
    /// The profile name from the `"profile"` field.
    pub profile: String,
    /// The span entries, in file order.
    pub spans: Vec<ParsedSpan>,
    /// Counter `(name, value)` pairs, in file order.
    pub counters: Vec<(String, f64)>,
    /// Gauge names, in file order.
    pub gauges: Vec<String>,
    /// Histogram names, in file order.
    pub histograms: Vec<String>,
    /// The numerical-health section.
    pub health: ParsedHealth,
}

impl ParsedProfile {
    /// Returns `true` if some span path contains the leaf `name` — as the
    /// whole path, a nested tail (`…/name`), or an interior segment.
    pub fn has_span_leaf(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name.split('/').any(|segment| segment == name))
    }

    /// Value of the counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Parses the flat profile format emitted by `rlckit-telemetry`, rejecting
/// any structural deviation — the `PROFILE_*.json` counterpart of
/// [`parse_report`].
///
/// # Errors
///
/// Returns a human-readable description of the first structural problem.
pub fn parse_profile(text: &str) -> Result<ParsedProfile, String> {
    let json = json::parse(text).map_err(|e| e.to_string())?;
    let Value::Obj(fields) = &json else {
        return Err("top level must be a JSON object".to_owned());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["profile", "spans", "counters", "gauges", "histograms", "health"] {
        return Err(format!(
            "top-level keys must be [profile, spans, counters, gauges, histograms, health], \
             got {keys:?}"
        ));
    }
    let Value::Str(profile) = &fields[0].1 else {
        return Err("\"profile\" must be a string".to_owned());
    };

    // The entries of an array of flat objects whose key list must match
    // exactly.
    fn named_items<'a>(
        section: &'a Value,
        section_name: &str,
        expected: &[&str],
    ) -> Result<Vec<&'a [(String, Value)]>, String> {
        let items =
            section.as_arr().ok_or_else(|| format!("\"{section_name}\" must be an array"))?;
        let entry = |(i, item): (usize, &'a Value)| {
            let fields = item
                .as_obj()
                .ok_or_else(|| format!("{section_name} entry {i} must be an object"))?;
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            if keys != expected {
                return Err(format!(
                    "{section_name} entry {i} keys must be {expected:?}, got {keys:?}"
                ));
            }
            Ok(fields)
        };
        items.iter().enumerate().map(entry).collect()
    }
    let string_of = |v: &Value, what: &str| {
        v.as_str().map(str::to_owned).ok_or_else(|| format!("{what} must be a string, got {v:?}"))
    };
    let number_of = |v: &Value, what: &str| {
        v.as_f64().ok_or_else(|| format!("{what} must be a number, got {v:?}"))
    };
    let nullable_of = |v: &Value, what: &str| match v {
        Value::Null => Ok(None),
        _ => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("{what} must be a number or null, got {v:?}")),
    };

    let mut spans = Vec::new();
    for entry in named_items(
        &fields[1].1,
        "spans",
        &["name", "count", "total_s", "self_s", "min_s", "max_s"],
    )? {
        let name = string_of(&entry[0].1, "span name")?;
        spans.push(ParsedSpan {
            count: number_of(&entry[1].1, &format!("span {name:?} count"))?,
            total_s: nullable_of(&entry[2].1, &format!("span {name:?} total_s"))?,
            self_s: nullable_of(&entry[3].1, &format!("span {name:?} self_s"))?,
            name,
        });
    }
    let mut counters = Vec::new();
    for entry in named_items(&fields[2].1, "counters", &["name", "value"])? {
        let name = string_of(&entry[0].1, "counter name")?;
        let value = number_of(&entry[1].1, &format!("counter {name:?} value"))?;
        counters.push((name, value));
    }
    let mut gauges = Vec::new();
    for entry in named_items(&fields[3].1, "gauges", &["name", "value"])? {
        gauges.push(string_of(&entry[0].1, "gauge name")?);
        nullable_of(&entry[1].1, "gauge value")?;
    }
    let mut histograms = Vec::new();
    for entry in named_items(&fields[4].1, "histograms", &["name", "count", "sum_s", "buckets"])? {
        let name = string_of(&entry[0].1, "histogram name")?;
        number_of(&entry[1].1, &format!("histogram {name:?} count"))?;
        for bucket in named_items(&entry[3].1, "buckets", &["le_s", "count"])? {
            number_of(&bucket[0].1, "bucket le_s")?;
            number_of(&bucket[1].1, "bucket count")?;
        }
        histograms.push(name);
    }

    let Value::Obj(health_fields) = &fields[5].1 else {
        return Err("\"health\" must be an object".to_owned());
    };
    let health_keys: Vec<&str> = health_fields.iter().map(|(k, _)| k.as_str()).collect();
    if health_keys != ["info", "warning", "error", "sites"] {
        return Err(format!(
            "health keys must be [info, warning, error, sites], got {health_keys:?}"
        ));
    }
    let mut health = ParsedHealth {
        info: number_of(&health_fields[0].1, "health info count")?,
        warning: number_of(&health_fields[1].1, "health warning count")?,
        error: number_of(&health_fields[2].1, "health error count")?,
        sites: Vec::new(),
    };
    for entry in named_items(
        &health_fields[3].1,
        "health sites",
        &["site", "metric", "severity", "count", "worst", "threshold"],
    )? {
        let site = string_of(&entry[0].1, "health site")?;
        let severity = string_of(&entry[2].1, &format!("health site {site:?} severity"))?;
        if !matches!(severity.as_str(), "info" | "warning" | "error") {
            return Err(format!("health site {site:?} has unknown severity {severity:?}"));
        }
        health.sites.push(ParsedHealthSite {
            metric: string_of(&entry[1].1, &format!("health site {site:?} metric"))?,
            severity,
            count: number_of(&entry[3].1, &format!("health site {site:?} count"))?,
            worst: nullable_of(&entry[4].1, &format!("health site {site:?} worst"))?,
            threshold: nullable_of(&entry[5].1, &format!("health site {site:?} threshold"))?,
            site,
        });
    }
    Ok(ParsedProfile { profile: profile.clone(), spans, counters, gauges, histograms, health })
}

/// Audits a parsed profile: structural sanity of every span (a positive
/// count, finite non-negative timings, self ≤ total) plus presence of the
/// required span leaves and counters.
///
/// Returns one message per violation; an empty vector means the audit
/// passes.
pub fn audit_profile(
    profile: &ParsedProfile,
    required_spans: &[&str],
    required_counters: &[&str],
) -> Vec<String> {
    let mut violations = Vec::new();
    if profile.spans.is_empty() {
        violations.push(
            "profile has no spans at all (was the run actually profiled with \
             RLCKIT_PROFILE=1?)"
                .to_owned(),
        );
    }
    for span in &profile.spans {
        let name = &span.name;
        if !(span.count >= 1.0) {
            violations.push(format!("span {name:?} has a non-positive count {}", span.count));
        }
        match (span.total_s, span.self_s) {
            (Some(total), Some(self_s)) => {
                if !total.is_finite() || total < 0.0 || !self_s.is_finite() || self_s < 0.0 {
                    violations.push(format!(
                        "span {name:?} has a negative or non-finite timing: total {total}, \
                         self {self_s}"
                    ));
                } else if self_s > total * (1.0 + 1e-9) + 1e-12 {
                    violations.push(format!(
                        "span {name:?} reports more self time ({self_s}) than total ({total})"
                    ));
                }
            }
            _ => violations.push(format!("span {name:?} has a null timing")),
        }
    }
    for &required in required_spans {
        if !profile.has_span_leaf(required) {
            violations.push(format!("required span {required:?} is missing from the profile"));
        }
    }
    for &required in required_counters {
        match profile.counter(required) {
            None => violations
                .push(format!("required counter {required:?} is missing from the profile")),
            Some(v) if !v.is_finite() || v < 0.0 => {
                violations.push(format!("required counter {required:?} has a bad value {v}"));
            }
            Some(_) => {}
        }
    }
    // The numerical-health gate: any error-severity event in a profiled run
    // means a solve went numerically wrong, which no timing gate would catch.
    if profile.health.error > 0.0 {
        let worst: Vec<String> = profile
            .health
            .sites
            .iter()
            .filter(|s| s.severity == "error")
            .map(|s| format!("{}/{} (worst {:?})", s.site, s.metric, s.worst))
            .collect();
        violations.push(format!(
            "profile records {} error-severity health event(s): {}",
            profile.health.error,
            worst.join(", ")
        ));
    }
    violations
}

/// Ratio band for [`compare_profiles`]' counter values: a counter may drift
/// by up to this factor either way against the committed baseline. Counts
/// move with the smoke workload's shape, so only order-of-magnitude shifts
/// are actionable.
const COUNTER_BAND: f64 = 100.0;

/// Compares a fresh profile snapshot against a committed baseline:
/// structural drift (new or vanished span paths and counters) is exact,
/// counter values must stay nonzero and within a 100× ratio band of the
/// baseline, and error-severity health events always fail. Span timings
/// are not compared.
///
/// Returns one message per violation; an empty vector means the gate passes.
pub fn compare_profiles(baseline: &ParsedProfile, fresh: &ParsedProfile) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.profile != fresh.profile {
        violations.push(format!(
            "profile renamed: baseline {:?}, fresh {:?}",
            baseline.profile, fresh.profile
        ));
    }

    // Span sets must match exactly: a new span means new instrumentation
    // that needs a recommitted baseline, a vanished span means coverage rot.
    for span in &fresh.spans {
        if !baseline.spans.iter().any(|b| b.name == span.name) {
            violations.push(format!(
                "span {:?} is not in the committed baseline (new instrumentation? recommit the \
                 baseline profile)",
                span.name
            ));
        }
    }
    for base in &baseline.spans {
        if !fresh.spans.iter().any(|s| s.name == base.name) {
            violations.push(format!(
                "span {:?} is in the committed baseline but vanished from the fresh profile",
                base.name
            ));
        }
    }

    // Counters: same exact-set rule, ratio-gated values.
    for (name, value) in &fresh.counters {
        match baseline.counter(name) {
            None => violations.push(format!("counter {name:?} is not in the committed baseline")),
            Some(base) => {
                if base == 0.0 && *value == 0.0 {
                    continue;
                }
                if base == 0.0 || *value == 0.0 {
                    violations.push(format!(
                        "counter {name:?} collapsed to zero on one side: baseline {base}, \
                         fresh {value}"
                    ));
                    continue;
                }
                let ratio = value / base;
                if !(1.0 / COUNTER_BAND..=COUNTER_BAND).contains(&ratio) {
                    violations.push(format!(
                        "counter {name:?} moved {ratio:.3}x against the baseline (band \
                         {COUNTER_BAND}x): baseline {base}, fresh {value}"
                    ));
                }
            }
        }
    }
    for (name, _) in &baseline.counters {
        if fresh.counter(name).is_none() {
            violations.push(format!(
                "counter {name:?} is in the committed baseline but vanished from the fresh \
                 profile"
            ));
        }
    }

    if fresh.health.error > 0.0 {
        violations.push(format!(
            "fresh profile records {} error-severity health event(s)",
            fresh.health.error
        ));
    }
    violations
}

/// Renders a violation list as a readable multi-line report.
pub fn render_violations(violations: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "bench-regression gate: {} violation(s)", violations.len());
    for v in violations {
        let _ = writeln!(out, "  - {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{workspace_root, PerfReport};

    fn report(records: &[(&str, f64, &str)]) -> ParsedReport {
        let mut r = PerfReport::new("demo");
        for &(name, value, unit) in records {
            r.push(name, value, unit);
        }
        parse_report(&r.to_json()).expect("round trip through the writer")
    }

    #[test]
    fn writer_output_round_trips_through_the_parser() {
        let parsed = report(&[("l_nnz/87", 172.0, "count"), ("fill_ratio/87", 1.25, "x")]);
        assert_eq!(parsed.bench, "demo");
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.records[0].name, "l_nnz/87");
        assert_eq!(parsed.records[0].value, Some(172.0));
        assert_eq!(parsed.records[0].family(), "l_nnz");
        assert_eq!(parsed.records[1].unit, "x");
    }

    #[test]
    fn null_values_parse_and_then_fail_the_gate() {
        let mut r = PerfReport::new("demo");
        r.push("fill_ratio/10", f64::INFINITY, "x"); // serialised as null
        let parsed = parse_report(&r.to_json()).unwrap();
        assert_eq!(parsed.records[0].value, None);
        let ok = report(&[("fill_ratio/10", 2.0, "x")]);
        let violations = compare_reports(&ok, &parsed);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("null"));
    }

    #[test]
    fn structural_deviations_are_parse_errors() {
        assert!(parse_report("[1, 2]").is_err());
        assert!(parse_report("{\"bench\": \"x\"}").is_err());
        assert!(parse_report("{\"bench\": \"x\", \"results\": [{\"name\": \"a\", \"value\": 1}]}")
            .is_err());
        assert!(parse_report("{\"bench\": \"x\", \"results\": [], \"extra\": 1}").is_err());
        assert!(parse_report("{\"bench\": 3, \"results\": []}").is_err());
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(&[("l_nnz/100", 200.0, "count"), ("nodes/100", 100.0, "count")]);
        assert!(compare_reports(&a, &a).is_empty());
    }

    #[test]
    fn smoke_subsets_pass_when_every_family_survives() {
        let full = report(&[
            ("delay_error_pct/50", 0.0307, "percent"),
            ("delay_error_pct/1000", 0.0026, "percent"),
            ("order", 8.0, "count"),
        ]);
        let smoke = report(&[("delay_error_pct/50", 0.0307, "percent"), ("order", 8.0, "count")]);
        assert!(compare_reports(&full, &smoke).is_empty());
    }

    #[test]
    fn renamed_metrics_fail() {
        let baseline = report(&[("l_nnz/100", 200.0, "count")]);
        let fresh = report(&[("l_nonzeros/100", 200.0, "count")]);
        let violations = compare_reports(&baseline, &fresh);
        // The rename shows up from both directions: an unknown fresh metric
        // and a baseline family that disappeared.
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("not in the committed baseline")));
        assert!(violations.iter().any(|v| v.contains("no longer produces")));
    }

    #[test]
    fn dropped_metric_families_fail() {
        let baseline = report(&[("read_delay/8x8", 143.7, "ps"), ("nodes/87", 87.0, "count")]);
        let fresh = report(&[("read_delay/8x8", 143.7, "ps")]);
        let violations = compare_reports(&baseline, &fresh);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("\"nodes\""));
    }

    #[test]
    fn unit_changes_fail() {
        let baseline = report(&[("read_delay/8x8", 143.7, "ps")]);
        let fresh = report(&[("read_delay/8x8", 0.1437, "ns")]);
        let violations = compare_reports(&baseline, &fresh);
        assert!(violations.iter().any(|v| v.contains("changed unit")), "{violations:?}");
    }

    #[test]
    fn one_entry_fill_change_fails() {
        let baseline = report(&[("l_nnz/87", 172.0, "count"), ("mesh_l_nnz/66", 363.0, "count")]);
        let fresh = report(&[("l_nnz/87", 173.0, "count"), ("mesh_l_nnz/66", 363.0, "count")]);
        let violations = compare_reports(&baseline, &fresh);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("\"l_nnz/87\" moved"), "{violations:?}");
    }

    #[test]
    fn values_must_agree_to_one_part_in_a_billion() {
        let delay = 0.030_785_804_272_666_39;
        let baseline = report(&[("delay_error_pct/50", delay, "percent")]);
        let drifted = report(&[("delay_error_pct/50", delay * (1.0 + 1e-6), "percent")]);
        let violations = compare_reports(&baseline, &drifted);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("moved"));
        let last_bits = report(&[("delay_error_pct/50", delay * (1.0 + 1e-12), "percent")]);
        assert!(compare_reports(&baseline, &last_bits).is_empty());
    }

    #[test]
    fn sign_flips_and_zero_collapse_fail() {
        let baseline = report(&[("delta/1", 4.0, "ps"), ("zero/1", 0.0, "ratio")]);
        let flipped = report(&[("delta/1", -4.0, "ps"), ("zero/1", 0.0, "ratio")]);
        let violations = compare_reports(&baseline, &flipped);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("\"delta/1\" moved"));
        let collapsed = report(&[("delta/1", 0.0, "ps"), ("zero/1", 0.0, "ratio")]);
        let violations = compare_reports(&baseline, &collapsed);
        assert_eq!(violations.len(), 1, "matching zeros pass, collapses fail: {violations:?}");
        let risen = report(&[("delta/1", 4.0, "ps"), ("zero/1", 1e-300, "ratio")]);
        assert_eq!(compare_reports(&baseline, &risen).len(), 1, "a zero baseline admits only zero");
    }

    #[test]
    fn renamed_bench_fails() {
        let mut a = PerfReport::new("alpha");
        a.push("x/1", 1.0, "count");
        let mut b = PerfReport::new("beta");
        b.push("x/1", 1.0, "count");
        let a = parse_report(&a.to_json()).unwrap();
        let b = parse_report(&b.to_json()).unwrap();
        assert!(compare_reports(&a, &b).iter().any(|v| v.contains("bench renamed")));
    }

    #[test]
    fn directory_check_flags_missing_and_extra_files() {
        let base = std::env::temp_dir().join(format!("rlckit-bench-check-{}", std::process::id()));
        let baseline_dir = base.join("baseline");
        let fresh_dir = base.join("fresh");
        std::fs::create_dir_all(&baseline_dir).unwrap();
        std::fs::create_dir_all(&fresh_dir).unwrap();

        let mut shared = PerfReport::new("shared");
        shared.push("l_nnz/1", 172.0, "count");
        shared.write(&baseline_dir).unwrap();
        shared.write(&fresh_dir).unwrap();
        let mut only_base = PerfReport::new("gone");
        only_base.push("l_nnz/1", 172.0, "count");
        only_base.write(&baseline_dir).unwrap();
        let mut only_fresh = PerfReport::new("unbaselined");
        only_fresh.push("l_nnz/1", 172.0, "count");
        only_fresh.write(&fresh_dir).unwrap();

        let violations = check_directories(&baseline_dir, &fresh_dir).unwrap();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("BENCH_gone.json")));
        assert!(violations.iter().any(|v| v.contains("BENCH_unbaselined.json")));
        let rendered = render_violations(&violations);
        assert!(rendered.contains("2 violation(s)"));

        // A hand-edited baseline (one more fill entry) fails the matched file.
        let mut mutated = PerfReport::new("shared");
        mutated.push("l_nnz/1", 173.0, "count");
        mutated.write(&baseline_dir).unwrap();
        let violations = check_directories(&baseline_dir, &fresh_dir).unwrap();
        assert!(violations.iter().any(|v| v.contains("BENCH_shared.json") && v.contains("moved")));

        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn committed_trajectories_are_well_formed_and_carry_no_clock() {
        let mut files = 0;
        for entry in std::fs::read_dir(workspace_root()).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            files += 1;
            let parsed = parse_report(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            assert_eq!(parsed.bench, name["BENCH_".len()..name.len() - ".json".len()]);
            assert!(!parsed.records.is_empty(), "{name} records nothing");
            for r in &parsed.records {
                assert!(r.value.is_some(), "{name}: {:?} is null", r.name);
                assert!(
                    !["seconds", "ms", "req/s"].contains(&r.unit.as_str()),
                    "{name}: {:?} carries a time unit {:?}",
                    r.name,
                    r.unit
                );
                assert!(!r.name.contains("speedup"), "{name}: {:?} is a timing ratio", r.name);
            }
        }
        assert!(files > 0, "no BENCH_*.json at the workspace root");
    }

    /// Builds a real profile snapshot through the telemetry crate so the
    /// writer and this parser are exercised as a pair.
    fn telemetry_profile() -> ParsedProfile {
        let _serial = rlckit_telemetry::test_support::lock();
        let _collector = rlckit_telemetry::Collector::enable();
        rlckit_telemetry::Collector::reset();
        {
            let _outer = rlckit_telemetry::span("check.outer");
            let _inner = rlckit_telemetry::span("check.inner");
            rlckit_telemetry::counter_add("check.counter", 2);
            rlckit_telemetry::gauge_set("check.gauge", 0.5);
            rlckit_telemetry::observe_seconds("check.hist", 1e-3);
            rlckit_telemetry::check_metric("check.site", "backward_error", 1e-14, 1e-10, 1e-6);
        }
        let snapshot = rlckit_telemetry::Collector::snapshot();
        parse_profile(&snapshot.to_json("unit")).expect("writer output parses")
    }

    #[test]
    fn profile_writer_output_round_trips_through_the_parser() {
        let parsed = telemetry_profile();
        assert_eq!(parsed.profile, "unit");
        assert!(parsed.has_span_leaf("check.outer"));
        assert!(parsed.has_span_leaf("check.inner"), "nested leaf must be found inside its path");
        assert!(!parsed.has_span_leaf("check.absent"));
        assert_eq!(parsed.counter("check.counter"), Some(2.0));
        assert_eq!(parsed.gauges, ["check.gauge"]);
        assert_eq!(parsed.histograms, ["check.hist"]);
        assert_eq!(parsed.health.info, 1.0);
        assert_eq!(parsed.health.error, 0.0);
        assert_eq!(parsed.health.sites.len(), 1);
        assert_eq!(parsed.health.sites[0].site, "check.site");
        assert_eq!(parsed.health.sites[0].metric, "backward_error");
        assert_eq!(parsed.health.sites[0].severity, "info");
    }

    #[test]
    fn profile_structural_deviations_are_parse_errors() {
        assert!(parse_profile("[1]").is_err());
        assert!(parse_profile("{\"profile\": \"x\"}").is_err());
        // Wrong span keys.
        assert!(parse_profile(
            "{\"profile\": \"x\", \"spans\": [{\"name\": \"a\", \"count\": 1}], \
             \"counters\": [], \"gauges\": [], \"histograms\": []}"
        )
        .is_err());
        // Sections out of order.
        assert!(parse_profile(
            "{\"profile\": \"x\", \"counters\": [], \"spans\": [], \
             \"gauges\": [], \"histograms\": []}"
        )
        .is_err());
    }

    #[test]
    fn profile_audit_passes_a_healthy_profile_and_flags_gaps() {
        let parsed = telemetry_profile();
        let clean = audit_profile(&parsed, &["check.outer", "check.inner"], &["check.counter"]);
        assert!(clean.is_empty(), "{clean:?}");

        let violations =
            audit_profile(&parsed, &["sparse.factor"], &["sweep.cache_hits", "check.counter"]);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("sparse.factor")));
        assert!(violations.iter().any(|v| v.contains("sweep.cache_hits")));
    }

    #[test]
    fn profile_audit_flags_broken_span_accounting() {
        let empty = ParsedProfile {
            profile: "x".to_owned(),
            spans: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            health: ParsedHealth::default(),
        };
        assert!(audit_profile(&empty, &[], &[]).iter().any(|v| v.contains("no spans")));

        let broken = ParsedProfile {
            spans: vec![
                ParsedSpan {
                    name: "zero".to_owned(),
                    count: 0.0,
                    total_s: Some(1.0),
                    self_s: Some(0.5),
                },
                ParsedSpan {
                    name: "inverted".to_owned(),
                    count: 1.0,
                    total_s: Some(0.5),
                    self_s: Some(1.0),
                },
                ParsedSpan { name: "null".to_owned(), count: 1.0, total_s: None, self_s: None },
            ],
            ..empty
        };
        let violations = audit_profile(&broken, &[], &[]);
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("non-positive count")));
        assert!(violations.iter().any(|v| v.contains("more self time")));
        assert!(violations.iter().any(|v| v.contains("null timing")));
    }

    /// A hand-built profile with one healthy span and counter.
    fn profile_with(spans: &[(&str, f64)], counters: &[(&str, f64)]) -> ParsedProfile {
        ParsedProfile {
            profile: "unit".to_owned(),
            spans: spans
                .iter()
                .map(|&(name, self_s)| ParsedSpan {
                    name: name.to_owned(),
                    count: 1.0,
                    total_s: Some(self_s),
                    self_s: Some(self_s),
                })
                .collect(),
            counters: counters.iter().map(|&(n, v)| (n.to_owned(), v)).collect(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            health: ParsedHealth::default(),
        }
    }

    #[test]
    fn audit_fails_on_error_severity_health_events() {
        let mut profile = profile_with(&[("a", 0.1)], &[]);
        profile.health = ParsedHealth {
            info: 5.0,
            warning: 1.0,
            error: 2.0,
            sites: vec![ParsedHealthSite {
                site: "sparse.solve".to_owned(),
                metric: "backward_error".to_owned(),
                severity: "error".to_owned(),
                count: 8.0,
                worst: Some(3e-4),
                threshold: Some(1e-6),
            }],
        };
        let violations = audit_profile(&profile, &[], &[]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("error-severity"));
        assert!(violations[0].contains("sparse.solve/backward_error"));

        profile.health.error = 0.0;
        assert!(audit_profile(&profile, &[], &[]).is_empty());
    }

    #[test]
    fn profile_diff_passes_identical_and_noisy_profiles() {
        let baseline = profile_with(&[("run/solve", 0.5), ("run/tiny", 1e-6)], &[("cells", 64.0)]);
        assert!(compare_profiles(&baseline, &baseline).is_empty());
        // Span timings are never compared, however far they move; counters
        // pass inside their ratio band.
        let noisy = profile_with(&[("run/solve", 5e3), ("run/tiny", 9e-4)], &[("cells", 96.0)]);
        assert!(compare_profiles(&baseline, &noisy).is_empty());
    }

    #[test]
    fn profile_diff_fails_new_and_vanished_spans_and_counters() {
        let baseline = profile_with(&[("run/solve", 0.5)], &[("cells", 64.0)]);
        let drifted = profile_with(&[("run/other", 0.5)], &[("rows", 64.0)]);
        let violations = compare_profiles(&baseline, &drifted);
        assert_eq!(violations.len(), 4, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("\"run/other\"") && v.contains("not in")));
        assert!(violations.iter().any(|v| v.contains("\"run/solve\"") && v.contains("vanished")));
        assert!(violations.iter().any(|v| v.contains("\"rows\"") && v.contains("not in")));
        assert!(violations.iter().any(|v| v.contains("\"cells\"") && v.contains("vanished")));
    }

    #[test]
    fn profile_diff_fails_counter_collapse_and_health_errors() {
        let baseline = profile_with(&[("run/solve", 0.5)], &[("cells", 64.0)]);
        let mut fresh = profile_with(&[("run/solve", 0.5)], &[("cells", 0.0)]);
        fresh.health.error = 1.0;
        let violations = compare_profiles(&baseline, &fresh);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("collapsed to zero")));
        assert!(violations.iter().any(|v| v.contains("error-severity")));

        let blown_up = profile_with(&[("run/solve", 0.5)], &[("cells", 64.0 * 1e3)]);
        let violations = compare_profiles(&baseline, &blown_up);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("\"cells\" moved"));
    }

    #[test]
    fn profile_diff_round_trips_through_the_writer() {
        let parsed = telemetry_profile();
        assert!(compare_profiles(&parsed, &parsed).is_empty());
    }
}
