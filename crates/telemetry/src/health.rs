//! Numerical-health event aggregation.
//!
//! Solver kernels report scalar health metrics — backward error after a
//! solve, condition estimates after a factorisation, pivot growth, transient
//! step residuals — through [`check_metric`]. Every metric in this module
//! follows one contract: **larger is worse**. A measurement is classified
//! against its site's warning/error thresholds and folded into a
//! per-`(site, metric)` aggregate (event counts per severity, worst value
//! observed, the threshold that classification used), which
//! [`snapshot_report`] freezes into the [`HealthReport`] attached to every
//! [`ProfileSnapshot`](crate::ProfileSnapshot).
//!
//! Like every other site in this crate, health recording is free when
//! profiling is off: both entry points start with the
//! [`enabled`](crate::enabled) gate.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// How alarming a health measurement is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A routine measurement within its thresholds; recorded so the report
    /// shows how often each check ran and the worst value it ever saw.
    Info,
    /// The metric crossed its warning threshold: accuracy is degrading but
    /// results are still usable.
    Warning,
    /// The metric crossed its error threshold: results at this site are
    /// numerically suspect.
    Error,
}

impl Severity {
    /// Stable lower-case name used in JSON documents and summaries.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Per-`(site, metric)` aggregate.
#[derive(Debug, Clone)]
struct SiteStat {
    info: u64,
    warning: u64,
    error: u64,
    /// Largest value observed (larger is worse by module contract).
    worst: f64,
    /// The threshold the worst observation was classified against.
    threshold: f64,
    /// Highest severity observed at this site.
    severity: Severity,
}

fn registry() -> MutexGuard<'static, BTreeMap<(&'static str, &'static str), SiteStat>> {
    static SITES: OnceLock<Mutex<BTreeMap<(&'static str, &'static str), SiteStat>>> =
        OnceLock::new();
    SITES.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// Records one pre-classified health event at `site` for `metric`.
///
/// `value` is the measurement, `threshold` the limit it was judged against.
/// No-op unless profiling is [`enabled`](crate::enabled). Most callers want
/// [`check_metric`], which classifies for them.
pub fn health_event(
    severity: Severity,
    site: &'static str,
    metric: &'static str,
    value: f64,
    threshold: f64,
) {
    if !crate::enabled() {
        return;
    }
    let mut sites = registry();
    let stat = sites.entry((site, metric)).or_insert(SiteStat {
        info: 0,
        warning: 0,
        error: 0,
        worst: f64::NEG_INFINITY,
        threshold,
        severity,
    });
    match severity {
        Severity::Info => stat.info += 1,
        Severity::Warning => stat.warning += 1,
        Severity::Error => stat.error += 1,
    }
    // A NaN measurement is maximally bad and pins the worst slot; otherwise
    // the largest value wins (larger is worse by module contract).
    if !stat.worst.is_nan() && (value.is_nan() || value > stat.worst) {
        stat.worst = value;
        stat.threshold = threshold;
    }
    stat.severity = stat.severity.max(severity);
}

/// Classifies `value` against the two thresholds (larger is worse: above
/// `error_threshold` → [`Severity::Error`], above `warn_threshold` →
/// [`Severity::Warning`], otherwise [`Severity::Info`]) and records the
/// event. Non-finite values are always errors. Returns the severity chosen,
/// or `None` when profiling is disabled and nothing was recorded.
pub fn check_metric(
    site: &'static str,
    metric: &'static str,
    value: f64,
    warn_threshold: f64,
    error_threshold: f64,
) -> Option<Severity> {
    if !crate::enabled() {
        return None;
    }
    let (severity, threshold) = if !value.is_finite() || value > error_threshold {
        (Severity::Error, error_threshold)
    } else if value > warn_threshold {
        (Severity::Warning, warn_threshold)
    } else {
        (Severity::Info, warn_threshold)
    };
    health_event(severity, site, metric, value, threshold);
    Some(severity)
}

/// One `(site, metric)` row of a [`HealthReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSite {
    /// Instrumentation site, e.g. `"sparse.solve"`.
    pub site: &'static str,
    /// Metric name, e.g. `"backward_error"`.
    pub metric: &'static str,
    /// Total events recorded at this site (all severities).
    pub count: u64,
    /// Worst (largest) value observed.
    pub worst_value: f64,
    /// Threshold the worst observation was classified against.
    pub threshold: f64,
    /// Highest severity observed at this site.
    pub severity: Severity,
}

/// Aggregated numerical-health state: per-severity totals plus one row per
/// `(site, metric)` pair, sorted by key for determinism.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Total info-severity events.
    pub info: u64,
    /// Total warning-severity events.
    pub warning: u64,
    /// Total error-severity events.
    pub error: u64,
    /// Per-`(site, metric)` rows, sorted by `(site, metric)`.
    pub sites: Vec<HealthSite>,
}

impl HealthReport {
    /// Whether any event has been recorded at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The row for `(site, metric)`, if any events were recorded there.
    pub fn site(&self, site: &str, metric: &str) -> Option<&HealthSite> {
        self.sites.iter().find(|s| s.site == site && s.metric == metric)
    }

    /// The `k` most alarming rows: highest severity first, then largest
    /// worst-value-to-threshold ratio.
    pub(crate) fn worst_sites(&self, k: usize) -> Vec<&HealthSite> {
        let ratio = |s: &HealthSite| {
            if !s.worst_value.is_finite() {
                f64::INFINITY
            } else if s.threshold > 0.0 {
                s.worst_value / s.threshold
            } else {
                s.worst_value
            }
        };
        let mut rows: Vec<&HealthSite> = self.sites.iter().collect();
        rows.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| ratio(b).partial_cmp(&ratio(a)).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| (a.site, a.metric).cmp(&(b.site, b.metric)))
        });
        rows.truncate(k);
        rows
    }
}

/// Freezes the current health aggregates into a deterministic report.
pub(crate) fn snapshot_report() -> HealthReport {
    let sites = registry();
    let mut report = HealthReport::default();
    for (&(site, metric), stat) in sites.iter() {
        report.info += stat.info;
        report.warning += stat.warning;
        report.error += stat.error;
        report.sites.push(HealthSite {
            site,
            metric,
            count: stat.info + stat.warning + stat.error,
            worst_value: stat.worst,
            threshold: stat.threshold,
            severity: stat.severity,
        });
    }
    report
}

/// Clears every health aggregate.
pub(crate) fn reset() {
    registry().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    #[test]
    fn check_metric_classifies_and_aggregates() {
        let _serial = crate::test_support::lock();
        let _on = Collector::enable();
        Collector::reset();
        assert_eq!(
            check_metric("health.test_site", "residual", 1e-14, 1e-10, 1e-6),
            Some(Severity::Info)
        );
        assert_eq!(
            check_metric("health.test_site", "residual", 1e-8, 1e-10, 1e-6),
            Some(Severity::Warning)
        );
        assert_eq!(
            check_metric("health.test_site", "residual", 1e-3, 1e-10, 1e-6),
            Some(Severity::Error)
        );
        let report = snapshot_report();
        assert_eq!((report.info, report.warning, report.error), (1, 1, 1));
        let site = report.site("health.test_site", "residual").expect("row recorded");
        assert_eq!(site.count, 3);
        assert_eq!(site.severity, Severity::Error);
        assert_eq!(site.worst_value, 1e-3);
        assert_eq!(site.threshold, 1e-6);
        Collector::reset();
    }

    #[test]
    fn non_finite_values_are_errors_and_pin_the_worst_slot() {
        let _serial = crate::test_support::lock();
        let _on = Collector::enable();
        Collector::reset();
        check_metric("health.nan_site", "residual", 1e-20, 1e-10, 1e-6);
        assert_eq!(
            check_metric("health.nan_site", "residual", f64::NAN, 1e-10, 1e-6),
            Some(Severity::Error)
        );
        let report = snapshot_report();
        let site = report.site("health.nan_site", "residual").expect("row recorded");
        assert_eq!(site.severity, Severity::Error);
        assert!(site.worst_value.is_nan());
        Collector::reset();
    }

    #[test]
    fn disabled_health_checks_record_nothing() {
        let _serial = crate::test_support::lock();
        let _off = Collector::disable();
        Collector::reset();
        assert_eq!(check_metric("health.off_site", "residual", 1e9, 1.0, 2.0), None);
        health_event(Severity::Error, "health.off_site", "residual", 1e9, 1.0);
        assert!(snapshot_report().is_empty());
    }

    #[test]
    fn worst_sites_orders_by_severity_then_ratio() {
        let _serial = crate::test_support::lock();
        let _on = Collector::enable();
        Collector::reset();
        check_metric("health.rank_a", "m", 0.5, 1.0, 10.0); // info, ratio 0.5
        check_metric("health.rank_b", "m", 5.0, 1.0, 10.0); // warning, ratio 5
        check_metric("health.rank_c", "m", 2.0, 1.0, 10.0); // warning, ratio 2
        check_metric("health.rank_d", "m", 20.0, 1.0, 10.0); // error
        let report = snapshot_report();
        let worst: Vec<&str> = report.worst_sites(3).iter().map(|s| s.site).collect();
        assert_eq!(worst, ["health.rank_d", "health.rank_b", "health.rank_c"]);
        Collector::reset();
    }
}
