//! The profile gate binary: structurally validate a `PROFILE_*.json`
//! document emitted by a profiled run, optionally against a committed
//! baseline profile.
//!
//! ```text
//! profile-check <file> [--require-span <leaf>]... [--require-counter <name>]...
//!               [--baseline <baseline.json>]
//! ```
//!
//! Exits non-zero when the file does not parse as the telemetry profile
//! schema, when any span carries broken accounting (zero count, negative or
//! null timings, self time exceeding total), or when a required span leaf /
//! counter is absent (see `rlckit_bench::check::audit_profile`). With
//! `--baseline`, the profile must also carry exactly the baseline's span
//! paths and counters, with counter values inside a 100× band and no
//! error-severity health events (`rlckit_bench::check::compare_profiles`);
//! span timings are never compared. CI runs a smoke bench under
//! `RLCKIT_PROFILE=1` and points this binary at the emitted profile with the
//! instrumentation sites the run must have exercised.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rlckit_bench::check::{
    audit_profile, compare_profiles, parse_profile, render_violations, ParsedProfile,
};

const USAGE: &str = "usage: profile-check <file> [--require-span <leaf>]... \
                     [--require-counter <name>]... [--baseline <baseline.json>]";

fn read_profile(path: &Path) -> Result<ParsedProfile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_profile(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))
}

fn main() -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut require_spans: Vec<String> = Vec::new();
    let mut require_counters: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--require-span" => require_spans.push(value("--require-span")),
            "--require-counter" => require_counters.push(value("--require-counter")),
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline"))),
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let profile = match read_profile(&file) {
        Ok(profile) => profile,
        Err(e) => {
            eprintln!("profile gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    let spans: Vec<&str> = require_spans.iter().map(String::as_str).collect();
    let counters: Vec<&str> = require_counters.iter().map(String::as_str).collect();
    let mut violations = audit_profile(&profile, &spans, &counters);
    if let Some(baseline) = &baseline {
        match read_profile(baseline) {
            Ok(base) => violations.extend(compare_profiles(&base, &profile)),
            Err(e) => violations.push(format!("baseline {e}")),
        }
    }
    if violations.is_empty() {
        println!(
            "profile gate: OK ({}: {} span(s), {} counter(s), {} gauge(s), {} histogram(s), \
             health {} info / {} warning / {} error{})",
            file.display(),
            profile.spans.len(),
            profile.counters.len(),
            profile.gauges.len(),
            profile.histograms.len(),
            profile.health.info,
            profile.health.warning,
            profile.health.error,
            baseline.map_or(String::new(), |b| format!("; matches {}", b.display()))
        );
        ExitCode::SUCCESS
    } else {
        eprint!("{}", render_violations(&violations));
        ExitCode::FAILURE
    }
}
