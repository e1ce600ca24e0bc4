//! The bench-regression gate binary: diff freshly generated `BENCH_*.json`
//! trajectories against their committed baselines.
//!
//! ```text
//! bench-check --baseline <dir> --fresh <dir>
//! ```
//!
//! Exits non-zero when any structural violation is found or any shared
//! value moved by more than `1e-9` relative (see `rlckit_bench::check` for
//! the contract). CI copies the committed trajectories aside, reruns the
//! benches in smoke mode and points this binary at both directories.

use std::path::PathBuf;
use std::process::ExitCode;

use rlckit_bench::check::{check_directories, render_violations, RELATIVE_BOUND};

const USAGE: &str = "usage: bench-check --baseline <dir> --fresh <dir>";

fn main() -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut fresh: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--baseline" => &mut baseline,
            "--fresh" => &mut fresh,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        };
        let Some(dir) = args.next() else {
            eprintln!("{arg} requires a value");
            return ExitCode::from(2);
        };
        *slot = Some(PathBuf::from(dir));
    }
    let (Some(baseline), Some(fresh)) = (baseline, fresh) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    match check_directories(&baseline, &fresh) {
        Ok(violations) if violations.is_empty() => {
            println!(
                "bench-regression gate: OK ({} vs {}, values exact to {RELATIVE_BOUND:e} relative)",
                baseline.display(),
                fresh.display()
            );
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            eprint!("{}", render_violations(&violations));
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-regression gate: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}
