//! `figures`: the five paper figure sweeps on two threads. Each pass is the
//! `figures --check` gate, `rlckit_sweep::figures::check_all`: it builds
//! every dataset and compares its CSV byte for byte with the committed
//! `figures/FIG_*.csv`. The only workload that runs the sweep executor, the
//! closed forms, PRIMA and the coupled-bus transients. The grids are fixed
//! by the committed datasets, so the seed changes nothing here.

use std::path::Path;

use rlckit_sweep::exec::SweepOptions;
use rlckit_sweep::figures;

use crate::reference::Reference;
use crate::report::{Measured, Report};
use crate::{closed_loop, procfs, repeat_timed, Args, Workload};

/// Sweep worker threads.
pub const THREADS: usize = 2;
/// The committed datasets, relative to the repository root.
pub const DIR: &str = "figures";
/// Set-up repetitions before the measured phase.
const SETUP_REPEATS: usize = 2;
/// Fewest passes per run.
const MIN_PASSES: usize = 2;

/// One pass; whether every dataset matched its committed CSV.
pub fn pass(options: &SweepOptions) -> bool {
    match figures::check_all(options, Path::new(DIR)) {
        Ok(drifted) if drifted.is_empty() => true,
        Ok(drifted) => {
            eprintln!("figures: {} differ from the committed CSVs", drifted.join(", "));
            false
        }
        Err(e) => {
            eprintln!("figures: a sweep failed: {e}");
            false
        }
    }
}

/// Set-up: a first pass, which reads the committed datasets and must match
/// them.
///
/// # Errors
///
/// Returns a first pass that does not match.
pub fn setup(options: &SweepOptions) -> Result<(), String> {
    if pass(options) {
        Ok(())
    } else {
        Err("the first pass does not match the committed CSVs".into())
    }
}

/// The end-to-end run.
///
/// # Errors
///
/// Returns set-up and `/proc` errors as text.
pub fn run(args: &Args) -> Result<Report, String> {
    let options = SweepOptions::with_threads(THREADS);
    let mut setups_s = Vec::new();
    repeat_timed(SETUP_REPEATS, &mut setups_s, || setup(&options))?;
    let mut outcomes = Vec::new();
    let mut reference = Reference::new(THREADS);
    let phase =
        closed_loop(args.seconds, MIN_PASSES, None, Some(&mut reference), &mut outcomes, || {
            Ok(pass(&options))
        })?;
    let peak_rss_mb = procfs::peak_rss_mb(None).map_err(|e| e.to_string())?;

    let mut report = Report::new(Workload::Figures);
    report.count(&outcomes);
    report.push_end_to_end(&Measured { setups_s, phase, peak_rss_mb, reference });
    Ok(report)
}
