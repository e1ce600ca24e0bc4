//! `perfbench`: the end-to-end run of one workload.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0 --server PATH
//! ```
//!
//! Prints every end-to-end metric with its unit and sample count, then one
//! JSON line; exits nonzero when an output check failed. `run.py` builds the
//! release binaries and passes `--server`.

use std::process::ExitCode;

use rlckit_perfbench::{daemon, figures, ladder, reference, Args, Workload};

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some(reference::ARG) {
        let Some(threads) = raw.next().and_then(|n| n.parse().ok()) else {
            eprintln!("perfbench: {} takes a thread count", reference::ARG);
            return ExitCode::from(2);
        };
        println!("{}", reference::time_kernel(threads));
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!("perfbench: the traced run is the perfbench-trace binary");
        return ExitCode::from(2);
    }
    let report = match args.workload {
        Workload::LadderMeasure => ladder::run(&args),
        Workload::DaemonCold => daemon::run(&args, false),
        Workload::DaemonWarm => daemon::run(&args, true),
        Workload::Figures => figures::run(&args),
    };
    match report {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
