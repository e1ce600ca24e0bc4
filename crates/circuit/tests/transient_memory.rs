//! Peak memory of a transient measurement is bounded by its probes, not by
//! the size of the circuit.
//!
//! `measure_step_delay` on a 100-section ladder steps about 33 000 times over
//! 303 MNA unknowns. Recording every unknown at every step would hold about
//! 80 MB of samples; recording only the output node holds well under 1 MB.
//! The process's high-water mark (`VmHWM` in `/proc/self/status`) must stay
//! under 40 MB. This test is its own binary so that no other test's
//! allocations count towards the mark.

#![cfg(target_os = "linux")]

use rlckit_circuit::ladder::{measure_step_delay, LadderSpec};
use rlckit_units::{Capacitance, Inductance, Resistance};

/// Ceiling on the high-water mark, in bytes.
const PEAK_LIMIT_BYTES: u64 = 40 * 1024 * 1024;

/// The process's peak resident set size, in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM is reported");
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a number of kB");
    kib * 1024
}

#[test]
fn a_hundred_section_measurement_stays_under_40_mb() {
    let mut spec = LadderSpec::new(
        Resistance::from_ohms(500.0),
        Inductance::from_nanohenries(10.0),
        Capacitance::from_picofarads(1.0),
        Resistance::from_ohms(250.0),
        Capacitance::from_picofarads(0.1),
    );
    spec.segments = 100;
    let m = measure_step_delay(&spec).expect("the ladder measures");
    assert!(m.delay_50.seconds() > 0.0);
    let peak = peak_rss_bytes();
    assert!(
        peak < PEAK_LIMIT_BYTES,
        "peak RSS {:.1} MB exceeds {} MB",
        peak as f64 / 1e6,
        PEAK_LIMIT_BYTES / (1024 * 1024)
    );
}
