//! The sweep engine's two headline guarantees, property-tested:
//!
//! 1. **Thread-count independence** — a multi-threaded sweep returns exactly
//!    the rows of the single-threaded run, cell for cell, bit for bit;
//! 2. **Cache fidelity** — a second run over a warm cache computes nothing
//!    and renders byte-identical CSV/JSON, including through a disk round-trip.

use proptest::prelude::*;

use rlckit_sweep::cache::{ResultStore, DEFAULT_STORE_BUDGET};
use rlckit_sweep::eval::{DelayModelEvaluator, RepeaterOptimumEvaluator};
use rlckit_sweep::exec::{run_sweep, run_sweep_cached, SweepOptions, SweepResult};
use rlckit_sweep::scenario::{Param, Scenario, TechnologyNode};
use rlckit_sweep::sink::CsvSink;
use rlckit_sweep::spec::{Axis, SweepSpec};

/// Builds a randomized spec: a technology axis, a length axis of `lengths`
/// values starting at `first_mm`, and a zipped wire axis scaling R and L
/// together — cartesian and zipped axes in one grid.
fn random_spec(first_mm: f64, lengths: usize, r_scale: f64) -> SweepSpec {
    let length_axis: Vec<Param> =
        (0..lengths).map(|i| Param::LineLengthMm(first_mm * (i + 1) as f64)).collect();
    let wire = Axis::zipped(
        "wire",
        ["narrow".to_owned(), "wide".to_owned()],
        [
            vec![Param::ResistanceOhmPerMm(r_scale), Param::InductanceNhPerMm(0.4)],
            vec![Param::ResistanceOhmPerMm(r_scale / 4.0), Param::InductanceNhPerMm(0.55)],
        ],
    )
    .expect("static zipped axis is well-formed");
    SweepSpec::new(Scenario::default())
        .axis(Axis::new(
            "node",
            [TechnologyNode::QuarterMicron, TechnologyNode::N130].map(Param::Technology),
        ))
        .axis(Axis::new("length_mm", length_axis))
        .axis(wire)
}

/// Asserts two results are equal cell-for-cell with bit-exact values.
fn assert_bitwise_equal(a: &SweepResult, b: &SweepResult) {
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
        assert_eq!(ra.index, rb.index);
        assert_eq!(ra.labels, rb.labels);
        assert_eq!(ra.scenario, rb.scenario);
        match (&ra.values, &rb.values) {
            (Ok(va), Ok(vb)) => {
                assert_eq!(va.len(), vb.len());
                for (x, y) in va.iter().zip(vb.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "cell {} differs", ra.index);
                }
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
            _ => panic!("cell {}: one run errored, the other did not", ra.index),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multithreaded_sweep_equals_single_threaded_cell_for_cell(
        first_mm in 2.0f64..8.0,
        r_scale in 1.0f64..60.0,
        (lengths, threads) in (1.0f64..4.0, 2.0f64..9.0),
    ) {
        let spec = random_spec(first_mm, lengths as usize, r_scale);
        let serial = run_sweep(&spec, &DelayModelEvaluator, &SweepOptions::with_threads(1)).unwrap();
        let parallel = run_sweep(
            &spec,
            &DelayModelEvaluator,
            &SweepOptions::with_threads(threads as usize),
        )
        .unwrap();
        assert_bitwise_equal(&serial, &parallel);
        // And via the other closed-form evaluator.
        let serial =
            run_sweep(&spec, &RepeaterOptimumEvaluator, &SweepOptions::with_threads(1)).unwrap();
        let parallel = run_sweep(
            &spec,
            &RepeaterOptimumEvaluator,
            &SweepOptions::with_threads(threads as usize),
        )
        .unwrap();
        assert_bitwise_equal(&serial, &parallel);
    }

    #[test]
    fn warm_cache_replays_byte_identical_output(
        first_mm in 2.0f64..8.0,
        r_scale in 1.0f64..60.0,
    ) {
        let spec = random_spec(first_mm, 3, r_scale);
        let dir = std::env::temp_dir().join(format!(
            "rlckit-sweep-det-{}-{}",
            std::process::id(),
            (first_mm * 1e6) as u64 ^ (r_scale * 1e6) as u64,
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cache = ResultStore::open(&dir, DEFAULT_STORE_BUDGET).unwrap();
        let opts = SweepOptions::with_threads(4);
        let first = run_sweep_cached(&spec, &DelayModelEvaluator, &opts, &mut cache).unwrap();
        assert_eq!(first.computed, spec.len());
        drop(cache);

        // Second run through a freshly opened (disk round-tripped) store.
        let mut cache = ResultStore::open(&dir, DEFAULT_STORE_BUDGET).unwrap();
        let second = run_sweep_cached(&spec, &DelayModelEvaluator, &opts, &mut cache).unwrap();
        assert_eq!(second.computed, 0, "warm cache must compute nothing");
        assert_eq!(second.cache_hits, spec.len());
        assert!(second.rows.iter().all(|r| r.from_cache));

        assert_bitwise_equal(&first, &second);
        assert_eq!(CsvSink.render(&first), CsvSink.render(&second), "CSV must be byte-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
