//! Property test of the factorization pattern cache: for any (physically
//! sensible) ladder values, routing a sparse factorization through the
//! enabled cache must not change the answer. A cold miss takes the same
//! code path as an uncached factorization, and a value hit replays the
//! stored template verbatim — so both must solve to **bit-identical**
//! vectors against the cache-disabled baseline.

use proptest::prelude::*;

use rlckit_circuit::mna::MnaSystem;
use rlckit_circuit::netlist::Circuit;
use rlckit_circuit::pattern_cache::{self, PatternCacheGuard};
use rlckit_circuit::source::SourceWaveform;
use rlckit_numeric::sparse::SparseLuFactor;
use rlckit_units::{Capacitance, Inductance, Resistance};

/// A driven RLC ladder with per-section values drawn by the property.
fn ladder(r_per: f64, l_ph: f64, c_ff: f64, sections: usize) -> MnaSystem {
    let mut c = Circuit::new();
    let gnd = c.ground();
    let input = c.add_node();
    c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
    let mut prev = input;
    for _ in 0..sections {
        let mid = c.add_node();
        let next = c.add_node();
        c.add_resistor(prev, mid, Resistance::from_ohms(r_per)).unwrap();
        c.add_inductor(mid, next, Inductance::from_henries(l_ph * 1e-12)).unwrap();
        c.add_capacitor(next, gnd, Capacitance::from_femtofarads(c_ff)).unwrap();
        prev = next;
    }
    MnaSystem::build(&c).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_factorizations_solve_bit_identically_to_cold_ones(
        r_per in 1.0f64..500.0,
        l_ph in 1.0f64..100.0,
        c_ff in 1.0f64..50.0,
    ) {
        let _serial = pattern_cache::test_support::lock();
        let mna = ladder(r_per, l_ph, c_ff, 20);
        let a = mna.assemble_csc_real(1.0, 0.0);
        let b: Vec<f64> = (0..a.dim()).map(|i| 1.0 + i as f64 * 0.25).collect();

        // Baseline: the cache disabled entirely.
        let x_cold = {
            let _off = PatternCacheGuard::disable();
            let f = SparseLuFactor::factor(&a, mna.sparse_symbolic()).expect("cold factor");
            f.solve(&b)
        };

        // Cache enabled: first pass is a miss (same code path as cold),
        // second pass a value hit (template replay).
        let _on = PatternCacheGuard::enable();
        pattern_cache::clear();
        pattern_cache::reset_stats();
        let x_miss = pattern_cache::factor_real(&a, mna.sparse_symbolic())
            .expect("miss factors")
            .solve(&b);
        let x_hit = pattern_cache::factor_real(&a, mna.sparse_symbolic())
            .expect("value hit factors")
            .solve(&b);
        prop_assert_eq!(pattern_cache::stats().misses, 1);
        prop_assert_eq!(pattern_cache::stats().value_hits, 1);

        for ((c, m), h) in x_cold.iter().zip(&x_miss).zip(&x_hit) {
            prop_assert_eq!(c.to_bits(), m.to_bits(), "a cache miss must match cold bit-for-bit");
            prop_assert_eq!(m.to_bits(), h.to_bits(), "a value hit must replay bit-for-bit");
        }
        pattern_cache::clear();
    }
}
