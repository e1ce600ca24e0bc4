//! Property tests of the [`ResultStore`]:
//!
//! 1. **Bit-exact round-trips under eviction pressure** — whatever `f64`
//!    payload goes in (including NaN, infinities and signed zeros) comes
//!    back with identical bit patterns, both immediately and through a
//!    close/reopen cycle, even when a tiny byte budget keeps evicting old
//!    records;
//! 2. **Corruption is a miss, never a panic** — any truncation of a record
//!    file turns the lookup into a clean miss that is counted, deletes the
//!    damaged file, and leaves the store fully usable;
//! 3. **Exact LRU order** — under any mix of lookups and inserts, the
//!    records an in-memory store keeps are the ones a plain
//!    least-recently-used list keeps;
//! 4. **No stale temp files** — reopening a store deletes the temp record an
//!    interrupted insert left behind.

use proptest::prelude::*;

use rlckit_sweep::cache::ResultStore;

/// A fresh per-test scratch directory (wiped before use).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rlckit-store-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An `f64` drawn from the full value zoo: finite magnitudes plus the
/// special values a record must preserve bit-for-bit.
fn arb_value() -> impl Strategy<Value = f64> {
    (0.0f64..1.0, -1e30f64..1e30).prop_map(|(sel, v)| {
        if sel < 0.05 {
            f64::NAN
        } else if sel < 0.10 {
            f64::INFINITY
        } else if sel < 0.15 {
            f64::NEG_INFINITY
        } else if sel < 0.20 {
            -0.0
        } else if sel < 0.25 {
            v * 1e-300 // subnormal territory
        } else {
            v
        }
    })
}

fn assert_bits_equal(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.to_bits(), w.to_bits(), "stored f64 must round-trip bit-exactly");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn round_trips_are_bit_exact_under_eviction_pressure(
        rows in proptest::collection::vec(proptest::collection::vec(arb_value(), 6), 12),
    ) {
        let dir = scratch_dir("evict");
        // ~110 bytes per 6-value record: a 256-byte budget holds about two,
        // so most of the 12 inserts evict something.
        let mut store = ResultStore::open(&dir, 256).expect("store opens");
        for (i, row) in rows.iter().enumerate() {
            let key = i as u64 + 1;
            store.insert(key, row).expect("insert succeeds");
            let got = store.get(key).expect("the just-inserted record survives its own insert");
            assert_bits_equal(&got, row);
            prop_assert!(store.total_bytes() <= 256 || store.len() == 1);
        }
        prop_assert!(store.stats().evictions > 0, "the budget must have forced evictions");

        // Reopen: every record the eviction policy kept must still
        // round-trip bit-exactly.
        let survivors = store.len();
        prop_assert!(survivors >= 1);
        drop(store);
        let mut reopened = ResultStore::open(&dir, 256).expect("store reopens");
        prop_assert_eq!(reopened.len(), survivors);
        let mut found = 0;
        for (i, row) in rows.iter().enumerate() {
            if let Some(got) = reopened.get(i as u64 + 1) {
                assert_bits_equal(&got, row);
                found += 1;
            }
        }
        prop_assert_eq!(found, survivors);
        std::fs::remove_dir_all(&dir).expect("scratch dir removes");
    }

    #[test]
    fn truncated_records_are_counted_misses_not_panics(
        row in proptest::collection::vec(arb_value(), 5),
        cut in 0.0f64..1.0,
    ) {
        let dir = scratch_dir("corrupt");
        let mut store = ResultStore::open(&dir, 1 << 20).expect("store opens");
        store.insert(7, &row).expect("insert succeeds");

        // Truncate the record file to a strict prefix.
        let path = dir.join(format!("{:016x}.rec", 7));
        let body = std::fs::read(&path).expect("record file exists");
        let keep = ((body.len() - 1) as f64 * cut) as usize;
        std::fs::write(&path, &body[..keep]).expect("truncation writes");

        let misses_before = store.stats().corrupt;
        prop_assert!(store.get(7).is_none(), "a truncated record must read as a miss");
        prop_assert_eq!(store.stats().corrupt, misses_before + 1);
        prop_assert!(!path.exists(), "the damaged file must be deleted");

        // The store stays fully usable: the same key can be rewritten.
        store.insert(7, &row).expect("reinsert succeeds");
        let got = store.get(7).expect("reinserted record reads back");
        assert_bits_equal(&got, &row);
        std::fs::remove_dir_all(&dir).expect("scratch dir removes");
    }

    #[test]
    fn eviction_order_matches_a_reference_lru(
        ops in proptest::collection::vec((0.0f64..1.0, 0.0f64..48.0), 400),
    ) {
        // One-value records cost 34 bytes each: the budget holds 24, enough
        // for the eviction queue to hold several records at a time.
        let mut store = ResultStore::in_memory(24 * 34);
        let mut lru: Vec<u64> = Vec::new(); // least recently used first
        for (i, &(sel, key)) in ops.iter().enumerate() {
            let key = key as u64;
            let held = lru.iter().position(|&k| k == key);
            if sel < 0.5 {
                prop_assert_eq!(store.get(key).is_some(), held.is_some());
            } else {
                store.insert(key, &[i as f64]).expect("memory inserts cannot fail");
            }
            if let Some(at) = held {
                lru.remove(at);
            }
            if held.is_some() || sel >= 0.5 {
                lru.push(key);
            }
            if lru.len() > 24 {
                lru.remove(0);
            }
            prop_assert_eq!(store.len(), lru.len());
            prop_assert!(store.total_bytes() <= 24 * 34);
        }
        for key in 0..48u64 {
            prop_assert_eq!(store.get(key).is_some(), lru.contains(&key));
        }
    }
}

#[test]
fn reopening_deletes_stale_temp_records() {
    let dir = scratch_dir("stale-tmp");
    ResultStore::open(&dir, 1 << 20).and_then(|mut s| s.insert(3, &[1.0])).expect("insert");
    // A crash between writing the temp file and renaming it leaves this.
    let stale = dir.join(format!("{:016x}.tmp", 9));
    std::fs::write(&stale, "rlckit-result v1\n3ff0").expect("temp file writes");
    let foreign = dir.join("notes.tmp");
    std::fs::write(&foreign, "not ours").expect("foreign file writes");

    let mut reopened = ResultStore::open(&dir, 1 << 20).expect("store reopens");
    assert!(!stale.exists(), "a stale temp record must be deleted on open");
    assert!(foreign.exists(), "files the store did not name are left alone");
    assert_eq!(reopened.get(3), Some(vec![1.0]));
    std::fs::remove_dir_all(&dir).expect("scratch dir removes");
}
