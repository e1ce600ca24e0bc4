//! Content-hash result store: re-runs only compute changed cells.
//!
//! Every computed row is memoised under a 64-bit FNV-1a key ([`cache_key`])
//! covering the evaluator name, its column list and every field of the
//! resolved [`Scenario`], in one [`ResultStore`]: in memory, or on disk as
//! hexadecimal `f64` bit patterns, so a round-trip through disk is
//! **bit-exact** and results survive restarts.

use std::collections::{BinaryHeap, HashMap};
use std::path::{Path, PathBuf};

use crate::error::SweepError;
use crate::eval::Evaluator;
use crate::scenario::{Fnv64, Scenario};

/// Computes the cache key of one (evaluator, scenario) pair.
pub fn cache_key(evaluator: &dyn Evaluator, scenario: &Scenario) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(evaluator.name());
    for c in evaluator.columns() {
        h.write_str(c);
    }
    scenario.hash_into(&mut h);
    h.finish()
}

/// Magic first line of every [`ResultStore`] record file.
const RECORD_HEADER: &str = "rlckit-result v1";

/// Default byte budget of a [`ResultStore`] (64 MiB — roughly 500k rows).
pub const DEFAULT_STORE_BUDGET: u64 = 64 * 1024 * 1024;

/// Cumulative [`ResultStore`] statistics, for service `stats` endpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from a stored record.
    pub hits: u64,
    /// Lookups with no (usable) record.
    pub misses: u64,
    /// Records deleted to stay within the byte budget.
    pub evictions: u64,
    /// Records dropped because they were truncated or corrupt.
    pub corrupt: u64,
}

/// A stored row: decoded in memory, or (disk mode only) a record file not
/// read back yet, with its length. With its key and recency stamp a slot
/// fills a 32-byte hash-table bucket, as a `HashMap<u64, Vec<f64>>` does.
#[derive(Debug)]
enum Row {
    Decoded(Box<[f64]>),
    OnDisk(u64),
}

impl Row {
    /// The budget cost: the record's on-disk length, in either mode.
    fn bytes(&self) -> u64 {
        match self {
            Self::Decoded(values) => record_len(values.len()),
            Self::OnDisk(bytes) => *bytes,
        }
    }
}

/// On-disk length of an `n`-value record: the header line, `n` 16-digit hex
/// words separated by spaces, and the closing newline.
fn record_len(n: usize) -> u64 {
    (RECORD_HEADER.len() + 1 + (17 * n).max(1)) as u64
}

fn record_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.rec"))
}

/// A byte-budgeted result store with least-recently-used eviction, in
/// memory ([`ResultStore::in_memory`]) or backed by a directory of one
/// hex-`f64` record file per key ([`ResultStore::open`]).
///
/// A record costs its on-disk length in both modes, so a budget means the
/// same with or without a directory, and the most recent insert is never
/// evicted. Eviction is amortised O(log n): one scan queues the oldest
/// eighth of the records, and the evictions that drain the queue pay for it.
///
/// On disk, every insert lands at once via a temp file and a rename, so a
/// crash never leaves a half-written record under a live name. A record is
/// decoded on its first read and served from memory after that; a truncated
/// or corrupt record reads as a miss and is deleted — the store never
/// panics or errors on bad contents. On open, records are stamped in sorted
/// key order, and real recency accrues from later hits and inserts.
#[derive(Debug)]
pub struct ResultStore {
    dir: Option<PathBuf>,
    budget_bytes: u64,
    /// Row and recency stamp per key.
    slots: HashMap<u64, (Row, u64)>,
    total_bytes: u64,
    next_stamp: u64,
    /// Eviction candidates `(stamp, key)`, oldest last; an entry whose slot
    /// has since been touched or removed no longer matches and is skipped.
    victims: Vec<(u64, u64)>,
    stats: StoreStats,
}

impl ResultStore {
    /// An empty store that lives only in memory.
    pub fn in_memory(budget_bytes: u64) -> Self {
        Self {
            dir: None,
            budget_bytes,
            slots: HashMap::new(),
            total_bytes: 0,
            next_stamp: 0,
            victims: Vec::new(),
            stats: StoreStats::default(),
        }
    }

    /// Opens (creating if needed) a store rooted at `dir`, indexing every
    /// `*.rec` record and deleting the `*.tmp` records an interrupted insert
    /// left behind.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] if the directory cannot be created or
    /// scanned. Files the store did not name are left alone; unparseable
    /// record *contents* surface lazily as misses on first read.
    pub fn open(dir: impl Into<PathBuf>, budget_bytes: u64) -> Result<Self, SweepError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut keyed: Vec<(u64, u64)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some((hex, ext)) = name.to_str().and_then(|n| n.split_once('.')) else { continue };
            let Ok(key) = u64::from_str_radix(hex, 16) else { continue };
            match ext {
                "rec" => keyed.push((key, entry.metadata().map_or(0, |m| m.len()))),
                "tmp" => {
                    let _ = std::fs::remove_file(entry.path());
                }
                _ => {}
            }
        }
        keyed.sort_unstable();
        let mut store = Self { dir: Some(dir), ..Self::in_memory(budget_bytes) };
        for (key, bytes) in keyed {
            store.put(key, Row::OnDisk(bytes));
        }
        store.evict_to_budget();
        Ok(store)
    }

    /// Looks up a stored row, returning the bit-exact values the original
    /// insert wrote. A missing, truncated or corrupt record is a miss (a
    /// bad record is also deleted so it cannot waste budget).
    pub fn get(&mut self, key: u64) -> Option<Vec<f64>> {
        let stamp = self.bump_stamp();
        let Some((row, slot_stamp)) = self.slots.get_mut(&key) else {
            self.stats.misses += 1;
            return None;
        };
        let values = match row {
            Row::Decoded(values) => values.to_vec(),
            Row::OnDisk(_) => {
                let dir = self.dir.as_deref().expect("only a disk store holds undecoded rows");
                let path = record_path(dir, key);
                let read = std::fs::read_to_string(&path).ok();
                let Some(values) = read.and_then(|body| parse_record(&body)) else {
                    let _ = std::fs::remove_file(&path);
                    self.remove(key);
                    self.stats.misses += 1;
                    self.stats.corrupt += 1;
                    rlckit_telemetry::counter_add("sweep.store_corrupt", 1);
                    return None;
                };
                rlckit_telemetry::counter_add("sweep.store_hits", 1);
                *row = Row::Decoded(values.as_slice().into());
                values
            }
        };
        *slot_stamp = stamp;
        self.stats.hits += 1;
        Some(values)
    }

    /// Stores a row under `key` — on disk atomically (temp file, then
    /// rename) — then evicts least-recently-used records until the store is
    /// within its byte budget.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] if the record cannot be written.
    pub fn insert(&mut self, key: u64, values: &[f64]) -> Result<(), SweepError> {
        let row = match &self.dir {
            None => Row::Decoded(values.into()),
            Some(dir) => {
                let words: Vec<String> =
                    values.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                let body = format!("{RECORD_HEADER}\n{}\n", words.join(" "));
                let tmp = dir.join(format!("{key:016x}.tmp"));
                std::fs::write(&tmp, &body)?;
                std::fs::rename(&tmp, record_path(dir, key))?;
                Row::OnDisk(body.len() as u64)
            }
        };
        self.put(key, row);
        self.evict_to_budget();
        Ok(())
    }

    fn bump_stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Indexes `row` under `key` as the most recently used record.
    fn put(&mut self, key: u64, row: Row) {
        self.remove(key);
        self.total_bytes += row.bytes();
        let stamp = self.bump_stamp();
        self.slots.insert(key, (row, stamp));
    }

    fn remove(&mut self, key: u64) {
        if let Some((row, _)) = self.slots.remove(&key) {
            self.total_bytes -= row.bytes();
        }
    }

    /// Evicts least-recently-used records until the total fits the budget,
    /// always keeping at least one.
    fn evict_to_budget(&mut self) {
        while self.slots.len() > 1 && self.total_bytes > self.budget_bytes {
            let victim = loop {
                match self.victims.pop() {
                    Some((stamp, key)) if self.slots.get(&key).is_some_and(|s| s.1 == stamp) => {
                        break key;
                    }
                    Some(_) => {}
                    None => self.queue_oldest(),
                }
            };
            if let Some(dir) = &self.dir {
                let _ = std::fs::remove_file(record_path(dir, victim));
            }
            self.remove(victim);
            self.stats.evictions += 1;
            rlckit_telemetry::counter_add("sweep.store_evictions", 1);
        }
    }

    /// Refills the eviction queue with the oldest eighth of the records: a
    /// max-heap bounded at that size keeps the smallest stamps seen.
    fn queue_oldest(&mut self) {
        let want = (self.slots.len() / 8).max(1);
        let mut oldest = BinaryHeap::with_capacity(want + 1);
        for (&key, &(_, stamp)) in &self.slots {
            oldest.push((stamp, key));
            if oldest.len() > want {
                oldest.pop();
            }
        }
        self.victims = oldest.into_sorted_vec();
        self.victims.reverse();
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sum of the record sizes in bytes (each costs its on-disk length).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The backing directory (`None` for a memory-only store).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// A copy of the cumulative hit/miss/eviction statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }
}

/// Parses one record body; `None` on any malformation (wrong header, bad
/// hex, missing trailing newline — i.e. a truncated write).
fn parse_record(body: &str) -> Option<Vec<f64>> {
    let line = body.strip_prefix(RECORD_HEADER)?.strip_prefix('\n')?.strip_suffix('\n')?;
    if line.is_empty() {
        return Some(Vec::new());
    }
    let word = |v: &str| u64::from_str_radix(v, 16).ok().filter(|_| v.len() == 16);
    line.split(' ').map(|v| word(v).map(f64::from_bits)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DelayModelEvaluator;

    #[test]
    fn keys_separate_scenarios_and_evaluators() {
        let a = Scenario::default();
        let b = Scenario { line_length_mm: 11.0, ..Scenario::default() };
        let k_a = cache_key(&DelayModelEvaluator, &a);
        assert_eq!(k_a, cache_key(&DelayModelEvaluator, &a.clone()));
        assert_ne!(k_a, cache_key(&DelayModelEvaluator, &b));
        assert_ne!(k_a, cache_key(&crate::eval::RepeaterOptimumEvaluator, &a));
    }

    fn store_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rlckit-store-{tag}-{}", std::process::id()))
    }

    #[test]
    fn result_store_round_trips_bit_exactly_and_persists() {
        let dir = store_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let row = vec![f64::MIN_POSITIVE / 2.0, -0.0, std::f64::consts::PI, 1.0e300];
        {
            let mut store = ResultStore::open(&dir, DEFAULT_STORE_BUDGET).unwrap();
            assert!(store.is_empty());
            store.insert(42, &row).unwrap();
            store.insert(7, &[]).unwrap();
            let got = store.get(42).unwrap();
            for (a, b) in got.iter().zip(row.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // A fresh handle over the same directory sees the same records.
        let mut store = ResultStore::open(&dir, DEFAULT_STORE_BUDGET).unwrap();
        assert_eq!(store.len(), 2);
        let got = store.get(42).unwrap();
        for (a, b) in got.iter().zip(row.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "reopen must preserve bits");
        }
        assert!(store.get(7).unwrap().is_empty());
        assert!(store.get(1).is_none());
        assert_eq!(store.stats().hits, 2);
        assert_eq!(store.stats().misses, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_store_evicts_lru_under_byte_pressure() {
        let dir = store_dir("evict");
        let _ = std::fs::remove_dir_all(&dir);
        // Each record is ~90 bytes; budget for roughly two of them.
        let mut store = ResultStore::open(&dir, 200).unwrap();
        store.insert(1, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        store.insert(2, &[5.0, 6.0, 7.0, 8.0]).unwrap();
        // Touch key 1 so key 2 is the least recently used.
        assert!(store.get(1).is_some());
        store.insert(3, &[9.0, 10.0, 11.0, 12.0]).unwrap();
        assert!(store.stats().evictions >= 1);
        assert!(store.total_bytes() <= 200);
        assert!(store.get(2).is_none(), "LRU record must have been evicted");
        assert!(store.get(3).is_some(), "the newest record survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_store_treats_corruption_as_a_miss() {
        let dir = store_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir, DEFAULT_STORE_BUDGET).unwrap();
        store.insert(5, &[1.5, 2.5]).unwrap();
        let path = dir.join(format!("{:016x}.rec", 5u64));
        // Truncated mid-write: no trailing newline.
        std::fs::write(&path, format!("{RECORD_HEADER}\n3ff8000000000")).unwrap();
        assert!(store.get(5).is_none(), "truncated record is a miss");
        assert_eq!(store.stats().corrupt, 1);
        assert!(!path.exists(), "corrupt record must be deleted");
        // Wrong header entirely.
        store.insert(6, &[1.0]).unwrap();
        let path6 = dir.join(format!("{:016x}.rec", 6u64));
        std::fs::write(&path6, "not a record\n").unwrap();
        assert!(store.get(6).is_none());
        // Bad hex in an otherwise well-formed record.
        store.insert(7, &[1.0]).unwrap();
        let path7 = dir.join(format!("{:016x}.rec", 7u64));
        std::fs::write(&path7, format!("{RECORD_HEADER}\nzzzzzzzzzzzzzzzz\n")).unwrap();
        assert!(store.get(7).is_none());
        assert_eq!(store.stats().corrupt, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_costs_its_disk_length_in_both_modes() {
        let dir = store_dir("cost");
        let _ = std::fs::remove_dir_all(&dir);
        let mut disk = ResultStore::open(&dir, DEFAULT_STORE_BUDGET).unwrap();
        let mut memory = ResultStore::in_memory(DEFAULT_STORE_BUDGET);
        for (key, row) in [(1u64, vec![]), (2, vec![1.0]), (3, vec![-0.0, f64::NAN, 1e-310])] {
            disk.insert(key, &row).unwrap();
            memory.insert(key, &row).unwrap();
            let file = std::fs::metadata(dir.join(format!("{key:016x}.rec"))).unwrap().len();
            assert_eq!(record_len(row.len()), file);
        }
        assert_eq!(memory.total_bytes(), disk.total_bytes());
        assert!(memory.dir().is_none());
        // Decoding a disk record on first read keeps its cost.
        assert!(disk.get(3).is_some());
        assert_eq!(memory.total_bytes(), disk.total_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
