//! The evaluation engine: bounded queue, worker pool, result store, pattern
//! cache.
//!
//! One [`Engine`] owns everything shared across connections:
//!
//! * a **bounded cell queue** — requests are admitted whole or rejected
//!   whole ([`response::reject`] with a retry delay), so an overloaded
//!   daemon sheds load explicitly instead of buffering without bound;
//! * a **worker pool** evaluating cells concurrently, each worker checking
//!   the request's deadline/cancellation flag before touching a scenario;
//! * the **result store** — one [`ResultStore`] keyed by
//!   [`rlckit_sweep::cache_key`], in memory or (with a cache directory) on
//!   disk, bounded by the cache byte budget with LRU eviction, so repeated
//!   scenarios replay bit-exactly across requests (and, on disk, across
//!   restarts);
//! * the **pattern cache** — when enabled, the engine holds a
//!   [`PatternCacheGuard`] for its lifetime so every sparse factorisation
//!   in the workers shares symbolic analyses and frozen-pivot refactor
//!   templates across requests with matching MNA patterns.
//!
//! Connections are handled by [`Engine::serve_stream`]: request lines are
//! read with a [`MAX_REQUEST_BYTES`] cap, requests on one stream are
//! processed sequentially, cells of one request stream back in
//! deterministic index order (a reorder buffer over the workers' completion
//! order), and the whole exchange is free of timestamps — which is what
//! lets CI replay a golden request file byte-for-byte with `--workers 1`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rlckit_circuit::pattern_cache::{self, PatternCacheGuard};
use rlckit_sweep::{cache_key, Evaluator, ResultStore, Scenario};

use crate::request::{self, Op, Request};
use crate::response;

/// Longest request line [`Engine::serve_stream`] accepts, in bytes (without
/// the newline).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Engine construction knobs, all with serving-ready defaults.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads evaluating cells (1 = fully deterministic streaming).
    pub workers: usize,
    /// Maximum queued cells; requests that do not fit whole are rejected.
    pub queue_depth: usize,
    /// Directory of the disk-backed result store (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Byte budget of the result store, in memory or on disk.
    pub cache_budget: u64,
    /// Share factorisations across same-pattern requests.
    pub pattern_cache: bool,
    /// Deadline applied to requests that do not carry their own, in
    /// milliseconds (`0` = none).
    pub default_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 1024,
            cache_dir: None,
            cache_budget: rlckit_sweep::cache::DEFAULT_STORE_BUDGET,
            pattern_cache: true,
            default_deadline_ms: 0,
        }
    }
}

/// Cumulative engine counters, reported by the `stats` operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Evaluation requests admitted (acknowledged).
    pub requests: u64,
    /// Evaluation requests rejected by backpressure.
    pub rejected: u64,
    /// Cells computed by an evaluator.
    pub evaluated: u64,
    /// Cells answered from the result store.
    pub cached: u64,
    /// Cells that failed evaluation.
    pub failed: u64,
    /// Cells skipped by deadline/cancellation.
    pub cancelled: u64,
}

/// How one cell ended.
enum Outcome {
    Row { values: Vec<f64>, cached: bool },
    Failed(String),
    Cancelled,
}

/// One unit of worker work.
struct CellJob {
    evaluator: &'static dyn Evaluator,
    scenario: Scenario,
    index: usize,
    labels: Vec<String>,
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
    tx: Sender<(usize, Vec<String>, Outcome)>,
}

/// State shared between connections and workers.
struct Shared {
    queue: Mutex<VecDeque<CellJob>>,
    work_ready: Condvar,
    draining: AtomicBool,
    store: Mutex<ResultStore>,
    stats: Mutex<EngineStats>,
}

impl Shared {
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<CellJob>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_stats(&self) -> MutexGuard<'_, EngineStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_store(&self) -> MutexGuard<'_, ResultStore> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The shared evaluation engine (see the module docs).
pub struct Engine {
    config: ServerConfig,
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Keeps the process-global factorisation cache active for the engine's
    /// lifetime (restores the prior state on drop).
    _pattern_guard: Option<PatternCacheGuard>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds the engine: opens the result store (on disk when a cache
    /// directory is configured, in memory otherwise), enables
    /// the pattern cache (if configured) and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the [`rlckit_sweep::SweepError`] of a result-store directory
    /// that cannot be created or scanned.
    pub fn new(config: ServerConfig) -> Result<Arc<Self>, rlckit_sweep::SweepError> {
        let store = match &config.cache_dir {
            Some(dir) => ResultStore::open(dir, config.cache_budget)?,
            None => ResultStore::in_memory(config.cache_budget),
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            store: Mutex::new(store),
            stats: Mutex::new(EngineStats::default()),
        });
        let pattern_guard = config.pattern_cache.then(PatternCacheGuard::enable);
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Arc::new(Self {
            config,
            shared,
            workers: Mutex::new(workers),
            _pattern_guard: pattern_guard,
        }))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Whether a graceful drain has been requested (`shutdown` op).
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// A copy of the cumulative engine counters.
    pub fn stats(&self) -> EngineStats {
        *self.shared.lock_stats()
    }

    /// Requests a graceful drain: queued cells still complete, no new
    /// evaluation requests are admitted, workers exit once idle.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
    }

    /// Drains and joins the worker pool (idempotent).
    pub fn join(&self) {
        self.begin_drain();
        let handles: Vec<_> =
            self.workers.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Serves one newline-delimited JSON conversation: reads request lines
    /// from `input` until EOF (or a `shutdown` op), writing every response
    /// line to `output`. Used for both TCP connections and `--stdin` mode.
    /// A line longer than [`MAX_REQUEST_BYTES`] is answered with a
    /// `too_large` error and skipped; the conversation goes on.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error on either side of the stream, including
    /// a request line that is not UTF-8.
    pub fn serve_stream(
        &self,
        mut input: impl BufRead,
        mut output: impl Write,
    ) -> std::io::Result<()> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let read =
                (&mut input).take(MAX_REQUEST_BYTES as u64 + 1).read_until(b'\n', &mut buf)?;
            if read == 0 {
                break;
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            } else if buf.len() > MAX_REQUEST_BYTES {
                input.skip_until(b'\n')?;
                let err = request::RequestError {
                    code: "too_large",
                    message: format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                    hint: "split the sweep into smaller requests",
                };
                writeln!(output, "{}", response::error(None, &err))?;
                output.flush()?;
                continue;
            }
            let line = std::str::from_utf8(&buf)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            if line.trim().is_empty() {
                continue;
            }
            let _span = rlckit_telemetry::span("server.request");
            match request::parse_line(line) {
                Err((id, err)) => {
                    writeln!(output, "{}", response::error(id.as_deref(), &err))?;
                }
                Ok(Request::Op(Op::Ping)) => {
                    writeln!(output, "{}", response::pong())?;
                }
                Ok(Request::Op(Op::Stats)) => {
                    writeln!(output, "{}", self.render_stats())?;
                }
                Ok(Request::Op(Op::Shutdown)) => {
                    self.begin_drain();
                    writeln!(output, "{}", response::pong())?;
                    output.flush()?;
                    break;
                }
                Ok(Request::Evaluate(job)) => {
                    self.run_job(job, &mut output)?;
                }
            }
            output.flush()?;
        }
        Ok(())
    }

    /// Admits, executes and streams one evaluation job.
    fn run_job(&self, job: request::Job, output: &mut impl Write) -> std::io::Result<()> {
        let cells = job.cells.len();
        if self.draining() {
            let err = request::RequestError {
                code: "shutting_down",
                message: "the daemon is draining and no longer admits requests".into(),
                hint: "reconnect to a fresh instance",
            };
            return writeln!(output, "{}", response::error(Some(&job.id), &err));
        }
        if cells > self.config.queue_depth {
            let err = request::RequestError {
                code: "too_large",
                message: format!(
                    "request expands to {cells} cells but the queue holds at most {}",
                    self.config.queue_depth
                ),
                hint: "split the sweep into smaller requests",
            };
            return writeln!(output, "{}", response::error(Some(&job.id), &err));
        }

        let deadline_ms = job.deadline_ms.or_else(|| {
            (self.config.default_deadline_ms > 0).then_some(self.config.default_deadline_ms)
        });
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let cancelled = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel();

        // Admission is all-or-nothing under one queue lock: either every
        // cell fits under the depth bound or the request is rejected whole.
        {
            let mut queue = self.shared.lock_queue();
            if queue.len() + cells > self.config.queue_depth {
                drop(queue);
                self.shared.lock_stats().rejected += 1;
                rlckit_telemetry::counter_add("server.rejected", 1);
                return writeln!(output, "{}", response::reject(&job.id, 100));
            }
            for cell in job.cells {
                queue.push_back(CellJob {
                    evaluator: job.evaluator,
                    scenario: cell.scenario,
                    index: cell.index,
                    labels: cell.labels,
                    cancelled: Arc::clone(&cancelled),
                    deadline,
                    tx: tx.clone(),
                });
            }
            self.shared.work_ready.notify_all();
        }
        drop(tx);
        self.shared.lock_stats().requests += 1;

        writeln!(
            output,
            "{}",
            response::ack(&job.id, cells, &job.axis_names, job.evaluator.columns())
        )?;
        output.flush()?;

        // Stream results in index order: completions arrive in worker order,
        // a reorder buffer holds the out-of-order ones.
        let mut pending: BTreeMap<usize, (Vec<String>, Outcome)> = BTreeMap::new();
        let mut next_emit = 0usize;
        let mut received = 0usize;
        let (mut evaluated, mut cached, mut failed, mut cancelled_count) = (0, 0, 0, 0);
        while received < cells {
            let message = match deadline {
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(left.max(Duration::from_millis(1))) {
                        Ok(m) => m,
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                            // Deadline passed: flag the request; workers now
                            // report the remaining cells as cancelled.
                            cancelled.store(true, Ordering::Relaxed);
                            continue;
                        }
                        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match rx.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                },
            };
            let (index, labels, outcome) = message;
            received += 1;
            pending.insert(index, (labels, outcome));
            while let Some((labels, outcome)) = pending.remove(&next_emit) {
                match &outcome {
                    Outcome::Row { values, cached: was_cached } => {
                        if *was_cached {
                            cached += 1;
                        } else {
                            evaluated += 1;
                        }
                        writeln!(
                            output,
                            "{}",
                            response::cell(&job.id, next_emit, &labels, values, *was_cached)
                        )?;
                    }
                    Outcome::Failed(reason) => {
                        failed += 1;
                        writeln!(
                            output,
                            "{}",
                            response::cell_error(&job.id, next_emit, &labels, reason)
                        )?;
                    }
                    Outcome::Cancelled => {
                        cancelled_count += 1;
                    }
                }
                output.flush()?;
                next_emit += 1;
            }
        }
        {
            let mut stats = self.shared.lock_stats();
            stats.evaluated += evaluated as u64;
            stats.cached += cached as u64;
            stats.failed += failed as u64;
            stats.cancelled += cancelled_count as u64;
        }
        writeln!(output, "{}", response::done(&job.id, evaluated, cached, failed, cancelled_count))
    }

    /// Renders the `stats` reply: engine counters plus both cache layers.
    fn render_stats(&self) -> String {
        let s = self.stats();
        let queue_len = self.shared.lock_queue().len();
        let pattern = pattern_cache::stats();
        let store = self.shared.lock_store();
        let memo_len = store.len();
        let mut out = format!(
            "{{\"type\":\"stats\",\"requests\":{},\"rejected\":{},\"evaluated\":{},\
             \"cached\":{},\"failed\":{},\"cancelled\":{},\"queue_len\":{queue_len},\
             \"memo_len\":{memo_len}",
            s.requests, s.rejected, s.evaluated, s.cached, s.failed, s.cancelled,
        );
        if store.dir().is_some() {
            let ss = store.stats();
            out.push_str(&format!(
                ",\"store\":{{\"records\":{},\"bytes\":{},\"hits\":{},\"misses\":{},\
                 \"evictions\":{},\"corrupt\":{}}}",
                store.len(),
                store.total_bytes(),
                ss.hits,
                ss.misses,
                ss.evictions,
                ss.corrupt,
            ));
        }
        drop(store);
        out.push_str(&format!(
            ",\"pattern\":{{\"entries\":{},\"value_hits\":{},\"refactor_hits\":{},\
             \"misses\":{},\"symbolic_hits\":{},\"evictions\":{}}}}}",
            pattern_cache::len(),
            pattern.value_hits,
            pattern.refactor_hits,
            pattern.misses,
            pattern.symbolic_hits,
            pattern.evictions,
        ));
        out
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.join();
    }
}

/// The worker loop: pop a cell, honour deadline/cancellation, consult the
/// result cache, evaluate, report. Exits once the engine drains and the
/// queue is empty.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                queue = shared.work_ready.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let outcome = run_cell(shared, &job);
        // A dropped receiver (client gone) just discards the result.
        let _ = job.tx.send((job.index, job.labels, outcome));
    }
}

/// Evaluates one cell, replaying it from the result store when it can.
fn run_cell(shared: &Shared, job: &CellJob) -> Outcome {
    if job.cancelled.load(Ordering::Relaxed) || job.deadline.is_some_and(|d| Instant::now() >= d) {
        return Outcome::Cancelled;
    }
    let _span = rlckit_telemetry::span_indexed("server.cell", job.index as u64);
    let key = cache_key(job.evaluator, &job.scenario);
    if let Some(values) = shared.lock_store().get(key) {
        rlckit_telemetry::counter_add("server.cache_hits", 1);
        return Outcome::Row { values, cached: true };
    }
    rlckit_telemetry::counter_add("server.cache_misses", 1);
    // A panicking evaluator fails its cell, not the worker: the pool keeps
    // its size and later requests still complete.
    match catch_unwind(AssertUnwindSafe(|| job.evaluator.evaluate(&job.scenario))) {
        Ok(Ok(values)) => {
            // Disk persistence is best-effort: an unwritable store must not
            // fail the evaluation that produced the row.
            let _ = shared.lock_store().insert(key, &values);
            Outcome::Row { values, cached: false }
        }
        Ok(Err(e)) => Outcome::Failed(e.to_string()),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Outcome::Failed(format!("evaluator panicked: {message}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_lines(engine: &Engine, input: &str) -> Vec<String> {
        let mut out = Vec::new();
        engine.serve_stream(Cursor::new(input.to_owned()), &mut out).unwrap();
        String::from_utf8(out).unwrap().lines().map(str::to_owned).collect()
    }

    fn quiet_config() -> ServerConfig {
        // Pattern cache off in unit tests: the process-global cache would
        // need the cross-crate test lock; the dedicated pattern-cache tests
        // cover that integration.
        ServerConfig { workers: 1, pattern_cache: false, ..ServerConfig::default() }
    }

    #[test]
    fn ping_stats_and_malformed_lines_round_trip() {
        let engine = Engine::new(quiet_config()).unwrap();
        let lines = run_lines(&engine, "{\"op\":\"ping\"}\nnot json\n{\"op\":\"stats\"}\n");
        assert_eq!(lines[0], "{\"type\":\"pong\"}");
        assert!(lines[1].contains("\"code\":\"bad_json\""));
        assert!(lines[2].starts_with("{\"type\":\"stats\""));
        assert!(rlckit_telemetry::json::parse(&lines[2]).is_ok());
    }

    #[test]
    fn jobs_stream_cells_in_index_order_and_memoise() {
        let engine = Engine::new(ServerConfig { workers: 3, ..quiet_config() }).unwrap();
        let req = "{\"id\":\"j1\",\"evaluator\":\"delay_model\",\
                   \"axes\":[{\"param\":\"driver_size\",\"values\":[50,100,200]}]}\n";
        let lines = run_lines(&engine, req);
        assert!(lines[0].starts_with("{\"type\":\"ack\",\"id\":\"j1\",\"cells\":3"));
        for (i, line) in lines[1..4].iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"type\":\"cell\",\"id\":\"j1\",\"index\":{i}")),
                "cells must stream in index order, got {line}"
            );
            assert!(line.ends_with("\"cached\":false}"));
        }
        assert_eq!(lines[4], "{\"type\":\"done\",\"id\":\"j1\",\"evaluated\":3,\"cached\":0,\"failed\":0,\"cancelled\":0}");

        // The same request again: all three cells replay from the memo,
        // with byte-identical values.
        let again = run_lines(&engine, req);
        assert_eq!(again[4], "{\"type\":\"done\",\"id\":\"j1\",\"evaluated\":0,\"cached\":3,\"failed\":0,\"cancelled\":0}");
        for (a, b) in lines[1..4].iter().zip(&again[1..4]) {
            assert_eq!(
                a.replace("\"cached\":false", "\"cached\":true"),
                *b,
                "cache replay must be byte-identical apart from provenance"
            );
        }
    }

    #[test]
    fn oversized_requests_and_draining_are_diagnosed() {
        let engine = Engine::new(ServerConfig { queue_depth: 2, ..quiet_config() }).unwrap();
        let req = "{\"id\":\"big\",\"evaluator\":\"delay_model\",\
                   \"axes\":[{\"param\":\"driver_size\",\"values\":[1,2,3]}]}\n";
        let lines = run_lines(&engine, req);
        assert!(lines[0].contains("\"code\":\"too_large\""), "{}", lines[0]);

        engine.begin_drain();
        let lines = run_lines(&engine, "{\"id\":\"late\",\"evaluator\":\"delay_model\"}\n");
        assert!(lines[0].contains("\"code\":\"shutting_down\""), "{}", lines[0]);
    }

    #[test]
    fn shutdown_op_stops_the_conversation() {
        let engine = Engine::new(quiet_config()).unwrap();
        let lines = run_lines(&engine, "{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n");
        assert_eq!(lines.len(), 1, "no lines may be processed after shutdown");
        assert!(engine.draining());
    }

    #[test]
    fn failed_cells_report_structured_per_cell_errors() {
        let engine = Engine::new(quiet_config()).unwrap();
        // reduction_order too large for the ladder: the evaluator errors.
        let req = "{\"id\":\"f\",\"evaluator\":\"reduced_delay\",\
                   \"base\":{\"ladder_sections\":2,\"reduction_order\":500}}\n";
        let lines = run_lines(&engine, req);
        assert!(lines[1].contains("\"error\":"), "{}", lines[1]);
        assert!(lines[2].contains("\"failed\":1"), "{}", lines[2]);
    }

    /// An evaluator that always panics, standing in for a pathological cell.
    struct Panicking;

    impl Evaluator for Panicking {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn columns(&self) -> &'static [&'static str] {
            &["x"]
        }

        fn evaluate(&self, _: &Scenario) -> Result<Vec<f64>, rlckit_sweep::SweepError> {
            panic!("deliberate evaluator panic")
        }
    }

    #[test]
    fn a_panicking_cell_fails_alone_and_the_worker_survives() {
        static PANICKING: Panicking = Panicking;
        let engine = Engine::new(quiet_config()).unwrap();
        let Ok(Request::Evaluate(mut job)) = request::parse_line(
            "{\"id\":\"boom\",\"evaluator\":\"delay_model\",\
             \"axes\":[{\"param\":\"driver_size\",\"values\":[50,100]}]}",
        ) else {
            panic!("the request parses");
        };
        job.evaluator = &PANICKING;

        // Both requests run on a side thread: with a dead worker the cells
        // would stay queued forever, so the test waits with a timeout
        // instead of hanging.
        let (tx, rx) = channel();
        let client = Arc::clone(&engine);
        let client_thread = std::thread::spawn(move || {
            let mut out = Vec::new();
            client.run_job(job, &mut out).unwrap();
            let after = run_lines(&client, "{\"id\":\"after\",\"evaluator\":\"delay_model\"}\n");
            let _ = tx.send((String::from_utf8(out).unwrap(), after));
        });
        let (boom, after) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the only worker must survive a panicking cell and answer the next request");
        client_thread.join().unwrap();

        let lines: Vec<&str> = boom.lines().collect();
        assert_eq!(lines.len(), 4, "ack, two cell errors, done: {lines:?}");
        for line in &lines[1..3] {
            assert!(line.contains("\"error\":\"evaluator panicked: deliberate"), "{line}");
        }
        assert!(lines[3].contains("\"failed\":2"), "{}", lines[3]);
        assert_eq!(
            after.last().unwrap(),
            "{\"type\":\"done\",\"id\":\"after\",\"evaluated\":1,\"cached\":0,\"failed\":0,\"cancelled\":0}"
        );
    }

    #[test]
    fn memory_store_stays_within_the_cache_budget() {
        // About eight delay_model rows fit; forty distinct cells go through.
        let budget = 1500;
        let engine = Engine::new(ServerConfig { cache_budget: budget, ..quiet_config() }).unwrap();
        let values: Vec<String> = (0..40).map(|i| (20 + 5 * i).to_string()).collect();
        let req = |sizes: &[String]| {
            format!(
                "{{\"id\":\"m\",\"evaluator\":\"delay_model\",\
                 \"axes\":[{{\"param\":\"driver_size\",\"values\":[{}]}}]}}\n",
                sizes.join(",")
            )
        };
        let first = run_lines(&engine, &req(&values));
        assert_eq!(first.len(), 42, "ack, forty cells, done");
        let memo_len = {
            let store = engine.shared.lock_store();
            assert!(store.total_bytes() <= budget, "{} bytes", store.total_bytes());
            assert!(store.len() < 40 && store.stats().evictions > 0);
            store.len()
        };
        let stats = run_lines(&engine, "{\"op\":\"stats\"}\n");
        assert!(stats[0].contains(&format!("\"memo_len\":{memo_len},")), "{}", stats[0]);
        assert!(!stats[0].contains("\"store\""), "no store section without a cache dir");

        // The oldest cell was evicted and recomputes; the newest replays.
        // Either way its values are the same bits (shortest round-trip text).
        assert_eq!(run_lines(&engine, &req(&values[..1]))[1], first[1]);
        let replay = first[40].replace("\"index\":39", "\"index\":0");
        let replay = replay.replace("\"cached\":false", "\"cached\":true");
        assert_eq!(run_lines(&engine, &req(&values[39..]))[1], replay);
    }

    #[test]
    fn disk_store_persists_results_across_engines() {
        let dir = std::env::temp_dir().join(format!("rlckit-server-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig { cache_dir: Some(dir.clone()), ..quiet_config() };
        let req = "{\"id\":\"p\",\"evaluator\":\"delay_model\"}\n";
        let first = {
            let engine = Engine::new(config.clone()).unwrap();
            run_lines(&engine, req)
        };
        assert!(first[1].ends_with("\"cached\":false}"));
        let second = {
            let engine = Engine::new(config).unwrap();
            run_lines(&engine, req)
        };
        assert!(second[1].ends_with("\"cached\":true}"), "{}", second[1]);
        assert_eq!(
            first[1].replace("\"cached\":false", "\"cached\":true"),
            second[1],
            "disk replay must be bit-exact"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deadline_cancels_remaining_cells() {
        let engine = Engine::new(quiet_config()).unwrap();
        // A deliberately heavy sweep with a 1 ms deadline: most (possibly
        // all) cells must come back cancelled, and the request still ends
        // with a well-formed done line.
        let req = "{\"id\":\"d\",\"evaluator\":\"mesh_delay\",\
                   \"base\":{\"mesh_rows\":40,\"mesh_cols\":40},\
                   \"axes\":[{\"param\":\"driver_size\",\"values\":[40,50,60,70,80]}],\
                   \"deadline_ms\":1}\n";
        let lines = run_lines(&engine, req);
        let done = lines.last().unwrap();
        assert!(done.starts_with("{\"type\":\"done\",\"id\":\"d\""), "{done}");
        let doc = rlckit_telemetry::json::parse(done).unwrap();
        let cancelled = doc.get("cancelled").unwrap().as_u64().unwrap();
        assert!(cancelled >= 1, "the 1ms deadline must cancel cells: {done}");
    }
}
