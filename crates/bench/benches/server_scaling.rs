//! Daemon throughput and cache hit rate under a pattern-repeating workload.
//!
//! The point of `rlckit-server` is amortisation: a long-running process
//! keeps two cache layers warm — the result store over whole evaluated
//! cells and the factorization pattern cache underneath the sparse solver —
//! so repeated scenario evaluations stop paying for symbolic analysis,
//! numeric factorization, or the evaluation itself. This bench quantifies
//! that claim with a dependency-free load generator speaking the real wire
//! protocol over real TCP:
//!
//! * a **cold pass** of requests with *distinct* parameter values over the
//!   *same* MNA pattern (a fixed mesh, swept driver strengths) — every cell
//!   is a result-cache miss, and the pattern cache shares one symbolic
//!   analysis across the repeated pattern;
//! * a **warm pass** replaying the identical requests — every cell is a
//!   result-cache hit and the daemon is limited by parsing and I/O.
//!
//! Recorded per pass: the cell cache-hit rate (exactly 0 cold, exactly 1
//! warm). Requests/second and the warm-over-cold speedup are printed, and
//! the full run asserts the warm pass is at least 5x faster (the acceptance
//! bar); the gated daemon timings live in the `benchmark/` harness. Smoke
//! mode (`RLCKIT_BENCH_SMOKE`) shrinks the request count but emits the same
//! record names so `bench_check` can audit the writer.
//!
//! Run with `cargo bench -p rlckit-bench --bench server_scaling`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use rlckit_bench::report::{
    smoke_mode, smoke_or, write_profile_if_enabled, write_trajectory_or_exit, PerfReport,
};
use rlckit_server::{serve_listener, Engine, ServerConfig};

/// Requests per pass; each expands to [`CELLS_PER_REQUEST`] mesh cells.
fn request_count() -> usize {
    smoke_or(6, 48)
}

const CELLS_PER_REQUEST: usize = 4;

/// One wire request: a fixed 10x10 power-mesh pattern, driver strengths
/// offset by the request index so every cold cell is a distinct scenario.
fn request_line(index: usize) -> String {
    let values: Vec<String> =
        (0..CELLS_PER_REQUEST).map(|c| format!("{}", 40 + index * CELLS_PER_REQUEST + c)).collect();
    format!(
        "{{\"id\":\"req-{index}\",\"evaluator\":\"mesh_delay\",\
         \"base\":{{\"mesh_rows\":10,\"mesh_cols\":10}},\
         \"axes\":[{{\"param\":\"driver_size\",\"values\":[{}]}}]}}",
        values.join(",")
    )
}

/// Client-side measurements for one pass over the request set.
struct PassMetrics {
    /// Requests sent.
    requests: usize,
    /// Total pass wall time in seconds.
    elapsed_s: f64,
    /// Cells answered, and how many of those came from the result cache.
    cells: usize,
    cached: usize,
}

impl PassMetrics {
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed_s
    }

    fn hit_rate(&self) -> f64 {
        self.cached as f64 / self.cells.max(1) as f64
    }
}

/// Sends every request sequentially on one connection, waiting for each
/// `done` trailer before the next request.
fn run_pass(addr: std::net::SocketAddr, requests: &[String]) -> PassMetrics {
    let stream = TcpStream::connect(addr).expect("daemon accepts");
    stream.set_nodelay(true).expect("nodelay sets");
    let mut writer = stream.try_clone().expect("stream clones");
    let mut reader = BufReader::new(stream);
    let mut metrics = PassMetrics { requests: requests.len(), elapsed_s: 0.0, cells: 0, cached: 0 };
    let pass_start = Instant::now();
    let mut line = String::new();
    for request in requests {
        writer.write_all(request.as_bytes()).expect("request writes");
        writer.write_all(b"\n").expect("request writes");
        loop {
            line.clear();
            assert!(reader.read_line(&mut line).expect("response reads") > 0, "daemon hung up");
            assert!(
                !line.starts_with("{\"type\":\"error\"")
                    && !line.starts_with("{\"type\":\"reject\""),
                "load generator request refused: {line}"
            );
            if line.starts_with("{\"type\":\"cell\"") {
                metrics.cells += 1;
                if line.contains("\"cached\":true") {
                    metrics.cached += 1;
                }
                assert!(!line.contains("\"error\":"), "cell failed: {line}");
            }
            if line.starts_with("{\"type\":\"done\"") {
                break;
            }
        }
    }
    metrics.elapsed_s = pass_start.elapsed().as_secs_f64();
    metrics
}

/// Cold pass then warm replay against one daemon; records the trajectory.
fn write_perf_trajectory() {
    let engine =
        Engine::new(ServerConfig { workers: 2, pattern_cache: true, ..ServerConfig::default() })
            .expect("engine starts");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds");
    let addr = listener.local_addr().expect("bound address");
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || serve_listener(&engine, listener))
    };

    let requests: Vec<String> = (0..request_count()).map(request_line).collect();
    let cold = run_pass(addr, &requests);
    let warm = run_pass(addr, &requests);
    let speedup = warm.requests_per_sec() / cold.requests_per_sec();

    let mut report = PerfReport::new("server");
    report.push("cold/hit_rate", cold.hit_rate(), "ratio");
    report.push("warm/hit_rate", warm.hit_rate(), "ratio");
    println!(
        "cold: {:>7.1} req/s, hit rate {:.2}; warm: {:>7.1} req/s, hit rate {:.2} — {speedup:.1}x",
        cold.requests_per_sec(),
        cold.hit_rate(),
        warm.requests_per_sec(),
        warm.hit_rate(),
    );

    // Every cold cell is a distinct scenario (miss); every warm cell replays.
    assert_eq!(cold.cached, 0, "cold pass must not see result-cache hits");
    assert_eq!(warm.cached, warm.cells, "warm pass must be fully cached");
    if !smoke_mode() {
        // The acceptance bar: a warm daemon answers a pattern-repeating
        // workload at least 5x faster than a cold one.
        assert!(speedup >= 5.0, "warm speedup {speedup:.2}x is below the 5x acceptance bar");
    }

    // Drain: a shutdown op stops the accept loop, then the pool joins.
    let mut control = TcpStream::connect(addr).expect("daemon accepts");
    control.write_all(b"{\"op\":\"shutdown\"}\n").expect("shutdown sends");
    let mut reply = String::new();
    BufReader::new(control).read_line(&mut reply).expect("shutdown acknowledged");
    server.join().expect("accept loop joins").expect("accept loop clean");
    engine.join();

    write_trajectory_or_exit(&report);
}

fn main() {
    write_perf_trajectory();
    // Under RLCKIT_PROFILE=1 this lands PROFILE_server.json, which CI audits
    // for the daemon spans (server.request / server.cell) and the
    // cache-hit/miss counters of both passes.
    write_profile_if_enabled("server");
}
