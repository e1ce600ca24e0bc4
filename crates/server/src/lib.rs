//! Batched scenario-evaluation daemon for `rlckit`.
//!
//! Everything upstream of this crate is a library or a one-shot binary: you
//! link `rlckit-sweep`, build a [`SweepSpec`](rlckit_sweep::SweepSpec), run
//! it, exit — and every process pays the full cost of sparse symbolic
//! analysis, factorization and evaluation from scratch. This crate turns
//! the same typed evaluation space into a **long-running service** so that
//! cost is paid once and amortised across requests:
//!
//! * [`engine`] — the shared evaluation engine: a bounded cell queue with
//!   explicit backpressure, a worker pool, per-request deadlines and
//!   cancellation, and two cache layers (one byte-budgeted
//!   [`ResultStore`](rlckit_sweep::ResultStore) over whole results, in
//!   memory or on disk, and the process-global
//!   [`pattern_cache`](rlckit_circuit::pattern_cache) sharing sparse
//!   factorization work across matching MNA patterns);
//! * [`request`] — newline-delimited JSON requests validated into the
//!   existing typed [`Scenario`](rlckit_sweep::Scenario) /
//!   [`SweepSpec`](rlckit_sweep::SweepSpec) space, with netlist-style
//!   `code` / `message` / `hint` diagnostics on every rejection;
//! * [`response`] — deterministic single-line response rendering (fixed
//!   field order, shortest-round-trip floats, no timestamps) so golden
//!   transcripts replay byte-for-byte. Both sit on the workspace's one
//!   JSON codec, [`rlckit_telemetry::json`].
//!
//! The wire protocol is specified field-by-field in `docs/PROTOCOL.md`;
//! operational knobs (worker count, queue depth, cache directory and
//! budget, deadlines) live in [`ServerConfig`] and are surfaced as CLI
//! flags by the `rlckit-server` binary — see `docs/OPERATIONS.md`.
//!
//! # Example: one-shot evaluation over an in-memory stream
//!
//! ```
//! use rlckit_server::{Engine, ServerConfig};
//!
//! let engine = Engine::new(ServerConfig {
//!     workers: 1,
//!     pattern_cache: false, // keep the doctest independent of global state
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let request = "{\"id\":\"r1\",\"evaluator\":\"delay_model\",\
//!                \"axes\":[{\"param\":\"line_length_mm\",\"values\":[5,10]}]}\n";
//! let mut reply = Vec::new();
//! engine.serve_stream(request.as_bytes(), &mut reply).unwrap();
//! let reply = String::from_utf8(reply).unwrap();
//! let lines: Vec<&str> = reply.lines().collect();
//! assert!(lines[0].starts_with("{\"type\":\"ack\",\"id\":\"r1\",\"cells\":2"));
//! assert!(lines[3].starts_with("{\"type\":\"done\",\"id\":\"r1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod request;
pub mod response;

pub use engine::{Engine, EngineStats, ServerConfig};
pub use request::RequestError;

use std::io::{BufReader, BufWriter};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Serves TCP connections on `listener` until the engine drains.
///
/// The listener is polled in non-blocking mode (~25 ms cadence) so a
/// `shutdown` operation received on one connection stops the accept loop
/// promptly; each accepted connection is handled on its own thread via
/// [`Engine::serve_stream`]. In-flight connections finish their current
/// conversation before the function returns.
///
/// # Errors
///
/// Returns the error of a listener that cannot be switched to non-blocking
/// mode, or a non-transient `accept` failure.
pub fn serve_listener(engine: &Arc<Engine>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut handles = Vec::new();
    while !engine.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Finished connections need no join; keep only live ones so
                // a long-lived daemon holds one handle per open connection.
                handles.retain(|h: &std::thread::JoinHandle<_>| !h.is_finished());
                stream.set_nonblocking(false)?;
                // Responses are small flushed lines; Nagle + delayed ACK
                // would add tens of milliseconds to every request.
                stream.set_nodelay(true)?;
                let engine = Arc::clone(engine);
                handles.push(std::thread::spawn(move || {
                    let reader = BufReader::new(stream.try_clone()?);
                    let writer = BufWriter::new(stream);
                    engine.serve_stream(reader, writer)
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
    for handle in handles {
        // Connection I/O errors (client hangups) are not server failures.
        let _ = handle.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    #[test]
    fn tcp_round_trip_serves_requests_and_honours_shutdown() {
        let engine = Engine::new(ServerConfig {
            workers: 1,
            pattern_cache: false,
            ..ServerConfig::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || serve_listener(&engine, listener))
        };

        // Many short-lived connections come and go before the real one;
        // the accept loop drops their finished handles as it goes.
        for _ in 0..64 {
            let mut short = TcpStream::connect(addr).unwrap();
            short.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut pong = String::new();
            BufReader::new(&short).read_line(&mut pong).unwrap();
            assert_eq!(pong, "{\"type\":\"pong\"}\n");
        }

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"op\":\"ping\"}\n{\"id\":\"t\",\"evaluator\":\"delay_model\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"type\":\"pong\"}\n");
        let mut saw_done = false;
        for _ in 0..3 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            saw_done |= line.starts_with("{\"type\":\"done\",\"id\":\"t\"");
        }
        assert!(saw_done, "the request must complete over TCP");
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"type\":\"pong\"}\n");
        server.join().unwrap().unwrap();
        assert!(engine.draining());
    }
}
