//! `daemon_cold` and `daemon_warm`: one closed-loop client on one TCP
//! connection against `rlckit-server --workers 2` in a process of its own,
//! so the daemon's memory and CPU are measured apart from the client's.
//!
//! Every request asks for 4 `mesh_delay` cells on a fixed 10×10 RC mesh,
//! swept over driver size. Cold requests never repeat a size, so every cell
//! is evaluated and written to the memo; warm requests replay a few dozen
//! requests the set-up already answered, so every cell is a memo hit.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use rlckit_sweep::{Evaluator, MeshDelayEvaluator, Scenario};

use crate::reference::Reference;
use crate::report::{Measured, Report};
use crate::{closed_loop, procfs, seconds_since, Args, Rng, Workload};

/// Worker threads of the daemon under test.
pub const WORKERS: usize = 2;
/// Cells per request.
pub const CELLS: usize = 4;
/// Rows and columns of the mesh every cell simulates.
pub const MESH: usize = 10;
/// Distinct requests the warm set-up answers and the warm phase replays.
pub const WARM_REQUESTS: usize = 24;
/// Fewest requests per measured phase: enough that ten samples lie beyond
/// the 95th percentile.
pub const MIN_REQUESTS: usize = 200;
/// Cold requests whose cells are re-evaluated in process and compared.
pub const SAMPLED_REQUESTS: usize = 3;
/// Largest accepted relative gap between a daemon cell and the in-process
/// evaluation of the same scenario.
pub const CELL_TOLERANCE: f64 = 1e-9;

/// A running `rlckit-server` child, killed and reaped if dropped early.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `server --workers 2` on a free loopback port and waits until
    /// it reports that it listens.
    ///
    /// # Errors
    ///
    /// Returns spawn errors, or an error when the daemon exits before it
    /// listens (three attempts, in case another process took the port).
    pub fn spawn(server: &Path) -> io::Result<Self> {
        let mut last = String::new();
        for _ in 0..3 {
            let addr = TcpListener::bind("127.0.0.1:0")?.local_addr()?;
            let mut child = Command::new(server)
                .args(["--workers", &WORKERS.to_string(), "--addr", &addr.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()?;
            let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
            let mut line = String::new();
            stderr.read_line(&mut line)?;
            if line.starts_with("rlckit-server listening") {
                return Ok(Self { child, _stderr: stderr, addr });
            }
            let _ = child.kill();
            let _ = child.wait();
            last = line.trim().to_owned();
        }
        Err(io::Error::other(format!("rlckit-server did not start: {last}")))
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` on a fresh connection and waits for the process to
    /// exit (killing it after ten seconds). Close every client first: the
    /// daemon finishes open conversations before it exits.
    ///
    /// # Errors
    ///
    /// Returns connection errors and a daemon that had to be killed.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.write_all(b"{\"op\":\"shutdown\"}\n")?;
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("rlckit-server did not exit after shutdown"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One newline-delimited JSON connection, used in a closed loop.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr` and checks the daemon answers a ping.
    ///
    /// # Errors
    ///
    /// Returns connection errors and an unexpected ping reply.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut client = Self { writer: stream.try_clone()?, reader: BufReader::new(stream) };
        let mut reply = String::new();
        client.call("{\"op\":\"ping\"}\n", &mut reply)?;
        if reply != "{\"type\":\"pong\"}\n" {
            return Err(io::Error::other(format!("unexpected ping reply {reply:?}")));
        }
        Ok(client)
    }

    /// Sends one request line (with its newline) and reads reply lines into
    /// `reply` up to the request's last line.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, including a daemon that hangs up.
    pub fn call(&mut self, request: &str, reply: &mut String) -> io::Result<()> {
        reply.clear();
        self.writer.write_all(request.as_bytes())?;
        loop {
            let start = reply.len();
            if self.reader.read_line(reply)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"));
            }
            let line = &reply[start..];
            let last = ["done", "error", "reject", "pong", "stats"]
                .iter()
                .any(|t| line.strip_prefix("{\"type\":\"").is_some_and(|rest| rest.starts_with(t)));
            if last {
                return Ok(());
            }
        }
    }
}

/// The wire request for cells at the given driver sizes.
pub fn request_line(id: &str, sizes: &[f64]) -> String {
    let values: Vec<String> = sizes.iter().map(f64::to_string).collect();
    format!(
        "{{\"id\":\"{id}\",\"evaluator\":\"mesh_delay\",\
         \"base\":{{\"mesh_rows\":{MESH},\"mesh_cols\":{MESH}}},\
         \"axes\":[{{\"param\":\"driver_size\",\"values\":[{}]}}]}}\n",
        values.join(",")
    )
}

/// The scenario the daemon evaluates for a cell at `size`.
pub fn scenario(size: f64) -> Scenario {
    Scenario { mesh_rows: MESH, mesh_cols: MESH, driver_size: size, ..Scenario::default() }
}

/// Driver sizes that never repeat within a run: a seeded start in [50, 51)
/// plus 0.01 per cell. Every size simulates the same 2000-step RC mesh
/// transient, so the work per cell stays constant.
#[derive(Debug, Clone)]
pub struct Sizes {
    start: f64,
    next: usize,
}

impl Sizes {
    /// The sequence for `rng`'s next start.
    pub fn new(rng: &mut Rng) -> Self {
        Self { start: 50.0 + rng.unit(), next: 0 }
    }

    /// The sizes of the next request.
    pub fn take(&mut self) -> Vec<f64> {
        self.next += CELLS;
        self.last()
    }

    /// The sizes of the request last taken.
    pub fn last(&self) -> Vec<f64> {
        (self.next.saturating_sub(CELLS)..self.next).map(|i| self.start + 0.01 * i as f64).collect()
    }
}

/// The numbers of a cell line's `"values":[…]` array (`null` reads as NaN).
pub fn cell_values(line: &str) -> Option<Vec<f64>> {
    const KEY: &str = "\"values\":[";
    let start = line.find(KEY)? + KEY.len();
    let end = start + line[start..].find(']')?;
    line[start..end]
        .split(',')
        .map(|v| if v == "null" { Some(f64::NAN) } else { v.parse().ok() })
        .collect()
}

/// Whether a reply is an ack, [`CELLS`] cell lines with values, and a done
/// trailer with no failed or cancelled cell.
pub fn reply_ok(reply: &str) -> bool {
    let lines: Vec<&str> = reply.lines().collect();
    lines.len() == CELLS + 2
        && lines[0].starts_with("{\"type\":\"ack\"")
        && lines[1..=CELLS]
            .iter()
            .all(|l| l.starts_with("{\"type\":\"cell\"") && cell_values(l).is_some())
        && lines[CELLS + 1].starts_with("{\"type\":\"done\"")
        && lines[CELLS + 1].ends_with("\"failed\":0,\"cancelled\":0}")
}

/// The reply a memo-warm daemon gives to a request it answered cold with
/// `cold`: the same lines and value bits, with cells marked cached.
pub fn warm_reply(cold: &str) -> String {
    cold.replace("\"cached\":false}", "\"cached\":true}").replace(
        &format!("\"evaluated\":{CELLS},\"cached\":0,"),
        &format!("\"evaluated\":0,\"cached\":{CELLS},"),
    )
}

/// Whether a cold reply's cells match in-process evaluation of the same
/// scenarios within [`CELL_TOLERANCE`].
pub fn matches_in_process(sizes: &[f64], reply: &str) -> bool {
    let cells = reply.lines().skip(1).take(CELLS);
    sizes.iter().zip(cells).all(|(&size, line)| {
        let (Some(wire), Ok(local)) =
            (cell_values(line), MeshDelayEvaluator.evaluate(&scenario(size)))
        else {
            return false;
        };
        wire.len() == local.len()
            && wire.iter().zip(&local).all(|(w, l)| (w - l).abs() <= CELL_TOLERANCE * l.abs())
    })
}

/// A started daemon with its connection, and the warm requests with the
/// replies they must get.
#[derive(Debug)]
pub struct Session {
    /// The daemon process.
    pub daemon: Daemon,
    /// The client connection.
    pub client: Client,
    /// Warm requests and their expected replies (empty for cold).
    pub replay: Vec<(String, String)>,
}

impl Session {
    /// Set-up: start the daemon, connect, and for the warm workload answer
    /// [`WARM_REQUESTS`] distinct requests so the memo holds their cells.
    ///
    /// # Errors
    ///
    /// Returns daemon and connection errors, and fill replies that fail.
    pub fn start(server: &Path, warm: bool, rng: &mut Rng) -> Result<Self, String> {
        let daemon = Daemon::spawn(server).map_err(|e| e.to_string())?;
        let mut client = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
        let mut replay = Vec::new();
        if warm {
            let mut sizes = Sizes::new(rng);
            let mut reply = String::new();
            for j in 0..WARM_REQUESTS {
                let request = request_line(&format!("w{j}"), &sizes.take());
                client.call(&request, &mut reply).map_err(|e| e.to_string())?;
                if !reply_ok(&reply) {
                    return Err(format!("warm fill request {j} failed: {reply}"));
                }
                replay.push((request, warm_reply(&reply)));
            }
        }
        Ok(Self { daemon, client, replay })
    }

    /// Closes the connection and shuts the daemon down.
    ///
    /// # Errors
    ///
    /// Returns shutdown errors as text.
    pub fn close(self) -> Result<(), String> {
        drop(self.client);
        self.daemon.shutdown().map_err(|e| e.to_string())
    }
}

/// Repetitions of the set-up per run; the last session is measured.
fn setup_repeats(warm: bool) -> usize {
    if warm {
        3
    } else {
        5
    }
}

/// Starts the session to measure, timing `setup_repeats` set-ups.
///
/// # Errors
///
/// Returns set-up errors as text.
pub fn setup(args: &Args, warm: bool, rng: &mut Rng) -> Result<(Session, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut session: Option<Session> = None;
    for _ in 0..setup_repeats(warm) {
        if let Some(previous) = session.take() {
            previous.close()?;
        }
        let start = Instant::now();
        session = Some(Session::start(&args.server, warm, rng)?);
        setups.push(seconds_since(start));
    }
    Ok((session.expect("at least one set-up repetition"), setups))
}

/// The op generator of a measured phase.
#[derive(Debug)]
pub struct Traffic {
    warm: bool,
    /// Cold size generator.
    sizes: Sizes,
    /// Sizes and reply of every cold request sent.
    sent: Vec<(Vec<f64>, String)>,
    /// The current seeded permutation of the warm requests, and the
    /// position in it.
    order: Vec<usize>,
    at: usize,
    /// The last request sent and its reply.
    last: (String, String),
}

impl Traffic {
    /// The traffic of a workload.
    pub fn new(warm: bool, rng: &mut Rng) -> Self {
        Self {
            warm,
            sizes: Sizes::new(rng),
            sent: Vec::new(),
            order: Vec::new(),
            at: 0,
            last: (String::new(), String::new()),
        }
    }

    /// Sends the next request and checks its reply (the cold in-process
    /// comparison comes later, in [`Traffic::check_sample`]).
    ///
    /// # Errors
    ///
    /// Returns connection errors as text.
    pub fn op(&mut self, session: &mut Session, rng: &mut Rng) -> Result<bool, String> {
        let (request, expected) = if self.warm {
            if self.at == self.order.len() {
                self.order = (0..session.replay.len()).collect();
                rng.shuffle(&mut self.order);
                self.at = 0;
            }
            let (request, expected) = &session.replay[self.order[self.at]];
            self.at += 1;
            (request.clone(), Some(expected))
        } else {
            (request_line(&format!("c{}", self.sent.len()), &self.sizes.take()), None)
        };
        let reply = &mut self.last.1;
        session.client.call(&request, reply).map_err(|e| e.to_string())?;
        let ok = match expected {
            Some(expected) => reply == expected,
            None => {
                let sizes = self.sizes.last();
                self.sent.push((sizes, reply.clone()));
                reply_ok(reply)
            }
        };
        self.last.0 = request;
        Ok(ok)
    }

    /// The last request sent and the reply it got.
    pub fn last(&self) -> (&str, &str) {
        (&self.last.0, &self.last.1)
    }

    /// Re-evaluates [`SAMPLED_REQUESTS`] seeded cold requests in process and
    /// marks those whose cells differ as failed in `outcomes` (which holds
    /// one entry per request sent, in order). Warm traffic has nothing to do.
    pub fn check_sample(&self, outcomes: &mut [bool], rng: &mut Rng) {
        for _ in 0..SAMPLED_REQUESTS.min(self.sent.len()) {
            let i = rng.below(self.sent.len());
            let (sizes, reply) = &self.sent[i];
            if !matches_in_process(sizes, reply) {
                eprintln!("daemon_cold: request {i} disagrees with in-process evaluation");
                outcomes[i] = false;
            }
        }
    }
}

/// The end-to-end run.
///
/// # Errors
///
/// Returns set-up, connection and `/proc` errors as text.
pub fn run(args: &Args, warm: bool) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    let (mut session, setups_s) = setup(args, warm, &mut rng)?;
    let pid = Some(session.daemon.pid());
    let mut traffic = Traffic::new(warm, &mut rng);
    let mut outcomes = Vec::new();
    let mut reference = Reference::new(WORKERS);
    let phase =
        closed_loop(args.seconds, MIN_REQUESTS, pid, Some(&mut reference), &mut outcomes, || {
            traffic.op(&mut session, &mut rng)
        })?;
    let peak_rss_mb = procfs::peak_rss_mb(pid).map_err(|e| e.to_string())?;
    session.close()?;
    traffic.check_sample(&mut outcomes, &mut rng);

    let workload = if warm { Workload::DaemonWarm } else { Workload::DaemonCold };
    let mut report = Report::new(workload);
    report.count(&outcomes);
    report.push_end_to_end(&Measured { setups_s, phase, peak_rss_mb, reference });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLD: &str = "{\"type\":\"ack\",\"id\":\"w0\",\"cells\":4,\"axes\":[\"driver_size\"],\"columns\":[\"a\"]}\n\
        {\"type\":\"cell\",\"id\":\"w0\",\"index\":0,\"labels\":[\"50.5\"],\"values\":[1.5,null,3],\"cached\":false}\n\
        {\"type\":\"cell\",\"id\":\"w0\",\"index\":1,\"labels\":[\"50.51\"],\"values\":[2],\"cached\":false}\n\
        {\"type\":\"cell\",\"id\":\"w0\",\"index\":2,\"labels\":[\"50.52\"],\"values\":[2],\"cached\":false}\n\
        {\"type\":\"cell\",\"id\":\"w0\",\"index\":3,\"labels\":[\"50.53\"],\"values\":[2],\"cached\":false}\n\
        {\"type\":\"done\",\"id\":\"w0\",\"evaluated\":4,\"cached\":0,\"failed\":0,\"cancelled\":0}\n";

    #[test]
    fn replies_are_checked_line_by_line() {
        assert!(reply_ok(COLD));
        assert!(!reply_ok(&COLD.replace("\"failed\":0", "\"failed\":1")));
        let errored = COLD.replace("\"values\":[2]", "\"error\":\"no crossing\"");
        assert!(!reply_ok(&errored));
        assert!(!reply_ok("{\"type\":\"reject\",\"id\":\"w0\",\"code\":\"overloaded\"}\n"));
        let v = cell_values(COLD.lines().nth(1).unwrap()).unwrap();
        assert_eq!((v[0], v[2], v.len()), (1.5, 3.0, 3));
        assert!(v[1].is_nan());
    }

    #[test]
    fn warm_reply_marks_every_cell_cached() {
        let warm = warm_reply(COLD);
        assert!(reply_ok(&warm));
        assert_eq!(warm.matches("\"cached\":true}").count(), CELLS);
        assert!(warm.ends_with("\"evaluated\":0,\"cached\":4,\"failed\":0,\"cancelled\":0}\n"));
    }

    #[test]
    fn sizes_never_repeat_and_requests_round_trip() {
        let mut sizes = Sizes::new(&mut Rng::new(1));
        let (a, b) = (sizes.take(), sizes.take());
        let all: Vec<f64> = a.iter().chain(&b).copied().collect();
        assert!(all.windows(2).all(|w| w[1] > w[0]));
        assert!((50.0..52.0).contains(&all[0]));
        let line = request_line("c0", &a);
        assert!(line.ends_with("]}]}\n"));
        let listed: Vec<f64> = line
            .split("\"values\":[")
            .nth(1)
            .unwrap()
            .split(']')
            .next()
            .unwrap()
            .split(',')
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(listed, a, "sizes must cross the wire bit for bit");
    }
}
