//! Benchmark of the rlckit workspace.
//!
//! Four workloads drive the paper's reference measurement, the evaluation
//! daemon and the figure pipeline through their public entry points, check
//! every output, and report either end-to-end metrics (the `perfbench`
//! binary) or a per-layer breakdown (the `perfbench-trace` binary). The
//! workloads, metrics and first numbers are recorded in `README.md`.

pub mod daemon;
pub mod figures;
pub mod ladder;
pub mod procfs;
pub mod reference;
pub mod report;
pub mod stats;

use std::path::PathBuf;
use std::time::Instant;

use reference::Reference;

/// The benchmark's workloads, by their command-line names. All but
/// `daemon_warm` are registered in `BENCHMARK.json`; `README.md` says why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back `measure_step_delay` calls on one 200-section ladder.
    LadderMeasure,
    /// Distinct mesh requests to a fresh daemon: every cell is evaluated.
    DaemonCold,
    /// Replayed mesh requests to a filled daemon: every cell is a memo hit.
    DaemonWarm,
    /// The five paper figure sweeps, checked against the committed CSVs.
    Figures,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::LadderMeasure, Workload::DaemonCold, Workload::DaemonWarm, Workload::Figures];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LadderMeasure => "ladder_measure",
            Workload::DaemonCold => "daemon_cold",
            Workload::DaemonWarm => "daemon_warm",
            Workload::Figures => "figures",
        }
    }
}

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Whether the per-layer (traced) run was asked for.
    pub trace: bool,
    /// The `rlckit-server` executable the daemon workloads start.
    pub server: PathBuf,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1 --server PATH`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing, unknown or malformed argument.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut server) =
            (None, None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value:?}"))?);
                }
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    });
                }
                "--server" => server = Some(PathBuf::from(value)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            server: server.ok_or("--server is required")?,
        })
    }
}

/// SplitMix64: the generators' only source of randomness, so a seed fixes
/// every input a workload sends.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform sample of `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Seconds elapsed since `start`.
pub fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` once, returning its value and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, seconds_since(start))
}

/// Runs `setup` `count` times (at least once), appending each wall time to
/// `times`, and returns the last value.
///
/// # Errors
///
/// Returns the first set-up error.
pub fn repeat_timed<T>(
    count: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..count.max(1) {
        let (value, seconds) = timed(&mut setup);
        times.push(seconds);
        last = Some(value?);
    }
    Ok(last.expect("at least one repetition"))
}

/// Shortest window of a measured phase. Throughput and CPU per op are taken
/// per window and reported as medians over the windows, so host contention
/// that covers part of a run moves them no more than it moves the median
/// latency. An op longer than a window makes a window of its own.
pub const WINDOW_S: f64 = 1.0;

/// One window of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Ops completed in the window.
    pub ops: usize,
    /// Wall time of the window.
    pub seconds: f64,
    /// User plus system CPU seconds the measured process spent in it.
    pub cpu_s: f64,
}

/// What a closed-loop phase measured.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Wall time of each op.
    pub latencies_s: Vec<f64>,
    /// Wall time of the whole phase.
    pub elapsed_s: f64,
    /// Consecutive windows of at least [`WINDOW_S`]; a trailing shorter one
    /// is left out unless it is the only one.
    pub windows: Vec<Window>,
}

/// Runs `op` until `seconds` have passed and at least `min_ops` ops were
/// made, reading the CPU time of process `cpu_of` (this one for `None`) at
/// every window boundary. `op` reports whether its output check passed; the
/// counts go into `outcomes`. With a `reference`, the kernel runs before the
/// first op and after every window, outside the windows' wall and CPU time.
///
/// # Errors
///
/// Returns the first op error and `/proc` errors as text.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    cpu_of: Option<u32>,
    mut reference: Option<&mut Reference>,
    outcomes: &mut Vec<bool>,
    mut op: impl FnMut() -> Result<bool, String>,
) -> Result<Phase, String> {
    let cpu = || procfs::cpu_seconds(cpu_of).map_err(|e| e.to_string());
    let start = Instant::now();
    let mut sample = || match reference.as_deref_mut() {
        Some(reference) => reference.sample(),
        None => Ok(()),
    };
    sample()?;
    let mut windows = Vec::new();
    let (mut window_start, mut window_cpu, mut window_ops) = (seconds_since(start), cpu()?, 0);
    let mut latencies = Vec::new();
    loop {
        let (ok, latency) = timed(&mut op);
        latencies.push(latency);
        outcomes.push(ok?);
        window_ops += 1;
        let now = seconds_since(start);
        let done = now >= seconds && latencies.len() >= min_ops;
        if now - window_start >= WINDOW_S || (done && windows.is_empty()) {
            windows.push(Window {
                ops: window_ops,
                seconds: now - window_start,
                cpu_s: cpu()? - window_cpu,
            });
            sample()?;
            (window_start, window_cpu, window_ops) = (seconds_since(start), cpu()?, 0);
        }
        if done {
            return Ok(Phase { latencies_s: latencies, elapsed_s: seconds_since(start), windows });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = args("--workload figures --seed 7 --seconds 10 --trace 1 --server s").unwrap();
        assert_eq!(a.workload, Workload::Figures);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --server s").is_err());
        assert!(args("--workload figures --seed 1 --seconds 0 --server s").is_err());
        assert!(args("--workload figures --seed 1 --seconds 1 --trace 2 --server s").is_err());
        assert!(args("--workload figures --seconds 1 --server s").is_err());
        assert!(args("--workload figures --seed 1 --seconds 1 --server").is_err());
    }

    #[test]
    fn rng_is_seeded_and_shuffles_to_a_permutation() {
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(3).next_u64(), Rng::new(4).next_u64());
        let mut items: Vec<usize> = (0..50).collect();
        a.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!((0..1000).map(|_| a.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn closed_loop_meets_its_op_floor_and_windows_its_ops() {
        let mut outcomes = Vec::new();
        let short = closed_loop(1e-6, 3, None, None, &mut outcomes, || Ok(true)).unwrap();
        assert_eq!((short.latencies_s.len(), outcomes.len()), (3, 3));
        assert_eq!(short.windows.len(), 1, "a phase shorter than a window is one window");
        assert_eq!(short.windows[0].ops, 3);

        let nap = || {
            std::thread::sleep(std::time::Duration::from_millis(300));
            Ok(true)
        };
        let long = closed_loop(2.5, 1, None, None, &mut outcomes, nap).unwrap();
        assert!(long.elapsed_s >= 2.5);
        assert_eq!(long.windows.len(), 2, "{:?}", long.windows);
        assert!(long.windows.iter().all(|w| w.seconds >= WINDOW_S && w.ops == 4));
        assert!(long.windows.iter().all(|w| w.cpu_s >= 0.0));
    }

    /// The non-blank, non-comment lines of `manifest`'s `[profile.release]`.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|line| *line != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn release_profile_matches_the_repository_workspace() {
        let read = |path: &str| {
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        };
        let root = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        let own = read(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        assert!(!release_profile(&own).is_empty(), "the benchmark states its release profile");
        assert_eq!(
            release_profile(&own),
            release_profile(&root),
            "the library code the benchmark times must be built as users build it"
        );
    }
}
