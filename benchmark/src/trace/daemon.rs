//! Traced `daemon_cold` and `daemon_warm`: plain requests, then requests
//! each followed by timing the server-side layer calls on that very request
//! (parse, cache key, render) in this process; the daemon's `stats` op gives
//! the memo and pattern-cache counts; for cold cells, the evaluator and the
//! transient breakdown of a sample of cells, in this process.

use rlckit_circuit::mesh::MeshSpec;
use rlckit_interconnect::MeshGeometry;
use rlckit_perfbench::daemon::{self, Session, Traffic, CELLS, WORKERS};
use rlckit_perfbench::{closed_loop, stats, timed, Args, Rng};
use rlckit_server::request::{parse_line, Request};
use rlckit_server::response;
use rlckit_sweep::eval::scenario_line;
use rlckit_sweep::{cache_key, Evaluator, MeshDelayEvaluator, Scenario};

use crate::breakdown::{self, Probe};
use crate::Trace;

/// Fewest requests per phase.
const MIN_REQUESTS: usize = 50;
/// Cold cells evaluated in this process for `eval.cell_ms`.
const EVAL_CELLS: usize = 8;
/// Cold cells decomposed for the transient breakdown.
const BREAKDOWN_CELLS: usize = 3;

/// Server-side layer times of one request, in seconds.
struct LayerTimes {
    parse_s: f64,
    key_s: f64,
    render_s: f64,
}

/// Times `parse_line`, `cache_key` per cell and the rendering of the reply
/// (`ack`, each `cell`, `done`) for one exchange, and checks the rendering
/// reproduces the daemon's reply byte for byte.
fn layer_times(request: &str, reply: &str, cached: bool) -> Result<LayerTimes, String> {
    let (parsed, parse_s) = timed(|| parse_line(request.trim_end()));
    let Ok(Request::Evaluate(job)) = parsed else {
        return Err(format!("request did not parse as an evaluation: {request}"));
    };
    let (keys, keys_s) = timed(|| {
        job.cells.iter().map(|c| cache_key(job.evaluator, &c.scenario)).collect::<Vec<_>>()
    });
    std::hint::black_box(keys);
    let values: Vec<Vec<f64>> = reply
        .lines()
        .skip(1)
        .take(CELLS)
        .map(|line| daemon::cell_values(line).ok_or("reply cell has no values"))
        .collect::<Result<_, _>>()?;
    let (evaluated, hits) = if cached { (0, CELLS) } else { (CELLS, 0) };
    let (rendered, render_s) = timed(|| {
        let mut out =
            response::ack(&job.id, job.cells.len(), &job.axis_names, job.evaluator.columns());
        out.push('\n');
        for (cell, values) in job.cells.iter().zip(&values) {
            out.push_str(&response::cell(&job.id, cell.index, &cell.labels, values, cached));
            out.push('\n');
        }
        out.push_str(&response::done(&job.id, evaluated, hits, 0, 0));
        out.push('\n');
        out
    });
    if rendered != reply {
        return Err(format!(
            "in-process rendering differs from the daemon's reply:\n{rendered}{reply}"
        ));
    }
    Ok(LayerTimes { parse_s, key_s: keys_s / CELLS as f64, render_s })
}

/// A counter of the daemon's `stats` reply (keys are unique in that reply).
fn stat(stats: &str, key: &str) -> Result<f64, String> {
    let pattern = format!("\"{key}\":");
    let start =
        stats.find(&pattern).ok_or_else(|| format!("stats has no {key}: {stats}"))? + pattern.len();
    let digits: String = stats[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse::<u64>().map(|v| v as f64).map_err(|_| format!("stats {key} is not a count"))
}

fn stats_reply(session: &mut Session) -> Result<String, String> {
    let mut reply = String::new();
    session.client.call("{\"op\":\"stats\"}\n", &mut reply).map_err(|e| e.to_string())?;
    Ok(reply)
}

/// The mesh `MeshDelayEvaluator` builds for a scenario (its lowering,
/// restated so the build can be timed apart from the transient).
fn mesh_spec(s: &Scenario) -> Result<MeshSpec, String> {
    let tech = s.technology.technology();
    let line = scenario_line(s).map_err(|e| e.to_string())?;
    let span = s.mesh_rows.max(s.mesh_cols).saturating_sub(1).max(1);
    let pitch = line.with_length(line.length() / span as f64).map_err(|e| e.to_string())?;
    let mesh = MeshGeometry::new(s.mesh_rows, s.mesh_cols, pitch).map_err(|e| e.to_string())?;
    let driver = tech.buffer_resistance(s.driver_size).map_err(|e| e.to_string())?;
    mesh.to_mesh_spec(driver, tech.supply, false).map_err(|e| e.to_string())
}

/// Times the evaluator on sampled cold cells and decomposes a few of them;
/// returns the median cell time in seconds.
fn cold_cells(trace: &mut Trace, rng: &mut Rng) -> Result<f64, String> {
    let mut sizes = daemon::Sizes::new(rng);
    let scenarios: Vec<Scenario> =
        (0..EVAL_CELLS / CELLS).flat_map(|_| sizes.take()).map(daemon::scenario).collect();
    let mut eval_s = Vec::new();
    let mut expected_ps = Vec::new();
    for s in &scenarios {
        let (row, seconds) = timed(|| MeshDelayEvaluator.evaluate(s));
        expected_ps.push(row.map_err(|e| e.to_string())?[0]);
        eval_s.push(seconds);
    }
    let mut builds_s = Vec::new();
    let mut ops = Vec::new();
    let mut last = None;
    for (s, &want_ps) in scenarios.iter().zip(&expected_ps).take(BREAKDOWN_CELLS) {
        let spec = mesh_spec(s)?;
        let (net, build_s) = timed(|| spec.build());
        let net = net.map_err(|e| e.to_string())?;
        let probe = Probe {
            circuit: &net.circuit,
            output: net.far,
            supply: spec.supply,
            stop: spec.suggested_stop_time(),
            timestep: spec.suggested_timestep(),
        };
        let m = breakdown::measure(&probe)?;
        // The restated measurement must be the evaluator's own.
        let got_ps = m.delay_s * 1e12;
        let ok = (got_ps - want_ps).abs() <= 1e-9 * want_ps.abs();
        if !ok {
            eprintln!("daemon_cold: decomposed delay {got_ps} ps differs from the evaluator's {want_ps} ps");
        }
        trace.outcomes.push(ok);
        builds_s.push(build_s);
        last = Some((net, m.step_s));
        ops.push(m);
    }
    let (net, step_s) = last.ok_or("no cell was decomposed")?;
    let kernels = breakdown::kernels(&net.circuit, rlckit_units::Time::from_seconds(step_s))?;
    breakdown::record(trace, &builds_s, &ops, &kernels);
    let cell_s = stats::median(&eval_s);
    trace.set(
        "eval.cell_ms",
        cell_s * 1e3,
        format!("median of n={} cells, one thread", eval_s.len()),
    );
    Ok(cell_s)
}

/// The traced run.
///
/// # Errors
///
/// Returns set-up, connection and layer errors as text.
pub fn run(args: &Args, warm: bool, trace: &mut Trace) -> Result<(), String> {
    let mut rng = Rng::new(args.seed);
    let mut session = Session::start(&args.server, warm, &mut rng)?;
    let before = stats_reply(&mut session)?;
    let mut traffic = Traffic::new(warm, &mut rng);
    let phase = args.seconds / 3.0;
    let plain_s = closed_loop(phase, MIN_REQUESTS, None, None, &mut trace.outcomes, || {
        traffic.op(&mut session, &mut rng)
    })?
    .latencies_s;

    let (mut parse_s, mut key_s, mut render_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_s = Vec::new();
    let start = std::time::Instant::now();
    while start.elapsed().as_secs_f64() < phase || traced_s.len() < MIN_REQUESTS {
        let (ok, seconds) = timed(|| traffic.op(&mut session, &mut rng));
        trace.outcomes.push(ok?);
        traced_s.push(seconds);
        let (request, reply) = traffic.last();
        let times = layer_times(request, reply, warm)?;
        parse_s.push(times.parse_s);
        key_s.push(times.key_s);
        render_s.push(times.render_s);
    }
    let after = stats_reply(&mut session)?;
    session.close()?;
    traffic.check_sample(&mut trace.outcomes, &mut rng);

    let delta = |key: &str| -> Result<f64, String> { Ok(stat(&after, key)? - stat(&before, key)?) };
    let (hits, evaluated) = (delta("cached")?, delta("evaluated")?);
    let lookups = delta("value_hits")? + delta("refactor_hits")? + delta("misses")?;
    let pattern_hits = delta("value_hits")? + delta("refactor_hits")?;
    trace.set(
        "server.memo_hit_ratio",
        hits / (hits + evaluated),
        format!("{hits} memo hits, {evaluated} evaluated cells (stats op)"),
    );
    trace.set(
        "server.memo_len",
        stat(&after, "memo_len")?,
        "memo entries after the run (stats op)",
    );
    trace.set("pattern_cache.lookups", lookups, "value hits + refactor hits + misses (stats op)");
    trace.set(
        "pattern_cache.hit_ratio",
        if lookups > 0.0 { pattern_hits / lookups } else { 0.0 },
        "(value + refactor hits) / lookups, 0 without lookups",
    );

    let parse_us = stats::median(&parse_s) * 1e6;
    let key_us = stats::median(&key_s) * 1e6;
    let render_us = stats::median(&render_s) * 1e6;
    let n = parse_s.len();
    trace.set("server.parse_us", parse_us, format!("median of n={n} requests"));
    trace.set("sweep.cache_key_us", key_us, format!("median of n={n} requests, per cell"));
    trace.set(
        "server.render_us",
        render_us,
        format!("median of n={n} replies: ack + {CELLS} cells + done"),
    );

    let cell_ms = if warm { 0.0 } else { cold_cells(trace, &mut rng)? * 1e3 };
    // Cells of one request run on the workers side by side, so a request
    // waits for ceil(cells/workers) cells in a row.
    let rounds = CELLS.div_ceil(WORKERS) as f64;
    let accounted_ms = (parse_us + render_us) / 1e3 + rounds * (key_us / 1e3 + cell_ms);
    let op_ms = stats::median(&plain_s) * 1e3;
    trace.set(
        "server.unaccounted_ms",
        op_ms - accounted_ms,
        "request latency - parse - ceil(cells/workers)*(cache_key + eval.cell) - render",
    );
    trace.closure(
        accounted_ms,
        op_ms,
        "parse + ceil(cells/workers)*(cache_key + eval.cell) + render",
        "the gap is server.unaccounted_ms: socket I/O, channel hand-off, the reorder buffer and scheduling",
    );
    trace.overhead(&traced_s, &plain_s);
    Ok(())
}
