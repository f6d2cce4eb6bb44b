//! `perfbench` — the end-to-end benchmark of the COMPASS stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile|simulate|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client: the next op starts
//! when the previous one returns, and every op of a run gets the same
//! inputs, generated from `--seed`. Every op's output is checked; a
//! wrong or failed op is counted, never fatal. The library is driven
//! only through its public functions, with timing, schedule, topology
//! and sharding set explicitly (no environment variable reaches a
//! workload), from a default-feature build, so each op runs on one
//! thread.
//!
//! * `--trace 0` sets up [`SETUP_REPEATS`] times (each set-up ends with
//!   a warm-up op), then times ops for `--seconds` and prints the
//!   end-to-end metrics.
//! * `--trace 1` sets up once with spans recorded, times untraced ops
//!   for half of `--seconds` and traced ops for the other half, prints
//!   the per-layer metrics (the two halves' throughputs show the
//!   tracing overhead) and writes the spans as Chrome trace-event JSON
//!   to `perfbench/out/`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! say how the run went (seed, host parallelism, tail percentile,
//! host noise).

mod compile;
mod host;
mod phases;
mod serve;
mod simulate;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::HostSample;
use spans::Spans;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// The tail percentile is the highest with at least this many ops
/// beyond it.
const TAIL_OPS: usize = 10;

/// End-to-end metrics, `(name, unit)`, printed by `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("work_per_s", "1/s"),
    ("sim_ips", "1/s"),
    ("sim_edp", "uJ.ms"),
    ("sim_p99_ms", "ms"),
];

/// Per-layer metrics, `(name, unit)`, printed by `--trace 1`. A layer
/// that does no work on a workload reads 0 there.
const PER_LAYER: [(&str, &str); 45] = [
    ("model.build_s", "s"),
    ("decompose.s", "s"),
    ("decompose.units", "count"),
    ("validity.s", "s"),
    ("validity.valid_frac", "ratio"),
    ("ga.s", "s"),
    ("ga.share", "ratio"),
    ("ga.generations", "count"),
    ("ga.evals", "count"),
    ("ga.distinct_groups", "count"),
    ("ga.distinct_segments", "count"),
    ("ga.memo_hit_ratio", "ratio"),
    ("estimate.s", "s"),
    ("estimate.sim_over_est", "ratio"),
    ("replication.s", "s"),
    ("scheduler.s", "s"),
    ("scheduler.instructions", "count"),
    ("scheduler.write_weight", "count"),
    ("sim.verify_s", "s"),
    ("sim.s", "s"),
    ("dram.s", "s"),
    ("dram.share", "ratio"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.bus_util", "ratio"),
    ("core.mean_util", "ratio"),
    ("core.dram_wait_share", "ratio"),
    ("core.recv_wait_share", "ratio"),
    ("system.plan_s", "s"),
    ("traffic.s", "s"),
    ("serve.frontend_s", "s"),
    ("serve.frontend_share", "ratio"),
    ("serve.rounds", "count"),
    ("serve.mean_batch", "count"),
    ("serve.dropped", "count"),
    ("serve.mean_queue_ms", "ms"),
    ("links.bytes", "B"),
    ("links.busy_share", "ratio"),
    ("links.wait_share", "ratio"),
    ("host.peak_rss_mb", "MB"),
    ("host.steal_share", "ratio"),
    ("host.runq_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.work_per_s", "1/s"),
    ("trace.untraced_work_per_s", "1/s"),
    ("trace.overhead", "ratio"),
];

/// Simulated results of a workload's checked output. They are
/// deterministic for a seed and repeat exactly across runs.
pub struct SimMetrics {
    /// Simulated inferences (or, serving, SLO-good requests) per second.
    pub ips: f64,
    /// Simulated energy-delay product per inference, µJ·ms.
    pub edp: f64,
    /// Simulated p99 latency, ms.
    pub p99_ms: f64,
}

/// Per-layer values a workload reports, by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds the inputs from `seed` (everything before the warm-up
    /// op), recording set-up phases as spans when tracing.
    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, String>;

    /// Work units one op completes (compilations, inferences,
    /// requests).
    fn work_units(&self) -> f64;

    /// Runs one op, then checks its output. Returns the wall time of
    /// the op's library calls (not of the check), or why the op failed.
    /// The first op of a set-up fixes the reference every later op of
    /// the run must reproduce.
    fn op(&mut self, spans: &mut Spans) -> Result<Duration, String>;

    /// Simulated metrics of the reference output.
    fn sim(&self) -> SimMetrics;

    /// Adds the per-layer metrics of a traced run.
    fn layers(&self, spans: &Spans, layers: &mut Layers);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <compile|simulate|serve> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "compile" => run::<compile::Compile>(&args),
        "simulate" => run::<simulate::Simulate>(&args),
        "serve" => run::<serve::Serve>(&args),
        other => Err(format!("unknown workload {other:?} (compile, simulate, serve)")),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The ops of one timed window.
#[derive(Default)]
struct Window {
    /// Wall seconds of every op that succeeded.
    walls: Vec<f64>,
    attempted: usize,
    failed: usize,
}

impl Window {
    /// Work units per second of op time.
    fn work_per_s(&self, units_per_op: f64) -> f64 {
        let total: f64 = self.walls.iter().sum();
        if total > 0.0 {
            units_per_op * self.walls.len() as f64 / total
        } else {
            0.0
        }
    }
}

/// Runs ops back to back until `seconds` have passed (at least one).
fn measure<W: Workload>(workload: &mut W, spans: &mut Spans, seconds: f64) -> Window {
    let start = Instant::now();
    let mut window = Window::default();
    while window.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        spans.next_group();
        window.attempted += 1;
        match workload.op(spans) {
            Ok(wall) => window.walls.push(wall.as_secs_f64()),
            Err(e) => {
                window.failed += 1;
                eprintln!("perfbench: op {} failed: {e}", window.attempted);
            }
        }
    }
    window
}

/// Sets up (with its warm-up op) and returns the workload and the
/// set-up's wall seconds.
fn set_up<W: Workload>(seed: u64, spans: &mut Spans) -> Result<(W, f64), String> {
    let start = Instant::now();
    spans.next_group();
    let mut workload = W::setup(seed, spans)?;
    let traced = spans.enabled();
    spans.set_enabled(false);
    spans.next_group();
    workload.op(spans).map_err(|e| format!("warm-up op failed: {e}"))?;
    spans.set_enabled(traced);
    Ok((workload, start.elapsed().as_secs_f64()))
}

/// One printed metric: name, unit, value.
type Metric = (&'static str, &'static str, f64);

fn run<W: Workload>(args: &Args) -> Result<String, String> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {}, seed {}, available_parallelism {parallelism}, trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let host_start = HostSample::now();
    let (window, sim, metrics) = if args.trace {
        run_traced::<W>(args, &host_start)?
    } else {
        run_untraced::<W>(args, &host_start)?
    };
    let sim_ok = [sim.ips, sim.edp, sim.p99_ms].iter().all(|v| v.is_finite() && *v > 0.0);
    if !sim_ok {
        eprintln!("perfbench: simulated metrics must be finite and positive");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        window.failed == 0 && sim_ok,
        window.attempted,
        window.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    line.push_str("}}");
    Ok(line)
}

/// `--trace 0`: the end-to-end metrics.
fn run_untraced<W: Workload>(
    args: &Args,
    host_start: &HostSample,
) -> Result<(Window, SimMetrics, Vec<Metric>), String> {
    let mut spans = Spans::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let (w, secs) = set_up::<W>(args.seed, &mut spans)?;
        setups.push(secs);
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");
    let window = measure(&mut workload, &mut spans, args.seconds);
    let sim = workload.sim();
    let (tail, tail_q, beyond) = tail(&window.walls);
    println!(
        "perfbench: {} ops, {} failed ({:.2}%); op_s_tail is p{:.2} with {beyond} of {} ops \
         beyond it",
        window.attempted,
        window.failed,
        100.0 * window.failed as f64 / window.attempted as f64,
        tail_q * 100.0,
        window.walls.len()
    );
    let host_end = HostSample::now();
    println!(
        "perfbench: host peak_rss_mb {:.1}, steal_share {:.5}, runq_share {:.5}",
        host::peak_rss_mb(),
        host_end.steal_share_since(host_start),
        host_end.runq_share_since(host_start)
    );
    let values = [
        median(&setups),
        median(&window.walls),
        tail,
        window.work_per_s(workload.work_units()),
        sim.ips,
        sim.edp,
        sim.p99_ms,
    ];
    let metrics = END_TO_END.into_iter().zip(values).map(|((name, unit), v)| (name, unit, v));
    Ok((window, sim, metrics.collect()))
}

/// `--trace 1`: the per-layer metrics, from untraced ops for half the
/// time and traced ops for the other half.
fn run_traced<W: Workload>(
    args: &Args,
    host_start: &HostSample,
) -> Result<(Window, SimMetrics, Vec<Metric>), String> {
    let mut spans = Spans::new(true);
    let (mut workload, _) = set_up::<W>(args.seed, &mut spans)?;
    spans.set_enabled(false);
    let mut window = measure(&mut workload, &mut spans, args.seconds / 2.0);
    spans.set_enabled(true);
    let traced = measure(&mut workload, &mut spans, args.seconds / 2.0);
    let untraced_wps = window.work_per_s(workload.work_units());
    let traced_wps = traced.work_per_s(workload.work_units());
    let overhead = if traced_wps > 0.0 { untraced_wps / traced_wps - 1.0 } else { 0.0 };
    let coverage = spans.child_coverage("op");
    println!(
        "perfbench: work_per_s traced {traced_wps:.4} vs untraced {untraced_wps:.4} \
         (tracing overhead {:+.2}%); phase spans cover {:.2}% of the traced op wall \
         (0 where an op is one library call)",
        overhead * 100.0,
        coverage * 100.0
    );
    let mut layers = Layers::new();
    workload.layers(&spans, &mut layers);
    let host_end = HostSample::now();
    layers.extend([
        ("host.peak_rss_mb", host::peak_rss_mb()),
        ("host.steal_share", host_end.steal_share_since(host_start)),
        ("host.runq_share", host_end.runq_share_since(host_start)),
        ("trace.coverage", coverage),
        ("trace.work_per_s", traced_wps),
        ("trace.untraced_work_per_s", untraced_wps),
        ("trace.overhead", overhead),
    ]);
    if let Some(name) = layers.keys().find(|name| !PER_LAYER.iter().any(|(n, _)| n == *name)) {
        return Err(format!("workload reported unknown layer metric {name}"));
    }
    let path =
        format!("{}/out/trace-{}-{}.json", env!("CARGO_MANIFEST_DIR"), args.workload, args.seed);
    write_trace(&path, &spans.chrome_json())?;
    println!("perfbench: wrote spans to {path}");
    window.attempted += traced.attempted;
    window.failed += traced.failed;
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)));
    Ok((window, workload.sim(), metrics.collect()))
}

fn write_trace(path: &str, json: &str) -> Result<(), String> {
    let dir = std::path::Path::new(path).parent().expect("trace path has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))
}

/// Median of `values` (mean of the middle two for an even count); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile of `walls` with [`TAIL_OPS`] ops beyond it
/// (the minimum when there are too few ops), that percentile as a
/// fraction, and the number of ops beyond it.
fn tail(walls: &[f64]) -> (f64, f64, usize) {
    if walls.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut sorted = walls.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = n.saturating_sub(TAIL_OPS + 1);
    (sorted[rank], (rank + 1) as f64 / n as f64, n - rank - 1)
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
