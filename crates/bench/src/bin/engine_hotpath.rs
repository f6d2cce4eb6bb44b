//! **Hot-path microbenchmarks**: raw simulator events/sec, feeding
//! the CI perf trajectory.
//!
//! Two measurements, both deterministic workloads (only the wall
//! clock varies):
//!
//! * **queue churn** — a classic hold-model schedule (pop an instant,
//!   reschedule into the near/far future with same-instant bursts
//!   mixed in) driven straight against [`pim_engine::EventQueue`], on
//!   both the run queue and the retired binary-heap reference. Their
//!   in-process ratio is the *queue speedup* — the machine-independent
//!   number the CI gate pins (`--min-speedup`, and the
//!   `hotpath:gate:queue-speedup` trajectory record). The gated hold
//!   is 16 events, `simulate`'s peak pending set, which the queue
//!   keeps in its sorted run. A second run holds 8,192 events, far
//!   deeper than any simulator gets, so nearly every push goes to the
//!   heap overflow; it is recorded ungated
//!   (`hotpath:abs:queue:depth8192:*`), and with `--min-speedup` the
//!   bin also fails when that hold runs slower than the reference
//!   heap, so deep pending sets never fall off a cliff.
//! * **engine dispatch** — the same churn through full
//!   [`pim_engine::Engine`] component dispatch (batched same-instant
//!   delivery, no per-event component take/put), on both queues. The
//!   gated ratio (`hotpath:gate:engine-speedup`) keeps 16 countdown
//!   chains in flight, the same depth as the gated queue churn; a
//!   second run keeps 256 in flight, all but 64 of them in the heap
//!   overflow, and is recorded ungated
//!   (`hotpath:abs:engine:chains256:*`).
//!
//! Each bench runs nine run-queue/reference pairs back to back; a
//! speedup is the median of the per-pair ratios and an absolute rate
//! the median of its side's runs.
//!
//! GA search throughput is measured by the `ga_scaling` bin through
//! the real `compass::ga::run`.
//!
//! Records land in the perf trajectory under two prefixes:
//! `hotpath:abs:*` are absolute wall-clock numbers and the deep-hold
//! ratio (trajectory visibility only — machine-dependent, never
//! gated); `hotpath:gate:*` are same-process ratios, gated like every
//! other record (throughput drop > tolerance fails CI).
//!
//! ```text
//! engine_hotpath [--quick] [--json BENCH_ci.json] [--min-speedup 1.3]
//! ```

use compass_bench::{arg_value, has_flag, print_table, BenchRecord};
use pim_engine::{Component, ComponentId, Engine, EngineCtx, Event, EventQueue, SimRng, SimTime};
use std::process::ExitCode;
use std::time::Instant;

/// In-flight events held by the gated queue churn and chains run by
/// the gated engine dispatch: `simulate`'s peak pending set, which the
/// queue keeps in its sorted run.
const SHALLOW_HOLD: usize = 16;
/// The depth of the ungated deep churn: far past the run's 64 events
/// (the simulators peak at 35, in `serve`), so it measures the heap
/// overflow.
const DEEP_HOLD: usize = 8192;
/// Countdown chains in flight in the ungated deep engine dispatch: as
/// many pending events, four times the run's 64.
const DEEP_CHAINS: usize = 256;
/// The least deep-hold speedup `--min-speedup` accepts: at
/// [`DEEP_HOLD`] the run queue must not be slower than the reference
/// heap.
const DEEP_FLOOR: f64 = 1.0;

/// A deterministic reschedule delay drawn from the *measured* delay
/// histogram of the real simulators (instrumented `EventQueue::push`
/// over the CI `topology_sweep --quick` and `timing_mode_sweep
/// --quick` workloads, delay = scheduled time − last popped time):
/// ~58% same-instant events (stage starts, barrier resets, rendezvous
/// wakeups), the rest spread roughly a half-decade per 6% from 1 ns
/// component latencies out to ~262 µs weight-load completions. One
/// RNG draw per event keeps the driver's share of the loop small, so
/// the measured events/sec reflects the queue, not the harness.
fn churn_delay(rng: &mut SimRng) -> f64 {
    let r = rng.next_u64();
    let magnitude = r >> 16;
    match r & 15 {
        0..=8 => 0.0,
        9 => 1.0 + (magnitude % 7) as f64,
        10 => 8.0 + (magnitude % 56) as f64,
        11 => 64.0 + (magnitude % 448) as f64,
        12 => 512.0 + (magnitude % 3_584) as f64,
        13 | 14 => 4_096.0 + (magnitude % 28_672) as f64,
        _ => 32_768.0 + (magnitude % 229_376) as f64,
    }
}

/// Raw queue events/sec over `total` pop/push cycles of the hold
/// model: each handled event reschedules one successor at
/// `now + churn_delay`, so the queue holds `hold` events throughout.
/// Both queue kinds run the byte-identical schedule.
fn queue_events_per_sec(reference: bool, hold: usize, total: u64) -> f64 {
    let mut queue: EventQueue<u32> =
        if reference { EventQueue::reference() } else { EventQueue::new() };
    let mut rng = SimRng::seed_from_u64(0xC0FFEE);
    let target = ComponentId(0);
    for i in 0..hold {
        queue.push(SimTime::from_ns((i % 97) as f64), target, 0);
    }
    let mut processed = 0u64;
    let start = Instant::now();
    // The engine's drain pattern: one full pop per instant, then O(1)
    // `pop_at` pops for the rest of the same-instant burst.
    while processed < total {
        let first = queue.pop().expect("hold model never drains");
        let time = first.time;
        let now = time.as_ns();
        processed += 1;
        queue.push(SimTime::from_ns(now + churn_delay(&mut rng)), target, 0);
        // Same-instant reschedules keep the drain alive; the budget
        // check bounds the chains the 58% same-instant share produces.
        while processed < total && queue.pop_at(time).is_some() {
            processed += 1;
            queue.push(SimTime::from_ns(now + churn_delay(&mut rng)), target, 0);
        }
    }
    processed as f64 / start.elapsed().as_secs_f64()
}

/// A component that forwards a countdown to a pseudo-random peer with
/// a churn delay — the engine-dispatch counterpart of the queue bench.
struct Relay {
    peers: Vec<ComponentId>,
}

impl Component<u32> for Relay {
    fn on_event(&mut self, event: Event<u32>, ctx: &mut EngineCtx<'_, u32>) {
        if event.payload == 0 {
            return;
        }
        let pick = ctx.rng().next_u64() % self.peers.len() as u64;
        let peer = self.peers[pick as usize];
        let delay = churn_delay(ctx.rng());
        ctx.schedule_in(delay, peer, event.payload - 1);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Full-engine dispatch events/sec: `chains` countdown chains over 64
/// relay components, so about `chains` events stay pending.
fn engine_events_per_sec(reference: bool, chains: usize, total: u64) -> f64 {
    const RELAYS: usize = 64;
    let seeds = chains as u64;
    let budget = (total / seeds).max(1) as u32;
    let mut engine: Engine<u32> = Engine::new(7);
    if reference {
        engine.use_reference_queue();
    }
    let peers: Vec<ComponentId> = (0..RELAYS).map(ComponentId).collect();
    for _ in 0..RELAYS {
        engine.add_component(Relay { peers: peers.clone() });
    }
    for s in 0..seeds {
        engine.schedule(SimTime::from_ns(s as f64), peers[(s % RELAYS as u64) as usize], budget);
    }
    let start = Instant::now();
    let processed = engine.run_until_idle();
    processed as f64 / start.elapsed().as_secs_f64()
}

/// Run-queue/reference measurement pairs per bench; odd, so a median
/// is one measured value.
const PAIRS: usize = 9;

/// Medians over [`PAIRS`] back-to-back run-queue/reference runs.
struct Paired {
    run: f64,
    reference: f64,
    /// The median per-pair ratio. Both runs of a pair see the same
    /// host state, so a slow spell moves their ratio far less than it
    /// moves a best-of over separate blocks of runs.
    speedup: f64,
}

/// Measures the pairs, alternating which queue runs first.
fn paired(mut events_per_sec: impl FnMut(bool) -> f64) -> Paired {
    let (mut run, mut reference, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let reference_first = pair % 2 == 1;
        let first = events_per_sec(reference_first);
        let second = events_per_sec(!reference_first);
        let (ours, theirs) = if reference_first { (second, first) } else { (first, second) };
        run.push(ours);
        reference.push(theirs);
        ratios.push(ours / theirs);
    }
    Paired { run: median(run), reference: median(reference), speedup: median(ratios) }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() -> ExitCode {
    let quick = has_flag("--quick");
    let json = arg_value("--json");
    let min_speedup: f64 = arg_value("--min-speedup")
        .map(|v| v.parse().unwrap_or_else(|e| panic!("bad --min-speedup {v:?}: {e}")))
        .unwrap_or(0.0);
    let (queue_events, engine_events) =
        if quick { (600_000u64, 300_000u64) } else { (2_000_000, 1_000_000) };
    let queue = paired(|reference| queue_events_per_sec(reference, SHALLOW_HOLD, queue_events));
    let deep = paired(|reference| queue_events_per_sec(reference, DEEP_HOLD, queue_events));
    let engine = paired(|reference| engine_events_per_sec(reference, SHALLOW_HOLD, engine_events));
    let deep_engine =
        paired(|reference| engine_events_per_sec(reference, DEEP_CHAINS, engine_events));

    let meps = |v: f64| format!("{:.2}", v / 1e6);
    let row = |metric: String, p: &Paired| {
        vec![metric, meps(p.run), meps(p.reference), format!("{:.2}x", p.speedup)]
    };
    print_table(
        "Engine hot-path (events/sec in millions)",
        &["metric", "run queue", "reference", "speedup"],
        &[
            row(format!("queue churn, depth {SHALLOW_HOLD}"), &queue),
            row(format!("queue churn, depth {DEEP_HOLD}"), &deep),
            row(format!("engine dispatch, {SHALLOW_HOLD} chains"), &engine),
            row(format!("engine dispatch, {DEEP_CHAINS} chains"), &deep_engine),
        ],
    );

    if let Some(path) = json {
        let record = |name: &str, makespan_ns: f64, throughput_ips: f64| BenchRecord {
            name: name.to_string(),
            makespan_ns,
            throughput_ips,
            host_parallelism: None,
        };
        let deep_name = |what: &str| format!("hotpath:abs:queue:depth{DEEP_HOLD}:{what}");
        let chains_name = |what: &str| format!("hotpath:abs:engine:chains{DEEP_CHAINS}:{what}");
        compass_bench::append_records(
            &path,
            vec![
                // Absolute wall-clock metrics and the deep ratios:
                // trajectory visibility only (the gate skips the
                // `hotpath:abs:` prefix).
                record("hotpath:abs:queue:run", 1e9 / queue.run, queue.run),
                record("hotpath:abs:queue:reference", 1e9 / queue.reference, queue.reference),
                record(&deep_name("run"), 1e9 / deep.run, deep.run),
                record(&deep_name("reference"), 1e9 / deep.reference, deep.reference),
                record(&deep_name("speedup"), 1.0 / deep.speedup, deep.speedup),
                record("hotpath:abs:engine:run", 1e9 / engine.run, engine.run),
                record("hotpath:abs:engine:reference", 1e9 / engine.reference, engine.reference),
                record(&chains_name("run"), 1e9 / deep_engine.run, deep_engine.run),
                record(
                    &chains_name("reference"),
                    1e9 / deep_engine.reference,
                    deep_engine.reference,
                ),
                record(&chains_name("speedup"), 1.0 / deep_engine.speedup, deep_engine.speedup),
                // Same-process ratios: machine-independent, gated on
                // throughput like the satellite makespans are on
                // cycles.
                record("hotpath:gate:queue-speedup", 1.0 / queue.speedup, queue.speedup),
                record("hotpath:gate:engine-speedup", 1.0 / engine.speedup, engine.speedup),
            ],
        );
        println!("\nrecorded hot-path trajectory into {path}");
    }

    if min_speedup > 0.0 && queue.speedup < min_speedup {
        eprintln!(
            "engine_hotpath: queue speedup {:.2}x below required {min_speedup:.2}x",
            queue.speedup
        );
        return ExitCode::FAILURE;
    }
    if min_speedup > 0.0 && deep.speedup < DEEP_FLOOR {
        eprintln!(
            "engine_hotpath: depth-{DEEP_HOLD} queue speedup {:.2}x below {DEEP_FLOOR:.2}x",
            deep.speedup
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
