//! **Hot-path microbenchmarks**: raw simulator events/sec and full
//! GA-generation latency, feeding the CI perf trajectory.
//!
//! Three measurements, all deterministic workloads (only the wall
//! clock varies):
//!
//! * **queue churn** — a classic hold-model schedule (pop an instant,
//!   reschedule into the near/far future with same-instant bursts
//!   mixed in) driven straight against [`pim_engine::EventQueue`], on
//!   both the calendar queue and the retired binary-heap reference.
//!   Their in-process ratio is the *queue speedup* — the machine-
//!   independent number the CI gate pins (`--min-speedup`, and the
//!   `hotpath:gate:queue-speedup` trajectory record).
//! * **engine dispatch** — the same churn through full
//!   [`pim_engine::Engine`] component dispatch (batched same-instant
//!   delivery, no per-event component take/put), on both queues.
//! * **GA generation** — one population-100 COMPASS generation
//!   (selection, 80 structural mutations, batch evaluation through
//!   the segment memo) on ResNet18 / Chip-S, reported as
//!   ns-per-generation and evaluations/sec.
//!
//! Records land in the perf trajectory under two prefixes:
//! `hotpath:abs:*` are absolute wall-clock numbers (trajectory
//! visibility only — machine-dependent, never gated);
//! `hotpath:gate:*` are same-process ratios, gated like every other
//! record (throughput drop > tolerance fails CI).
//!
//! ```text
//! engine_hotpath [--quick] [--json BENCH_ci.json] [--min-speedup 3.0]
//! ```

use compass::fitness::{mean_unit_fitness, partition_scores, FitnessContext, FitnessKind};
use compass::mutation::{self, MutationKind};
use compass::{decompose, PartitionGroup, ValidityMap};
use compass_bench::{arg_value, has_flag, print_table, BenchRecord};
use pim_arch::ChipSpec;
use pim_engine::{Component, ComponentId, Engine, EngineCtx, Event, EventQueue, SimRng, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::Instant;

/// In-flight events held by the churn benchmarks (a realistic
/// simulator working set: cores + channels + rendezvous wakeups).
const HOLD: usize = 8192;

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
/// `now + churn_delay`, so the queue holds [`HOLD`] events throughout.
/// Both queue kinds run the byte-identical schedule.
fn queue_events_per_sec(reference: bool, total: u64) -> f64 {
    let mut queue: EventQueue<u32> =
        if reference { EventQueue::reference() } else { EventQueue::with_capacity(HOLD) };
    let mut rng = SimRng::seed_from_u64(0xC0FFEE);
    let target = ComponentId(0);
    for i in 0..HOLD {
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

/// Full-engine dispatch events/sec: `seeds` countdown chains over 64
/// relay components.
fn engine_events_per_sec(reference: bool, total: u64) -> f64 {
    const RELAYS: usize = 64;
    let seeds = 256u64;
    let budget = (total / seeds).max(1) as u32;
    let mut engine: Engine<u32> = Engine::new(7);
    if reference {
        engine.use_reference_queue();
    }
    engine.reserve_events(HOLD);
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

/// One COMPASS GA generation (population 100, 20 survivors, 80
/// mutated offspring) on ResNet18 / Chip-S at batch 8, measured over
/// `generations` after a warm-started population. Returns
/// `(ns per generation, evaluations per second)`.
fn ga_generation_latency(generations: usize) -> (f64, f64) {
    let chip = ChipSpec::chip_s();
    let net = compass_bench::network("resnet18");
    let seq = decompose(&net, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    let ctx = FitnessContext::new(&net, &seq, &validity, &chip, 8, FitnessKind::Latency);
    let mut rng = StdRng::seed_from_u64(2025);
    let (population, n_sel, n_mut) = (100usize, 20usize, 80usize);

    let initial: Vec<PartitionGroup> =
        (0..population).map(|_| PartitionGroup::random(&mut rng, &validity)).collect();
    let mut evals = 0usize;
    let start = Instant::now();
    let mut pool = ctx.evaluate_batch(&initial);
    evals += initial.len();
    for _ in 0..generations {
        pool.sort_by(|a, b| a.pgf.partial_cmp(&b.pgf).unwrap());
        pool.truncate(n_sel);
        let mean_m = mean_unit_fitness(&pool, seq.len());
        let mut children = Vec::with_capacity(n_mut);
        while children.len() < n_mut {
            let parent = pool.choose(&mut rng).expect("non-empty");
            let scores = partition_scores(parent, &mean_m);
            let kind = *MutationKind::ALL.choose(&mut rng).expect("non-empty");
            let child = mutation::apply(kind, &parent.group, &scores, &mut rng, &validity)
                .unwrap_or_else(|| PartitionGroup::random(&mut rng, &validity));
            children.push(child);
        }
        evals += children.len();
        pool.extend(ctx.evaluate_batch(&children));
    }
    let elapsed = start.elapsed().as_secs_f64();
    // The initial-population evaluation amortizes over the measured
    // generations, matching how a real run pays it once.
    (elapsed * 1e9 / generations as f64, evals as f64 / elapsed)
}

/// Best of `runs` measurements (wall-clock benches jitter downward
/// only: the fastest run is the least-disturbed one).
fn best_of<F: FnMut() -> f64>(runs: usize, mut f: F) -> f64 {
    (0..runs).map(|_| f()).fold(f64::MIN, f64::max)
}

fn main() -> ExitCode {
    let quick = has_flag("--quick");
    let json = arg_value("--json");
    let min_speedup: f64 = arg_value("--min-speedup")
        .map(|v| v.parse().unwrap_or_else(|e| panic!("bad --min-speedup {v:?}: {e}")))
        .unwrap_or(0.0);
    let (queue_events, engine_events, generations, runs) =
        if quick { (600_000u64, 300_000u64, 2usize, 3usize) } else { (2_000_000, 1_000_000, 5, 3) };

    let queue_cal = best_of(runs, || queue_events_per_sec(false, queue_events));
    let queue_ref = best_of(runs, || queue_events_per_sec(true, queue_events));
    let engine_cal = best_of(runs, || engine_events_per_sec(false, engine_events));
    let engine_ref = best_of(runs, || engine_events_per_sec(true, engine_events));
    let (ga_ns, ga_evals_per_sec) = ga_generation_latency(generations);

    let queue_speedup = queue_cal / queue_ref;
    let engine_speedup = engine_cal / engine_ref;

    let meps = |v: f64| format!("{:.2}", v / 1e6);
    print_table(
        "Engine hot-path (events/sec in millions)",
        &["metric", "calendar", "reference", "speedup"],
        &[
            vec![
                "queue churn".into(),
                meps(queue_cal),
                meps(queue_ref),
                format!("{queue_speedup:.2}x"),
            ],
            vec![
                "engine dispatch".into(),
                meps(engine_cal),
                meps(engine_ref),
                format!("{engine_speedup:.2}x"),
            ],
        ],
    );
    println!(
        "\nGA generation (ResNet18-S-8, pop 100): {:.1} ms/generation, {:.0} evaluations/s",
        ga_ns / 1e6,
        ga_evals_per_sec
    );

    if let Some(path) = json {
        let record = |name: &str, makespan_ns: f64, throughput_ips: f64| BenchRecord {
            name: name.to_string(),
            makespan_ns,
            throughput_ips,
            host_parallelism: None,
        };
        compass_bench::append_records(
            &path,
            vec![
                // Absolute wall-clock metrics: trajectory visibility
                // only (machine-dependent; the gate skips the
                // `hotpath:abs:` prefix).
                record("hotpath:abs:queue:calendar", 1e9 / queue_cal, queue_cal),
                record("hotpath:abs:queue:reference", 1e9 / queue_ref, queue_ref),
                record("hotpath:abs:engine:calendar", 1e9 / engine_cal, engine_cal),
                record("hotpath:abs:engine:reference", 1e9 / engine_ref, engine_ref),
                record("hotpath:abs:ga:generation", ga_ns, ga_evals_per_sec),
                // Same-process ratios: machine-independent, gated on
                // throughput like the satellite makespans are on
                // cycles.
                record("hotpath:gate:queue-speedup", 1.0 / queue_speedup, queue_speedup),
                record("hotpath:gate:engine-speedup", 1.0 / engine_speedup, engine_speedup),
            ],
        );
        println!("\nrecorded hot-path trajectory into {path}");
    }

    if min_speedup > 0.0 && queue_speedup < min_speedup {
        eprintln!(
            "engine_hotpath: queue speedup {queue_speedup:.2}x below required {min_speedup:.2}x"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
