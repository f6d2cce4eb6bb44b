//! Calendar-queue ↔ reference-heap equivalence.
//!
//! PR 5 replaced the engine's binary-heap event queue with a two-tier
//! calendar queue. The heap survives as the *reference
//! implementation* (`pim-engine`'s `reference-queue` feature); this
//! suite runs whole simulations on both queues and demands
//! **byte-identical serialized [`pim_sim::SimReport`]s** — the
//! strongest statement that the calendar queue preserves exact
//! `(time, seq)` dispatch order, across:
//!
//! * both timing modes (`analytic`, `closed-loop`) × both base
//!   topologies (`single`, `ring:2`),
//! * the interleaved schedule mode (multi-stage in flight, mid-run
//!   `add_component` core spawns with same-instant follow-up events),
//!   on one chip and on ring:4 / fc:4 hand-off chains,
//! * FR-FCFS DRAM reordering (same-instant service-order sensitivity),
//! * open-loop serving: traffic model × batching policy × topology ×
//!   seed, plus a drop/backpressure regime.

use compass::{CompileOptions, Compiler, GaParams, Strategy};
use pim_arch::{ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_isa::{ChipProgram, CoreId, Instruction};
use pim_sim::{
    BatchPolicy, ChipLoad, ChipSimulator, EngineMode, RequestTrace, ServingConfig, SimReport,
    SystemSimulator, TrafficModel, TrafficSpec,
};

fn compiled_programs(batch: usize) -> compass::CompiledModel {
    let chip = ChipSpec::chip_s();
    Compiler::new(chip)
        .compile(
            &pim_model::zoo::tiny_cnn(),
            &CompileOptions::new()
                .with_strategy(Strategy::Greedy)
                .with_batch_size(batch)
                .with_ga(GaParams::fast())
                .with_seed(11),
        )
        .expect("compiles")
}

/// Serialized report of a single-chip run on either queue.
fn chip_report(timing: TimingMode, schedule: ScheduleMode, reference: bool) -> String {
    let compiled = compiled_programs(2);
    let sim = ChipSimulator::new(ChipSpec::chip_s())
        .with_timing_mode(timing)
        .with_schedule_mode(schedule)
        .with_reference_queue(reference);
    let rounds = match schedule {
        ScheduleMode::Barrier => 1,
        ScheduleMode::Interleaved => 4,
    };
    let report = sim.run_batches(compiled.programs(), rounds, 2).expect("simulates");
    serde_json::to_string(&report).expect("serializes")
}

/// Serialized report of a pipelined system run on either queue: every
/// chip runs the compiled model and hands off to its successor, so the
/// links carry traffic every round.
fn system_report(
    topology: Topology,
    timing: TimingMode,
    schedule: ScheduleMode,
    reference: bool,
) -> String {
    let compiled = compiled_programs(2);
    let chips = topology.chips();
    let loads: Vec<ChipLoad<'_>> = (0..chips)
        .map(|c| {
            let load = ChipLoad::new(compiled.programs());
            if c + 1 < chips {
                load.with_handoff(c + 1, 4096)
            } else {
                load
            }
        })
        .collect();
    let report = SystemSimulator::new(ChipSpec::chip_s(), topology)
        .with_timing_mode(timing)
        .with_schedule_mode(schedule)
        .with_reference_queue(reference)
        .run(&loads, 3, 2)
        .expect("simulates");
    serde_json::to_string(&report).expect("serializes")
}

#[test]
fn single_chip_analytic_reports_are_byte_identical() {
    let a = chip_report(TimingMode::Analytic, ScheduleMode::Barrier, false);
    let b = chip_report(TimingMode::Analytic, ScheduleMode::Barrier, true);
    assert_eq!(a, b, "calendar vs reference queue (analytic, single)");
}

#[test]
fn single_chip_closed_loop_reports_are_byte_identical() {
    let a = chip_report(TimingMode::ClosedLoop, ScheduleMode::Barrier, false);
    let b = chip_report(TimingMode::ClosedLoop, ScheduleMode::Barrier, true);
    assert_eq!(a, b, "calendar vs reference queue (closed-loop, single)");
}

#[test]
fn ring2_analytic_reports_are_byte_identical() {
    let ring = Topology::ring(2);
    let a = system_report(ring.clone(), TimingMode::Analytic, ScheduleMode::Barrier, false);
    let b = system_report(ring, TimingMode::Analytic, ScheduleMode::Barrier, true);
    assert_eq!(a, b, "calendar vs reference queue (analytic, ring:2)");
}

#[test]
fn ring2_closed_loop_reports_are_byte_identical() {
    let ring = Topology::ring(2);
    let a = system_report(ring.clone(), TimingMode::ClosedLoop, ScheduleMode::Barrier, false);
    let b = system_report(ring, TimingMode::ClosedLoop, ScheduleMode::Barrier, true);
    assert_eq!(a, b, "calendar vs reference queue (closed-loop, ring:2)");
}

#[test]
fn interleaved_schedule_reports_are_byte_identical() {
    // Interleaving keeps several stages in flight: mid-run core spawns
    // (`EngineCtx::add_component`) plus same-instant cross-stage
    // events — the dispatch pattern most sensitive to queue order.
    for timing in [TimingMode::Analytic, TimingMode::ClosedLoop] {
        let a = chip_report(timing, ScheduleMode::Interleaved, false);
        let b = chip_report(timing, ScheduleMode::Interleaved, true);
        assert_eq!(a, b, "calendar vs reference queue (interleaved, {timing})");
    }
}

#[test]
fn multi_chip_interleaved_reports_are_byte_identical() {
    // Multi-hop routes (ring:4 relays through intermediate chips),
    // shared-link queueing and several stages in flight per chip.
    for topology in [Topology::ring(4), Topology::fully_connected(4)] {
        for timing in [TimingMode::Analytic, TimingMode::ClosedLoop] {
            let schedule = ScheduleMode::Interleaved;
            let a = system_report(topology.clone(), timing, schedule, false);
            let b = system_report(topology.clone(), timing, schedule, true);
            assert_eq!(a, b, "calendar vs reference queue ({topology}, {timing}, interleaved)");
        }
    }
}

#[test]
fn dram_reorder_reports_are_byte_identical() {
    // FR-FCFS reordering groups same-instant accesses: the service
    // order depends directly on the queue's same-instant FIFO
    // guarantee.
    let run = |reference: bool| {
        let compiled = compiled_programs(4);
        let report = ChipSimulator::new(ChipSpec::chip_s())
            .with_timing_mode(TimingMode::ClosedLoop)
            .with_dram_channels(2)
            .with_dram_reorder(true)
            .with_reference_queue(reference)
            .run(compiled.programs(), 4)
            .expect("simulates");
        serde_json::to_string(&report).expect("serializes")
    };
    assert_eq!(run(false), run(true), "calendar vs reference queue (FR-FCFS)");
}

#[test]
fn every_timing_topology_leg_is_byte_identical() {
    // Independent chips (no hand-offs) through the system driver, in
    // both timing modes on one chip and on a 2-chip ring.
    let compiled = compiled_programs(2);
    for timing in TimingMode::ALL {
        for topology in [Topology::single(), Topology::ring(2)] {
            let loads: Vec<ChipLoad<'_>> =
                (0..topology.chips()).map(|_| ChipLoad::new(compiled.programs())).collect();
            let run = |reference: bool| {
                let report = SystemSimulator::new(ChipSpec::chip_s(), topology.clone())
                    .with_timing_mode(timing)
                    .with_reference_queue(reference)
                    .run(&loads, 2, 2)
                    .expect("simulates");
                serde_json::to_string(&report).expect("serializes")
            };
            assert_eq!(run(false), run(true), "calendar vs reference queue ({timing}, {topology})");
        }
    }
}

fn mvm_program(cores: usize, waves: usize) -> ChipProgram {
    let mut program = ChipProgram::new(cores);
    for c in 0..4 {
        program.core_mut(CoreId(c)).push(Instruction::Mvmul { waves, activations: 64, node: 0 });
    }
    program
}

/// An open-loop serving run of a `chips`-long hand-off chain on
/// `topology`, every chip active, on either queue.
fn serving_run(
    topology: Topology,
    serving: &ServingConfig,
    waves: usize,
    reference: bool,
) -> SimReport {
    let chip = ChipSpec::chip_s();
    let stage = mvm_program(chip.cores, waves);
    let chips = topology.chips();
    let loads: Vec<ChipLoad<'_>> = (0..chips)
        .map(|c| {
            let load = ChipLoad::new(std::slice::from_ref(&stage));
            if c + 1 < chips {
                load.with_handoff(c + 1, 4096)
            } else {
                load
            }
        })
        .collect();
    SystemSimulator::new(chip, topology)
        .with_reference_queue(reference)
        .run_serving(&loads, serving)
        .expect("serves")
}

/// Poisson, MMPP, and replayed-trace sources for one seed.
fn sources(seed: u64) -> Vec<TrafficSpec> {
    let bursty = TrafficModel::Mmpp {
        calm_rate_per_s: 8e4,
        burst_rate_per_s: 9e5,
        mean_calm_s: 1e-3,
        mean_burst_s: 3e-4,
    };
    vec![
        TrafficSpec::Synthetic {
            model: TrafficModel::Poisson { rate_per_s: 2.5e5 },
            seed,
            requests: 30,
        },
        TrafficSpec::Synthetic { model: bursty, seed, requests: 30 },
        TrafficSpec::Trace(RequestTrace::synthesize(
            TrafficModel::Poisson { rate_per_s: 3e5 },
            seed ^ 0x5eed,
            24,
        )),
    ]
}

#[test]
fn serving_reports_are_byte_identical_across_the_matrix() {
    let policies = [
        BatchPolicy::Immediate,
        BatchPolicy::MaxSize(4),
        BatchPolicy::Deadline { max_size: 6, timeout_ns: 2e4 },
    ];
    for topology in [Topology::ring(2), Topology::fully_connected(4)] {
        for seed in [3u64, 17, 29] {
            for source in sources(seed) {
                let offered = source.arrivals().expect("valid traffic").len();
                for policy in policies {
                    let config = ServingConfig::new(source.clone()).with_policy(policy);
                    let calendar = serving_run(topology.clone(), &config, 40, false);
                    let reference = serving_run(topology.clone(), &config, 40, true);
                    let label = format!("{topology}, seed {seed}, {policy:?}");
                    // perfbench rejects reports from any other engine.
                    assert_eq!(calendar.engine, Some(EngineMode::SingleThread), "{label}");
                    let serving = calendar.serving.as_ref().expect("serving section present");
                    assert_eq!(serving.requests + serving.dropped, offered, "{label}");
                    assert!(serving.p50_ns <= serving.p99_ns, "{label}: p50 > p99");
                    assert!(serving.p99_ns <= serving.p999_ns, "{label}: p99 > p999");
                    assert_eq!(
                        serde_json::to_string(&calendar).expect("serializes"),
                        serde_json::to_string(&reference).expect("serializes"),
                        "calendar vs reference queue ({label})"
                    );
                }
            }
        }
    }
}

#[test]
fn serving_backpressure_and_drops_are_byte_identical() {
    // A tight burst against a long service time, a 3-slot queue and
    // one round in flight: admission control must shed the same
    // requests at the same instants on both queues.
    let arrivals_ns: Vec<f64> = (0..40).map(|i| 25.0 * i as f64).collect();
    let trace = TrafficSpec::Trace(RequestTrace { arrivals_ns });
    let config = ServingConfig::new(trace).with_queue_capacity(3).with_max_inflight(1);
    let calendar = serving_run(Topology::ring(2), &config, 1_500, false);
    let reference = serving_run(Topology::ring(2), &config, 1_500, true);
    let serving = calendar.serving.as_ref().expect("serving section present");
    assert!(serving.dropped > 0, "the overload must shed");
    assert_eq!(serving.requests + serving.dropped, 40, "served + dropped = offered");
    assert_eq!(
        serde_json::to_string(&calendar).expect("serializes"),
        serde_json::to_string(&reference).expect("serializes"),
        "drop accounting must agree byte for byte"
    );
}
