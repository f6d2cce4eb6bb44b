//! Stage-scheduler invariants.
//!
//! Pins the dependency-driven dispatcher's contract: barrier mode
//! stays byte-identical to the lock-step executor (the golden
//! fixtures pin that separately), `ScheduleMode::Interleaved` strictly
//! reduces the simulated makespan on a multi-partition multi-batch
//! workload with disjoint crossbar groups, degenerate shapes
//! (single-partition chips, zero-round runs, claim conflicts) behave,
//! interleaved schedules are deterministic per seed, and a fan-out
//! system (one producer feeding two consumers) simulates
//! deterministically with the analytic system estimate within a
//! bounded factor of the simulated cycles.

use compass::scheduler::{schedule_group, SchedulerOptions};
use compass::{
    estimate_system_makespan, plan_system, CompileOptions, CompiledModel, Compiler, GaParams,
    Strategy, SystemChipPlan, SystemSchedule, SystemStrategy, SystemTarget,
};
use compass_bench::system_loads;
use pim_arch::{ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_isa::{ChipProgram, CoreId, Instruction as I};
use pim_model::zoo;
use pim_sim::{ChipSimulator, SimReport};

fn compile(net: &pim_model::Network, chip: &ChipSpec, batch: usize, seed: u64) -> CompiledModel {
    Compiler::new(chip.clone())
        .compile(
            net,
            &CompileOptions::new()
                .with_strategy(Strategy::Greedy)
                .with_batch_size(batch)
                .with_ga(GaParams::fast())
                .with_seed(seed),
        )
        .expect("compiles")
}

/// `waves` MVM waves on cores `[from, to)` of a `total`-core chip.
fn mvm_on_cores(from: usize, to: usize, total: usize, waves: usize) -> ChipProgram {
    let mut program = ChipProgram::new(total);
    for c in from..to {
        program.core_mut(CoreId(c)).push(I::Mvmul { waves, activations: 64, node: 0 });
    }
    program
}

#[test]
fn interleaving_strictly_reduces_makespan_on_disjoint_stages() {
    // The acceptance workload: >= 2 partitions, >= 4 batches. The two
    // partitions own disjoint crossbar groups, so batch b+1's
    // partition 0 overlaps batch b's partition 1 and the steady state
    // is paced by one stage instead of two.
    let chip = ChipSpec::chip_s();
    let programs = [mvm_on_cores(0, 8, chip.cores, 400), mvm_on_cores(8, 16, chip.cores, 400)];
    let rounds = 4;
    let run = |schedule: ScheduleMode| {
        ChipSimulator::new(chip.clone())
            .with_schedule_mode(schedule)
            .run_batches(&programs, rounds, 1)
            .expect("simulates")
    };
    let barrier = run(ScheduleMode::Barrier);
    let interleaved = run(ScheduleMode::Interleaved);
    assert!(
        interleaved.makespan_ns < barrier.makespan_ns,
        "interleaving ({} ns) must strictly beat the barrier schedule ({} ns)",
        interleaved.makespan_ns,
        barrier.makespan_ns
    );
    // With fully disjoint equal stages the pipeline is tight: 8 stage
    // slots serialize under barriers, 5 under interleaving.
    let stage_ns = 400.0 * chip.crossbar.mvm_latency_ns;
    assert!((barrier.makespan_ns - 8.0 * stage_ns).abs() < 1e-6);
    assert!((interleaved.makespan_ns - 5.0 * stage_ns).abs() < 1e-6);
    // The same work was simulated either way.
    assert_eq!(interleaved.partitions.len(), barrier.partitions.len());
    assert_eq!(interleaved.dram_trace, barrier.dram_trace);
}

#[test]
fn interleaving_never_slows_a_compiled_workload() {
    // Partitions compiled for barrier mode share cores (every packing
    // fills from core 0), so claims mostly serialize them — but
    // interleaving must never be slower than the barrier schedule.
    let chip = ChipSpec::chip_s();
    let net = zoo::squeezenet();
    let batch = 2;
    let compiled = compile(&net, &chip, batch, 7);
    let rounds = 4;
    let run = |schedule: ScheduleMode| {
        ChipSimulator::new(chip.clone())
            .with_schedule_mode(schedule)
            .run_batches(compiled.programs(), rounds, batch)
            .expect("simulates")
    };
    let barrier = run(ScheduleMode::Barrier);
    let interleaved = run(ScheduleMode::Interleaved);
    assert!(interleaved.makespan_ns <= barrier.makespan_ns + 1e-9);
    assert_eq!(interleaved.partitions.len(), compiled.programs().len() * rounds);
}

#[test]
fn single_partition_interleaving_is_a_noop() {
    // One partition per batch: the cross-batch resource-reuse edge
    // serializes everything, so the report must be byte-identical to
    // barrier mode.
    let chip = ChipSpec::chip_s();
    let net = zoo::tiny_cnn();
    let compiled = compile(&net, &chip, 2, 9);
    let single = &compiled.programs()[..1];
    let run = |schedule: ScheduleMode| {
        let report = ChipSimulator::new(chip.clone())
            .with_schedule_mode(schedule)
            .run_batches(single, 3, 2)
            .expect("simulates");
        serde_json::to_string(&report).expect("serializes")
    };
    assert_eq!(
        run(ScheduleMode::Barrier),
        run(ScheduleMode::Interleaved),
        "single-partition chips must not notice the scheduler"
    );
}

#[test]
fn zero_round_runs_clamp_to_one_round_in_both_modes() {
    let chip = ChipSpec::chip_s();
    let programs = [mvm_on_cores(0, 4, chip.cores, 10), mvm_on_cores(4, 8, chip.cores, 10)];
    for schedule in ScheduleMode::ALL {
        let zero = ChipSimulator::new(chip.clone())
            .with_schedule_mode(schedule)
            .run_batches(&programs, 0, 1)
            .expect("zero-round runs complete");
        let one = ChipSimulator::new(chip.clone())
            .with_schedule_mode(schedule)
            .run_batches(&programs, 1, 1)
            .expect("simulates");
        assert_eq!(zero, one, "{schedule}: zero rounds clamps to one");
        assert_eq!(zero.partitions.len(), 2);
    }
}

#[test]
fn claim_conflicts_serialize_to_the_barrier_makespan() {
    // Every partition touches core 0: the exclusive crossbar-group
    // claim forces round-major order, so interleaving changes nothing.
    let chip = ChipSpec::chip_s();
    let programs = [mvm_on_cores(0, 6, chip.cores, 123), mvm_on_cores(0, 12, chip.cores, 77)];
    let run = |schedule: ScheduleMode| {
        ChipSimulator::new(chip.clone())
            .with_schedule_mode(schedule)
            .run_batches(&programs, 5, 1)
            .expect("simulates")
    };
    let barrier = run(ScheduleMode::Barrier);
    let interleaved = run(ScheduleMode::Interleaved);
    assert!(
        (interleaved.makespan_ns - barrier.makespan_ns).abs() < 1e-9,
        "conflicting claims must serialize: {} vs {}",
        interleaved.makespan_ns,
        barrier.makespan_ns
    );
}

#[test]
fn interleave_aware_packing_overlaps_compiled_stages() {
    // Scheduling with `SchedulerOptions::schedule = Interleaved`
    // shifts alternating partitions onto disjoint crossbar groups
    // when the widest one fits half the chip, so a *compiled*
    // workload — not just the hand-built disjoint programs above —
    // genuinely overlaps under the interleaved executor.
    use compass::plan::GroupPlan;
    use compass::replication::optimize_group;
    use compass::{decompose, PartitionGroup, ValidityMap};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let chip = ChipSpec::chip_l();
    let net = zoo::tiny_cnn();
    let seq = decompose(&net, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    let batch = 4;
    let schedule = |plans: &GroupPlan, mode: ScheduleMode| {
        schedule_group(
            &net,
            plans.plans(),
            &chip,
            &SchedulerOptions { batch, chunks_per_sample: 2, schedule: mode },
        )
    };
    let touched = |program: &ChipProgram| -> Vec<usize> {
        (0..program.cores()).filter(|&c| program.core(CoreId(c)).iter().next().is_some()).collect()
    };
    // Find a multi-partition group the scheduler can actually spread:
    // adjacent interleaved programs touch disjoint core sets.
    let (plans, programs) = (0..64u64)
        .find_map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let group = PartitionGroup::random(&mut rng, &validity);
            let mut plans = GroupPlan::build(&net, &seq, &group);
            optimize_group(&mut plans, &chip);
            let programs = schedule(&plans, ScheduleMode::Interleaved);
            let disjoint = programs.len() > 1
                && programs.windows(2).all(|pair| {
                    let a = touched(&pair[0]);
                    touched(&pair[1]).iter().all(|c| !a.contains(c))
                });
            disjoint.then_some((plans, programs))
        })
        .expect("some seed yields a half-chip multi-partition group");
    let rounds = 4;
    let run = |programs: &[ChipProgram], mode: ScheduleMode| {
        ChipSimulator::new(chip.clone())
            .with_schedule_mode(mode)
            .run_batches(programs, rounds, batch)
            .expect("simulates")
    };
    let barrier = run(&schedule(&plans, ScheduleMode::Barrier), ScheduleMode::Barrier);
    let interleaved = run(&programs, ScheduleMode::Interleaved);
    assert!(
        interleaved.makespan_ns < barrier.makespan_ns,
        "disjoint compiled stages must overlap: {} vs {} ns",
        interleaved.makespan_ns,
        barrier.makespan_ns
    );
    assert_eq!(interleaved.partitions.len(), barrier.partitions.len());
}

#[test]
fn interleaved_schedules_are_deterministic_per_seed() {
    let chip = ChipSpec::chip_s();
    let net = zoo::squeezenet();
    let batch = 4;
    for seed in [3u64, 42] {
        let compiled = compile(&net, &chip, batch, seed);
        let run = || {
            let report = ChipSimulator::new(chip.clone())
                .with_schedule_mode(ScheduleMode::Interleaved)
                .run_batches(compiled.programs(), 4, batch)
                .expect("simulates");
            serde_json::to_string(&report).expect("serializes")
        };
        assert_eq!(run(), run(), "seed {seed}: interleaved reports must be byte-identical");
    }
}

/// Builds a 1-producer / 2-consumer fan-out schedule by hand: the
/// front half of the compiled partitions on chip 0 at the full batch,
/// the back half replicated on chips 1 and 2 at half the batch each.
fn fan_out_schedule(
    net: &pim_model::Network,
    chip: &ChipSpec,
    compiled: &CompiledModel,
    batch: usize,
) -> SystemSchedule {
    let plans = compiled.partitions();
    assert!(plans.len() >= 2, "needs at least two partitions to fan out");
    let m = plans.len() / 2;
    let entry = plans[m].entry_bytes_per_sample();
    let shard = batch / 2;
    let schedule_at = |range: std::ops::Range<usize>, shard: usize| {
        schedule_group(
            net,
            &plans[range],
            chip,
            &SchedulerOptions { batch: shard, chunks_per_sample: 4, ..Default::default() },
        )
    };
    SystemSchedule {
        topology: Topology::fully_connected(3),
        strategy: SystemStrategy::FanOut,
        chips: vec![
            SystemChipPlan {
                chip: 0,
                programs: schedule_at(0..m, batch),
                partition_range: (0, m),
                samples: batch,
                handoffs: vec![(1, entry * shard), (2, entry * (batch - shard))],
            },
            SystemChipPlan {
                chip: 1,
                programs: schedule_at(m..plans.len(), shard),
                partition_range: (m, plans.len()),
                samples: shard,
                handoffs: Vec::new(),
            },
            SystemChipPlan {
                chip: 2,
                programs: schedule_at(m..plans.len(), batch - shard),
                partition_range: (m, plans.len()),
                samples: batch - shard,
                handoffs: Vec::new(),
            },
        ],
        samples_per_round: batch,
    }
}

#[test]
fn fan_out_simulates_deterministically_and_matches_the_estimate() {
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let batch = 4;
    let rounds = 4;
    let compiled = compile(&net, &chip, batch, 5);
    let schedule = fan_out_schedule(&net, &chip, &compiled, batch);
    assert_eq!(schedule.max_fan_out(), 2, "one producer feeds two consumers");
    for schedule_mode in ScheduleMode::ALL {
        let run = || -> SimReport {
            let loads = system_loads(&schedule);
            pim_sim::SystemSimulator::new(chip.clone(), schedule.topology.clone())
                .with_schedule_mode(schedule_mode)
                .run(&loads, rounds, schedule.samples_per_round)
                .expect("simulates")
        };
        let report = run();
        // Deterministic per seed: bit-identical on a re-run.
        let again = serde_json::to_string(&run()).expect("serializes");
        assert_eq!(serde_json::to_string(&report).unwrap(), again, "{schedule_mode}");
        // Every chip completed every round; both consumers were fed.
        let chips = report.chips.as_ref().expect("multi-chip summary");
        assert!(chips.iter().all(|c| c.rounds == rounds));
        assert!(chips[1].handoff_wait_ns > 0.0);
        assert!(chips[2].handoff_wait_ns > 0.0);
        // The analytic system estimate lands within a bounded factor
        // of the simulated cycles (it is a model, not the simulator).
        let predicted =
            estimate_system_makespan(&schedule, compiled.estimate(), rounds, schedule_mode);
        let ratio = report.makespan_ns / predicted;
        assert!(
            (0.2..5.0).contains(&ratio),
            "{schedule_mode}: simulated {} vs predicted {predicted} (ratio {ratio})",
            report.makespan_ns
        );
    }
}

#[test]
fn planned_fan_out_round_trips_through_the_simulator() {
    // plan_system's own fan-out allocation must produce a runnable,
    // deterministic system too (whatever replica shape it chooses).
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let batch = 4;
    let compiled = compile(&net, &chip, batch, 3);
    let target = SystemTarget::new(Topology::fully_connected(3), SystemStrategy::FanOut);
    let schedule = plan_system(&net, &compiled, &chip, &target, batch, 4).expect("plans");
    let samples: usize = schedule.chips.iter().map(|c| c.samples).sum();
    assert!(samples >= batch, "every sample lands on some chip");
    let run = |timing: TimingMode| {
        let loads = system_loads(&schedule);
        let report = pim_sim::SystemSimulator::new(chip.clone(), schedule.topology.clone())
            .with_timing_mode(timing)
            .run(&loads, 2, schedule.samples_per_round)
            .expect("simulates");
        serde_json::to_string(&report).expect("serializes")
    };
    for timing in TimingMode::ALL {
        assert_eq!(run(timing), run(timing), "planned fan-out must simulate deterministically");
    }
}
