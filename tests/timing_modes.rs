//! Cross-mode sanity: the analytic and closed-loop memory timing
//! models must agree on everything the timing mode cannot touch, and
//! closed-loop latency must respect the compute-only floor.

use compass::{CompileOptions, Compiler, GaParams, Strategy};
use pim_arch::{ChipSpec, ScheduleMode, TimingMode};
use pim_isa::{ChipProgram, CoreId, Instruction as I};
use pim_model::zoo;
use pim_sim::{ChipSimulator, SimReport};

const WORKLOADS: [&str; 3] = ["vgg16", "resnet18", "squeezenet"];

fn workload(name: &str) -> pim_model::Network {
    match name {
        "vgg16" => zoo::vgg16(),
        "resnet18" => zoo::resnet18(),
        "squeezenet" => zoo::squeezenet(),
        other => unreachable!("unknown workload {other}"),
    }
}

fn compile(chip: &ChipSpec, name: &str, batch: usize) -> compass::CompiledModel {
    Compiler::new(chip.clone())
        .compile(
            &workload(name),
            &CompileOptions::new()
                .with_strategy(Strategy::Greedy)
                .with_batch_size(batch)
                .with_ga(GaParams::fast())
                .with_seed(7),
        )
        .unwrap_or_else(|e| panic!("{name} compiles: {e}"))
}

fn run(
    chip: &ChipSpec,
    compiled: &compass::CompiledModel,
    batch: usize,
    mode: TimingMode,
) -> SimReport {
    ChipSimulator::new(chip.clone())
        .with_timing_mode(mode)
        .run(compiled.programs(), batch)
        .unwrap_or_else(|e| panic!("simulates in {mode} mode: {e}"))
}

#[test]
fn closed_loop_respects_compute_floor_on_every_workload() {
    // The compute-only floor: the same programs on a chip whose memory
    // channel is free (zero latency, near-infinite bandwidth) in
    // analytic mode. Closed-loop DRAM can only add time on top.
    let batch = 2;
    for name in WORKLOADS {
        let chip = ChipSpec::chip_s();
        let compiled = compile(&chip, name, batch);
        let closed = run(&chip, &compiled, batch, TimingMode::ClosedLoop);

        let mut free_mem = chip.clone();
        free_mem.memory.access_latency_ns = 0.0;
        free_mem.memory.bandwidth_gbps = 1e12;
        let floor = ChipSimulator::new(free_mem)
            .with_dram_replay(false)
            .run(compiled.programs(), batch)
            .expect("floor simulates");

        assert!(
            closed.makespan_ns >= floor.makespan_ns - 1e-6,
            "{name}: closed-loop {} ns beat the compute floor {} ns",
            closed.makespan_ns,
            floor.makespan_ns
        );
    }
}

#[test]
fn identical_request_streams_charge_identical_dynamic_energy() {
    // Timing modes reshape *when* transfers happen, never *what* moves:
    // the instruction-derived dynamic energy and the DRAM request
    // stream must match field-for-field (only the makespan-dependent
    // static term may differ).
    let batch = 2;
    for name in WORKLOADS {
        let chip = ChipSpec::chip_s();
        let compiled = compile(&chip, name, batch);
        let analytic = run(&chip, &compiled, batch, TimingMode::Analytic);
        let closed = run(&chip, &compiled, batch, TimingMode::ClosedLoop);

        assert_eq!(analytic.dram_trace, closed.dram_trace, "{name}: request streams diverged");
        let (a, c) = (&analytic.energy, &closed.energy);
        assert_eq!(a.mvm_nj, c.mvm_nj, "{name}");
        assert_eq!(a.weight_write_nj, c.weight_write_nj, "{name}");
        assert_eq!(a.weight_load_nj, c.weight_load_nj, "{name}");
        assert_eq!(a.activation_dram_nj, c.activation_dram_nj, "{name}");
        assert_eq!(a.interconnect_nj, c.interconnect_nj, "{name}");
        assert_eq!(a.vfu_nj, c.vfu_nj, "{name}");
        // Per-partition dynamic energy matches too.
        for (pa, pc) in analytic.partitions.iter().zip(&closed.partitions) {
            assert_eq!(pa.energy, pc.energy, "{name} partition {}", pa.index);
            assert_eq!(pa.stats, pc.stats, "{name} partition {}", pa.index);
        }
    }
}

#[test]
fn closed_loop_completes_every_workload_with_channel_stats() {
    let batch = 2;
    for name in WORKLOADS {
        let chip = ChipSpec::chip_s();
        let compiled = compile(&chip, name, batch);
        let closed = run(&chip, &compiled, batch, TimingMode::ClosedLoop);
        assert!(closed.makespan_ns > 0.0, "{name} must run to completion");
        let channels = closed
            .dram_channels
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: closed loop must report per-channel stats"));
        assert!(!channels.is_empty());
        let moved: u64 = channels.iter().map(|c| c.total_bytes()).sum();
        assert_eq!(moved as usize, closed.dram_trace.total_bytes(), "{name}");
        assert!(channels.iter().any(|c| c.row_hits + c.activates > 0), "{name}");
        for c in channels {
            assert!(c.utilization() <= 1.0, "{name}");
        }
    }
}

/// FNV-1a over the report bytes: stable across toolchains, unlike
/// `std`'s `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Two partitions on disjoint core halves whose cores all hit the
/// memory channel at the same instants: interleaving overlaps the
/// partitions, and the closed-loop controllers see several
/// same-instant accesses that conflict on a bank. Transfer sizes mix the per-burst
/// path (at most 64 bursts), the bulk-stream path, and sizes that are
/// not a multiple of a burst or of an interleave stripe.
fn contended_programs(cores: usize) -> Vec<ChipProgram> {
    let half = cores / 2;
    (0..2)
        .map(|p| {
            let mut program = ChipProgram::new(cores);
            for c in p * half..(p + 1) * half {
                let stream = program.core_mut(CoreId(c));
                // Same-instant sub-row accesses to the weight and the
                // activation regions, which share bank 0 on different
                // rows.
                stream.push(if c % 2 == 0 {
                    I::LoadWeight { bytes: 1_024 + 32 * c }
                } else {
                    I::LoadData { bytes: 1_536 - 32 * c }
                });
                stream.push(I::LoadWeight { bytes: 40_000 + 3_001 * c });
                stream.push(I::WriteWeight { bits: 8_192, crossbars: 1 + c % 3 });
                stream.push(I::LoadData { bytes: 1_000 + 777 * c });
                stream.push(I::Mvmul { waves: 2 + c % 4, activations: 64, node: p });
                stream.push(I::StoreData { bytes: 2_048 - 100 * (c % 5) });
            }
            program
        })
        .collect()
}

/// FNV-1a hashes of the serialized closed-loop reports, in the
/// nesting order of [`closed_loop_report_bytes_are_pinned`]'s loops:
/// channels 1, 2, 3, then barrier, interleaved — one row per channel
/// count.
#[rustfmt::skip]
const CLOSED_LOOP_PINS: [u64; 12] = [
    // resnet18-S, greedy, batch 2. Its partitions fill the chip, so
    // the schedule moves no byte.
    16348956794870517939, 16348956794870517939,
    14585604280828328665, 14585604280828328665,
    3608103041561375026, 3608103041561375026,
    // contended.
    6612546605816888500, 2082021020911414970,
    10789978552782041961, 2332539430472548814,
    4077143192119509053, 15210601918866470614,
];

#[test]
fn closed_loop_report_bytes_are_pinned() {
    // The golden fixtures pin analytic reports only. These hashes pin
    // closed-loop report bytes over the DRAM channel count and both
    // stage schedules, on a compiled workload and on a hand-built contended one — so a
    // change to the DRAM model or the dispatch path that claims to
    // keep every byte is checked against the bytes the previous code
    // wrote.
    let chip = ChipSpec::chip_s();
    let compiled = compile(&chip, "resnet18", 2);
    let workloads: [(&str, Vec<ChipProgram>); 2] =
        [("resnet18", compiled.programs().to_vec()), ("contended", contended_programs(chip.cores))];
    let mut checked = 0;
    for (name, programs) in &workloads {
        for channels in [1, 2, 3] {
            for schedule in [ScheduleMode::Barrier, ScheduleMode::Interleaved] {
                let report = ChipSimulator::new(chip.clone())
                    .with_timing_mode(TimingMode::ClosedLoop)
                    .with_schedule_mode(schedule)
                    .with_dram_channels(channels)
                    .run_batches(programs, 3, 2)
                    .expect("closed loop simulates");
                let bytes = serde_json::to_string(&report).expect("report serializes");
                let want = CLOSED_LOOP_PINS[checked];
                checked += 1;
                assert_eq!(
                    fnv1a(bytes.as_bytes()),
                    want,
                    "{name}, {channels} channels, {schedule:?}: closed-loop report bytes moved"
                );
            }
        }
    }
    assert_eq!(checked, CLOSED_LOOP_PINS.len());
}

/// Two partitions that drive the analytic channel's DRAM energy model
/// and the rendezvous at their edges. In the first, core 0 streams a
/// weight block of nine 1 MiB chunks (the last one ragged) and a
/// multi-chunk activation load before it sends on tag 7; cores 1 and 2 block on that tag before the send, and cores 3
/// and 4 compute long enough to reach their `Recv` after it. The
/// second runs on the remaining cores, so under interleaving it
/// overlaps the next round's first partition on the channel and in
/// the rendezvous (with the same program tag).
fn rendezvous_programs(cores: usize) -> Vec<ChipProgram> {
    let tag = pim_isa::Tag(7);
    let mut program = ChipProgram::new(cores);
    let sender = program.core_mut(CoreId(0));
    sender.push(I::LoadWeight { bytes: (8 << 20) + 12_345 });
    sender.push(I::LoadData { bytes: 200_000 });
    sender.push(I::Mvmul { waves: 3, activations: 64, node: 0 });
    sender.push(I::Send { to: CoreId(1), bytes: 4_096, tag });
    sender.push(I::StoreData { bytes: 70_000 });
    for c in 1..5 {
        let stream = program.core_mut(CoreId(c));
        if c >= 3 {
            stream.push(I::Mvmul { waves: 40_000, activations: 64, node: 0 });
        }
        stream.push(I::Recv { from: CoreId(0), bytes: 4_096, tag });
        stream.push(I::LoadData { bytes: 1_000 * c });
        stream.push(I::StoreData { bytes: 65_537 });
    }
    let mut tail = ChipProgram::new(cores);
    let sender = tail.core_mut(CoreId(5));
    sender.push(I::LoadWeight { bytes: 3 << 20 });
    sender.push(I::Send { to: CoreId(6), bytes: 2_048, tag });
    for c in 6..8 {
        let stream = tail.core_mut(CoreId(c));
        stream.push(I::LoadData { bytes: 150_000 + c });
        stream.push(I::Recv { from: CoreId(5), bytes: 2_048, tag });
        stream.push(I::Mvmul { waves: 5, activations: 64, node: 1 });
        stream.push(I::StoreData { bytes: 9_000 });
    }
    vec![program, tail]
}

/// FNV-1a hashes of analytic-timing reports with the in-line DRAM
/// energy model on, in the loop order of
/// [`analytic_dram_report_bytes_are_pinned`]: per workload, barrier
/// then interleaved, each as (fixed-round run, serving run).
#[rustfmt::skip]
const ANALYTIC_DRAM_PINS: [u64; 8] = [
    // resnet18-S, greedy, batch 4, layer pipeline on ring:2.
    10104050808463739562, 13065243053771953287, 10754861213691208665, 15302601813084204254,
    // rendezvous_programs on both chips of ring:2.
    17397362019018457829, 14028355755931673136, 8070446810191988774, 7597395358183710658,
];

/// The same runs as [`ANALYTIC_DRAM_PINS`], in the same order, under
/// closed-loop timing: the multi-channel controllers of both chips own
/// every access's completion time.
#[rustfmt::skip]
const CLOSED_LOOP_SYSTEM_PINS: [u64; 8] = [
    // resnet18-S, greedy, batch 4, layer pipeline on ring:2.
    4732249181899199561, 15903685162249054423, 5352462749198599962, 103665106810686264,
    // rendezvous_programs on both chips of ring:2.
    2305816572636616341, 6819936557181826840, 4861262140135948547, 14563754470066202911,
];

#[test]
fn analytic_dram_report_bytes_are_pinned() {
    // No golden exercises the analytic channel's DRAM energy model on a
    // multi-chip or serving run, and `CLOSED_LOOP_PINS` covers one chip
    // only. These hashes pin those report bytes in both timing modes
    // under both stage schedules, so a change to how the channel feeds
    // the DRAM models or to the rendezvous that claims to keep every
    // byte is checked against the bytes the previous code wrote.
    use compass::{plan_system, SystemStrategy, SystemTarget};
    use pim_arch::Topology;
    use pim_sim::{ChipLoad, ServingConfig, SystemSimulator, TrafficModel, TrafficSpec};

    let chip = ChipSpec::chip_s();
    let topology = Topology::ring(2);
    let compiled = compile(&chip, "resnet18", 4);
    let target = SystemTarget::new(topology.clone(), SystemStrategy::LayerPipeline);
    let schedule =
        plan_system(&workload("resnet18"), &compiled, &chip, &target, 4, 4).expect("plans");
    let hand = rendezvous_programs(chip.cores);
    let workloads: [(&str, Vec<ChipLoad<'_>>, usize); 2] = [
        ("resnet18", compass_bench::system_loads(&schedule), schedule.samples_per_round),
        ("rendezvous", vec![ChipLoad::new(&hand).with_handoff(1, 8_192), ChipLoad::new(&hand)], 1),
    ];
    let serving = ServingConfig::new(TrafficSpec::Synthetic {
        model: TrafficModel::Poisson { rate_per_s: 2e3 },
        seed: 3,
        requests: 12,
    });
    let hash = |r: &SimReport| fnv1a(serde_json::to_string(r).expect("serializes").as_bytes());
    for (mode, pins) in [
        (TimingMode::Analytic, ANALYTIC_DRAM_PINS),
        (TimingMode::ClosedLoop, CLOSED_LOOP_SYSTEM_PINS),
    ] {
        let mut hashes = Vec::new();
        for (name, loads, samples) in &workloads {
            for schedule in [ScheduleMode::Barrier, ScheduleMode::Interleaved] {
                let sim = SystemSimulator::new(chip.clone(), topology.clone())
                    .with_timing_mode(mode)
                    .with_schedule_mode(schedule);
                let rounds = sim.run(loads, 3, *samples).expect("runs");
                let served = sim.run_serving(loads, &serving).expect("serves");
                for report in [&rounds, &served] {
                    let energy = report.dram_energy.expect("the DRAM energy model is on");
                    assert!(energy.total_nj() > 0.0, "{mode}, {name}, {schedule:?}");
                }
                if *name == "rendezvous" {
                    // Both sides of the rendezvous are exercised:
                    // receivers that blocked before the send and ones
                    // that arrived after it.
                    let waits: Vec<f64> = rounds.partitions[0].core_activity[1..5]
                        .iter()
                        .map(|a| a.recv_wait_ns)
                        .collect();
                    let what = format!("{mode}, {schedule:?}: {waits:?}");
                    assert!(waits[..2].iter().all(|&w| w > 0.0), "{what}");
                    assert!(waits[2..].iter().all(|&w| w == 0.0), "{what}");
                }
                hashes.push((
                    format!("{mode}, {name}, {schedule:?}"),
                    hash(&rounds),
                    hash(&served),
                ));
            }
        }
        for ((what, rounds, served), want) in hashes.iter().zip(pins.chunks(2)) {
            assert_eq!(*rounds, want[0], "{what}: fixed-round report bytes moved");
            assert_eq!(*served, want[1], "{what}: serving report bytes moved");
        }
    }
}
