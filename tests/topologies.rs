//! Multi-chip topology invariants.
//!
//! Pins the system-simulator contract: the single-chip system path is
//! byte-identical to the `ChipSimulator` golden fixtures, multi-chip
//! runs are deterministic per seed, link traffic conserves bytes, and
//! a 2-chip layer pipeline actually beats one chip on a batched
//! workload. Every multi-chip check runs in both timing modes.

use compass::{
    plan_system, CompileOptions, CompiledModel, Compiler, GaParams, Strategy, SystemSchedule,
    SystemStrategy, SystemTarget,
};
use compass_bench::system_loads;
use pim_arch::{ChipSpec, TimingMode, Topology};
use pim_model::zoo;
use pim_sim::{ChipLoad, SimReport, SystemSimulator};
use std::path::PathBuf;

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

/// Plans `compiled` onto `topology` and simulates `rounds` rounds.
#[allow(clippy::too_many_arguments)]
fn simulate_system(
    net: &pim_model::Network,
    compiled: &CompiledModel,
    chip: &ChipSpec,
    topology: Topology,
    strategy: SystemStrategy,
    batch: usize,
    rounds: usize,
    timing: TimingMode,
) -> (SystemSchedule, SimReport) {
    let target = SystemTarget::new(topology.clone(), strategy);
    let schedule = plan_system(net, compiled, chip, &target, batch, 4).expect("plans");
    let loads = system_loads(&schedule);
    let report = SystemSimulator::new(chip.clone(), topology)
        .with_timing_mode(timing)
        .run(&loads, rounds, schedule.samples_per_round)
        .expect("simulates");
    (schedule, report)
}

#[test]
fn single_chip_system_report_is_byte_identical_to_golden() {
    // The exact configuration pinned by
    // tests/golden/tiny_cnn_compass_b4_s11.json — run through the
    // SystemSimulator with a single-chip topology instead of the
    // ChipSimulator wrapper.
    let chip = ChipSpec::chip_s();
    let compiled = Compiler::new(chip.clone())
        .compile(
            &zoo::tiny_cnn(),
            &CompileOptions::new()
                .with_strategy(Strategy::Compass)
                .with_batch_size(4)
                .with_ga(GaParams::fast())
                .with_seed(11),
        )
        .expect("compiles");
    let report = SystemSimulator::new(chip, Topology::single())
        .run(&[ChipLoad::new(compiled.programs())], 1, 4)
        .expect("simulates");
    let serialized = serde_json::to_string(&report).expect("serializes");
    let path: PathBuf =
        [env!("CARGO_MANIFEST_DIR"), "tests", "golden", "tiny_cnn_compass_b4_s11.json"]
            .iter()
            .collect();
    let golden = std::fs::read_to_string(&path).expect("golden fixture exists");
    assert_eq!(golden, serialized, "single-chip system reports must match the pinned goldens");
}

#[test]
fn link_traffic_conserves_bytes() {
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let batch = 2;
    let rounds = 3;
    let compiled = compile(&net, &chip, batch, 7);
    for timing in TimingMode::ALL {
        let (schedule, report) = simulate_system(
            &net,
            &compiled,
            &chip,
            Topology::ring(2),
            SystemStrategy::LayerPipeline,
            batch,
            rounds,
            timing,
        );
        assert!(schedule.handoff_bytes_per_round() > 0, "a 2-chip pipeline must ship activations");
        let links = report.links.as_ref().expect("multi-chip reports carry link stats");
        let carried: u64 = links.iter().map(|l| l.bytes).sum();
        assert_eq!(
            carried,
            (schedule.handoff_bytes_per_round() * rounds) as u64,
            "{timing}: every hand-off byte crosses a link exactly once"
        );
        for link in links {
            assert!(link.busy_ns >= 0.0);
            assert!(link.wait_ns >= 0.0);
            assert_eq!(link.bytes > 0, link.transfers > 0);
        }
    }
}

#[test]
fn multi_chip_reports_are_deterministic_per_seed() {
    let chip = ChipSpec::chip_s();
    let net = zoo::squeezenet();
    let batch = 4;
    let compiled = compile(&net, &chip, batch, 42);
    let run = |strategy: SystemStrategy, timing: TimingMode| {
        let (_, report) = simulate_system(
            &net,
            &compiled,
            &chip,
            Topology::fully_connected(4),
            strategy,
            batch,
            2,
            timing,
        );
        serde_json::to_string(&report).expect("serializes")
    };
    for timing in TimingMode::ALL {
        for strategy in SystemStrategy::ALL {
            assert_eq!(
                run(strategy, timing),
                run(strategy, timing),
                "{strategy} reports must be byte-identical ({timing})"
            );
        }
    }
}

#[test]
fn every_timing_topology_leg_simulates_deterministically() {
    // Both timing modes on one chip and on a 2-chip ring must produce
    // bit-stable reports.
    let chip = ChipSpec::chip_s();
    let net = zoo::tiny_cnn();
    let batch = 2;
    let compiled = compile(&net, &chip, batch, 9);
    for timing in TimingMode::ALL {
        for topology in [Topology::single(), Topology::ring(2)] {
            let run = || {
                let (_, report) = simulate_system(
                    &net,
                    &compiled,
                    &chip,
                    topology.clone(),
                    SystemStrategy::BatchShard,
                    batch,
                    2,
                    timing,
                );
                serde_json::to_string(&report).expect("serializes")
            };
            assert_eq!(run(), run(), "{timing}, {topology} must simulate deterministically");
        }
    }
}

#[test]
fn two_chip_pipeline_beats_one_chip_on_batched_workload() {
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let batch = 4;
    let rounds = 4;
    let compiled = compile(&net, &chip, batch, 3);
    for timing in TimingMode::ALL {
        let (_, single) = simulate_system(
            &net,
            &compiled,
            &chip,
            Topology::single(),
            SystemStrategy::LayerPipeline,
            batch,
            rounds,
            timing,
        );
        let (_, pipelined) = simulate_system(
            &net,
            &compiled,
            &chip,
            Topology::ring(2),
            SystemStrategy::LayerPipeline,
            batch,
            rounds,
            timing,
        );
        assert!(
            pipelined.makespan_ns < single.makespan_ns,
            "{timing}: 2-chip pipeline ({} ns) must beat 1 chip ({} ns) over {rounds} rounds",
            pipelined.makespan_ns,
            single.makespan_ns
        );
        assert_eq!(pipelined.batch, single.batch, "same samples either way");
        let chips = pipelined.chips.as_ref().expect("multi-chip summary present");
        assert_eq!(chips.len(), 2);
        assert!(chips[1].handoff_wait_ns > 0.0, "the downstream chip pays the pipeline fill");
    }
}

#[test]
fn batch_shard_scales_throughput_with_chips() {
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let batch = 8;
    let compiled = compile(&net, &chip, batch, 5);
    let throughput = |topology: Topology, timing: TimingMode| {
        let (_, report) = simulate_system(
            &net,
            &compiled,
            &chip,
            topology,
            SystemStrategy::BatchShard,
            batch,
            1,
            timing,
        );
        report.throughput_ips()
    };
    for timing in TimingMode::ALL {
        let one = throughput(Topology::single(), timing);
        let four = throughput(Topology::fully_connected(4), timing);
        assert!(
            four > 1.5 * one,
            "{timing}: 4-way batch sharding ({four:.1} inf/s) must clearly beat one chip ({one:.1} inf/s)"
        );
    }
}

#[test]
fn chip_summaries_are_consistent_with_partitions() {
    let chip = ChipSpec::chip_s();
    let net = zoo::vgg16();
    let batch = 2;
    let rounds = 2;
    let compiled = compile(&net, &chip, batch, 1);
    for timing in TimingMode::ALL {
        let (schedule, report) = simulate_system(
            &net,
            &compiled,
            &chip,
            Topology::ring(4),
            SystemStrategy::LayerPipeline,
            batch,
            rounds,
            timing,
        );
        let chips = report.chips.as_ref().expect("multi-chip summary present");
        assert_eq!(chips.len(), 4);
        let stages: usize = chips.iter().map(|c| c.partitions).sum();
        assert_eq!(stages, report.partitions.len());
        for (summary, plan) in chips.iter().zip(&schedule.chips) {
            let (from, to) = plan.partition_range;
            assert_eq!(summary.partitions, (to - from) * rounds);
            assert!(summary.end_ns <= report.makespan_ns + 1e-9);
        }
        // Partition stage count: every assigned partition ran every round.
        assert_eq!(report.partitions.len(), compiled.partitions().len() * rounds);
    }
}
