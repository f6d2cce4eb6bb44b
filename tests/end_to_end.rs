//! Cross-crate integration: model zoo -> COMPASS compiler -> ISA
//! programs -> chip simulator -> DRAM replay.

use compass::{CompileError, CompileOptions, Compiler, GaParams, Strategy};
use pim_arch::{ChipClass, ChipSpec, LinkSpec, Topology};
use pim_model::zoo;
use pim_sim::{ChipLoad, ChipSimulator, SimError, SystemSimulator};

fn options(strategy: Strategy, batch: usize) -> CompileOptions {
    CompileOptions::new()
        .with_strategy(strategy)
        .with_batch_size(batch)
        .with_ga(GaParams::fast())
        .with_seed(99)
}

#[test]
fn every_paper_network_compiles_and_simulates_on_every_chip() {
    for class in ChipClass::ALL {
        let chip = ChipSpec::preset(class);
        for net in [zoo::vgg16(), zoo::resnet18(), zoo::squeezenet()] {
            let compiled = Compiler::new(chip.clone())
                .compile(&net, &options(Strategy::Greedy, 4))
                .unwrap_or_else(|e| panic!("{} on {class}: {e}", net.name()));
            let report = ChipSimulator::new(chip.clone())
                .run(compiled.programs(), 4)
                .unwrap_or_else(|e| panic!("{} on {class} sim: {e}", net.name()));
            assert!(report.throughput_ips() > 0.0);
            assert!(report.energy.total_nj() > 0.0);
            assert_eq!(report.partitions.len(), compiled.partitions().len());
        }
    }
}

#[test]
fn compass_strategy_full_pipeline_on_resnet18() {
    let chip = ChipSpec::chip_m();
    let net = zoo::resnet18();
    let compiled = Compiler::new(chip.clone())
        .compile(&net, &options(Strategy::Compass, 8))
        .expect("compiles");
    assert!(compiled.ga_trace().is_some());
    let report = ChipSimulator::new(chip).run(compiled.programs(), 8).expect("simulates");
    // The simulator and estimator describe the same machine; they must
    // agree within an order of magnitude.
    let ratio = report.makespan_ns / compiled.estimate().batch_latency_ns;
    assert!((0.1..10.0).contains(&ratio), "sim/estimate ratio {ratio}");
}

#[test]
fn compass_beats_baselines_in_simulation_resnet18_m_16() {
    // The paper's Fig. 7 configuration. COMPASS should win in the
    // *simulator* (not just its own estimator).
    let chip = ChipSpec::chip_m();
    let net = zoo::resnet18();
    let run = |strategy| {
        let compiled =
            Compiler::new(chip.clone()).compile(&net, &options(strategy, 16)).expect("compiles");
        ChipSimulator::new(chip.clone())
            .with_dram_replay(false)
            .run(compiled.programs(), 16)
            .expect("simulates")
            .throughput_ips()
    };
    let compass = run(Strategy::Compass);
    let greedy = run(Strategy::Greedy);
    let layerwise = run(Strategy::Layerwise);
    assert!(compass > greedy, "COMPASS {compass:.0} must beat greedy {greedy:.0} on ResNet18-M-16");
    assert!(
        compass > layerwise,
        "COMPASS {compass:.0} must beat layerwise {layerwise:.0} on ResNet18-M-16"
    );
}

#[test]
fn throughput_rises_monotonically_with_batch_for_greedy() {
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let mut last = 0.0;
    for batch in [1usize, 2, 4, 8, 16] {
        let compiled = Compiler::new(chip.clone())
            .compile(&net, &options(Strategy::Greedy, batch))
            .expect("compiles");
        let ips = ChipSimulator::new(chip.clone())
            .with_dram_replay(false)
            .run(compiled.programs(), batch)
            .expect("simulates")
            .throughput_ips();
        assert!(
            ips > last,
            "throughput must rise with batch (batch {batch}: {ips:.0} vs {last:.0})"
        );
        last = ips;
    }
}

#[test]
fn weight_traffic_equals_model_size_per_batch_cycle() {
    // The simulator's DRAM trace must stream each weight exactly once
    // per batch cycle (replicas are broadcast on chip, not re-read).
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let compiled =
        Compiler::new(chip.clone()).compile(&net, &options(Strategy::Greedy, 2)).expect("compiles");
    let report = ChipSimulator::new(chip.clone()).run(compiled.programs(), 2).expect("simulates");
    let model_bytes = pim_model::stats::NetworkStats::of(&net, chip.precision).total_weight_bytes();
    let loaded: usize = compiled.programs().iter().map(|p| p.stats().weight_load_bytes).sum();
    let tolerance = model_bytes / 100; // rounding of per-unit bit shares
    assert!(
        loaded.abs_diff(model_bytes) <= tolerance,
        "weights loaded {loaded} vs model {model_bytes}"
    );
    assert!(report.dram_trace.read_bytes >= loaded);
}

#[test]
fn edp_mode_produces_different_plans_than_latency_mode() {
    use compass::FitnessKind;
    let chip = ChipSpec::chip_s();
    let net = zoo::resnet18();
    let lat = Compiler::new(chip.clone())
        .compile(&net, &options(Strategy::Compass, 4).with_fitness(FitnessKind::Latency))
        .expect("latency mode");
    let edp = Compiler::new(chip)
        .compile(&net, &options(Strategy::Compass, 4).with_fitness(FitnessKind::Edp))
        .expect("edp mode");
    // Not guaranteed to differ in principle, but with this seed and
    // model they explore differently; at minimum both are valid.
    assert!(lat.estimate().throughput_ips() > 0.0);
    assert!(edp.estimate().edp_per_inference() > 0.0);
    // EDP mode should not be *worse* on EDP than latency mode by a
    // large margin.
    assert!(
        edp.estimate().edp_per_inference() <= lat.estimate().edp_per_inference() * 1.5,
        "EDP-fitness result ({:.1}) should be competitive with latency-fitness ({:.1}) on EDP",
        edp.estimate().edp_per_inference(),
        lat.estimate().edp_per_inference()
    );
}

#[test]
fn custom_chip_configurations_work_end_to_end() {
    // A non-preset chip: 12 cores x 6 crossbars, MRAM cells.
    let mut chip = ChipSpec::chip_s();
    chip.name = "custom".into();
    chip.cores = 12;
    chip.crossbars_per_core = 6;
    chip.crossbar = pim_arch::CrossbarSpec::mram();
    chip.validate().expect("valid custom chip");
    let compiled = Compiler::new(chip.clone())
        .compile(&zoo::squeezenet(), &options(Strategy::Compass, 4))
        .expect("compiles on custom chip");
    let report = ChipSimulator::new(chip).run(compiled.programs(), 4).expect("simulates");
    assert!(report.throughput_ips() > 0.0);
}

#[test]
fn malformed_chips_and_links_are_typed_errors() {
    let base = ChipSpec::chip_s();
    let net = zoo::tiny_cnn();
    let compiled =
        Compiler::new(base.clone()).compile(&net, &options(Strategy::Greedy, 2)).expect("compiles");
    type Breaker = fn(&mut ChipSpec);
    let cases: [(&str, Breaker); 17] = [
        ("memory bandwidth 0", |c| c.memory.bandwidth_gbps = 0.0),
        ("memory bandwidth NaN", |c| c.memory.bandwidth_gbps = f64::NAN),
        ("interconnect bandwidth inf", |c| c.interconnect.bandwidth_gbps = f64::INFINITY),
        ("clock 0", |c| c.core.clock_ghz = 0.0),
        ("clock NaN", |c| c.core.clock_ghz = f64::NAN),
        ("no crossbars", |c| c.crossbars_per_core = 0),
        ("no VFUs", |c| c.core.vfu_count = 0),
        ("no VFU lanes", |c| c.core.vfu_lanes = 0),
        ("negative memory latency", |c| c.memory.access_latency_ns = -1.0),
        ("NaN arbitration", |c| c.interconnect.arbitration_ns = f64::NAN),
        ("negative MVM latency", |c| c.crossbar.mvm_latency_ns = -1.0),
        ("NaN MVM latency", |c| c.crossbar.mvm_latency_ns = f64::NAN),
        ("negative row-write latency", |c| c.crossbar.row_write_latency_ns = -1.0),
        ("infinite row-write latency", |c| c.crossbar.row_write_latency_ns = f64::INFINITY),
        ("NaN chip power", |c| c.chip_power_w = f64::NAN),
        ("infinite MVM energy", |c| c.crossbar.mvm_energy_pj = f64::INFINITY),
        ("negative DRAM energy", |c| c.memory.energy_pj_per_bit = -1.0),
    ];
    for (what, break_chip) in cases {
        let mut chip = base.clone();
        break_chip(&mut chip);
        let sim = ChipSimulator::new(chip.clone()).run(compiled.programs(), 2);
        assert!(matches!(sim, Err(SimError::InvalidChip(_))), "{what}: simulator gave {sim:?}");
        let compile = Compiler::new(chip).compile(&net, &options(Strategy::Greedy, 2));
        assert!(
            matches!(compile, Err(CompileError::InvalidChip(_))),
            "{what}: compiler gave {:?}",
            compile.err()
        );
    }
    let loads = [ChipLoad::new(compiled.programs()), ChipLoad::new(compiled.programs())];
    let links: [fn(&mut LinkSpec); 2] =
        [|l| l.bandwidth_gbps = f64::NAN, |l| l.energy_pj_per_byte = -1.0];
    for break_link in links {
        let mut topology = Topology::ring(2);
        break_link(&mut topology.links[0].spec);
        let spec = topology.links[0].spec;
        let sim = SystemSimulator::new(base.clone(), topology).run(&loads, 1, 2);
        assert!(matches!(sim, Err(SimError::InvalidTopology(_))), "{spec:?}: {sim:?}");
    }
}
