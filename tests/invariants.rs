//! Randomized invariants across the compiler stack: random networks,
//! random chips, random partition groups — the structural guarantees
//! must always hold.
//!
//! Implemented as deterministic seeded sweeps (the offline environment
//! has no proptest): each property draws a few dozen `(network, chip)`
//! cases from a seeded generator and asserts on every one.

use compass::packing::{fits, PackItem};
use compass::plan::GroupPlan;
use compass::replication::optimize_group;
use compass::{decompose, PartitionGroup, ValidityMap};
use pim_arch::ChipSpec;
use pim_model::{Network, NetworkBuilder, TensorShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 24;

/// A random plain CNN (conv/relu/pool chain + classifier).
fn random_cnn(rng: &mut StdRng) -> Network {
    let stages = rng.gen_range(2usize..5);
    let base = *[8usize, 16, 24, 32].get(rng.gen_range(0usize..4)).unwrap();
    let size = *[16usize, 32].get(rng.gen_range(0usize..2)).unwrap();
    let pool = rng.gen_bool(0.5);
    let mut b = NetworkBuilder::new("prop_cnn");
    let input = b.input(TensorShape::new(3, size, size));
    let mut x = input;
    for i in 0..stages {
        let ch = base * (i + 1);
        let conv = b.conv2d(format!("conv{i}"), x, ch, 3, 1, 1);
        x = b.relu(format!("relu{i}"), conv);
        if pool && i % 2 == 1 {
            x = b.max_pool2d(format!("pool{i}"), x, 2, 2);
        }
    }
    let gap = b.global_avg_pool("gap", x);
    let fc = b.linear("fc", gap, 10);
    let _ = b.softmax("prob", fc);
    b.build().expect("generated CNN is valid")
}

/// A random (validated) chip configuration.
fn random_chip(rng: &mut StdRng) -> ChipSpec {
    let cores = rng.gen_range(2usize..20);
    let xbars = rng.gen_range(2usize..18);
    let mut chip = ChipSpec::chip_s();
    chip.name = format!("prop-{cores}x{xbars}");
    chip.cores = cores;
    chip.crossbars_per_core = xbars;
    chip.validate().expect("generated chip is valid");
    chip
}

#[test]
fn units_always_fit_one_core() {
    let mut rng = StdRng::seed_from_u64(0xA0);
    for _ in 0..CASES {
        let (net, chip) = (random_cnn(&mut rng), random_chip(&mut rng));
        let seq = decompose(&net, &chip);
        for u in seq.units() {
            assert!(u.crossbars <= chip.crossbars_per_core);
            assert!(u.crossbars > 0);
        }
        // Units cover the model's weight bits exactly.
        let total: usize = seq.units().iter().map(|u| u.weight_bits).sum();
        let expected =
            pim_model::stats::NetworkStats::of(&net, chip.precision).total_weight_bytes() * 8;
        assert_eq!(total, expected);
    }
}

#[test]
fn validity_map_is_prefix_monotone() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let (net, chip) = (random_cnn(&mut rng), random_chip(&mut rng));
        let seq = decompose(&net, &chip);
        let map = ValidityMap::build(&seq, &chip);
        for i in 0..map.len() {
            assert!(map.max_end(i) > i, "single unit fits");
            // `is_valid` restates `max_end`; packing each span checks
            // the map against the packer it summarizes.
            let mut items = Vec::new();
            for j in (i + 1)..=map.max_end(i) {
                assert!(map.is_valid(i, j));
                items.push(PackItem { id: j - 1, crossbars: seq.unit(j - 1).crossbars });
                assert!(fits(&items, chip.cores, chip.crossbars_per_core), "[{i}, {j}) packs");
            }
        }
    }
}

#[test]
fn random_groups_cover_units_and_optimized_plans_fit_chip() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let (net, chip) = (random_cnn(&mut rng), random_chip(&mut rng));
        let seq = decompose(&net, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        let group = PartitionGroup::random(&mut rng, &validity);
        // Coverage: partitions tile [0, M).
        let parts = group.partitions();
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts.last().unwrap().end, seq.len());
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Plans and replication respect the chip.
        let mut plans = GroupPlan::build(&net, &seq, &group);
        optimize_group(&mut plans, &chip);
        for p in plans.plans() {
            assert!(p.replicated_crossbars() <= chip.total_crossbars());
            assert!(p.packing.is_some());
            for s in &p.slices {
                assert!(s.replication >= 1);
            }
        }
        // Every unit is in exactly one slice.
        let mut seen = vec![0u8; seq.len()];
        for p in plans.plans() {
            for s in &p.slices {
                for u in s.units.clone() {
                    seen[u] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}

#[test]
fn mutations_preserve_validity_and_coverage() {
    use compass::mutation::{self, MutationKind};
    let mut rng = StdRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let (net, chip) = (random_cnn(&mut rng), random_chip(&mut rng));
        let seq = decompose(&net, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        let mut group = PartitionGroup::random(&mut rng, &validity);
        for step in 0..40 {
            let kind = MutationKind::ALL[step % 4];
            let scores: Vec<f64> =
                (0..group.partition_count()).map(|k| 1.0 + (k as f64) * 0.1).collect();
            if let Some(child) = mutation::apply(kind, &group, &scores, &mut rng, &validity) {
                assert_eq!(child.unit_count(), group.unit_count());
                assert!(PartitionGroup::from_cuts(child.cuts().to_vec(), &validity).is_some());
                group = child;
            }
        }
    }
}

#[test]
fn estimator_is_monotone_in_batch() {
    use compass::estimate::Estimator;
    let mut rng = StdRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let net = random_cnn(&mut rng);
        let chip = ChipSpec::chip_s();
        let seq = decompose(&net, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        let group = PartitionGroup::random(&mut rng, &validity);
        let mut plans = GroupPlan::build(&net, &seq, &group);
        optimize_group(&mut plans, &chip);
        let estimator = Estimator::new(&chip);
        let mut last_latency = 0.0;
        let mut last_energy_per_inf = f64::INFINITY;
        for batch in [1usize, 2, 4, 8, 16] {
            let est = estimator.estimate_group(&plans, batch);
            assert!(est.batch_latency_ns > last_latency, "latency grows with batch");
            assert!(
                est.energy_per_inference_uj() <= last_energy_per_inf * (1.0 + 1e-9),
                "per-inference energy must not grow with batch"
            );
            last_latency = est.batch_latency_ns;
            last_energy_per_inf = est.energy_per_inference_uj();
        }
    }
}

#[test]
fn scheduled_programs_simulate_for_random_cases() {
    // A deterministic sweep of generated CNNs through the entire
    // pipeline, including the simulator.
    use compass::{CompileOptions, Compiler, GaParams, Strategy};
    use pim_sim::ChipSimulator;
    for (cores, xbars, stages) in [(4usize, 4usize, 2usize), (8, 6, 3), (12, 9, 4)] {
        let mut b = NetworkBuilder::new("sweep_cnn");
        let input = b.input(TensorShape::new(3, 32, 32));
        let mut x = input;
        for i in 0..stages {
            let conv = b.conv2d(format!("conv{i}"), x, 16 * (i + 1), 3, 1, 1);
            x = b.relu(format!("relu{i}"), conv);
        }
        let gap = b.global_avg_pool("gap", x);
        let fc = b.linear("fc", gap, 10);
        let _ = b.softmax("prob", fc);
        let net = b.build().unwrap();

        let mut chip = ChipSpec::chip_s();
        chip.cores = cores;
        chip.crossbars_per_core = xbars;
        let compiled = Compiler::new(chip.clone())
            .compile(
                &net,
                &CompileOptions::new()
                    .with_batch_size(3)
                    .with_ga(GaParams::fast())
                    .with_strategy(Strategy::Compass)
                    .with_seed(5),
            )
            .expect("compiles");
        let report = ChipSimulator::new(chip)
            .run(compiled.programs(), 3)
            .expect("simulates without deadlock");
        assert!(report.makespan_ns > 0.0);
    }
}
