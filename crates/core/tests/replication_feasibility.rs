//! Differential tests for the replication optimizer's chip check.
//!
//! `optimize_partition` decides every `+1` replica with
//! `ffd_pack_classes` over per-size item counts instead of repacking
//! every replica item with `pack_ffd`. These seeded sweeps (the
//! offline environment has no proptest) check that the two packings
//! agree on random multisets, and that the optimizer reproduces — on
//! every valid span of the paper's networks — the replication counts
//! and packing of the repack-per-step loop it replaced, kept here as
//! the reference.

use compass::packing::{ffd_pack_classes, pack_ffd, PackItem, Packing};
use compass::plan::SegmentPlanner;
use compass::replication::{optimize_partition, replica_items};
use compass::{decompose, Partition, PartitionPlan, ValidityMap};
use pim_arch::ChipSpec;
use pim_model::{zoo, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(crossbars, count)` classes of `sizes`, in descending size order.
fn classes_of(sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut classes: Vec<(usize, usize)> = Vec::new();
    let mut sorted = sizes.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    for size in sorted {
        match classes.last_mut() {
            Some((s, n)) if *s == size => *n += 1,
            _ => classes.push((size, 1)),
        }
    }
    classes
}

fn items_of(sizes: &[usize]) -> Vec<PackItem> {
    sizes.iter().enumerate().map(|(id, &crossbars)| PackItem { id, crossbars }).collect()
}

#[test]
fn size_classes_agree_with_ffd_on_random_multisets() {
    let mut rng = StdRng::seed_from_u64(0xFFD);
    let mut bins = Vec::new();
    let mut fits = 0usize;
    for case in 0..20_000 {
        // Every 16th case packs into single-crossbar cores.
        let capacity = if case % 16 == 0 { 1 } else { rng.gen_range(1usize..24) };
        let cores = rng.gen_range(0usize..12);
        // Slices of a few unit sizes, each replicated like the
        // optimizer does; sizes run up to two past the capacity so
        // oversize items occur.
        let mut sizes = Vec::new();
        for _ in 0..rng.gen_range(1usize..5) {
            let units: Vec<usize> =
                (0..rng.gen_range(1usize..5)).map(|_| rng.gen_range(1..capacity + 3)).collect();
            for _ in 0..rng.gen_range(1usize..5) {
                sizes.extend_from_slice(&units);
            }
        }
        let expected = pack_ffd(&items_of(&sizes), cores, capacity).map(|p| p.slack);
        let got = ffd_pack_classes(&classes_of(&sizes), cores, capacity, &mut bins);
        assert_eq!(got, expected.as_deref(), "case {case}: {sizes:?} into {cores} x {capacity}");
        fits += usize::from(expected.is_some());
    }
    // Both verdicts must be well represented for the sweep to mean
    // anything.
    assert!((2_000..18_000).contains(&fits), "{fits} of 20000 cases fit");
}

#[test]
fn size_classes_handle_degenerate_inputs() {
    let mut bins = Vec::new();
    let mut fits = |classes: &[(usize, usize)], cores, capacity| {
        ffd_pack_classes(classes, cores, capacity, &mut bins).map(<[usize]>::to_vec)
    };
    assert_eq!(fits(&[], 0, 0), Some(vec![]));
    assert_eq!(fits(&[(3, 0)], 0, 2), Some(vec![]), "empty classes need no bins");
    assert_eq!(fits(&[(3, 1)], 4, 2), None, "oversize item");
    assert_eq!(fits(&[(1, 4)], 4, 1), Some(vec![0; 4]));
    assert_eq!(fits(&[(1, 5)], 4, 1), None);
    for (classes, cores) in [(vec![(0, 2)], 0), (vec![(0, 2)], 1), (vec![(2, 1), (0, 3)], 1)] {
        let sizes: Vec<usize> = classes.iter().flat_map(|&(s, n)| vec![s; n]).collect();
        assert_eq!(
            fits(&classes, cores, 2),
            pack_ffd(&items_of(&sizes), cores, 2).map(|p| p.slack),
            "zero-size items {classes:?} on {cores} cores"
        );
    }
}

fn improves(spatial: usize, replication: usize) -> bool {
    spatial.div_ceil(replication + 1) < spatial.div_ceil(replication)
}

fn pack(plan: &PartitionPlan, chip: &ChipSpec) -> Option<Packing> {
    let items: Vec<PackItem> = replica_items(plan)
        .iter()
        .enumerate()
        .map(|(id, item)| PackItem { id, crossbars: item.crossbars })
        .collect();
    pack_ffd(&items, chip.cores, chip.crossbars_per_core)
}

/// The optimizer as it was before size classes: rebuild and repack
/// every replica item after every `+1` replica.
fn repack_per_step(plan: &mut PartitionPlan, chip: &ChipSpec) {
    if plan.slices.is_empty() {
        return;
    }
    let mut saturated = vec![false; plan.slices.len()];
    while let Some(bottleneck) = plan
        .slices
        .iter()
        .enumerate()
        .filter(|(i, s)| !saturated[*i] && improves(s.mvms_per_sample, s.replication))
        .max_by_key(|(_, s)| s.waves_per_sample())
    {
        let idx = bottleneck.0;
        if plan.slices[idx].waves_per_sample() < plan.bottleneck_waves() {
            break;
        }
        plan.slices[idx].replication += 1;
        if pack(plan, chip).is_none() {
            plan.slices[idx].replication -= 1;
            saturated[idx] = true;
        }
    }
    plan.packing = pack(plan, chip);
}

fn check_every_valid_span(name: &str, net: Network, chip: ChipSpec) {
    let seq = decompose(&net, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    let planner = SegmentPlanner::new(&net, &seq);
    for start in 0..seq.len() {
        for end in start + 1..=validity.max_end(start) {
            let mut fast = planner.plan(0, Partition::new(start, end));
            let mut reference = fast.clone();
            optimize_partition(&mut fast, &chip);
            repack_per_step(&mut reference, &chip);
            let replication = |p: &PartitionPlan| -> Vec<usize> {
                p.slices.iter().map(|s| s.replication).collect()
            };
            assert_eq!(replication(&fast), replication(&reference), "{name} [{start}, {end})");
            assert_eq!(fast.packing, reference.packing, "{name} [{start}, {end})");
        }
    }
}

#[test]
fn resnet18_spans_match_the_repacking_loop() {
    for chip in [ChipSpec::chip_s(), ChipSpec::chip_m(), ChipSpec::chip_l()] {
        check_every_valid_span("resnet18", zoo::resnet18(), chip);
    }
}

#[test]
fn squeezenet_spans_match_the_repacking_loop() {
    for chip in [ChipSpec::chip_s(), ChipSpec::chip_m(), ChipSpec::chip_l()] {
        check_every_valid_span("squeezenet", zoo::squeezenet(), chip);
    }
}

#[test]
fn vgg16_spans_match_the_repacking_loop() {
    for chip in [ChipSpec::chip_s(), ChipSpec::chip_m(), ChipSpec::chip_l()] {
        check_every_valid_span("vgg16", zoo::vgg16(), chip);
    }
}
