//! Differential grid for the GA's segment-miss path.
//!
//! A segment miss refills a reused plan buffer, replicates in reused
//! greedy buffers, and stores its score in the segment memo. Over
//! every valid span of a network on a chip, each of those must
//! reproduce the plain path bit for bit:
//!
//! * a plan refilled right after a *different* span equals a fresh
//!   [`SegmentPlanner::plan`];
//! * the greedy's load path gives the replication counts and the core
//!   load of [`optimize_partition`]'s recorded packing;
//! * the memo's estimate and occupancy equal
//!   [`Estimator::estimate_partition`] of that packed plan, on the miss
//!   and on every later hit.
//!
//! Plain `cargo test` runs the benchmark's three `compile` points; the
//! whole model zoo on chips S, M and L is `#[ignore]`d and runs in
//! release (`cargo test --release -p compass -- --ignored`).

use super::{FitnessContext, FitnessKind};
use crate::decompose::decompose;
use crate::estimate::{Estimator, Occupancy, PartitionEstimate};
use crate::partition::Partition;
use crate::plan::{PartitionPlan, PlanBuffer, SegmentPlanner};
use crate::replication::{optimize_partition, optimize_partition_load, Greedy};
use crate::validity::ValidityMap;
use pim_arch::ChipSpec;
use pim_model::{zoo, Network};

const BATCH: usize = 8;

fn estimate_bits(e: &PartitionEstimate) -> [u64; 12] {
    let p = &e.energy;
    [
        e.replace_ns,
        e.pipeline_ns,
        e.fill_ns,
        e.interval_ns,
        e.latency_ns,
        p.mvm_nj,
        p.weight_write_nj,
        p.weight_load_nj,
        p.activation_dram_nj,
        p.interconnect_nj,
        p.vfu_nj,
        p.static_nj,
    ]
    .map(f64::to_bits)
}

fn fraction_bits(plan: &PartitionPlan) -> Vec<u64> {
    plan.slices.iter().map(|s| s.fraction.to_bits()).collect()
}

/// Runs the three checks over every valid span of `net` on `chip` and
/// returns the number of spans checked.
fn check_every_span(net: &Network, chip: &ChipSpec) -> usize {
    let seq = decompose(net, chip);
    let validity = ValidityMap::build(&seq, chip);
    let planner = SegmentPlanner::new(net, &seq);
    let ctx = FitnessContext::new(net, &seq, &validity, chip, BATCH, FitnessKind::Latency);
    let estimator = Estimator::new(chip);
    let spans: Vec<Partition> = (0..seq.len())
        .flat_map(|start| (start + 1..=validity.max_end(start)).map(move |end| (start, end)))
        .map(|(start, end)| Partition::new(start, end))
        .collect();
    let mut buffer = PlanBuffer::default();
    let mut greedy = Greedy::default();
    let mut wanted = Vec::with_capacity(spans.len());
    for (i, &span) in spans.iter().enumerate() {
        let at = format!("{} on {}: {span}", net.name(), chip.name);
        let fresh = planner.plan(0, span);
        // A span half the grid away: a different width and position.
        planner.refill(0, spans[(i + spans.len() / 2) % spans.len()], &mut buffer);
        let refilled = planner.refill(0, span, &mut buffer);
        assert_eq!(*refilled, fresh, "{at}: refilled plan");
        assert_eq!(fraction_bits(refilled), fraction_bits(&fresh), "{at}: slice fractions");

        let mut packed = fresh;
        optimize_partition(&mut packed, chip);
        let load = optimize_partition_load(refilled, chip, &mut greedy);
        assert!(refilled.packing.is_none(), "{at}: the load path packs no items");
        assert_eq!(refilled.slices, packed.slices, "{at}: replication counts");
        let packed_load = packed.packing.as_ref().map(|p| p.load(chip.crossbars_per_core));
        assert_eq!(load, packed_load, "{at}: core load");

        let want = (
            estimate_bits(&estimator.estimate_partition(&packed, BATCH)),
            Occupancy::of_plans(std::slice::from_ref(&packed), chip)[0],
        );
        let got = ctx.segment_eval(span);
        assert_eq!((estimate_bits(&got.estimate), got.occupancy), want, "{at}: memo miss");
        wanted.push(want);
    }
    assert_eq!(ctx.segment_cache_len(), spans.len(), "one entry per valid span");
    // Every entry still holds its own span's score once the memo is full.
    for (&span, want) in spans.iter().zip(&wanted) {
        let got = ctx.segment_eval(span);
        assert_eq!(&(estimate_bits(&got.estimate), got.occupancy), want, "{span}: memo hit");
    }
    assert_eq!(ctx.segment_cache_len(), spans.len(), "hits store nothing");
    spans.len()
}

#[test]
fn compile_points_match_the_plain_path_on_every_span() {
    let points = [
        (zoo::resnet18(), ChipSpec::chip_s()),
        (zoo::squeezenet(), ChipSpec::chip_l()),
        (zoo::vgg16(), ChipSpec::chip_s()),
    ];
    for (net, chip) in points {
        check_every_span(&net, &chip);
    }
}

#[test]
#[ignore = "the whole model zoo on three chips; run in release with --ignored"]
fn zoo_matches_the_plain_path_on_every_span() {
    let networks = [
        zoo::vgg11(),
        zoo::vgg13(),
        zoo::vgg16(),
        zoo::vgg19(),
        zoo::alexnet(),
        zoo::resnet18(),
        zoo::resnet34(),
        zoo::squeezenet(),
        zoo::tiny_cnn(),
        zoo::tiny_resnet(),
        zoo::mlp(1024, &[512, 256], 10),
    ];
    let mut spans = 0;
    for net in &networks {
        for chip in [ChipSpec::chip_s(), ChipSpec::chip_m(), ChipSpec::chip_l()] {
            spans += check_every_span(net, &chip);
        }
    }
    assert!(spans > 100_000, "only {spans} spans checked");
}
