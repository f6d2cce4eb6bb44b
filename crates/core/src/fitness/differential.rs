//! Differential grid for the GA's segment-miss path.
//!
//! A segment miss refills a reused plan buffer, replicates in reused
//! greedy buffers, and stores what the group fold reads in the segment
//! table. Over every valid span of a network on a chip, each of those
//! must reproduce the plain path bit for bit:
//!
//! * a plan refilled right after a *different* span equals a fresh
//!   [`SegmentPlanner::plan`];
//! * the greedy's load path gives the replication counts and the core
//!   load of [`optimize_partition`]'s recorded packing, and the
//!   estimate of the refilled plan at that load equals
//!   [`Estimator::estimate_partition`] of the packed plan;
//! * the memo's latency, total energy and occupancy equal that
//!   estimate's and the packed plan's, on the miss and on every later
//!   hit.
//!
//! The table's index is checked at its edges too: the last unit, the
//! widest span from every start and one unit past it, spans past the
//! sequence, and groups whose spans lie outside the context's validity
//! map (scored, never stored, never aliased).
//!
//! Plain `cargo test` runs the benchmark's three `compile` points; the
//! whole model zoo on chips S, M and L is `#[ignore]`d and runs in
//! release (`cargo test --release -p compass -- --ignored`).

use super::{FitnessContext, FitnessKind, SegmentEval};
use crate::decompose::decompose;
use crate::estimate::{Estimator, Occupancy, PartitionEstimate};
use crate::partition::{Partition, PartitionGroup};
use crate::plan::{PartitionPlan, PlanBuffer, SegmentPlanner};
use crate::replication::{optimize_partition, optimize_partition_load, Greedy};
use crate::validity::ValidityMap;
use pim_arch::ChipSpec;
use pim_model::{zoo, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// What the memo must hold for a span: latency bits, total-energy
/// bits and occupancy.
type Entry = (u64, u64, Occupancy);

fn entry_of(eval: SegmentEval) -> Entry {
    (eval.latency_ns.to_bits(), eval.energy_nj.to_bits(), eval.occupancy)
}

/// Every span `validity` allows, start by start: the table's order.
fn valid_spans(validity: &ValidityMap) -> Vec<Partition> {
    (0..validity.len())
        .flat_map(|start| (start + 1..=validity.max_end(start)).map(move |end| (start, end)))
        .map(|(start, end)| Partition::new(start, end))
        .collect()
}

/// Runs the checks over every valid span of `net` on `chip` and
/// returns the number of spans checked.
fn check_every_span(net: &Network, chip: &ChipSpec) -> usize {
    let seq = decompose(net, chip);
    let validity = ValidityMap::build(&seq, chip);
    let planner = SegmentPlanner::new(net, &seq);
    let ctx = FitnessContext::new(net, &seq, &validity, chip, BATCH, FitnessKind::Latency);
    let estimator = Estimator::new(chip);
    let spans = valid_spans(&validity);
    let mut buffer = PlanBuffer::default();
    let mut greedy = Greedy::default();
    let mut wanted = Vec::with_capacity(spans.len());
    for (i, &span) in spans.iter().enumerate() {
        let at = format!("{} on {}: {span}", net.name(), chip.name);
        // Spans in start-by-start order take consecutive slots, so the
        // last unit takes the last one; one unit past the widest span
        // from a start has none.
        assert_eq!(ctx.segments.borrow().slot(span), Some(i), "{at}: slot");
        if span.end == validity.max_end(span.start) {
            let wider = Partition::new(span.start, span.end + 1);
            assert_eq!(ctx.segments.borrow().slot(wider), None, "{at}: one unit wider");
        }
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
        let plain = estimator.estimate_partition(&packed, BATCH);
        assert_eq!(
            estimate_bits(&estimator.estimate_loaded(refilled, load, BATCH)),
            estimate_bits(&plain),
            "{at}: estimate at the load path's core load"
        );

        let want = (
            plain.latency_ns.to_bits(),
            plain.energy.total_nj().to_bits(),
            Occupancy::of_plans(std::slice::from_ref(&packed), chip)[0],
        );
        assert_eq!(entry_of(ctx.segment_eval(span)), want, "{at}: memo miss");
        wanted.push(want);
    }
    assert_eq!(ctx.segment_cache_len(), spans.len(), "one entry per valid span");
    // Every entry still holds its own span's score once the memo is full.
    for (&span, want) in spans.iter().zip(&wanted) {
        assert_eq!(&entry_of(ctx.segment_eval(span)), want, "{span}: memo hit");
    }
    assert_eq!(ctx.segment_cache_len(), spans.len(), "hits store nothing");
    let len = seq.len();
    for past in [Partition::new(len, len + 1), Partition::new(len + 5, len + 9)] {
        assert_eq!(ctx.segments.borrow().slot(past), None, "{past}: past the sequence");
    }
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
fn spans_outside_the_map_are_scored_but_not_stored() {
    // The context's map is chip-S's; the groups are drawn from the map
    // of a chip with twice the cores, so many of their spans are wider
    // than the context's map allows.
    let (net, chip) = (zoo::resnet18(), ChipSpec::chip_s());
    let seq = decompose(&net, &chip);
    let validity = ValidityMap::build(&seq, &chip);
    let wide = ValidityMap::build(&seq, &ChipSpec { cores: 2 * chip.cores, ..chip.clone() });
    let ctx = FitnessContext::new(&net, &seq, &validity, &chip, BATCH, FitnessKind::Latency);
    let bare = FitnessContext::new(&net, &seq, &validity, &chip, BATCH, FitnessKind::Latency)
        .with_memo(false);
    let spans = valid_spans(&validity);
    let mut rng = StdRng::seed_from_u64(41);
    let mut outside = 0;
    let mut inside = std::collections::HashSet::new();
    for _ in 0..8 {
        let group = PartitionGroup::random(&mut rng, &wide);
        // Where a too-wide span's slot would fall if the index were not
        // bounded, the valid span that owns that slot is memoized
        // first, so an aliased lookup would read its score back.
        for part in group.partitions() {
            let unbounded = ctx.segments.borrow().offset[part.start] + part.len() - 1;
            if !validity.is_valid(part.start, part.end) && unbounded < spans.len() {
                ctx.segment_eval(spans[unbounded]);
                inside.insert(spans[unbounded]);
            }
        }
        let got = ctx.evaluate(&group);
        let want = bare.evaluate(&group);
        assert_eq!(
            got.partition_fitness.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            want.partition_fitness.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "a span outside the map must score as it does with the memo off"
        );
        for part in group.partitions() {
            let entry = entry_of(ctx.segment_eval(part));
            assert_eq!(entry, entry_of(bare.segment_eval(part)), "{part}");
            if validity.is_valid(part.start, part.end) {
                inside.insert(part);
            } else {
                outside += 1;
            }
        }
    }
    assert!(outside > 0, "no group reached outside the context's map");
    assert_eq!(ctx.segment_cache_len(), inside.len(), "only spans in the map are stored");
    for &span in &inside {
        assert_eq!(entry_of(ctx.segment_eval(span)), entry_of(bare.segment_eval(span)), "{span}");
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
