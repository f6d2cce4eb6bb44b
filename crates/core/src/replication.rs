//! On-chip partition optimization: weight replication + core mapping.
//!
//! Each partition is a sub-model mapped fully on chip, so the paper
//! reuses PIMCOMP-style intra-partition optimization (§III-C1). The
//! pass below implements the equivalent: bottleneck-driven weight
//! replication under the chip's core/crossbar constraints, then
//! first-fit-decreasing core assignment of all replica units.
//!
//! Replicating the pipeline-bottleneck layer divides its MVM waves per
//! sample (`ceil(spatial / r)`), raising pipeline throughput at the
//! cost of extra crossbars and extra weight-write work during the
//! replace phase — the joint trade-off COMPASS's GA explores.
//!
//! One greedy decides the replication counts and has two outputs.
//! Every `+1` replica is checked against the chip over a running
//! per-size item count, with the verdict repacking every replica item
//! with [`pack_ffd`] would give: a replica with an item larger than
//! the smallest size takes a full [`ffd_pack_classes`] check, one
//! whose items are all of the smallest size an O(1) comparison with
//! the room the last full check left for that size (see
//! `SizeClasses::check`). [`optimize_partition`]
//! then packs the final replica items one by one, since the
//! scheduler maps each item to its core. The GA's segment memo needs
//! only the packing's core load, which one final size-class packing
//! gives exactly (`optimize_partition_load`), so it skips the item
//! packing; it also keeps the greedy's buffers (`Greedy`) across
//! segments, so a miss allocates nothing.

use crate::packing::{ffd_pack_classes, pack_ffd, CoreLoad, PackItem};
use crate::plan::{GroupPlan, NodeSlice, PartitionPlan};
use pim_arch::ChipSpec;

/// Optimizes one partition in place: raises replication counts
/// greedily on the bottleneck slice while everything still packs onto
/// the chip, then records the final core packing.
///
/// Condition 2 of §III-B is honored by construction: replication is a
/// per-slice (per-kernel) property, so all units of a kernel share one
/// count. Condition 3 (chip memory) is enforced by the packing check.
pub fn optimize_partition(plan: &mut PartitionPlan, chip: &ChipSpec) {
    if Greedy::default().replicate(plan, chip) {
        plan.packing = pack(plan, chip);
        debug_assert!(plan.packing.is_some(), "replication-1 partitions must pack");
    }
}

/// Sets the replication counts [`optimize_partition`] sets, but
/// returns only the load of the packing it would record — `None`
/// where it would record none — without packing any item. `greedy`
/// holds the working buffers, reused from call to call.
pub(crate) fn optimize_partition_load(
    plan: &mut PartitionPlan,
    chip: &ChipSpec,
    greedy: &mut Greedy,
) -> Option<CoreLoad> {
    if !greedy.replicate(plan, chip) {
        return None;
    }
    greedy.items.pack(chip).map(|free| CoreLoad::from_free(free, chip.crossbars_per_core))
}

/// Runs [`optimize_partition`] over every partition of a group.
pub fn optimize_group(group: &mut GroupPlan, chip: &ChipSpec) {
    for plan in group.plans_mut() {
        optimize_partition(plan, chip);
    }
}

/// The replication greedy and the buffers it works in: kept by a
/// caller that optimizes many plans, so none is reallocated per plan.
#[derive(Debug, Default)]
pub(crate) struct Greedy {
    items: SizeClasses,
    /// MVM waves per sample of each slice at its current replication.
    waves: Vec<usize>,
    /// Cleared once a replica stops lowering a slice's waves or stops
    /// fitting.
    open: Vec<bool>,
}

impl Greedy {
    /// Raises `plan`'s replication counts one replica at a time,
    /// leaving the final replica multiset in `self.items`; `false` for
    /// a plan without slices.
    ///
    /// Each step picks the slice with the most waves among those one
    /// more replica would improve (the last one on a tie) and keeps the
    /// replica if the chip still packs. Only the changed slice's wave
    /// count and flag are recomputed. FFD is not monotone in the item
    /// multiset, so every step is checked rather than skipped ahead or
    /// bisected: by a full size-class packing, or in O(1) where the
    /// replica's items are all of the smallest size
    /// ([`SizeClasses::check`]).
    fn replicate(&mut self, plan: &mut PartitionPlan, chip: &ChipSpec) -> bool {
        if plan.slices.is_empty() {
            return false;
        }
        let Self { items, waves, open } = self;
        items.refill(plan);
        waves.clear();
        waves.extend(plan.slices.iter().map(NodeSlice::waves_per_sample));
        open.clear();
        open.extend(plan.slices.iter().map(|s| improves(s.mvms_per_sample, s.replication)));
        while let Some(idx) = (0..waves.len()).filter(|&i| open[i]).max_by_key(|&i| waves[i]) {
            // The true pipeline bottleneck may be a saturated slice; if
            // so, replicating others cannot help.
            if waves.iter().any(|&w| w > waves[idx]) {
                break;
            }
            items.add_replica(idx);
            if items.check(idx, chip) {
                let slice = &mut plan.slices[idx];
                slice.replication += 1;
                waves[idx] = slice.waves_per_sample();
                open[idx] = improves(slice.mvms_per_sample, slice.replication);
            } else {
                items.remove_replica(idx);
                open[idx] = false;
            }
        }
        true
    }
}

fn improves(spatial: usize, replication: usize) -> bool {
    spatial.div_ceil(replication + 1) < spatial.div_ceil(replication)
}

/// A partition's replica item multiset as `(crossbars, count)` size
/// classes in descending size order, kept current across `+1`
/// replicas instead of re-enumerated.
#[derive(Debug, Default)]
struct SizeClasses {
    classes: Vec<(usize, usize)>,
    /// One replica's `(class index, units)` histogram per slice, slice
    /// `s`'s at `replica[replica_end[s - 1]..replica_end[s]]`.
    replica: Vec<(usize, usize)>,
    replica_end: Vec<usize>,
    /// Scratch bins every packing check reuses.
    bins: Vec<usize>,
    /// The most last-class items the chip takes beside the current
    /// larger classes ([`last_class_room`]), from the last full check
    /// that saw them; `None` until one.
    room: Option<usize>,
}

impl SizeClasses {
    /// Resets to the multiset of every replica of every unit of `plan`.
    fn refill(&mut self, plan: &PartitionPlan) {
        let Self { classes, replica, replica_end, room, .. } = self;
        let sizes = || plan.slices.iter().flat_map(|s| s.unit_crossbars.iter().copied());
        classes.clear();
        // Sizes below 128 are sorted and deduplicated by a presence
        // mask, where a size's class is the number of larger sizes
        // present; larger sizes fall back to a sort.
        let present = sizes().try_fold(0u128, |mask, size| (size < 128).then(|| mask | 1 << size));
        if let Some(present) = present {
            let mut rest = present;
            while rest != 0 {
                let size = 127 - rest.leading_zeros() as usize;
                classes.push((size, 0));
                rest ^= 1 << size;
            }
        } else {
            classes.extend(sizes().map(|size| (size, 0)));
            classes.sort_unstable_by_key(|&(size, _)| std::cmp::Reverse(size));
            classes.dedup();
        }
        let class_of = |size: usize| match present {
            Some(present) => (present >> size).count_ones() as usize - 1,
            None => classes.partition_point(|&(s, _)| s > size),
        };
        replica.clear();
        replica_end.clear();
        for slice in &plan.slices {
            let first = replica.len();
            for &size in &slice.unit_crossbars {
                let class = class_of(size);
                match replica[first..].iter_mut().find(|(c, _)| *c == class) {
                    Some((_, n)) => *n += 1,
                    None => replica.push((class, 1)),
                }
            }
            replica_end.push(replica.len());
        }
        *room = None;
        for (idx, slice) in plan.slices.iter().enumerate() {
            (0..slice.replication).for_each(|_| self.add_replica(idx));
        }
    }

    /// Slice `slice`'s entries in `replica`.
    fn histogram(&self, slice: usize) -> std::ops::Range<usize> {
        let first = if slice == 0 { 0 } else { self.replica_end[slice - 1] };
        first..self.replica_end[slice]
    }

    fn add_replica(&mut self, slice: usize) {
        for i in self.histogram(slice) {
            let (class, n) = self.replica[i];
            self.classes[class].1 += n;
        }
    }

    fn remove_replica(&mut self, slice: usize) {
        for i in self.histogram(slice) {
            let (class, n) = self.replica[i];
            self.classes[class].1 -= n;
        }
    }

    /// Whether the multiset, just grown by one replica of `slice`,
    /// still packs: the verdict of [`Self::pack`].
    ///
    /// A replica whose items are all of the last (smallest) size
    /// leaves the larger classes as the last full check saw them, so
    /// it fits exactly when the last class's count is at most that
    /// check's room. Any other replica, and the plan's first, takes a
    /// full check, whose room is kept unless it rejects a replica with
    /// larger items: removing that replica restores the larger classes
    /// the previous room was computed for.
    fn check(&mut self, slice: usize, chip: &ChipSpec) -> bool {
        let last = self.classes.len() - 1;
        let last_only = self.replica[self.histogram(slice)].iter().all(|&(c, _)| c == last);
        if let (true, Some(room)) = (last_only, self.room) {
            return self.classes[last].1 <= room;
        }
        let room =
            last_class_room(&self.classes, chip.cores, chip.crossbars_per_core, &mut self.bins);
        let fits = room.is_some_and(|room| self.classes[last].1 <= room);
        if fits || last_only {
            self.room = room;
        }
        fits
    }

    /// Free crossbars per core of the packing [`pack`] would build
    /// (its `slack`), or `None` where it would fail.
    fn pack(&mut self, chip: &ChipSpec) -> Option<&[usize]> {
        ffd_pack_classes(&self.classes, chip.cores, chip.crossbars_per_core, &mut self.bins)
    }
}

/// How many items of the last (smallest) size of `classes` FFD places
/// once it has packed the larger classes, whatever the last class's
/// own count; `None` where the larger classes do not pack. So
/// [`ffd_pack_classes`] packs `classes` exactly when the last class's
/// count is at most this room.
///
/// FFD packs the last size last: each open bin takes
/// `⌊free / size⌋` of it and each of the `cores − bins` unopened ones
/// `⌊capacity / size⌋`. The sum is 0 for a size above the capacity,
/// where any such item fails; zero-size items take no room, so they
/// fit wherever there is a core to open.
fn last_class_room(
    classes: &[(usize, usize)],
    cores: usize,
    capacity: usize,
    bins: &mut Vec<usize>,
) -> Option<usize> {
    let (&(size, _), larger) = classes.split_last()?;
    let free = ffd_pack_classes(larger, cores, capacity, bins)?;
    if size == 0 {
        return Some(if cores > 0 { usize::MAX } else { 0 });
    }
    let open: usize = free.iter().map(|&f| f / size).sum();
    Some(open + (cores - free.len()) * (capacity / size))
}

/// One physical crossbar-group instance: a unit of one replica of one
/// slice. The scheduler uses this enumeration, which is exactly the
/// item order behind [`PartitionPlan::packing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaItem {
    /// Index into `plan.slices`.
    pub slice_idx: usize,
    /// Replica number within the slice (`0..replication`).
    pub replica: usize,
    /// Ordinal of the unit within the slice.
    pub unit_ordinal: usize,
    /// Crossbars of this instance.
    pub crossbars: usize,
    /// Weight bits of this instance.
    pub weight_bits: usize,
}

/// Enumerates every replica instance of every unit of `plan`, in the
/// deterministic order used for core packing.
pub fn replica_items(plan: &PartitionPlan) -> Vec<ReplicaItem> {
    let mut items = Vec::new();
    for (slice_idx, slice) in plan.slices.iter().enumerate() {
        for replica in 0..slice.replication {
            for (unit_ordinal, (&crossbars, &weight_bits)) in
                slice.unit_crossbars.iter().zip(&slice.unit_weight_bits).enumerate()
            {
                items.push(ReplicaItem {
                    slice_idx,
                    replica,
                    unit_ordinal,
                    crossbars,
                    weight_bits,
                });
            }
        }
    }
    items
}

/// Packs every replica of every unit of the partition onto the chip.
fn pack(plan: &PartitionPlan, chip: &ChipSpec) -> Option<crate::packing::Packing> {
    let items: Vec<PackItem> = replica_items(plan)
        .iter()
        .enumerate()
        .map(|(id, item)| PackItem { id, crossbars: item.crossbars })
        .collect();
    pack_ffd(&items, chip.cores, chip.crossbars_per_core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::partition::{Partition, PartitionGroup};
    use crate::plan::SegmentPlanner;
    use crate::validity::ValidityMap;
    use pim_model::{zoo, Network};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference greedy: the same step choice, but each `+1`
    /// replica repacks the whole multiset with [`ffd_pack_classes`],
    /// from class counts built by a sort. Returns the final packing's
    /// load, as [`optimize_partition_load`] does.
    fn reference_replicate(plan: &mut PartitionPlan, chip: &ChipSpec) -> Option<CoreLoad> {
        if plan.slices.is_empty() {
            return None;
        }
        let mut sizes: Vec<usize> =
            plan.slices.iter().flat_map(|s| s.unit_crossbars.iter().copied()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes.dedup();
        let class = |size: usize| sizes.iter().position(|&s| s == size).unwrap();
        let mut counts = vec![0usize; sizes.len()];
        for slice in &plan.slices {
            for &size in &slice.unit_crossbars {
                counts[class(size)] += slice.replication;
            }
        }
        let mut bins = Vec::new();
        let mut pack = |counts: &[usize]| {
            let classes: Vec<(usize, usize)> = sizes.iter().copied().zip(counts.to_vec()).collect();
            ffd_pack_classes(&classes, chip.cores, chip.crossbars_per_core, &mut bins)
                .map(|free| CoreLoad::from_free(free, chip.crossbars_per_core))
        };
        let mut waves: Vec<usize> = plan.slices.iter().map(NodeSlice::waves_per_sample).collect();
        let mut open: Vec<bool> =
            plan.slices.iter().map(|s| improves(s.mvms_per_sample, s.replication)).collect();
        while let Some(idx) = (0..waves.len()).filter(|&i| open[i]).max_by_key(|&i| waves[i]) {
            if waves.iter().any(|&w| w > waves[idx]) {
                break;
            }
            let slice = &mut plan.slices[idx];
            slice.unit_crossbars.iter().for_each(|&size| counts[class(size)] += 1);
            if pack(&counts).is_some() {
                slice.replication += 1;
                waves[idx] = slice.waves_per_sample();
                open[idx] = improves(slice.mvms_per_sample, slice.replication);
            } else {
                slice.unit_crossbars.iter().for_each(|&size| counts[class(size)] -= 1);
                open[idx] = false;
            }
        }
        pack(&counts)
    }

    /// Replicates every span `net`'s validity map on `chip` allows with
    /// one reused [`Greedy`], and with [`reference_replicate`] on a
    /// fresh plan; returns the number of spans checked.
    fn check_greedy_on_every_span(net: &Network, chip: &ChipSpec) -> usize {
        let seq = decompose(net, chip);
        let validity = ValidityMap::build(&seq, chip);
        let planner = SegmentPlanner::new(net, &seq);
        let mut greedy = Greedy::default();
        let mut spans = 0;
        for start in 0..validity.len() {
            for end in start + 1..=validity.max_end(start) {
                let span = Partition::new(start, end);
                let mut plan = planner.plan(0, span);
                let mut reference = plan.clone();
                let want = reference_replicate(&mut reference, chip);
                let got = optimize_partition_load(&mut plan, chip, &mut greedy);
                let at = format!("{} on {}: {span}", net.name(), chip.name);
                assert_eq!(plan.slices, reference.slices, "{at}: replication counts");
                assert_eq!(got, want, "{at}: core load");
                spans += 1;
            }
        }
        spans
    }

    #[test]
    fn greedy_matches_the_full_check_reference_on_every_span() {
        check_greedy_on_every_span(&zoo::resnet18(), &ChipSpec::chip_s());
        check_greedy_on_every_span(&zoo::squeezenet(), &ChipSpec::chip_l());
    }

    #[test]
    fn check_gives_the_full_packing_verdict_on_random_replica_sequences() {
        // Replicas of random slices in random order, each kept only if
        // it fits, as the greedy keeps them: every verdict must be the
        // full packing's. Two or three distinct sizes on small chips
        // make rejected smallest-size replicas, and accepted ones with
        // larger items after them, common.
        let net = zoo::tiny_cnn();
        let seq = decompose(&net, &ChipSpec::chip_s());
        let template = SegmentPlanner::new(&net, &seq).plan(0, Partition::new(0, 1));
        let mut rng = StdRng::seed_from_u64(0x6EED);
        let mut items = SizeClasses::default();
        let (mut with_room, mut rejected) = (0, 0);
        for case in 0..2_000 {
            let chip = ChipSpec {
                cores: rng.gen_range(1usize..10),
                crossbars_per_core: rng.gen_range(1usize..12),
                ..ChipSpec::chip_s()
            };
            let palette: Vec<usize> = (0..rng.gen_range(2usize..4))
                .map(|_| rng.gen_range(1..=chip.crossbars_per_core))
                .collect();
            let mut plan = template.clone();
            plan.slices = (0..rng.gen_range(1usize..7))
                .map(|_| NodeSlice {
                    unit_crossbars: (0..rng.gen_range(1usize..4))
                        .map(|_| palette[rng.gen_range(0..palette.len())])
                        .collect(),
                    ..template.slices[0].clone()
                })
                .collect();
            items.refill(&plan);
            for step in 0..20 {
                let slice = rng.gen_range(0..plan.slices.len());
                items.add_replica(slice);
                let packs = items.pack(&chip).is_some();
                with_room += usize::from(items.room.is_some());
                assert_eq!(items.check(slice, &chip), packs, "case {case}, step {step}");
                if !packs {
                    items.remove_replica(slice);
                    rejected += 1;
                }
            }
        }
        assert!(with_room > 10_000 && rejected > 10_000, "{with_room} {rejected}");
    }

    #[test]
    #[ignore = "the whole model zoo on three chips; run in release with --ignored"]
    fn zoo_greedy_matches_the_full_check_reference_on_every_span() {
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
                spans += check_greedy_on_every_span(net, &chip);
            }
        }
        assert!(spans > 100_000, "only {spans} spans checked");
    }

    #[test]
    fn last_class_room_gives_the_full_packing_verdict() {
        let mut rng = StdRng::seed_from_u64(0x200D);
        let (mut bins, mut full) = (Vec::new(), Vec::new());
        let (mut zero, mut oversize, mut larger_fail) = (0, 0, 0);
        for case in 0..5_000 {
            let capacity = rng.gen_range(1usize..20);
            let cores = rng.gen_range(0usize..10);
            // Distinct sizes from zero to one past the capacity, so a
            // zero-size and an oversize class both occur, last or not.
            let mut sizes: Vec<usize> =
                (0..rng.gen_range(1usize..6)).map(|_| rng.gen_range(0..capacity + 2)).collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            sizes.dedup();
            let mut classes: Vec<(usize, usize)> =
                sizes.iter().map(|&size| (size, rng.gen_range(0..8))).collect();
            let room = last_class_room(&classes, cores, capacity, &mut bins);
            let last = classes.len() - 1;
            zero += usize::from(classes[last].0 == 0);
            oversize += usize::from(classes[last].0 > capacity);
            larger_fail += usize::from(room.is_none());
            for count in 0..4 * capacity * cores.max(1) {
                classes[last].1 = count;
                let packs = ffd_pack_classes(&classes, cores, capacity, &mut full).is_some();
                assert_eq!(room.is_some_and(|r| count <= r), packs, "case {case}: {classes:?}");
            }
        }
        assert!(
            zero > 100 && oversize > 100 && larger_fail > 100,
            "{zero} {oversize} {larger_fail}"
        );
    }

    fn plans_for(net: &pim_model::Network, chip: &ChipSpec, seed: u64) -> GroupPlan {
        let seq = decompose(net, chip);
        let validity = ValidityMap::build(&seq, chip);
        let mut rng = StdRng::seed_from_u64(seed);
        let group = PartitionGroup::random(&mut rng, &validity);
        GroupPlan::build(net, &seq, &group)
    }

    #[test]
    fn replication_never_violates_chip_capacity() {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let mut plans = plans_for(&net, &chip, 42);
        optimize_group(&mut plans, &chip);
        for p in plans.plans() {
            assert!(
                p.replicated_crossbars() <= chip.total_crossbars(),
                "partition {} uses {} xbars > {}",
                p.index,
                p.replicated_crossbars(),
                chip.total_crossbars()
            );
            assert!(p.packing.is_some());
        }
    }

    #[test]
    fn replication_reduces_bottleneck_waves() {
        let chip = ChipSpec::chip_l();
        let net = zoo::squeezenet();
        let mut plans = plans_for(&net, &chip, 7);
        let before: Vec<usize> = plans.plans().iter().map(|p| p.bottleneck_waves()).collect();
        optimize_group(&mut plans, &chip);
        let after: Vec<usize> = plans.plans().iter().map(|p| p.bottleneck_waves()).collect();
        assert!(
            after.iter().zip(&before).all(|(a, b)| a <= b),
            "waves must not increase: {after:?} vs {before:?}"
        );
        assert!(
            after.iter().zip(&before).any(|(a, b)| a < b),
            "a big chip should find replication headroom"
        );
    }

    #[test]
    fn replication_counts_are_at_least_one() {
        let chip = ChipSpec::chip_m();
        let net = zoo::tiny_cnn();
        let mut plans = plans_for(&net, &chip, 9);
        optimize_group(&mut plans, &chip);
        for p in plans.plans() {
            for s in &p.slices {
                assert!(s.replication >= 1);
            }
        }
    }

    #[test]
    fn tight_partition_keeps_replication_one() {
        // A partition that (nearly) fills the chip at r=1 cannot
        // replicate. Greedy partitioning produces exactly this case.
        let chip = ChipSpec::chip_s();
        let net = zoo::vgg16();
        let seq = decompose(&net, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        // Greedy-style first span: maximal from 0.
        let first_end = validity.max_end(0);
        let mut cuts = vec![first_end];
        let mut start = first_end;
        while start < seq.len() {
            let e = validity.max_end(start);
            if e < seq.len() {
                cuts.push(e);
            }
            start = e;
        }
        let group = PartitionGroup::from_cuts(cuts, &validity).unwrap();
        let mut plans = GroupPlan::build(&net, &seq, &group);
        optimize_group(&mut plans, &chip);
        // After optimization a maximal greedy span should leave the
        // chip highly utilized, and never exceed it.
        let p0 = &plans.plans()[0];
        let used = p0.replicated_crossbars();
        assert!(used <= chip.total_crossbars());
        assert!(
            used * 2 > chip.total_crossbars(),
            "maximal span should utilize over half the chip: {used}/{}",
            chip.total_crossbars()
        );
    }

    #[test]
    fn single_mvm_layers_do_not_replicate() {
        // Linear layers run one MVM per sample; replication cannot
        // reduce ceil(1/r), so the optimizer must leave them at 1.
        let chip = ChipSpec::chip_m();
        let net = zoo::mlp(1024, &[512, 256], 10);
        let mut plans = plans_for(&net, &chip, 1);
        optimize_group(&mut plans, &chip);
        for p in plans.plans() {
            for s in &p.slices {
                assert_eq!(s.replication, 1, "linear layer must not replicate");
            }
        }
    }
}
