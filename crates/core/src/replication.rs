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
//! Every `+1` replica is checked against the chip with
//! [`ffd_pack_classes`] over a running per-size item count, which
//! gives the same verdict as repacking every replica item with
//! [`pack_ffd`] at a fraction of the cost. [`optimize_partition`]
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
    /// bisected.
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
            if items.pack(chip).is_some() {
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
}

impl SizeClasses {
    /// Resets to the multiset of every replica of every unit of `plan`.
    fn refill(&mut self, plan: &PartitionPlan) {
        let classes = &mut self.classes;
        classes.clear();
        classes.extend(plan.slices.iter().flat_map(|s| s.unit_crossbars.iter().map(|&c| (c, 0))));
        classes.sort_unstable_by_key(|&(size, _)| std::cmp::Reverse(size));
        classes.dedup();
        self.replica.clear();
        self.replica_end.clear();
        for slice in &plan.slices {
            let first = self.replica.len();
            for &size in &slice.unit_crossbars {
                let class = classes.partition_point(|&(s, _)| s > size);
                match self.replica[first..].iter_mut().find(|(c, _)| *c == class) {
                    Some((_, n)) => *n += 1,
                    None => self.replica.push((class, 1)),
                }
            }
            self.replica_end.push(self.replica.len());
        }
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

    /// Free crossbars per core of the packing [`pack`] would build
    /// (its `slack`), or `None` where it would fail.
    fn pack(&mut self, chip: &ChipSpec) -> Option<&[usize]> {
        ffd_pack_classes(&self.classes, chip.cores, chip.crossbars_per_core, &mut self.bins)
    }
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
    use crate::partition::PartitionGroup;
    use crate::validity::ValidityMap;
    use pim_model::zoo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
