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
//! Every `+1` replica is checked against the chip with
//! [`ffd_fits_classes`] over a running per-size item count, which
//! gives the same verdict as repacking every replica item with
//! [`pack_ffd`] at a fraction of the cost. Only the final packing is
//! built item by item.

use crate::packing::{ffd_fits_classes, pack_ffd, PackItem};
use crate::plan::{GroupPlan, PartitionPlan};
use pim_arch::ChipSpec;

/// Optimizes one partition in place: raises replication counts
/// greedily on the bottleneck slice while everything still packs onto
/// the chip, then records the final core packing.
///
/// Condition 2 of §III-B is honored by construction: replication is a
/// per-slice (per-kernel) property, so all units of a kernel share one
/// count. Condition 3 (chip memory) is enforced by the packing check.
pub fn optimize_partition(plan: &mut PartitionPlan, chip: &ChipSpec) {
    if plan.slices.is_empty() {
        return;
    }
    let mut items = SizeClasses::of(plan);
    let mut saturated = vec![false; plan.slices.len()];
    while let Some(bottleneck) = plan
        .slices
        .iter()
        .enumerate()
        .filter(|(i, s)| !saturated[*i] && improves(s.mvms_per_sample, s.replication))
        .max_by_key(|(_, s)| s.waves_per_sample())
    {
        let idx = bottleneck.0;
        // The true pipeline bottleneck may be a saturated slice; if so,
        // replicating others cannot help.
        let best_waves = plan.bottleneck_waves();
        if plan.slices[idx].waves_per_sample() < best_waves {
            break;
        }
        items.add_replica(idx);
        if items.fit(chip) {
            plan.slices[idx].replication += 1;
        } else {
            items.remove_replica(idx);
            saturated[idx] = true;
        }
    }
    plan.packing = pack(plan, chip);
    debug_assert!(plan.packing.is_some(), "replication-1 partitions must pack");
}

/// Runs [`optimize_partition`] over every partition of a group.
pub fn optimize_group(group: &mut GroupPlan, chip: &ChipSpec) {
    for plan in group.plans_mut() {
        optimize_partition(plan, chip);
    }
}

fn improves(spatial: usize, replication: usize) -> bool {
    spatial.div_ceil(replication + 1) < spatial.div_ceil(replication)
}

/// A partition's replica item multiset as `(crossbars, count)` size
/// classes in descending size order, kept current across `+1`
/// replicas instead of re-enumerated.
struct SizeClasses {
    classes: Vec<(usize, usize)>,
    /// Per slice: one replica's `(class index, units)` histogram.
    replica: Vec<Vec<(usize, usize)>>,
}

impl SizeClasses {
    /// The multiset of every replica of every unit of `plan`.
    fn of(plan: &PartitionPlan) -> Self {
        let mut classes: Vec<(usize, usize)> = plan
            .slices
            .iter()
            .flat_map(|s| s.unit_crossbars.iter().map(|&size| (size, 0)))
            .collect();
        classes.sort_unstable_by_key(|&(size, _)| std::cmp::Reverse(size));
        classes.dedup();
        let replica = plan
            .slices
            .iter()
            .map(|slice| {
                let mut histogram: Vec<(usize, usize)> = Vec::new();
                for &size in &slice.unit_crossbars {
                    let class = classes.partition_point(|&(s, _)| s > size);
                    match histogram.iter_mut().find(|(c, _)| *c == class) {
                        Some((_, n)) => *n += 1,
                        None => histogram.push((class, 1)),
                    }
                }
                histogram
            })
            .collect();
        let mut items = Self { classes, replica };
        for (idx, slice) in plan.slices.iter().enumerate() {
            (0..slice.replication).for_each(|_| items.add_replica(idx));
        }
        items
    }

    fn add_replica(&mut self, slice: usize) {
        for &(class, n) in &self.replica[slice] {
            self.classes[class].1 += n;
        }
    }

    fn remove_replica(&mut self, slice: usize) {
        for &(class, n) in &self.replica[slice] {
            self.classes[class].1 -= n;
        }
    }

    /// Same verdict as `pack(plan, chip).is_some()`.
    fn fit(&self, chip: &ChipSpec) -> bool {
        ffd_fits_classes(&self.classes, chip.cores, chip.crossbars_per_core)
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
