//! Instruction scheduling (paper Fig. 3 step (iii)).
//!
//! Produces one [`ChipProgram`] per partition: every core first runs
//! its weight-replace phase (`LOAD_WEIGHT` + `WRITE_WEIGHT`), then the
//! batch streams through the partition's layer pipeline in
//! `chunks_per_sample` chunks — entry cores `LOAD_DATA`, producers
//! `SEND_DATA` to consumers, exit cores `STORE_DATA`. Send is
//! buffered (non-blocking) and Recv blocks, so emitting instructions
//! in topological slice order guarantees deadlock freedom.

use crate::estimate::Occupancy;
use crate::plan::PartitionPlan;
use crate::replication::replica_items;
use pim_arch::{ChipSpec, ScheduleMode};
use pim_isa::{ChipProgram, CoreId, Instruction, Tag, VectorOpKind};
use pim_model::{LayerKind, Network, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Scheduling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerOptions {
    /// Samples per batch (weights are reused across the batch).
    pub batch: usize,
    /// Pipeline chunks per sample: producers hand off partial feature
    /// maps this many times per sample, enabling intra-sample
    /// pipelining in the simulator.
    pub chunks_per_sample: usize,
    /// Stage dispatch the programs are scheduled for. Under
    /// [`ScheduleMode::Interleaved`], alternating partitions shift
    /// onto disjoint crossbar groups where capacity allows (see
    /// `interleave_offsets`), so the interleaved executor can
    /// actually overlap adjacent stages instead of serializing on the
    /// core-0 claim every packing otherwise starts from.
    pub schedule: ScheduleMode,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        Self { batch: 1, chunks_per_sample: 4, schedule: ScheduleMode::Barrier }
    }
}

/// Schedules one partition into per-core instruction streams.
///
/// `tag_base` is advanced past all rendezvous tags this partition
/// consumed, so successive partitions never collide.
pub fn schedule_partition(
    network: &Network,
    plan: &PartitionPlan,
    chip: &ChipSpec,
    options: &SchedulerOptions,
    tag_base: &mut u64,
) -> ChipProgram {
    schedule_partition_at(network, plan, chip, options, tag_base, 0)
}

/// [`schedule_partition`] with every core assignment shifted up by
/// `core_offset` — how interleaved groups land alternating partitions
/// on disjoint crossbar groups (see [`interleave_offsets`]).
fn schedule_partition_at(
    network: &Network,
    plan: &PartitionPlan,
    chip: &ChipSpec,
    options: &SchedulerOptions,
    tag_base: &mut u64,
    core_offset: usize,
) -> ChipProgram {
    let mut program = ChipProgram::new(chip.cores);
    let chunks = options.chunks_per_sample.max(1);
    let batch = options.batch.max(1);
    let activation_bits = chip.precision.bits();

    // --- Weight replacement phase -----------------------------------
    let items = replica_items(plan);
    let assignment: Vec<usize> = plan
        .packing
        .as_ref()
        .map(|p| p.assignment.iter().map(|&c| c + core_offset).collect())
        .unwrap_or_else(|| {
            items.iter().enumerate().map(|(i, _)| (i + core_offset) % chip.cores).collect()
        });
    debug_assert!(
        assignment.iter().all(|&c| c < chip.cores),
        "core offset must keep every assignment on-chip"
    );
    // Weights stream from DRAM once (replica 0) and are broadcast to
    // replica crossbars on chip (paper §II-A: "loaded from global
    // memory and broadcast to the crossbars for writing"), so DRAM
    // load traffic is not multiplied by replication while cell writes
    // are.
    let mut per_core_load_bits = vec![0usize; chip.cores];
    let mut per_core_write_bits = vec![0usize; chip.cores];
    let mut per_core_xbars = vec![0usize; chip.cores];
    for (item, &core) in items.iter().zip(&assignment) {
        if item.replica == 0 {
            per_core_load_bits[core] += item.weight_bits;
        }
        per_core_write_bits[core] += item.weight_bits;
        per_core_xbars[core] += item.crossbars;
    }
    for core in 0..chip.cores {
        if per_core_write_bits[core] == 0 {
            continue;
        }
        let stream = program.core_mut(CoreId(core));
        if per_core_load_bits[core] > 0 {
            stream.push(Instruction::LoadWeight { bytes: per_core_load_bits[core].div_ceil(8) });
        }
        stream.push(Instruction::WriteWeight {
            bits: per_core_write_bits[core],
            crossbars: per_core_xbars[core],
        });
    }

    // --- Home core per slice (replica 0, first unit) -----------------
    let mut home = vec![CoreId(0); plan.slices.len()];
    for (pos, item) in items.iter().enumerate() {
        if item.replica == 0 && item.unit_ordinal == 0 {
            home[item.slice_idx] = CoreId(assignment[pos]);
        }
    }

    // --- Dataflow edges ----------------------------------------------
    // slice j receives from slice i when i's node is a weighted
    // ancestor of j's node and both slices are in this partition.
    let node_to_slice: BTreeMap<NodeId, usize> =
        plan.slices.iter().enumerate().map(|(i, s)| (s.node, i)).collect();
    let mut edges: Vec<(usize, usize, usize)> = Vec::new(); // (from, to, bytes/sample)
    for (j, slice) in plan.slices.iter().enumerate() {
        for ancestor in network.weighted_ancestors(slice.node) {
            if let Some(&i) = node_to_slice.get(&ancestor) {
                if i != j {
                    let bytes = network.node(ancestor).output_shape.bytes(activation_bits);
                    edges.push((i, j, bytes));
                }
            }
        }
    }

    // Entry transfers feed their first consuming slice; exits come
    // from the producing slice (or the last slice for attached-only
    // outputs).
    let mut entry_of: Vec<(usize, usize)> = Vec::new(); // (slice, bytes/sample)
    for t in &plan.entries {
        let consumer = plan
            .slices
            .iter()
            .position(|s| {
                network.weighted_ancestors(s.node).contains(&t.node)
                    || network.node(s.node).inputs.contains(&t.node)
            })
            .unwrap_or(0);
        entry_of.push((consumer, t.bytes_per_sample));
    }
    let mut exit_of: Vec<(usize, usize)> = Vec::new();
    for t in &plan.exits {
        let producer = node_to_slice.get(&t.node).copied().unwrap_or_else(|| {
            // Attached node: store from the slice of its nearest
            // weighted ancestor in this partition, else the last slice.
            network
                .weighted_ancestors(t.node)
                .iter()
                .find_map(|a| node_to_slice.get(a).copied())
                .unwrap_or(plan.slices.len().saturating_sub(1))
        });
        exit_of.push((producer, t.bytes_per_sample));
    }

    // VFU share per slice: attach each non-crossbar node's work to the
    // slice of its nearest local weighted ancestor.
    let mut vfu_share = vec![0usize; plan.slices.len()];
    if !plan.slices.is_empty() {
        for &attached in &plan.attached {
            let target = network
                .weighted_ancestors(attached)
                .iter()
                .find_map(|a| node_to_slice.get(a).copied())
                .unwrap_or(plan.slices.len() - 1);
            vfu_share[target] += vfu_elements_of(network, attached);
        }
        for (i, slice) in plan.slices.iter().enumerate() {
            vfu_share[i] += slice.reduction_elements;
        }
    }

    // --- Pipelined batch execution ----------------------------------
    let edge_count = edges.len().max(1) as u64;
    for sample in 0..batch {
        for chunk in 0..chunks {
            let step = (sample * chunks + chunk) as u64;
            for (j, slice) in plan.slices.iter().enumerate() {
                let core = home[j];
                // Entry loads for this slice.
                for &(consumer, bytes) in &entry_of {
                    if consumer == j {
                        let share = chunk_share(bytes, chunk, chunks);
                        if share > 0 {
                            program.core_mut(core).push(Instruction::LoadData { bytes: share });
                        }
                    }
                }
                // Receives from producers on other cores.
                for (e, &(from, to, bytes)) in edges.iter().enumerate() {
                    if to == j && home[from] != core {
                        let share = chunk_share(bytes, chunk, chunks);
                        if share > 0 {
                            program.core_mut(core).push(Instruction::Recv {
                                from: home[from],
                                bytes: share,
                                tag: Tag(*tag_base + step * edge_count + e as u64),
                            });
                        }
                    }
                }
                // Compute.
                let waves = chunk_share(slice.waves_per_sample(), chunk, chunks);
                let activations = chunk_share(slice.activations_per_sample, chunk, chunks);
                if waves > 0 {
                    program.core_mut(core).push(Instruction::Mvmul {
                        waves,
                        activations,
                        node: slice.node.index(),
                    });
                }
                let vfu = chunk_share(vfu_share[j], chunk, chunks);
                if vfu > 0 {
                    program
                        .core_mut(core)
                        .push(Instruction::VectorOp { op: VectorOpKind::Relu, elements: vfu });
                }
                // Sends to consumers on other cores.
                for (e, &(from, to, bytes)) in edges.iter().enumerate() {
                    if from == j && home[to] != core {
                        let share = chunk_share(bytes, chunk, chunks);
                        if share > 0 {
                            program.core_mut(core).push(Instruction::Send {
                                to: home[to],
                                bytes: share,
                                tag: Tag(*tag_base + step * edge_count + e as u64),
                            });
                        }
                    }
                }
                // Exit stores produced by this slice.
                for &(producer, bytes) in &exit_of {
                    if producer == j {
                        let share = chunk_share(bytes, chunk, chunks);
                        if share > 0 {
                            program.core_mut(core).push(Instruction::StoreData { bytes: share });
                        }
                    }
                }
            }
        }
    }
    *tag_base += (batch * chunks) as u64 * edge_count;
    program
}

/// Schedules every partition of a group, returning one program per
/// partition in execution order.
///
/// Under [`ScheduleMode::Interleaved`] alternating partitions are
/// shifted onto disjoint crossbar groups where capacity allows, so
/// the interleaved executor overlaps adjacent stages instead of
/// serializing on shared cores (see `interleave_offsets`).
pub fn schedule_group(
    network: &Network,
    plans: &[PartitionPlan],
    chip: &ChipSpec,
    options: &SchedulerOptions,
) -> Vec<ChipProgram> {
    let offsets = match options.schedule {
        ScheduleMode::Barrier => vec![0; plans.len()],
        ScheduleMode::Interleaved => interleave_offsets(&Occupancy::of_plans(plans, chip), chip),
    };
    let mut tag_base = 0u64;
    plans
        .iter()
        .zip(&offsets)
        .map(|(p, &off)| schedule_partition_at(network, p, chip, options, &mut tag_base, off))
        .collect()
}

/// Per-partition core offsets that let [`ScheduleMode::Interleaved`]
/// overlap adjacent stages on disjoint crossbar groups.
///
/// The packer assigns every partition's crossbars from core 0 up, so
/// consecutive stages collide on core 0 and the interleaved executor
/// serializes them round-major. When every partition is packed and
/// the widest one occupies at most half the chip, odd-indexed
/// partitions shift onto the upper half: adjacent stages then claim
/// disjoint groups and genuinely overlap. Anything else — an unpacked
/// plan, or a partition wider than half the chip — keeps every offset
/// at zero, leaving the schedule unchanged. The estimator's occupancy
/// bound applies the same offsets so GA fitness prices exactly the
/// overlap the executor will deliver.
pub(crate) fn interleave_offsets(occupancy: &[Occupancy], chip: &ChipSpec) -> Vec<usize> {
    let zeros = vec![0usize; occupancy.len()];
    let mut base = 0usize;
    for &occupied in occupancy {
        let Occupancy::Packed(width) = occupied else { return zeros };
        base = base.max(width);
    }
    if base == 0 || 2 * base > chip.cores {
        return zeros;
    }
    (0..occupancy.len()).map(|i| if i % 2 == 1 { base } else { 0 }).collect()
}

/// Splits `total` into `chunks` shares: the remainder goes to the
/// first chunk so shares sum exactly to `total`.
fn chunk_share(total: usize, chunk: usize, chunks: usize) -> usize {
    let base = total / chunks;
    if chunk == 0 {
        base + total % chunks
    } else {
        base
    }
}

fn vfu_elements_of(network: &Network, id: NodeId) -> usize {
    let node = network.node(id);
    match node.kind {
        LayerKind::Pool2d { kernel, .. } => node.output_shape.elements() * kernel * kernel,
        LayerKind::GlobalAvgPool => network.node(node.inputs[0]).output_shape.elements(),
        LayerKind::Softmax => node.output_shape.elements() * 3,
        LayerKind::Flatten => 0,
        _ => node.output_shape.elements(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::partition::PartitionGroup;
    use crate::plan::GroupPlan;
    use crate::replication::optimize_group;
    use crate::validity::ValidityMap;
    use pim_model::zoo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compile(net: &Network, chip: &ChipSpec, seed: u64) -> (GroupPlan, Vec<ChipProgram>) {
        let seq = decompose(net, chip);
        let validity = ValidityMap::build(&seq, chip);
        let mut rng = StdRng::seed_from_u64(seed);
        let group = PartitionGroup::random(&mut rng, &validity);
        let mut plans = GroupPlan::build(net, &seq, &group);
        optimize_group(&mut plans, chip);
        let options = SchedulerOptions { batch: 4, chunks_per_sample: 2, ..Default::default() };
        let programs = schedule_group(net, plans.plans(), chip, &options);
        (plans, programs)
    }

    #[test]
    fn one_program_per_partition() {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let (plans, programs) = compile(&net, &chip, 1);
        assert_eq!(programs.len(), plans.len());
        for p in &programs {
            assert_eq!(p.cores(), chip.cores);
            assert!(p.total_instructions() > 0);
        }
    }

    #[test]
    fn weight_bits_written_match_plan() {
        let chip = ChipSpec::chip_m();
        let net = zoo::squeezenet();
        let (plans, programs) = compile(&net, &chip, 2);
        for (plan, program) in plans.plans().iter().zip(&programs) {
            let stats = program.stats();
            // Bit accounting uses per-unit integer shares; allow the
            // division slack (< one bit per unit instance).
            let expected = plan.replicated_weight_bits();
            let got = stats.weight_write_bits;
            let slack = replica_items(plan).len();
            assert!(
                got <= expected && got + 8 * slack >= expected.saturating_sub(8 * slack),
                "partition {}: wrote {} bits vs plan {}",
                plan.index,
                got,
                expected
            );
        }
    }

    #[test]
    fn sends_and_recvs_pair_exactly() {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let (_, programs) = compile(&net, &chip, 3);
        for program in &programs {
            let mut sends: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
            let mut recvs: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
            for core in program.iter() {
                for instr in core.iter() {
                    match *instr {
                        Instruction::Send { to, bytes, tag } => {
                            assert!(
                                sends.insert(tag.0, (to.index(), bytes)).is_none(),
                                "duplicate send tag {tag}"
                            );
                        }
                        Instruction::Recv { from, bytes, tag } => {
                            assert!(
                                recvs.insert(tag.0, (from.index(), bytes)).is_none(),
                                "duplicate recv tag {tag}"
                            );
                        }
                        _ => {}
                    }
                }
            }
            assert_eq!(sends.len(), recvs.len(), "every send has a recv");
            for (tag, (to, bytes)) in &sends {
                let (_, rbytes) = recvs.get(tag).expect("matching recv");
                assert_eq!(bytes, rbytes, "byte mismatch on tag {tag}");
                // The receive happens on the destination core.
                let dest_prog = program.core(CoreId(*to));
                assert!(dest_prog
                    .iter()
                    .any(|i| matches!(i, Instruction::Recv { tag: t, .. } if t.0 == *tag)));
            }
        }
    }

    #[test]
    fn dram_traffic_matches_plan_per_batch() {
        let chip = ChipSpec::chip_s();
        let net = zoo::tiny_cnn();
        let (plans, programs) = compile(&net, &chip, 4);
        let batch = 4;
        for (plan, program) in plans.plans().iter().zip(&programs) {
            let stats = program.stats();
            assert_eq!(
                stats.data_load_bytes,
                plan.entry_bytes_per_sample() * batch,
                "partition {} entry bytes",
                plan.index
            );
            assert_eq!(
                stats.data_store_bytes,
                plan.exit_bytes_per_sample() * batch,
                "partition {} exit bytes",
                plan.index
            );
        }
    }

    #[test]
    fn mvm_waves_scale_with_batch() {
        let chip = ChipSpec::chip_s();
        let net = zoo::tiny_cnn();
        let seq = decompose(&net, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        let group = crate::baselines::greedy(&validity);
        let mut plans = GroupPlan::build(&net, &seq, &group);
        optimize_group(&mut plans, &chip);
        let mk = |batch| {
            let options = SchedulerOptions { batch, chunks_per_sample: 2, ..Default::default() };
            let programs = schedule_group(&net, plans.plans(), &chip, &options);
            programs.iter().map(|p| p.stats().mvm_waves).sum::<usize>()
        };
        assert_eq!(mk(8), 4 * mk(2));
    }

    #[test]
    fn chunk_share_sums_to_total() {
        for total in [0usize, 1, 7, 100, 12345] {
            for chunks in [1usize, 2, 3, 8] {
                let sum: usize = (0..chunks).map(|c| chunk_share(total, c, chunks)).sum();
                assert_eq!(sum, total);
            }
        }
    }

    fn touched_cores(program: &ChipProgram) -> std::collections::BTreeSet<usize> {
        program
            .iter()
            .enumerate()
            .filter(|(_, core)| core.iter().next().is_some())
            .map(|(i, _)| i)
            .collect()
    }

    fn random_plans(
        net: &Network,
        chip: &ChipSpec,
        want_offsets: bool,
    ) -> Option<crate::plan::GroupPlan> {
        let seq = decompose(net, chip);
        let validity = ValidityMap::build(&seq, chip);
        (0..64u64).find_map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let group = PartitionGroup::random(&mut rng, &validity);
            let mut plans = GroupPlan::build(net, &seq, &group);
            optimize_group(&mut plans, chip);
            let applied = interleave_offsets(&Occupancy::of_plans(plans.plans(), chip), chip)
                .iter()
                .any(|&o| o > 0);
            (plans.len() > 1 && applied == want_offsets).then_some(plans)
        })
    }

    #[test]
    fn interleaved_groups_pack_alternating_partitions_disjointly() {
        // A multi-partition group whose widest partition fits half the
        // chip: offsets apply, so alternating interleaved programs must
        // land on disjoint crossbar groups.
        let chip = ChipSpec::chip_l();
        let net = zoo::tiny_cnn();
        let plans = random_plans(&net, &chip, true)
            .expect("some seed yields a half-chip multi-partition group");
        let base = SchedulerOptions { batch: 2, chunks_per_sample: 2, ..Default::default() };
        let barrier = schedule_group(&net, plans.plans(), &chip, &base);
        let interleaved = schedule_group(
            &net,
            plans.plans(),
            &chip,
            &SchedulerOptions { schedule: ScheduleMode::Interleaved, ..base },
        );
        // Adjacent interleaved stages claim disjoint groups...
        for pair in interleaved.windows(2) {
            let (a, b) = (touched_cores(&pair[0]), touched_cores(&pair[1]));
            assert!(a.is_disjoint(&b), "adjacent interleaved stages must not share cores");
        }
        // ...whereas every barrier packing starts from core 0.
        for program in &barrier {
            assert!(touched_cores(program).contains(&0));
        }
        // The shift relocates the work without changing it.
        for (a, b) in barrier.iter().zip(&interleaved) {
            assert_eq!(a.total_instructions(), b.total_instructions());
            assert_eq!(a.stats().mvm_waves, b.stats().mvm_waves);
        }
    }

    #[test]
    fn offsets_stay_zero_when_a_partition_needs_over_half_the_chip() {
        // When the widest partition exceeds half the chip, shifting
        // would fall off the end: the interleaved schedule must be
        // byte-identical to the barrier one.
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let plans =
            random_plans(&net, &chip, false).expect("some seed yields an over-half-chip group");
        let base = SchedulerOptions { batch: 2, chunks_per_sample: 2, ..Default::default() };
        let barrier = schedule_group(&net, plans.plans(), &chip, &base);
        let interleaved = schedule_group(
            &net,
            plans.plans(),
            &chip,
            &SchedulerOptions { schedule: ScheduleMode::Interleaved, ..base },
        );
        assert_eq!(barrier, interleaved, "zero offsets must leave programs untouched");
    }

    #[test]
    fn tags_unique_across_partitions() {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let (_, programs) = compile(&net, &chip, 5);
        let mut all_tags = std::collections::BTreeSet::new();
        for program in &programs {
            for core in program.iter() {
                for instr in core.iter() {
                    if let Instruction::Send { tag, .. } = instr {
                        assert!(all_tags.insert(tag.0), "tag {tag} reused across partitions");
                    }
                }
            }
        }
    }
}
