//! Partition plans: the semantic content of each partition.
//!
//! A [`PartitionPlan`] resolves a unit span into: the weighted-layer
//! *slices* it computes, the non-crossbar nodes attached to it (paper
//! §III-B2), and the DRAM entry/exit transfers implied by the data
//! dependence graph (§III-B3) — including the multi-entry/exit cases
//! residual networks create.

use crate::decompose::UnitSequence;
use crate::packing::Packing;
use crate::partition::{Partition, PartitionGroup};
use pim_model::{LayerKind, Network, NodeId};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The portion of one weighted node mapped inside one partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSlice {
    /// The Conv/Linear node.
    pub node: NodeId,
    /// Unit indices (within the global sequence) in this partition.
    pub units: Range<usize>,
    /// Crossbars at replication 1.
    pub crossbars: usize,
    /// Weight bits at replication 1.
    pub weight_bits: usize,
    /// Exact crossbar footprint of each unit in `units` (same order).
    pub unit_crossbars: Vec<usize>,
    /// Exact weight bits of each unit in `units` (same order).
    pub unit_weight_bits: Vec<usize>,
    /// Fraction of the node's weights (and outputs) this slice covers
    /// (1.0 when the node is wholly inside the partition).
    pub fraction: f64,
    /// MVM waves per sample at replication 1 (= output spatial
    /// positions of the layer).
    pub mvms_per_sample: usize,
    /// Crossbar activations per sample (spatial × crossbars; invariant
    /// under replication).
    pub activations_per_sample: usize,
    /// Extra VFU element-ops per sample for partial-sum reduction of
    /// row-split units.
    pub reduction_elements: usize,
    /// Weight replication count (≥ 1); set by the replication
    /// optimizer, 1 until then.
    pub replication: usize,
}

impl NodeSlice {
    /// A placeholder a [`PlanBuffer`] refill overwrites field by field.
    fn empty() -> Self {
        Self {
            node: NodeId(0),
            units: 0..0,
            crossbars: 0,
            weight_bits: 0,
            unit_crossbars: Vec::new(),
            unit_weight_bits: Vec::new(),
            fraction: 0.0,
            mvms_per_sample: 0,
            activations_per_sample: 0,
            reduction_elements: 0,
            replication: 1,
        }
    }

    /// Crossbars including replication.
    pub fn replicated_crossbars(&self) -> usize {
        self.crossbars * self.replication
    }

    /// Weight bits including replication (cells written during the
    /// weight-replace phase).
    pub fn replicated_weight_bits(&self) -> usize {
        self.weight_bits * self.replication
    }

    /// MVM waves per sample after replication.
    pub fn waves_per_sample(&self) -> usize {
        self.mvms_per_sample.div_ceil(self.replication)
    }
}

/// A tensor moved between a partition and global memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TensorTransfer {
    /// The node whose output tensor is moved.
    pub node: NodeId,
    /// Bytes per sample.
    pub bytes_per_sample: usize,
}

/// Everything the compiler knows about one partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// Position in the execution order.
    pub index: usize,
    /// The unit span.
    pub partition: Partition,
    /// Weighted-layer slices computed here, in topological order.
    pub slices: Vec<NodeSlice>,
    /// Non-crossbar nodes executed here (ReLU, pool, BN, Add, ...).
    pub attached: Vec<NodeId>,
    /// Tensors loaded from global memory at partition entry.
    pub entries: Vec<TensorTransfer>,
    /// Tensors stored to global memory at partition exit.
    pub exits: Vec<TensorTransfer>,
    /// VFU element-ops per sample (attached layers + partial-sum
    /// reductions).
    pub vfu_elements_per_sample: usize,
    /// Bytes per sample moved core-to-core inside the partition.
    pub intra_traffic_bytes_per_sample: usize,
    /// Core assignment of replicated slice instances (filled by the
    /// replication optimizer).
    pub packing: Option<Packing>,
}

impl PartitionPlan {
    /// Total crossbars including replication.
    pub fn replicated_crossbars(&self) -> usize {
        self.slices.iter().map(NodeSlice::replicated_crossbars).sum()
    }

    /// Total weight bits written during the replace phase (replication
    /// included).
    pub fn replicated_weight_bits(&self) -> usize {
        self.slices.iter().map(NodeSlice::replicated_weight_bits).sum()
    }

    /// Weight bytes streamed from DRAM during the replace phase.
    ///
    /// Replicas are written from a single DRAM stream (broadcast on
    /// chip), so DRAM traffic is *not* multiplied by replication.
    pub fn weight_load_bytes(&self) -> usize {
        self.slices.iter().map(|s| s.weight_bits.div_ceil(8)).sum()
    }

    /// Entry bytes per sample.
    pub fn entry_bytes_per_sample(&self) -> usize {
        self.entries.iter().map(|t| t.bytes_per_sample).sum()
    }

    /// Exit bytes per sample.
    pub fn exit_bytes_per_sample(&self) -> usize {
        self.exits.iter().map(|t| t.bytes_per_sample).sum()
    }

    /// The pipeline-bottleneck MVM wave count per sample at current
    /// replication.
    pub fn bottleneck_waves(&self) -> usize {
        self.slices.iter().map(NodeSlice::waves_per_sample).max().unwrap_or(0)
    }

    /// Crossbar activations per sample (replication-invariant).
    pub fn activations_per_sample(&self) -> usize {
        self.slices.iter().map(|s| s.activations_per_sample).sum()
    }
}

/// Precomputed, group-independent planning state for one
/// `(network, decomposition)` pair.
///
/// The key fact behind it: a partition's plan depends **only on its
/// own `[start, end)` unit span**, never on where the group's other
/// cuts fall. Slices are the units inside the span; a non-crossbar
/// node attaches to the span containing its latest-produced transitive
/// input's *unit position* (a group-independent number, since the
/// unit→partition map is monotone); and entries/exits reduce to
/// "is this producer/consumer wholly (or partially) inside the span".
/// The planner precomputes those per-node positions once, after which
/// [`SegmentPlanner::plan`] resolves any contiguous segment in
/// isolation — the foundation of the fitness cache's segment memo,
/// which scores each span once and reuses that score across every
/// partition group in a GA population that shares it.
///
/// It also precomputes each weighted node's total weight bits and a
/// node → unit-range index, so resolving a span costs time in
/// proportion to the span (its units and the nodes attached to it),
/// never to the layers it slices. [`SegmentPlanner::plan`] builds a
/// fresh plan; the GA's segment misses refill one reused plan
/// buffer instead, through the same code, and allocate
/// nothing once the buffer has grown to the widest span.
pub struct SegmentPlanner<'a> {
    network: &'a Network,
    seq: &'a UnitSequence,
    /// `(node, start, end)` per weighted node, in unit order.
    node_ranges: Vec<(NodeId, usize, usize)>,
    /// Total weight bits of each weighted node (same order as
    /// `node_ranges`).
    node_bits: Vec<usize>,
    /// Index into `node_ranges` of every node (by `NodeId::index`),
    /// `usize::MAX` for nodes without units.
    range_index: Vec<usize>,
    /// Unit index -> index into `node_ranges` of the owning node.
    unit_owner: Vec<usize>,
    /// Production unit position of every node (by `NodeId::index`):
    /// a weighted node produces at its last unit; an Input "before
    /// unit 0"; any other node at the max over its inputs.
    produced_pos: Vec<usize>,
    /// Non-weighted, non-Input nodes sorted by (production position,
    /// id): the nodes attached to a segment are one contiguous range.
    attach_order: Vec<(usize, NodeId)>,
}

/// A caller-owned [`PartitionPlan`] that [`SegmentPlanner`] refills
/// span after span. Slices a narrower span leaves over are kept, unit
/// vectors and all, for the next wider one, so a refill allocates only
/// while the buffer is still growing.
#[derive(Debug)]
pub(crate) struct PlanBuffer {
    plan: PartitionPlan,
    spare: Vec<NodeSlice>,
}

impl Default for PlanBuffer {
    fn default() -> Self {
        let plan = PartitionPlan {
            index: 0,
            partition: Partition { start: 0, end: 0 },
            slices: Vec::new(),
            attached: Vec::new(),
            entries: Vec::new(),
            exits: Vec::new(),
            vfu_elements_per_sample: 0,
            intra_traffic_bytes_per_sample: 0,
            packing: None,
        };
        Self { plan, spare: Vec::new() }
    }
}

impl<'a> SegmentPlanner<'a> {
    /// Precomputes the planning state (one pass over the network).
    pub fn new(network: &'a Network, seq: &'a UnitSequence) -> Self {
        let node_ranges: Vec<(NodeId, usize, usize)> =
            seq.node_ranges().map(|(n, r)| (n, r.start, r.end)).collect();
        let node_bits =
            node_ranges.iter().map(|&(_, start, end)| seq.span_weight_bits(start..end)).collect();
        let mut range_index = vec![usize::MAX; network.nodes().len()];
        let mut unit_owner = vec![usize::MAX; seq.len()];
        for (ri, &(node, start, end)) in node_ranges.iter().enumerate() {
            range_index[node.index()] = ri;
            for slot in &mut unit_owner[start..end] {
                *slot = ri;
            }
        }
        let mut produced_pos = vec![0usize; network.nodes().len()];
        for &(node, _, end) in &node_ranges {
            produced_pos[node.index()] = end - 1;
        }
        let mut attach_order = Vec::new();
        for node in network.nodes() {
            if node.kind.is_weighted() || matches!(node.kind, LayerKind::Input { .. }) {
                continue;
            }
            // Inputs precede their consumers (topological id order),
            // so transitive positions are already resolved.
            let mut latest = 0usize;
            for &input in &node.inputs {
                latest = latest.max(produced_pos[input.index()]);
            }
            produced_pos[node.id.index()] = latest;
            attach_order.push((latest, node.id));
        }
        attach_order.sort_unstable();
        Self {
            network,
            seq,
            node_ranges,
            node_bits,
            range_index,
            unit_owner,
            produced_pos,
            attach_order,
        }
    }

    /// The unit range of a weighted node, `None` for any other node.
    fn units_of(&self, id: NodeId) -> Option<(usize, usize)> {
        let &(_, start, end) = self.node_ranges.get(self.range_index[id.index()])?;
        Some((start, end))
    }

    /// `true` when `id` is computed *wholly* inside `[start, end)`:
    /// a weighted node with its full unit range in the span, or a
    /// non-weighted node attached to it (Input nodes never are).
    fn computed_whole(&self, id: NodeId, start: usize, end: usize) -> bool {
        let node = self.network.node(id);
        if node.kind.is_weighted() {
            match self.units_of(id) {
                Some((first, last)) => start <= first && last <= end,
                None => false,
            }
        } else {
            self.attached_to(id, start, end)
        }
    }

    /// `true` when `id` executes inside `[start, end)` at all: a
    /// weighted node with a unit in the span, or a node attached to it.
    fn computed_here(&self, id: NodeId, start: usize, end: usize) -> bool {
        if self.network.node(id).kind.is_weighted() {
            self.units_of(id).is_some_and(|(first, last)| first < end && last > start)
        } else {
            self.attached_to(id, start, end)
        }
    }

    /// `true` when the non-weighted node `id` attaches to
    /// `[start, end)` (Input nodes attach nowhere).
    fn attached_to(&self, id: NodeId, start: usize, end: usize) -> bool {
        !matches!(self.network.node(id).kind, LayerKind::Input { .. })
            && (start..end).contains(&self.produced_pos[id.index()])
    }

    /// Resolves the plan of the `[start, end)` segment as partition
    /// number `index`. Identical to the corresponding plan of any
    /// [`GroupPlan::build`] whose group cuts this exact span.
    pub fn plan(&self, index: usize, partition: Partition) -> PartitionPlan {
        let mut buffer = PlanBuffer::default();
        self.refill(index, partition, &mut buffer);
        buffer.plan
    }

    /// [`Self::plan`] written into `buffer`, reusing its vectors; the
    /// result equals a fresh `plan(index, partition)` whatever span the
    /// buffer held before.
    pub(crate) fn refill<'b>(
        &self,
        index: usize,
        partition: Partition,
        buffer: &'b mut PlanBuffer,
    ) -> &'b mut PartitionPlan {
        let (start, end) = (partition.start, partition.end);
        let activation_bits = 4; // matches chip precision; see Estimator.
        let network = self.network;
        let seq = self.seq;
        let PlanBuffer { plan, spare } = buffer;
        spare.extend(plan.slices.drain(..).rev());
        plan.index = index;
        plan.partition = partition;
        plan.packing = None;

        // 1. Slices: walk the span's units, one slice per maximal run
        //    of a single weighted node.
        let mut i = start;
        while i < end {
            let owner = self.unit_owner[i];
            let (node_id, node_start, node_end) = self.node_ranges[owner];
            debug_assert!((node_start..node_end).contains(&i));
            let node = network.node(node_id);
            let node_bits = self.node_bits[owner];
            let span_end = node_end.min(end);
            let units = &seq.units()[i..span_end];
            let mut slice = spare.pop().unwrap_or_else(NodeSlice::empty);
            slice.unit_crossbars.clear();
            slice.unit_crossbars.extend(units.iter().map(|u| u.crossbars));
            slice.unit_weight_bits.clear();
            slice.unit_weight_bits.extend(units.iter().map(|u| u.weight_bits));
            let crossbars = slice.unit_crossbars.iter().sum();
            let weight_bits = slice.unit_weight_bits.iter().sum();
            let spatial = units[0].mvms_per_sample;
            let row_chunks_extra = units.iter().filter(|u| u.row_split).count().saturating_sub(1);
            let out_elems = node.output_shape.elements();
            let fraction = if node_bits == 0 { 1.0 } else { weight_bits as f64 / node_bits as f64 };
            slice.node = node_id;
            slice.units = i..span_end;
            slice.crossbars = crossbars;
            slice.weight_bits = weight_bits;
            slice.fraction = fraction;
            slice.mvms_per_sample = spatial;
            slice.activations_per_sample = spatial * crossbars;
            slice.reduction_elements =
                row_chunks_extra * ((out_elems as f64 * fraction).ceil() as usize);
            slice.replication = 1;
            plan.slices.push(slice);
            i = span_end;
        }

        // 2. Attached non-crossbar nodes: production position inside
        //    the span (paper §III-B2 — the latest-produced input).
        let lo = self.attach_order.partition_point(|&(pos, _)| pos < start);
        let hi = self.attach_order.partition_point(|&(pos, _)| pos < end);
        plan.attached.clear();
        plan.attached.extend(self.attach_order[lo..hi].iter().map(|&(_, id)| id));
        plan.attached.sort_unstable();

        // 3. Entries, exits, VFU work, intra-partition traffic. Every
        //    node computed here appears once, so exits need no merge;
        //    an entry tensor read by several local consumers keeps the
        //    largest remote share.
        let PartitionPlan { slices, attached, entries, exits, .. } = plan;
        entries.clear();
        exits.clear();
        let mut intra = 0usize;
        let mut vfu = 0usize;
        let local_fraction = |id: NodeId| slices.iter().find(|s| s.node == id).map(|s| s.fraction);
        let local_nodes = slices.iter().map(|s| s.node).chain(attached.iter().copied());

        for id in local_nodes.clone() {
            let node = network.node(id);
            // Inputs: on-chip if produced (whole) here, else DRAM.
            for &input in &node.inputs {
                let in_node = network.node(input);
                let bytes = in_node.output_shape.bytes(activation_bits);
                if self.computed_whole(input, start, end) {
                    intra += bytes;
                } else {
                    // Partially-local producers only need the remote
                    // fraction.
                    let local_fraction = local_fraction(input).unwrap_or(0.0);
                    let remote = ((1.0 - local_fraction) * bytes as f64).ceil() as usize;
                    if remote > 0 {
                        entries.push(TensorTransfer { node: input, bytes_per_sample: remote });
                    }
                    if local_fraction > 0.0 {
                        intra += bytes - ((1.0 - local_fraction) * bytes as f64).ceil() as usize;
                    }
                }
            }
            // VFU work for attached layers.
            if !node.kind.is_weighted() {
                vfu += vfu_elements(network, id);
            }
        }
        for slice in slices.iter() {
            vfu += slice.reduction_elements;
        }
        entries.sort_by_key(|t| t.node);
        entries.dedup_by(|later, kept| {
            let same = later.node == kept.node;
            if same {
                kept.bytes_per_sample = kept.bytes_per_sample.max(later.bytes_per_sample);
            }
            same
        });

        // Exits: a locally computed value leaves the chip if any
        // consumer is not computed here, if it is a network output,
        // or if it is a partial slice (stored for later reassembly).
        for id in local_nodes {
            let node = network.node(id);
            let bytes = node.output_shape.bytes(activation_bits);
            let slice_fraction = local_fraction(id);
            let is_partial = slice_fraction.map(|f| f < 1.0).unwrap_or(false);
            let consumers = network.consumers(id);
            let leaves = consumers.is_empty()
                || consumers.iter().any(|&c| !self.computed_here(c, start, end));
            if is_partial {
                let frac = slice_fraction.unwrap_or(1.0);
                exits.push(TensorTransfer {
                    node: id,
                    bytes_per_sample: (bytes as f64 * frac).ceil() as usize,
                });
            } else if leaves {
                exits.push(TensorTransfer { node: id, bytes_per_sample: bytes });
            }
        }
        exits.sort_by_key(|t| t.node);

        plan.vfu_elements_per_sample = vfu;
        plan.intra_traffic_bytes_per_sample = intra;
        plan
    }
}

/// Plans for every partition of a group, in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupPlan {
    plans: Vec<PartitionPlan>,
}

impl GroupPlan {
    /// Resolves `group` against the network and decomposition.
    ///
    /// Attachment rule (paper §III-B2): each non-crossbar node executes
    /// in the partition of its *latest-produced* input — found by
    /// walking the dependence graph backwards — so Add/Concat nodes
    /// land where their last operand becomes available.
    ///
    /// Each partition's plan is a pure function of its unit span (see
    /// [`SegmentPlanner`]); callers resolving many groups over one
    /// network should hold a planner and memoize per segment instead.
    pub fn build(network: &Network, seq: &UnitSequence, group: &PartitionGroup) -> Self {
        let planner = SegmentPlanner::new(network, seq);
        Self {
            plans: (0..group.partition_count())
                .map(|k| planner.plan(k, group.partition(k)))
                .collect(),
        }
    }

    /// The plans in execution order.
    pub fn plans(&self) -> &[PartitionPlan] {
        &self.plans
    }

    /// Mutable access for the replication optimizer.
    pub fn plans_mut(&mut self) -> &mut [PartitionPlan] {
        &mut self.plans
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// `true` if the group had no partitions (cannot happen for valid
    /// groups).
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// VFU element-ops to execute one non-crossbar node per sample.
fn vfu_elements(network: &Network, id: NodeId) -> usize {
    let node = network.node(id);
    match node.kind {
        LayerKind::Pool2d { kernel, .. } => node.output_shape.elements() * kernel * kernel,
        LayerKind::GlobalAvgPool => {
            // Reduce each channel's full spatial extent.
            network.node(node.inputs[0]).output_shape.elements()
        }
        LayerKind::Softmax => node.output_shape.elements() * 3, // exp, sum, div
        LayerKind::Flatten => 0,
        _ => node.output_shape.elements(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::validity::ValidityMap;
    use pim_arch::ChipSpec;
    use pim_model::zoo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn setup(net: &Network, chip: &ChipSpec, seed: u64) -> (UnitSequence, PartitionGroup) {
        let seq = decompose(net, chip);
        let validity = ValidityMap::build(&seq, chip);
        let mut rng = StdRng::seed_from_u64(seed);
        let group = PartitionGroup::random(&mut rng, &validity);
        (seq, group)
    }

    #[test]
    fn slices_cover_every_unit_once() {
        let net = zoo::resnet18();
        let chip = ChipSpec::chip_s();
        let (seq, group) = setup(&net, &chip, 11);
        let plan = GroupPlan::build(&net, &seq, &group);
        let mut covered = vec![0usize; seq.len()];
        for p in plan.plans() {
            for s in &p.slices {
                for i in s.units.clone() {
                    covered[i] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "every unit in exactly one slice");
    }

    #[test]
    fn every_nonweighted_node_attached_exactly_once() {
        let net = zoo::squeezenet();
        let chip = ChipSpec::chip_s();
        let (seq, group) = setup(&net, &chip, 3);
        let plan = GroupPlan::build(&net, &seq, &group);
        let mut count: BTreeMap<NodeId, usize> = BTreeMap::new();
        for p in plan.plans() {
            for &a in &p.attached {
                *count.entry(a).or_insert(0) += 1;
            }
        }
        let expected = net
            .nodes()
            .iter()
            .filter(|n| !n.kind.is_weighted() && !matches!(n.kind, LayerKind::Input { .. }))
            .count();
        assert_eq!(count.len(), expected);
        assert!(count.values().all(|&c| c == 1));
    }

    #[test]
    fn first_partition_loads_network_input() {
        let net = zoo::tiny_cnn();
        let chip = ChipSpec::chip_m();
        let (seq, group) = setup(&net, &chip, 5);
        let plan = GroupPlan::build(&net, &seq, &group);
        let first = &plan.plans()[0];
        let input_id = net.input_nodes().next().unwrap().id;
        assert!(
            first.entries.iter().any(|t| t.node == input_id),
            "partition 0 must load the input: {:?}",
            first.entries
        );
    }

    #[test]
    fn last_partition_stores_network_output() {
        let net = zoo::tiny_cnn();
        let chip = ChipSpec::chip_m();
        let (seq, group) = setup(&net, &chip, 5);
        let plan = GroupPlan::build(&net, &seq, &group);
        let stored: Vec<NodeId> =
            plan.plans().iter().flat_map(|p| p.exits.iter().map(|t| t.node)).collect();
        let output_id = net.output_nodes().next().unwrap().id;
        assert!(stored.contains(&output_id), "network output must be stored");
    }

    #[test]
    fn multi_partition_group_has_intermediate_transfers() {
        let net = zoo::resnet18();
        let chip = ChipSpec::chip_s();
        let (seq, group) = setup(&net, &chip, 7);
        let plan = GroupPlan::build(&net, &seq, &group);
        assert!(plan.len() > 1, "ResNet18 needs multiple partitions on Chip-S");
        // Every partition after the first loads something; every
        // partition before the last stores something.
        for p in &plan.plans()[1..] {
            assert!(!p.entries.is_empty(), "partition {} has no entries", p.index);
        }
        for p in &plan.plans()[..plan.len() - 1] {
            assert!(!p.exits.is_empty(), "partition {} has no exits", p.index);
        }
    }

    #[test]
    fn residual_spanning_cut_creates_multiple_entries() {
        // Force tiny_resnet into per-node partitions so residual edges
        // cross partitions: each Add then needs its shortcut operand
        // loaded -> multiple entry tensors somewhere.
        let net = zoo::tiny_resnet();
        let chip = ChipSpec::chip_s();
        let seq = decompose(&net, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        // One partition per unit where possible.
        let cuts: Vec<usize> = (1..seq.len()).collect();
        let group = PartitionGroup::from_cuts(cuts, &validity).expect("unit-wise split valid");
        let plan = GroupPlan::build(&net, &seq, &group);
        let multi_entry = plan.plans().iter().filter(|p| p.entries.len() >= 2).count();
        assert!(multi_entry > 0, "residuals must create multi-entry partitions");
    }

    #[test]
    fn fractions_sum_to_one_per_node() {
        let net = zoo::vgg16();
        let chip = ChipSpec::chip_s();
        let (seq, group) = setup(&net, &chip, 13);
        let plan = GroupPlan::build(&net, &seq, &group);
        let mut frac: BTreeMap<NodeId, f64> = BTreeMap::new();
        for p in plan.plans() {
            for s in &p.slices {
                *frac.entry(s.node).or_insert(0.0) += s.fraction;
            }
        }
        for (node, f) in frac {
            assert!((f - 1.0).abs() < 1e-9, "{node} fractions sum to {f}");
        }
    }

    #[test]
    fn single_partition_squeezenet_has_one_entry_one_exit() {
        let net = zoo::squeezenet();
        let chip = ChipSpec::chip_s();
        let seq = decompose(&net, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        let group = PartitionGroup::from_cuts(vec![], &validity).expect("fits whole");
        let plan = GroupPlan::build(&net, &seq, &group);
        assert_eq!(plan.len(), 1);
        let p = &plan.plans()[0];
        assert_eq!(p.entries.len(), 1, "only the network input enters");
        assert_eq!(p.exits.len(), 1, "only the network output leaves");
    }
}
