//! Multi-chip system planning: splitting a compiled model across the
//! chips of a [`Topology`].
//!
//! The compiler's single-chip output (partition plans + per-core
//! programs) generalizes to a system in two ways:
//!
//! * **Layer pipeline** — the partition sequence is cut into
//!   contiguous, latency-balanced segments, one per chip. Where a
//!   partition boundary crosses a chip boundary the downstream
//!   partition's entry activations are shipped over the interconnect
//!   (the inter-chip SEND/RECV of the hand-off), and successive
//!   batches pipeline: chip 0 computes batch `r+1` while chip 1 still
//!   digests batch `r`.
//! * **Batch shard** — every chip runs the whole partition sequence on
//!   its own share of the batch; no inter-chip traffic, replication of
//!   the weight-replacement cost instead.
//! * **Fan-out** — a hybrid: the partition sequence is cut into
//!   segments and each segment may be *replicated* across several
//!   chips, each replica taking a contiguous share of the batch. A
//!   single-replica segment feeding a doubly-replicated one is a
//!   1-producer/2-consumer fan-out; the converse is a fan-in. Chips
//!   therefore feed and consume multiple peers, not just a linear
//!   chain.
//!
//! The produced [`SystemSchedule`] maps one-to-one onto
//! `pim_sim::SystemSimulator` chip loads (programs + per-round
//! hand-offs), keeping the compiler free of a simulator dependency.

use crate::compiler::CompiledModel;
use crate::error::CompileError;
use crate::estimate::PartitionEstimate;
use crate::scheduler::{schedule_group, SchedulerOptions};
use pim_arch::{ChipSpec, ScheduleMode, Topology};
use pim_isa::ChipProgram;
use pim_model::Network;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a model is spread across the chips of a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SystemStrategy {
    /// Contiguous partition segments, one per chip, with inter-chip
    /// activation hand-offs at segment boundaries; batches pipeline
    /// across chips.
    #[default]
    LayerPipeline,
    /// Every chip runs the full model on its share of the batch.
    BatchShard,
    /// Latency-balanced segments with per-segment replication: heavy
    /// segments run on several chips (each on a batch shard), so a
    /// chip may feed or consume multiple peers.
    FanOut,
}

impl SystemStrategy {
    /// Every strategy.
    pub const ALL: [SystemStrategy; 3] =
        [SystemStrategy::LayerPipeline, SystemStrategy::BatchShard, SystemStrategy::FanOut];
}

impl fmt::Display for SystemStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemStrategy::LayerPipeline => write!(f, "layer-pipeline"),
            SystemStrategy::BatchShard => write!(f, "batch-shard"),
            SystemStrategy::FanOut => write!(f, "fan-out"),
        }
    }
}

/// A multi-chip deployment target: the topology plus the strategy used
/// to spread work over it. The estimator and the GA fitness accept one
/// so partition search can optimize for the machine the system
/// simulator will time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemTarget {
    /// The interconnect graph.
    pub topology: Topology,
    /// The work-spreading strategy.
    pub strategy: SystemStrategy,
}

impl SystemTarget {
    /// A single-chip target (the paper's machine).
    pub fn single_chip() -> Self {
        Self { topology: Topology::single(), strategy: SystemStrategy::LayerPipeline }
    }

    /// A target for `topology` under `strategy`.
    pub fn new(topology: Topology, strategy: SystemStrategy) -> Self {
        Self { topology, strategy }
    }
}

/// One chip's share of a planned system workload.
#[derive(Debug, Clone)]
pub struct SystemChipPlan {
    /// Chip index within the topology.
    pub chip: usize,
    /// Partition programs this chip executes each round, in order
    /// (empty when the schedule leaves the chip idle).
    pub programs: Vec<ChipProgram>,
    /// Half-open range of global partition indices assigned here
    /// (layer pipeline / fan-out segment) or the full range (batch
    /// shard).
    pub partition_range: (usize, usize),
    /// Samples this chip contributes per round.
    pub samples: usize,
    /// Per-round hand-offs to downstream chips, one
    /// `(destination chip, bytes per round)` entry per consumer
    /// (several under fan-out).
    pub handoffs: Vec<(usize, usize)>,
}

/// A compiled model mapped onto a multi-chip system.
#[derive(Debug, Clone)]
pub struct SystemSchedule {
    /// The topology the schedule targets.
    pub topology: Topology,
    /// The strategy that produced it.
    pub strategy: SystemStrategy,
    /// Per-chip workloads, indexed by chip.
    pub chips: Vec<SystemChipPlan>,
    /// Inference samples the whole system completes per round.
    pub samples_per_round: usize,
}

impl SystemSchedule {
    /// Chips that actually execute work.
    pub fn active_chips(&self) -> usize {
        self.chips.iter().filter(|c| !c.programs.is_empty()).count()
    }

    /// Total bytes crossing the interconnect per round.
    pub fn handoff_bytes_per_round(&self) -> usize {
        self.chips.iter().flat_map(|c| c.handoffs.iter().map(|&(_, bytes)| bytes)).sum()
    }

    /// The largest number of downstream consumers any chip feeds (2+
    /// means the schedule actually fans out).
    pub fn max_fan_out(&self) -> usize {
        self.chips.iter().map(|c| c.handoffs.len()).max().unwrap_or(0)
    }
}

impl fmt::Display for SystemSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} over {}: {} active chips, {} B/round inter-chip",
            self.strategy,
            self.topology,
            self.active_chips(),
            self.handoff_bytes_per_round()
        )?;
        for chip in &self.chips {
            let hands: String = chip
                .handoffs
                .iter()
                .map(|(dst, bytes)| format!(", hands {bytes} B to chip {dst}"))
                .collect();
            writeln!(
                f,
                "  chip {}: partitions [{}, {}), {} samples/round{hands}",
                chip.chip, chip.partition_range.0, chip.partition_range.1, chip.samples,
            )?;
        }
        Ok(())
    }
}

/// Maps a compiled model onto `target`'s chips.
///
/// For [`SystemStrategy::LayerPipeline`], partitions are cut into
/// contiguous segments balanced by the compiler's estimated partition
/// latencies, and each boundary ships the downstream partition's entry
/// activations (`batch ×` per-sample bytes) to the next chip after
/// every round. The chips run the compiled programs as they are, so
/// `batch` must be the batch they were compiled at and
/// `chunks_per_sample` does not apply. For
/// [`SystemStrategy::BatchShard`], the partition
/// plans are rescheduled at each chip's shard of `batch` (front chips
/// take the remainder). For [`SystemStrategy::FanOut`], segments are
/// additionally replicated — spare chips go to whichever segment has
/// the worst per-replica latency — and every replica ships each
/// downstream replica the entry activations of the samples flowing
/// between their contiguous batch shards (fan-out/fan-in at the
/// segment boundaries).
///
/// # Errors
///
/// Returns [`CompileError::InvalidOptions`] when the topology fails
/// validation, `batch` is zero, or a layer pipeline asks for a `batch`
/// other than the compiled one.
pub fn plan_system(
    network: &Network,
    compiled: &CompiledModel,
    chip: &ChipSpec,
    target: &SystemTarget,
    batch: usize,
    chunks_per_sample: usize,
) -> Result<SystemSchedule, CompileError> {
    target
        .topology
        .validate()
        .map_err(|e| CompileError::InvalidOptions(format!("topology: {}", e.detail())))?;
    if batch == 0 {
        return Err(CompileError::InvalidOptions("batch size must be >= 1".into()));
    }
    let chips = target.topology.chips();
    let plans = compiled.partitions();
    let schedule = match target.strategy {
        SystemStrategy::LayerPipeline => {
            // The compiled programs run every round as scheduled: a
            // different batch would scale the reported throughput, not
            // the simulated work.
            let compiled_batch = compiled.estimate().batch;
            if batch != compiled_batch {
                return Err(CompileError::InvalidOptions(format!(
                    "a layer pipeline runs the programs compiled at batch {compiled_batch}, \
                     not batch {batch}"
                )));
            }
            let programs = compiled.programs();
            let used = chips.min(plans.len()).max(1);
            let cuts = balanced_cuts(
                &compiled.estimate().partitions.iter().map(|p| p.latency_ns).collect::<Vec<_>>(),
                used,
            );
            let mut chip_plans = Vec::with_capacity(chips);
            for c in 0..chips {
                let (from, to) = if c < used { (cuts[c], cuts[c + 1]) } else { (0, 0) };
                let handoffs = if c + 1 < used {
                    // The downstream chip's first partition loads these
                    // activations each round; they cross the
                    // interconnect first.
                    vec![(c + 1, plans[cuts[c + 1]].entry_bytes_per_sample() * batch)]
                } else {
                    Vec::new()
                };
                chip_plans.push(SystemChipPlan {
                    chip: c,
                    programs: programs[from..to].to_vec(),
                    partition_range: (from, to),
                    samples: if from < to { batch } else { 0 },
                    handoffs,
                });
            }
            SystemSchedule {
                topology: target.topology.clone(),
                strategy: target.strategy,
                chips: chip_plans,
                samples_per_round: batch,
            }
        }
        SystemStrategy::BatchShard => {
            let base = batch / chips;
            let remainder = batch % chips;
            let mut chip_plans = Vec::with_capacity(chips);
            for c in 0..chips {
                let shard = base + usize::from(c < remainder);
                let programs = if shard > 0 {
                    schedule_group(
                        network,
                        plans,
                        chip,
                        &SchedulerOptions {
                            batch: shard,
                            chunks_per_sample,
                            schedule: ScheduleMode::Barrier,
                        },
                    )
                } else {
                    Vec::new()
                };
                chip_plans.push(SystemChipPlan {
                    chip: c,
                    partition_range: if shard > 0 { (0, plans.len()) } else { (0, 0) },
                    programs,
                    samples: shard,
                    handoffs: Vec::new(),
                });
            }
            SystemSchedule {
                topology: target.topology.clone(),
                strategy: target.strategy,
                chips: chip_plans,
                samples_per_round: batch,
            }
        }
        SystemStrategy::FanOut => {
            let (cuts, replicas) =
                fan_out_allocation(&compiled.estimate().partitions, batch, chips);
            let segments = replicas.len();
            // Contiguous batch shards per replica, segment by segment.
            let mut chip_plans: Vec<SystemChipPlan> = Vec::with_capacity(chips);
            let mut seg_ranges: Vec<Vec<(usize, usize)>> = Vec::with_capacity(segments);
            for (seg, &r) in replicas.iter().enumerate() {
                let (from, to) = (cuts[seg], cuts[seg + 1]);
                let base = batch / r;
                let remainder = batch % r;
                let mut ranges = Vec::with_capacity(r);
                let mut sample_at = 0usize;
                for rep in 0..r {
                    let shard = base + usize::from(rep < remainder);
                    ranges.push((sample_at, sample_at + shard));
                    sample_at += shard;
                    let programs = if shard > 0 {
                        schedule_group(
                            network,
                            &plans[from..to],
                            chip,
                            &SchedulerOptions {
                                batch: shard,
                                chunks_per_sample,
                                schedule: ScheduleMode::Barrier,
                            },
                        )
                    } else {
                        Vec::new()
                    };
                    chip_plans.push(SystemChipPlan {
                        chip: chip_plans.len(),
                        programs,
                        partition_range: if shard > 0 { (from, to) } else { (0, 0) },
                        samples: shard,
                        handoffs: Vec::new(),
                    });
                }
                seg_ranges.push(ranges);
            }
            // Hand-offs: each upstream replica ships every downstream
            // replica the entry activations of the samples their
            // contiguous shards share.
            let mut seg_base = 0usize;
            for seg in 0..segments.saturating_sub(1) {
                let entry_bytes = plans[cuts[seg + 1]].entry_bytes_per_sample();
                let down_base = seg_base + replicas[seg];
                for (u, &(ua, ub)) in seg_ranges[seg].iter().enumerate() {
                    for (d, &(da, db)) in seg_ranges[seg + 1].iter().enumerate() {
                        let flow = ub.min(db).saturating_sub(ua.max(da));
                        if flow > 0 {
                            chip_plans[seg_base + u]
                                .handoffs
                                .push((down_base + d, entry_bytes * flow));
                        }
                    }
                }
                seg_base = down_base;
            }
            SystemSchedule {
                topology: target.topology.clone(),
                strategy: target.strategy,
                chips: chip_plans,
                samples_per_round: batch,
            }
        }
    };
    Ok(schedule)
}

/// Splits the compiled partitions into segments and replica counts
/// for [`SystemStrategy::FanOut`].
///
/// Replicating a segment shards only its *per-sample* pipeline
/// interval — every replica still pays the segment's full weight
/// replacement and pipeline fill — so a replica of segment `[a, b)`
/// at `r` copies costs
/// `Σ_p (replace_p + fill_p + (⌈batch/r⌉ − 1) · interval_p)`.
/// For every feasible segment count the partitions are balance-cut by
/// full-batch latency, each spare chip goes to the segment whose
/// per-replica latency is currently worst, and the allocation with
/// the lowest bottleneck wins — ties to fewer segments. Returns
/// `(cut positions, per-segment replica counts)`;
/// `Σ replicas = chips`.
pub fn fan_out_allocation(
    partitions: &[PartitionEstimate],
    batch: usize,
    chips: usize,
) -> (Vec<usize>, Vec<usize>) {
    let chips = chips.max(1);
    let batch = batch.max(1);
    let max_segments = chips.min(partitions.len()).max(1);
    let replica_latency = |from: usize, to: usize, replicas: usize| -> f64 {
        let shard = batch.div_ceil(replicas).max(1);
        partitions[from..to]
            .iter()
            .map(|p| p.replace_ns + p.fill_ns + (shard as f64 - 1.0) * p.interval_ns)
            .sum()
    };
    let full_latencies: Vec<f64> = partitions.iter().map(|p| p.latency_ns).collect();
    let mut best: Option<(f64, Vec<usize>, Vec<usize>)> = None;
    for segments in 1..=max_segments {
        let cuts = balanced_cuts(&full_latencies, segments);
        let mut replicas = vec![1usize; segments];
        for _ in 0..chips.saturating_sub(segments) {
            // Deterministic: ties resolve to the earliest segment.
            let mut worst = 0usize;
            let mut worst_lat = f64::NEG_INFINITY;
            for s in 0..segments {
                let lat = replica_latency(cuts[s], cuts[s + 1], replicas[s]);
                if lat > worst_lat {
                    worst = s;
                    worst_lat = lat;
                }
            }
            replicas[worst] += 1;
        }
        let bottleneck = (0..segments)
            .map(|s| replica_latency(cuts[s], cuts[s + 1], replicas[s]))
            .fold(0.0f64, f64::max);
        if best.as_ref().is_none_or(|(b, _, _)| bottleneck < *b - 1e-9) {
            best = Some((bottleneck, cuts, replicas));
        }
    }
    let (_, cuts, replicas) = best.expect("at least one allocation exists");
    (cuts, replicas)
}

/// Cuts `weights` into `segments` contiguous runs with balanced sums:
/// segment `k` ends at the first prefix reaching `k+1` shares of the
/// total, while always leaving at least one element for each remaining
/// segment. Returns `segments + 1` cut positions starting at 0 and
/// ending at `weights.len()`.
fn balanced_cuts(weights: &[f64], segments: usize) -> Vec<usize> {
    let n = weights.len();
    let segments = segments.clamp(1, n.max(1));
    let total: f64 = weights.iter().sum();
    let mut cuts = Vec::with_capacity(segments + 1);
    cuts.push(0);
    let mut prefix = 0.0;
    let mut at = 0usize;
    for k in 1..segments {
        let share = total * k as f64 / segments as f64;
        while at < n - (segments - k) && prefix + weights[at] <= share {
            prefix += weights[at];
            at += 1;
        }
        // Guarantee progress: every segment owns at least one element.
        if at < cuts[k - 1] + 1 {
            prefix += weights[at];
            at = cuts[k - 1] + 1;
        }
        cuts.push(at);
    }
    cuts.push(n);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompileOptions, Compiler, Strategy};
    use crate::ga::GaParams;
    use pim_model::zoo;

    fn compiled(batch: usize) -> (Network, ChipSpec, CompiledModel) {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let model = Compiler::new(chip.clone())
            .compile(
                &net,
                &CompileOptions::new()
                    .with_strategy(Strategy::Layerwise)
                    .with_batch_size(batch)
                    .with_ga(GaParams::fast())
                    .with_seed(5),
            )
            .expect("compiles");
        (net, chip, model)
    }

    #[test]
    fn pipeline_covers_every_partition_exactly_once() {
        let (net, chip, model) = compiled(4);
        let target = SystemTarget::new(Topology::ring(4), SystemStrategy::LayerPipeline);
        let schedule = plan_system(&net, &model, &chip, &target, 4, 2).unwrap();
        assert_eq!(schedule.chips.len(), 4);
        let mut covered = 0;
        for (c, plan) in schedule.chips.iter().enumerate() {
            assert_eq!(plan.chip, c);
            let (from, to) = plan.partition_range;
            assert_eq!(from, covered);
            covered = to;
            assert_eq!(plan.programs.len(), to - from);
        }
        assert_eq!(covered, model.partitions().len());
        // Interior chips ship downstream; the tail does not.
        let last_active = schedule.chips.iter().rposition(|c| !c.programs.is_empty()).unwrap();
        for plan in &schedule.chips[..last_active] {
            let &[(dst, bytes)] = plan.handoffs.as_slice() else {
                panic!("interior chips hand off to exactly one peer")
            };
            assert_eq!(dst, plan.chip + 1);
            assert!(bytes > 0);
        }
        assert!(schedule.chips[last_active].handoffs.is_empty());
        assert!(schedule.to_string().contains("layer-pipeline"));
    }

    #[test]
    fn pipeline_balances_segment_latency() {
        let (net, chip, model) = compiled(4);
        let target = SystemTarget::new(Topology::ring(2), SystemStrategy::LayerPipeline);
        let schedule = plan_system(&net, &model, &chip, &target, 4, 2).unwrap();
        let latencies: Vec<f64> = schedule
            .chips
            .iter()
            .map(|p| {
                model.estimate().partitions[p.partition_range.0..p.partition_range.1]
                    .iter()
                    .map(|e| e.latency_ns)
                    .sum()
            })
            .collect();
        let total: f64 = latencies.iter().sum();
        for l in &latencies {
            assert!(
                *l < 0.75 * total,
                "a 2-chip split should not leave one chip with {l} of {total}"
            );
        }
    }

    #[test]
    fn layer_pipeline_runs_only_at_the_compiled_batch() {
        // The chips run the batch-4 programs every round, so a batch-8
        // plan would report twice the throughput for the same work.
        let (net, chip, model) = compiled(4);
        let target = SystemTarget::new(Topology::ring(2), SystemStrategy::LayerPipeline);
        for batch in [2, 8] {
            assert!(matches!(
                plan_system(&net, &model, &chip, &target, batch, 2),
                Err(CompileError::InvalidOptions(ref why)) if why.contains("batch 4")
            ));
        }
        let schedule = plan_system(&net, &model, &chip, &target, 4, 2).unwrap();
        assert_eq!(schedule.samples_per_round, 4);
        let active = schedule.chips.iter().filter(|c| !c.programs.is_empty());
        assert!(active.clone().all(|c| c.samples == 4));
        let programs: Vec<&ChipProgram> = active.flat_map(|c| &c.programs).collect();
        assert_eq!(programs, model.programs().iter().collect::<Vec<_>>());
        // Batch sharding reschedules, so any batch stays valid there.
        let shard = SystemTarget::new(Topology::ring(2), SystemStrategy::BatchShard);
        assert_eq!(plan_system(&net, &model, &chip, &shard, 8, 2).unwrap().samples_per_round, 8);
    }

    #[test]
    fn batch_shard_splits_samples() {
        let (net, chip, model) = compiled(5);
        let target = SystemTarget::new(Topology::fully_connected(2), SystemStrategy::BatchShard);
        let schedule = plan_system(&net, &model, &chip, &target, 5, 2).unwrap();
        let shards: Vec<usize> = schedule.chips.iter().map(|c| c.samples).collect();
        assert_eq!(shards, vec![3, 2], "front chip takes the remainder");
        assert_eq!(schedule.samples_per_round, 5);
        assert_eq!(schedule.handoff_bytes_per_round(), 0);
        for plan in &schedule.chips {
            assert_eq!(plan.programs.len(), model.partitions().len());
        }
    }

    #[test]
    fn more_chips_than_partitions_leaves_tail_idle() {
        let chip = ChipSpec::chip_s();
        let net = zoo::tiny_cnn();
        let model = Compiler::new(chip.clone())
            .compile(
                &net,
                &CompileOptions::new().with_strategy(Strategy::Greedy).with_ga(GaParams::fast()),
            )
            .unwrap();
        let parts = model.partitions().len();
        let target = SystemTarget::new(Topology::fully_connected(4), SystemStrategy::LayerPipeline);
        let schedule = plan_system(&net, &model, &chip, &target, 1, 2).unwrap();
        assert_eq!(schedule.active_chips(), parts.min(4));
        for plan in schedule.chips.iter().filter(|c| c.programs.is_empty()) {
            assert!(plan.handoffs.is_empty());
            assert_eq!(plan.samples, 0);
        }
    }

    /// A synthetic partition estimate: `replace + fill` fixed cost,
    /// `interval` per extra sample.
    fn part(replace_ns: f64, interval_ns: f64) -> PartitionEstimate {
        PartitionEstimate {
            replace_ns,
            pipeline_ns: 0.0,
            fill_ns: 0.0,
            interval_ns,
            latency_ns: replace_ns + interval_ns,
            energy: pim_arch::PowerBreakdown::new(),
        }
    }

    #[test]
    fn fan_out_allocation_replicates_the_interval_bound_segment() {
        // Two equal-replace partitions at batch 8 over 3 chips:
        // replication shards only the interval term, so cutting into
        // two segments (halving each replica's fixed cost) beats
        // replicating the whole chain.
        let parts = [part(10.0, 1.0), part(10.0, 1.0)];
        let (cuts, replicas) = fan_out_allocation(&parts, 8, 3);
        assert_eq!(cuts, vec![0, 1, 2]);
        assert_eq!(replicas.iter().sum::<usize>(), 3, "every chip is used");
        assert_eq!(replicas.len(), 2, "two segments, one replicated");
        assert!(replicas.contains(&2), "the spare chip replicates a segment");
        // Replacement-dominated partitions never replicate: sharding
        // the interval buys nothing against the fixed cost.
        let heavy = [part(1000.0, 0.1), part(1000.0, 0.1)];
        let (_, replicas) = fan_out_allocation(&heavy, 8, 4);
        assert_eq!(replicas.len(), 2, "chain, not shard");
        // One chip degenerates to a single segment.
        let (cuts, replicas) = fan_out_allocation(&parts, 8, 1);
        assert_eq!((cuts, replicas), (vec![0, 2], vec![1]));
    }

    #[test]
    fn fan_out_plan_fans_one_producer_into_two_consumers() {
        let (net, chip, model) = compiled(4);
        let target = SystemTarget::new(Topology::fully_connected(3), SystemStrategy::FanOut);
        let schedule = plan_system(&net, &model, &chip, &target, 4, 2).unwrap();
        assert_eq!(schedule.chips.len(), 3);
        let (_, replicas) = fan_out_allocation(&model.estimate().partitions, 4, 3);
        // Every replica of segment 0 together covers the batch.
        let seg0: usize = schedule.chips.iter().take(replicas[0]).map(|c| c.samples).sum();
        assert_eq!(seg0, 4, "segment 0's replicas cover the whole batch");
        // Hand-off destinations are unique per producer, and flows at
        // each boundary cover the batch's entry bytes exactly once.
        for plan in &schedule.chips {
            let dsts: Vec<usize> = plan.handoffs.iter().map(|&(d, _)| d).collect();
            let unique: std::collections::HashSet<usize> = dsts.iter().copied().collect();
            assert_eq!(dsts.len(), unique.len());
        }
        assert!(schedule.to_string().contains("fan-out"));
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let (net, chip, model) = compiled(2);
        let target = SystemTarget::new(Topology::ring(2), SystemStrategy::LayerPipeline);
        assert!(matches!(
            plan_system(&net, &model, &chip, &target, 0, 2),
            Err(CompileError::InvalidOptions(_))
        ));
        let broken = SystemTarget::new(
            Topology { name: "broken".into(), chips: 0, links: Vec::new() },
            SystemStrategy::BatchShard,
        );
        assert!(matches!(
            plan_system(&net, &model, &chip, &broken, 2, 2),
            Err(CompileError::InvalidOptions(_))
        ));
    }

    #[test]
    fn balanced_cuts_properties() {
        let cuts = balanced_cuts(&[1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(cuts, vec![0, 2, 4]);
        let skewed = balanced_cuts(&[10.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(skewed, vec![0, 1, 4], "the heavy head gets its own segment");
        // More segments than elements clamps.
        assert_eq!(balanced_cuts(&[1.0, 2.0], 5), vec![0, 1, 2]);
        // Every segment is non-empty.
        let many = balanced_cuts(&[5.0, 0.1, 0.1, 0.1, 0.1], 4);
        for pair in many.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }
}
