//! Partition-group fitness and partition scores (paper §III-C1/C2).
//!
//! ## Memoization
//!
//! The GA re-scores thousands of candidates per run, and the
//! population is massively redundant at two levels:
//!
//! * **whole chromosomes** — survivors are re-evaluated every
//!   generation, so the context memoizes full evaluations by interned
//!   cut vector and returns [`Arc`]s: a hit is a hash lookup plus a
//!   pointer bump, with no estimate cloned;
//! * **segments** — different chromosomes overwhelmingly share
//!   contiguous `[start, end)` unit spans (a mutation moves one cut;
//!   every other partition is unchanged). A partition's plan,
//!   replication, packing, and estimate depend *only* on its own span
//!   (see [`crate::plan::SegmentPlanner`]), so its score is memoized
//!   per segment and reused across every group in the population.
//!   The segment memo holds what the group fold reads and nothing
//!   else: the partition's latency, its total energy and the cores it
//!   occupies. A new chromosome made of known segments costs one
//!   lookup per partition and the fold — no planning, replication, or
//!   estimation. An evaluation keeps the per-partition fitness and
//!   its sum, not a group estimate: [`crate::Compiler::compile`]
//!   estimates the winner from its cuts.
//!
//! The fold walks the group's cuts once and writes each partition's
//! fitness as it looks the segment up. Only interleaved scheduling
//! reads the segments' occupancy and rescales their latencies to the
//! batch cycle; under barrier scheduling that scale is exactly 1, so
//! the fold skips it.
//!
//! A segment miss plans the span, runs the replication greedy, and
//! estimates the result, all in buffers the context keeps from miss
//! to miss, so a miss allocates nothing and costs time in proportion
//! to its span. The greedy checks each replica against the chip with
//! an exact size-class packing ([`crate::packing::ffd_pack_classes`]),
//! or in O(1) against the room the last packing left where the
//! replica's items are all of the smallest size; the final packing's
//! bins give the core load the estimate reads, so a miss never packs
//! replica items one by one. Its plan is overwritten by the next miss;
//! [`crate::Compiler::compile`] re-plans the winner from its cuts.
//!
//! The group memo is a hash map keyed by cut vector. The segment memo
//! is a dense table with one 32-byte slot per span the validity map
//! allows, laid out start by start: span `[start, end)` sits at
//! `offset[start] + (end − start − 1)`, where `offset` is the prefix
//! sum of `max_end(i) − i`. A lookup is two reads of `offset` and one
//! of the slot, and spans that share a start share cache lines. A span
//! outside the map (a group built against another map) has no slot: it
//! is scored afresh every time and never stored. Both memos sit behind
//! a [`RefCell`], so evaluation is `&self`. Every memoized value is a
//! **pure function of its key** (a segment's score depends only on its
//! span; a group's evaluation only on its cut vector — given the
//! context's fixed knobs), so a hit is indistinguishable from a
//! recomputation and the memo never changes results. A lookup is
//! released before a miss is computed, so the evaluation that fills
//! one memo is free to consult both.
//!
//! With the memo off ([`FitnessContext::with_memo`]) nothing is
//! stored: every evaluation plans, replicates and estimates every
//! partition afresh (still in the reused buffers).

use crate::decompose::UnitSequence;
use crate::estimate::{Estimator, Occupancy, SystemScaling};
use crate::partition::{Partition, PartitionGroup};
use crate::plan::{PlanBuffer, SegmentPlanner};
use crate::replication::{optimize_partition_load, Greedy};
use crate::system::SystemTarget;
use crate::validity::ValidityMap;
use fxhash::FxHashMap;
use pim_arch::{ChipSpec, ScheduleMode, TimingMode};
use pim_model::Network;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

/// What the GA optimizes (the user-selectable fitness of §III-C1).
/// Lower is better in both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FitnessKind {
    /// Partition latency (throughput optimization) — the paper's main
    /// operating mode.
    #[default]
    Latency,
    /// Partition latency × partition energy (EDP optimization).
    Edp,
}

/// A fully evaluated partition group: the fitness values the GA
/// consumes.
#[derive(Debug, Clone)]
pub struct EvaluatedGroup {
    /// The chromosome.
    pub group: PartitionGroup,
    /// Per-partition fitness `f(Pₖ)` (lower is better).
    pub partition_fitness: Vec<f64>,
    /// Partition group fitness `PGF = Σₖ f(Pₖ)`.
    pub pgf: f64,
}

/// One memoized segment: what the group fold reads of the estimate of
/// its replication-optimized plan at the context's batch size and
/// modes, and the cores that plan occupies.
#[derive(Debug, Clone, Copy)]
struct SegmentEval {
    /// [`crate::PartitionEstimate::latency_ns`].
    latency_ns: f64,
    /// The estimate's `energy.total_nj()`.
    energy_nj: f64,
    occupancy: Occupancy,
}

/// The segment memo: one slot per span of a validity map, indexed by
/// `offset[start] + (end − start − 1)` (see the module docs).
struct SegmentTable {
    /// `offset[start]` is the slot of `[start, start + 1)`; the `len + 1`
    /// entries are the prefix sums of `max_end(i) − i`, so the last is
    /// the number of valid spans.
    offset: Vec<usize>,
    /// Empty until the first store, then one slot per valid span.
    slots: Vec<Option<SegmentEval>>,
    /// Slots filled: the distinct spans memoized.
    filled: usize,
}

impl SegmentTable {
    fn new(validity: &ValidityMap) -> Self {
        let mut offset = Vec::with_capacity(validity.len() + 1);
        offset.push(0);
        for start in 0..validity.len() {
            offset.push(offset[start] + validity.max_end(start) - start);
        }
        Self { offset, slots: Vec::new(), filled: 0 }
    }

    /// The slot of `span`, or `None` if the map does not allow it.
    fn slot(&self, span: Partition) -> Option<usize> {
        let first = *self.offset.get(span.start)?;
        let slot = first + span.end.checked_sub(span.start + 1)?;
        (slot < *self.offset.get(span.start + 1)?).then_some(slot)
    }

    fn get(&self, slot: usize) -> Option<SegmentEval> {
        self.slots.get(slot).copied().flatten()
    }

    fn insert(&mut self, slot: usize, eval: SegmentEval) {
        if self.slots.is_empty() {
            self.slots.resize(self.offset[self.offset.len() - 1], None);
        }
        self.filled += usize::from(self.slots[slot].replace(eval).is_none());
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.filled = 0;
    }
}

/// Evaluation context shared across a GA run; memoizes whole
/// evaluations by interned cut vector and partition scores by
/// `(start, end)` segment (see the module docs).
pub struct FitnessContext<'a> {
    seq: &'a UnitSequence,
    planner: SegmentPlanner<'a>,
    validity: &'a ValidityMap,
    chip: &'a ChipSpec,
    batch: usize,
    kind: FitnessKind,
    timing_mode: TimingMode,
    schedule_mode: ScheduleMode,
    system: Option<SystemTarget>,
    /// Interconnect terms derived from `system` once (route walks are
    /// not free; candidates are scored thousands of times).
    system_scaling: Option<SystemScaling>,
    cache: RefCell<FxHashMap<Arc<[usize]>, Arc<EvaluatedGroup>>>,
    segments: RefCell<SegmentTable>,
    /// The plan and greedy buffers every segment miss reuses.
    miss: RefCell<(PlanBuffer, Greedy)>,
    /// `false` disables both memos (every evaluation recomputes) —
    /// the benchmark axis that prices what the memo buys.
    memo_enabled: bool,
}

impl<'a> FitnessContext<'a> {
    /// Creates a context scoring with the paper's analytic memory
    /// model.
    pub fn new(
        network: &'a Network,
        seq: &'a UnitSequence,
        validity: &'a ValidityMap,
        chip: &'a ChipSpec,
        batch: usize,
        kind: FitnessKind,
    ) -> Self {
        Self {
            seq,
            planner: SegmentPlanner::new(network, seq),
            validity,
            chip,
            batch,
            kind,
            timing_mode: TimingMode::Analytic,
            schedule_mode: ScheduleMode::Barrier,
            system: None,
            system_scaling: None,
            cache: RefCell::default(),
            segments: RefCell::new(SegmentTable::new(validity)),
            miss: RefCell::default(),
            memo_enabled: true,
        }
    }

    /// Drops every memoized score (both the whole-group memo and the
    /// segment memo) — required whenever a knob that shapes scores
    /// changes.
    fn clear_caches(&mut self) {
        self.cache.get_mut().clear();
        self.segments.get_mut().clear();
    }

    /// Enables or disables both memo tables. Disabling clears them;
    /// every later evaluation recomputes from scratch (the benchmark
    /// axis that prices what the memo buys). Re-enabling keeps the
    /// tables empty until evaluations refill them.
    pub fn with_memo(mut self, enabled: bool) -> Self {
        if !enabled {
            self.clear_caches();
        }
        self.memo_enabled = enabled;
        self
    }

    /// Pre-sizes the group memo for `population` more chromosomes so
    /// steady-state generations never rehash mid-generation (the
    /// segment table has a slot for every valid span already).
    pub fn reserve_for_population(&self, population: usize) {
        if self.memo_enabled {
            self.cache.borrow_mut().reserve(population);
        }
    }

    /// Drops the whole-group memo's reference to one chromosome, so a
    /// caller holding the only other [`Arc`] can unwrap it in place
    /// instead of deep-cloning its cut and fitness vectors.
    /// Returns the dropped reference (if the chromosome was memoized)
    /// purely so the caller controls when it dies.
    pub fn release(&self, cuts: &[usize]) -> Option<Arc<EvaluatedGroup>> {
        self.cache.borrow_mut().remove(cuts)
    }

    /// Whether a chromosome is currently memoized (diagnostics).
    pub fn memoized(&self, cuts: &[usize]) -> bool {
        self.cache.borrow().contains_key(cuts)
    }

    /// Scores candidates with the given memory timing mode, so the GA
    /// tunes partitions against the machine the closed-loop simulator
    /// will time. Clears the memo caches (cached scores are
    /// mode-specific).
    pub fn with_timing_mode(mut self, mode: TimingMode) -> Self {
        if mode != self.timing_mode {
            self.clear_caches();
        }
        self.timing_mode = mode;
        self
    }

    /// Scores candidates for the given intra-chip stage dispatch
    /// policy (see [`Estimator::with_schedule_mode`]): under
    /// [`ScheduleMode::Interleaved`] the GA optimizes the bottleneck
    /// stage rather than the serial sum, matching what the interleaved
    /// executor will actually run. Clears the memo caches (cached
    /// scores are mode-specific).
    pub fn with_schedule_mode(mut self, mode: ScheduleMode) -> Self {
        if mode != self.schedule_mode {
            self.clear_caches();
        }
        self.schedule_mode = mode;
        self
    }

    /// Scores candidates for a multi-chip deployment (see
    /// [`Estimator::with_system`]), so the GA tunes partitions for
    /// the topology the system simulator will run. Clears the memo
    /// caches (cached scores are target-specific).
    pub fn with_system_target(mut self, target: Option<SystemTarget>) -> Self {
        if target != self.system {
            self.clear_caches();
        }
        self.system_scaling = target.as_ref().and_then(SystemScaling::of);
        self.system = target;
        self
    }

    /// The validity map (used by mutation operators).
    pub fn validity(&self) -> &ValidityMap {
        self.validity
    }

    /// The unit sequence.
    pub fn seq(&self) -> &UnitSequence {
        self.seq
    }

    /// The estimator every segment and group is scored with.
    fn estimator(&self) -> Estimator<'a> {
        Estimator::new(self.chip)
            .with_timing_mode(self.timing_mode)
            .with_schedule_mode(self.schedule_mode)
            .with_system_scaling(self.system_scaling)
    }

    /// Plans, replication-optimizes, and estimates one segment, in the
    /// context's reused buffers.
    fn compute_segment(&self, partition: Partition) -> SegmentEval {
        let mut miss = self.miss.borrow_mut();
        let (buffer, greedy) = &mut *miss;
        let plan = self.planner.refill(0, partition, buffer);
        let load = optimize_partition_load(plan, self.chip, greedy);
        let estimate = self.estimator().estimate_loaded(plan, load, self.batch);
        SegmentEval {
            latency_ns: estimate.latency_ns,
            energy_nj: estimate.energy.total_nj(),
            occupancy: Occupancy::new(plan, load, self.chip),
        }
    }

    /// Recalls (or computes and memoizes) one segment. A span outside
    /// the validity map is computed and not stored.
    fn segment_eval(&self, partition: Partition) -> SegmentEval {
        let (slot, hit) = if self.memo_enabled {
            let table = self.segments.borrow();
            let slot = table.slot(partition);
            (slot, slot.and_then(|slot| table.get(slot)))
        } else {
            (None, None)
        };
        if let Some(hit) = hit {
            return hit;
        }
        let Some(slot) = slot else { return self.compute_segment(partition) };
        let eval = self.compute_segment(partition);
        self.segments.borrow_mut().insert(slot, eval);
        eval
    }

    /// Evaluates (or recalls) a group. Cache hits are a hash lookup
    /// plus a pointer bump; misses assemble the group from memoized
    /// segments and compute only what no earlier chromosome already
    /// paid for.
    pub fn evaluate(&self, group: &PartitionGroup) -> Arc<EvaluatedGroup> {
        if !self.memo_enabled {
            return Arc::new(self.evaluate_uncached(group));
        }
        let hit = self.cache.borrow().get(group.cuts()).cloned();
        if let Some(hit) = hit {
            return hit;
        }
        let eval = Arc::new(self.evaluate_uncached(group));
        self.cache.borrow_mut().insert(group.cuts().into(), Arc::clone(&eval));
        eval
    }

    /// The evaluation itself: per-segment plan/replicate/estimate
    /// (through the segment memo), then the group fold and score.
    ///
    /// The fold walks the cuts once. Under barrier scheduling a
    /// partition's fitness is read straight off its segment. Under
    /// interleaving the group's batch cycle is shorter than the serial
    /// partition sum, so each partition's latency is scaled by
    /// `batch / serial` first: `PGF = Σ f(Pₖ)` then still equals the
    /// latency the executor pays, and the relative steering between
    /// partitions is preserved. (Under barrier scheduling the batch
    /// cycle is the serial sum, so that scale is `x / x`, exactly 1.)
    fn evaluate_uncached(&self, group: &PartitionGroup) -> EvaluatedGroup {
        let mut partition_fitness = Vec::with_capacity(group.partition_count());
        let mut interleaved = Vec::new();
        let mut start = 0;
        for end in group.cuts().iter().copied().chain([group.unit_count()]) {
            let seg = self.segment_eval(Partition::new(start, end));
            start = end;
            match self.schedule_mode {
                ScheduleMode::Barrier => {
                    partition_fitness.push(self.fitness(seg.latency_ns, seg.energy_nj));
                }
                ScheduleMode::Interleaved => {
                    partition_fitness.push(seg.latency_ns);
                    interleaved.push(seg);
                }
            }
        }
        if self.schedule_mode == ScheduleMode::Interleaved {
            let occupancy: Vec<Occupancy> = interleaved.iter().map(|s| s.occupancy).collect();
            let batch_ns =
                self.estimator().batch_latency_ns(&occupancy, &partition_fitness, self.batch);
            let serial_ns: f64 = partition_fitness.iter().sum();
            let scale = if serial_ns > 0.0 { batch_ns / serial_ns } else { 1.0 };
            for (fitness, seg) in partition_fitness.iter_mut().zip(&interleaved) {
                *fitness = self.fitness(seg.latency_ns * scale, seg.energy_nj);
            }
        }
        let pgf = partition_fitness.iter().sum();
        EvaluatedGroup { group: group.clone(), partition_fitness, pgf }
    }

    /// One partition's fitness from its (scaled) latency and its
    /// energy.
    fn fitness(&self, latency_ns: f64, energy_nj: f64) -> f64 {
        match self.kind {
            FitnessKind::Latency => latency_ns,
            // µs × µJ keeps EDP fitness numerically tame.
            FitnessKind::Edp => (latency_ns * 1e-3) * (energy_nj * 1e-3),
        }
    }

    /// Number of memoized whole-group evaluations.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Number of memoized `(start, end)` segments: the distinct spans
    /// of the validity map scored so far.
    pub fn segment_cache_len(&self) -> usize {
        self.segments.borrow().filled
    }
}

/// Mean per-unit fitness `E[m(xᵢ)]` over a population (§III-C2):
/// `m(xᵢ) = f(P)/|P|` where `P` is the partition containing `xᵢ` in a
/// given individual; the expectation averages over the population.
pub fn mean_unit_fitness(population: &[Arc<EvaluatedGroup>], unit_count: usize) -> Vec<f64> {
    let mut sums = vec![0.0; unit_count];
    if population.is_empty() {
        return sums;
    }
    for eval in population {
        for (k, part) in eval.group.partitions().iter().enumerate() {
            let m = eval.partition_fitness[k] / part.len() as f64;
            for i in part.range() {
                sums[i] += m;
            }
        }
    }
    let n = population.len() as f64;
    for s in &mut sums {
        *s /= n;
    }
    sums
}

/// Partition scores `Rₖ = f(Pₖ) / F[a,b]` for one individual, where
/// `F[a,b] = Σ_{i∈[a,b)} E[m(xᵢ)]` (§III-C2). A score above 1 means
/// the partition performs worse than the population expectation over
/// the same unit span — such partitions are selected for mutation.
pub fn partition_scores(eval: &EvaluatedGroup, mean_m: &[f64]) -> Vec<f64> {
    eval.group
        .partitions()
        .iter()
        .zip(&eval.partition_fitness)
        .map(|(part, &f)| {
            let expected: f64 = mean_m[part.range()].iter().sum();
            if expected > 0.0 {
                f / expected
            } else {
                1.0
            }
        })
        .collect()
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use pim_model::zoo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        network: Network,
        seq: UnitSequence,
        validity: ValidityMap,
        chip: ChipSpec,
    }

    fn fixture() -> Fixture {
        fixture_on(zoo::resnet18(), ChipSpec::chip_s())
    }

    fn fixture_on(network: Network, chip: ChipSpec) -> Fixture {
        let seq = decompose(&network, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        Fixture { network, seq, validity, chip }
    }

    #[test]
    fn pgf_is_sum_of_partition_fitness() {
        let f = fixture();
        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let mut rng = StdRng::seed_from_u64(1);
        let group = PartitionGroup::random(&mut rng, &f.validity);
        let eval = ctx.evaluate(&group);
        let sum: f64 = eval.partition_fitness.iter().sum();
        assert!((sum - eval.pgf).abs() < 1e-6);
        assert_eq!(eval.partition_fitness.len(), group.partition_count());
    }

    #[test]
    fn evaluation_is_memoized() {
        let f = fixture();
        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let mut rng = StdRng::seed_from_u64(2);
        let group = PartitionGroup::random(&mut rng, &f.validity);
        let a = ctx.evaluate(&group);
        let b = ctx.evaluate(&group);
        assert_eq!(ctx.cache_len(), 1);
        assert_eq!(a.pgf, b.pgf);
        // The second call is a pointer bump, not a recomputation.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.segment_cache_len(), group.partition_count());
    }

    #[test]
    fn segments_are_shared_across_groups() {
        // Two chromosomes differing by one cut share every other
        // segment: the segment memo must grow by at most the two new
        // spans, and the shared partitions' scores must be reused.
        let f = fixture();
        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let mut rng = StdRng::seed_from_u64(7);
        let base = PartitionGroup::random(&mut rng, &f.validity);
        let a = ctx.evaluate(&base);
        let segs_after_first = ctx.segment_cache_len();
        assert_eq!(segs_after_first, base.partition_count());
        // Drop one cut (the first whose merged span stays valid):
        // every partition except the merged pair is unchanged.
        let cuts = base.cuts();
        assert!(cuts.len() >= 2, "resnet18 on chip-S yields many partitions");
        let (dropped, merged) = (0..cuts.len())
            .find_map(|i| {
                let mut c = cuts.to_vec();
                c.remove(i);
                PartitionGroup::from_cuts(c, &f.validity).map(|g| (i, g))
            })
            .expect("some adjacent pair merges within validity");
        let b = ctx.evaluate(&merged);
        // Only the merged span is new.
        assert_eq!(ctx.segment_cache_len(), segs_after_first + 1);
        // Partitions before and after the merged pair score
        // identically through the shared segment memo.
        assert_eq!(&a.partition_fitness[..dropped], &b.partition_fitness[..dropped]);
        assert_eq!(
            &a.partition_fitness[dropped + 2..],
            &b.partition_fitness[dropped + 1..],
            "shared segments must reuse the memoized estimate"
        );
    }

    /// A fresh build of `group` the way the compiler makes it: its
    /// plans after `optimize_group`, and their `estimate_group`.
    fn fresh_estimate(
        f: &Fixture,
        group: &PartitionGroup,
        mode: ScheduleMode,
        batch: usize,
    ) -> (crate::plan::GroupPlan, crate::GroupEstimate) {
        let mut plans = crate::plan::GroupPlan::build(&f.network, &f.seq, group);
        crate::replication::optimize_group(&mut plans, &f.chip);
        let estimate =
            Estimator::new(&f.chip).with_schedule_mode(mode).estimate_group(&plans, batch);
        (plans, estimate)
    }

    /// A group estimate folded into per-partition fitness and its sum,
    /// as the GA scores a group.
    fn fitness_of(estimate: &crate::GroupEstimate, kind: FitnessKind) -> (Vec<f64>, f64) {
        let serial_ns: f64 = estimate.partitions.iter().map(|p| p.latency_ns).sum();
        let scale = if serial_ns > 0.0 { estimate.batch_latency_ns / serial_ns } else { 1.0 };
        let fitness: Vec<f64> = estimate
            .partitions
            .iter()
            .map(|p| {
                let latency_ns = p.latency_ns * scale;
                match kind {
                    FitnessKind::Latency => latency_ns,
                    FitnessKind::Edp => (latency_ns * 1e-3) * (p.energy.total_nj() * 1e-3),
                }
            })
            .collect();
        let pgf = fitness.iter().sum();
        (fitness, pgf)
    }

    #[test]
    fn memo_scores_match_a_fresh_build_of_the_group() {
        // The memo keeps per-span latency, energy and occupancy computed
        // without the item packing; folded into a group they must give,
        // bit for bit, the fitness of the plans the compiler builds from
        // the cuts. Each seed draws random groups and the same groups
        // with one cut dropped, so most of their spans are memo hits.
        // On tiny_cnn-L some groups fit half the chip, so the
        // interleaved fold shifts partitions by nonzero offsets.
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let mut offset_groups = 0;
        for f in [fixture(), fixture_on(zoo::tiny_cnn(), ChipSpec::chip_l())] {
            for seed in 0..4 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut groups: Vec<PartitionGroup> =
                    (0..6).map(|_| PartitionGroup::random(&mut rng, &f.validity)).collect();
                let merged: Vec<PartitionGroup> = groups
                    .iter()
                    .filter_map(|g| {
                        (0..g.cuts().len()).find_map(|i| {
                            let mut cuts = g.cuts().to_vec();
                            cuts.remove(i);
                            PartitionGroup::from_cuts(cuts, &f.validity)
                        })
                    })
                    .collect();
                groups.extend(merged);
                for mode in [ScheduleMode::Barrier, ScheduleMode::Interleaved] {
                    let ctxs = [FitnessKind::Latency, FitnessKind::Edp].map(|kind| {
                        let ctx =
                            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, kind);
                        (kind, ctx.with_schedule_mode(mode))
                    });
                    for group in &groups {
                        let (plans, estimate) = fresh_estimate(&f, group, mode, 4);
                        for (kind, ctx) in &ctxs {
                            let (fitness, pgf) = fitness_of(&estimate, *kind);
                            let got = ctx.evaluate(group);
                            let at = format!("seed {seed}, {mode:?}, {kind:?}");
                            assert_eq!(bits(&got.partition_fitness), bits(&fitness), "{at}");
                            assert_eq!(got.pgf.to_bits(), pgf.to_bits(), "{at}: pgf");
                        }
                        let occupancy = Occupancy::of_plans(plans.plans(), &f.chip);
                        offset_groups += crate::scheduler::interleave_offsets(&occupancy, &f.chip)
                            .iter()
                            .any(|&o| o > 0) as usize;
                    }
                }
            }
        }
        assert!(offset_groups > 0, "no group exercised nonzero interleave offsets");
    }

    #[test]
    fn repeated_evaluation_matches_fresh_contexts() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(17);
        let groups: Vec<PartitionGroup> =
            (0..12).map(|_| PartitionGroup::random(&mut rng, &f.validity)).collect();
        // The first three groups repeat at the end, so their second
        // lookups hit the memo.
        let mut inputs = groups.clone();
        inputs.extend(groups.iter().take(3).cloned());

        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let memoized: Vec<u64> = inputs.iter().map(|g| ctx.evaluate(g).pgf.to_bits()).collect();
        let fresh: Vec<u64> = inputs
            .iter()
            .map(|g| {
                let one = FitnessContext::new(
                    &f.network,
                    &f.seq,
                    &f.validity,
                    &f.chip,
                    4,
                    FitnessKind::Latency,
                );
                one.evaluate(g).pgf.to_bits()
            })
            .collect();
        assert_eq!(memoized, fresh, "a memo hit must score exactly like a fresh evaluation");
        assert_eq!(ctx.cache_len(), groups.len(), "repeats add no entries");
        let spans: std::collections::HashSet<(usize, usize)> =
            groups.iter().flat_map(|g| g.partitions()).map(|p| (p.start, p.end)).collect();
        assert_eq!(ctx.segment_cache_len(), spans.len(), "one entry per distinct segment");
    }

    #[test]
    fn memo_off_recomputes_but_scores_identically() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(31);
        let groups: Vec<PartitionGroup> =
            (0..6).map(|_| PartitionGroup::random(&mut rng, &f.validity)).collect();
        let memoized =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let bare =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency)
                .with_memo(false);
        let hot: Vec<f64> = groups.iter().map(|g| memoized.evaluate(g).pgf).collect();
        let cold: Vec<f64> = groups.iter().map(|g| bare.evaluate(g).pgf).collect();
        assert_eq!(hot, cold, "the memo must never change scores");
        assert_eq!(bare.cache_len(), 0, "disabled memo stores nothing");
        assert_eq!(bare.segment_cache_len(), 0);
        assert!(memoized.cache_len() > 0);
        // Repeat evaluation without the memo still matches.
        assert_eq!(bare.evaluate(&groups[0]).pgf, hot[0]);
    }

    #[test]
    fn release_unshares_a_memoized_winner() {
        let f = fixture();
        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let mut rng = StdRng::seed_from_u64(37);
        let group = PartitionGroup::random(&mut rng, &f.validity);
        let eval = ctx.evaluate(&group);
        assert!(ctx.memoized(group.cuts()));
        drop(ctx.release(group.cuts()));
        assert!(!ctx.memoized(group.cuts()));
        assert_eq!(ctx.cache_len(), 0);
        // The caller now holds the only reference and can unwrap in
        // place — the whole point of releasing before `try_unwrap`.
        assert!(Arc::try_unwrap(eval).is_ok(), "no hidden owners may remain after release");
        // Releasing an unknown chromosome is a no-op.
        assert!(ctx.release(group.cuts()).is_none());
    }

    #[test]
    fn timing_mode_changes_scores_and_clears_cache() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(9);
        let group = PartitionGroup::random(&mut rng, &f.validity);
        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let analytic = ctx.evaluate(&group);
        assert_eq!(ctx.cache_len(), 1);
        let ctx = ctx.with_timing_mode(pim_arch::TimingMode::ClosedLoop);
        assert_eq!(ctx.cache_len(), 0, "mode switch must invalidate memoized scores");
        assert_eq!(ctx.segment_cache_len(), 0, "segment scores are mode-specific too");
        let closed = ctx.evaluate(&group);
        assert_ne!(analytic.pgf, closed.pgf);
    }

    #[test]
    fn system_target_changes_scores_and_clears_cache() {
        use crate::system::{SystemStrategy, SystemTarget};
        use pim_arch::Topology;
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(12);
        let group = PartitionGroup::random(&mut rng, &f.validity);
        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let single = ctx.evaluate(&group);
        assert_eq!(ctx.cache_len(), 1);
        let target = SystemTarget::new(Topology::ring(2), SystemStrategy::BatchShard);
        let ctx = ctx.with_system_target(Some(target));
        assert_eq!(ctx.cache_len(), 0, "target switch must invalidate memoized scores");
        assert_eq!(ctx.segment_cache_len(), 0);
        let sharded = ctx.evaluate(&group);
        assert!(sharded.pgf < single.pgf, "half the batch per chip must score cheaper");
    }

    #[test]
    fn schedule_mode_changes_scores_and_clears_cache() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(21);
        let group = PartitionGroup::random(&mut rng, &f.validity);
        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 8, FitnessKind::Latency);
        let barrier = ctx.evaluate(&group);
        assert_eq!(ctx.cache_len(), 1);
        let ctx = ctx.with_schedule_mode(ScheduleMode::Interleaved);
        assert_eq!(ctx.cache_len(), 0, "mode switch must invalidate memoized scores");
        let interleaved = ctx.evaluate(&group);
        // Compiled partitions all pack from core 0, so the occupancy
        // bound pins the interleaved score to the barrier one — the GA
        // must not chase overlap the executor cannot deliver.
        assert!(
            interleaved.pgf <= barrier.pgf + 1e-6,
            "interleaved occupancy never scores dearer: {} vs {}",
            interleaved.pgf,
            barrier.pgf
        );
        // PGF still equals the group's estimated batch latency.
        let (_, estimate) = fresh_estimate(&f, &group, ScheduleMode::Interleaved, 8);
        assert!((interleaved.pgf - estimate.batch_latency_ns).abs() < 1e-6);
    }

    #[test]
    fn edp_fitness_differs_from_latency() {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(3);
        let group = PartitionGroup::random(&mut rng, &f.validity);
        let lat =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let edp =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Edp);
        let a = lat.evaluate(&group);
        let b = edp.evaluate(&group);
        assert_ne!(a.pgf, b.pgf);
    }

    #[test]
    fn mean_unit_fitness_covers_all_units() {
        let f = fixture();
        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let mut rng = StdRng::seed_from_u64(4);
        let evals: Vec<Arc<EvaluatedGroup>> = (0..5)
            .map(|_| {
                let g = PartitionGroup::random(&mut rng, &f.validity);
                ctx.evaluate(&g)
            })
            .collect();
        let mean = mean_unit_fitness(&evals, f.seq.len());
        assert_eq!(mean.len(), f.seq.len());
        assert!(mean.iter().all(|&m| m > 0.0), "every unit has positive mean fitness");
    }

    #[test]
    fn partition_scores_centre_around_one() {
        let f = fixture();
        let ctx =
            FitnessContext::new(&f.network, &f.seq, &f.validity, &f.chip, 4, FitnessKind::Latency);
        let mut rng = StdRng::seed_from_u64(5);
        let evals: Vec<Arc<EvaluatedGroup>> = (0..8)
            .map(|_| {
                let g = PartitionGroup::random(&mut rng, &f.validity);
                ctx.evaluate(&g)
            })
            .collect();
        let mean = mean_unit_fitness(&evals, f.seq.len());
        // Average score across all partitions of all individuals
        // should be near 1 (it is a ratio against the population
        // expectation of the same spans).
        let mut all = Vec::new();
        for e in &evals {
            all.extend(partition_scores(e, &mean));
        }
        let avg: f64 = all.iter().sum::<f64>() / all.len() as f64;
        assert!((0.5..2.0).contains(&avg), "scores off-centre: {avg}");
        assert!(all.iter().all(|s| s.is_finite() && *s > 0.0));
    }
}
