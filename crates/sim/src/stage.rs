//! The per-chip stage dependency graph.
//!
//! A chip's workload is a grid of `(batch, partition)` **stages**: each
//! of the chip's partition programs executes once per pipeline batch
//! (round). [`StageGraph`] lowers that grid onto the engine's generic
//! [`TaskGraph`] according to the selected [`ScheduleMode`]:
//!
//! * **Barrier** — every stage depends on the previous one in
//!   round-major order: the full-chip barrier of the paper, and the
//!   exact execution the golden fixtures pin.
//! * **Interleaved** — a stage depends only on its intra-batch
//!   predecessor (`(b, p-1)` produced its input activations) and on the
//!   same partition in the previous batch (`(b-1, p)` still owns the
//!   partition's crossbars: cross-batch resource reuse). On top of the
//!   edges, each stage claims its crossbar groups (the cores its
//!   program actually uses) exclusively and the global-memory channel
//!   shared, so two stages overlap exactly when they touch disjoint
//!   cores — batch `b+1`'s partition 0 starts while batch `b`'s tail
//!   drains.
//!
//! Inter-chip hand-offs enter as *external* dependencies on each
//! batch's first stage: one per upstream producer per batch, satisfied
//! when the matching hand-off lands.

use pim_arch::ScheduleMode;
use pim_engine::{ClaimKind, TaskGraph};
use pim_isa::{ChipProgram, CoreId};

/// Resource id of the shared global-memory channel in a chip's claim
/// space (core ids occupy the low range).
const CHANNEL_RESOURCE: u64 = u64::MAX;

/// The `(batch, partition)` stage grid of one chip, lowered onto a
/// deterministic ready-set graph.
pub(crate) struct StageGraph {
    graph: TaskGraph,
    partitions: usize,
    mode: ScheduleMode,
    /// Inter-chip producers gating each batch's head stage.
    upstream: usize,
    /// Each partition's resource claims, computed once (empty under
    /// the barrier schedule, which orders stages by edges alone).
    claims: Vec<Vec<(u64, ClaimKind)>>,
}

impl StageGraph {
    /// Builds the stage grid for `programs` over `rounds` batches with
    /// `upstream` inter-chip producers feeding each batch.
    pub(crate) fn build(
        programs: &[ChipProgram],
        rounds: usize,
        mode: ScheduleMode,
        upstream: usize,
    ) -> Self {
        let claims = programs
            .iter()
            .map(|program| match mode {
                ScheduleMode::Barrier => Vec::new(),
                ScheduleMode::Interleaved => stage_claims(program),
            })
            .collect();
        let mut stages =
            Self { graph: TaskGraph::new(0), partitions: programs.len(), mode, upstream, claims };
        stages.graph.reserve_nodes(rounds * stages.partitions);
        for _ in 0..rounds {
            stages.append_round();
        }
        stages
    }

    /// Appends one more batch worth of stages to a graph that may
    /// already be executing — how [`StageGraph::build`] lays out its
    /// rounds, and the open-loop serving path, where the round count
    /// is decided by the request buffer at run time rather than fixed
    /// up front. Every round gets the same edges, claims and external
    /// gate; edges from already-completed predecessors are dropped as
    /// trivially satisfied.
    ///
    /// * **Barrier** — every stage depends on the previous one in
    ///   round-major order: a single chain.
    /// * **Interleaved** — `(b, p-1)` feeds `(b, p)` (intra-batch
    ///   order), and batch `b-1`'s run of partition `p` must drain
    ///   first (cross-batch resource reuse).
    pub(crate) fn append_round(&mut self) {
        if self.partitions == 0 {
            return;
        }
        // One reservation for the whole round keeps the node table from
        // reallocating inside the per-partition push loop — the serving
        // hot path appends thousands of rounds one at a time.
        self.graph.reserve_nodes(self.partitions);
        let b = self.graph.len() / self.partitions;
        for p in 0..self.partitions {
            let node = self.graph.push_node();
            debug_assert_eq!(node, b * self.partitions + p);
            match self.mode {
                ScheduleMode::Barrier => {
                    if node > 0 {
                        self.graph.add_dep_late(node - 1, node);
                    }
                }
                ScheduleMode::Interleaved => {
                    if p > 0 {
                        self.graph.add_dep_late(node - 1, node);
                    }
                    if b > 0 {
                        self.graph.add_dep_late(node - self.partitions, node);
                    }
                    for &(resource, kind) in &self.claims[p] {
                        self.graph.claim(node, resource, kind);
                    }
                }
            }
            if p == 0 {
                self.graph.add_external(node, self.upstream);
            }
        }
    }

    /// The node id of stage `(batch, partition)`.
    pub(crate) fn node(&self, batch: usize, partition: usize) -> usize {
        batch * self.partitions + partition
    }

    /// The `(batch, partition)` coordinates of `node`.
    pub(crate) fn coords(&self, node: usize) -> (usize, usize) {
        (node / self.partitions, node % self.partitions)
    }

    /// Number of partitions per batch.
    pub(crate) fn partitions(&self) -> usize {
        self.partitions
    }

    /// See [`TaskGraph::take_ready`].
    pub(crate) fn take_ready(&mut self) -> Vec<usize> {
        self.graph.take_ready()
    }

    /// See [`TaskGraph::complete`].
    pub(crate) fn complete(&mut self, node: usize) {
        self.graph.complete(node);
    }

    /// See [`TaskGraph::satisfy_external`].
    pub(crate) fn satisfy_external(&mut self, node: usize) {
        self.graph.satisfy_external(node);
    }

    /// See [`TaskGraph::blocked_on_external`].
    pub(crate) fn blocked_on_external(&self, node: usize) -> bool {
        self.graph.blocked_on_external(node)
    }

    /// `true` once every stage has completed (trivially true for an
    /// idle chip).
    pub(crate) fn all_complete(&self) -> bool {
        self.graph.all_complete()
    }
}

/// The resource claims of one stage: its crossbar groups (every core
/// with instructions) exclusively, plus the global-memory channel
/// shared. The shared channel claim never blocks another shared
/// holder — actual channel queueing is modelled by the `MemChannel`
/// component — but it registers the stage as a channel user, so any
/// future exclusive channel owner (a bulk DMA stage, a claim-conflict
/// test) serializes against every in-flight stage.
fn stage_claims(program: &ChipProgram) -> Vec<(u64, ClaimKind)> {
    let mut claims: Vec<(u64, ClaimKind)> = (0..program.cores())
        .filter(|&core| !program.core(CoreId(core)).instructions().is_empty())
        .map(|core| (core as u64, ClaimKind::Exclusive))
        .collect();
    if !claims.is_empty() {
        claims.push((CHANNEL_RESOURCE, ClaimKind::Shared));
    }
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::Instruction;

    fn program_on_cores(cores: std::ops::Range<usize>, total: usize) -> ChipProgram {
        let mut program = ChipProgram::new(total);
        for c in cores {
            program.core_mut(CoreId(c)).push(Instruction::Mvmul {
                waves: 1,
                activations: 1,
                node: 0,
            });
        }
        program
    }

    #[test]
    fn barrier_mode_is_a_single_chain() {
        let programs = [program_on_cores(0..2, 4), program_on_cores(2..4, 4)];
        let mut g = StageGraph::build(&programs, 2, ScheduleMode::Barrier, 0);
        for expect in 0..4 {
            assert_eq!(g.take_ready(), vec![expect], "strict round-major order");
            g.complete(expect);
        }
        assert!(g.all_complete());
    }

    #[test]
    fn interleaving_overlaps_disjoint_core_stages() {
        // Partition 0 on cores 0-1, partition 1 on cores 2-3: batch 1's
        // partition 0 may start while batch 0's partition 1 runs.
        let programs = [program_on_cores(0..2, 4), program_on_cores(2..4, 4)];
        let mut g = StageGraph::build(&programs, 2, ScheduleMode::Interleaved, 0);
        assert_eq!(g.take_ready(), vec![g.node(0, 0)]);
        g.complete(g.node(0, 0));
        let overlapped = g.take_ready();
        assert_eq!(overlapped, vec![g.node(0, 1), g.node(1, 0)], "fill hidden behind the drain");
    }

    #[test]
    fn shared_cores_serialize_under_interleaving() {
        // Both partitions use core 0: the exclusive crossbar-group
        // claim forces barrier-like order.
        let programs = [program_on_cores(0..2, 4), program_on_cores(0..4, 4)];
        let mut g = StageGraph::build(&programs, 2, ScheduleMode::Interleaved, 0);
        for expect in 0..4 {
            assert_eq!(g.take_ready(), vec![expect], "claim conflict serializes");
            g.complete(expect);
        }
    }

    #[test]
    fn externals_gate_each_batch_head() {
        let programs = [program_on_cores(0..2, 4)];
        let mut g = StageGraph::build(&programs, 2, ScheduleMode::Barrier, 1);
        assert!(g.take_ready().is_empty());
        assert!(g.blocked_on_external(g.node(0, 0)));
        g.satisfy_external(g.node(0, 0));
        assert_eq!(g.take_ready(), vec![g.node(0, 0)]);
        g.complete(g.node(0, 0));
        assert!(g.take_ready().is_empty(), "batch 1 waits for its own hand-off");
        g.satisfy_external(g.node(1, 0));
        assert_eq!(g.take_ready(), vec![g.node(1, 0)]);
    }

    #[test]
    fn appended_rounds_chain_behind_running_work() {
        let programs = [program_on_cores(0..2, 4), program_on_cores(2..4, 4)];
        // Start with a single round and begin executing it.
        let mut g = StageGraph::build(&programs, 1, ScheduleMode::Barrier, 0);
        assert_eq!(g.take_ready(), vec![0]);
        g.complete(0);
        assert_eq!(g.take_ready(), vec![1]);
        // Round 1 arrives while (0, 1) is still in flight: its head must
        // wait for the running stage, not start alongside it.
        g.append_round();
        assert!(g.take_ready().is_empty(), "chained behind the live stage");
        g.complete(1);
        assert_eq!(g.take_ready(), vec![g.node(1, 0)]);
        g.complete(g.node(1, 0));
        assert_eq!(g.take_ready(), vec![g.node(1, 1)]);
        g.complete(g.node(1, 1));
        assert!(g.all_complete());
    }

    #[test]
    fn appended_rounds_keep_interleaved_claims_and_externals() {
        let programs = [program_on_cores(0..2, 4), program_on_cores(2..4, 4)];
        let mut g = StageGraph::build(&programs, 1, ScheduleMode::Interleaved, 1);
        g.satisfy_external(g.node(0, 0));
        assert_eq!(g.take_ready(), vec![g.node(0, 0)]);
        g.complete(g.node(0, 0));
        assert_eq!(g.take_ready(), vec![g.node(0, 1)]);
        g.append_round();
        // The new head is gated on its hand-off even though its cores
        // are free; once satisfied it overlaps the draining tail.
        assert!(g.blocked_on_external(g.node(1, 0)));
        assert!(g.take_ready().is_empty());
        g.satisfy_external(g.node(1, 0));
        assert_eq!(g.take_ready(), vec![g.node(1, 0)], "fill overlaps the drain");
        g.complete(g.node(0, 1));
        g.complete(g.node(1, 0));
        assert_eq!(g.take_ready(), vec![g.node(1, 1)]);
    }

    #[test]
    fn coords_round_trip() {
        let programs = [program_on_cores(0..1, 2), program_on_cores(1..2, 2)];
        let g = StageGraph::build(&programs, 3, ScheduleMode::Interleaved, 0);
        assert_eq!(g.partitions(), 2);
        for b in 0..3 {
            for p in 0..2 {
                assert_eq!(g.coords(g.node(b, p)), (b, p));
            }
        }
    }
}
