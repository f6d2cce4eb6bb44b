//! The discrete-event chip simulator (single-chip front end).

use crate::error::SimError;
use crate::report::SimReport;
use crate::system::{ChipLoad, SystemSimulator};
use pim_arch::{ChipSpec, ScheduleMode, TimingMode, Topology};
use pim_isa::ChipProgram;

/// Event-driven simulator for one chip, built on the shared
/// [`pim_engine`] discrete-event core.
///
/// Since the multi-chip generalization this is a thin wrapper over
/// [`SystemSimulator`] with a [`Topology::single`] system; the public
/// API and the analytic-mode report bytes (pinned by the golden
/// fixtures in `tests/golden/`) are unchanged.
///
/// Every hardware resource is an engine component: per-core
/// sequencers, one global-memory channel (bandwidth + first-access
/// latency per block transfer, feeding the in-line LPDDR3 energy
/// model), one arbitrated bus for core-to-core sends, and the
/// SEND/RECV rendezvous.
/// `SEND` is buffered (the sender proceeds after arbitration); `RECV`
/// blocks until the matching send has delivered. Partitions are
/// separated by full-chip barriers, and time advances exclusively
/// through the engine's `(time, sequence)`-ordered event queue, so a
/// fixed seed and program give bit-identical reports.
///
/// Same-instant contention for a shared resource resolves in event
/// schedule order (fully deterministic). This can differ from the
/// retired hand-rolled loop, which broke exact time ties by lowest
/// core index; programs without exact `f64` ties — in particular the
/// regression fixture in `tests/engine_determinism.rs` — time out
/// identically under both policies.
///
/// ## Timing modes
///
/// In [`TimingMode::Analytic`] (the default, and the paper's
/// methodology) the memory channel charges a flat first-access latency
/// plus bandwidth streaming, and the in-line LPDDR3 controller refines
/// energy only — reports are byte-identical to the pinned golden
/// fixtures. In [`TimingMode::ClosedLoop`] every channel transfer is
/// striped over a bank of in-line multi-channel controllers and the
/// requesting core blocks until the completion event fires, so bank
/// conflicts, row hits/misses, and channel interleaving shape the
/// critical path; the report then carries per-channel stats.
#[derive(Debug, Clone)]
pub struct ChipSimulator {
    system: SystemSimulator,
}

impl ChipSimulator {
    /// Creates a simulator for `chip` in analytic timing mode with the
    /// in-line DRAM model enabled.
    pub fn new(chip: ChipSpec) -> Self {
        Self { system: SystemSimulator::new(chip, Topology::single()) }
    }

    /// Enables or disables the in-line `pim-dram` model (it refines
    /// DRAM energy but costs simulation time; chip timing is
    /// identical either way). Ignored in closed-loop mode, where the
    /// controllers are always on the critical path.
    pub fn with_dram_replay(mut self, enabled: bool) -> Self {
        self.system = self.system.with_dram_replay(enabled);
        self
    }

    /// Selects the memory-channel timing fidelity.
    pub fn with_timing_mode(mut self, mode: TimingMode) -> Self {
        self.system = self.system.with_timing_mode(mode);
        self
    }

    /// Selects the intra-chip stage dispatch policy (see
    /// [`SystemSimulator::with_schedule_mode`]). The default barrier
    /// mode reproduces the paper's execution and the golden fixtures.
    pub fn with_schedule_mode(mut self, schedule: ScheduleMode) -> Self {
        self.system = self.system.with_schedule_mode(schedule);
        self
    }

    /// Sets the closed-loop DRAM channel count (clamped to at least
    /// one). Without this, the count is derived from the chip's
    /// aggregate memory bandwidth over the per-channel LPDDR3 peak.
    pub fn with_dram_channels(mut self, channels: usize) -> Self {
        self.system = self.system.with_dram_channels(channels);
        self
    }

    /// Sets the closed-loop address-interleave granularity in bytes.
    pub fn with_dram_interleave(mut self, bytes: usize) -> Self {
        self.system = self.system.with_dram_interleave(bytes);
        self
    }

    /// Allows the closed-loop controllers to reorder same-instant
    /// in-flight accesses from independent cores FR-FCFS style (off by
    /// default; see [`SystemSimulator::with_dram_reorder`]).
    pub fn with_dram_reorder(mut self, enabled: bool) -> Self {
        self.system = self.system.with_dram_reorder(enabled);
        self
    }

    /// Runs on the engine's retired binary-heap event queue (the
    /// determinism suites' oracle; see
    /// [`SystemSimulator::with_reference_queue`]).
    #[cfg(feature = "reference-queue")]
    pub fn with_reference_queue(mut self, enabled: bool) -> Self {
        self.system = self.system.with_reference_queue(enabled);
        self
    }

    /// The closed-loop channel count in effect: explicit, or derived
    /// from the chip's aggregate bandwidth over one LPDDR3 channel's
    /// peak (the presets' 6.4 GB/s maps to one channel).
    pub fn dram_channel_count(&self) -> usize {
        self.system.dram_channel_count()
    }

    /// Runs one batch cycle: every partition program in order with
    /// barriers in between.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] for malformed schedules and
    /// [`SimError::CoreCountMismatch`] when a program does not match
    /// the chip.
    pub fn run(&self, programs: &[ChipProgram], batch: usize) -> Result<SimReport, SimError> {
        self.system.run(&[ChipLoad::new(programs)], 1, batch)
    }

    /// Runs `rounds` successive batch cycles of the partition
    /// programs. Under [`ScheduleMode::Interleaved`] batch `b+1`'s
    /// head partitions overlap batch `b`'s drain wherever the
    /// partitions' crossbar-group claims permit; in barrier mode this
    /// is `rounds` back-to-back [`Self::run`] cycles on one engine.
    ///
    /// # Errors
    ///
    /// As for [`Self::run`].
    pub fn run_batches(
        &self,
        programs: &[ChipProgram],
        rounds: usize,
        batch: usize,
    ) -> Result<SimReport, SimError> {
        self.system.run(&[ChipLoad::new(programs)], rounds, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compass::{CompileOptions, Compiler, GaParams, Strategy};
    use pim_isa::{CoreId, Tag};
    use pim_model::zoo;

    fn compile(
        net: &pim_model::Network,
        chip: &ChipSpec,
        strategy: Strategy,
        batch: usize,
    ) -> compass::CompiledModel {
        Compiler::new(chip.clone())
            .compile(
                net,
                &CompileOptions::new()
                    .with_strategy(strategy)
                    .with_batch_size(batch)
                    .with_ga(GaParams::fast())
                    .with_seed(3),
            )
            .expect("compilation succeeds")
    }

    #[test]
    fn simulates_compiled_tiny_cnn() {
        let chip = ChipSpec::chip_s();
        let compiled = compile(&zoo::tiny_cnn(), &chip, Strategy::Greedy, 2);
        let report = ChipSimulator::new(chip).run(compiled.programs(), 2).unwrap();
        assert!(report.makespan_ns > 0.0);
        assert_eq!(report.partitions.len(), compiled.partitions().len());
        for p in &report.partitions {
            assert!(p.latency_ns() > 0.0);
            assert!(p.replace_ns >= 0.0);
            assert!(p.replace_ns <= p.latency_ns() + 1e-9);
        }
    }

    #[test]
    fn partitions_execute_back_to_back() {
        let chip = ChipSpec::chip_s();
        let compiled = compile(&zoo::resnet18(), &chip, Strategy::Layerwise, 2);
        let report = ChipSimulator::new(chip).run(compiled.programs(), 2).unwrap();
        for pair in report.partitions.windows(2) {
            assert!((pair[1].start_ns - pair[0].end_ns).abs() < 1e-6, "barrier between partitions");
        }
        let last = report.partitions.last().unwrap();
        assert!((last.end_ns - report.makespan_ns).abs() < 1e-6);
    }

    #[test]
    fn larger_batch_amortizes_replacement() {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let sim = ChipSimulator::new(chip.clone()).with_dram_replay(false);
        let c2 = compile(&net, &chip, Strategy::Greedy, 2);
        let c16 = compile(&net, &chip, Strategy::Greedy, 16);
        let r2 = sim.run(c2.programs(), 2).unwrap();
        let r16 = sim.run(c16.programs(), 16).unwrap();
        assert!(
            r16.throughput_ips() > 1.3 * r2.throughput_ips(),
            "batch 16 ({:.0} ips) should clearly beat batch 2 ({:.0} ips)",
            r16.throughput_ips(),
            r2.throughput_ips()
        );
    }

    #[test]
    fn dram_replay_reports_energy() {
        let chip = ChipSpec::chip_s();
        let compiled = compile(&zoo::tiny_cnn(), &chip, Strategy::Greedy, 1);
        let with = ChipSimulator::new(chip.clone()).run(compiled.programs(), 1).unwrap();
        assert!(with.dram_energy.is_some());
        assert!(with.dram_energy.unwrap().total_nj() > 0.0);
        assert!(with.dram_trace.total_bytes() > 0);
        let without =
            ChipSimulator::new(chip).with_dram_replay(false).run(compiled.programs(), 1).unwrap();
        assert!(without.dram_energy.is_none());
        // Timing is identical either way (replay refines energy only).
        assert!((with.makespan_ns - without.makespan_ns).abs() < 1e-9);
    }

    #[test]
    fn core_activity_is_consistent() {
        let chip = ChipSpec::chip_s();
        let compiled = compile(&zoo::resnet18(), &chip, Strategy::Greedy, 4);
        let report = ChipSimulator::new(chip.clone())
            .with_dram_replay(false)
            .run(compiled.programs(), 4)
            .unwrap();
        let mut any_mvm = false;
        for p in &report.partitions {
            assert_eq!(p.core_activity.len(), chip.cores);
            let span = p.latency_ns();
            for a in &p.core_activity {
                assert!(a.busy_ns() >= 0.0);
                // A core can never be busy longer than the partition ran.
                assert!(a.busy_ns() <= span + 1e-6, "busy {} exceeds span {span}", a.busy_ns());
                assert!(a.utilization(span) <= 1.0);
                any_mvm |= a.mvm_ns > 0.0;
            }
            assert!(p.mean_utilization() > 0.0, "some core must have worked");
        }
        assert!(any_mvm, "MVM busy time must be recorded somewhere");
    }

    #[test]
    fn one_send_wakes_every_receiver_of_the_tag() {
        // Broadcast-style schedule: two cores block on the same tag
        // before the producer's send reaches the bus. Both must wake.
        use pim_isa::Instruction as I;
        let chip = ChipSpec::chip_s();
        let mut program = ChipProgram::new(chip.cores);
        program.core_mut(CoreId(0)).push(I::Send { to: CoreId(1), bytes: 64, tag: Tag(7) });
        program.core_mut(CoreId(1)).push(I::Recv { from: CoreId(0), bytes: 64, tag: Tag(7) });
        program.core_mut(CoreId(2)).push(I::Recv { from: CoreId(0), bytes: 64, tag: Tag(7) });
        let report = ChipSimulator::new(chip.clone())
            .with_dram_replay(false)
            .run(&[program], 1)
            .expect("broadcast recv must not deadlock");
        let activity = &report.partitions[0].core_activity;
        // Both receivers stalled until the same delivery instant.
        assert!(activity[1].recv_wait_ns > 0.0);
        assert_eq!(activity[1].recv_wait_ns, activity[2].recv_wait_ns);
    }

    #[test]
    fn closed_loop_reports_per_channel_stats() {
        let chip = ChipSpec::chip_s();
        let compiled = compile(&zoo::tiny_cnn(), &chip, Strategy::Greedy, 2);
        let report = ChipSimulator::new(chip)
            .with_timing_mode(TimingMode::ClosedLoop)
            .with_dram_channels(2)
            .run(compiled.programs(), 2)
            .unwrap();
        assert!(report.makespan_ns > 0.0);
        let channels = report.dram_channels.as_ref().expect("closed loop reports channel stats");
        assert_eq!(channels.len(), 2);
        let total: u64 = channels.iter().map(|c| c.total_bytes()).sum();
        assert_eq!(total as usize, report.dram_trace.total_bytes());
        assert!(report.dram_energy.is_some());
        assert!(channels.iter().any(|c| c.requests > 0));
        for c in channels {
            assert!(c.utilization() <= 1.0);
            assert!(c.busy_ns <= c.makespan_ns + 1e-9);
        }
    }

    #[test]
    fn analytic_mode_reports_no_channel_stats() {
        let chip = ChipSpec::chip_s();
        let compiled = compile(&zoo::tiny_cnn(), &chip, Strategy::Greedy, 1);
        let report = ChipSimulator::new(chip).run(compiled.programs(), 1).unwrap();
        assert!(report.dram_channels.is_none());
    }

    #[test]
    fn closed_loop_extra_channels_never_slow_the_chip() {
        // Four cores each streaming 2 MiB of weights: striping over
        // four channels must beat a single channel.
        use pim_isa::Instruction as I;
        let chip = ChipSpec::chip_s();
        let mut program = ChipProgram::new(chip.cores);
        for c in 0..4 {
            program.core_mut(CoreId(c)).push(I::LoadWeight { bytes: 2 << 20 });
        }
        let run = |ch: usize| {
            ChipSimulator::new(chip.clone())
                .with_timing_mode(TimingMode::ClosedLoop)
                .with_dram_channels(ch)
                .run(std::slice::from_ref(&program), 1)
                .unwrap()
                .makespan_ns
        };
        let one = run(1);
        let four = run(4);
        assert!(four < one, "4 channels ({four} ns) must beat 1 channel ({one} ns)");
    }

    #[test]
    fn fr_fcfs_reorder_is_deterministic_and_conserves_bytes() {
        // Same-instant accesses from independent cores may reorder
        // under the flag, but the outcome is bit-stable run to run and
        // no byte is lost.
        use pim_isa::Instruction as I;
        let chip = ChipSpec::chip_s();
        let mut program = ChipProgram::new(chip.cores);
        for c in 0..8 {
            program.core_mut(CoreId(c)).push(I::LoadData { bytes: 96 * 1024 });
            program.core_mut(CoreId(c)).push(I::StoreData { bytes: 32 * 1024 });
        }
        let run = |reorder: bool| {
            ChipSimulator::new(chip.clone())
                .with_timing_mode(TimingMode::ClosedLoop)
                .with_dram_channels(2)
                .with_dram_reorder(reorder)
                .run(std::slice::from_ref(&program), 1)
                .unwrap()
        };
        let a = run(true);
        let b = run(true);
        assert_eq!(a, b, "FR-FCFS reordering must stay deterministic");
        let total: u64 = a.dram_channels.as_ref().unwrap().iter().map(|c| c.total_bytes()).sum();
        assert_eq!(total as usize, 8 * (96 + 32) * 1024, "every byte served exactly once");
        // The default path still serves at arrival order and may
        // differ in timing, but moves the same traffic.
        let fifo = run(false);
        assert_eq!(fifo.dram_trace, a.dram_trace);
    }

    #[test]
    fn deadlock_detected_on_malformed_schedule() {
        use pim_isa::{CoreProgram, Instruction as I};
        let chip = ChipSpec::chip_s();
        let mut program = ChipProgram::new(chip.cores);
        // A recv with no matching send anywhere.
        let stream: &mut CoreProgram = program.core_mut(CoreId(0));
        stream.push(I::Recv { from: CoreId(1), bytes: 64, tag: Tag(999) });
        let err = ChipSimulator::new(chip).run(&[program], 1).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn simulated_and_estimated_latencies_agree_loosely() {
        // The analytical estimator and the simulator model the same
        // machine at different fidelities; they should agree within a
        // small factor on a simple workload.
        let chip = ChipSpec::chip_s();
        let net = zoo::tiny_cnn();
        let compiled = compile(&net, &chip, Strategy::Greedy, 4);
        let sim = ChipSimulator::new(chip).with_dram_replay(false);
        let report = sim.run(compiled.programs(), 4).unwrap();
        let est = compiled.estimate().batch_latency_ns;
        let ratio = report.makespan_ns / est;
        assert!(
            (0.2..5.0).contains(&ratio),
            "sim {} vs estimate {} (ratio {ratio})",
            report.makespan_ns,
            est
        );
    }

    #[test]
    fn send_recv_pipeline_overlaps_stages() {
        // A two-stage pipeline simulated with chunked handoff should
        // finish faster than the serial sum of its stages.
        use pim_isa::{Instruction as I, VectorOpKind};
        let chip = ChipSpec::chip_s();
        let mut program = ChipProgram::new(chip.cores);
        let chunks = 8u64;
        for c in 0..chunks {
            program.core_mut(CoreId(0)).push(I::Mvmul { waves: 10, activations: 10, node: 0 });
            program.core_mut(CoreId(0)).push(I::Send { to: CoreId(1), bytes: 64, tag: Tag(c) });
            program.core_mut(CoreId(1)).push(I::Recv { from: CoreId(0), bytes: 64, tag: Tag(c) });
            program.core_mut(CoreId(1)).push(I::Mvmul { waves: 10, activations: 10, node: 1 });
            program.core_mut(CoreId(1)).push(I::VectorOp { op: VectorOpKind::Relu, elements: 12 });
        }
        let report =
            ChipSimulator::new(chip.clone()).with_dram_replay(false).run(&[program], 1).unwrap();
        let serial = 2.0 * chunks as f64 * 10.0 * chip.crossbar.mvm_latency_ns;
        assert!(
            report.makespan_ns < serial,
            "pipelined {} should beat serial {}",
            report.makespan_ns,
            serial
        );
    }
}
