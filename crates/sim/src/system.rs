//! The multi-chip system simulator.
//!
//! A system is several chips on **one** discrete-event engine, joined
//! by an `InterconnectComponent` that carries inter-chip hand-offs
//! hop-by-hop over the topology's links — with per-link serialization
//! and queueing, so concurrent transfers contend instead of seeing a
//! flat latency.
//!
//! Each chip is one `ChipSequencer` component plus the cores it spawns.
//! The sequencer owns the chip's memory channel, bus and rendezvous as
//! plain state and serves the cores' requests for them in line. It
//! dispatches the chip's `(batch, partition)` stages from per-partition
//! cursors: every partition runs its batches in order, so the rounds
//! each partition has started and finished say which stage may start
//! next. A stage spawns its partition program's cores once its
//! predecessors have drained. In the default [`ScheduleMode::Barrier`] the stages form a
//! single round-major chain — the paper's full-chip barrier,
//! byte-identical to the golden fixtures. Under
//! [`ScheduleMode::Interleaved`] only the dataflow and crossbar-reuse
//! terms remain, plus a rule that two partitions whose programs share a
//! core never run together, so a chip starts batch `b+1`'s partition 0 the moment
//! its crossbars free up while batch `b` still drains downstream
//! partitions.
//!
//! A chip's SEND/RECVs meet in its rendezvous, matched by `(stage,
//! tag)`: a RECV completes only on a SEND of its own stage, so stages
//! that overlap under interleaving may reuse the same program tags, and
//! every drained stage retires its deliveries in either mode. In barrier
//! mode a stage start also resets the channel and the bus to the
//! barrier instant.
//!
//! A chip may ship hand-offs to *several* downstream peers (fan-out)
//! and gate on hand-offs from several upstream producers (fan-in);
//! each batch's first stage waits for that batch's hand-off from every
//! producer.
//!
//! The single-chip [`crate::ChipSimulator`] is a thin wrapper over
//! this machinery with a [`Topology::single`] system; its analytic
//! reports stay byte-identical to the golden fixtures.
//!
//! Every run — fixed-round ([`SystemSimulator::run`]) or open-loop
//! serving ([`SystemSimulator::run_serving`]) — goes through one
//! function that builds the whole system on one single-threaded engine.
//! Serving adds the [`crate::serve`] request buffer to the same
//! component layout: it delivers the arrival stream to itself, one
//! pending arrival at a time, and appends each admitted batch as a
//! round on every active chip. The engine's retired binary-heap queue
//! (`reference-queue` feature) runs the identical simulation as the
//! byte-identity oracle.

use crate::components::{
    Bus, ChipEvent, CoreComponent, CoreTiming, DramPort, MemChannel, Rendezvous,
};
use crate::error::SimError;
use crate::report::{
    ChipSimSummary, CoreActivity, EngineMode, LinkStats, PartitionSimReport, SimReport, TraceStats,
};
use crate::serve::{percentiles, RequestBuffer, RequestRecord, ServingConfig, ServingReport};
use pim_arch::{ChipSpec, EnergyModel, Link, PowerBreakdown, ScheduleMode, TimingMode, Topology};
use pim_dram::{DramConfig, DramEnergy, DramSimulator};
use pim_engine::{Component, ComponentId, Engine, EngineCtx, Event, SimTime};
use pim_isa::{ChipProgram, CoreId, Instruction, InstructionStats};
use std::any::Any;
use std::rc::Rc;

/// One per-round boundary transfer a chip ships downstream after its
/// last partition drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// Destination chip index.
    pub dst: usize,
    /// Bytes shipped per round (the downstream chip's entry
    /// activations for the whole round).
    pub bytes: usize,
}

/// One chip's share of a system workload.
#[derive(Debug, Clone, Default)]
pub struct ChipLoad<'a> {
    /// The partition programs this chip executes each round, in
    /// order (empty for chips the schedule leaves idle).
    pub programs: &'a [ChipProgram],
    /// Boundary transfers shipped after each round, one per
    /// downstream consumer (empty for sinks; several entries fan the
    /// chip's output out to multiple peers).
    pub handoffs: Vec<Handoff>,
}

impl<'a> ChipLoad<'a> {
    /// A load executing `programs` with no downstream hand-off.
    pub fn new(programs: &'a [ChipProgram]) -> Self {
        Self { programs, handoffs: Vec::new() }
    }

    /// Adds a per-round hand-off of `bytes` to chip `dst`.
    pub fn with_handoff(mut self, dst: usize, bytes: usize) -> Self {
        self.handoffs.push(Handoff { dst, bytes });
        self
    }
}

/// Event-driven simulator for a multi-chip system on the shared
/// [`pim_engine`] discrete-event core.
///
/// Every chip runs the same [`ChipSpec`]; the topology contributes the
/// interconnect graph. See the module docs for the execution model.
///
/// # Example
///
/// ```
/// use compass::{Compiler, CompileOptions, Strategy};
/// use pim_arch::{ChipSpec, Topology};
/// use pim_model::zoo;
/// use pim_sim::{ChipLoad, SystemSimulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chip = ChipSpec::chip_s();
/// let compiled = Compiler::new(chip.clone()).compile(
///     &zoo::tiny_cnn(),
///     &CompileOptions::new().with_strategy(Strategy::Greedy).with_batch_size(2),
/// )?;
/// // Batch-shard across a 2-chip ring: both chips run the whole model
/// // on their own samples, concurrently.
/// let sim = SystemSimulator::new(chip, Topology::ring(2));
/// let loads = [ChipLoad::new(compiled.programs()), ChipLoad::new(compiled.programs())];
/// let report = sim.run(&loads, 1, 4)?;
/// assert!(report.makespan_ns > 0.0);
/// assert_eq!(report.chips.as_ref().unwrap().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemSimulator {
    chip: ChipSpec,
    topology: Topology,
    replay_dram: bool,
    mode: TimingMode,
    schedule: ScheduleMode,
    dram_channels: Option<usize>,
    #[cfg(feature = "reference-queue")]
    reference_queue: bool,
}

impl SystemSimulator {
    /// Creates a system of `chip`s joined by `topology`, in analytic
    /// timing mode, barrier scheduling, with the in-line DRAM model
    /// enabled.
    pub fn new(chip: ChipSpec, topology: Topology) -> Self {
        Self {
            chip,
            topology,
            replay_dram: true,
            mode: TimingMode::Analytic,
            schedule: ScheduleMode::Barrier,
            dram_channels: None,
            #[cfg(feature = "reference-queue")]
            reference_queue: false,
        }
    }

    /// Runs the simulation on the engine's retired binary-heap event
    /// queue instead of the run queue — the determinism suites'
    /// oracle. Timing and reports are identical by construction; this
    /// knob exists so tests can *prove* that, byte for byte.
    #[cfg(feature = "reference-queue")]
    pub fn with_reference_queue(mut self, enabled: bool) -> Self {
        self.reference_queue = enabled;
        self
    }

    /// Enables or disables the per-chip in-line `pim-dram` model
    /// (energy refinement only; ignored in closed-loop mode).
    pub fn with_dram_replay(mut self, enabled: bool) -> Self {
        self.replay_dram = enabled;
        self
    }

    /// Selects the memory-channel timing fidelity.
    pub fn with_timing_mode(mut self, mode: TimingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the intra-chip stage dispatch policy. The default
    /// [`ScheduleMode::Barrier`] reproduces the paper's full-chip
    /// barriers (and the golden fixtures); [`ScheduleMode::Interleaved`]
    /// lets a batch's head stages overlap the previous batch's drain
    /// wherever the running stages' programs share no core.
    pub fn with_schedule_mode(mut self, schedule: ScheduleMode) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the closed-loop DRAM channel count per chip (clamped to at
    /// least one).
    pub fn with_dram_channels(mut self, channels: usize) -> Self {
        self.dram_channels = Some(channels.max(1));
        self
    }

    fn validate(&self, loads: &[ChipLoad<'_>]) -> Result<(), SimError> {
        self.chip.validate().map_err(|e| SimError::InvalidChip(e.to_string()))?;
        self.topology.validate().map_err(|e| SimError::InvalidTopology(e.to_string()))?;
        if loads.len() != self.topology.chips() {
            return Err(SimError::InvalidTopology(format!(
                "{} chip loads for a {}-chip topology",
                loads.len(),
                self.topology.chips()
            )));
        }
        for (c, load) in loads.iter().enumerate() {
            for (i, handoff) in load.handoffs.iter().enumerate() {
                if handoff.dst >= loads.len() || handoff.dst == c {
                    return Err(SimError::InvalidTopology(format!(
                        "chip {c} hands off to invalid chip {}",
                        handoff.dst
                    )));
                }
                if load.handoffs[..i].iter().any(|h| h.dst == handoff.dst) {
                    return Err(SimError::InvalidTopology(format!(
                        "chip {c} declares multiple hand-offs to chip {}",
                        handoff.dst
                    )));
                }
                if load.programs.is_empty() {
                    return Err(SimError::InvalidTopology(format!(
                        "idle chip {c} cannot produce a hand-off"
                    )));
                }
            }
            for program in load.programs {
                if program.cores() > self.chip.cores {
                    return Err(SimError::CoreCountMismatch {
                        program_cores: program.cores(),
                        chip_cores: self.chip.cores,
                    });
                }
            }
        }
        // A cyclic hand-off chain starves at round 0: every chip on
        // the cycle waits for an input no one can produce. With
        // fan-out a chip has several outgoing edges, so run a proper
        // DFS (0 = unvisited, 1 = on stack, 2 = done).
        let mut state = vec![0u8; loads.len()];
        fn dfs(at: usize, loads: &[ChipLoad<'_>], state: &mut [u8]) -> Option<usize> {
            state[at] = 1;
            for handoff in &loads[at].handoffs {
                match state[handoff.dst] {
                    1 => return Some(handoff.dst),
                    0 => {
                        if let Some(hit) = dfs(handoff.dst, loads, state) {
                            return Some(hit);
                        }
                    }
                    _ => {}
                }
            }
            state[at] = 2;
            None
        }
        for start in 0..loads.len() {
            if state[start] == 0 {
                if let Some(on_cycle) = dfs(start, loads, &mut state) {
                    return Err(SimError::InvalidTopology(format!(
                        "hand-off cycle through chip {on_cycle}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Runs `rounds` pipeline rounds of the per-chip workloads and
    /// folds the outcome into one [`SimReport`]. `samples_per_round`
    /// is the number of inference samples the whole system completes
    /// per round (it scales the report's throughput, not the
    /// simulation itself).
    ///
    /// Partition reports appear chip-major, then in (round, partition)
    /// order within each chip — whatever order interleaving actually
    /// executed them in. The `chips`/`links` report sections are
    /// populated only for multi-chip topologies, keeping single-chip
    /// analytic reports byte-identical to the golden fixtures.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidChip`] for a chip spec that fails
    /// validation, [`SimError::InvalidTopology`] for workloads that do
    /// not fit the topology, [`SimError::CoreCountMismatch`] when a
    /// program does not match the chip, and [`SimError::Deadlock`] for
    /// malformed schedules.
    pub fn run(
        &self,
        loads: &[ChipLoad<'_>],
        rounds: usize,
        samples_per_round: usize,
    ) -> Result<SimReport, SimError> {
        self.validate(loads)?;
        let rounds = rounds.max(1);
        let (outcomes, links, _) = self.execute(loads, Workload::Rounds(rounds));
        self.fold_report(loads, rounds, samples_per_round, outcomes, links)
    }

    /// One chip's global-memory channel, with the DRAM model of the
    /// timing mode in line: the analytic energy model, or the
    /// closed-loop multi-channel controllers.
    fn memory_channel(&self) -> MemChannel {
        let chip = &self.chip;
        let dram = match self.mode {
            TimingMode::Analytic if self.replay_dram => {
                DramPort::Inline(Box::new(DramSimulator::new(DramConfig::lpddr3_1600())))
            }
            TimingMode::Analytic => DramPort::Off,
            TimingMode::ClosedLoop => {
                DramPort::closed_loop(self.dram_channels.unwrap_or_else(|| {
                    DramConfig::lpddr3_1600().channels_for_bandwidth(chip.memory.bandwidth_gbps)
                }))
            }
        };
        MemChannel::new(chip, dram)
    }

    /// Builds chip `c`'s sequencer over its stage cursors and
    /// per-source hand-off ledger: batch b's head stage waits for the
    /// b-th hand-off of every upstream producer, so a fast producer can
    /// never stand in for a slow one.
    fn sequencer_for(
        &self,
        c: usize,
        loads: &[ChipLoad<'_>],
        rounds: usize,
        interconnect: ComponentId,
    ) -> ChipSequencer {
        let load = &loads[c];
        let upstream: Vec<(usize, usize)> = loads
            .iter()
            .enumerate()
            .filter(|(_, l)| l.handoffs.iter().any(|h| h.dst == c))
            .map(|(src, _)| (src, 0))
            .collect();
        // Every stage of a partition runs the same per-core streams:
        // build them once and hand each spawned core a shared handle.
        let streams = load
            .programs
            .iter()
            .map(|program| {
                (0..program.cores())
                    .map(|c| Rc::from(program.core(CoreId(c)).instructions()))
                    .collect()
            })
            .collect();
        ChipSequencer {
            chip_index: c,
            streams,
            timing: CoreTiming::of(&self.chip),
            channel: self.memory_channel(),
            bus: Bus::new(&self.chip),
            rendezvous: Rendezvous::default(),
            interconnect,
            handoffs: load.handoffs.clone(),
            notify: None,
            stages: StageCursors::new(load.programs, rounds, self.schedule, upstream),
            running: load.programs.iter().map(|_| None).collect(),
            wait_from: None,
            handoff_wait_ns: 0.0,
            records: Vec::new(),
        }
    }

    /// Runs an *open-loop serving* workload: instead of a fixed round
    /// count, a [`crate::TrafficSpec`]-driven arrival stream feeds a
    /// [`crate::BatchPolicy`]-governed request buffer, and every
    /// admitted batch appends one pipeline round to the live system.
    /// The returned report carries the usual sections plus
    /// [`SimReport::serving`] — per-request timelines, nearest-rank
    /// p50/p99/p999 latency, queueing delay, goodput and drops — and
    /// `batch` reflects the requests actually served.
    ///
    /// Serving runs are deterministic per traffic seed: the arrival
    /// stream is resolved before the run starts, and every admitted
    /// round reaches the chips [`crate::ADMISSION_LATENCY_NS`] after
    /// its batch is cut.
    ///
    /// # Errors
    ///
    /// Everything [`SystemSimulator::run`] returns, plus
    /// [`SimError::InvalidServing`] for malformed traces or synthetic
    /// traffic models, a zero queue capacity, in-flight limit or batch
    /// size, a batch deadline or latency SLO that is not a finite
    /// non-negative time, or a system with no active chip to serve on.
    pub fn run_serving(
        &self,
        loads: &[ChipLoad<'_>],
        serving: &ServingConfig,
    ) -> Result<SimReport, SimError> {
        self.validate(loads)?;
        if serving.queue_capacity == 0 {
            return Err(SimError::InvalidServing(
                "queue capacity must admit at least one request".into(),
            ));
        }
        if serving.max_inflight == 0 {
            return Err(SimError::InvalidServing(
                "at least one round must be allowed in flight".into(),
            ));
        }
        match serving.policy {
            crate::BatchPolicy::MaxSize(0) | crate::BatchPolicy::Deadline { max_size: 0, .. } => {
                return Err(SimError::InvalidServing(
                    "batches must hold at least one request".into(),
                ))
            }
            crate::BatchPolicy::Deadline { timeout_ns, .. }
                if !(timeout_ns.is_finite() && timeout_ns >= 0.0) =>
            {
                return Err(SimError::InvalidServing(format!(
                    "batch deadline {timeout_ns} ns is not a finite non-negative time"
                )))
            }
            _ => {}
        }
        if let Some(slo) = serving.slo_ns.filter(|slo| !(slo.is_finite() && *slo >= 0.0)) {
            return Err(SimError::InvalidServing(format!(
                "latency SLO {slo} ns is not a finite non-negative time"
            )));
        }
        let arrivals = serving.traffic.arrivals()?;
        if loads.iter().all(|l| l.programs.is_empty()) {
            return Err(SimError::InvalidServing(
                "every chip is idle; nothing can serve the request stream".into(),
            ));
        }
        let workload = Workload::Serving { config: serving, arrivals };
        let (outcomes, links, buffer) = self.execute(loads, workload);
        let buffer = buffer.expect("serving runs register a request buffer");
        self.fold_serving_report(loads, serving, buffer, outcomes, links)
    }

    /// The one system run path: every chip, the interconnect and — for
    /// serving — the request buffer on one engine, run to idle.
    /// Component ids follow one fixed layout: the interconnect, then
    /// one sequencer per chip (which owns the chip's memory channel,
    /// bus and rendezvous), then the buffer; cores are spawned after.
    /// Returns the per-chip outcomes, the link statistics (multi-chip
    /// topologies only) and, for serving, the request buffer's
    /// admission ledger.
    fn execute(
        &self,
        loads: &[ChipLoad<'_>],
        workload: Workload<'_>,
    ) -> (Vec<ChipOutcome>, Option<Vec<LinkStats>>, Option<RequestBuffer>) {
        let chips = loads.len();
        let mut engine: Engine<ChipEvent> = Engine::new(0);
        #[cfg(feature = "reference-queue")]
        if self.reference_queue {
            engine.use_reference_queue();
        }
        // The interconnect is registered before the sequencers, so the
        // sequencer addresses it must deliver to are the next `chips`
        // ids after its own.
        let interconnect_id = engine.next_component_id();
        let sequencer_ids: Vec<ComponentId> =
            (0..chips).map(|c| ComponentId(interconnect_id.0 + 1 + c)).collect();
        let interconnect =
            engine.add_component(InterconnectComponent::new(&self.topology, &sequencer_ids));
        assert_eq!(interconnect, interconnect_id);
        let buffer_id = ComponentId(interconnect_id.0 + 1 + chips);
        // Serving sequencers start with zero rounds; the buffer appends
        // one per admitted batch and hears back when each drains.
        let (rounds, notify) = match workload {
            Workload::Rounds(rounds) => (rounds, None),
            Workload::Serving { .. } => (0, Some(buffer_id)),
        };
        for c in 0..chips {
            let mut sequencer = self.sequencer_for(c, loads, rounds, interconnect_id);
            if !loads[c].programs.is_empty() {
                sequencer.notify = notify;
            }
            let id = engine.add_component(sequencer);
            assert_eq!(id, sequencer_ids[c]);
        }
        let serving = match workload {
            Workload::Rounds(_) => None,
            Workload::Serving { config, arrivals } => {
                let active: Vec<(usize, ComponentId)> = (0..chips)
                    .filter(|&c| !loads[c].programs.is_empty())
                    .map(|c| (c, sequencer_ids[c]))
                    .collect();
                let id = engine.add_component(RequestBuffer::new(config, arrivals, active));
                assert_eq!(id, buffer_id);
                Some(id)
            }
        };
        for &id in sequencer_ids.iter().chain(&serving) {
            engine.schedule(SimTime::ZERO, id, ChipEvent::Kick);
        }
        engine.run_until_idle();

        let buffer = serving.map(|id| {
            engine.extract::<RequestBuffer>(id).expect("request buffer survives the run")
        });
        let outcomes: Vec<ChipOutcome> =
            sequencer_ids.iter().map(|&id| self.chip_outcome(&mut engine, id)).collect();
        let links = (!self.topology.is_single()).then(|| {
            let ic: InterconnectComponent =
                engine.extract(interconnect_id).expect("interconnect survives the run");
            ic.stats
        });
        (outcomes, links, buffer)
    }

    /// Folds a finished serving run — the request buffer's admission
    /// ledger plus the per-chip outcomes — into the final report.
    fn fold_serving_report(
        &self,
        loads: &[ChipLoad<'_>],
        serving: &ServingConfig,
        buffer: RequestBuffer,
        outcomes: Vec<ChipOutcome>,
        links: Option<Vec<LinkStats>>,
    ) -> Result<SimReport, SimError> {
        // Round spans — folded from the stage records *before*
        // fold_report consumes the outcomes. A round starts when its
        // first stage starts anywhere and finishes when its last stage
        // drains on the slowest chip.
        let mut round_start = vec![f64::INFINITY; buffer.formed];
        let mut round_finish = vec![0.0f64; buffer.formed];
        for outcome in &outcomes {
            for record in &outcome.sequencer.records {
                round_start[record.round] = round_start[record.round].min(record.start_ns);
                round_finish[record.round] = round_finish[record.round].max(record.end_ns);
            }
        }
        let mut report = self.fold_report(loads, buffer.formed.max(1), 1, outcomes, links)?;

        let records: Vec<RequestRecord> = buffer
            .admitted
            .iter()
            .map(|&(arrival_ns, round)| RequestRecord {
                arrival_ns,
                round,
                start_ns: round_start[round],
                finish_ns: round_finish[round],
            })
            .collect();
        // Quickselect the three requested ranks instead of sorting the
        // whole sample: same exact nearest-rank values, linear expected
        // time.
        let mut latencies: Vec<f64> = records.iter().map(|r| r.latency_ns()).collect();
        let tails = percentiles(&mut latencies, &[0.50, 0.99, 0.999]);
        let mean_queue_ns = if records.is_empty() {
            0.0
        } else {
            records.iter().map(|r| r.queue_ns()).sum::<f64>() / records.len() as f64
        };
        let slo_violations = match serving.slo_ns {
            Some(slo) => latencies.iter().filter(|&&l| l > slo).count(),
            None => 0,
        };
        let good = records.len() - slo_violations;
        let goodput_rps =
            if report.makespan_ns > 0.0 { good as f64 / (report.makespan_ns * 1e-9) } else { 0.0 };
        report.batch = records.len().max(1);
        report.serving = Some(ServingReport {
            requests: records.len(),
            dropped: buffer.dropped,
            rounds: buffer.formed,
            p50_ns: tails[0],
            p99_ns: tails[1],
            p999_ns: tails[2],
            mean_queue_ns,
            goodput_rps,
            slo_violations,
            records,
        });
        Ok(report)
    }

    /// Extracts everything the report fold needs about one chip from
    /// its (drained or stalled) engine — the hand-off from simulation
    /// to accounting.
    fn chip_outcome(&self, engine: &mut Engine<ChipEvent>, sequencer: ComponentId) -> ChipOutcome {
        let sequencer: ChipSequencer =
            engine.extract(sequencer).expect("sequencer survives the run");
        let mut stalled_cores = Vec::new();
        if !sequencer.stages.all_complete() {
            let mut stalled: Vec<&RunningStage> = sequencer.running.iter().flatten().collect();
            stalled.sort_by_key(|stage| (stage.round, stage.partition));
            for stage in stalled {
                stalled_cores.push(
                    stage
                        .cores
                        .iter()
                        .map(|&id| engine.extract(id).expect("core component survives the run"))
                        .collect(),
                );
            }
        }
        ChipOutcome { sequencer, stalled_cores }
    }

    /// Folds per-chip outcomes into one [`SimReport`].
    fn fold_report(
        &self,
        loads: &[ChipLoad<'_>],
        rounds: usize,
        samples_per_round: usize,
        mut outcomes: Vec<ChipOutcome>,
        links: Option<Vec<LinkStats>>,
    ) -> Result<SimReport, SimError> {
        let chips = loads.len();
        if outcomes.iter().any(|o| !o.sequencer.stages.all_complete()) {
            return Err(deadlock_of(&outcomes));
        }
        let energy_model = EnergyModel::new(&self.chip);
        let mut partitions = Vec::new();
        let mut makespan_ns = 0.0f64;
        let mut energy = PowerBreakdown::new();
        let mut summaries = Vec::with_capacity(chips);
        for (c, load) in loads.iter().enumerate() {
            let seq = &mut outcomes[c].sequencer;
            // Interleaving may finish stages out of round-major order;
            // reports stay in (round, partition) order either way.
            seq.records.sort_by_key(|r| (r.round, r.partition));
            // A partition's instruction stats and dynamic energy are the
            // same in every round: derive them once per partition.
            let costs: Vec<(InstructionStats, PowerBreakdown)> = load
                .programs
                .iter()
                .map(|program| {
                    let stats = program.stats();
                    let mut part_energy = PowerBreakdown::new();
                    part_energy.mvm_nj = energy_model.mvm_energy_nj(stats.mvm_activations);
                    part_energy.weight_write_nj =
                        energy_model.weight_write_energy_nj(stats.weight_write_bits);
                    part_energy.weight_load_nj =
                        energy_model.dram_energy_nj(stats.weight_load_bytes * 8);
                    part_energy.activation_dram_nj = energy_model
                        .dram_energy_nj((stats.data_load_bytes + stats.data_store_bytes) * 8);
                    part_energy.interconnect_nj =
                        energy_model.bus_energy_nj(stats.interconnect_bytes);
                    part_energy.vfu_nj = energy_model.vfu_energy_nj(stats.vfu_elements);
                    (stats, part_energy)
                })
                .collect();
            let mut chip_end = 0.0f64;
            for record in &seq.records {
                let (stats, part_energy) = costs[record.partition];
                energy += part_energy;
                chip_end = chip_end.max(record.end_ns);
                partitions.push(PartitionSimReport {
                    index: partitions.len(),
                    start_ns: record.start_ns,
                    end_ns: record.end_ns,
                    replace_ns: record.replace_ns,
                    stats,
                    energy: part_energy,
                    core_activity: record.activity.clone(),
                });
            }
            makespan_ns = makespan_ns.max(chip_end);
            summaries.push(ChipSimSummary {
                chip: c,
                partitions: seq.records.len(),
                // Rounds the chip actually completed: 0 for idle
                // chips, the requested count for active ones.
                rounds: if load.programs.is_empty() {
                    0
                } else {
                    seq.records.len() / load.programs.len()
                },
                end_ns: chip_end,
                handoff_wait_ns: seq.handoff_wait_ns,
            });
        }
        // Summed chip by chip: multiplying by the chip count rounds
        // differently and would move report bytes.
        energy.static_nj =
            (0..chips).map(|_| energy_model.static_energy_nj(makespan_ns)).sum::<f64>();

        let mut dram_energy: Option<DramEnergy> = None;
        let mut dram_trace = TraceStats::default();
        let mut dram_channels: Option<Vec<pim_dram::ChannelStats>> = None;
        for outcome in &outcomes {
            // Every drained stage retires its rendezvous deliveries, so
            // nothing may survive a completed run.
            debug_assert!(
                outcome.sequencer.rendezvous.delivered.is_empty(),
                "drained stages must retire their rendezvous deliveries"
            );
            let channel = &outcome.sequencer.channel;
            if self.replay_dram || self.mode == TimingMode::ClosedLoop {
                dram_trace.requests += channel.stats.requests;
                dram_trace.read_bytes += channel.stats.read_bytes;
                dram_trace.write_bytes += channel.stats.write_bytes;
            }
            // Both DRAM models serve exactly the channel's chunks.
            let served = channel.stats.requests > 0;
            let chip_energy = match &channel.dram {
                DramPort::Inline(dram) => served.then(|| dram.energy()),
                DramPort::ClosedLoop(mem) => {
                    dram_channels.get_or_insert_with(Vec::new).extend(mem.channel_stats());
                    served.then(|| mem.energy())
                }
                DramPort::Off => None,
            };
            if let Some(e) = chip_energy {
                dram_energy = Some(match dram_energy {
                    None => e,
                    Some(acc) => DramEnergy {
                        activate_nj: acc.activate_nj + e.activate_nj,
                        read_nj: acc.read_nj + e.read_nj,
                        write_nj: acc.write_nj + e.write_nj,
                        refresh_nj: acc.refresh_nj + e.refresh_nj,
                        background_nj: acc.background_nj + e.background_nj,
                    },
                });
            }
        }

        Ok(SimReport {
            batch: (samples_per_round * rounds).max(1),
            partitions,
            makespan_ns,
            energy,
            dram_energy,
            dram_trace,
            dram_channels,
            chips: (!self.topology.is_single()).then_some(summaries),
            links,
            // Serving runs attach their section after the fold.
            serving: None,
            engine: Some(EngineMode::SingleThread),
        })
    }
}

/// Diagnoses a stalled system: the first chip (by index) with an
/// unfinished core names the deadlock — its lowest-index blocked core
/// waits on a recv whose send never executed. Chips that merely
/// starved (their upstream producer is the deadlocked one, possibly
/// at a lower index) have no active cores and are skipped.
fn deadlock_of(outcomes: &[ChipOutcome]) -> SimError {
    for outcome in outcomes.iter().filter(|o| !o.sequencer.stages.all_complete()) {
        for stage in &outcome.stalled_cores {
            for (i, core) in stage.iter().enumerate() {
                if !core.finished {
                    let tag = core.blocked.expect("unfinished cores block on recv");
                    return SimError::Deadlock { core: CoreId(i), tag };
                }
            }
        }
    }
    // Hand-off cycles are rejected up front, so an incomplete system
    // always contains at least one blocked core.
    unreachable!("incomplete system has no blocked core")
}

/// What a system run executes: a fixed round count, or an open-loop
/// request stream whose admitted batches append rounds as it runs.
enum Workload<'a> {
    Rounds(usize),
    Serving { config: &'a ServingConfig, arrivals: Vec<f64> },
}

/// One chip's extracted end-of-run state — everything the report fold
/// needs, detached from the engine.
struct ChipOutcome {
    /// The sequencer, with the chip's memory channel and rendezvous.
    sequencer: ChipSequencer,
    /// Cores of stages still in flight when the run stalled, one
    /// vector per running stage in stage-id order — the deadlock
    /// diagnosis walks these.
    stalled_cores: Vec<Vec<CoreComponent>>,
}

/// Dispatches one chip's `(batch, partition)` stages from its
/// [`StageCursors`]: barrier-chained by default, dataflow- and
/// core-driven under interleaving. See the module docs.
pub(crate) struct ChipSequencer {
    chip_index: usize,
    /// Per partition, the per-core instruction streams every stage of
    /// that partition shares with its spawned cores.
    streams: Vec<Vec<Rc<[Instruction]>>>,
    timing: CoreTiming,
    /// The chip's shared hardware: every core's memory, SEND and RECV
    /// requests land here.
    channel: MemChannel,
    bus: Bus,
    rendezvous: Rendezvous,
    interconnect: ComponentId,
    /// Per-round boundary transfers, one per downstream consumer.
    handoffs: Vec<Handoff>,
    /// Serving mode: the request buffer to notify with
    /// [`ChipEvent::RoundDone`] each time a round fully drains.
    /// `None` for fixed-round (closed-loop) runs.
    notify: Option<ComponentId>,
    /// Which stages may start.
    stages: StageCursors,
    /// The in-flight stage of each partition: a partition runs its
    /// rounds in order, so at most one at a time.
    running: Vec<Option<RunningStage>>,
    /// When the next round's head stage began waiting purely on
    /// upstream hand-offs. Heads start in round order, so only that one
    /// head can be waiting.
    wait_from: Option<f64>,
    pub(crate) handoff_wait_ns: f64,
    pub(crate) records: Vec<StageRecord>,
}

/// One in-flight stage: its spawned cores and running accounting.
struct RunningStage {
    round: usize,
    partition: usize,
    cores: Vec<ComponentId>,
    done: usize,
    start_ns: f64,
    end_ns: f64,
    replace_max_ns: f64,
    activity: Vec<CoreActivity>,
}

/// One executed (round, partition) stage of a chip.
pub(crate) struct StageRecord {
    pub(crate) round: usize,
    pub(crate) partition: usize,
    pub(crate) start_ns: f64,
    pub(crate) end_ns: f64,
    pub(crate) replace_ns: f64,
    pub(crate) activity: Vec<CoreActivity>,
}

/// Which of a chip's `(round, partition)` stages may start.
///
/// Partition `p` runs its rounds in order, so the grid needs only the
/// rounds each partition has started and finished, the round count,
/// the upstream hand-off ledger and, under interleaving, which
/// partitions share a core. Stage `(b, p)`, id `b·P + p`, may start when
/// `b` is partition `p`'s next round and
///
/// * partition `p` has finished round `b − 1` (its crossbars are free);
/// * for `p > 0`, partition `p − 1` has finished round `b` (it produced
///   the stage's input activations);
/// * for `p = 0`, every upstream producer has delivered more than `b`
///   hand-offs, and under the barrier schedule the last partition has
///   finished round `b − 1`;
/// * under interleaving, no partition whose program shares a core with
///   instructions with program `p` is running.
///
/// The barrier schedule is thus one round-major chain; interleaving
/// lets two stages overlap exactly when their cores are disjoint.
struct StageCursors {
    mode: ScheduleMode,
    rounds: usize,
    /// Per partition, the rounds started; `finished` lags it by the
    /// partition's running stage, if any.
    started: Vec<usize>,
    finished: Vec<usize>,
    /// Per partition, the other partitions whose programs have
    /// instructions on one of its cores: under interleaving it may not
    /// run alongside any of them (empty under the barrier schedule,
    /// which the chain alone orders).
    conflicts: Vec<Vec<usize>>,
    /// Per upstream producer: `(source chip, hand-offs received)`.
    upstream: Vec<(usize, usize)>,
}

impl StageCursors {
    fn new(
        programs: &[ChipProgram],
        rounds: usize,
        mode: ScheduleMode,
        upstream: Vec<(usize, usize)>,
    ) -> Self {
        let cores = programs.iter().map(ChipProgram::cores).max().unwrap_or(0);
        let busy: Vec<Vec<bool>> = programs
            .iter()
            .map(|program| {
                (0..cores)
                    .map(|c| {
                        c < program.cores() && !program.core(CoreId(c)).instructions().is_empty()
                    })
                    .collect()
            })
            .collect();
        let parts = programs.len();
        let conflicts = (0..parts)
            .map(|p| match mode {
                ScheduleMode::Barrier => Vec::new(),
                ScheduleMode::Interleaved => (0..parts)
                    .filter(|&q| q != p && (0..cores).any(|c| busy[p][c] && busy[q][c]))
                    .collect(),
            })
            .collect();
        Self {
            mode,
            rounds,
            started: vec![0; parts],
            finished: vec![0; parts],
            conflicts,
            upstream,
        }
    }

    fn partitions(&self) -> usize {
        self.started.len()
    }

    /// Records one hand-off from chip `src` and returns the round it
    /// feeds. It may land before that round is appended.
    fn hand_off(&mut self, src: usize) -> usize {
        let entry = self
            .upstream
            .iter_mut()
            .find(|(s, _)| *s == src)
            .expect("hand-off arrives only from declared producers");
        entry.1 += 1;
        entry.1 - 1
    }

    /// `true` once every upstream producer has delivered round
    /// `round`'s hand-off.
    fn handed_off(&self, round: usize) -> bool {
        self.upstream.iter().all(|&(_, received)| received > round)
    }

    /// `true` when partition `p`'s next round exists and its
    /// predecessors have drained: everything but hand-offs and cores.
    fn precedence_met(&self, p: usize) -> bool {
        let b = self.started[p];
        b < self.rounds
            && self.finished[p] == b
            && match p {
                0 => {
                    self.mode == ScheduleMode::Interleaved
                        || self.finished[self.partitions() - 1] >= b
                }
                _ => self.finished[p - 1] > b,
            }
    }

    /// Starts every stage that may start now and returns their ids in
    /// ascending order. Stages start in that order, so two stages
    /// racing for a core resolve to the lower id.
    fn take_ready(&mut self) -> Vec<usize> {
        let parts = self.partitions();
        let mut ready: Vec<usize> = (0..parts)
            .filter(|&p| self.precedence_met(p) && (p > 0 || self.handed_off(self.started[0])))
            .map(|p| self.started[p] * parts + p)
            .collect();
        ready.sort_unstable();
        let Self { started, finished, conflicts, .. } = self;
        ready.retain(|&stage| {
            let p = stage % parts;
            if conflicts[p].iter().any(|&q| started[q] > finished[q]) {
                return false;
            }
            started[p] += 1;
            true
        });
        ready
    }

    /// Marks the running stage `stage` finished.
    fn finish(&mut self, stage: usize) {
        let p = stage % self.partitions();
        self.finished[p] += 1;
    }

    /// `true` when the next round's head stage has met its precedence
    /// terms and waits only on upstream hand-offs, whatever its cores
    /// are doing.
    fn head_waits_on_handoffs(&self) -> bool {
        !self.started.is_empty() && self.precedence_met(0) && !self.handed_off(self.started[0])
    }

    /// `true` once every stage has finished (trivially true for an idle
    /// chip).
    fn all_complete(&self) -> bool {
        self.finished.iter().all(|&f| f == self.rounds)
    }
}

impl ChipSequencer {
    /// Starts every ready stage, looping because zero-core stages
    /// complete at their start instant and may unlock successors.
    fn dispatch(&mut self, me: ComponentId, ctx: &mut EngineCtx<'_, ChipEvent>) {
        loop {
            let ready = self.stages.take_ready();
            if ready.is_empty() {
                break;
            }
            for stage in ready {
                self.start_stage(stage, me, ctx);
            }
        }
    }

    /// Opens the hand-off wait window when the next round's head stage
    /// becomes blocked purely on upstream hand-offs.
    fn refresh_upstream_wait(&mut self, now_ns: f64) {
        if self.wait_from.is_none() && self.stages.head_waits_on_handoffs() {
            self.wait_from = Some(now_ns);
        }
    }

    /// Closes the hand-off wait window, if open, at `now_ns`.
    fn close_upstream_wait(&mut self, now_ns: f64) {
        if let Some(since) = self.wait_from.take() {
            self.handoff_wait_ns += (now_ns - since).max(0.0);
        }
    }

    /// Spawns stage `stage`'s cores. In barrier mode the memory channel
    /// and the bus are barrier-reset first, exactly as the single-chip
    /// simulator's partition loop did: barriers first, then cores in
    /// index order, all at the current instant.
    fn start_stage(&mut self, stage: usize, me: ComponentId, ctx: &mut EngineCtx<'_, ChipEvent>) {
        let partitions = self.streams.len();
        let (round, partition) = (stage / partitions, stage % partitions);
        let now = ctx.now();
        if partition == 0 {
            self.close_upstream_wait(now.as_ns());
        }
        if self.stages.mode == ScheduleMode::Barrier {
            self.channel.barrier(now.as_ns());
            self.bus.barrier(now.as_ns());
        }
        // The rendezvous matches SEND/RECV by (stage, tag); a chip runs
        // far fewer than 2^32 stages.
        let rendezvous_stage = u32::try_from(stage).expect("stage ids fit in u32");
        let streams = &self.streams[partition];
        let cores: Vec<ComponentId> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let id = ctx.add_component(CoreComponent::new(
                    Rc::clone(stream),
                    now,
                    self.timing,
                    me,
                    c,
                    rendezvous_stage,
                ));
                ctx.schedule(now, id, ChipEvent::Step);
                id
            })
            .collect();
        let empty = cores.is_empty();
        self.running[partition] = Some(RunningStage {
            round,
            partition,
            activity: vec![CoreActivity::default(); streams.len()],
            cores,
            done: 0,
            start_ns: now.as_ns(),
            end_ns: now.as_ns(),
            replace_max_ns: now.as_ns(),
        });
        // A zero-core program has nothing to wait for: complete the
        // stage at its start instant (the CoreDone arm would otherwise
        // never fire and the stage would hang).
        if empty {
            self.finish_stage(stage, ctx);
        }
    }

    /// Folds a drained stage into the records, ships the chip's
    /// hand-offs when the stage closes a round, and releases the
    /// stage (the caller's dispatch loop picks up whatever that
    /// unblocks).
    fn finish_stage(&mut self, stage_id: usize, ctx: &mut EngineCtx<'_, ChipEvent>) {
        let partitions = self.streams.len();
        let stage = self.running[stage_id % partitions].take().expect("finished stage was running");
        self.records.push(StageRecord {
            round: stage.round,
            partition: stage.partition,
            start_ns: stage.start_ns,
            end_ns: stage.end_ns,
            replace_ns: stage.replace_max_ns - stage.start_ns,
            activity: stage.activity,
        });
        if stage.partition + 1 == partitions {
            // Round complete: ship the boundary activations to every
            // downstream consumer.
            let now = ctx.now();
            for handoff in &self.handoffs {
                ctx.schedule(
                    now,
                    self.interconnect,
                    ChipEvent::Ship {
                        src: self.chip_index as u32,
                        dst: handoff.dst as u32,
                        bytes: handoff.bytes,
                        hop: 0,
                    },
                );
            }
            if let Some(buffer) = self.notify {
                ctx.schedule(now, buffer, ChipEvent::RoundDone { chip: self.chip_index });
            }
        }
        // The stage's receivers have all completed. `start_stage` checked
        // that the stage id fits in u32.
        self.rendezvous.retire(stage_id as u32);
        self.stages.finish(stage_id);
        self.refresh_upstream_wait(ctx.now().as_ns());
    }
}

impl Component<ChipEvent> for ChipSequencer {
    fn on_event(&mut self, event: Event<ChipEvent>, ctx: &mut EngineCtx<'_, ChipEvent>) {
        match event.payload {
            ChipEvent::Kick => {
                self.dispatch(event.target, ctx);
                self.refresh_upstream_wait(event.time.as_ns());
            }
            ChipEvent::HandoffIn { src } => {
                let round = self.stages.hand_off(src);
                if round < self.stages.rounds && !self.streams.is_empty() {
                    // The window is open only while the head waits on
                    // hand-offs alone: if this was its last missing
                    // input, close it.
                    if self.wait_from.is_some() && !self.stages.head_waits_on_handoffs() {
                        self.close_upstream_wait(event.time.as_ns());
                    }
                    self.dispatch(event.target, ctx);
                }
            }
            ChipEvent::AppendRound => {
                // Serving mode only: the request buffer admitted one
                // more batch. Hand-offs that landed before the round
                // existed already sit in the ledger.
                assert!(!self.streams.is_empty(), "idle chips receive no rounds");
                self.stages.rounds += 1;
                self.dispatch(event.target, ctx);
                self.refresh_upstream_wait(event.time.as_ns());
            }
            ChipEvent::MemRequest { core, bytes, kind, weight } => {
                self.channel.request(core, bytes, kind, weight, ctx);
            }
            ChipEvent::BusRequest { core, bytes, stage, tag } => {
                self.bus.send(core, bytes, stage, tag, &mut self.rendezvous, ctx);
            }
            ChipEvent::AwaitTag { core, stage, tag, since_ns } => {
                self.rendezvous.await_tag(core, stage, tag, since_ns, |wake| wake.schedule(ctx));
            }
            ChipEvent::CoreDone { stage, core_index, accounting } => {
                let (activity, replace_done_ns) = *accounting;
                let running = self.running[stage % self.streams.len()]
                    .as_mut()
                    .expect("core reports a live stage");
                running.activity[core_index] = activity;
                running.end_ns = running.end_ns.max(event.time.as_ns());
                running.replace_max_ns = running.replace_max_ns.max(replace_done_ns);
                running.done += 1;
                if running.done == running.cores.len() {
                    self.finish_stage(stage, ctx);
                    self.dispatch(event.target, ctx);
                }
            }
            other => unreachable!("sequencer received {other:?}"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The inter-chip interconnect: carries each hand-off hop-by-hop over
/// the topology's precomputed shortest routes. Every directed link has
/// its own availability timestamp, so transfers sharing a link
/// serialize — contention is modelled, not approximated by a flat
/// latency.
pub(crate) struct InterconnectComponent {
    links: Vec<Link>,
    free_ns: Vec<f64>,
    /// `routes[src][dst]` is the link-index path, `None` when
    /// unreachable (validation rejects such topologies up front).
    routes: Vec<Vec<Option<Vec<usize>>>>,
    sequencers: Vec<ComponentId>,
    pub(crate) stats: Vec<LinkStats>,
}

impl InterconnectComponent {
    pub(crate) fn new(topology: &Topology, sequencers: &[ComponentId]) -> Self {
        let chips = topology.chips();
        let links = topology.links().to_vec();
        let routes = (0..chips)
            .map(|src| (0..chips).map(|dst| topology.route(src, dst)).collect())
            .collect();
        let stats = links
            .iter()
            .map(|l| LinkStats { src: l.src, dst: l.dst, ..LinkStats::default() })
            .collect();
        Self {
            free_ns: vec![0.0; links.len()],
            links,
            routes,
            sequencers: sequencers.to_vec(),
            stats,
        }
    }
}

impl Component<ChipEvent> for InterconnectComponent {
    fn on_event(&mut self, event: Event<ChipEvent>, ctx: &mut EngineCtx<'_, ChipEvent>) {
        match event.payload {
            // Carries the hand-off one hop: the terminal delivery to
            // the destination sequencer, or — after claiming the next
            // link (serialization, queueing, stats) — the next hop
            // back to the interconnect itself.
            ChipEvent::Ship { src, dst, bytes, hop } => {
                let route = self.routes[src as usize][dst as usize]
                    .as_ref()
                    .expect("validated route exists");
                let Some(&link) = route.get(hop as usize) else {
                    let sequencer = self.sequencers[dst as usize];
                    ctx.schedule(event.time, sequencer, ChipEvent::HandoffIn { src: src as usize });
                    return;
                };
                let spec = self.links[link].spec;
                let now = event.time.as_ns();
                let start = now.max(self.free_ns[link]);
                let serialization = spec.serialization_ns(bytes);
                self.free_ns[link] = start + serialization;
                let stats = &mut self.stats[link];
                stats.transfers += 1;
                stats.bytes += bytes as u64;
                stats.busy_ns += serialization;
                stats.wait_ns += start - now;
                ctx.schedule(
                    SimTime::from_ns(start + serialization + spec.latency_ns),
                    event.target,
                    ChipEvent::Ship { src, dst, bytes, hop: hop + 1 },
                );
            }
            other => unreachable!("interconnect received {other:?}"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_engine::SimRng;
    use pim_isa::{Instruction as I, Tag};

    fn mvm_program(cores: usize, waves: usize) -> ChipProgram {
        let mut program = ChipProgram::new(cores);
        for c in 0..4 {
            program.core_mut(CoreId(c)).push(I::Mvmul { waves, activations: 64, node: 0 });
        }
        program
    }

    /// `waves` MVM waves on cores `[from, to)` of a `total`-core chip.
    fn mvm_on_cores(from: usize, to: usize, total: usize, waves: usize) -> ChipProgram {
        let mut program = ChipProgram::new(total);
        for c in from..to {
            program.core_mut(CoreId(c)).push(I::Mvmul { waves, activations: 64, node: 0 });
        }
        program
    }

    #[test]
    fn single_chip_system_equals_chip_simulator() {
        let chip = ChipSpec::chip_s();
        let program = mvm_program(chip.cores, 100);
        let system = SystemSimulator::new(chip.clone(), Topology::single())
            .run(&[ChipLoad::new(std::slice::from_ref(&program))], 1, 1)
            .unwrap();
        let single =
            crate::ChipSimulator::new(chip).run(std::slice::from_ref(&program), 1).unwrap();
        assert_eq!(system, single);
        assert!(system.chips.is_none());
        assert!(system.links.is_none());
    }

    #[test]
    fn batch_shard_chips_run_concurrently() {
        let chip = ChipSpec::chip_s();
        let program = mvm_program(chip.cores, 200);
        let one = SystemSimulator::new(chip.clone(), Topology::single())
            .run(&[ChipLoad::new(std::slice::from_ref(&program))], 1, 1)
            .unwrap();
        let loads = [
            ChipLoad::new(std::slice::from_ref(&program)),
            ChipLoad::new(std::slice::from_ref(&program)),
        ];
        let two = SystemSimulator::new(chip, Topology::ring(2)).run(&loads, 1, 2).unwrap();
        // Two identical shards overlap perfectly: same makespan, twice
        // the work recorded.
        assert!((two.makespan_ns - one.makespan_ns).abs() < 1e-9);
        assert_eq!(two.partitions.len(), 2 * one.partitions.len());
        assert_eq!(two.chips.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn pipeline_rounds_overlap_across_chips() {
        let chip = ChipSpec::chip_s();
        let stage = mvm_program(chip.cores, 500);
        let rounds = 4;
        // One chip runs both stages serially, every round.
        let both = [stage.clone(), stage.clone()];
        let serial = SystemSimulator::new(chip.clone(), Topology::single())
            .run(&[ChipLoad::new(&both)], rounds, 1)
            .unwrap();
        // Two chips pipeline one stage each with a per-round hand-off.
        let loads = [
            ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 4096),
            ChipLoad::new(std::slice::from_ref(&stage)),
        ];
        let pipelined =
            SystemSimulator::new(chip, Topology::ring(2)).run(&loads, rounds, 1).unwrap();
        assert!(
            pipelined.makespan_ns < serial.makespan_ns,
            "2-chip pipeline ({} ns) must beat 1 chip ({} ns)",
            pipelined.makespan_ns,
            serial.makespan_ns
        );
        // The downstream chip stalls for the pipeline fill plus link
        // time, and the link carried one transfer per round.
        let chips = pipelined.chips.as_ref().unwrap();
        assert!(chips[1].handoff_wait_ns > 0.0);
        let links = pipelined.links.as_ref().unwrap();
        let carried: u64 = links.iter().map(|l| l.bytes).sum();
        assert_eq!(carried, rounds as u64 * 4096);
    }

    #[test]
    fn handoff_gates_downstream_chip() {
        // The downstream chip must not start before the hand-off
        // lands: serialization + latency of the 2-chip ring link.
        let chip = ChipSpec::chip_s();
        let stage = mvm_program(chip.cores, 10);
        let bytes = 8192;
        let loads = [
            ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, bytes),
            ChipLoad::new(std::slice::from_ref(&stage)),
        ];
        let report =
            SystemSimulator::new(chip.clone(), Topology::ring(2)).run(&loads, 1, 1).unwrap();
        let spec = pim_arch::LinkSpec::board();
        let stage_ns = 10.0 * chip.crossbar.mvm_latency_ns;
        let expected_start = stage_ns + spec.serialization_ns(bytes) + spec.latency_ns;
        let downstream = &report.partitions[1];
        assert!(
            (downstream.start_ns - expected_start).abs() < 1e-6,
            "downstream started at {} vs expected {expected_start}",
            downstream.start_ns
        );
    }

    #[test]
    fn rejects_mismatched_loads() {
        let chip = ChipSpec::chip_s();
        let program = mvm_program(chip.cores, 1);
        let err = SystemSimulator::new(chip.clone(), Topology::ring(2))
            .run(&[ChipLoad::new(std::slice::from_ref(&program))], 1, 1)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(_)));
        // A hand-off from an idle chip is meaningless.
        let idle =
            [ChipLoad::new(&[]).with_handoff(1, 64), ChipLoad::new(std::slice::from_ref(&program))];
        let err =
            SystemSimulator::new(chip.clone(), Topology::ring(2)).run(&idle, 1, 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(_)));
        // Duplicate hand-offs to one destination would double-count
        // the consumer's per-round gating.
        let doubled = [
            ChipLoad::new(std::slice::from_ref(&program)).with_handoff(1, 64).with_handoff(1, 32),
            ChipLoad::new(std::slice::from_ref(&program)),
        ];
        let err = SystemSimulator::new(chip, Topology::ring(2)).run(&doubled, 1, 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(ref r) if r.contains("multiple")), "{err}");
    }

    #[test]
    fn interleaved_runs_have_no_stage_limit() {
        // 257 rounds of 256 zero-core partitions: 65,792 stages on one
        // chip, more than 2^16. Fixed-round and serving runs both
        // record every round.
        let chip = ChipSpec::chip_s();
        let partitions = 256;
        let rounds = 257;
        let programs = vec![ChipProgram::new(0); partitions];
        let loads = [ChipLoad::new(&programs)];
        let sim = SystemSimulator::new(chip, Topology::single())
            .with_schedule_mode(ScheduleMode::Interleaved);
        let fixed = sim.run(&loads, rounds, 1).unwrap();
        assert_eq!(fixed.partitions.len(), rounds * partitions);
        let serving = crate::ServingConfig::new(crate::TrafficSpec::Synthetic {
            model: crate::TrafficModel::Poisson { rate_per_s: 1e6 },
            seed: 3,
            requests: rounds,
        });
        let served = sim.run_serving(&loads, &serving).unwrap();
        assert_eq!(served.serving.as_ref().map(|s| (s.rounds, s.requests)), Some((rounds, rounds)));
        assert_eq!(served.partitions.len(), rounds * partitions);
    }

    #[test]
    fn every_program_tag_matches_like_a_small_one() {
        // A tag is matched as the program wrote it: a pair on the
        // widest tag reports exactly what the same pair on a small tag
        // does, under either schedule and in serving.
        let chip = ChipSpec::chip_s();
        let pair = |tag: u64| {
            let mut program = ChipProgram::new(chip.cores);
            program.core_mut(CoreId(0)).push(I::Send { to: CoreId(1), bytes: 64, tag: Tag(tag) });
            program.core_mut(CoreId(1)).push(I::Recv { from: CoreId(0), bytes: 64, tag: Tag(tag) });
            program
        };
        let (widest, small) = (pair(u64::MAX), pair(7));
        let serving = crate::ServingConfig::new(crate::TrafficSpec::Synthetic {
            model: crate::TrafficModel::Poisson { rate_per_s: 1e4 },
            seed: 1,
            requests: 4,
        });
        for schedule in [ScheduleMode::Barrier, ScheduleMode::Interleaved] {
            let sim =
                SystemSimulator::new(chip.clone(), Topology::single()).with_schedule_mode(schedule);
            let bytes = |program: &ChipProgram, serve: bool| {
                let loads = [ChipLoad::new(std::slice::from_ref(program))];
                let report =
                    if serve { sim.run_serving(&loads, &serving) } else { sim.run(&loads, 2, 1) };
                serde_json::to_string(&report.expect("the pair runs")).unwrap()
            };
            for serve in [false, true] {
                assert_eq!(bytes(&widest, serve), bytes(&small, serve), "{schedule:?} {serve}");
            }
        }
    }

    #[test]
    fn deadlock_is_reported_from_any_chip() {
        let chip = ChipSpec::chip_s();
        let good = mvm_program(chip.cores, 5);
        let mut bad = ChipProgram::new(chip.cores);
        bad.core_mut(CoreId(2)).push(I::Recv { from: CoreId(0), bytes: 64, tag: Tag(404) });
        let loads =
            [ChipLoad::new(std::slice::from_ref(&good)), ChipLoad::new(std::slice::from_ref(&bad))];
        let err = SystemSimulator::new(chip, Topology::ring(2)).run(&loads, 1, 1).unwrap_err();
        assert_eq!(err, SimError::Deadlock { core: CoreId(2), tag: Tag(404) });
    }

    #[test]
    fn deadlocked_producer_behind_a_starved_lower_chip_is_still_diagnosed() {
        // Chip 1 hands off to chip 0 but deadlocks, so chip 0 starves
        // without ever spawning a core. The error must name chip 1's
        // blocked core, not panic on the starved (lower-index) chip.
        let chip = ChipSpec::chip_s();
        let good = mvm_program(chip.cores, 5);
        let mut bad = ChipProgram::new(chip.cores);
        bad.core_mut(CoreId(1)).push(I::Recv { from: CoreId(0), bytes: 64, tag: Tag(500) });
        let loads = [
            ChipLoad::new(std::slice::from_ref(&good)),
            ChipLoad::new(std::slice::from_ref(&bad)).with_handoff(0, 64),
        ];
        let err = SystemSimulator::new(chip, Topology::ring(2)).run(&loads, 2, 1).unwrap_err();
        assert_eq!(err, SimError::Deadlock { core: CoreId(1), tag: Tag(500) });
    }

    #[test]
    fn zero_core_programs_complete_instantly() {
        // The pre-system ChipSimulator returned Ok for a zero-core
        // program; the sequencer must too (its stage has nothing to
        // wait for).
        let chip = ChipSpec::chip_s();
        let empty = ChipProgram::new(0);
        let report = crate::ChipSimulator::new(chip.clone())
            .run(std::slice::from_ref(&empty), 1)
            .expect("zero-core programs must not hang");
        assert_eq!(report.partitions.len(), 1);
        assert_eq!(report.makespan_ns, 0.0);
        assert!(report.partitions[0].core_activity.is_empty());
        // And mixed with real work across rounds.
        let work = mvm_program(chip.cores, 5);
        let report = SystemSimulator::new(chip, Topology::single())
            .run(&[ChipLoad::new(&[empty, work])], 2, 1)
            .unwrap();
        assert_eq!(report.partitions.len(), 4);
        assert!(report.makespan_ns > 0.0);
    }

    #[test]
    fn idle_chips_report_zero_completed_rounds() {
        let chip = ChipSpec::chip_s();
        let stage = mvm_program(chip.cores, 5);
        let loads = [ChipLoad::new(std::slice::from_ref(&stage)), ChipLoad::new(&[])];
        let report = SystemSimulator::new(chip, Topology::ring(2)).run(&loads, 3, 1).unwrap();
        let chips = report.chips.as_ref().unwrap();
        assert_eq!(chips[0].rounds, 3, "active chip completed every round");
        assert_eq!(chips[1].rounds, 0, "idle chip completed none");
        assert_eq!(chips[1].partitions, 0);
    }

    #[test]
    fn handoff_cycles_are_rejected_up_front() {
        // A cyclic hand-off chain would starve every chip on it at
        // round 0 with no blocked core to blame.
        let chip = ChipSpec::chip_s();
        let stage = mvm_program(chip.cores, 5);
        let loads = [
            ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 64),
            ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(0, 64),
        ];
        let err = SystemSimulator::new(chip, Topology::ring(2)).run(&loads, 1, 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(ref r) if r.contains("cycle")), "{err}");
    }

    #[test]
    fn fan_out_cycle_through_a_longer_path_is_rejected() {
        // 0 -> {1, 2}, 2 -> 0: the cycle hides behind a fan-out edge.
        let chip = ChipSpec::chip_s();
        let stage = mvm_program(chip.cores, 5);
        let loads = [
            ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(1, 64).with_handoff(2, 64),
            ChipLoad::new(std::slice::from_ref(&stage)),
            ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(0, 64),
        ];
        let err =
            SystemSimulator::new(chip, Topology::fully_connected(3)).run(&loads, 1, 1).unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(ref r) if r.contains("cycle")), "{err}");
    }

    #[test]
    fn slow_producer_gates_rounds_despite_a_fast_one() {
        // Fan-in with asymmetric stage latencies: the consumer's round
        // r must wait for BOTH producers' round-r hand-offs — a fast
        // producer running ahead must not stand in for the slow one.
        let chip = ChipSpec::chip_s();
        let fast = mvm_program(chip.cores, 10);
        let slow = mvm_program(chip.cores, 1000);
        let sink = mvm_program(chip.cores, 10);
        let bytes = 64;
        let loads = [
            ChipLoad::new(std::slice::from_ref(&fast)).with_handoff(2, bytes),
            ChipLoad::new(std::slice::from_ref(&slow)).with_handoff(2, bytes),
            ChipLoad::new(std::slice::from_ref(&sink)),
        ];
        let rounds = 3;
        let report = SystemSimulator::new(chip.clone(), Topology::fully_connected(3))
            .run(&loads, rounds, 1)
            .unwrap();
        // Partitions are chip-major: the sink's stages come last.
        let spec = pim_arch::LinkSpec::board();
        let slow_stage_ns = 1000.0 * chip.crossbar.mvm_latency_ns;
        let arrival = |round: f64| {
            (round + 1.0) * slow_stage_ns + spec.serialization_ns(bytes) + spec.latency_ns
        };
        let sink_stages = &report.partitions[2 * rounds..];
        assert_eq!(sink_stages.len(), rounds);
        for (r, stage) in sink_stages.iter().enumerate() {
            assert!(
                stage.start_ns >= arrival(r as f64) - 1e-6,
                "sink round {r} started at {} before the slow producer's hand-off at {}",
                stage.start_ns,
                arrival(r as f64)
            );
        }
    }

    #[test]
    fn fan_out_producer_feeds_two_consumers() {
        // One producer, two consumers: both consumers gate on the same
        // per-round hand-off and run concurrently once it lands.
        let chip = ChipSpec::chip_s();
        let producer = mvm_program(chip.cores, 50);
        let consumer = mvm_program(chip.cores, 50);
        let bytes = 4096;
        let loads = [
            ChipLoad::new(std::slice::from_ref(&producer))
                .with_handoff(1, bytes)
                .with_handoff(2, bytes),
            ChipLoad::new(std::slice::from_ref(&consumer)),
            ChipLoad::new(std::slice::from_ref(&consumer)),
        ];
        let rounds = 3;
        let report = SystemSimulator::new(chip, Topology::fully_connected(3))
            .run(&loads, rounds, 1)
            .unwrap();
        let chips = report.chips.as_ref().unwrap();
        assert_eq!(chips[1].rounds, rounds);
        assert_eq!(chips[2].rounds, rounds);
        assert!(chips[1].handoff_wait_ns > 0.0);
        assert!(chips[2].handoff_wait_ns > 0.0);
        let links = report.links.as_ref().unwrap();
        let carried: u64 = links.iter().map(|l| l.bytes).sum();
        assert_eq!(carried, 2 * rounds as u64 * bytes as u64, "each consumer gets its own copy");
    }

    #[test]
    fn ring_and_fc_route_contention_differs() {
        // Two producers shipping to the same destination: on a 4-ring
        // chip 0's transfer to chip 2 relays through chip 1 and shares
        // the 1→2 link with chip 1's own traffic; fully connected
        // gives each ordered pair a dedicated link.
        let chip = ChipSpec::chip_s();
        let stage = mvm_program(chip.cores, 10);
        let bytes = 1 << 20;
        let run = |topology: Topology| {
            let loads = [
                ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(2, bytes),
                ChipLoad::new(std::slice::from_ref(&stage)).with_handoff(2, bytes),
                // Chip 2 consumes both inputs each round.
                ChipLoad::new(std::slice::from_ref(&stage)),
                ChipLoad::new(&[]),
            ];
            SystemSimulator::new(chip.clone(), topology).run(&loads, 2, 1).unwrap()
        };
        let ring = run(Topology::ring(4));
        let fc = run(Topology::fully_connected(4));
        let wait = |r: &SimReport| r.links.as_ref().unwrap().iter().map(|l| l.wait_ns).sum::<f64>();
        assert!(fc.makespan_ns <= ring.makespan_ns);
        assert!(
            wait(&ring) > wait(&fc),
            "shared ring links must queue more than dedicated fc links ({} vs {})",
            wait(&ring),
            wait(&fc)
        );
    }

    #[test]
    fn interleaving_hides_the_fill_of_disjoint_partitions() {
        // Two partitions on disjoint crossbar groups, four batches:
        // the barrier schedule serializes 8 stages; interleaving
        // overlaps batch b+1's partition 0 with batch b's partition 1.
        let chip = ChipSpec::chip_s();
        let programs = [mvm_on_cores(0, 4, chip.cores, 300), mvm_on_cores(4, 8, chip.cores, 300)];
        let rounds = 4;
        let run = |schedule: ScheduleMode| {
            SystemSimulator::new(chip.clone(), Topology::single())
                .with_schedule_mode(schedule)
                .run(&[ChipLoad::new(&programs)], rounds, 1)
                .unwrap()
        };
        let barrier = run(ScheduleMode::Barrier);
        let interleaved = run(ScheduleMode::Interleaved);
        assert!(
            interleaved.makespan_ns < barrier.makespan_ns,
            "interleaving ({} ns) must beat the barrier schedule ({} ns)",
            interleaved.makespan_ns,
            barrier.makespan_ns
        );
        // Same work either way.
        assert_eq!(interleaved.partitions.len(), barrier.partitions.len());
        assert_eq!(interleaved.dram_trace, barrier.dram_trace);
    }

    #[test]
    fn shared_cores_serialize_interleaved_stages() {
        // Both partitions use core 0, so they never run together: the
        // barrier order and the barrier makespan.
        let chip = ChipSpec::chip_s();
        let programs = [mvm_on_cores(0, 4, chip.cores, 200), mvm_on_cores(0, 8, chip.cores, 200)];
        let rounds = 3;
        let run = |schedule: ScheduleMode| {
            SystemSimulator::new(chip.clone(), Topology::single())
                .with_schedule_mode(schedule)
                .run(&[ChipLoad::new(&programs)], rounds, 1)
                .unwrap()
        };
        let barrier = run(ScheduleMode::Barrier);
        let interleaved = run(ScheduleMode::Interleaved);
        assert!(
            (interleaved.makespan_ns - barrier.makespan_ns).abs() < 1e-9,
            "shared cores must serialize: {} vs {}",
            interleaved.makespan_ns,
            barrier.makespan_ns
        );
    }

    #[test]
    fn runs_record_the_single_threaded_engine() {
        let chip = ChipSpec::chip_s();
        let program = mvm_program(chip.cores, 5);
        let single = SystemSimulator::new(chip.clone(), Topology::single())
            .run(&[ChipLoad::new(std::slice::from_ref(&program))], 1, 1)
            .unwrap();
        assert_eq!(single.engine, Some(EngineMode::SingleThread));
        let loads = [
            ChipLoad::new(std::slice::from_ref(&program)).with_handoff(1, 4096),
            ChipLoad::new(std::slice::from_ref(&program)),
        ];
        let ring = SystemSimulator::new(chip, Topology::ring(2)).run(&loads, 1, 1).unwrap();
        assert_eq!(ring.engine, Some(EngineMode::SingleThread));
    }

    /// The stage grid as an explicit dependency graph — the barrier
    /// chain, or the interleaved dataflow and crossbar-reuse edges plus
    /// exclusive core claims — scanned in full, every stage in id
    /// order, on every call: the reference [`StageCursors`] must match.
    struct FullScan {
        mode: ScheduleMode,
        parts: usize,
        rounds: usize,
        started: Vec<bool>,
        finished: Vec<bool>,
        claims: Vec<Vec<usize>>,
        held: Vec<bool>,
        received: Vec<usize>,
    }

    impl FullScan {
        fn new(programs: &[ChipProgram], mode: ScheduleMode, producers: usize) -> Self {
            let claims = programs
                .iter()
                .map(|program| {
                    (0..program.cores())
                        .filter(|&c| !program.core(CoreId(c)).instructions().is_empty())
                        .filter(|_| mode == ScheduleMode::Interleaved)
                        .collect()
                })
                .collect();
            let cores = programs.iter().map(ChipProgram::cores).max().unwrap_or(0);
            Self {
                mode,
                parts: programs.len(),
                rounds: 0,
                started: Vec::new(),
                finished: Vec::new(),
                claims,
                held: vec![false; cores],
                received: vec![0; producers],
            }
        }

        fn append_round(&mut self) {
            self.rounds += 1;
            self.started.resize(self.rounds * self.parts, false);
            self.finished.resize(self.rounds * self.parts, false);
        }

        fn deps_done(&self, id: usize) -> bool {
            let (b, p) = (id / self.parts, id % self.parts);
            let (chain, reuse) = match self.mode {
                ScheduleMode::Barrier => (id > 0, false),
                ScheduleMode::Interleaved => (p > 0, b > 0),
            };
            (!chain || self.finished[id - 1]) && (!reuse || self.finished[id - self.parts])
        }

        fn handed_off(&self, id: usize) -> bool {
            !id.is_multiple_of(self.parts) || self.received.iter().all(|&r| r > id / self.parts)
        }

        fn take_ready(&mut self) -> Vec<usize> {
            let mut ready = Vec::new();
            for id in 0..self.rounds * self.parts {
                let claims = &self.claims[id % self.parts];
                if self.started[id]
                    || !self.deps_done(id)
                    || !self.handed_off(id)
                    || claims.iter().any(|&c| self.held[c])
                {
                    continue;
                }
                for &c in claims {
                    self.held[c] = true;
                }
                self.started[id] = true;
                ready.push(id);
            }
            ready
        }

        fn finish(&mut self, id: usize) {
            self.finished[id] = true;
            for &c in &self.claims[id % self.parts] {
                self.held[c] = false;
            }
        }

        /// The first unstarted head: edges met, hand-offs missing?
        fn head_waits_on_handoffs(&self) -> bool {
            (0..self.rounds * self.parts)
                .step_by(self.parts.max(1))
                .find(|&id| !self.started[id])
                .is_some_and(|id| self.deps_done(id) && !self.handed_off(id))
        }
    }

    /// [`StageCursors`] and [`FullScan`] driven in lockstep; every
    /// answer is checked against the other side's.
    struct Pair {
        cursors: StageCursors,
        scan: FullScan,
        running: Vec<usize>,
        label: String,
    }

    impl Pair {
        fn new(
            programs: &[ChipProgram],
            rounds: usize,
            mode: ScheduleMode,
            producers: usize,
            label: String,
        ) -> Self {
            let upstream = (0..producers).map(|src| (src, 0)).collect();
            let mut pair = Self {
                cursors: StageCursors::new(programs, 0, mode, upstream),
                scan: FullScan::new(programs, mode, producers),
                running: Vec::new(),
                label,
            };
            for _ in 0..rounds {
                pair.append_round();
            }
            pair
        }

        fn append_round(&mut self) {
            self.cursors.rounds += 1;
            self.scan.append_round();
        }

        fn hand_off(&mut self, src: usize) {
            assert_eq!(self.cursors.hand_off(src), self.scan.received[src], "{}", self.label);
            self.scan.received[src] += 1;
        }

        fn take_ready(&mut self) -> Vec<usize> {
            let ready = self.cursors.take_ready();
            assert_eq!(ready, self.scan.take_ready(), "{}: started stages diverged", self.label);
            self.running.extend(&ready);
            ready
        }

        fn finish(&mut self, stage: usize) {
            let at = self.running.iter().position(|&s| s == stage).expect("stage is running");
            self.running.swap_remove(at);
            self.cursors.finish(stage);
            self.scan.finish(stage);
        }

        fn head_waits(&self) -> bool {
            let waits = self.cursors.head_waits_on_handoffs();
            assert_eq!(waits, self.scan.head_waits_on_handoffs(), "{}: head wait", self.label);
            waits
        }
    }

    fn pair(programs: &[ChipProgram], rounds: usize, mode: ScheduleMode, producers: usize) -> Pair {
        Pair::new(programs, rounds, mode, producers, format!("{mode} x {rounds}"))
    }

    /// One seeded random sequence: core sets (some empty, some
    /// overlapping), schedule mode, 0–3 producers whose hand-offs may
    /// land before their round exists, rounds appended live, and
    /// completions in random order. Returns how many dispatches started
    /// more than one stage.
    fn cursors_match_the_full_scan(seed: u64) -> usize {
        const MAX_ROUNDS: usize = 8;
        let mut rng = SimRng::seed_from_u64(seed);
        let cores = 1 + rng.next_below(6) as usize;
        let programs: Vec<ChipProgram> = (0..rng.next_below(5))
            .map(|_| {
                let mut program = ChipProgram::new(cores);
                for c in (0..cores).filter(|_| rng.next_below(3) == 0) {
                    program.core_mut(CoreId(c)).push(I::Mvmul {
                        waves: 1,
                        activations: 1,
                        node: 0,
                    });
                }
                program
            })
            .collect();
        let mode = [ScheduleMode::Barrier, ScheduleMode::Interleaved][rng.next_below(2) as usize];
        let producers = rng.next_below(4) as usize;
        let rounds = rng.next_below(3) as usize;
        let mut pair = Pair::new(&programs, rounds, mode, producers, format!("seed {seed}"));
        let mut overlaps = 0;
        for _ in 0..200 {
            match rng.next_below(5) {
                0 if pair.scan.rounds < MAX_ROUNDS => pair.append_round(),
                1 if producers > 0 => {
                    let src = rng.next_below(producers as u64) as usize;
                    if pair.scan.received[src] < MAX_ROUNDS {
                        pair.hand_off(src);
                    }
                }
                2 if !pair.running.is_empty() => {
                    let stage = pair.running[rng.next_below(pair.running.len() as u64) as usize];
                    pair.finish(stage);
                }
                _ => overlaps += usize::from(pair.take_ready().len() > 1),
            }
            pair.head_waits();
        }
        // Drain: every hand-off lands, every stage runs to completion.
        for src in 0..producers {
            while pair.scan.received[src] < pair.scan.rounds {
                pair.hand_off(src);
            }
        }
        while !pair.take_ready().is_empty() || !pair.running.is_empty() {
            while let Some(&stage) = pair.running.last() {
                pair.finish(stage);
            }
        }
        assert!(pair.cursors.all_complete(), "seed {seed}: the cursors must drain");
        assert!(pair.scan.finished.iter().all(|&f| f), "seed {seed}: the scan must drain");
        overlaps
    }

    #[test]
    fn stage_cursors_match_the_full_scan() {
        let overlaps: usize = (0..300).map(cursors_match_the_full_scan).sum();
        assert!(overlaps > 100, "only {overlaps} dispatches overlapped stages");
    }

    #[test]
    #[ignore = "long form of stage_cursors_match_the_full_scan; CI's differential job runs it"]
    fn stage_cursors_match_the_full_scan_long() {
        for seed in 0..10_000 {
            cursors_match_the_full_scan(seed);
        }
    }

    #[test]
    fn barrier_cursors_form_a_single_chain() {
        let programs = [mvm_on_cores(0, 2, 4, 1), mvm_on_cores(2, 4, 4, 1)];
        let mut g = pair(&programs, 2, ScheduleMode::Barrier, 0);
        for expect in 0..4 {
            assert_eq!(g.take_ready(), vec![expect], "strict round-major order");
            g.finish(expect);
        }
        assert!(g.cursors.all_complete());
    }

    #[test]
    fn interleaving_overlaps_disjoint_core_stages() {
        // Partition 0 on cores 0-1, partition 1 on cores 2-3: batch 1's
        // partition 0 may start while batch 0's partition 1 runs.
        let programs = [mvm_on_cores(0, 2, 4, 1), mvm_on_cores(2, 4, 4, 1)];
        let mut g = pair(&programs, 2, ScheduleMode::Interleaved, 0);
        assert_eq!(g.take_ready(), vec![0]);
        g.finish(0);
        assert_eq!(g.take_ready(), vec![1, 2], "fill hidden behind the drain");
    }

    #[test]
    fn shared_cores_serialize_under_interleaving() {
        // Both partitions use core 0, so they never run together:
        // barrier-like order.
        let programs = [mvm_on_cores(0, 2, 4, 1), mvm_on_cores(0, 4, 4, 1)];
        let mut g = pair(&programs, 2, ScheduleMode::Interleaved, 0);
        for expect in 0..4 {
            assert_eq!(g.take_ready(), vec![expect], "shared cores serialize");
            g.finish(expect);
        }
    }

    #[test]
    fn hand_offs_gate_each_batch_head() {
        let programs = [mvm_on_cores(0, 2, 4, 1)];
        let mut g = pair(&programs, 2, ScheduleMode::Barrier, 1);
        assert!(g.take_ready().is_empty());
        assert!(g.head_waits());
        g.hand_off(0);
        assert!(!g.head_waits());
        assert_eq!(g.take_ready(), vec![0]);
        g.finish(0);
        assert!(g.take_ready().is_empty(), "batch 1 waits for its own hand-off");
        assert!(g.head_waits());
        g.hand_off(0);
        assert_eq!(g.take_ready(), vec![1]);
    }

    #[test]
    fn appended_rounds_chain_behind_running_work() {
        let programs = [mvm_on_cores(0, 2, 4, 1), mvm_on_cores(2, 4, 4, 1)];
        // Start with a single round and begin executing it.
        let mut g = pair(&programs, 1, ScheduleMode::Barrier, 0);
        assert_eq!(g.take_ready(), vec![0]);
        g.finish(0);
        assert_eq!(g.take_ready(), vec![1]);
        // Round 1 arrives while (0, 1) is still in flight: its head must
        // wait for the running stage, not start alongside it.
        g.append_round();
        assert!(g.take_ready().is_empty(), "chained behind the live stage");
        g.finish(1);
        assert_eq!(g.take_ready(), vec![2]);
        g.finish(2);
        assert_eq!(g.take_ready(), vec![3]);
        g.finish(3);
        assert!(g.cursors.all_complete());
    }

    #[test]
    fn appended_interleaved_rounds_keep_core_holds_and_hand_offs() {
        let programs = [mvm_on_cores(0, 2, 4, 1), mvm_on_cores(2, 4, 4, 1)];
        let mut g = pair(&programs, 1, ScheduleMode::Interleaved, 1);
        g.hand_off(0);
        assert_eq!(g.take_ready(), vec![0]);
        g.finish(0);
        assert_eq!(g.take_ready(), vec![1]);
        g.append_round();
        // The new head is gated on its hand-off even though its cores
        // are free; once it lands the head overlaps the draining tail.
        assert!(g.head_waits());
        assert!(g.take_ready().is_empty());
        g.hand_off(0);
        assert_eq!(g.take_ready(), vec![2], "fill overlaps the drain");
        g.finish(1);
        g.finish(2);
        assert_eq!(g.take_ready(), vec![3]);
    }
}
