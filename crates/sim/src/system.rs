//! The multi-chip system simulator.
//!
//! A system is several chips instantiated as component sets on **one**
//! discrete-event engine, joined by an `InterconnectComponent` that
//! carries inter-chip hand-offs hop-by-hop over the topology's links —
//! with per-link serialization and queueing, so concurrent transfers
//! contend instead of seeing a flat latency.
//!
//! Each chip is driven by a `ChipSequencer`: a ready-set dispatcher
//! over the chip's stage dependency graph (`StageGraph`).
//! Every `(batch, partition)` stage spawns its partition program's
//! cores when its graph dependencies are satisfied and its resource
//! claims (crossbar groups, memory channel) are free. In the default
//! [`ScheduleMode::Barrier`] the graph is a single round-major chain —
//! the paper's full-chip barrier, byte-identical to the golden
//! fixtures. Under [`ScheduleMode::Interleaved`] only dataflow and
//! resource-reuse edges remain, so a chip starts batch `b+1`'s
//! partition 0 the moment its crossbars free up while batch `b` still
//! drains downstream partitions.
//!
//! A chip may ship hand-offs to *several* downstream peers (fan-out)
//! and gate on hand-offs from several upstream producers (fan-in);
//! each batch's first stage carries one external dependency per
//! producer. Topology slots may override the system's base
//! [`ChipSpec`] for heterogeneous systems.
//!
//! The single-chip [`crate::ChipSimulator`] is a thin wrapper over
//! this machinery with a [`Topology::single`] system; its analytic
//! reports stay byte-identical to the golden fixtures.
//!
//! Every run — fixed-round ([`SystemSimulator::run`]) or open-loop
//! serving ([`SystemSimulator::run_serving`]) — goes through one
//! function that builds the whole system on one single-threaded engine.
//! Serving adds the [`crate::serve`] request buffer and source to the
//! same component layout. The engine's retired binary-heap queue
//! (`reference-queue` feature) runs the identical simulation as the
//! byte-identity oracle.

use crate::components::{
    BusComponent, ChipEvent, ClosedLoopDram, CoreComponent, CoreTiming, DramPort, MemChannel,
    Rendezvous, MAX_PROGRAM_TAG,
};
use crate::error::SimError;
use crate::report::{
    ChipSimSummary, CoreActivity, EngineMode, LinkStats, PartitionSimReport, SimReport, TraceStats,
};
use crate::serve::{
    percentiles, RequestBuffer, RequestRecord, RequestSource, ServingConfig, ServingReport,
    ARRIVAL_CHUNK,
};
use crate::stage::StageGraph;
use pim_arch::{ChipSpec, EnergyModel, Link, PowerBreakdown, ScheduleMode, TimingMode, Topology};
use pim_dram::{DramConfig, DramEnergy, DramSimulator};
use pim_engine::{Component, ComponentId, Engine, EngineCtx, Event, SimTime};
use pim_isa::{ChipProgram, CoreId, Instruction, InstructionStats};
use std::any::Any;
use std::rc::Rc;

/// Default closed-loop address-interleave granularity: two LPDDR3 rows
/// per stripe keeps sequential streams row-friendly while still
/// spreading blocks across channels.
pub(crate) const DEFAULT_INTERLEAVE_BYTES: usize = 4096;

/// Stages (rounds × partitions) one chip can run under the interleaved
/// schedule: overlapping stages tell their rendezvous tags apart by a
/// 16-bit stage id above [`MAX_PROGRAM_TAG`].
pub(crate) const MAX_INTERLEAVED_STAGES: usize = 1 << 16;

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
/// Chips default to one shared [`ChipSpec`]; topology slots may carry
/// per-chip overrides ([`Topology::with_chip_override`]) for
/// heterogeneous systems. The topology contributes the interconnect
/// graph. See the module docs for the execution model.
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
    interleave_bytes: usize,
    dram_reorder: bool,
    #[cfg(feature = "reference-queue")]
    reference_queue: bool,
}

impl SystemSimulator {
    /// Creates a system of `chip`s joined by `topology` (slots without
    /// an override run `chip`), in analytic timing mode, barrier
    /// scheduling, with the in-line DRAM model enabled.
    pub fn new(chip: ChipSpec, topology: Topology) -> Self {
        Self {
            chip,
            topology,
            replay_dram: true,
            mode: TimingMode::Analytic,
            schedule: ScheduleMode::Barrier,
            dram_channels: None,
            interleave_bytes: DEFAULT_INTERLEAVE_BYTES,
            dram_reorder: false,
            #[cfg(feature = "reference-queue")]
            reference_queue: false,
        }
    }

    /// Runs the simulation on the engine's retired binary-heap event
    /// queue instead of the calendar queue — the determinism suites'
    /// oracle. Timing and reports are identical by construction; this
    /// knob exists so tests can *prove* that, byte for byte.
    #[cfg(feature = "reference-queue")]
    pub fn with_reference_queue(mut self, enabled: bool) -> Self {
        self.reference_queue = enabled;
        self
    }

    /// The system topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
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
    /// wherever crossbar-group claims permit.
    pub fn with_schedule_mode(mut self, schedule: ScheduleMode) -> Self {
        self.schedule = schedule;
        self
    }

    /// The intra-chip stage dispatch policy in effect.
    pub fn schedule_mode(&self) -> ScheduleMode {
        self.schedule
    }

    /// Sets the closed-loop DRAM channel count per chip (clamped to at
    /// least one).
    pub fn with_dram_channels(mut self, channels: usize) -> Self {
        self.dram_channels = Some(channels.max(1));
        self
    }

    /// Sets the closed-loop address-interleave granularity in bytes.
    pub fn with_dram_interleave(mut self, bytes: usize) -> Self {
        self.interleave_bytes = bytes.max(1);
        self
    }

    /// Allows the closed-loop controllers to reorder same-instant
    /// in-flight accesses from independent cores FR-FCFS style
    /// (row-buffer hits first). Off by default: arrival-order service
    /// is the documented closed-loop behaviour.
    pub fn with_dram_reorder(mut self, enabled: bool) -> Self {
        self.dram_reorder = enabled;
        self
    }

    /// The spec chip `c` runs: its slot override, or the system's base
    /// chip.
    fn chip_for(&self, c: usize) -> &ChipSpec {
        self.topology.chip_override(c).unwrap_or(&self.chip)
    }

    /// The closed-loop channel count in effect for the base chip:
    /// explicit, or derived from the chip's aggregate bandwidth over
    /// one LPDDR3 channel's peak.
    pub fn dram_channel_count(&self) -> usize {
        self.dram_channel_count_for(&self.chip)
    }

    fn dram_channel_count_for(&self, chip: &ChipSpec) -> usize {
        self.dram_channels.unwrap_or_else(|| {
            DramConfig::lpddr3_1600().channels_for_bandwidth(chip.memory.bandwidth_gbps)
        })
    }

    fn validate(&self, loads: &[ChipLoad<'_>]) -> Result<(), SimError> {
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
            let chip = self.chip_for(c);
            for program in load.programs {
                if program.cores() > chip.cores {
                    return Err(SimError::CoreCountMismatch {
                        program_cores: program.cores(),
                        chip_cores: chip.cores,
                    });
                }
                let mut tags = (0..program.cores())
                    .flat_map(|core| program.core(CoreId(core)).instructions())
                    .filter_map(|instruction| match *instruction {
                        Instruction::Send { tag, .. } | Instruction::Recv { tag, .. } => Some(tag),
                        _ => None,
                    });
                if let Some(tag) = tags.find(|tag| tag.0 >= MAX_PROGRAM_TAG) {
                    return Err(SimError::TagOutOfRange { tag });
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
    /// Returns [`SimError::InvalidTopology`] for workloads that do not
    /// fit the topology, [`SimError::CoreCountMismatch`] when a
    /// program does not match its slot's chip,
    /// [`SimError::TagOutOfRange`] for a SEND/RECV tag of 2^48 or
    /// more, [`SimError::TooManyStages`] for an interleaved run with
    /// more than 65,536 (2^16) rounds × partitions on a chip, and
    /// [`SimError::Deadlock`] for malformed schedules.
    pub fn run(
        &self,
        loads: &[ChipLoad<'_>],
        rounds: usize,
        samples_per_round: usize,
    ) -> Result<SimReport, SimError> {
        self.validate(loads)?;
        let rounds = rounds.max(1);
        if self.schedule == ScheduleMode::Interleaved {
            for (chip, load) in loads.iter().enumerate() {
                let stages = rounds.saturating_mul(load.programs.len());
                if stages > MAX_INTERLEAVED_STAGES {
                    return Err(SimError::TooManyStages { chip, stages });
                }
            }
        }
        let (outcomes, links, _) = self.execute(loads, Workload::Rounds(rounds));
        self.fold_report(loads, rounds, samples_per_round, outcomes, links)
    }

    /// Peak concurrently-live stage cores of one chip's load under
    /// the schedule in effect.
    fn stage_cores_of(&self, load: &ChipLoad<'_>) -> usize {
        match self.schedule {
            // Barrier mode runs one stage per chip at a time.
            ScheduleMode::Barrier => load.programs.iter().map(|p| p.cores()).max().unwrap_or(0),
            // Interleaving can have every partition in flight.
            ScheduleMode::Interleaved => load.programs.iter().map(|p| p.cores()).sum(),
        }
    }

    /// The event-queue pre-size for a whole-system engine, derived
    /// from *peak pending* events — each live
    /// component (a core of an in-flight stage, the shared
    /// channel/bus/rendezvous/DRAM per chip, the interconnect) keeps
    /// only a bounded handful of events in flight, so peak occupancy
    /// scales with concurrent components — not with instructions ×
    /// rounds, which measures throughput. `frontend` adds the serving
    /// frontend's own peak (zero for fixed-round runs). A hint only;
    /// the queue grows past it transparently.
    fn event_capacity_for(&self, loads: &[ChipLoad<'_>], frontend: usize) -> usize {
        let stage_cores: usize = loads.iter().map(|l| self.stage_cores_of(l)).sum();
        ((stage_cores + 8 * loads.len()) * 8 + frontend).clamp(256, 1 << 16)
    }

    /// Registers chip `c`'s shared components in the canonical order —
    /// `[closed-loop dram?, rendezvous, channel, bus]` — and returns
    /// their addresses. The analytic mode's in-line DRAM model lives
    /// inside the channel.
    fn register_chip(&self, engine: &mut Engine<ChipEvent>, c: usize) -> ChipParts {
        let chip = self.chip_for(c);
        let dram = match self.mode {
            TimingMode::Analytic if self.replay_dram => {
                DramPort::Inline(Box::new(DramSimulator::new(DramConfig::lpddr3_1600())))
            }
            TimingMode::Analytic => DramPort::Off,
            TimingMode::ClosedLoop => {
                DramPort::ClosedLoop(engine.add_component(ClosedLoopDram::new(
                    self.dram_channel_count_for(chip),
                    self.interleave_bytes,
                    self.dram_reorder,
                )))
            }
        };
        let rendezvous = engine.add_component(Rendezvous::default());
        let channel = engine.add_component(MemChannel::new(chip, dram));
        let bus = engine.add_component(BusComponent::new(chip, rendezvous));
        ChipParts { channel, bus, rendezvous }
    }

    /// Builds chip `c`'s sequencer over its stage graph and per-source
    /// hand-off ledger: batch b's head stage carries one external
    /// dependency per upstream producer, so a fast producer can never
    /// stand in for a slow one.
    fn sequencer_for(
        &self,
        c: usize,
        loads: &[ChipLoad<'_>],
        rounds: usize,
        parts: &ChipParts,
        interconnect: ComponentId,
    ) -> ChipSequencer {
        let load = &loads[c];
        let upstream: Vec<(usize, usize)> = loads
            .iter()
            .enumerate()
            .filter(|(_, l)| l.handoffs.iter().any(|h| h.dst == c))
            .map(|(src, _)| (src, 0))
            .collect();
        let graph = StageGraph::build(load.programs, rounds, self.schedule, upstream.len());
        let nodes = rounds * load.programs.len();
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
            timing: CoreTiming::of(self.chip_for(c)),
            channel: parts.channel,
            bus: parts.bus,
            rendezvous: parts.rendezvous,
            interconnect,
            handoffs: load.handoffs.clone(),
            upstream,
            rounds,
            schedule: self.schedule,
            notify: None,
            refused_stages: None,
            graph,
            running: (0..nodes).map(|_| None).collect(),
            next_head: 0,
            wait_from: vec![None; rounds],
            handoff_wait_ns: 0.0,
            records: Vec::new(),
        }
    }

    /// Runs an *open-loop serving* workload: instead of a fixed round
    /// count, a [`crate::TrafficSpec`]-driven request source feeds a
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
    /// [`SimError::InvalidServing`] for malformed traces, a zero
    /// queue capacity or in-flight limit, or a system with no active
    /// chip to serve on. Serving appends rounds live, so the stage
    /// count is unknown up front: an interleaved serving run whose
    /// next admitted round would take a chip past 65,536 (2^16)
    /// rounds × partitions stops admitting work to that chip there,
    /// runs out what was already admitted, and returns
    /// [`SimError::TooManyStages`] with the stage count that round
    /// would have reached.
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
            _ => {}
        }
        let arrivals = serving.traffic.arrivals()?;
        if loads.iter().all(|l| l.programs.is_empty()) {
            return Err(SimError::InvalidServing(
                "every chip is idle; nothing can serve the request stream".into(),
            ));
        }
        let workload = Workload::Serving { config: serving, arrivals };
        let (outcomes, links, buffer) = self.execute(loads, workload);
        let refused = outcomes.iter().enumerate().find_map(|(chip, outcome)| {
            outcome.sequencer.refused_stages.map(|stages| SimError::TooManyStages { chip, stages })
        });
        if let Some(error) = refused {
            return Err(error);
        }
        let buffer = buffer.expect("serving runs register a request buffer");
        self.fold_serving_report(loads, serving, buffer, outcomes, links)
    }

    /// The one system run path: every chip, the interconnect and — for
    /// serving — the request buffer and source on one engine, run to
    /// idle. Component ids follow one fixed layout: per chip
    /// `[closed-loop dram?, rendezvous, channel, bus]`, then the
    /// interconnect, then one sequencer per chip, then the buffer and
    /// the source. Returns
    /// the per-chip outcomes, the link statistics (multi-chip
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
        // The serving frontend's own peak: one pre-scheduled chunk of
        // arrivals plus the admission fan-out. `arrivals` is the
        // realized stream, so short traces never over-reserve.
        let frontend = match &workload {
            Workload::Rounds(_) => 0,
            Workload::Serving { arrivals, .. } => arrivals.len().min(ARRIVAL_CHUNK) + 2 * chips,
        };
        engine.reserve_events(self.event_capacity_for(loads, frontend));
        let parts: Vec<ChipParts> =
            (0..chips).map(|c| self.register_chip(&mut engine, c)).collect();

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
            let mut sequencer = self.sequencer_for(c, loads, rounds, &parts[c], interconnect_id);
            if !loads[c].programs.is_empty() {
                sequencer.notify = notify;
            }
            let id = engine.add_component(sequencer);
            assert_eq!(id, sequencer_ids[c]);
        }
        let source_id = match workload {
            Workload::Rounds(_) => None,
            Workload::Serving { config, arrivals } => {
                let active: Vec<(usize, ComponentId)> = (0..chips)
                    .filter(|&c| !loads[c].programs.is_empty())
                    .map(|c| (c, sequencer_ids[c]))
                    .collect();
                let id = engine.add_component(RequestBuffer::new(config, active));
                assert_eq!(id, buffer_id);
                Some(engine.add_component(RequestSource::new(arrivals, buffer_id, ARRIVAL_CHUNK)))
            }
        };
        for &id in sequencer_ids.iter().chain(&source_id) {
            engine.schedule(SimTime::ZERO, id, ChipEvent::Kick);
        }
        engine.run_until_idle();

        let buffer = source_id.map(|_| {
            engine.extract::<RequestBuffer>(buffer_id).expect("request buffer survives the run")
        });
        let outcomes: Vec<ChipOutcome> = (0..chips)
            .map(|c| self.chip_outcome(&mut engine, &parts[c], sequencer_ids[c]))
            .collect();
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
    fn chip_outcome(
        &self,
        engine: &mut Engine<ChipEvent>,
        parts: &ChipParts,
        sequencer: ComponentId,
    ) -> ChipOutcome {
        let sequencer: ChipSequencer =
            engine.extract(sequencer).expect("sequencer survives the run");
        let mut stalled_cores = Vec::new();
        if !sequencer.graph.all_complete() {
            for stage in sequencer.running.iter().flatten() {
                stalled_cores.push(
                    stage
                        .cores
                        .iter()
                        .map(|&id| engine.extract(id).expect("core component survives the run"))
                        .collect(),
                );
            }
        }
        let channel: MemChannel = engine.extract(parts.channel).expect("channel survives the run");
        let rendezvous: Rendezvous =
            engine.extract(parts.rendezvous).expect("rendezvous survives the run");
        let closed_dram = match channel.dram {
            DramPort::ClosedLoop(id) => Some(engine.extract(id).expect("dram survives the run")),
            _ => None,
        };
        ChipOutcome { sequencer, channel, rendezvous, closed_dram, stalled_cores }
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
        if outcomes.iter().any(|o| !o.sequencer.graph.all_complete()) {
            return Err(deadlock_of(&outcomes));
        }
        let energy_models: Vec<EnergyModel> =
            (0..chips).map(|c| EnergyModel::new(self.chip_for(c))).collect();
        let mut partitions = Vec::new();
        let mut makespan_ns = 0.0f64;
        let mut energy = PowerBreakdown::new();
        let mut summaries = Vec::with_capacity(chips);
        for (c, load) in loads.iter().enumerate() {
            let seq = &mut outcomes[c].sequencer;
            // Interleaving may finish stages out of round-major order;
            // reports stay in (round, partition) order either way.
            seq.records.sort_by_key(|r| (r.round, r.partition));
            let energy_model = &energy_models[c];
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
        energy.static_nj =
            energy_models.iter().map(|m| m.static_energy_nj(makespan_ns)).sum::<f64>();

        let mut dram_energy: Option<DramEnergy> = None;
        let mut dram_trace = TraceStats::default();
        let mut dram_channels: Option<Vec<pim_dram::ChannelStats>> = None;
        for outcome in &outcomes {
            if self.schedule == ScheduleMode::Interleaved {
                // Every drained stage retires its rendezvous tag
                // bucket, so nothing may survive a completed run.
                debug_assert!(
                    outcome.rendezvous.delivered.is_empty(),
                    "interleaved stages must retire their rendezvous tag buckets"
                );
            }
            if self.replay_dram || self.mode == TimingMode::ClosedLoop {
                dram_trace.requests += outcome.channel.stats.requests;
                dram_trace.read_bytes += outcome.channel.stats.read_bytes;
                dram_trace.write_bytes += outcome.channel.stats.write_bytes;
            }
            let chip_energy = match (&outcome.channel.dram, &outcome.closed_dram) {
                (DramPort::Inline(dram), _) => {
                    (outcome.channel.stats.requests > 0).then(|| dram.energy())
                }
                (_, Some(dram)) => {
                    dram_channels.get_or_insert_with(Vec::new).extend(dram.mem.channel_stats());
                    (dram.requests > 0).then(|| dram.mem.energy())
                }
                _ => None,
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
    for outcome in outcomes.iter().filter(|o| !o.sequencer.graph.all_complete()) {
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

/// Component addresses of one chip's shared infrastructure.
struct ChipParts {
    channel: ComponentId,
    bus: ComponentId,
    rendezvous: ComponentId,
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
    sequencer: ChipSequencer,
    channel: MemChannel,
    rendezvous: Rendezvous,
    closed_dram: Option<ClosedLoopDram>,
    /// Cores of stages still in flight when the run stalled, one
    /// vector per running stage in node order — the deadlock
    /// diagnosis walks these.
    stalled_cores: Vec<Vec<CoreComponent>>,
}

/// Dispatches one chip's `(batch, partition)` stages from the ready
/// set of its stage graph: barrier-chained by default, dependency- and
/// claim-driven under interleaving. See the module docs.
pub(crate) struct ChipSequencer {
    chip_index: usize,
    /// Per partition, the per-core instruction streams every stage of
    /// that partition shares with its spawned cores.
    streams: Vec<Vec<Rc<[Instruction]>>>,
    timing: CoreTiming,
    channel: ComponentId,
    bus: ComponentId,
    rendezvous: ComponentId,
    interconnect: ComponentId,
    /// Per-round boundary transfers, one per downstream consumer.
    handoffs: Vec<Handoff>,
    /// Per-upstream-producer hand-off ledger: `(source chip,
    /// hand-offs received from it)`.
    upstream: Vec<(usize, usize)>,
    rounds: usize,
    schedule: ScheduleMode,
    /// Serving mode: the request buffer to notify with
    /// [`ChipEvent::RoundDone`] each time a round fully drains.
    /// `None` for fixed-round (closed-loop) runs.
    notify: Option<ComponentId>,
    /// Interleaved serving only: the stage count of the first round
    /// this chip refused to append because it would exceed
    /// [`MAX_INTERLEAVED_STAGES`].
    refused_stages: Option<usize>,
    /// The stage dependency graph driving dispatch.
    pub(crate) graph: StageGraph,
    /// In-flight stages, indexed by graph node.
    pub(crate) running: Vec<Option<RunningStage>>,
    /// The first round whose head stage has not started. Heads start
    /// in round order (each depends, directly or through its round's
    /// chain, on the previous head), so this is the only round that
    /// can be blocked on upstream hand-offs.
    next_head: usize,
    /// Per-round timestamp at which the round's head stage became
    /// blocked purely on upstream hand-offs.
    wait_from: Vec<Option<f64>>,
    pub(crate) handoff_wait_ns: f64,
    pub(crate) records: Vec<StageRecord>,
}

/// One in-flight stage: its spawned cores and running accounting.
pub(crate) struct RunningStage {
    round: usize,
    partition: usize,
    pub(crate) cores: Vec<ComponentId>,
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

impl ChipSequencer {
    /// Starts every ready stage, looping because zero-core stages
    /// complete at their start instant and may unlock successors.
    fn dispatch(&mut self, me: ComponentId, ctx: &mut EngineCtx<'_, ChipEvent>) {
        loop {
            let ready = self.graph.take_ready();
            if ready.is_empty() {
                break;
            }
            for node in ready {
                self.start_stage(node, me, ctx);
            }
        }
    }

    /// Stamps the moment the next round's head stage becomes blocked
    /// purely on upstream hand-offs (graph deps done, externals not).
    /// Only the first unstarted head can be: every later head still
    /// waits on it through the graph.
    fn refresh_upstream_wait(&mut self, now_ns: f64) {
        let b = self.next_head;
        if self.upstream.is_empty() || self.streams.is_empty() || b >= self.rounds {
            return;
        }
        if self.wait_from[b].is_none() && self.graph.blocked_on_external(self.graph.node(b, 0)) {
            self.wait_from[b] = Some(now_ns);
        }
    }

    /// Spawns stage `node`'s cores. In barrier mode the shared
    /// resources are barrier-reset first, exactly as the single-chip
    /// simulator's partition loop did: barriers first, then cores in
    /// index order, all at the current instant.
    fn start_stage(&mut self, node: usize, me: ComponentId, ctx: &mut EngineCtx<'_, ChipEvent>) {
        let (round, partition) = self.graph.coords(node);
        let now = ctx.now();
        if partition == 0 {
            debug_assert_eq!(round, self.next_head, "round heads start in order");
            self.next_head = round + 1;
            if let Some(since) = self.wait_from[round].take() {
                self.handoff_wait_ns += (now.as_ns() - since).max(0.0);
            }
        }
        if self.schedule == ScheduleMode::Barrier {
            for shared in [self.channel, self.bus, self.rendezvous] {
                ctx.schedule(now, shared, ChipEvent::Barrier);
            }
        }
        // Overlapping stages get disjoint rendezvous tag spaces; the
        // barrier chain never overlaps, and its per-stage rendezvous
        // reset expects the program's raw tags. The stage id must fit
        // the 16 offset bits — overflow would silently alias two
        // stages' tag spaces, so fail loudly instead. Fixed-round runs
        // reject such a load up front and serving refuses the round
        // that would pass the limit (`SimError::TooManyStages`), so
        // this never fires.
        let tag_offset = match self.schedule {
            ScheduleMode::Barrier => 0,
            ScheduleMode::Interleaved => {
                assert!(
                    node < MAX_INTERLEAVED_STAGES,
                    "interleaved runs support at most 65536 stages (rounds x partitions); \
                     stage {node} would alias another stage's rendezvous tag space"
                );
                (node as u64) << 48
            }
        };
        let streams = &self.streams[partition];
        let cores: Vec<ComponentId> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let id = ctx.add_component(CoreComponent::new(
                    Rc::clone(stream),
                    now,
                    self.timing,
                    self.channel,
                    self.bus,
                    self.rendezvous,
                    me,
                    c,
                    node,
                    tag_offset,
                ));
                ctx.schedule(now, id, ChipEvent::Step);
                id
            })
            .collect();
        let empty = cores.is_empty();
        self.running[node] = Some(RunningStage {
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
            self.finish_stage(node, ctx);
        }
    }

    /// Folds a drained stage into the records, ships the chip's
    /// hand-offs when the stage closes a round, and releases the
    /// stage's graph node (the caller's dispatch loop picks up
    /// whatever that unblocks).
    fn finish_stage(&mut self, node: usize, ctx: &mut EngineCtx<'_, ChipEvent>) {
        let stage = self.running[node].take().expect("finished stage was running");
        self.records.push(StageRecord {
            round: stage.round,
            partition: stage.partition,
            start_ns: stage.start_ns,
            end_ns: stage.end_ns,
            replace_ns: stage.replace_max_ns - stage.start_ns,
            activity: stage.activity,
        });
        if stage.partition + 1 == self.graph.partitions() {
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
        if self.schedule == ScheduleMode::Interleaved {
            // The stage's receivers have all completed; drop its
            // rendezvous tag bucket so the delivered map stays bounded
            // by the stages in flight (barrier mode clears at each
            // stage's Barrier instead).
            ctx.schedule(ctx.now(), self.rendezvous, ChipEvent::RetireStage { stage: node as u64 });
        }
        self.graph.complete(node);
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
                let entry = self
                    .upstream
                    .iter_mut()
                    .find(|(s, _)| *s == src)
                    .expect("hand-off arrives only from declared producers");
                entry.1 += 1;
                let batch = entry.1 - 1;
                if batch < self.rounds && !self.streams.is_empty() {
                    let node = self.graph.node(batch, 0);
                    self.graph.satisfy_external(node);
                    if !self.graph.blocked_on_external(node) {
                        // The last missing input just landed: close the
                        // round's upstream-wait window.
                        if let Some(since) = self.wait_from[batch].take() {
                            self.handoff_wait_ns += (event.time.as_ns() - since).max(0.0);
                        }
                    }
                    self.dispatch(event.target, ctx);
                }
            }
            ChipEvent::AppendRound => {
                // Serving mode only: the request buffer admitted one
                // more batch. Grow the live stage graph by a round and
                // credit any hand-offs that were banked before the
                // round existed (a fast upstream may run ahead of
                // admission).
                assert!(!self.streams.is_empty(), "idle chips receive no rounds");
                if self.schedule == ScheduleMode::Interleaved {
                    let stages = (self.rounds + 1).saturating_mul(self.graph.partitions());
                    if stages > MAX_INTERLEAVED_STAGES {
                        self.refused_stages = Some(stages);
                        return;
                    }
                }
                let b = self.rounds;
                self.rounds += 1;
                self.graph.append_round();
                for _ in 0..self.graph.partitions() {
                    self.running.push(None);
                }
                self.wait_from.push(None);
                let node = self.graph.node(b, 0);
                let banked = self.upstream.iter().filter(|&&(_, received)| received > b).count();
                for _ in 0..banked {
                    self.graph.satisfy_external(node);
                }
                self.dispatch(event.target, ctx);
                self.refresh_upstream_wait(event.time.as_ns());
            }
            ChipEvent::CoreDone { stage, core_index, accounting } => {
                let (activity, replace_done_ns) = *accounting;
                let running = self.running[stage].as_mut().expect("core reports a live stage");
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
    fn interleaved_stage_limit_is_a_typed_error() {
        // Rounds x partitions above 2^16 on any chip is refused before
        // the engine starts; the barrier chain has no such limit.
        let chip = ChipSpec::chip_s();
        let one = mvm_program(chip.cores, 1);
        let two = [one.clone(), one.clone()];
        let interleaved = SystemSimulator::new(chip.clone(), Topology::ring(2))
            .with_schedule_mode(ScheduleMode::Interleaved);
        let loads = [ChipLoad::new(std::slice::from_ref(&one)), ChipLoad::new(&two)];
        let rounds = MAX_INTERLEAVED_STAGES / 2 + 1;
        let err = interleaved.run(&loads, rounds, 1).unwrap_err();
        assert_eq!(err, SimError::TooManyStages { chip: 1, stages: 2 * rounds });
        assert!(err.to_string().contains("65536"), "{err}");
        let single = SystemSimulator::new(chip.clone(), Topology::single())
            .with_schedule_mode(ScheduleMode::Interleaved);
        let loads = [ChipLoad::new(std::slice::from_ref(&one))];
        let err = single.run(&loads, MAX_INTERLEAVED_STAGES + 1, 1).unwrap_err();
        assert_eq!(err, SimError::TooManyStages { chip: 0, stages: MAX_INTERLEAVED_STAGES + 1 });
        assert!(single.run(&loads, 3, 1).is_ok());
    }

    #[test]
    fn interleaved_serving_past_the_stage_limit_is_a_typed_error() {
        // 256 zero-core partitions: round 256 fills the 2^16 stage ids
        // exactly, and the round after it is refused. Barrier serving
        // has no limit and serves every request.
        let chip = ChipSpec::chip_s();
        let partitions = 256;
        let programs = vec![ChipProgram::new(0); partitions];
        let loads = [ChipLoad::new(&programs)];
        let serving = |requests| {
            crate::ServingConfig::new(crate::TrafficSpec::Synthetic {
                model: crate::TrafficModel::Poisson { rate_per_s: 1e6 },
                seed: 3,
                requests,
            })
        };
        let rounds = MAX_INTERLEAVED_STAGES / partitions;
        let sim = |schedule| {
            SystemSimulator::new(chip.clone(), Topology::single()).with_schedule_mode(schedule)
        };
        let full = sim(ScheduleMode::Interleaved).run_serving(&loads, &serving(rounds)).unwrap();
        assert_eq!(full.serving.as_ref().map(|s| s.rounds), Some(rounds));
        let err =
            sim(ScheduleMode::Interleaved).run_serving(&loads, &serving(rounds + 1)).unwrap_err();
        assert_eq!(err, SimError::TooManyStages { chip: 0, stages: (rounds + 1) * partitions });
        let barrier = sim(ScheduleMode::Barrier).run_serving(&loads, &serving(rounds + 1)).unwrap();
        assert_eq!(barrier.serving.as_ref().map(|s| s.requests), Some(rounds + 1));
    }

    #[test]
    fn rejects_tags_that_reach_the_stage_offset_bits() {
        // A pair on the widest tag runs; one tag wider is refused
        // before the run starts, under either schedule and for serving
        // too, instead of panicking mid-run.
        let chip = ChipSpec::chip_s();
        let pair = |tag: u64| {
            let mut program = ChipProgram::new(chip.cores);
            program.core_mut(CoreId(0)).push(I::Send { to: CoreId(1), bytes: 64, tag: Tag(tag) });
            program.core_mut(CoreId(1)).push(I::Recv { from: CoreId(0), bytes: 64, tag: Tag(tag) });
            program
        };
        let (widest, wide) = (pair(MAX_PROGRAM_TAG - 1), pair(MAX_PROGRAM_TAG));
        let serving = crate::ServingConfig::new(crate::TrafficSpec::Synthetic {
            model: crate::TrafficModel::Poisson { rate_per_s: 1e4 },
            seed: 1,
            requests: 4,
        });
        for schedule in [ScheduleMode::Barrier, ScheduleMode::Interleaved] {
            let sim =
                SystemSimulator::new(chip.clone(), Topology::single()).with_schedule_mode(schedule);
            let loads = [ChipLoad::new(std::slice::from_ref(&widest))];
            assert!(sim.run(&loads, 2, 1).is_ok(), "{schedule:?}");
            let loads = [ChipLoad::new(std::slice::from_ref(&wide))];
            let want = SimError::TagOutOfRange { tag: Tag(MAX_PROGRAM_TAG) };
            assert_eq!(sim.run(&loads, 2, 1).unwrap_err(), want, "{schedule:?}");
            assert_eq!(sim.run_serving(&loads, &serving).unwrap_err(), want, "{schedule:?}");
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
    fn conflicting_claims_serialize_interleaved_stages() {
        // Both partitions use core 0: the exclusive crossbar-group
        // claim forces the barrier order and the barrier makespan.
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
            "claim conflicts must serialize: {} vs {}",
            interleaved.makespan_ns,
            barrier.makespan_ns
        );
    }

    #[test]
    fn heterogeneous_slot_override_shapes_timing_and_validation() {
        // Slot 1 runs a Chip-L (36 cores): a 36-core program fits there
        // but not on the base Chip-S.
        let chip_s = ChipSpec::chip_s();
        let chip_l = ChipSpec::chip_l();
        let small = mvm_program(chip_s.cores, 100);
        let big = mvm_program(chip_l.cores, 100);
        let loads = [
            ChipLoad::new(std::slice::from_ref(&small)),
            ChipLoad::new(std::slice::from_ref(&big)),
        ];
        let homogeneous =
            SystemSimulator::new(chip_s.clone(), Topology::ring(2)).run(&loads, 1, 2).unwrap_err();
        assert!(matches!(homogeneous, SimError::CoreCountMismatch { .. }));
        let report = SystemSimulator::new(chip_s, Topology::ring(2).with_chip_override(1, chip_l))
            .run(&loads, 1, 2)
            .expect("the override slot accepts the larger program");
        assert_eq!(report.chips.as_ref().unwrap().len(), 2);
        assert!(report.makespan_ns > 0.0);
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
}
