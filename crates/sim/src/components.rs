//! The chip simulator's engine components and event protocol.
//!
//! Every piece of shared hardware is a [`pim_engine::Component`]:
//! per-core sequencers, the global-memory channel, the arbitrated
//! core-to-core bus, the SEND/RECV rendezvous, and in closed-loop
//! timing the multi-channel LPDDR3 controllers. They interact only by
//! scheduling [`ChipEvent`]s, so simulated time advances exclusively
//! through the engine's `(time, sequence)`-ordered queue. The analytic
//! mode's in-line LPDDR3 energy model is not a component: it never
//! shapes timing, so the memory channel feeds it directly.

use crate::report::{CoreActivity, TraceStats};
use fxhash::FxHashMap;
use pim_arch::{ChipSpec, InterconnectSpec};
use pim_dram::{DramConfig, DramSimulator, MultiChannelDram, Request, RequestKind};
use pim_engine::{Component, ComponentId, EngineCtx, Event, SimTime};
use pim_isa::{Instruction, Tag};
use std::any::Any;
use std::rc::Rc;

/// The event protocol between chip components.
#[derive(Debug, Clone)]
pub(crate) enum ChipEvent {
    /// A core executes its next instruction; the event time is the
    /// core's clock.
    Step,
    /// Starts a chip sequencer's first round (scheduled once per chip
    /// at simulation start).
    Kick,
    /// A core's stream is exhausted; the event time is the core's
    /// final clock. Carries the core's accounting so the sequencer
    /// never has to reach into a live component.
    CoreDone {
        /// The `(batch, partition)` stage node the core belongs to
        /// (several stages may be in flight under interleaving).
        stage: usize,
        /// Index of the core within its partition program.
        core_index: usize,
        /// The core's final activity breakdown and the absolute
        /// completion time of its weight-replace phase, ns. Boxed: it
        /// is sent once per core per stage, and inline it would more
        /// than double the size of every event.
        accounting: Box<(CoreActivity, f64)>,
    },
    /// An inter-chip transfer progresses one hop along its route
    /// (`hop` is the next route index to traverse; past the last hop
    /// the payload is delivered to the destination sequencer). Indices
    /// are `u32`: the interconnect's route table holds chips² entries,
    /// so a chip or hop index never reaches 2^32.
    Ship {
        /// Source chip.
        src: u32,
        /// Destination chip.
        dst: u32,
        /// Payload size.
        bytes: usize,
        /// Next hop index on the precomputed route.
        hop: u32,
    },
    /// A pipeline hand-off landed on this sequencer's chip.
    HandoffIn {
        /// The producing chip (round gating is per producer).
        src: usize,
    },
    /// A core asks the global-memory channel for a transfer.
    MemRequest {
        /// Requesting core (reply address).
        core: ComponentId,
        /// Transfer size.
        bytes: usize,
        /// Read (loads) or write (stores).
        kind: RequestKind,
        /// Weight stream (bulk-sequential) vs activation traffic.
        weight: bool,
    },
    /// Channel grant: the transfer finished at the event time.
    MemDone {
        /// Stall before the channel was free, ns.
        wait_ns: f64,
        /// Transfer occupancy (latency + data), ns.
        busy_ns: f64,
    },
    /// A core asks the bus to carry a SEND.
    BusRequest {
        /// Sending core (reply address).
        core: ComponentId,
        /// Payload size.
        bytes: usize,
        /// Rendezvous tag.
        tag: Tag,
    },
    /// Bus grant: the sender may proceed at the event time (buffered
    /// send — only arbitration is on the critical path).
    BusDone {
        /// Queueing + arbitration time charged to the sender, ns.
        occupancy_ns: f64,
    },
    /// The bus announces a tag's delivery time to the rendezvous.
    Deliver {
        /// Rendezvous tag.
        tag: Tag,
        /// When the transfer's data lands, ns.
        at_ns: f64,
    },
    /// A core blocks on a RECV until its tag is delivered.
    AwaitTag {
        /// Receiving core (reply address).
        core: ComponentId,
        /// Rendezvous tag.
        tag: Tag,
        /// The receiver's clock when it blocked, ns.
        since_ns: f64,
    },
    /// Rendezvous completion: the receiver resumes at the event time.
    RecvDone {
        /// Stall spent waiting for the matching send, ns.
        wait_ns: f64,
    },
    /// Partition barrier: shared resources reset their availability
    /// to the barrier time (matching the full-chip drain between
    /// partitions).
    Barrier,
    /// An interleaved stage drained: the rendezvous drops the stage's
    /// tag bucket (its receivers have all completed), keeping the
    /// delivered map bounded by the stages in flight instead of
    /// growing for the whole run.
    RetireStage {
        /// The stage's tag-space bucket (its graph node id).
        stage: u64,
    },
    /// The closed-loop controllers' FR-FCFS drain: serves every access
    /// latched at the current instant together.
    DramDrain,
    /// Closed-loop timing: one blocking block access reaches the
    /// multi-channel controllers. The requesting core's `MemDone` is
    /// scheduled at the access's completion time, so the DRAM model
    /// owns the critical path.
    DramAccess {
        /// Requesting core (reply address).
        core: ComponentId,
        /// Starting byte address (from the channel's bump allocators).
        addr: u64,
        /// Read or write.
        kind: RequestKind,
        /// Block size.
        bytes: usize,
        /// Row-friendly chunk granularity the stream is split at (the
        /// same chunking the analytic-mode energy refinement uses).
        chunk: u32,
    },
    /// The request source's self-tick: one open-loop request arrives
    /// at the event time (the source forwards it to the buffer and
    /// schedules its next arrival).
    Arrival,
    /// One inference request lands in the request buffer; the event
    /// time is its arrival instant.
    NewRequest,
    /// The request source has emitted its last arrival: the buffer may
    /// flush partial batches once capacity allows.
    SourceDrained,
    /// A batch-formation deadline fired. Stale timers (the batch was
    /// already cut) carry an old `generation` and are ignored.
    FlushDeadline {
        /// The buffer's batch generation the timer was armed for.
        generation: u64,
    },
    /// The dispatcher admitted one more batch: every active sequencer
    /// appends one round to its live stage graph.
    AppendRound,
    /// A sequencer finished the last partition of a round — service
    /// feedback for the buffer's admission control.
    RoundDone {
        /// The reporting chip.
        chip: usize,
    },
}

// The event queue moves whole events on every push, bucket sort and pop.
const _: () = assert!(std::mem::size_of::<ChipEvent>() <= 32);

/// Per-core timing parameters copied out of the [`ChipSpec`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreTiming {
    mvm_latency_ns: f64,
    vfu_rate: f64,
    full_write_latency_ns: f64,
}

impl CoreTiming {
    pub(crate) fn of(chip: &ChipSpec) -> Self {
        Self {
            mvm_latency_ns: chip.crossbar.mvm_latency_ns,
            vfu_rate: chip.core.vfu_throughput_per_ns(),
            full_write_latency_ns: chip.crossbar.full_write_latency_ns(),
        }
    }
}

/// Program tags must stay below the stage-offset bits the cores add on
/// the wire (bits 48 and up carry the stage id under interleaving).
pub(crate) const MAX_PROGRAM_TAG: u64 = 1 << 48;

/// One core stepping through its instruction stream.
pub(crate) struct CoreComponent {
    /// The partition's stream for this core, shared with every other
    /// stage that runs it.
    program: Rc<[Instruction]>,
    pc: usize,
    /// The core's clock, ns (updated from event times only).
    pub(crate) clock_ns: f64,
    pub(crate) activity: CoreActivity,
    pub(crate) replace_done_ns: f64,
    /// The tag this core is blocked on (deadlock diagnostics).
    pub(crate) blocked: Option<Tag>,
    pub(crate) finished: bool,
    timing: CoreTiming,
    channel: ComponentId,
    bus: ComponentId,
    rendezvous: ComponentId,
    /// The chip sequencer notified (with the final accounting) when
    /// the stream is exhausted.
    monitor: ComponentId,
    core_index: usize,
    /// The `(batch, partition)` stage node this core executes.
    stage: usize,
    /// Added to every SEND/RECV tag on the wire, isolating the
    /// rendezvous tag space of stages that overlap under interleaving
    /// (zero in barrier mode, where the per-stage barrier clears the
    /// rendezvous anyway).
    tag_offset: u64,
}

impl CoreComponent {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: Rc<[Instruction]>,
        start: SimTime,
        timing: CoreTiming,
        channel: ComponentId,
        bus: ComponentId,
        rendezvous: ComponentId,
        monitor: ComponentId,
        core_index: usize,
        stage: usize,
        tag_offset: u64,
    ) -> Self {
        Self {
            program,
            pc: 0,
            clock_ns: start.as_ns(),
            activity: CoreActivity::default(),
            replace_done_ns: start.as_ns(),
            blocked: None,
            finished: false,
            timing,
            channel,
            bus,
            rendezvous,
            monitor,
            core_index,
            stage,
            tag_offset,
        }
    }

    /// The on-the-wire tag: the program's tag shifted into this
    /// stage's private tag space. `SystemSimulator::validate` rejects
    /// program tags that reach the stage-offset bits before a run
    /// starts, so tags of overlapping stages never alias.
    fn wire_tag(&self, tag: Tag) -> Tag {
        debug_assert!(tag.0 < MAX_PROGRAM_TAG, "program tag {tag} reaches the stage-offset bits");
        Tag(tag.0 + self.tag_offset)
    }

    /// Issues the instruction at `pc`: local ops schedule the next
    /// `Step` on this core; shared-resource ops send a request and
    /// park until the reply event.
    fn issue(&mut self, me: ComponentId, ctx: &mut EngineCtx<'_, ChipEvent>) {
        let Some(&instr) = self.program.get(self.pc) else {
            self.finished = true;
            return;
        };
        let now = ctx.now();
        match instr {
            Instruction::LoadWeight { bytes } => {
                ctx.schedule(
                    now,
                    self.channel,
                    ChipEvent::MemRequest {
                        core: me,
                        bytes,
                        kind: RequestKind::Read,
                        weight: true,
                    },
                );
            }
            Instruction::LoadData { bytes } => {
                ctx.schedule(
                    now,
                    self.channel,
                    ChipEvent::MemRequest {
                        core: me,
                        bytes,
                        kind: RequestKind::Read,
                        weight: false,
                    },
                );
            }
            Instruction::StoreData { bytes } => {
                ctx.schedule(
                    now,
                    self.channel,
                    ChipEvent::MemRequest {
                        core: me,
                        bytes,
                        kind: RequestKind::Write,
                        weight: false,
                    },
                );
            }
            Instruction::WriteWeight { crossbars, .. } => {
                // Crossbars within a core write sequentially.
                let dur = crossbars as f64 * self.timing.full_write_latency_ns;
                self.activity.write_ns += dur;
                self.replace_done_ns = self.replace_done_ns.max(self.clock_ns + dur);
                self.pc += 1;
                ctx.schedule(now.advance(dur), me, ChipEvent::Step);
            }
            Instruction::Mvmul { waves, .. } => {
                let dur = waves as f64 * self.timing.mvm_latency_ns;
                self.activity.mvm_ns += dur;
                self.pc += 1;
                ctx.schedule(now.advance(dur), me, ChipEvent::Step);
            }
            Instruction::VectorOp { elements, .. } => {
                let dur = elements as f64 / self.timing.vfu_rate;
                self.activity.vfu_ns += dur;
                self.pc += 1;
                ctx.schedule(now.advance(dur), me, ChipEvent::Step);
            }
            Instruction::Send { bytes, tag, .. } => {
                let tag = self.wire_tag(tag);
                ctx.schedule(now, self.bus, ChipEvent::BusRequest { core: me, bytes, tag });
            }
            Instruction::Recv { tag, .. } => {
                // Diagnostics keep the program's tag; the wire carries
                // the stage-offset one.
                self.blocked = Some(tag);
                let tag = self.wire_tag(tag);
                ctx.schedule(
                    now,
                    self.rendezvous,
                    ChipEvent::AwaitTag { core: me, tag, since_ns: self.clock_ns },
                );
            }
        }
    }
}

impl Component<ChipEvent> for CoreComponent {
    fn on_event(&mut self, event: Event<ChipEvent>, ctx: &mut EngineCtx<'_, ChipEvent>) {
        self.clock_ns = event.time.as_ns();
        match event.payload {
            ChipEvent::Step => {}
            ChipEvent::MemDone { wait_ns, busy_ns } => {
                self.activity.dram_wait_ns += wait_ns;
                self.activity.dram_ns += busy_ns;
                self.pc += 1;
            }
            ChipEvent::BusDone { occupancy_ns } => {
                self.activity.send_ns += occupancy_ns;
                self.pc += 1;
            }
            ChipEvent::RecvDone { wait_ns } => {
                self.activity.recv_wait_ns += wait_ns;
                self.blocked = None;
                self.pc += 1;
            }
            other => unreachable!("core received {other:?}"),
        }
        self.issue(event.target, ctx);
        if self.finished {
            // The clock equals the event time here: local ops only
            // advance it through future Step events.
            ctx.schedule(
                event.time,
                self.monitor,
                ChipEvent::CoreDone {
                    stage: self.stage,
                    core_index: self.core_index,
                    accounting: Box::new((self.activity, self.replace_done_ns)),
                },
            );
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Chunk sizes for the DRAM request stream, reproducing the
/// row-buffer locality of bulk weight streams vs scattered
/// activations.
const WEIGHT_CHUNK: usize = 1 << 20;
const ACTIVATION_CHUNK: usize = 64 << 10;

/// Splits a block transfer into the row-friendly chunks both timing
/// modes feed their DRAM models, all issued at `issue_ns`.
fn chunks(
    issue_ns: f64,
    addr: u64,
    kind: RequestKind,
    bytes: usize,
    chunk: usize,
) -> impl Iterator<Item = Request> {
    (0..bytes).step_by(chunk).map(move |offset| {
        Request::at_ns(issue_ns, addr + offset as u64, kind, chunk.min(bytes - offset))
    })
}

/// Where the memory channel's transfers go besides its own timing.
pub(crate) enum DramPort {
    /// Analytic timing without a DRAM model.
    Off,
    /// Analytic timing: the in-line LPDDR3 model refines energy from
    /// the channel's request stream. Chip timing is not affected.
    Inline(Box<DramSimulator>),
    /// Closed-loop timing: the multi-channel controllers own each
    /// access's completion time.
    ClosedLoop(ComponentId),
}

/// The single global-memory channel port. In `Analytic` timing mode it
/// serializes block transfers itself (bandwidth + first-access latency)
/// and feeds the request stream to the in-line DRAM model for energy
/// refinement; in `ClosedLoop` mode it only assigns addresses and hands
/// each blocking access to the multi-channel controllers, which own the
/// completion time.
pub(crate) struct MemChannel {
    free_ns: f64,
    bandwidth_gbps: f64,
    access_latency_ns: f64,
    /// Bump allocators giving weights and activations disjoint
    /// sequential regions.
    weight_addr: u64,
    activation_addr: u64,
    /// The request stream in chunks and bytes; in analytic mode with
    /// the in-line model, `stats.requests` is also the number of
    /// chunks the model served.
    pub(crate) stats: TraceStats,
    pub(crate) dram: DramPort,
}

impl MemChannel {
    pub(crate) fn new(chip: &ChipSpec, dram: DramPort) -> Self {
        Self {
            free_ns: 0.0,
            bandwidth_gbps: chip.memory.bandwidth_gbps,
            access_latency_ns: chip.memory.access_latency_ns,
            weight_addr: 0,
            activation_addr: 1 << 32,
            stats: TraceStats::default(),
            dram,
        }
    }
}

impl Component<ChipEvent> for MemChannel {
    fn on_event(&mut self, event: Event<ChipEvent>, ctx: &mut EngineCtx<'_, ChipEvent>) {
        match event.payload {
            ChipEvent::Barrier => {
                self.free_ns = event.time.as_ns();
            }
            ChipEvent::MemRequest { core, bytes, kind, weight } => {
                let now = event.time.as_ns();
                let (addr, chunk) = if weight {
                    (&mut self.weight_addr, WEIGHT_CHUNK)
                } else {
                    (&mut self.activation_addr, ACTIVATION_CHUNK)
                };
                let base = *addr;
                *addr += bytes as u64;
                // The chunk count is mode-independent, so both timing
                // modes report the same request stream.
                self.stats.requests += bytes.div_ceil(chunk);
                match kind {
                    RequestKind::Read => self.stats.read_bytes += bytes,
                    RequestKind::Write => self.stats.write_bytes += bytes,
                }

                let inline = match &mut self.dram {
                    DramPort::ClosedLoop(dram) => {
                        // Closed loop: the controllers decide when this
                        // access completes; the core's MemDone comes
                        // from them, not from the analytic channel
                        // equation.
                        let chunk = chunk as u32;
                        let access = ChipEvent::DramAccess { core, addr: base, kind, bytes, chunk };
                        ctx.schedule(event.time, *dram, access);
                        return;
                    }
                    DramPort::Inline(dram) => Some(dram),
                    DramPort::Off => None,
                };

                let start = now.max(self.free_ns);
                let stream_ns = bytes as f64 / self.bandwidth_gbps;
                let dur = self.access_latency_ns + stream_ns;
                self.free_ns = start + stream_ns;

                // Feed the transfer to the in-line DRAM model in
                // row-friendly chunks, all issued at the grant time, and
                // serve them at once. This is exactly the request stream
                // and service order of the model run as its own engine
                // component that drains each instant's arrivals:
                // - a channel's grant times strictly increase for
                //   non-zero transfers: `free_ns` only rises, and a
                //   `Barrier` resets it to a time after every earlier
                //   grant (it fires once the previous stage's cores have
                //   all received their `MemDone`s, each later than its
                //   grant). So each instant's drain serves exactly one
                //   transfer's chunks, in grant order;
                // - the DRAM model reads the chunks' issue times, never
                //   engine time;
                // - dropping the model's own events renumbers sequence
                //   ids but keeps the `(time, seq)` order of every
                //   remaining event.
                if let Some(dram) = inline {
                    for request in chunks(start, base, kind, bytes, chunk) {
                        dram.enqueue(request);
                    }
                    dram.service_pending_with(|_| {});
                }

                ctx.schedule(
                    SimTime::from_ns(start + dur),
                    core,
                    ChipEvent::MemDone { wait_ns: start - now, busy_ns: dur },
                );
            }
            other => unreachable!("memory channel received {other:?}"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The shared arbitrated core-to-core bus.
pub(crate) struct BusComponent {
    free_ns: f64,
    spec: InterconnectSpec,
    rendezvous: ComponentId,
}

impl BusComponent {
    pub(crate) fn new(chip: &ChipSpec, rendezvous: ComponentId) -> Self {
        Self { free_ns: 0.0, spec: chip.interconnect, rendezvous }
    }
}

impl Component<ChipEvent> for BusComponent {
    fn on_event(&mut self, event: Event<ChipEvent>, ctx: &mut EngineCtx<'_, ChipEvent>) {
        match event.payload {
            ChipEvent::Barrier => {
                self.free_ns = event.time.as_ns();
            }
            ChipEvent::BusRequest { core, bytes, tag } => {
                let now = event.time.as_ns();
                let start = now.max(self.free_ns);
                let granted = start + self.spec.arbitration_ns;
                let done = granted + self.spec.transfer_ns(bytes);
                self.free_ns = done;
                // Delivery is announced immediately; the data lands at
                // `done`.
                ctx.schedule(event.time, self.rendezvous, ChipEvent::Deliver { tag, at_ns: done });
                // Buffered send: the sender only pays arbitration.
                ctx.schedule(
                    SimTime::from_ns(granted),
                    core,
                    ChipEvent::BusDone { occupancy_ns: granted - now },
                );
            }
            other => unreachable!("bus received {other:?}"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// SEND/RECV tag matching. A tag may have several blocked receivers
/// (e.g. a broadcast-style schedule); all of them wake on delivery, in
/// the order they blocked. Deliveries are bucketed by the tag's
/// stage-offset bits so an interleaved stage's whole tag space can be
/// retired in O(1) when the stage drains (barrier mode clears
/// everything at each stage boundary instead). The maps hash with Fx,
/// not SipHash: tags are small integers, and colliding tags could only
/// slow a run, never change its result.
#[derive(Default)]
pub(crate) struct Rendezvous {
    /// `delivered[stage bucket][tag]` — delivery instant, ns.
    pub(crate) delivered: FxHashMap<u64, FxHashMap<Tag, f64>>,
    /// Blocked receivers `(tag, core, since_ns)`, in the order they
    /// blocked. At most one entry per live core, so a scan beats a map
    /// of per-tag lists.
    waiting: Vec<(Tag, ComponentId, f64)>,
}

/// The stage bucket a wire tag belongs to (the high offset bits the
/// cores stamp in interleaved mode; bucket 0 in barrier mode).
fn tag_bucket(tag: Tag) -> u64 {
    tag.0 >> 48
}

/// Resumes a receiver that blocked at `since_ns` on a transfer whose
/// data lands at `at_ns`.
fn recv_done(core: ComponentId, since_ns: f64, at_ns: f64, ctx: &mut EngineCtx<'_, ChipEvent>) {
    let resume = since_ns.max(at_ns);
    let wait_ns = (at_ns - since_ns).max(0.0);
    ctx.schedule(SimTime::from_ns(resume), core, ChipEvent::RecvDone { wait_ns });
}

impl Component<ChipEvent> for Rendezvous {
    fn on_event(&mut self, event: Event<ChipEvent>, ctx: &mut EngineCtx<'_, ChipEvent>) {
        match event.payload {
            ChipEvent::Barrier => {
                self.delivered.clear();
                debug_assert!(self.waiting.is_empty(), "barrier with blocked receivers");
            }
            ChipEvent::RetireStage { stage } => {
                self.delivered.remove(&stage);
            }
            ChipEvent::Deliver { tag, at_ns } => {
                self.delivered.entry(tag_bucket(tag)).or_default().insert(tag, at_ns);
                self.waiting.retain(|&(waiting_on, core, since_ns)| {
                    let wake = waiting_on == tag;
                    if wake {
                        recv_done(core, since_ns, at_ns, ctx);
                    }
                    !wake
                });
            }
            ChipEvent::AwaitTag { core, tag, since_ns } => {
                match self.delivered.get(&tag_bucket(tag)).and_then(|b| b.get(&tag)) {
                    Some(&at_ns) => recv_done(core, since_ns, at_ns, ctx),
                    None => self.waiting.push((tag, core, since_ns)),
                }
            }
            other => unreachable!("rendezvous received {other:?}"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The closed-loop multi-channel DRAM: every `DramAccess` is striped
/// across the in-line LPDDR3 controllers as its event arrives (cores
/// block, so arrival order is service order), and the requesting core's
/// `MemDone` fires at the slowest stripe's completion. Bank conflicts,
/// row hits/misses, refresh, and channel interleaving therefore shape
/// the chip's critical path directly.
///
/// With `fr_fcfs` enabled, same-instant accesses from independent
/// cores are latched and drained together, and their chunks are served
/// through the controllers' row-hit-preferring FR-FCFS pick
/// ([`MultiChannelDram::service_batch`]) instead of strictly at
/// arrival order. Off by default: arrival-order service is the
/// documented (and golden-pinned) closed-loop behaviour.
pub(crate) struct ClosedLoopDram {
    pub(crate) mem: MultiChannelDram,
    pub(crate) requests: usize,
    fr_fcfs: bool,
    pending: Vec<PendingAccess>,
    latch: DrainLatch,
}

/// Coalesces same-instant arrivals into a single drain event, so
/// every access that lands at one timestamp is visible to the FR-FCFS
/// pick before any of them is served.
#[derive(Default)]
pub(crate) struct DrainLatch(bool);

impl DrainLatch {
    /// Marks an arrival; returns `true` when the caller must schedule
    /// a drain at the current instant (the first arrival of a batch).
    fn arm(&mut self) -> bool {
        !std::mem::replace(&mut self.0, true)
    }

    /// Clears the latch when the drain fires.
    fn release(&mut self) {
        self.0 = false;
    }
}

/// One latched closed-loop access awaiting the FR-FCFS drain.
struct PendingAccess {
    core: ComponentId,
    addr: u64,
    kind: RequestKind,
    bytes: usize,
    chunk: usize,
}

impl ClosedLoopDram {
    pub(crate) fn new(channels: usize, interleave_bytes: usize, fr_fcfs: bool) -> Self {
        let mem = MultiChannelDram::new(DramConfig::lpddr3_1600(), channels, interleave_bytes)
            .expect("simulator builder guarantees at least one channel");
        Self { mem, requests: 0, fr_fcfs, pending: Vec::new(), latch: DrainLatch::default() }
    }

    /// Completes one access: schedules the requesting core's `MemDone`
    /// at the slowest chunk's completion.
    fn complete(
        core: ComponentId,
        now: f64,
        start_ns: f64,
        finish_ns: f64,
        ctx: &mut EngineCtx<'_, ChipEvent>,
    ) {
        let start_ns = if start_ns.is_finite() { start_ns } else { now };
        ctx.schedule(
            SimTime::from_ns(finish_ns),
            core,
            ChipEvent::MemDone {
                wait_ns: (start_ns - now).max(0.0),
                busy_ns: finish_ns - start_ns.max(now),
            },
        );
    }
}

impl Component<ChipEvent> for ClosedLoopDram {
    fn on_event(&mut self, event: Event<ChipEvent>, ctx: &mut EngineCtx<'_, ChipEvent>) {
        match event.payload {
            ChipEvent::DramAccess { core, addr, kind, bytes, chunk } => {
                let access = PendingAccess { core, addr, kind, bytes, chunk: chunk as usize };
                if self.fr_fcfs {
                    // Batch same-instant arrivals behind the latch so
                    // independent cores' chunks reach the FR-FCFS pick
                    // together.
                    self.pending.push(access);
                    if self.latch.arm() {
                        ctx.schedule(event.time, event.target, ChipEvent::DramDrain);
                    }
                    return;
                }
                let now = event.time.as_ns();
                // Serve the block in the same row-friendly chunks the
                // analytic-mode refinement streams, so both modes see
                // an identical request stream; the access completes
                // when its slowest chunk's data lands.
                let mut start_ns = f64::INFINITY;
                let mut finish_ns = now;
                for request in chunks(now, access.addr, access.kind, access.bytes, access.chunk) {
                    let served = self.mem.service(request);
                    start_ns = start_ns.min(served.start_ns);
                    finish_ns = finish_ns.max(served.finish_ns);
                    self.requests += 1;
                }
                Self::complete(core, now, start_ns, finish_ns, ctx);
            }
            ChipEvent::DramDrain => {
                self.latch.release();
                let now = event.time.as_ns();
                let batch = std::mem::take(&mut self.pending);
                let mut requests = Vec::new();
                let mut spans = Vec::with_capacity(batch.len());
                for &PendingAccess { addr, kind, bytes, chunk, .. } in &batch {
                    let from = requests.len();
                    requests.extend(chunks(now, addr, kind, bytes, chunk));
                    spans.push((from, requests.len()));
                }
                self.requests += requests.len();
                let served = self.mem.service_batch(&requests);
                for (access, &(from, to)) in batch.iter().zip(&spans) {
                    let mut start_ns = f64::INFINITY;
                    let mut finish_ns = now;
                    for chunk in &served[from..to] {
                        start_ns = start_ns.min(chunk.start_ns);
                        finish_ns = finish_ns.max(chunk.finish_ns);
                    }
                    Self::complete(access.core, now, start_ns, finish_ns, ctx);
                }
            }
            ChipEvent::Barrier => {}
            other => unreachable!("closed-loop dram received {other:?}"),
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_engine::Engine;
    use std::cell::RefCell;

    /// Wake-ups the receivers saw: `(receiver, resume time, wait)`.
    type Log = Rc<RefCell<Vec<(usize, f64, f64)>>>;

    /// A stand-in core that logs every `RecvDone` it is sent.
    struct Receiver(Log);

    impl Component<ChipEvent> for Receiver {
        fn on_event(&mut self, event: Event<ChipEvent>, _: &mut EngineCtx<'_, ChipEvent>) {
            let ChipEvent::RecvDone { wait_ns } = event.payload else {
                unreachable!("receiver got {:?}", event.payload)
            };
            self.0.borrow_mut().push((event.target.0, event.time.as_ns(), wait_ns));
        }

        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    /// A rendezvous at id 0 and `receivers` logging cores at ids 1...
    fn tiny_engine(receivers: usize) -> (Engine<ChipEvent>, Log) {
        let log = Log::default();
        let mut engine = Engine::new(0);
        engine.add_component(Rendezvous::default());
        for _ in 0..receivers {
            engine.add_component(Receiver(Rc::clone(&log)));
        }
        (engine, log)
    }

    const RENDEZVOUS: ComponentId = ComponentId(0);

    fn at(ns: f64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn await_tag(core: usize, tag: u64, since_ns: f64) -> ChipEvent {
        ChipEvent::AwaitTag { core: ComponentId(core), tag: Tag(tag), since_ns }
    }

    #[test]
    fn rendezvous_wakes_receivers_in_blocking_order_and_serves_late_ones() {
        let (mut engine, log) = tiny_engine(5);
        // Receivers 3, 1 and 2 block on tag 7, receiver 4 on tag 8.
        engine.schedule(at(1.0), RENDEZVOUS, await_tag(3, 7, 1.0));
        engine.schedule(at(2.0), RENDEZVOUS, await_tag(1, 7, 2.0));
        engine.schedule(at(2.0), RENDEZVOUS, await_tag(4, 8, 2.0));
        engine.schedule(at(3.0), RENDEZVOUS, await_tag(2, 7, 3.0));
        engine.schedule(at(5.0), RENDEZVOUS, ChipEvent::Deliver { tag: Tag(7), at_ns: 9.0 });
        // After the delivery: one receiver before the data lands, one
        // after.
        engine.schedule(at(6.0), RENDEZVOUS, await_tag(5, 7, 6.0));
        engine.schedule(at(12.0), RENDEZVOUS, await_tag(5, 7, 12.0));
        engine.schedule(at(20.0), RENDEZVOUS, ChipEvent::Deliver { tag: Tag(8), at_ns: 21.0 });
        engine.run_until_idle();
        // Every receiver resumes at max(since, at) and waits
        // max(at - since, 0), whether it blocked before the Deliver or
        // arrived after it; tag 7's receivers wake in blocking order.
        let woken = log.borrow().clone();
        assert_eq!(
            woken,
            [
                (3, 9.0, 8.0),
                (1, 9.0, 7.0),
                (2, 9.0, 6.0),
                (5, 9.0, 3.0),
                (5, 12.0, 0.0),
                (4, 21.0, 19.0)
            ]
        );
    }

    #[test]
    fn barrier_clears_and_retire_drops_only_its_own_bucket() {
        let (mut engine, _) = tiny_engine(0);
        for stage in [1u64, 2] {
            for tag in [7u64, 9] {
                let tag = Tag((stage << 48) + tag);
                engine.schedule(at(1.0), RENDEZVOUS, ChipEvent::Deliver { tag, at_ns: 4.0 });
            }
        }
        engine.schedule(at(2.0), RENDEZVOUS, ChipEvent::RetireStage { stage: 1 });
        engine.run_until_idle();
        let rendezvous: Rendezvous = engine.extract(RENDEZVOUS).expect("rendezvous");
        let buckets: Vec<(u64, usize)> =
            rendezvous.delivered.iter().map(|(&stage, tags)| (stage, tags.len())).collect();
        assert_eq!(buckets, [(2, 2)], "only stage 1's bucket is retired");

        let (mut engine, _) = tiny_engine(0);
        engine.schedule(at(1.0), RENDEZVOUS, ChipEvent::Deliver { tag: Tag(7), at_ns: 4.0 });
        engine.schedule(at(2.0), RENDEZVOUS, ChipEvent::Barrier);
        engine.run_until_idle();
        let rendezvous: Rendezvous = engine.extract(RENDEZVOUS).expect("rendezvous");
        assert!(rendezvous.delivered.is_empty(), "a barrier forgets every delivery");
    }
}
