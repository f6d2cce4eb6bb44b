//! The chip simulator's engine components, shared resources and event
//! protocol.
//!
//! A chip is two kinds of [`pim_engine::Component`]: the per-core
//! sequencers, and one chip sequencer (in `system.rs`) that owns the
//! chip's shared hardware as plain state — the global-memory channel,
//! the arbitrated core-to-core bus and the SEND/RECV rendezvous. Cores
//! address every shared-resource request to their chip and resume on
//! the reply [`ChipEvent`], so simulated time advances exclusively
//! through the engine's `(time, sequence)`-ordered queue. Neither
//! LPDDR3 model is a component: the channel serves the analytic mode's
//! energy model and the closed-loop multi-channel controllers in line,
//! since both read issue times, never engine time.

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
    /// Starts a chip sequencer's first round, or the request buffer's
    /// arrival stream (scheduled once per component at simulation
    /// start).
    Kick,
    /// A core's stream is exhausted; the event time is the core's
    /// final clock. Carries the core's accounting so the sequencer
    /// never has to reach into a live component.
    CoreDone {
        /// The id `b·P + p` of the `(batch, partition)` stage the core
        /// belongs to (several stages may be in flight under
        /// interleaving).
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
    /// A core asks its chip's global-memory channel for a transfer.
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
    /// A core asks its chip's bus to carry a SEND.
    BusRequest {
        /// Sending core (reply address).
        core: ComponentId,
        /// Payload size.
        bytes: usize,
        /// The sender's stage id.
        stage: u32,
        /// The program's rendezvous tag.
        tag: Tag,
    },
    /// Bus grant: the sender may proceed at the event time (buffered
    /// send — only arbitration is on the critical path).
    BusDone {
        /// Queueing + arbitration time charged to the sender, ns.
        occupancy_ns: f64,
    },
    /// A core blocks on a RECV until its tag is delivered to its chip's
    /// rendezvous.
    AwaitTag {
        /// Receiving core (reply address).
        core: ComponentId,
        /// The receiver's stage id.
        stage: u32,
        /// The program's rendezvous tag.
        tag: Tag,
        /// The receiver's clock when it blocked, ns.
        since_ns: f64,
    },
    /// Rendezvous completion: the receiver resumes at the event time.
    RecvDone {
        /// Stall spent waiting for the matching send, ns.
        wait_ns: f64,
    },
    /// One inference request lands in the request buffer; the event
    /// time is its arrival instant. The buffer schedules the stream's
    /// next arrival as it handles this one, and after the last it may
    /// flush partial batches once capacity allows.
    NewRequest,
    /// A batch-formation deadline fired. Stale timers (the batch was
    /// already cut) carry an old `generation` and are ignored.
    FlushDeadline {
        /// The buffer's batch generation the timer was armed for.
        generation: u64,
    },
    /// The dispatcher admitted one more batch: every active sequencer
    /// appends one round to its stage cursors.
    AppendRound,
    /// A sequencer finished the last partition of a round — service
    /// feedback for the buffer's admission control.
    RoundDone {
        /// The reporting chip.
        chip: usize,
    },
}

// The event queue moves whole events on every push, sorted insert and pop.
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
    /// The chip sequencer: it serves every shared-resource request and
    /// hears (with the final accounting) when the stream is exhausted.
    chip: ComponentId,
    core_index: usize,
    /// The id of the `(batch, partition)` stage this core executes; its
    /// SEND/RECVs match only within it.
    stage: u32,
}

impl CoreComponent {
    pub(crate) fn new(
        program: Rc<[Instruction]>,
        start: SimTime,
        timing: CoreTiming,
        chip: ComponentId,
        core_index: usize,
        stage: u32,
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
            chip,
            core_index,
            stage,
        }
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
                    self.chip,
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
                    self.chip,
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
                    self.chip,
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
                let stage = self.stage;
                ctx.schedule(now, self.chip, ChipEvent::BusRequest { core: me, bytes, stage, tag });
            }
            Instruction::Recv { tag, .. } => {
                self.blocked = Some(tag);
                ctx.schedule(
                    now,
                    self.chip,
                    ChipEvent::AwaitTag {
                        core: me,
                        stage: self.stage,
                        tag,
                        since_ns: self.clock_ns,
                    },
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
                self.chip,
                ChipEvent::CoreDone {
                    stage: self.stage as usize,
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

/// The closed-loop address-interleave granularity: two LPDDR3 rows per
/// stripe keeps sequential streams row-friendly while still spreading
/// blocks across channels.
const DEFAULT_INTERLEAVE_BYTES: usize = 4096;

/// Where the memory channel's transfers go besides its own timing.
pub(crate) enum DramPort {
    /// Analytic timing without a DRAM model.
    Off,
    /// Analytic timing: the in-line LPDDR3 model refines energy from
    /// the channel's request stream. Chip timing is not affected.
    Inline(Box<DramSimulator>),
    /// Closed-loop timing: the multi-channel controllers own each
    /// access's completion time.
    ClosedLoop(MultiChannelDram),
}

impl DramPort {
    /// Closed-loop controllers striped over `channels` LPDDR3 channels.
    pub(crate) fn closed_loop(channels: usize) -> Self {
        let mem =
            MultiChannelDram::new(DramConfig::lpddr3_1600(), channels, DEFAULT_INTERLEAVE_BYTES)
                .expect("simulator builder guarantees at least one channel");
        Self::ClosedLoop(mem)
    }
}

/// The single global-memory channel port. In `Analytic` timing mode it
/// serializes block transfers itself (bandwidth + first-access latency)
/// and feeds the request stream to the in-line DRAM model for energy
/// refinement; in `ClosedLoop` mode it stripes each blocking access
/// across the multi-channel controllers as the request arrives (cores
/// block, so arrival order is service order), and the access completes
/// when its slowest stripe does. Bank conflicts, row hits/misses,
/// refresh, and channel interleaving therefore shape the chip's
/// critical path directly.
pub(crate) struct MemChannel {
    free_ns: f64,
    bandwidth_gbps: f64,
    access_latency_ns: f64,
    /// Bump allocators giving weights and activations disjoint
    /// sequential regions.
    weight_addr: u64,
    activation_addr: u64,
    /// The request stream in chunks and bytes; with a DRAM model,
    /// `stats.requests` is also the number of chunks the model served.
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

    /// Partition barrier: the channel is free from `now_ns` on
    /// (matching the full-chip drain between partitions).
    pub(crate) fn barrier(&mut self, now_ns: f64) {
        self.free_ns = now_ns;
    }

    /// Serves one block transfer for `core` and schedules its
    /// `MemDone` at the transfer's completion.
    pub(crate) fn request(
        &mut self,
        core: ComponentId,
        bytes: usize,
        kind: RequestKind,
        weight: bool,
        ctx: &mut EngineCtx<'_, ChipEvent>,
    ) {
        let now = ctx.now().as_ns();
        let (addr, chunk) = if weight {
            (&mut self.weight_addr, WEIGHT_CHUNK)
        } else {
            (&mut self.activation_addr, ACTIVATION_CHUNK)
        };
        let base = *addr;
        *addr += bytes as u64;
        // The chunk count is mode-independent, so both timing modes
        // report the same request stream.
        self.stats.requests += bytes.div_ceil(chunk);
        match kind {
            RequestKind::Read => self.stats.read_bytes += bytes,
            RequestKind::Write => self.stats.write_bytes += bytes,
        }

        let inline = match &mut self.dram {
            DramPort::ClosedLoop(mem) => {
                // Closed loop: the controllers decide when this access
                // completes, not the analytic channel equation. The
                // block is served in the same row-friendly chunks the
                // analytic-mode refinement streams, so both modes see an
                // identical request stream; the access completes when
                // its slowest chunk's data lands.
                let mut start_ns = f64::INFINITY;
                let mut finish_ns = now;
                for request in chunks(now, base, kind, bytes, chunk) {
                    let served = mem.service(request);
                    start_ns = start_ns.min(served.start_ns);
                    finish_ns = finish_ns.max(served.finish_ns);
                }
                let start_ns = if start_ns.is_finite() { start_ns } else { now };
                ctx.schedule(
                    SimTime::from_ns(finish_ns),
                    core,
                    ChipEvent::MemDone {
                        wait_ns: (start_ns - now).max(0.0),
                        busy_ns: finish_ns - start_ns.max(now),
                    },
                );
                return;
            }
            DramPort::Inline(dram) => Some(dram),
            DramPort::Off => None,
        };

        let start = now.max(self.free_ns);
        let stream_ns = bytes as f64 / self.bandwidth_gbps;
        let dur = self.access_latency_ns + stream_ns;
        self.free_ns = start + stream_ns;

        // Feed the transfer to the in-line DRAM model in row-friendly
        // chunks, all issued at the grant time. The model reads issue
        // times, never engine time, so serving them here needs no event
        // of its own.
        if let Some(dram) = inline {
            for request in chunks(start, base, kind, bytes, chunk) {
                dram.service(request);
            }
        }

        ctx.schedule(
            SimTime::from_ns(start + dur),
            core,
            ChipEvent::MemDone { wait_ns: start - now, busy_ns: dur },
        );
    }
}

/// The shared arbitrated core-to-core bus.
pub(crate) struct Bus {
    free_ns: f64,
    spec: InterconnectSpec,
}

impl Bus {
    pub(crate) fn new(chip: &ChipSpec) -> Self {
        Self { free_ns: 0.0, spec: chip.interconnect }
    }

    /// Partition barrier: the bus is free from `now_ns` on.
    pub(crate) fn barrier(&mut self, now_ns: f64) {
        self.free_ns = now_ns;
    }

    /// Carries `core`'s SEND of `bytes` on `(stage, tag)`: the sender
    /// resumes after arbitration (buffered send — only arbitration is
    /// on the critical path), and the data lands in `rendezvous` when
    /// the transfer finishes. The sender's `BusDone` is scheduled
    /// before the receivers' wake-ups, so a wake-up at the grant instant
    /// fires after the sender resumes.
    pub(crate) fn send(
        &mut self,
        core: ComponentId,
        bytes: usize,
        stage: u32,
        tag: Tag,
        rendezvous: &mut Rendezvous,
        ctx: &mut EngineCtx<'_, ChipEvent>,
    ) {
        let now = ctx.now().as_ns();
        let start = now.max(self.free_ns);
        let granted = start + self.spec.arbitration_ns;
        let done = granted + self.spec.transfer_ns(bytes);
        self.free_ns = done;
        ctx.schedule(
            SimTime::from_ns(granted),
            core,
            ChipEvent::BusDone { occupancy_ns: granted - now },
        );
        rendezvous.deliver(stage, tag, done, |wake| wake.schedule(ctx));
    }
}

/// SEND/RECV matching by `(stage, tag)`: a RECV matches only a SEND of
/// its own stage, so stages that overlap under interleaving may reuse
/// the same program tags. A tag may have several blocked receivers
/// (e.g. a broadcast-style schedule); all of them wake on delivery, in
/// the order they blocked. Deliveries are grouped by stage, so a
/// drained stage's whole tag space is retired in O(1), and its cleared
/// map serves a later stage, so a run allocates and grows only as many
/// tag maps as it has stages in flight. The maps hash with Fx, not
/// SipHash: stages and tags are small integers, and colliding keys
/// could only slow a run, never change its result.
#[derive(Default)]
pub(crate) struct Rendezvous {
    /// `delivered[stage][tag]` — delivery instant, ns.
    pub(crate) delivered: FxHashMap<u32, FxHashMap<Tag, f64>>,
    /// Cleared tag maps of retired stages, capacity kept.
    spare: Vec<FxHashMap<Tag, f64>>,
    /// Blocked receivers `(stage, tag, core, since_ns)`, in the order
    /// they blocked. At most one entry per live core, so a scan beats
    /// a map of per-tag lists.
    waiting: Vec<(u32, Tag, ComponentId, f64)>,
}

/// A receiver's wake-up: `core` resumes at `resume_ns` after stalling
/// `wait_ns` for its matching send.
pub(crate) struct Wake {
    core: ComponentId,
    resume_ns: f64,
    wait_ns: f64,
}

impl Wake {
    /// The wake-up of a receiver that blocked at `since_ns` on a
    /// transfer whose data lands at `at_ns`.
    fn of(core: ComponentId, since_ns: f64, at_ns: f64) -> Self {
        Self { core, resume_ns: since_ns.max(at_ns), wait_ns: (at_ns - since_ns).max(0.0) }
    }

    /// Schedules the receiver's `RecvDone`.
    pub(crate) fn schedule(self, ctx: &mut EngineCtx<'_, ChipEvent>) {
        let done = ChipEvent::RecvDone { wait_ns: self.wait_ns };
        ctx.schedule(SimTime::from_ns(self.resume_ns), self.core, done);
    }
}

impl Rendezvous {
    /// Records that `(stage, tag)`'s data lands at `at_ns` and wakes
    /// every receiver blocked on it, in the order they blocked.
    pub(crate) fn deliver(&mut self, stage: u32, tag: Tag, at_ns: f64, mut wake: impl FnMut(Wake)) {
        let spare = &mut self.spare;
        let tags = self.delivered.entry(stage).or_insert_with(|| spare.pop().unwrap_or_default());
        tags.insert(tag, at_ns);
        self.waiting.retain(|&(waiting_in, waiting_on, core, since_ns)| {
            let matched = waiting_in == stage && waiting_on == tag;
            if matched {
                wake(Wake::of(core, since_ns, at_ns));
            }
            !matched
        });
    }

    /// `core` blocks at `since_ns` on `(stage, tag)`: it wakes at once
    /// if the tag was already delivered, else on the delivery.
    pub(crate) fn await_tag(
        &mut self,
        core: ComponentId,
        stage: u32,
        tag: Tag,
        since_ns: f64,
        wake: impl FnOnce(Wake),
    ) {
        match self.delivered.get(&stage).and_then(|tags| tags.get(&tag)) {
            Some(&at_ns) => wake(Wake::of(core, since_ns, at_ns)),
            None => self.waiting.push((stage, tag, core, since_ns)),
        }
    }

    /// Drops drained stage `stage`'s deliveries (its receivers have all
    /// completed), keeping the delivered map bounded by the stages in
    /// flight instead of growing for the whole run.
    pub(crate) fn retire(&mut self, stage: u32) {
        if let Some(mut tags) = self.delivered.remove(&stage) {
            tags.clear();
            self.spare.push(tags);
        }
        debug_assert!(
            self.waiting.iter().all(|&(waiting_in, ..)| waiting_in != stage),
            "stage {stage} retired with blocked receivers"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wake-ups the receivers saw: `(receiver, resume time, wait)`.
    type Log = Vec<(usize, f64, f64)>;

    fn log(log: &mut Log) -> impl FnMut(Wake) + '_ {
        |wake| log.push((wake.core.0, wake.resume_ns, wake.wait_ns))
    }

    /// Blocks `core` on `(stage, tag)` at `since_ns`.
    fn await_tag(
        rendezvous: &mut Rendezvous,
        woken: &mut Log,
        core: usize,
        stage: u32,
        tag: u64,
        since_ns: f64,
    ) {
        rendezvous.await_tag(ComponentId(core), stage, Tag(tag), since_ns, log(woken));
    }

    fn deliver(rendezvous: &mut Rendezvous, woken: &mut Log, stage: u32, tag: u64, at_ns: f64) {
        rendezvous.deliver(stage, Tag(tag), at_ns, log(woken));
    }

    /// The order the engine delivers the wake-ups' `RecvDone`s in: by
    /// resume time, ties in scheduling order.
    fn by_resume_time(mut woken: Log) -> Log {
        woken.sort_by(|a, b| a.1.total_cmp(&b.1));
        woken
    }

    #[test]
    fn rendezvous_wakes_receivers_in_blocking_order_and_serves_late_ones() {
        let mut rendezvous = Rendezvous::default();
        let mut woken = Log::new();
        // Receivers 3, 1 and 2 block on tag 7, receiver 4 on tag 8.
        await_tag(&mut rendezvous, &mut woken, 3, 0, 7, 1.0);
        await_tag(&mut rendezvous, &mut woken, 1, 0, 7, 2.0);
        await_tag(&mut rendezvous, &mut woken, 4, 0, 8, 2.0);
        await_tag(&mut rendezvous, &mut woken, 2, 0, 7, 3.0);
        assert!(woken.is_empty(), "nothing is delivered yet");
        deliver(&mut rendezvous, &mut woken, 0, 7, 9.0);
        // After the delivery: one receiver before the data lands, one
        // after.
        await_tag(&mut rendezvous, &mut woken, 5, 0, 7, 6.0);
        await_tag(&mut rendezvous, &mut woken, 5, 0, 7, 12.0);
        deliver(&mut rendezvous, &mut woken, 0, 8, 21.0);
        // Every receiver resumes at max(since, at) and waits
        // max(at - since, 0), whether it blocked before the delivery or
        // arrived after it; tag 7's receivers wake in blocking order.
        assert_eq!(
            by_resume_time(woken),
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
    fn overlapping_stages_match_only_their_own_sends() {
        // Stages 1 and 2 are in flight at once and both RECV on program
        // tag 7: each receiver wakes on its own stage's delivery only.
        let mut rendezvous = Rendezvous::default();
        let mut woken = Log::new();
        await_tag(&mut rendezvous, &mut woken, 1, 1, 7, 1.0);
        await_tag(&mut rendezvous, &mut woken, 2, 2, 7, 1.0);
        deliver(&mut rendezvous, &mut woken, 2, 7, 5.0);
        deliver(&mut rendezvous, &mut woken, 1, 7, 8.0);
        // A late receiver of stage 2 sees stage 2's delivery, not the
        // later one of stage 1.
        await_tag(&mut rendezvous, &mut woken, 3, 2, 7, 4.0);
        assert_eq!(by_resume_time(woken), [(2, 5.0, 4.0), (3, 5.0, 1.0), (1, 8.0, 7.0)]);
    }

    #[test]
    fn retire_drops_only_its_own_stage() {
        let mut rendezvous = Rendezvous::default();
        let mut woken = Log::new();
        for stage in [1u32, 2] {
            for tag in [7u64, 9] {
                deliver(&mut rendezvous, &mut woken, stage, tag, 4.0);
            }
        }
        rendezvous.retire(1);
        // A later stage's first delivery takes over the retired map.
        deliver(&mut rendezvous, &mut woken, 3, 9, 5.0);
        assert!(woken.is_empty(), "no receiver was blocked");
        let mut stages: Vec<(u32, usize)> =
            rendezvous.delivered.iter().map(|(&stage, tags)| (stage, tags.len())).collect();
        stages.sort_unstable();
        assert_eq!(stages, [(2, 2), (3, 1)], "only stage 1's deliveries are retired");
        assert!(rendezvous.spare.is_empty(), "stage 3 reused stage 1's map");
    }
}
