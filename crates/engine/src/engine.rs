//! The engine: clock + event queue + component registry + RNG.

use crate::queue::{Event, EventQueue};
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::ComponentId;
use std::any::Any;

/// A simulation component: anything that owns state and reacts to
/// events addressed to it (a core, a bus, a memory controller, ...).
///
/// Components communicate exclusively by scheduling events through
/// the [`EngineCtx`] they are handed — never by calling each other
/// directly — which is what makes the simulation composable and the
/// event order the single source of truth for time.
pub trait Component<E>: Any {
    /// Reacts to one event addressed to this component.
    fn on_event(&mut self, event: Event<E>, ctx: &mut EngineCtx<'_, E>);

    /// Upcast for post-run state extraction via
    /// [`Engine::extract`]. Implementations are always `self`.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// Cold panic helpers: the schedule calls sit on the simulator's
/// hottest path, and inlining `panic!` format machinery there costs
/// registers and icache on every call. The checks stay (a past event
/// is a simulator bug that must fail loudly in every build); only the
/// formatting is moved out of line.
#[cold]
#[inline(never)]
fn past_schedule_panic(time: SimTime, now: SimTime) -> ! {
    panic!("cannot schedule into the past: {time} < {now}");
}

#[cold]
#[inline(never)]
fn past_delay_panic(delay_ns: f64) -> ! {
    panic!("cannot schedule into the past: delay {delay_ns} ns");
}

#[cold]
#[inline(never)]
fn missing_component_panic() -> ! {
    panic!("event addressed to missing component");
}

#[cold]
#[inline(never)]
fn backwards_queue_panic() -> ! {
    panic!("event queue went backwards");
}

/// The slice of engine state a component may touch while handling an
/// event: the clock, the queue, the seeded RNG, and the spawn list
/// (for registering new components — never for reaching into a peer).
pub struct EngineCtx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut SimRng,
    /// Components spawned during the current dispatch; the engine
    /// folds them into the registry right after the handler returns,
    /// so the dispatched component itself never has to leave its slot.
    spawned: &'a mut Vec<Box<dyn Component<E>>>,
    /// Number of components already in the registry (spawn ids start
    /// here + the spawn list length).
    registered: usize,
}

impl<E: 'static> EngineCtx<'_, E> {
    /// Registers a new component mid-run, returning its address.
    /// Orchestrator components use this to spawn workers whose start
    /// time is only known dynamically (e.g. a chip sequencer spawning
    /// its cores when a pipeline stage's inputs arrive).
    pub fn add_component<C: Component<E>>(&mut self, component: C) -> ComponentId {
        let id = ComponentId(self.registered + self.spawned.len());
        self.spawned.push(Box::new(component));
        id
    }
}

impl<E> EngineCtx<'_, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` for `target` at absolute `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the clock (events cannot fire
    /// in the past).
    #[inline]
    pub fn schedule(&mut self, time: SimTime, target: ComponentId, payload: E) {
        if time < self.now {
            past_schedule_panic(time, self.now);
        }
        self.queue.push(time, target, payload);
    }

    /// Schedules `payload` for `target` after `delay_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `delay_ns` is negative or non-finite (events cannot
    /// fire in the past).
    #[inline]
    pub fn schedule_in(&mut self, delay_ns: f64, target: ComponentId, payload: E) {
        // NaN must panic too, so order the comparison to catch it.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(delay_ns >= 0.0) {
            past_delay_panic(delay_ns);
        }
        let time = self.now.advance(delay_ns);
        self.queue.push(time, target, payload);
    }

    /// The engine's seeded RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// A deterministic discrete-event simulation engine.
///
/// Events are processed in `(time, sequence)` order; the sequence id
/// is assigned at scheduling time, so two runs with the same seed and
/// the same component behaviour produce bit-identical histories.
///
/// Dispatch drains the queue one *instant* at a time: the instant's
/// first event comes from a full pop, the rest of the burst from
/// [`EventQueue::pop_at`] — O(1) pops off the queue's active bucket —
/// delivered in sequence order while the target components stay in
/// their registry slots. No per-event `Option::take`/put round-trip,
/// no per-event allocation, no intermediate batch buffer.
///
/// # Example
///
/// ```
/// use pim_engine::{Component, Engine, EngineCtx, Event, SimTime};
///
/// struct Counter {
///     fired: Vec<f64>,
/// }
///
/// impl Component<u32> for Counter {
///     fn on_event(&mut self, event: Event<u32>, ctx: &mut EngineCtx<'_, u32>) {
///         self.fired.push(event.time.as_ns());
///         if event.payload > 0 {
///             ctx.schedule_in(10.0, event.target, event.payload - 1);
///         }
///     }
///     fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
///         self
///     }
/// }
///
/// let mut engine = Engine::new(7);
/// let id = engine.add_component(Counter { fired: Vec::new() });
/// engine.schedule(SimTime::ZERO, id, 2);
/// engine.run_until_idle();
/// let counter: Counter = engine.extract(id).unwrap();
/// assert_eq!(counter.fired, vec![0.0, 10.0, 20.0]);
/// ```
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    components: Vec<Option<Box<dyn Component<E>>>>,
    /// Spawn list shared with dispatch (see [`EngineCtx`]); kept here
    /// so its allocation is reused across events.
    spawned: Vec<Box<dyn Component<E>>>,
    rng: SimRng,
    processed: u64,
}

impl<E: 'static> Engine<E> {
    /// Creates an idle engine whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            components: Vec::new(),
            spawned: Vec::new(),
            rng: SimRng::seed_from_u64(seed),
            processed: 0,
        }
    }

    /// Swaps the calendar queue for the retired binary-heap reference
    /// implementation (the seed-era queue, kept as an ordering
    /// oracle). Only meaningful on a fresh engine.
    ///
    /// # Panics
    ///
    /// Panics if events are already pending — the two queues must see
    /// the identical schedule from the start.
    #[cfg(any(test, feature = "reference-queue"))]
    pub fn use_reference_queue(&mut self) {
        assert!(self.queue.is_empty(), "switch queues before scheduling");
        self.queue = EventQueue::reference();
    }

    /// Pre-sizes the event queue for roughly `events` pending events —
    /// a hint, not a limit. Simulators that know their workload size
    /// call this once before scheduling to avoid growth reallocations
    /// on the hot path.
    pub fn reserve_events(&mut self, events: usize) {
        self.queue.reserve(events);
    }

    /// Registers a component, returning its address.
    pub fn add_component<C: Component<E>>(&mut self, component: C) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(Some(Box::new(component)));
        id
    }

    /// The address the next [`Self::add_component`] call will return.
    /// Lets wiring code hand a component the ids of peers that are
    /// registered right after it.
    pub fn next_component_id(&self) -> ComponentId {
        ComponentId(self.components.len())
    }

    /// Removes a component and downcasts it to its concrete type, for
    /// reading out final state after a run.
    ///
    /// Returns `None` if the slot is empty or the type does not
    /// match. A type mismatch is destructive: the component has
    /// already been removed and is dropped, so extract with the type
    /// the slot was registered with. (Use [`Self::component`] for a
    /// non-consuming, non-destructive probe.)
    pub fn extract<C: Component<E>>(&mut self, id: ComponentId) -> Option<C> {
        let slot = self.components.get_mut(id.0)?;
        let boxed = slot.take()?;
        match boxed.into_any().downcast::<C>() {
            Ok(c) => Some(*c),
            Err(_) => None,
        }
    }

    /// Borrows a registered component by concrete type.
    pub fn component<C: Component<E>>(&self, id: ComponentId) -> Option<&C> {
        let boxed = self.components.get(id.0)?.as_ref()?;
        (boxed.as_ref() as &dyn Any).downcast_ref::<C>()
    }

    /// The current simulation time (the timestamp of the most recent
    /// event, or the start time if nothing ran yet).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The engine's seeded RNG (for seeding initial state before a
    /// run).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules `payload` for `target` at absolute `time` from
    /// outside any component.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock.
    pub fn schedule(&mut self, time: SimTime, target: ComponentId, payload: E) {
        assert!(time >= self.now, "cannot schedule into the past");
        self.queue.push(time, target, payload);
    }

    /// Advances the clock to the next pending instant and dispatches
    /// every event scheduled at it — including events handlers
    /// schedule *at* the instant mid-drain — in sequence order.
    /// Returns the number of events processed, `0` when the queue is
    /// idle.
    ///
    /// The drain is zero-copy: the instant's first event comes from
    /// `pop`, the rest of the burst from [`EventQueue::pop_at`] (each
    /// an O(1) pop off the queue's active bucket), and the target
    /// components are dispatched in place — no per-event
    /// `Option::take`/put round-trip, no intermediate batch buffer.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses a component that was never
    /// registered or has been extracted.
    pub fn step(&mut self) -> u64 {
        let first = match self.queue.pop() {
            Some(event) => event,
            None => return 0,
        };
        let time = first.time;
        if time < self.now {
            backwards_queue_panic();
        }
        self.now = time;
        self.dispatch(first);
        let mut n = 1u64;
        while let Some(event) = self.queue.pop_at(time) {
            self.dispatch(event);
            n += 1;
        }
        self.processed += n;
        n
    }

    /// Delivers one event to its component in place, folding any
    /// mid-dispatch spawns into the registry afterwards.
    #[inline]
    fn dispatch(&mut self, event: Event<E>) {
        let registered = self.components.len();
        let component = match self.components.get_mut(event.target.0) {
            Some(Some(c)) => c,
            _ => missing_component_panic(),
        };
        let mut ctx = EngineCtx {
            now: self.now,
            queue: &mut self.queue,
            rng: &mut self.rng,
            spawned: &mut self.spawned,
            registered,
        };
        component.on_event(event, &mut ctx);
        if !self.spawned.is_empty() {
            self.components.extend(self.spawned.drain(..).map(Some));
        }
    }

    /// Dispatches events in `(time, seq)` order until the queue is
    /// empty, returning the number of events processed.
    ///
    /// # Panics
    ///
    /// As for [`Self::step`].
    pub fn run_until_idle(&mut self) -> u64 {
        let mut count = 0u64;
        loop {
            let n = self.step();
            if n == 0 {
                return count;
            }
            count += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two components ping-ponging a token a fixed number of times.
    struct Player {
        peer: Option<ComponentId>,
        log: Vec<(f64, u32)>,
    }

    impl Component<u32> for Player {
        fn on_event(&mut self, event: Event<u32>, ctx: &mut EngineCtx<'_, u32>) {
            self.log.push((event.time.as_ns(), event.payload));
            if event.payload > 0 {
                let peer = self.peer.expect("peer wired");
                ctx.schedule_in(2.5, peer, event.payload - 1);
            }
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    #[test]
    fn ping_pong_alternates_components() {
        let mut engine = Engine::new(0);
        // Ids are assigned sequentially, so peers can be wired ahead.
        let a = engine.add_component(Player { peer: Some(ComponentId(1)), log: Vec::new() });
        let b = engine.add_component(Player { peer: Some(ComponentId(0)), log: Vec::new() });
        assert!(engine.component::<Player>(a).is_some());

        engine.schedule(SimTime::ZERO, a, 4);
        let n = engine.run_until_idle();
        assert_eq!(n, 5);
        let pa: Player = engine.extract(a).unwrap();
        let pb: Player = engine.extract(b).unwrap();
        assert_eq!(pa.log, vec![(0.0, 4), (5.0, 2), (10.0, 0)]);
        assert_eq!(pb.log, vec![(2.5, 3), (7.5, 1)]);
        assert_eq!(engine.now(), SimTime::from_ns(10.0));
    }

    #[test]
    fn components_can_spawn_components_mid_run() {
        /// Spawns one child per event and forwards the countdown to it.
        struct Spawner;
        struct Child {
            heard: u32,
        }
        impl Component<u32> for Spawner {
            fn on_event(&mut self, event: Event<u32>, ctx: &mut EngineCtx<'_, u32>) {
                if event.payload > 0 {
                    let child = ctx.add_component(Child { heard: 0 });
                    ctx.schedule_in(1.0, child, event.payload);
                }
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        impl Component<u32> for Child {
            fn on_event(&mut self, event: Event<u32>, _: &mut EngineCtx<'_, u32>) {
                self.heard += event.payload;
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }

        let mut engine = Engine::new(0);
        let spawner = engine.add_component(Spawner);
        assert_eq!(engine.next_component_id(), ComponentId(1));
        engine.schedule(SimTime::ZERO, spawner, 7);
        engine.schedule(SimTime::from_ns(2.0), spawner, 9);
        engine.run_until_idle();
        let first: Child = engine.extract(ComponentId(1)).unwrap();
        let second: Child = engine.extract(ComponentId(2)).unwrap();
        assert_eq!(first.heard, 7);
        assert_eq!(second.heard, 9);
    }

    #[test]
    fn spawned_component_receives_same_instant_events() {
        // A spawn plus a zero-delay event to the child: the child must
        // be in the registry by the time the follow-up instant (same
        // timestamp, later sequence id) dispatches.
        struct Spawner;
        struct Child {
            heard: u32,
        }
        impl Component<u32> for Spawner {
            fn on_event(&mut self, event: Event<u32>, ctx: &mut EngineCtx<'_, u32>) {
                let child = ctx.add_component(Child { heard: 0 });
                ctx.schedule(event.time, child, event.payload);
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        impl Component<u32> for Child {
            fn on_event(&mut self, event: Event<u32>, _: &mut EngineCtx<'_, u32>) {
                self.heard += event.payload;
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut engine = Engine::new(0);
        let spawner = engine.add_component(Spawner);
        engine.schedule(SimTime::from_ns(5.0), spawner, 3);
        engine.run_until_idle();
        let child: Child = engine.extract(ComponentId(1)).unwrap();
        assert_eq!(child.heard, 3);
        assert_eq!(engine.now(), SimTime::from_ns(5.0));
    }

    #[test]
    fn clock_is_monotone_and_processed_counts() {
        struct Sink;
        impl Component<()> for Sink {
            fn on_event(&mut self, _: Event<()>, _: &mut EngineCtx<'_, ()>) {}
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut engine = Engine::new(1);
        let id = engine.add_component(Sink);
        for t in [5.0, 1.0, 3.0] {
            engine.schedule(SimTime::from_ns(t), id, ());
        }
        assert_eq!(engine.run_until_idle(), 3);
        assert_eq!(engine.processed(), 3);
        assert_eq!(engine.now(), SimTime::from_ns(5.0));
    }

    #[test]
    fn step_processes_one_instant_at_a_time() {
        struct Sink {
            seen: Vec<(f64, u32)>,
        }
        impl Component<u32> for Sink {
            fn on_event(&mut self, event: Event<u32>, _: &mut EngineCtx<'_, u32>) {
                self.seen.push((event.time.as_ns(), event.payload));
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut engine = Engine::new(0);
        let id = engine.add_component(Sink { seen: Vec::new() });
        engine.reserve_events(16);
        engine.schedule(SimTime::from_ns(1.0), id, 0);
        engine.schedule(SimTime::from_ns(1.0), id, 1);
        engine.schedule(SimTime::from_ns(2.0), id, 2);
        assert_eq!(engine.step(), 2, "both t=1 events in one step");
        assert_eq!(engine.now(), SimTime::from_ns(1.0));
        assert_eq!(engine.step(), 1);
        assert_eq!(engine.step(), 0);
        let sink: Sink = engine.extract(id).unwrap();
        assert_eq!(sink.seen, vec![(1.0, 0), (1.0, 1), (2.0, 2)]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Rewind;
        impl Component<()> for Rewind {
            fn on_event(&mut self, _: Event<()>, ctx: &mut EngineCtx<'_, ()>) {
                ctx.schedule(SimTime::ZERO, ComponentId(0), ());
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut engine = Engine::new(0);
        let id = engine.add_component(Rewind);
        engine.schedule(SimTime::from_ns(3.0), id, ());
        engine.run_until_idle();
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn negative_delay_panics() {
        struct Rewind;
        impl Component<()> for Rewind {
            fn on_event(&mut self, event: Event<()>, ctx: &mut EngineCtx<'_, ()>) {
                ctx.schedule_in(-1.0, event.target, ());
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut engine = Engine::new(0);
        let id = engine.add_component(Rewind);
        engine.schedule(SimTime::ZERO, id, ());
        engine.run_until_idle();
    }

    #[test]
    #[should_panic(expected = "missing component")]
    fn extracted_slots_panic() {
        struct Sink;
        impl Component<()> for Sink {
            fn on_event(&mut self, _: Event<()>, _: &mut EngineCtx<'_, ()>) {}
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }
        let mut engine = Engine::new(0);
        let id = engine.add_component(Sink);
        engine.extract::<Sink>(id).expect("registered as a Sink");
        engine.schedule(SimTime::ZERO, id, ());
        engine.run_until_idle();
    }

    #[test]
    fn reference_queue_engine_matches_calendar_engine() {
        fn run(reference: bool) -> (u64, f64, Vec<(f64, u32)>) {
            let mut engine = Engine::new(9);
            if reference {
                engine.use_reference_queue();
            }
            let a = engine.add_component(Player { peer: Some(ComponentId(1)), log: Vec::new() });
            let _b = engine.add_component(Player { peer: Some(ComponentId(0)), log: Vec::new() });
            engine.schedule(SimTime::ZERO, a, 9);
            let n = engine.run_until_idle();
            let now = engine.now().as_ns();
            let pa: Player = engine.extract(a).unwrap();
            (n, now, pa.log)
        }
        assert_eq!(run(false), run(true));
    }
}
