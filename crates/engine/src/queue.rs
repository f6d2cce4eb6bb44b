//! The event queue: a short sorted run with a heap overflow behind
//! it, with stable, deterministic ordering.
//!
//! The seed implementation was a `BinaryHeap` popping one event at a
//! time — an `O(log n)` sift per operation, although the simulators'
//! pending sets are tiny and mostly scheduled into the near future.
//! The queue now keeps its pending events in two places:
//!
//! * the **run** — one `Vec` of at most [`RUN_MAX`] events sorted
//!   descending by `(time, seq)`, so a pop takes the earliest event
//!   off the back in O(1) and a push is a binary search plus a short
//!   shift (near-future events land next to the pop end);
//! * the **overflow** — a binary heap on the same packed key that
//!   takes every push made while the run is full, so a deep pending
//!   set costs a heap operation instead of an ever longer sorted
//!   insert.
//!
//! A push goes into the run while it has room and into the overflow
//! otherwise; nothing moves between the two afterwards. `pop`,
//! `pop_at` and `peek_time` take the earlier of the two heads, an
//! exact `(time, seq)` merge, so dispatch order is *exactly* the
//! `(time, seq)` order of the old heap. The retired heap survives as
//! [`reference::ReferenceQueue`] (compiled for tests and under the
//! `reference-queue` feature) so equivalence suites can run the same
//! simulation on both queues and byte-compare the reports.
//!
//! [`EventQueue::pop_at`] hands the engine the rest of a same-instant
//! burst — barrier resets, same-cycle wakeups — one pop at a time
//! with no intermediate buffer.

use crate::time::SimTime;
use crate::ComponentId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event popped from the queue.
#[derive(Debug, Clone)]
pub struct Event<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Global sequence id (schedule order); the tiebreaker for
    /// same-time events.
    pub seq: u64,
    /// The component the event is addressed to.
    pub target: ComponentId,
    /// The event payload.
    pub payload: E,
}

/// Most events the run holds; pushes past it go to the overflow.
/// Peak pending depths, sampled at each instant: 16 for `simulate`
/// (closed-loop DRAM, interleaved vgg16-S), 35 for `serve` (open-loop
/// ring:2 resnet18-S), and at most 64 for every sweep, example, paper
/// bin and workspace test outside `pim-engine`, so the simulators run
/// on the run alone. At 64 events a sorted insert shifts at most a few
/// KiB, and near-future pushes, the common case, land next to the pop
/// end and shift little.
pub(crate) const RUN_MAX: usize = 64;

/// The dispatch key packed into one integer: times are finite and
/// non-negative, so the IEEE bit pattern orders exactly like the value
/// and one u128 compare replaces the chained f64/seq comparison.
#[inline]
fn key<E>(e: &Event<E>) -> u128 {
    ((e.time.as_ns().to_bits() as u128) << 64) | e.seq as u128
}

/// An overflow entry, ordered by its packed key *reversed*, so the
/// max-heap `BinaryHeap` pops the earliest event. One u128 compare per
/// sift step is what puts `engine_hotpath`'s 8,192-event hold at
/// ~1.4x the reference heap, whose entries compare time, then
/// sequence; with the reference's entries the overflow read ~1.03x.
struct Later<E>(Event<E>);

impl<E> PartialEq for Later<E> {
    fn eq(&self, other: &Self) -> bool {
        key(&self.0) == key(&other.0)
    }
}

impl<E> Eq for Later<E> {}

impl<E> PartialOrd for Later<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Later<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        key(&other.0).cmp(&key(&self.0))
    }
}

/// The event queue proper: the run and its overflow (see the module
/// docs).
struct RunQueue<E> {
    /// Up to [`RUN_MAX`] events, sorted **descending** by
    /// `(time, seq)` so the earliest pops off the back in O(1).
    run: Vec<Event<E>>,
    /// Every event pushed while the run was full.
    overflow: BinaryHeap<Later<E>>,
}

impl<E> RunQueue<E> {
    fn new() -> Self {
        Self { run: Vec::new(), overflow: BinaryHeap::new() }
    }

    fn len(&self) -> usize {
        self.run.len() + self.overflow.len()
    }

    #[inline]
    fn push(&mut self, event: Event<E>) {
        if self.run.len() < RUN_MAX {
            // Every pending event has a smaller sequence id, so the
            // event pops after all entries with `time <= event.time`.
            let at = self.run.partition_point(|e| e.time > event.time);
            self.run.insert(at, event);
        } else {
            self.overflow.push(Later(event));
        }
    }

    /// The earliest pending event, and whether it sits in the
    /// overflow.
    #[inline]
    fn head(&self) -> Option<(&Event<E>, bool)> {
        match (self.run.last(), self.overflow.peek()) {
            (Some(r), Some(Later(o))) if key(o) < key(r) => Some((o, true)),
            (Some(r), _) => Some((r, false)),
            (None, o) => o.map(|Later(o)| (o, true)),
        }
    }

    /// Removes the head [`Self::head`] located.
    #[inline]
    fn take(&mut self, from_overflow: bool) -> Option<Event<E>> {
        if from_overflow {
            self.overflow.pop().map(|Later(e)| e)
        } else {
            self.run.pop()
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<E>> {
        let (_, from_overflow) = self.head()?;
        self.take(from_overflow)
    }

    /// Pops the next event only if it fires exactly at `time`.
    #[inline]
    fn pop_at(&mut self, time: SimTime) -> Option<Event<E>> {
        match self.head()? {
            (e, from_overflow) if e.time == time => self.take(from_overflow),
            _ => None,
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(e, _)| e.time)
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Backed by the sorted run and heap overflow described in the module
/// docs; tests (and the `reference-queue` feature) can instead
/// construct the retired binary-heap implementation via
/// [`EventQueue::reference`] to cross-check dispatch order and
/// simulation reports.
pub struct EventQueue<E> {
    imp: QueueImpl<E>,
    next_seq: u64,
}

enum QueueImpl<E> {
    Run(RunQueue<E>),
    #[cfg(any(test, feature = "reference-queue"))]
    Reference(reference::ReferenceQueue<E>),
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self { imp: QueueImpl::Run(RunQueue::new()), next_seq: 0 }
    }

    /// Creates the retired binary-heap queue — the seed
    /// implementation, kept as the ordering oracle for the run queue's
    /// determinism suites.
    #[cfg(any(test, feature = "reference-queue"))]
    pub fn reference() -> Self {
        Self { imp: QueueImpl::Reference(reference::ReferenceQueue::new()), next_seq: 0 }
    }

    /// Schedules `payload` for `target` at `time`, returning the
    /// assigned sequence id.
    pub fn push(&mut self, time: SimTime, target: ComponentId, payload: E) -> u64 {
        let seq = self.take_seq();
        let event = Event { time, seq, target, payload };
        match &mut self.imp {
            QueueImpl::Run(q) => q.push(event),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.push(event),
        }
        seq
    }

    /// Takes the next sequence id without queueing anything: the
    /// engine's same-instant lane holds events outside the queue but
    /// numbers them from the same counter.
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<E>> {
        match &mut self.imp {
            QueueImpl::Run(q) => q.pop(),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.pop(),
        }
    }

    /// Pops the next event only if it fires exactly at `time`.
    ///
    /// This is the engine's zero-copy same-instant drain: `pop` the
    /// instant's first event, then `pop_at(now)` until `None` — every
    /// event of the burst comes off the queue with no intermediate
    /// buffer, in exact `(time, seq)` order (including events pushed
    /// *at* the instant mid-drain, which carry higher sequence ids and
    /// surface last).
    pub fn pop_at(&mut self, time: SimTime) -> Option<Event<E>> {
        match &mut self.imp {
            QueueImpl::Run(q) => q.pop_at(time),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.pop_at(time),
        }
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.imp {
            QueueImpl::Run(q) => q.peek_time(),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            QueueImpl::Run(q) => q.len(),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.len(),
        }
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The seed-era binary-heap queue, kept verbatim as the ordering
/// oracle for the run queue. Compiled only for tests and under the
/// `reference-queue` feature; it takes no part in production
/// simulation.
#[cfg(any(test, feature = "reference-queue"))]
pub(crate) mod reference {
    use super::Event;
    use crate::time::SimTime;
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

    struct Entry<E>(Event<E>);

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.0.time == other.0.time && self.0.seq == other.0.seq
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // (time, seq): identical times process in schedule order, so
            // runs are bit-reproducible regardless of heap internals.
            self.0.time.cmp(&other.0.time).then(self.0.seq.cmp(&other.0.seq))
        }
    }

    /// A `(time, seq)`-ordered binary heap — the original event queue.
    pub(crate) struct ReferenceQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
    }

    impl<E> ReferenceQueue<E> {
        pub(crate) fn new() -> Self {
            Self { heap: BinaryHeap::new() }
        }

        pub(crate) fn push(&mut self, event: Event<E>) {
            self.heap.push(Reverse(Entry(event)));
        }

        pub(crate) fn pop(&mut self) -> Option<Event<E>> {
            self.heap.pop().map(|Reverse(Entry(ev))| ev)
        }

        pub(crate) fn pop_at(&mut self, time: SimTime) -> Option<Event<E>> {
            if self.peek_time() == Some(time) {
                return self.pop();
            }
            None
        }

        pub(crate) fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse(Entry(ev))| ev.time)
        }

        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    const T: ComponentId = ComponentId(0);

    /// The queue operations the ordering tests drive, so each test runs
    /// on every implementation: the run queue and the reference heap.
    trait TestQueue<E> {
        fn push(&mut self, time: SimTime, target: ComponentId, payload: E) -> u64;
        fn pop(&mut self) -> Option<Event<E>>;
        fn pop_at(&mut self, time: SimTime) -> Option<Event<E>>;
        fn peek_time(&self) -> Option<SimTime>;
        fn len(&self) -> usize;
    }

    impl<E> TestQueue<E> for EventQueue<E> {
        fn push(&mut self, time: SimTime, target: ComponentId, payload: E) -> u64 {
            EventQueue::push(self, time, target, payload)
        }
        fn pop(&mut self) -> Option<Event<E>> {
            EventQueue::pop(self)
        }
        fn pop_at(&mut self, time: SimTime) -> Option<Event<E>> {
            EventQueue::pop_at(self, time)
        }
        fn peek_time(&self) -> Option<SimTime> {
            EventQueue::peek_time(self)
        }
        fn len(&self) -> usize {
            EventQueue::len(self)
        }
    }

    /// Runs a generic check on a fresh run queue and a fresh reference
    /// heap.
    macro_rules! on_every_queue {
        ($check:ident) => {
            $check(EventQueue::new());
            $check(EventQueue::reference());
        };
    }

    fn payloads<E>(q: &mut impl TestQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect()
    }

    #[test]
    fn pops_in_time_order() {
        fn check(mut q: impl TestQueue<&'static str>) {
            q.push(SimTime::from_ns(5.0), T, "c");
            q.push(SimTime::from_ns(1.0), T, "a");
            q.push(SimTime::from_ns(3.0), T, "b");
            assert_eq!(payloads(&mut q), ["a", "b", "c"]);
        }
        on_every_queue!(check);
    }

    #[test]
    fn same_time_pops_in_schedule_order() {
        fn check(mut q: impl TestQueue<i32>) {
            for i in 0..100 {
                q.push(SimTime::from_ns(7.0), T, i);
            }
            assert_eq!(payloads(&mut q), (0..100).collect::<Vec<_>>());
        }
        on_every_queue!(check);
    }

    #[test]
    fn sub_ns_times_stay_ordered() {
        // Many distinct sub-nanosecond timestamps, pushed latest first.
        fn check(mut q: impl TestQueue<i32>) {
            for i in (0..64).rev() {
                q.push(SimTime::from_ns(i as f64 / 100.0), T, i);
            }
            assert_eq!(payloads(&mut q), (0..64).collect::<Vec<_>>());
        }
        on_every_queue!(check);
    }

    #[test]
    fn far_future_events_interleave_with_near_ones() {
        // A far-future event must still pop after a later near event
        // scheduled once the clock advanced.
        fn check(mut q: impl TestQueue<&'static str>) {
            q.push(SimTime::from_ns(1e6), T, "far");
            q.push(SimTime::from_ns(2.0), T, "near");
            assert_eq!(q.pop().unwrap().payload, "near");
            q.push(SimTime::from_ns(900.0), T, "mid");
            assert_eq!(q.pop().unwrap().payload, "mid");
            assert_eq!(q.pop().unwrap().payload, "far");
            assert!(q.pop().is_none());
        }
        on_every_queue!(check);
    }

    #[test]
    fn push_ahead_of_the_next_event_keeps_order() {
        fn check(mut q: impl TestQueue<i32>) {
            q.push(SimTime::from_ns(5.5), T, 0);
            q.push(SimTime::from_ns(5.7), T, 1);
            assert_eq!(q.pop().unwrap().payload, 0);
            // Pushes between the clock and the next pending event
            // must insert in time order ahead of 5.7.
            q.push(SimTime::from_ns(5.6), T, 2);
            q.push(SimTime::from_ns(5.6), T, 3);
            q.push(SimTime::from_ns(5.9), T, 4);
            assert_eq!(payloads(&mut q), [2, 3, 1, 4]);
        }
        on_every_queue!(check);
    }

    #[test]
    fn peek_time_sees_all_tiers() {
        fn check(mut q: impl TestQueue<i32>) {
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_ns(1e7), T, 0);
            assert_eq!(q.peek_time(), Some(SimTime::from_ns(1e7)));
            q.push(SimTime::from_ns(42.0), T, 1);
            assert_eq!(q.peek_time(), Some(SimTime::from_ns(42.0)));
            q.pop();
            assert_eq!(q.peek_time(), Some(SimTime::from_ns(1e7)));
        }
        on_every_queue!(check);
    }

    #[test]
    fn pop_at_on_a_fresh_queue_keeps_its_contract() {
        // No `pop` has run yet: `pop_at` must still find the events at
        // the asked instant (and only them).
        fn check(mut q: impl TestQueue<&'static str>) {
            assert!(q.pop_at(SimTime::ZERO).is_none(), "empty queue");
            q.push(SimTime::from_ns(5.0), T, "a");
            q.push(SimTime::from_ns(5.0), T, "b");
            q.push(SimTime::from_ns(9.0), T, "c");
            assert!(q.pop_at(SimTime::from_ns(9.0)).is_none(), "5.0 comes first");
            assert_eq!(q.pop_at(SimTime::from_ns(5.0)).unwrap().payload, "a");
            assert_eq!(q.pop_at(SimTime::from_ns(5.0)).unwrap().payload, "b");
            assert!(q.pop_at(SimTime::from_ns(5.0)).is_none(), "instant drained");
            assert_eq!(q.pop_at(SimTime::from_ns(9.0)).unwrap().payload, "c");
            assert!(q.pop_at(SimTime::from_ns(9.0)).is_none());
            assert_eq!(q.len(), 0);
        }
        fn check_far(far: f64, mut q: impl TestQueue<&'static str>) {
            q.push(SimTime::from_ns(far), T, "far");
            assert!(q.pop_at(SimTime::ZERO).is_none());
            assert_eq!(q.pop_at(SimTime::from_ns(far)).unwrap().payload, "far", "{far}");
        }
        on_every_queue!(check);
        for far in [20_000.0, 1e7] {
            check_far(far, EventQueue::new());
            check_far(far, EventQueue::reference());
        }
    }

    /// The run queue behind `q`.
    fn run_queue<E>(q: &EventQueue<E>) -> &RunQueue<E> {
        let QueueImpl::Run(r) = &q.imp else { unreachable!("a run queue") };
        r
    }

    /// What a [`differential`] run exercised.
    struct Crossings {
        /// Phases that filled the queue past [`RUN_MAX`] events.
        fills: usize,
        /// Phases that drained it back below a quarter of that.
        drains: usize,
        /// Pops whose event came off the overflow while the run held
        /// a later one.
        overflow_first: usize,
    }

    /// One seeded differential run: a schedule of pushes (same-instant
    /// bursts, sub-ns, near and far delays), pops, whole-instant
    /// drains and `pop_at` probes, driven through the run queue and
    /// the reference heap, whose pop streams, lengths and head times
    /// must agree at every step. The push share rises and falls in
    /// phases whose depth runs past [`RUN_MAX`] and back, so the run
    /// fills, spills into the overflow and drains again many times.
    fn differential(seed: u64, steps: u32) -> Crossings {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut queue = EventQueue::new();
        let mut reference = EventQueue::reference();
        let mut now = 0.0f64;
        let mut popped = Vec::new();
        let mut filling = true;
        let mut seen = Crossings { fills: 0, drains: 0, overflow_first: 0 };
        let (high, low) = (RUN_MAX + 1 + seed as usize % 24, RUN_MAX / 4 - seed as usize % 8);
        for step in 0..steps {
            let depth = reference.len();
            if filling && depth >= high {
                filling = false;
                seen.fills += 1;
            } else if !filling && depth <= low {
                filling = true;
                seen.drains += 1;
            }
            let run = run_queue(&queue);
            if matches!(run.head(), Some((_, true))) && !run.run.is_empty() {
                seen.overflow_first += 1;
            }
            let roll = rng.next_u64() % 100;
            let push_share = if filling { 70 } else { 25 };
            if roll < push_share {
                let delay = match rng.next_u64() % 8 {
                    0 | 1 => 0.0,
                    2 => (rng.next_u64() % 100) as f64 / 1000.0,
                    3 => (rng.next_u64() % 200) as f64,
                    4 => (rng.next_u64() % 5_000) as f64,
                    5 => 10_000.0 + (rng.next_u64() % 4_000_000) as f64,
                    6 => 5_000_000.0 + (rng.next_u64() % 50_000_000) as f64,
                    // A same-instant burst.
                    _ => {
                        let t = SimTime::from_ns(now);
                        for _ in 0..rng.next_u64() % 12 {
                            let a = queue.push(t, T, step);
                            assert_eq!(a, reference.push(t, T, step), "sequence ids");
                        }
                        0.0
                    }
                };
                let t = SimTime::from_ns(now + delay);
                let a = queue.push(t, T, step);
                assert_eq!(a, reference.push(t, T, step), "sequence ids");
            } else if roll < 90 {
                let a = queue.pop();
                let b = reference.pop();
                let key = |e: &Option<Event<u32>>| e.as_ref().map(|e| (e.time, e.seq, e.payload));
                assert_eq!(key(&a), key(&b), "seed {seed} step {step}: pop");
                if let Some(e) = a {
                    now = e.time.as_ns();
                    popped.push((e.time, e.seq));
                }
            } else if roll < 96 {
                // Drain one whole instant from each queue: a full pop,
                // then `pop_at` until the instant runs dry.
                let drain = |q: &mut EventQueue<u32>| {
                    let mut out: Vec<Event<u32>> = q.pop().into_iter().collect();
                    if let Some(time) = out.first().map(|e| e.time) {
                        out.extend(std::iter::from_fn(|| q.pop_at(time)));
                    }
                    out
                };
                let a = drain(&mut queue);
                let b = drain(&mut reference);
                let keys = |v: &[Event<u32>]| -> Vec<_> {
                    v.iter().map(|e| (e.time, e.seq, e.payload)).collect()
                };
                assert_eq!(keys(&a), keys(&b), "seed {seed} step {step}: instant drain");
                if let Some(last) = a.last() {
                    now = last.time.as_ns();
                }
                popped.extend(a.iter().map(|e| (e.time, e.seq)));
            } else {
                // A lone `pop_at` probe at the clock: it yields only an
                // event due exactly now.
                let t = SimTime::from_ns(now);
                let a = queue.pop_at(t).map(|e| (e.seq, e.payload));
                assert_eq!(a, reference.pop_at(t).map(|e| (e.seq, e.payload)), "seed {seed}");
                if let Some((seq, _)) = a {
                    popped.push((t, seq));
                }
            }
            assert_eq!(queue.len(), reference.len(), "seed {seed} step {step}: len");
            assert_eq!(queue.peek_time(), reference.peek_time(), "seed {seed} step {step}");
        }
        loop {
            match (queue.pop(), reference.pop()) {
                (Some(x), Some(y)) => {
                    assert_eq!((x.time, x.seq), (y.time, y.seq), "seed {seed}: final drain");
                    popped.push((x.time, x.seq));
                }
                (None, None) => break,
                _ => panic!("seed {seed}: queues disagree on emptiness"),
            }
        }
        for pair in popped.windows(2) {
            assert!(pair[0] < pair[1], "seed {seed}: strict (time, seq) order: {pair:?}");
        }
        seen
    }

    fn check_differential(seeds: std::ops::Range<u64>) {
        for seed in seeds {
            let seen = differential(seed, 6_000);
            let Crossings { fills, drains, overflow_first } = seen;
            assert!(fills >= 10 && drains >= 10, "seed {seed}: {fills} fills, {drains} drains");
            assert!(overflow_first >= 10, "seed {seed}: overflow first {overflow_first} times");
        }
    }

    #[test]
    fn tier_crossings_match_the_reference_heap() {
        check_differential(0..48);
    }

    /// The long form of [`tier_crossings_match_the_reference_heap`]:
    /// `cargo test --release -p pim-engine -- --ignored`.
    #[test]
    #[ignore = "long seeded differential; run in release with --ignored"]
    fn tier_crossings_match_the_reference_heap_long() {
        check_differential(0..10_000);
    }

    /// Cross-check against the retired heap on schedules that only
    /// grow deeper: a seeded pseudo-random schedule of pushes (near,
    /// far, same-instant, sub-ns spacings) interleaved with pops and
    /// whole-instant drains must produce the identical
    /// `(time, seq, payload)` stream.
    #[test]
    fn matches_reference_queue_on_random_schedules() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut queue = EventQueue::new();
            let mut reference = EventQueue::reference();
            let mut now = 0.0f64;
            let mut popped = Vec::new();
            let mut popped_ref = Vec::new();
            for step in 0..5_000u32 {
                let roll = rng.next_u64() % 100;
                if roll < 60 {
                    // Push with a spread of delays: same-instant, sub-ns,
                    // near, and far-future jumps.
                    let delay = match rng.next_u64() % 7 {
                        0 => 0.0,
                        1 => (rng.next_u64() % 100) as f64 / 1000.0,
                        2 => (rng.next_u64() % 200) as f64,
                        3 => (rng.next_u64() % 5_000) as f64,
                        4 => 10_000.0 + (rng.next_u64() % 100_000) as f64,
                        5 => (rng.next_u64() % 4_000_000) as f64,
                        _ => 5_000_000.0 + (rng.next_u64() % 50_000_000) as f64,
                    };
                    let t = SimTime::from_ns(now + delay);
                    let a = queue.push(t, T, step);
                    let b = reference.push(t, T, step);
                    assert_eq!(a, b, "sequence ids must match");
                } else if roll < 90 {
                    let a = queue.pop();
                    let b = reference.pop();
                    match (&a, &b) {
                        (Some(x), Some(y)) => {
                            assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                            now = x.time.as_ns();
                        }
                        (None, None) => {}
                        _ => panic!("queues disagree on emptiness"),
                    }
                    if let Some(e) = a {
                        popped.push((e.time, e.seq));
                        popped_ref.push((e.time, e.seq));
                    }
                } else {
                    // Drain one whole instant from each queue: a full
                    // pop, then `pop_at` until the instant runs dry.
                    let drain = |q: &mut EventQueue<u32>| {
                        let mut out: Vec<Event<u32>> = q.pop().into_iter().collect();
                        if let Some(time) = out.first().map(|e| e.time) {
                            out.extend(std::iter::from_fn(|| q.pop_at(time)));
                        }
                        out
                    };
                    let a = drain(&mut queue);
                    let b = drain(&mut reference);
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!((x.time, x.seq, x.payload), (y.time, y.seq, y.payload));
                    }
                    if let Some(last) = a.last() {
                        assert!(a.iter().all(|e| e.time == last.time), "one instant per batch");
                        now = last.time.as_ns();
                    }
                    popped.extend(a.iter().map(|e| (e.time, e.seq)));
                    popped_ref.extend(b.iter().map(|e| (e.time, e.seq)));
                }
                assert_eq!(queue.len(), reference.len());
            }
            // Drain both completely and verify global order.
            loop {
                match (queue.pop(), reference.pop()) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.seq), (y.time, y.seq));
                        popped.push((x.time, x.seq));
                    }
                    (None, None) => break,
                    _ => panic!("queues disagree on emptiness"),
                }
            }
            for pair in popped.windows(2) {
                assert!(pair[0] < pair[1], "strict (time, seq) order: {pair:?}");
            }
        }
    }
}
