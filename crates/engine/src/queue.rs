//! The event queue: a two-tier calendar queue with stable,
//! deterministic ordering.
//!
//! The seed implementation was a `BinaryHeap` popping one event at a
//! time — `O(log n)` sift per operation and a fresh comparison chain
//! for every pop, even though discrete-event simulations overwhelmingly
//! schedule into the *near* future and fire whole bursts at the same
//! instant (barriers, same-cycle wakeups). The queue is now split into
//! two tiers:
//!
//! * a **near-future ring** of FIFO buckets, each covering
//!   [`BUCKET_NS`] of simulated time over a [`BUCKETS`]-wide window
//!   starting at the current drain position — pushes are `O(1)` Vec
//!   appends, and a bucket is sorted once by `(time, seq)` when the
//!   drain reaches it;
//! * a **far-future heap** for events beyond the ring's horizon —
//!   events migrate into the ring (at most once each) as the window
//!   advances over their bucket.
//!
//! Dispatch order is *exactly* the `(time, seq)` order of the old
//! heap: bucketing is monotone in time, each bucket is drained in
//! sorted order, and far events always live in later buckets than
//! anything in the ring. The retired heap survives as
//! [`reference::ReferenceQueue`] (compiled for tests and under the
//! `reference-queue` feature) so equivalence suites can run the same
//! simulation on both queues and byte-compare the reports.
//!
//! Storage is recycled: bucket `Vec`s keep their capacity and
//! circulate through the drain position, the active bucket is sorted
//! *descending* so the earliest event pops off the back in O(1), and
//! [`EventQueue::pop_at`] hands the engine the rest of a same-instant
//! burst — barrier resets, same-cycle wakeups — one O(1) pop at a
//! time with no intermediate buffer.

use crate::time::SimTime;
use crate::ComponentId;
use std::cmp::{Ordering, Reverse};
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

/// Number of near-future fine buckets (power of two: bucket index
/// maps to a ring slot by masking).
const BUCKETS: usize = 1024;
const MASK: u64 = (BUCKETS - 1) as u64;
const LOG2_BUCKETS: u32 = BUCKETS.trailing_zeros();
/// Fine-ring occupancy bitmap words.
const WORDS: usize = BUCKETS / 64;
/// Width of one fine bucket in nanoseconds. Component latencies in
/// the chip and DRAM simulators are a few to a few hundred ns, so an
/// 8 ns bucket over a 1024-bucket window keeps the bulk of in-flight
/// events in the fine ring.
const BUCKET_NS: f64 = 8.0;
/// Coarse-rung buckets: each spans one whole fine window
/// (`BUCKETS x BUCKET_NS` = 8.2 us), so the ladder covers ~4.2 ms
/// before anything touches the far heap. Measured on the CI sweep
/// workloads, that keeps >99.9% of events off the heap entirely.
const COARSE: usize = 512;
const CMASK: u64 = (COARSE - 1) as u64;
const CWORDS: usize = COARSE / 64;

/// Next set bit in a power-of-two ring bitmap of `N` slots, starting
/// at absolute index `from`. All set bits must correspond to indices
/// in `[from, from + N)` (the ring-window invariant), which makes the
/// slot -> absolute-index mapping unambiguous.
fn next_occupied<const N: usize>(occ: &[u64], from: u64) -> Option<u64> {
    let words = N / 64;
    let s0 = (from as usize) & (N - 1);
    let (w0, b0) = (s0 / 64, s0 % 64);
    let mut word = occ[w0] & (!0u64 << b0);
    let mut wi = w0;
    for step in 0..=words {
        if word != 0 {
            let s = wi * 64 + word.trailing_zeros() as usize;
            let delta = (s + N - s0) as u64 & (N as u64 - 1);
            return Some(from + delta);
        }
        wi = (wi + 1) % words;
        word = occ[wi];
        if step == words - 1 {
            // Wrapped all the way: only bits before the start slot
            // remain unchecked in the first word.
            word = occ[w0] & !(!0u64 << b0);
            wi = w0;
        }
    }
    None
}

/// The two-rung ladder queue proper. See the module docs for the
/// design; the tiers, nearest first:
///
/// 1. `cur` — the fine bucket being drained, sorted descending so the
///    earliest event pops off the back in O(1);
/// 2. `slots` — the fine ring: `BUCKETS` FIFO buckets of `BUCKET_NS`
///    each, covering `[base_bucket, base_bucket + BUCKETS)`;
/// 3. `coarse` — the coarse rung: `COARSE` FIFO buckets, each spanning
///    one whole fine window; a coarse bucket spills into the fine ring
///    in O(1) per event when the window reaches it;
/// 4. `far` — a heap for the residue beyond the ladder (~ms away).
struct CalendarQueue<E> {
    /// Fine ring: slot `bucket & MASK` holds the pending events of
    /// `bucket`, for buckets in `[base_bucket, base_bucket + BUCKETS)`.
    slots: Vec<Vec<Event<E>>>,
    /// One bit per fine slot: slot holds at least one event.
    occupied: [u64; WORDS],
    /// Events currently stored in `slots`.
    near_len: usize,
    /// The fine bucket currently being drained, sorted **descending**
    /// by `(time, seq)` so the earliest event is `Vec::pop`'d off the
    /// back in O(1) with no shifting; empty when no bucket is active.
    cur: Vec<Event<E>>,
    /// The bucket `cur` drains (and the floor for every pending
    /// event): pushes below it take the cold re-anchor path.
    cur_bucket: u64,
    /// Start of the fine window, always aligned to a coarse-bucket
    /// boundary (a multiple of `BUCKETS`), so one coarse bucket spills
    /// exactly onto the fine ring.
    base_bucket: u64,
    /// Coarse rung: slot `(bucket >> LOG2_BUCKETS) & CMASK` holds
    /// events of that coarse bucket, for coarse indices in
    /// `(base_bucket >> LOG2_BUCKETS, (base_bucket >> LOG2_BUCKETS) + COARSE)`.
    coarse: Vec<Vec<Event<E>>>,
    /// One bit per coarse slot.
    coarse_occupied: [u64; CWORDS],
    /// Events currently stored in `coarse`.
    coarse_len: usize,
    /// Events beyond the ladder.
    far: BinaryHeap<Reverse<Entry<E>>>,
    len: usize,
}

impl<E> CalendarQueue<E> {
    fn new() -> Self {
        Self {
            slots: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            near_len: 0,
            cur: Vec::new(),
            cur_bucket: 0,
            base_bucket: 0,
            coarse: (0..COARSE).map(|_| Vec::new()).collect(),
            coarse_occupied: [0; CWORDS],
            coarse_len: 0,
            far: BinaryHeap::new(),
            len: 0,
        }
    }

    #[inline]
    fn bucket_of(time: SimTime) -> u64 {
        // Monotone in `time` (division by a positive constant, then
        // truncation), so earlier buckets strictly precede later ones.
        (time.as_ns() / BUCKET_NS) as u64
    }

    /// Pre-sizes storage for roughly `events` pending events.
    fn reserve(&mut self, events: usize) {
        let per_bucket = (events / BUCKETS).max(4);
        for slot in &mut self.slots {
            if slot.capacity() < per_bucket {
                slot.reserve(per_bucket - slot.len());
            }
        }
        self.cur.reserve(per_bucket.max(64));
    }

    #[inline]
    fn slot_insert(
        slots: &mut [Vec<Event<E>>],
        occupied: &mut [u64; WORDS],
        near_len: &mut usize,
        event: Event<E>,
        bucket: u64,
    ) {
        let s = (bucket & MASK) as usize;
        slots[s].push(event);
        occupied[s / 64] |= 1u64 << (s % 64);
        *near_len += 1;
    }

    /// Cold path: a push below the drain position (the engine never
    /// does this — events cannot fire in the past — but the queue API
    /// permits it). Spill the whole ladder back into the far heap and
    /// re-anchor at the new bucket so ring aliasing stays sound.
    #[cold]
    #[inline(never)]
    fn rewind_to(&mut self, bucket: u64) {
        for e in self.cur.drain(..) {
            self.far.push(Reverse(Entry(e)));
        }
        if self.near_len > 0 {
            for slot in &mut self.slots {
                for e in slot.drain(..) {
                    self.far.push(Reverse(Entry(e)));
                }
            }
            self.occupied = [0; WORDS];
            self.near_len = 0;
        }
        if self.coarse_len > 0 {
            for slot in &mut self.coarse {
                for e in slot.drain(..) {
                    self.far.push(Reverse(Entry(e)));
                }
            }
            self.coarse_occupied = [0; CWORDS];
            self.coarse_len = 0;
        }
        self.base_bucket = (bucket >> LOG2_BUCKETS) << LOG2_BUCKETS;
        self.cur_bucket = bucket;
        // Restore the tier invariant (the far heap never holds a
        // bucket the fine window covers): everything the spill (or an
        // earlier rewind) parked in the heap that the re-anchored
        // window now reaches comes straight back out.
        let horizon = self.base_bucket + BUCKETS as u64;
        while let Some(Reverse(Entry(e))) = self.far.peek() {
            let b = Self::bucket_of(e.time);
            if b >= horizon {
                break;
            }
            let Reverse(Entry(event)) = self.far.pop().expect("peeked");
            Self::slot_insert(&mut self.slots, &mut self.occupied, &mut self.near_len, event, b);
        }
    }

    fn push(&mut self, event: Event<E>) {
        let bucket = Self::bucket_of(event.time);
        self.len += 1;
        if bucket < self.cur_bucket {
            self.rewind_to(bucket);
        }
        let offset = bucket - self.base_bucket;
        if offset < BUCKETS as u64 {
            if bucket == self.cur_bucket {
                let s = (bucket & MASK) as usize;
                let slot_occupied = self.occupied[s / 64] & (1u64 << (s % 64)) != 0;
                // The bucket being drained lives in `cur` (kept sorted
                // descending) unless pre-activation events still sit
                // in its slot. Every pending entry has a smaller
                // sequence id, so the event pops after all entries
                // with `time <= event.time` — and the common case (a
                // same-instant reschedule, at or below everything
                // still pending) is an O(1) append at the pop end.
                if !slot_occupied {
                    if self.cur.last().map(|e| e.time > event.time).unwrap_or(true) {
                        self.cur.push(event);
                    } else {
                        let at = self.cur.partition_point(|e| e.time > event.time);
                        self.cur.insert(at, event);
                    }
                    return;
                }
                debug_assert!(self.cur.is_empty(), "active-bucket events never split cur/slot");
            }
            Self::slot_insert(
                &mut self.slots,
                &mut self.occupied,
                &mut self.near_len,
                event,
                bucket,
            );
            return;
        }
        let coarse = bucket >> LOG2_BUCKETS;
        if coarse - (self.base_bucket >> LOG2_BUCKETS) < COARSE as u64 {
            let c = (coarse & CMASK) as usize;
            self.coarse[c].push(event);
            self.coarse_occupied[c / 64] |= 1u64 << (c % 64);
            self.coarse_len += 1;
            return;
        }
        self.far.push(Reverse(Entry(event)));
    }

    /// Makes `cur` non-empty (sorted events of the earliest pending
    /// bucket) or returns `false` when the queue is empty.
    fn activate_next_bucket(&mut self) -> bool {
        debug_assert!(self.cur.is_empty());
        loop {
            if self.near_len > 0 {
                // Ring-window invariant for the scan: every pending
                // event is at or above the drain position.
                let bucket = next_occupied::<BUCKETS>(&self.occupied, self.cur_bucket)
                    .expect("near_len > 0 guarantees an occupied fine slot");
                // Swap the bucket into `cur` (the drained `cur`
                // allocation takes its place in the slot — capacities
                // circulate, nothing is copied) and sort it
                // descending.
                let s = (bucket & MASK) as usize;
                std::mem::swap(&mut self.cur, &mut self.slots[s]);
                debug_assert!(!self.cur.is_empty());
                self.occupied[s / 64] &= !(1u64 << (s % 64));
                self.near_len -= self.cur.len();
                self.cur_bucket = bucket;
                // Descending sort on a packed (time-bits, seq) key:
                // times are finite and non-negative, so the IEEE bit
                // pattern orders exactly like the value and one u128
                // compare replaces the chained f64/seq comparison.
                self.cur.sort_unstable_by_key(|e| {
                    std::cmp::Reverse(((e.time.as_ns().to_bits() as u128) << 64) | e.seq as u128)
                });
                return true;
            }
            // Fine ring exhausted: refill it from the next coarse
            // bucket and/or the far heap's head coarse bucket, then go
            // around again. Each event climbs down the ladder at most
            // once per tier.
            let rung = (self.coarse_len > 0).then(|| {
                next_occupied::<COARSE>(&self.coarse_occupied, self.base_bucket >> LOG2_BUCKETS)
                    .expect("coarse_len > 0 guarantees an occupied coarse slot")
            });
            let far =
                self.far.peek().map(|Reverse(Entry(e))| Self::bucket_of(e.time) >> LOG2_BUCKETS);
            let next_coarse = match (rung, far) {
                (None, None) => return false,
                (Some(c), None) => c,
                (None, Some(f)) => f,
                (Some(c), Some(f)) => c.min(f),
            };
            self.base_bucket = next_coarse << LOG2_BUCKETS;
            self.cur_bucket = self.base_bucket;
            if rung == Some(next_coarse) {
                let c = (next_coarse & CMASK) as usize;
                let mut spill = std::mem::take(&mut self.coarse[c]);
                self.coarse_occupied[c / 64] &= !(1u64 << (c % 64));
                self.coarse_len -= spill.len();
                for event in spill.drain(..) {
                    let bucket = Self::bucket_of(event.time);
                    Self::slot_insert(
                        &mut self.slots,
                        &mut self.occupied,
                        &mut self.near_len,
                        event,
                        bucket,
                    );
                }
                self.coarse[c] = spill;
            }
            while let Some(Reverse(Entry(e))) = self.far.peek() {
                if Self::bucket_of(e.time) >> LOG2_BUCKETS != next_coarse {
                    break;
                }
                let Reverse(Entry(event)) = self.far.pop().expect("peeked");
                let bucket = Self::bucket_of(event.time);
                Self::slot_insert(
                    &mut self.slots,
                    &mut self.occupied,
                    &mut self.near_len,
                    event,
                    bucket,
                );
            }
        }
    }

    fn pop(&mut self) -> Option<Event<E>> {
        if self.cur.is_empty() && !self.activate_next_bucket() {
            return None;
        }
        self.len -= 1;
        self.cur.pop()
    }

    /// Pops the next event only if it fires exactly at `time` — the
    /// engine's zero-copy same-instant drain: after `pop` hands out an
    /// instant's first event, `pop_at` yields the rest one by one
    /// (each an O(1) pop off the active bucket), including events a
    /// handler schedules *at* the instant being drained (they carry
    /// higher sequence ids, so handing them out last is exactly the
    /// `(time, seq)` order).
    fn pop_at(&mut self, time: SimTime) -> Option<Event<E>> {
        if self.cur.is_empty() && !self.activate_next_bucket() {
            return None;
        }
        match self.cur.last() {
            Some(e) if e.time == time => {
                self.len -= 1;
                self.cur.pop()
            }
            _ => None,
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.cur.last() {
            return Some(e.time);
        }
        // Tiers are strictly ordered (everything in a farther tier
        // lives in a later bucket), so the first non-empty tier
        // answers — except that the far heap's head may share a coarse
        // bucket with the rung's next slot, where the plain minimum
        // decides.
        if self.near_len > 0 {
            let bucket = next_occupied::<BUCKETS>(&self.occupied, self.cur_bucket)?;
            let s = (bucket & MASK) as usize;
            return self.slots[s].iter().map(|e| e.time).min();
        }
        let far = self.far.peek().map(|Reverse(Entry(e))| e.time);
        if self.coarse_len > 0 {
            let coarse =
                next_occupied::<COARSE>(&self.coarse_occupied, self.base_bucket >> LOG2_BUCKETS)?;
            let c = (coarse & CMASK) as usize;
            let rung_min = self.coarse[c].iter().map(|e| e.time).min();
            return match (rung_min, far) {
                (Some(a), Some(b)) if Self::bucket_of(b) >> LOG2_BUCKETS <= coarse => {
                    Some(a.min(b))
                }
                (Some(a), _) => Some(a),
                (None, b) => b,
            };
        }
        far
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Backed by the calendar queue described in the module docs; tests
/// (and the `reference-queue` feature) can instead construct the
/// retired binary-heap implementation via [`EventQueue::reference`] to
/// cross-check dispatch order and simulation reports.
pub struct EventQueue<E> {
    imp: QueueImpl<E>,
    next_seq: u64,
}

// The calendar variant is intentionally inline (it is the only
// variant production builds contain; boxing it would cost a pointer
// chase on every queue operation).
#[allow(clippy::large_enum_variant)]
enum QueueImpl<E> {
    Calendar(CalendarQueue<E>),
    #[cfg(any(test, feature = "reference-queue"))]
    Reference(reference::ReferenceQueue<E>),
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self { imp: QueueImpl::Calendar(CalendarQueue::new()), next_seq: 0 }
    }

    /// Creates an empty queue pre-sized for roughly `events` pending
    /// events (a hint: the queue grows past it transparently).
    pub fn with_capacity(events: usize) -> Self {
        let mut queue = Self::new();
        queue.reserve(events);
        queue
    }

    /// Creates the retired binary-heap queue — the seed
    /// implementation, kept as the ordering oracle for the calendar
    /// queue's determinism suites.
    #[cfg(any(test, feature = "reference-queue"))]
    pub fn reference() -> Self {
        Self { imp: QueueImpl::Reference(reference::ReferenceQueue::new()), next_seq: 0 }
    }

    /// Pre-sizes internal storage for roughly `events` additional
    /// pending events.
    pub fn reserve(&mut self, events: usize) {
        match &mut self.imp {
            QueueImpl::Calendar(q) => q.reserve(events),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.reserve(events),
        }
    }

    /// Schedules `payload` for `target` at `time`, returning the
    /// assigned sequence id.
    pub fn push(&mut self, time: SimTime, target: ComponentId, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Event { time, seq, target, payload };
        match &mut self.imp {
            QueueImpl::Calendar(q) => q.push(event),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.push(event),
        }
        seq
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<E>> {
        match &mut self.imp {
            QueueImpl::Calendar(q) => q.pop(),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.pop(),
        }
    }

    /// Pops the next event only if it fires exactly at `time`.
    ///
    /// This is the engine's zero-copy same-instant drain: `pop` the
    /// instant's first event, then `pop_at(now)` until `None` — every
    /// event of the burst comes off the active bucket in O(1) with no
    /// intermediate buffer, in exact `(time, seq)` order (including
    /// events scheduled *at* the instant mid-drain, which carry higher
    /// sequence ids and surface last).
    pub fn pop_at(&mut self, time: SimTime) -> Option<Event<E>> {
        match &mut self.imp {
            QueueImpl::Calendar(q) => q.pop_at(time),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.pop_at(time),
        }
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.imp {
            QueueImpl::Calendar(q) => q.peek_time(),
            #[cfg(any(test, feature = "reference-queue"))]
            QueueImpl::Reference(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            QueueImpl::Calendar(q) => q.len,
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
/// oracle for the calendar queue. Compiled only for tests and under
/// the `reference-queue` feature; it takes no part in production
/// simulation.
#[cfg(any(test, feature = "reference-queue"))]
pub(crate) mod reference {
    use super::{Entry, Event};
    use crate::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A `(time, seq)`-ordered binary heap — the original event queue.
    pub(crate) struct ReferenceQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
    }

    impl<E> ReferenceQueue<E> {
        pub(crate) fn new() -> Self {
            Self { heap: BinaryHeap::new() }
        }

        pub(crate) fn reserve(&mut self, events: usize) {
            self.heap.reserve(events);
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

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(5.0), T, "c");
        q.push(SimTime::from_ns(1.0), T, "a");
        q.push(SimTime::from_ns(3.0), T, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn same_time_pops_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(7.0), T, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sub_bucket_times_stay_ordered() {
        // Many distinct timestamps inside one 1 ns bucket.
        let mut q = EventQueue::new();
        for i in (0..64).rev() {
            q.push(SimTime::from_ns(i as f64 / 100.0), T, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_interleave_with_near_ones() {
        // An event far beyond the ring horizon must still pop before a
        // later near event scheduled after the window advanced.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1e6), T, "far");
        q.push(SimTime::from_ns(2.0), T, "near");
        assert_eq!(q.pop().unwrap().payload, "near");
        // The window has advanced to bucket 2; bucket 1e6 still sits
        // beyond it in the far heap, while this lands in the ring:
        q.push(SimTime::from_ns(900.0), T, "mid");
        assert_eq!(q.pop().unwrap().payload, "mid");
        assert_eq!(q.pop().unwrap().payload, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_event_earlier_than_ring_tail_pops_first() {
        // Regression shape: with the window anchored at 0, `tail`
        // (inside the window) lands in the ring while `far` (beyond
        // it) goes to the heap. After draining the head the window
        // advances; `far` is then *earlier* than `tail` and must
        // migrate in ahead of it.
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, T, "head");
        q.push(SimTime::from_ns((BUCKETS as f64) * BUCKET_NS + 500.0), T, "far2");
        assert_eq!(q.pop().unwrap().payload, "head");
        q.push(SimTime::from_ns((BUCKETS as f64) * BUCKET_NS + 900.0), T, "tail");
        assert_eq!(q.pop().unwrap().payload, "far2");
        assert_eq!(q.pop().unwrap().payload, "tail");
    }

    #[test]
    fn push_into_active_bucket_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(5.5), T, 0);
        q.push(SimTime::from_ns(5.7), T, 1);
        assert_eq!(q.pop().unwrap().payload, 0);
        // Bucket 5 is active; these same-bucket pushes must insert in
        // time order ahead of 5.7.
        q.push(SimTime::from_ns(5.6), T, 2);
        q.push(SimTime::from_ns(5.6), T, 3);
        q.push(SimTime::from_ns(5.9), T, 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, [2, 3, 1, 4]);
    }

    #[test]
    fn coarse_rung_and_far_heap_preserve_order() {
        // One event per tier (fine ring, coarse rung, far heap), then
        // pops interleaved with pushes that land in spilled windows.
        let mut q = EventQueue::new();
        let fine = 100.0;
        let rung = (BUCKETS as f64) * BUCKET_NS * 3.5; // ~28.7 us
        let heap = (BUCKETS * COARSE) as f64 * BUCKET_NS * 2.0; // ~8.4 ms
        q.push(SimTime::from_ns(heap), T, "far");
        q.push(SimTime::from_ns(rung), T, "rung");
        q.push(SimTime::from_ns(fine), T, "fine");
        assert_eq!(q.pop().unwrap().payload, "fine");
        // After draining the fine window, the coarse bucket spills.
        assert_eq!(q.pop().unwrap().payload, "rung");
        // New pushes near the far event land in the rung now.
        q.push(SimTime::from_ns(heap - 1_000.0), T, "late-rung");
        assert_eq!(q.pop().unwrap().payload, "late-rung");
        assert_eq!(q.pop().unwrap().payload, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_coarse_bucket_far_and_rung_events_interleave() {
        // A far-heap event and a later rung push that fall in the SAME
        // coarse bucket: the refill must merge both in time order.
        let mut q = EventQueue::new();
        let span = (BUCKETS * COARSE) as f64 * BUCKET_NS; // ladder horizon
        q.push(SimTime::ZERO, T, "now");
        q.push(SimTime::from_ns(span + 500.0), T, "far-a");
        assert_eq!(q.pop().unwrap().payload, "now");
        // Window advanced; this lands in the rung, same coarse bucket,
        // earlier time than far-a.
        q.push(SimTime::from_ns(span + 100.0), T, "rung-b");
        assert_eq!(q.pop().unwrap().payload, "rung-b");
        assert_eq!(q.pop().unwrap().payload, "far-a");
    }

    #[test]
    fn rewind_restores_tier_order() {
        // Review repro: a backward push spills the ladder into the far
        // heap and re-anchors; events the new fine window covers must
        // come back out, or later ring pushes would overtake them.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(80.0), T, "a");
        q.push(SimTime::from_ns(400.0), T, "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        // Backward push (public API; the engine never does this).
        q.push(SimTime::from_ns(8.0), T, "early");
        assert_eq!(q.pop().unwrap().payload, "early");
        q.push(SimTime::from_ns(800.0), T, "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["b", "c"], "far-spilled events must not be overtaken");
    }

    #[test]
    fn peek_time_sees_all_tiers() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(1e7), T, 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1e7)));
        q.push(SimTime::from_ns(42.0), T, 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(42.0)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1e7)));
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut q = EventQueue::with_capacity(10_000);
        for i in 0..100 {
            q.push(SimTime::from_ns((i % 7) as f64), T, i);
        }
        assert_eq!(q.len(), 100);
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!((e.time, e.seq) >= last);
            last = (e.time, e.seq);
            n += 1;
        }
        assert_eq!(n, 100);
    }

    /// Exhaustive cross-check against the retired heap: a seeded
    /// pseudo-random schedule of pushes (near, far, same-instant
    /// bursts, sub-ns spacings) interleaved with pops and whole-instant drains
    /// must produce the identical `(time, seq, payload)` stream.
    #[test]
    fn matches_reference_queue_on_random_schedules() {
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut calendar = EventQueue::new();
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
                        // Coarse-rung territory (beyond the fine ring).
                        4 => 10_000.0 + (rng.next_u64() % 100_000) as f64,
                        // Deeper into the rung (hundreds of us).
                        5 => (rng.next_u64() % 4_000_000) as f64,
                        // Beyond the whole ladder: the far heap.
                        _ => 5_000_000.0 + (rng.next_u64() % 50_000_000) as f64,
                    };
                    let t = SimTime::from_ns(now + delay);
                    let a = calendar.push(t, T, step);
                    let b = reference.push(t, T, step);
                    assert_eq!(a, b, "sequence ids must match");
                } else if roll < 90 {
                    let a = calendar.pop();
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
                    let a = drain(&mut calendar);
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
                assert_eq!(calendar.len(), reference.len());
            }
            // Drain both completely and verify global order.
            loop {
                match (calendar.pop(), reference.pop()) {
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
