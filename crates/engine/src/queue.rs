//! The event queue: a small sorted tier in front of a two-rung
//! calendar ladder, with stable, deterministic ordering.
//!
//! The seed implementation was a `BinaryHeap` popping one event at a
//! time — `O(log n)` sift per operation and a fresh comparison chain
//! for every pop, even though discrete-event simulations overwhelmingly
//! schedule into the *near* future and fire whole bursts at the same
//! instant (barriers, same-cycle wakeups). The queue now keeps its
//! pending events in one of two tiers, chosen by its own length:
//!
//! * the **small tier** — one `Vec` sorted descending by the packed
//!   `(time bits, seq)` key, so a pop takes the earliest event off the
//!   back in O(1) and a push is a binary search plus a short shift
//!   (near-future events land next to the pop end). The simulators'
//!   pending sets are mostly tiny: `simulate` averages 2.9 events and
//!   peaks at 16, so it never leaves this tier;
//! * the **ladder**, for deep pending sets (`serve` averages 260
//!   events and peaks at 546; `engine_hotpath` holds 8,192):
//!   - a **near-future ring** of FIFO buckets, each covering
//!     [`BUCKET_NS`] of simulated time over a [`BUCKETS`]-wide window
//!     starting at the current drain position — pushes are `O(1)` Vec
//!     appends, and a bucket is sorted once by `(time, seq)` when the
//!     drain reaches it;
//!   - a **coarse rung** of [`COARSE`] buckets, each one whole fine
//!     window wide, spilled into the ring in O(1) per event as the
//!     window reaches it;
//!   - a **far-future heap** for events beyond the rung's horizon.
//!
//! The queue starts in the small tier and climbs onto the ladder when
//! a push would take it past [`SMALL_MAX`] events, anchoring the
//! ladder's window at the last popped instant: the engine never
//! schedules before its clock, so no later push lands below the drain
//! position. A pop that leaves at most [`SMALL_RETURN`] events brings
//! the queue back down. The gap between the two is the hysteresis
//! that keeps a pending set hovering near the threshold from paying
//! for a move on every operation. There is no setting: the length
//! alone decides.
//!
//! Dispatch order is *exactly* the `(time, seq)` order of the old
//! heap in both tiers: the small tier is kept sorted, bucketing is
//! monotone in time, each bucket is drained in sorted order, and far
//! events always live in later buckets than anything in the ring. The
//! retired heap survives as [`reference::ReferenceQueue`] (compiled
//! for tests and under the `reference-queue` feature) so equivalence
//! suites can run the same simulation on both queues and byte-compare
//! the reports.
//!
//! Storage is recycled and grows on demand: nothing is pre-sized, the
//! ladder's bucket table is allocated the first time the queue climbs
//! onto it, bucket `Vec`s keep their capacity and circulate through
//! the drain position, the active bucket is sorted *descending* so the
//! earliest event pops off the back in O(1), and
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

/// Most events the small tier holds; one more push moves the queue to
/// the ladder. Measured pending depths: `simulate` (closed-loop DRAM,
/// interleaved vgg16-S) averages 2.9 events and peaks at 16, so its
/// whole run stays in the small tier; `serve` (open-loop ring:2
/// resnet18-S) averages 260 and peaks at 546, mostly pre-scheduled
/// arrivals, and the 8,192-event hold of `engine_hotpath` is deeper
/// still — those belong on the ladder. At 64 events a sorted insert
/// shifts at most a few KiB, and near-future pushes, the common case,
/// land next to the pop end and shift little.
pub(crate) const SMALL_MAX: usize = 64;
/// A pop that leaves at most this many events on the ladder moves them
/// back to the small tier. The gap to [`SMALL_MAX`] is the hysteresis:
/// every round trip moves at most `SMALL_MAX + 1` events and takes at
/// least `SMALL_MAX - SMALL_RETURN` queue operations.
const SMALL_RETURN: usize = SMALL_MAX / 4;

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

/// The dispatch key packed into one integer: times are finite and
/// non-negative, so the IEEE bit pattern orders exactly like the value
/// and one u128 compare replaces the chained f64/seq comparison.
#[inline]
fn key<E>(e: &Event<E>) -> u128 {
    ((e.time.as_ns().to_bits() as u128) << 64) | e.seq as u128
}

/// Sorts `events` descending by `(time, seq)`, so the earliest pops
/// off the back.
fn sort_descending<E>(events: &mut [Event<E>]) {
    events.sort_unstable_by_key(|e| Reverse(key(e)));
}

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

/// Moves every event of the bucket vectors whose bit is set in `occ`
/// into `out`, clearing the bits; the vectors keep their capacity.
fn drain_occupied<E>(buckets: &mut [Vec<Event<E>>], occ: &mut [u64], out: &mut Vec<Event<E>>) {
    for (w, word) in occ.iter_mut().enumerate() {
        while *word != 0 {
            let s = w * 64 + word.trailing_zeros() as usize;
            *word &= *word - 1;
            out.append(&mut buckets[s]);
        }
    }
}

/// The event queue proper: the small tier, or the ladder when the
/// pending set outgrows it (see the module docs). The queue's own
/// length picks the tier; nothing else does.
struct CalendarQueue<E> {
    /// The small tier: every pending event while `on_ladder` is
    /// `false`, sorted **descending** by `(time, seq)` so the earliest
    /// pops off the back in O(1); empty while `on_ladder` is `true`.
    small: Vec<Event<E>>,
    ladder: Ladder<E>,
    on_ladder: bool,
    /// The time of the last popped event: the floor the ladder's
    /// window anchors at when the queue moves onto it, so the pushes
    /// that follow (never earlier than the clock) stay inside it.
    last_popped: SimTime,
}

impl<E> CalendarQueue<E> {
    fn new() -> Self {
        Self {
            small: Vec::new(),
            ladder: Ladder::new(),
            on_ladder: false,
            last_popped: SimTime::ZERO,
        }
    }

    fn len(&self) -> usize {
        if self.on_ladder {
            self.ladder.len
        } else {
            self.small.len()
        }
    }

    #[inline]
    fn push(&mut self, event: Event<E>) {
        if self.on_ladder {
            self.ladder.push(event);
        } else if self.small.len() < SMALL_MAX {
            // Every pending event has a smaller sequence id, so the
            // event pops after all entries with `time <= event.time`.
            let at = self.small.partition_point(|e| e.time > event.time);
            self.small.insert(at, event);
        } else {
            self.climb();
            self.ladder.push(event);
        }
    }

    /// Moves the small tier onto the ladder, its window anchored at
    /// the last popped instant (or the earliest pending event, should
    /// one lie below it).
    #[cold]
    #[inline(never)]
    fn climb(&mut self) {
        let floor = match self.small.last() {
            Some(e) if e.time < self.last_popped => e.time,
            _ => self.last_popped,
        };
        self.ladder.anchor(Ladder::<E>::bucket_of(floor));
        // Earliest first: each event then follows every equal-time
        // event already moved, as their sequence ids require.
        while let Some(event) = self.small.pop() {
            self.ladder.push(event);
        }
        self.on_ladder = true;
    }

    /// Moves the ladder's events back into the small tier.
    #[cold]
    #[inline(never)]
    fn descend(&mut self) {
        self.ladder.drain_into(&mut self.small);
        sort_descending(&mut self.small);
        self.on_ladder = false;
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<E>> {
        if self.on_ladder {
            let event = self.ladder.pop();
            self.leave_ladder_if_low(&event);
            return event;
        }
        let event = self.small.pop();
        if let Some(e) = &event {
            self.last_popped = e.time;
        }
        event
    }

    /// Pops the next event only if it fires exactly at `time`.
    #[inline]
    fn pop_at(&mut self, time: SimTime) -> Option<Event<E>> {
        if self.on_ladder {
            let event = self.ladder.pop_at(time);
            self.leave_ladder_if_low(&event);
            return event;
        }
        match self.small.last() {
            Some(e) if e.time == time => {
                self.last_popped = time;
                self.small.pop()
            }
            _ => None,
        }
    }

    /// Moves back to the small tier once a ladder pop leaves at most
    /// [`SMALL_RETURN`] events. Ladder pops skip the `last_popped`
    /// store until then.
    #[inline]
    fn leave_ladder_if_low(&mut self, popped: &Option<Event<E>>) {
        if self.ladder.len <= SMALL_RETURN {
            if let Some(e) = popped {
                self.last_popped = e.time;
            }
            self.descend();
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        if self.on_ladder {
            self.ladder.peek_time()
        } else {
            self.small.last().map(|e| e.time)
        }
    }
}

/// The two-rung ladder for deep pending sets. See the module docs for
/// the design; the tiers, nearest first:
///
/// 1. `cur` — the fine bucket being drained, sorted descending so the
///    earliest event pops off the back in O(1);
/// 2. `slots` — the fine ring: `BUCKETS` FIFO buckets of `BUCKET_NS`
///    each, covering `[base_bucket, base_bucket + BUCKETS)`;
/// 3. `coarse` — the coarse rung: `COARSE` FIFO buckets, each spanning
///    one whole fine window; a coarse bucket spills into the fine ring
///    in O(1) per event when the window reaches it;
/// 4. `far` — a heap for the residue beyond the ladder (~ms away).
///
/// Bucket storage is allocated the first time the queue climbs onto
/// the ladder, and each bucket grows on its first use.
struct Ladder<E> {
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

impl<E> Ladder<E> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            occupied: [0; WORDS],
            near_len: 0,
            cur: Vec::new(),
            cur_bucket: 0,
            base_bucket: 0,
            coarse: Vec::new(),
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

    /// Points the drain position of an empty ladder at `bucket`,
    /// allocating the bucket table on first use.
    fn anchor(&mut self, bucket: u64) {
        debug_assert_eq!(self.len, 0, "only an empty ladder re-anchors");
        if self.slots.is_empty() {
            self.slots.resize_with(BUCKETS, Vec::new);
            self.coarse.resize_with(COARSE, Vec::new);
        }
        self.base_bucket = (bucket >> LOG2_BUCKETS) << LOG2_BUCKETS;
        self.cur_bucket = bucket;
    }

    /// Moves every pending event into `out`, in no particular order,
    /// and leaves the ladder empty with its bucket capacities kept.
    fn drain_into(&mut self, out: &mut Vec<Event<E>>) {
        out.append(&mut self.cur);
        drain_occupied(&mut self.slots, &mut self.occupied, out);
        drain_occupied(&mut self.coarse, &mut self.coarse_occupied, out);
        out.extend(self.far.drain().map(|Reverse(Entry(e))| e));
        self.near_len = 0;
        self.coarse_len = 0;
        self.len = 0;
    }

    #[inline(always)]
    fn slot_insert(&mut self, event: Event<E>, bucket: u64) {
        let s = (bucket & MASK) as usize;
        self.slots[s].push(event);
        self.occupied[s / 64] |= 1u64 << (s % 64);
        self.near_len += 1;
    }

    /// Cold path: a push below the drain position (the engine never
    /// does this — events cannot fire in the past — but the queue API
    /// permits it). Spill the whole ladder back into the far heap and
    /// re-anchor at the new bucket so ring aliasing stays sound.
    #[cold]
    #[inline(never)]
    fn rewind_to(&mut self, bucket: u64) {
        let len = self.len;
        let mut spill = Vec::new();
        self.drain_into(&mut spill);
        self.anchor(bucket);
        self.far.extend(spill.into_iter().map(|e| Reverse(Entry(e))));
        self.len = len;
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
            self.slot_insert(event, b);
        }
    }

    // `push`, `pop`, `pop_at` and `slot_insert` are forced inline: left
    // as calls, they cost `engine_hotpath`'s 8,192-event hold ~10% of
    // its calendar throughput on a 2-core Xeon container.
    #[inline(always)]
    fn push(&mut self, event: Event<E>) {
        let bucket = Self::bucket_of(event.time);
        self.len += 1;
        if bucket < self.cur_bucket {
            self.rewind_to(bucket);
        }
        if bucket == self.cur_bucket {
            let s = (bucket & MASK) as usize;
            let slot_occupied = self.occupied[s / 64] & (1u64 << (s % 64)) != 0;
            // The bucket being drained lives in `cur` (kept sorted
            // descending) unless pre-activation events still sit in
            // its slot. Every pending entry has a smaller sequence id,
            // so the event pops after all entries with
            // `time <= event.time` — and the common case (a
            // same-instant reschedule, at or below everything still
            // pending) is an O(1) append at the pop end.
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
        if bucket - self.base_bucket < BUCKETS as u64 {
            self.slot_insert(event, bucket);
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
                sort_descending(&mut self.cur);
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
                    self.slot_insert(event, bucket);
                }
                self.coarse[c] = spill;
            }
            while let Some(Reverse(Entry(e))) = self.far.peek() {
                if Self::bucket_of(e.time) >> LOG2_BUCKETS != next_coarse {
                    break;
                }
                let Reverse(Entry(event)) = self.far.pop().expect("peeked");
                let bucket = Self::bucket_of(event.time);
                self.slot_insert(event, bucket);
            }
        }
    }

    #[inline(always)]
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
    /// (each an O(1) pop off the active bucket).
    ///
    /// Once the active bucket runs dry it is not replaced by the next
    /// one while `time` still falls in it: the engine then runs its
    /// same-instant lane, whose handlers schedule into this bucket and
    /// later ones, and activating a later bucket would send those
    /// pushes down the cold [`Self::rewind_to`] path. Events of the
    /// active bucket live in `cur` or, before it was activated (fresh
    /// or re-anchored ladder), in its ring slot; only an empty `cur`
    /// *and* an empty slot prove that nothing at `time` is pending.
    #[inline(always)]
    fn pop_at(&mut self, time: SimTime) -> Option<Event<E>> {
        if self.cur.is_empty() {
            let bucket = Self::bucket_of(time);
            let s = (self.cur_bucket & MASK) as usize;
            let slot_empty = self.occupied[s / 64] & (1u64 << (s % 64)) == 0;
            if (bucket <= self.cur_bucket && slot_empty) || !self.activate_next_bucket() {
                return None;
            }
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

    /// Creates the retired binary-heap queue — the seed
    /// implementation, kept as the ordering oracle for the calendar
    /// queue's determinism suites.
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
            QueueImpl::Calendar(q) => q.push(event),
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
    /// events pushed *at* the instant mid-drain, which carry higher
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
            QueueImpl::Calendar(q) => q.len(),
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
    /// on every implementation: the calendar queue (whose shallow
    /// pending sets stay in the small tier), a bare ladder, and the
    /// reference heap.
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

    /// A ladder on its own, anchored at time zero, with schedule-order
    /// sequence ids: through `EventQueue`, a queue as shallow as these
    /// tests build would never leave the small tier.
    struct LadderQueue<E> {
        ladder: Ladder<E>,
        next_seq: u64,
    }

    fn ladder<E>() -> LadderQueue<E> {
        let mut ladder = Ladder::new();
        ladder.anchor(0);
        LadderQueue { ladder, next_seq: 0 }
    }

    impl<E> TestQueue<E> for LadderQueue<E> {
        fn push(&mut self, time: SimTime, target: ComponentId, payload: E) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.ladder.push(Event { time, seq, target, payload });
            seq
        }
        fn pop(&mut self) -> Option<Event<E>> {
            self.ladder.pop()
        }
        fn pop_at(&mut self, time: SimTime) -> Option<Event<E>> {
            self.ladder.pop_at(time)
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.ladder.peek_time()
        }
        fn len(&self) -> usize {
            self.ladder.len
        }
    }

    /// Runs a generic check on a fresh calendar queue, a fresh bare
    /// ladder and a fresh reference heap.
    macro_rules! on_every_queue {
        ($check:ident) => {
            $check(EventQueue::new());
            $check(ladder());
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
    fn sub_bucket_times_stay_ordered() {
        // Many distinct timestamps inside one bucket.
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
        // An event far beyond the ring horizon must still pop before a
        // later near event scheduled after the window advanced.
        fn check(mut q: impl TestQueue<&'static str>) {
            q.push(SimTime::from_ns(1e6), T, "far");
            q.push(SimTime::from_ns(2.0), T, "near");
            assert_eq!(q.pop().unwrap().payload, "near");
            // The window has advanced to bucket 2; bucket 1e6 still
            // sits beyond it in the far heap, while this lands in the
            // ring:
            q.push(SimTime::from_ns(900.0), T, "mid");
            assert_eq!(q.pop().unwrap().payload, "mid");
            assert_eq!(q.pop().unwrap().payload, "far");
            assert!(q.pop().is_none());
        }
        on_every_queue!(check);
    }

    #[test]
    fn far_event_earlier_than_ring_tail_pops_first() {
        // Regression shape: with the window anchored at 0, `tail`
        // (inside the window) lands in the ring while `far` (beyond
        // it) goes to the heap. After draining the head the window
        // advances; `far` is then *earlier* than `tail` and must
        // migrate in ahead of it.
        fn check(mut q: impl TestQueue<&'static str>) {
            q.push(SimTime::ZERO, T, "head");
            q.push(SimTime::from_ns((BUCKETS as f64) * BUCKET_NS + 500.0), T, "far2");
            assert_eq!(q.pop().unwrap().payload, "head");
            q.push(SimTime::from_ns((BUCKETS as f64) * BUCKET_NS + 900.0), T, "tail");
            assert_eq!(q.pop().unwrap().payload, "far2");
            assert_eq!(q.pop().unwrap().payload, "tail");
        }
        on_every_queue!(check);
    }

    #[test]
    fn push_into_active_bucket_keeps_order() {
        fn check(mut q: impl TestQueue<i32>) {
            q.push(SimTime::from_ns(5.5), T, 0);
            q.push(SimTime::from_ns(5.7), T, 1);
            assert_eq!(q.pop().unwrap().payload, 0);
            // Bucket 0 is active on the ladder; these same-bucket
            // pushes must insert in time order ahead of 5.7.
            q.push(SimTime::from_ns(5.6), T, 2);
            q.push(SimTime::from_ns(5.6), T, 3);
            q.push(SimTime::from_ns(5.9), T, 4);
            assert_eq!(payloads(&mut q), [2, 3, 1, 4]);
        }
        on_every_queue!(check);
    }

    #[test]
    fn coarse_rung_and_far_heap_preserve_order() {
        // One event per rung (fine ring, coarse rung, far heap), then
        // pops interleaved with pushes that land in spilled windows.
        fn check(mut q: impl TestQueue<&'static str>) {
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
        on_every_queue!(check);
    }

    #[test]
    fn same_coarse_bucket_far_and_rung_events_interleave() {
        // A far-heap event and a later rung push that fall in the SAME
        // coarse bucket: the refill must merge both in time order.
        fn check(mut q: impl TestQueue<&'static str>) {
            let span = (BUCKETS * COARSE) as f64 * BUCKET_NS; // ladder horizon
            q.push(SimTime::ZERO, T, "now");
            q.push(SimTime::from_ns(span + 500.0), T, "far-a");
            assert_eq!(q.pop().unwrap().payload, "now");
            // Window advanced; this lands in the rung, same coarse
            // bucket, earlier time than far-a.
            q.push(SimTime::from_ns(span + 100.0), T, "rung-b");
            assert_eq!(q.pop().unwrap().payload, "rung-b");
            assert_eq!(q.pop().unwrap().payload, "far-a");
        }
        on_every_queue!(check);
    }

    #[test]
    fn rewind_restores_tier_order() {
        // Review repro: a backward push spills the ladder into the far
        // heap and re-anchors; events the new fine window covers must
        // come back out, or later ring pushes would overtake them.
        fn check(mut q: impl TestQueue<&'static str>) {
            q.push(SimTime::from_ns(80.0), T, "a");
            q.push(SimTime::from_ns(400.0), T, "b");
            assert_eq!(q.pop().unwrap().payload, "a");
            // Backward push (public API; the engine never does this).
            q.push(SimTime::from_ns(8.0), T, "early");
            assert_eq!(q.pop().unwrap().payload, "early");
            q.push(SimTime::from_ns(800.0), T, "c");
            assert_eq!(payloads(&mut q), ["b", "c"], "far-spilled events must not be overtaken");
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
        // No `pop` has activated a bucket yet: events at the asked
        // instant sit in a ring slot, the coarse rung or the far heap,
        // and `pop_at` must still find them (and only them).
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
            check_far(far, ladder());
            check_far(far, EventQueue::reference());
        }
    }

    #[test]
    fn pop_at_leaves_a_later_bucket_inactive() {
        // After an instant drains its bucket, the drain position stays
        // put, so pushes into that bucket (the engine's same-instant
        // lane makes them) need no re-anchor, and keep their order.
        let mut q = ladder();
        q.push(SimTime::from_ns(2.0), T, 0);
        q.push(SimTime::from_ns(100.0), T, 1);
        assert_eq!(q.pop().unwrap().payload, 0);
        assert!(q.pop_at(SimTime::from_ns(2.0)).is_none());
        assert_eq!(q.ladder.cur_bucket, 0, "bucket of 100 ns activated");
        q.push(SimTime::from_ns(3.0), T, 2);
        q.push(SimTime::from_ns(9.0), T, 3);
        assert_eq!(payloads(&mut q), [2, 3, 1]);
    }

    #[test]
    fn climbing_anchors_the_ladder_at_the_last_popped_instant() {
        // Pops advance the clock well past zero, then a burst of pushes
        // at the clock and later overflows the small tier: the ladder's
        // drain position is the clock's bucket, and the pushes that
        // follow, at the clock or later, never rewind it.
        let mut q = EventQueue::new();
        let now = SimTime::from_ns(1_000.5);
        q.push(SimTime::from_ns(10.0), T, 0);
        q.push(now, T, 1);
        q.pop();
        assert_eq!(q.pop().unwrap().seq, 1);
        for i in 0..=SMALL_MAX {
            q.push(now.advance(i as f64 * 3.0), T, 2 + i);
        }
        let QueueImpl::Calendar(c) = &q.imp else { unreachable!("a calendar queue") };
        assert!(c.on_ladder && c.small.is_empty());
        assert_eq!(c.ladder.cur_bucket, Ladder::<usize>::bucket_of(now));
        q.push(now, T, 999);
        let QueueImpl::Calendar(c) = &q.imp else { unreachable!("a calendar queue") };
        assert_eq!(c.ladder.cur_bucket, Ladder::<usize>::bucket_of(now), "no rewind");
        let order: Vec<_> = payloads(&mut q);
        assert_eq!(order[..2], [2, 999]);
        assert_eq!(order.len(), SMALL_MAX + 2);
    }

    /// One seeded differential run: a schedule of pushes (same-instant
    /// bursts, sub-ns and near delays, coarse-rung and far-heap jumps),
    /// pops, whole-instant drains and `pop_at` probes, driven through
    /// the calendar queue and the reference heap, whose pop streams,
    /// lengths and head times must agree at every step. `fill_bias`
    /// pushes the depth up or down in phases that run past both tier
    /// thresholds; returns how often the depth crossed them as
    /// `(climbs past SMALL_MAX, descents to SMALL_RETURN)`.
    fn differential(seed: u64, steps: u32) -> (usize, usize) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut calendar = EventQueue::new();
        let mut reference = EventQueue::reference();
        let mut now = 0.0f64;
        let mut popped = Vec::new();
        let mut filling = true;
        let (mut climbs, mut descents) = (0, 0);
        let (high, low) = (SMALL_MAX + 1 + seed as usize % 24, SMALL_RETURN - seed as usize % 8);
        for step in 0..steps {
            let depth = reference.len();
            if filling && depth >= high {
                filling = false;
                climbs += 1;
            } else if !filling && depth <= low {
                filling = true;
                descents += 1;
            }
            let roll = rng.next_u64() % 100;
            let push_share = if filling { 70 } else { 25 };
            if roll < push_share {
                let delay = match rng.next_u64() % 8 {
                    0 | 1 => 0.0,
                    2 => (rng.next_u64() % 100) as f64 / 1000.0,
                    3 => (rng.next_u64() % 200) as f64,
                    4 => (rng.next_u64() % 5_000) as f64,
                    // Coarse-rung territory (beyond the fine ring).
                    5 => 10_000.0 + (rng.next_u64() % 4_000_000) as f64,
                    // Beyond the whole ladder: the far heap.
                    6 => 5_000_000.0 + (rng.next_u64() % 50_000_000) as f64,
                    // A same-instant burst.
                    _ => {
                        let t = SimTime::from_ns(now);
                        for _ in 0..rng.next_u64() % 12 {
                            let a = calendar.push(t, T, step);
                            assert_eq!(a, reference.push(t, T, step), "sequence ids");
                        }
                        0.0
                    }
                };
                let t = SimTime::from_ns(now + delay);
                let a = calendar.push(t, T, step);
                assert_eq!(a, reference.push(t, T, step), "sequence ids");
            } else if roll < 90 {
                let a = calendar.pop();
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
                let a = drain(&mut calendar);
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
                let a = calendar.pop_at(t).map(|e| (e.seq, e.payload));
                assert_eq!(a, reference.pop_at(t).map(|e| (e.seq, e.payload)), "seed {seed}");
                if let Some((seq, _)) = a {
                    popped.push((t, seq));
                }
            }
            assert_eq!(calendar.len(), reference.len(), "seed {seed} step {step}: len");
            assert_eq!(calendar.peek_time(), reference.peek_time(), "seed {seed} step {step}");
        }
        loop {
            match (calendar.pop(), reference.pop()) {
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
        (climbs, descents)
    }

    #[test]
    fn tier_crossings_match_the_reference_heap() {
        for seed in 0..48 {
            let (climbs, descents) = differential(seed, 6_000);
            assert!(climbs >= 10 && descents >= 10, "seed {seed}: {climbs} up, {descents} down");
        }
    }

    /// The long form of [`tier_crossings_match_the_reference_heap`]:
    /// `cargo test --release -p pim-engine -- --ignored`.
    #[test]
    #[ignore = "long seeded differential; run in release with --ignored"]
    fn tier_crossings_match_the_reference_heap_long() {
        for seed in 0..10_000 {
            let (climbs, descents) = differential(seed, 6_000);
            assert!(climbs >= 10 && descents >= 10, "seed {seed}: {climbs} up, {descents} down");
        }
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
