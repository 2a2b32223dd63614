//! The event queue: a time-ordered heap with FIFO tie-breaking.
//!
//! Internally this is an index-addressed 4-ary min-heap over a slab
//! arena: the heap orders packed `(at, seq)` keys (one `u128` compare)
//! in an array kept separate from the arena slot indices, so a sift's
//! child scan reads a single cache line of four keys; the events
//! themselves sit still in an arena `Vec` and are moved exactly twice
//! (in on schedule, out on pop). Events scheduled for the instant the
//! clock already shows bypass the heap and the arena entirely through a
//! FIFO "now-lane", which makes the self-scheduling cascades a
//! simulation step produces O(1) instead of O(log n).
//!
//! # Delay classes
//!
//! The now-lane is the zero-delay case of a more general fact: the
//! clock never goes back, so events scheduled with the same positive
//! delay `at - now` arrive in `(at, seq)` order. A simulator schedules
//! with few distinct delays. On the fig16 and modular_faceoff presets at
//! Full scale, three delays carry 91% of all scheduled events (one hop,
//! 122 600 ns; zero, the now-lane; a turn plus a hop, 124 600 ns), 16
//! carry 97% and 32 carry 99.4%. So each recurring delay gets a FIFO of
//! its own, an intrusive list through a link table indexed like the
//! arena, and only the head of each FIFO sits in the heap. Scheduling
//! into a non-empty class is an O(1) append, and the heap shrinks: on
//! fig16 at Full it averages 41 entries while 493 events are pending.
//! Popping a class head hands its heap entry to its successor with one
//! sift-down. This is the regularity calendar queues exploit (Brown,
//! CACM 1988).
//!
//! The 16 classes form a direct-mapped table indexed by a multiplicative
//! hash of the delay. An empty class is claimed by the first delay that
//! maps to it; a delay whose slot holds a different non-empty delay goes
//! to the heap as a plain entry. Pop order is exactly `(at, seq)` order
//! either way, so which path an event took is invisible to the caller.
//!
//! The FIFO tie-break rests on a strictly monotone `u64` sequence
//! counter. It is incremented once per scheduled event and never
//! reused, so it cannot collide, and at one event per nanosecond it
//! would take ~585 years of wall-clock scheduling to wrap — the
//! property test in `tests/queue_prop.rs` pins the ordering, including
//! from seeds above `u32::MAX`.

use std::collections::VecDeque;

use qic_physics::time::Duration;

use crate::time::SimTime;

/// Heap order key: `(at << 64) | seq`, so strict `(at, seq)` order is
/// one native 128-bit comparison.
type Ord128 = u128;

/// The end of an intrusive list (free list or class FIFO), and the
/// "no entry" sentinel.
const END: u32 = u32::MAX;

/// Number of delay classes; a power of two, so the hash is a shift.
const CLASSES: usize = 16;

/// Heap entries with this bit set name a delay class (its head is the
/// entry) instead of an arena slot, which caps the arena below it.
const CLASS_TAG: u32 = 1 << 31;

/// The delay class a positive delay maps to: the top bits of a
/// Fibonacci (golden-ratio multiplicative) hash.
#[inline]
fn class_of(delay: u64) -> usize {
    (delay.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - CLASSES.trailing_zeros())) as usize
}

/// An arena slot: a live event, or a link in the free list.
enum Slot<E> {
    Full(E),
    Free(u32),
}

/// A class member's place in its FIFO, parallel to its arena slot.
/// Written only when an event joins a non-empty class, so events that
/// claim a class or go to the heap never touch it.
#[derive(Clone, Copy)]
struct Link {
    /// The event's order key, read when it becomes its class's head.
    ord: Ord128,
    /// The next (younger) slot of the class; meaningful only for
    /// members that are not the class's tail.
    next: u32,
}

/// One delay class: a FIFO of pending events that share `delay`.
struct Class {
    delay: u64,
    /// Oldest event (the one in the heap); [`END`] when the class is
    /// empty and free to be claimed.
    head: u32,
    /// Youngest event: where the next member is linked in.
    tail: u32,
}

const EMPTY_CLASS: Class = Class {
    delay: 0,
    head: END,
    tail: END,
};

/// A deterministic future-event list.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, which makes simulations reproducible regardless of heap
/// internals.
pub struct EventQueue<E> {
    /// 4-ary min-heap order keys; kept apart from the slots so a sift's
    /// child scan reads one 64-byte line of four keys and touches the
    /// slot array only on an actual move.
    heap_ord: Vec<Ord128>,
    /// Arena slot of each heap entry, or `CLASS_TAG | class` for a
    /// class head; parallel to `heap_ord`.
    heap_slot: Vec<u32>,
    /// Event arena: heap and class entries hold indices into this slab;
    /// free slots chain through [`Slot::Free`] starting at `free_head`.
    slots: Vec<Slot<E>>,
    free_head: u32,
    /// Class FIFO links by arena slot; grown when a class is appended
    /// to, so it may be shorter than `slots`.
    links: Vec<Link>,
    /// Pending events in the arena (the heap plus every class FIFO).
    queued: usize,
    /// Delay classes, direct-mapped by [`class_of`].
    classes: [Class; CLASSES],
    /// Events scheduled for exactly `now`, in FIFO order. Every entry
    /// here was scheduled *after* the clock reached `now`, so it comes
    /// after any heap entry at `now` in `(at, seq)` order — the heap
    /// drains first at each instant, then the lane, preserving global
    /// FIFO order without heap (or arena) traffic.
    lane: VecDeque<E>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// An empty queue at time zero with room for `capacity` pending
    /// events before the heap or arena reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap_ord: Vec::with_capacity(capacity),
            heap_slot: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free_head: END,
            links: Vec::with_capacity(capacity),
            queued: 0,
            classes: [EMPTY_CLASS; CLASSES],
            lane: VecDeque::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (time zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queued + self.lane.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap_ord.is_empty() && self.lane.is_empty()
    }

    /// Total events popped so far (a progress measure for run loops).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Stores an event in the arena and returns its slot.
    #[inline]
    fn alloc(&mut self, event: E) -> u32 {
        self.queued += 1;
        let slot = self.free_head;
        if slot == END {
            let slot = u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s < CLASS_TAG)
                .expect("event arena exceeds 2^31 live events");
            self.slots.push(Slot::Full(event));
            slot
        } else {
            let cell = &mut self.slots[slot as usize];
            match std::mem::replace(cell, Slot::Full(event)) {
                Slot::Free(next) => self.free_head = next,
                Slot::Full(_) => unreachable!("free list points at a live slot"),
            }
            slot
        }
    }

    /// Removes an event from the arena, recycling its slot.
    #[inline]
    fn take(&mut self, slot: u32) -> E {
        self.queued -= 1;
        let cell = &mut self.slots[slot as usize];
        match std::mem::replace(cell, Slot::Free(self.free_head)) {
            Slot::Full(event) => {
                self.free_head = slot;
                event
            }
            Slot::Free(_) => unreachable!("popped slot holds an event"),
        }
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`EventQueue::now`]); a
    /// simulation that schedules into the past is broken, and failing fast
    /// beats silently reordering history.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        if at == self.now {
            // Same-instant fast lane: FIFO by construction, and every
            // earlier-scheduled event at this instant lives in the heap
            // with a smaller sequence number, so draining heap-then-lane
            // preserves exact schedule order with no heap or arena
            // traffic at all.
            self.lane.push_back(event);
            return;
        }
        let seq = self.seq;
        self.seq = seq.checked_add(1).expect("event sequence counter wrapped");
        let ord = (u128::from(at.as_nanos()) << 64) | u128::from(seq);
        let slot = self.alloc(event);
        let delay = at.as_nanos() - self.now.as_nanos();
        let index = class_of(delay);
        let class = &mut self.classes[index];
        let entry = if class.head == END {
            // Claim the free class; its head enters the heap.
            *class = Class {
                delay,
                head: slot,
                tail: slot,
            };
            CLASS_TAG | index as u32
        } else if class.delay == delay {
            // Same delay, later schedule: later `(at, seq)`, so append.
            let tail = class.tail;
            class.tail = slot;
            if self.links.len() < self.slots.len() {
                self.links
                    .resize(self.slots.len(), Link { ord: 0, next: END });
            }
            self.links[tail as usize].next = slot;
            self.links[slot as usize].ord = ord;
            return;
        } else {
            slot
        };
        self.heap_push(ord, entry);
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Schedules `event` at the current instant (after all events already
    /// scheduled for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Heap entries at `now` predate everything in the lane; lane
        // entries precede any strictly later heap entry.
        let event = match self.heap_ord.first() {
            Some(&top) if self.lane.is_empty() || (top >> 64) as u64 == self.now.as_nanos() => {
                self.now = SimTime::from_nanos((top >> 64) as u64);
                let slot = self.heap_pop_top();
                self.take(slot)
            }
            _ => self.lane.pop_front()?,
        };
        self.popped += 1;
        Some((self.now, event))
    }

    /// Pops **every** event scheduled for the earliest pending instant
    /// into `out` (cleared first), in exact [`EventQueue::pop`] order,
    /// advancing the clock; returns that instant.
    ///
    /// Batching amortizes heap traffic across a whole simulation step;
    /// events the caller schedules *while handling* the batch land at or
    /// after the returned instant and are picked up by later calls, so
    /// the interleaving matches a pop-one-at-a-time loop exactly.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let (at, first) = self.pop()?;
        out.push(first);
        let at_ns = at.as_nanos();
        loop {
            // Same-instant peers: heap first (smaller seqs), then lane.
            let event = match self.heap_ord.first() {
                Some(&top) if (top >> 64) as u64 == at_ns => {
                    let slot = self.heap_pop_top();
                    self.take(slot)
                }
                _ => match self.lane.pop_front() {
                    Some(event) => event,
                    None => break,
                },
            };
            self.popped += 1;
            out.push(event);
        }
        Some(at)
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane.is_empty() {
            self.heap_ord
                .first()
                .map(|&ord| SimTime::from_nanos((ord >> 64) as u64))
        } else {
            Some(self.now)
        }
    }

    /// Discards all pending events (the clock is left where it is).
    pub fn clear(&mut self) {
        self.heap_ord.clear();
        self.heap_slot.clear();
        self.lane.clear();
        self.slots.clear();
        self.free_head = END;
        self.links.clear();
        self.queued = 0;
        self.classes = [EMPTY_CLASS; CLASSES];
    }

    /// Starts the sequence counter at `seq` — a test hook for exercising
    /// FIFO ordering near and beyond `u32::MAX` without scheduling four
    /// billion events first.
    ///
    /// # Panics
    ///
    /// Panics if events were already scheduled (the counter must stay
    /// strictly monotone).
    #[doc(hidden)]
    pub fn start_seq_at(&mut self, seq: u64) {
        assert!(
            self.seq == 0 && self.is_empty(),
            "start_seq_at is only valid on a fresh queue"
        );
        self.seq = seq;
    }

    /// Pushes an order key + slot onto the 4-ary heap. Hole-based sift:
    /// parents slide down into the hole and the entry is written exactly
    /// once, halving the memory traffic of a swap-per-level sift.
    #[inline]
    fn heap_push(&mut self, ord: Ord128, slot: u32) {
        let mut i = self.heap_ord.len();
        self.heap_ord.push(ord);
        self.heap_slot.push(slot);
        while i > 0 {
            let parent = (i - 1) / 4;
            let p = self.heap_ord[parent];
            if ord < p {
                self.heap_ord[i] = p;
                self.heap_slot[i] = self.heap_slot[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap_ord[i] = ord;
        self.heap_slot[i] = slot;
    }

    /// Removes the minimum heap entry and returns the arena slot of its
    /// event. A class head hands its heap entry to its successor, if it
    /// has one, with a single sift-down from the root.
    #[inline]
    fn heap_pop_top(&mut self) -> u32 {
        let top = self.heap_slot[0];
        let (slot, successor) = if top & CLASS_TAG == 0 {
            (top, None)
        } else {
            let class = &mut self.classes[(top ^ CLASS_TAG) as usize];
            let head = class.head;
            if head == class.tail {
                class.head = END;
                (head, None)
            } else {
                let next = self.links[head as usize].next;
                class.head = next;
                (head, Some(self.links[next as usize].ord))
            }
        };
        // One sift-down call site, so it inlines: the successor takes
        // the root, or else the last leaf does.
        let (ord, entry) = match successor {
            Some(ord) => (ord, top),
            None => {
                let last_ord = self.heap_ord.pop().expect("heap is non-empty");
                let last_slot = self.heap_slot.pop().expect("heap is non-empty");
                if self.heap_ord.is_empty() {
                    return slot;
                }
                (last_ord, last_slot)
            }
        };
        self.sift_down(0, ord, entry);
        slot
    }

    /// Sifts an entry down from the hole at `i`, writing it exactly
    /// once. The child scan touches only the contiguous order keys (all
    /// four fit in one 64-byte line); the slot array is read on moves.
    fn sift_down(&mut self, mut i: usize, ord: Ord128, slot: u32) {
        let len = self.heap_ord.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            let mut min_ord = self.heap_ord[first_child];
            let end = (first_child + 4).min(len);
            for c in first_child + 1..end {
                let k = self.heap_ord[c];
                if k < min_ord {
                    min = c;
                    min_ord = k;
                }
            }
            if min_ord < ord {
                self.heap_ord[i] = min_ord;
                self.heap_slot[i] = self.heap_slot[min];
                i = min;
            } else {
                break;
            }
        }
        self.heap_ord[i] = ord;
        self.heap_slot[i] = slot;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_after(Duration::from_micros(30), "c");
        q.schedule_after(Duration::from_micros(10), "a");
        q.schedule_after(Duration::from_micros(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_nanos(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_after(Duration::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7_000)));
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(7_000));
        assert_eq!(q.now(), t);
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn schedule_now_runs_after_peers_at_same_instant() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), 1);
        q.schedule_at(SimTime::from_nanos(5), 2);
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, 1);
        q.schedule_now(3); // lands at t=5 too, but after 2
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), ());
        let _ = q.pop();
        q.schedule_at(SimTime::from_nanos(50), ());
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule_after(Duration::from_micros(1), 1);
        let _ = q.pop();
        q.schedule_after(Duration::from_micros(1), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    fn debug_is_informative() {
        let q: EventQueue<()> = EventQueue::new();
        let s = format!("{q:?}");
        assert!(s.contains("pending"));
    }

    #[test]
    fn pop_batch_collects_one_instant_in_pop_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(10), 2);
        q.schedule_at(SimTime::from_nanos(20), 4);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_nanos(10)));
        assert_eq!(batch, [1, 2]);
        assert_eq!(q.events_processed(), 2);
        // Same-instant events scheduled mid-handling arrive in the next
        // batch — at the same timestamp, after their already-queued peers.
        q.schedule_now(3);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_nanos(10)));
        assert_eq!(batch, [3]);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_nanos(20)));
        assert_eq!(batch, [4]);
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
        assert_eq!(q.events_processed(), 4);
    }

    #[test]
    fn lane_and_heap_interleave_in_seq_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), 1);
        let _ = q.pop(); // now = 5
        q.schedule_now(10); // lane
        q.schedule_at(SimTime::from_nanos(9), 20); // heap, later time
        q.schedule_now(11); // lane again
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [10, 11, 20], "lane (t=5) drains before t=9");
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for i in 0..50u64 {
                q.schedule_after(Duration::from_nanos(i + 1), (round, i));
            }
            while q.pop().is_some() {}
        }
        assert!(q.slots.len() <= 50, "arena grew to {}", q.slots.len());
        assert_eq!(q.events_processed(), 500);
    }

    #[test]
    fn a_recurring_delay_queues_behind_one_heap_entry() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_after(Duration::from_nanos(122_600), i);
            q.schedule_after(Duration::from_nanos(124_600), 100 + i);
        }
        assert_eq!(q.heap_ord.len(), 2, "one entry per class head");
        assert_eq!(q.len(), 200);
        let _ = q.pop();
        // Rescheduling at the same delay from a later instant appends.
        q.schedule_after(Duration::from_nanos(122_600), 200);
        assert_eq!(q.heap_ord.len(), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<i32> = (1..100).chain(100..200).chain([200]).collect();
        assert_eq!(order, expected);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn start_seq_at_preserves_fifo_across_u32_boundary() {
        let mut q = EventQueue::new();
        q.start_seq_at(u64::from(u32::MAX) - 1);
        for i in 0..10 {
            q.schedule_at(SimTime::from_nanos(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
}
