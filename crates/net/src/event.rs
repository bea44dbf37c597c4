//! The event queue and the trace it leaves behind.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is the
//! order of scheduling, so ties at the same nanosecond resolve identically
//! on every run. The queue is a **hierarchical timing wheel** over the
//! integer-nanosecond grid — `LEVELS` levels of 64 slots each, level `k`
//! bucketing by bit group `[6k, 6k+6)` of the absolute timestamp — with a
//! binary-heap overflow for events beyond the wheel's
//! `WHEEL_SPAN_NS` ≈ 68.7 s horizon. Scheduling is O(1); popping
//! cascades a higher-level slot down at most once per slot per window, so
//! a 100k-tag run pays amortized O(1) per event where the former
//! `BinaryHeap` paid O(log n) against a 100k-deep heap on every push and
//! pop. The pop order is *exactly* the `(at, seq)` total order the heap
//! produced — the byte-identical-trace contract pins it, and the
//! `wheel_matches_reference_heap` property test drives random streams
//! through both structures side by side.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Which leg of a closed-loop transaction an AM downlink frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownlinkKind {
    /// The carrier's poll, decoded by the tag's envelope detector.
    Poll,
    /// The sink's ack, decoded by the carrier's radio.
    Ack,
}

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A tag's application produced a packet.
    PacketArrival {
        /// Index of the tag.
        tag: usize,
    },
    /// A carrier activates and may grant its slot to a tag.
    CarrierSlot {
        /// Index of the carrier.
        carrier: usize,
    },
    /// A tag's transmission (started in a carrier slot) completes.
    TxEnd {
        /// Index of the tag.
        tag: usize,
        /// Identifier of the in-flight transmission in the medium.
        tx_id: u64,
        /// When the transmission went on the air.
        started: Time,
    },
    /// An AM-OFDM downlink frame of a closed-loop transaction completes:
    /// a carrier's poll or a sink's ack (see
    /// [`crate::mac`] for the transaction structure). Fires at the frame's
    /// end, when the addressed listener decides whether it decoded.
    DownlinkEmission {
        /// Poll or ack.
        kind: DownlinkKind,
        /// The tag whose transaction the frame belongs to.
        tag: usize,
        /// Identifier of the in-flight frame in the medium.
        tx_id: u64,
        /// When the frame went on the air.
        started: Time,
    },
    /// An external coexistence source ([`crate::coex::CoexSource`]) wants
    /// to start its next emission. CSMA-abiding sources re-schedule
    /// themselves with a backoff when the band is busy; the rest go
    /// straight on the air.
    CoexStart {
        /// Index of the source in the scenario's coex config.
        source: usize,
    },
    /// An external emission ends: the medium is released and the source
    /// draws its next arrival from its own RNG stream.
    CoexEnd {
        /// Index of the source in the scenario's coex config.
        source: usize,
        /// Identifier of the in-flight emission in the medium.
        tx_id: u64,
    },
    /// A mobility tick: every mobile entity advances one
    /// [`crate::mobility::Mobility::step`] and the engine refreshes the
    /// dirty [`crate::links::LinkMatrix`] rows. Scheduled on the
    /// integer-nanosecond grid (tick `k` fires at exactly `k · period`),
    /// so the cadence never drifts against the carrier slots.
    MobilityTick,
    /// End of the simulated horizon; processing stops here.
    Horizon,
}

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// Scheduling order, used as a deterministic tie-break.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Bits per wheel level: 64 slots each.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `k` buckets by bit group `[6k, 6k+6)` of the
/// absolute nanosecond timestamp, so the wheel spans `2^36` ns.
const LEVELS: usize = 6;
/// The wheel's horizon, nanoseconds (≈ 68.7 s). Events further in the
/// future than this sit in the overflow heap until the wheel drains into
/// their 68.7 s window, then promote in one batch.
pub const WHEEL_SPAN_NS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// A deterministic hierarchical-timing-wheel event queue.
///
/// The pop order is the exact `(at, seq)` total order of a binary heap
/// over the same stream: same-instant events resolve in scheduling order,
/// far-future events promote from the overflow heap without reordering.
/// Internally, `cur` is a monotone lower bound on every pending event;
/// level-`k` slots hold events whose timestamp agrees with `cur` above bit
/// `6(k+1)` and differs first in bit group `k`. Draining a level-0 slot
/// (one exact nanosecond) sorts it by sequence into a FIFO buffer; a
/// same-instant schedule during the drain appends, which preserves order
/// because sequence numbers are globally monotone.
#[derive(Debug)]
pub struct EventQueue {
    /// `slots[level][slot]`: pending events, unordered until drained.
    slots: Vec<Vec<Vec<Event>>>,
    /// One occupancy bit per slot per level, for next-slot scans.
    occupancy: [u64; LEVELS],
    /// Monotone lower bound (ns) on every pending wheel/overflow event.
    cur: u64,
    /// Events at exactly `cur`, sequence-sorted, ready to pop.
    buffer: VecDeque<Event>,
    /// Events scheduled *behind* `cur` (a DES engine never does this, but
    /// the queue contract tolerates it: they pop first, heap-ordered).
    past: BinaryHeap<Reverse<Event>>,
    /// Events beyond the wheel span from `cur`'s window.
    overflow: BinaryHeap<Reverse<Event>>,
    /// The event [`EventQueue::pop_before`] peeked but did not release
    /// (its time was at or past the limit). Still pending: counted by
    /// `len`, returned by the next pop. Only `past` can hold anything
    /// earlier, because the peek advanced `cur` to the stashed instant.
    stash: Option<Event>,
    /// Total pending events across all storage.
    len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            slots: vec![vec![Vec::new(); SLOTS]; LEVELS],
            occupancy: [0; LEVELS],
            cur: 0,
            buffer: VecDeque::new(),
            past: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            stash: None,
            len: 0,
            next_seq: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// The wheel window (bits above the span) an instant falls in.
    #[inline]
    fn window(ns: u64) -> u64 {
        ns >> (SLOT_BITS * LEVELS as u32)
    }

    /// Files an event into the wheel. Caller guarantees `e.at.0 >= cur`
    /// and `window(e.at.0) == window(cur)`.
    #[inline]
    fn wheel_insert(&mut self, e: Event) {
        let diff = e.at.0 ^ self.cur;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        let slot = ((e.at.0 >> (SLOT_BITS * level as u32)) as usize) & (SLOTS - 1);
        self.slots[level][slot].push(e);
        self.occupancy[level] |= 1 << slot;
    }

    /// Schedules `kind` at time `at`.
    pub fn schedule(&mut self, at: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Event { at, seq, kind };
        self.len += 1;
        if !self.buffer.is_empty() && at.0 == self.cur {
            // Same instant as the slot being drained: the fresh sequence
            // number is larger than everything buffered, so FIFO append
            // keeps `(at, seq)` order.
            self.buffer.push_back(e);
        } else if at.0 < self.cur {
            self.past.push(Reverse(e));
        } else if Self::window(at.0) == Self::window(self.cur) {
            self.wheel_insert(e);
        } else {
            self.overflow.push(Reverse(e));
        }
    }

    /// Pops the earliest event; ties resolve in scheduling order.
    pub fn pop(&mut self) -> Option<Event> {
        if let Some(s) = self.stash {
            // A stashed peek is the earliest thing in the wheel, but an
            // event scheduled *since* the peek can sit behind the cursor
            // in `past` and must pop first if it precedes the stash in
            // the `(at, seq)` total order.
            if let Some(&Reverse(p)) = self.past.peek() {
                if (p.at, p.seq) < (s.at, s.seq) {
                    self.past.pop();
                    self.len -= 1;
                    return Some(p);
                }
            }
            self.stash = None;
            self.len -= 1;
            return Some(s);
        }
        self.pop_inner()
    }

    /// Pops the earliest event only if it fires strictly before `limit`;
    /// otherwise leaves the queue intact (the event stays pending) and
    /// returns `None`. This is the epoch gate of [`crate::run`]: the
    /// engine drains its queue up to each epoch boundary (the progress and
    /// profiling chunk) and resumes — with the pop order still the exact
    /// `(at, seq)` total order `pop` alone would produce, which is what
    /// keeps epoch chunking invisible in the trace.
    pub fn pop_before(&mut self, limit: Time) -> Option<Event> {
        if self.stash.is_none() {
            self.stash = self.pop_inner();
            if self.stash.is_some() {
                // The stashed event is still pending: pop_inner already
                // decremented `len`, but nothing left the queue yet.
                self.len += 1;
            }
        }
        let next_at = match (self.stash.as_ref(), self.past.peek()) {
            (Some(s), Some(&Reverse(p))) => s.at.min(p.at),
            (Some(s), None) => s.at,
            (None, _) => return None,
        };
        if next_at < limit {
            self.pop()
        } else {
            None
        }
    }

    /// The heap-order pop over every storage area except the stash.
    fn pop_inner(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // Late-scheduled events (at < cur) precede everything in the
        // wheel, which holds only times >= cur.
        if let Some(&Reverse(e)) = self.past.peek() {
            self.past.pop();
            return Some(e);
        }
        if let Some(e) = self.buffer.pop_front() {
            return Some(e);
        }
        loop {
            if self.occupancy.iter().all(|&b| b == 0) {
                // Only the overflow remains: jump to its earliest window
                // and promote that whole window into the wheel.
                let min_at = self.overflow.peek().expect("len > 0").0.at.0;
                self.cur = min_at;
                while let Some(&Reverse(e)) = self.overflow.peek() {
                    if Self::window(e.at.0) != Self::window(self.cur) {
                        break;
                    }
                    self.overflow.pop();
                    self.wheel_insert(e);
                }
            }
            // Level 0: the first occupied slot at or after cur's is one
            // exact nanosecond; drain it sequence-sorted and pop.
            let s0 = (self.cur as usize) & (SLOTS - 1);
            let masked = self.occupancy[0] & (!0u64 << s0);
            if masked != 0 {
                let s = masked.trailing_zeros() as usize;
                let mut v = std::mem::take(&mut self.slots[0][s]);
                self.occupancy[0] &= !(1u64 << s);
                v.sort_unstable_by_key(|e| e.seq);
                self.cur = v[0].at.0;
                self.buffer.extend(v);
                return self.buffer.pop_front();
            }
            // Cascade: redistribute the next occupied higher-level slot
            // down one level and retry from level 0.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let sk = ((self.cur >> shift) as usize) & (SLOTS - 1);
                let masked = self.occupancy[level] & (!0u64 << sk);
                if masked == 0 {
                    continue;
                }
                let s = masked.trailing_zeros() as usize;
                let v = std::mem::take(&mut self.slots[level][s]);
                self.occupancy[level] &= !(1u64 << s);
                let above = SLOT_BITS * (level as u32 + 1);
                let base = ((self.cur >> above) << above) | ((s as u64) << shift);
                self.cur = self.cur.max(base);
                for e in v {
                    self.wheel_insert(e);
                }
                cascaded = true;
                break;
            }
            // No cascade found means the wheel is empty (occupied slots
            // never sit behind `cur`'s indices), so the next iteration
            // promotes from the overflow — `len > 0` guarantees it holds
            // something.
            debug_assert!(
                cascaded || self.occupancy.iter().all(|&b| b == 0),
                "wheel slots must never sit behind the cursor"
            );
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One line of the run's event trace.
///
/// Records are compact, fixed-format strings so two runs can be compared
/// byte-for-byte. Formatting floats is avoided: everything recorded is an
/// integer (times in ns, ids, counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the recorded step happened.
    pub at: Time,
    /// The formatted description of the step.
    pub what: String,
}

/// The ordered event trace of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTrace {
    records: Vec<TraceRecord>,
    enabled: bool,
}

impl EventTrace {
    /// Creates a trace; a disabled trace records nothing (used by the
    /// Monte-Carlo runner and benches, where only metrics matter).
    pub fn new(enabled: bool) -> Self {
        EventTrace {
            records: Vec::new(),
            enabled,
        }
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a record (no-op when disabled).
    pub fn record(&mut self, at: Time, what: impl FnOnce() -> String) {
        if self.enabled {
            self.records.push(TraceRecord { at, what: what() });
        }
    }

    /// The recorded lines.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Serializes the trace to one newline-separated byte string, the form
    /// the determinism tests compare.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &self.records {
            out.extend_from_slice(format!("[{:>12}] {}\n", r.at.as_nanos(), r.what).as_bytes());
        }
        out
    }

    /// FNV-1a fingerprint of [`EventTrace::to_bytes`] — what the
    /// digest-checked examples print so two runs are easy to compare by
    /// eye, and what the regression tests pin across refactors. The hash
    /// itself lives in [`crate::trace_digest`], shared with every other
    /// digest-checked surface.
    pub fn digest(&self) -> u64 {
        crate::trace_digest::fnv1a(&self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), EventKind::Horizon);
        q.schedule(Time(10), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(20), EventKind::CarrierSlot { carrier: 1 });
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().at, Time(10));
        assert_eq!(q.pop().unwrap().at, Time(20));
        assert_eq!(q.pop().unwrap().at, Time(30));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_resolve_in_scheduling_order() {
        let mut q = EventQueue::new();
        for tag in 0..100 {
            q.schedule(Time(5), EventKind::PacketArrival { tag });
        }
        for expected in 0..100 {
            let e = q.pop().unwrap();
            assert_eq!(e.kind, EventKind::PacketArrival { tag: expected });
        }
    }

    /// A reference queue with the pre-wheel semantics: a binary heap over
    /// `(at, seq)` with the same monotone sequence assignment.
    #[derive(Default)]
    struct ReferenceQueue {
        heap: BinaryHeap<Reverse<Event>>,
        next_seq: u64,
    }

    impl ReferenceQueue {
        fn schedule(&mut self, at: Time, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Event { at, seq, kind }));
        }

        fn pop(&mut self) -> Option<Event> {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    #[test]
    fn wheel_matches_reference_heap() {
        // Random schedule/pop interleavings through the timing wheel and
        // the reference heap side by side: every pop must agree exactly,
        // including same-instant seq tie-breaks and far-future overflow
        // promotion. The time distribution is deliberately lumpy — exact
        // ties, near-future µs/ms deltas, and beyond-the-wheel jumps.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for trial in 0..20u64 {
            // detlint: allow(stray_rng): property-test stream fuzzing the wheel, not an engine entity
            let mut rng = SmallRng::seed_from_u64(0x57EE1 ^ trial);
            let mut wheel = EventQueue::new();
            let mut reference = ReferenceQueue::default();
            let mut now = 0u64;
            let mut last_at = Vec::new();
            for step in 0..4000usize {
                if rng.gen_bool(0.55) || wheel.is_empty() {
                    let at = match rng.gen_range(0u32..10) {
                        // Exact tie with a previously scheduled event.
                        0 if !last_at.is_empty() => last_at[rng.gen_range(0usize..last_at.len())],
                        // The current instant itself.
                        1 => now,
                        // Far future: beyond the wheel span → overflow.
                        2 => now + WHEEL_SPAN_NS + rng.gen_range(0u64..WHEEL_SPAN_NS),
                        // Behind the cursor (allowed, pops first).
                        3 if now > 0 => rng.gen_range(0u64..now),
                        // Near future across every wheel level.
                        _ => {
                            let magnitude = rng.gen_range(1u32..30);
                            now + rng.gen_range(1u64..1 << magnitude)
                        }
                    };
                    if last_at.len() < 64 {
                        last_at.push(at);
                    }
                    wheel.schedule(Time(at), EventKind::PacketArrival { tag: step });
                    reference.schedule(Time(at), EventKind::PacketArrival { tag: step });
                    assert_eq!(wheel.len(), reference.heap.len());
                } else {
                    let (a, b) = (wheel.pop(), reference.pop());
                    assert_eq!(a, b, "trial {trial} step {step} diverged");
                    if let Some(e) = a {
                        now = now.max(e.at.0);
                    }
                }
            }
            // Drain both to the end: the tails must agree too.
            loop {
                let (a, b) = (wheel.pop(), reference.pop());
                assert_eq!(a, b, "trial {trial} drain diverged");
                if a.is_none() {
                    break;
                }
            }
            assert!(wheel.is_empty());
        }
    }

    #[test]
    fn far_future_events_promote_from_overflow_in_order() {
        // A horizon far beyond the wheel span plus interleaved near events:
        // the overflow heap must hold the horizon without reordering, and
        // same-instant overflow events must promote in scheduling order.
        let mut q = EventQueue::new();
        let horizon = WHEEL_SPAN_NS * 3 + 17;
        q.schedule(Time(horizon), EventKind::Horizon);
        q.schedule(Time(horizon), EventKind::MobilityTick);
        q.schedule(Time(5), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(horizon - 1), EventKind::CarrierSlot { carrier: 9 });
        assert_eq!(q.pop().unwrap().kind, EventKind::PacketArrival { tag: 0 });
        assert_eq!(q.pop().unwrap().kind, EventKind::CarrierSlot { carrier: 9 });
        let first = q.pop().unwrap();
        assert_eq!((first.at, first.kind), (Time(horizon), EventKind::Horizon));
        let second = q.pop().unwrap();
        assert_eq!(second.kind, EventKind::MobilityTick);
        assert!(second.seq > first.seq, "ties promote in scheduling order");
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_before_gates_on_the_limit_and_resumes() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(20), EventKind::PacketArrival { tag: 1 });
        q.schedule(Time(20), EventKind::PacketArrival { tag: 2 });
        q.schedule(Time(35), EventKind::Horizon);
        // Epoch [0, 20): only the t=10 event is released.
        assert_eq!(q.pop_before(Time(20)).unwrap().at, Time(10));
        assert!(q.pop_before(Time(20)).is_none());
        assert!(q.pop_before(Time(20)).is_none(), "repeat peeks are stable");
        assert_eq!(q.len(), 3, "gated events stay pending");
        // Epoch [20, 30): both t=20 events, in scheduling order.
        assert_eq!(
            q.pop_before(Time(30)).unwrap().kind,
            EventKind::PacketArrival { tag: 1 }
        );
        assert_eq!(
            q.pop_before(Time(30)).unwrap().kind,
            EventKind::PacketArrival { tag: 2 }
        );
        assert!(q.pop_before(Time(30)).is_none());
        // A plain pop releases the stashed peek.
        assert_eq!(q.pop().unwrap().at, Time(35));
        assert!(q.pop_before(Time(u64::MAX)).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_orders_late_schedules_against_the_stash() {
        let mut q = EventQueue::new();
        q.schedule(Time(100), EventKind::Horizon);
        // Peek stashes the t=100 horizon (limit not reached).
        assert!(q.pop_before(Time(50)).is_none());
        // Events scheduled while stashed — behind the cursor and at the
        // stashed instant — must still pop in (at, seq) order.
        q.schedule(Time(30), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(100), EventKind::PacketArrival { tag: 1 });
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_before(Time(50)).unwrap().at, Time(30));
        assert!(q.pop_before(Time(50)).is_none());
        let first = q.pop_before(Time(101)).unwrap();
        assert_eq!((first.at, first.kind), (Time(100), EventKind::Horizon));
        let second = q.pop_before(Time(101)).unwrap();
        assert_eq!(second.kind, EventKind::PacketArrival { tag: 1 });
        assert!(q.is_empty());
    }

    #[test]
    fn epoch_chunked_pops_match_plain_pops() {
        // Driving the queue through pop_before with arbitrary epoch
        // boundaries must release the exact same event sequence as plain
        // pops from the reference heap — chunking is invisible.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for trial in 0..10u64 {
            // detlint: allow(stray_rng): property-test stream fuzzing the epoch gate, not an engine entity
            let mut rng = SmallRng::seed_from_u64(0xE60C ^ trial);
            let mut wheel = EventQueue::new();
            let mut reference = ReferenceQueue::default();
            let mut now = 0u64;
            for step in 0..600usize {
                let at = now + rng.gen_range(0u64..200_000);
                wheel.schedule(Time(at), EventKind::PacketArrival { tag: step });
                reference.schedule(Time(at), EventKind::PacketArrival { tag: step });
                if rng.gen_bool(0.4) {
                    // Drain one epoch: everything before a random limit.
                    let limit = now + rng.gen_range(1u64..300_000);
                    while let Some(e) = wheel.pop_before(Time(limit)) {
                        assert!(e.at < Time(limit));
                        assert_eq!(Some(e), reference.pop(), "trial {trial} diverged");
                        now = now.max(e.at.0);
                    }
                    now = now.max(limit);
                }
            }
            loop {
                let (a, b) = (wheel.pop_before(Time(u64::MAX)), reference.pop());
                assert_eq!(a, b, "trial {trial} drain diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn schedule_behind_the_cursor_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(Time(1000), EventKind::Horizon);
        q.schedule(Time(100), EventKind::PacketArrival { tag: 0 });
        assert_eq!(q.pop().unwrap().at, Time(100));
        // The cursor now sits at 100; a late event behind it still pops
        // before everything pending.
        q.schedule(Time(50), EventKind::PacketArrival { tag: 1 });
        q.schedule(Time(60), EventKind::PacketArrival { tag: 2 });
        assert_eq!(q.pop().unwrap().at, Time(50));
        assert_eq!(q.pop().unwrap().at, Time(60));
        assert_eq!(q.pop().unwrap().at, Time(1000));
    }

    #[test]
    fn trace_serializes_and_respects_enable() {
        let mut on = EventTrace::new(true);
        on.record(Time(7), || "tag 1 tx".to_string());
        assert_eq!(on.records().len(), 1);
        let bytes = on.to_bytes();
        assert!(String::from_utf8(bytes.clone())
            .unwrap()
            .contains("tag 1 tx"));

        let mut off = EventTrace::new(false);
        off.record(Time(7), || "tag 1 tx".to_string());
        assert!(off.records().is_empty());
        assert!(off.to_bytes().is_empty());
        assert_ne!(bytes, off.to_bytes());
    }
}
