//! The event queue and the trace it leaves behind.
//!
//! Events are ordered by time. At a shared nanosecond, every event but a
//! carrier slot pops in scheduling order (its sequence number), and the
//! [`EventKind::CarrierSlot`]s pop after them, in carrier order. A slot's
//! place therefore does not depend on when it was scheduled: a ticking
//! carrier schedules its next slot one interval ahead, from the slot
//! before, while a sleeping carrier (no member holds a queued packet, see
//! [`crate::engine`]) has it scheduled by the arrival that wakes it. Both
//! pop at the same place, and an arrival on a grid nanosecond is served
//! by that slot. The queue keeps two lanes under one sequence counter:
//!
//! * **The slot lane.** Carrier slots sit in a `VecDeque` kept sorted by
//!   `(at, carrier)`. A carrier offers one slot per slot interval (§2.3)
//!   while it ticks. Every preset gives all its carriers one interval, so
//!   a re-scheduled slot is almost never earlier than the lane's tail: it
//!   is a `push_back`, and its pop a `pop_front`. A slot that is earlier
//!   (the staggered first slots, a woken carrier's slot, or a scenario
//!   that mixes intervals) goes in by binary search.
//! * **The heap.** Every other event sits in an implicit **4-ary
//!   min-heap** over a `Vec<Event>`, ordered by `(at, seq)`: `schedule`
//!   sifts up and `pop` sifts a hole down from the root, both O(log₄ n).
//!
//! `pop` returns the lane's front only when it is strictly earlier than
//! the heap's root, so the pop order is exactly `Ord for Event` — the
//! byte-identical-trace contract pins it. The
//! `queue_matches_reference_heap` and `slot_lane_matches_reference_heap`
//! property tests drive random streams through this queue and a `std`
//! binary heap keyed by the rule spelled out separately, side by side,
//! the latter with periodic slot streams at two intervals and
//! exact-nanosecond ties between the lanes.
//!
//! A queue built for a run (`EventQueue::until`) also never stores an
//! event later than the run's horizon, since it could only pop after the
//! `Horizon` event that ends the loop. Campus primes one first arrival
//! per tag, and ≈67k of its 100k fall past its 2 s horizon.
//!
//! The design was chosen by measurement. Perfbench at seed 1, `--seconds
//! 8`, 3 alternating runs per candidate on a 2-core x86-64 host; every
//! workload digest identical and 0 failed operations (ranges in seconds).
//! The last row is 10 alternating pairs at `--seconds 25` against the row
//! above it, on the same kind of host; in those pairs the row above read
//! ward 0.27–0.33 / 0.30–0.37 s and campus 0.111–0.125 / 0.128–0.169 s
//! and 74.7 MiB (`wall_s` / `setup_s`, then RSS):
//!
//! | queue | ward `wall_s` | ward `setup_s` | campus `wall_s` | campus `setup_s` | campus RSS |
//! |---|---|---|---|---|---|
//! | hierarchical timing wheel (6 × 64 slots + far-future heap) | 0.57–0.68 | 0.58–0.68 | 0.105–0.123 | 0.122–0.162 | 90.8 MiB |
//! | same wheel, slot capacity kept across drains | 0.36–0.42 | 0.43–0.48 | — | — | — |
//! | `std` `BinaryHeap<Reverse<Event>>` | 0.28–0.31 | 0.29–0.31 | 0.130–0.154 | 0.159–0.185 | 88.5 MiB |
//! | binary heap of 24 B keys + event-kind slab | — | — | 0.126–0.148 | 0.17–0.23 | 91.4 MiB |
//! | 4-ary heap of `Event` | 0.30–0.32 | 0.28–0.35 | 0.105–0.121 | 0.119–0.149 | 88.5 MiB |
//! | **4-ary heap + slot lane, horizon cut** (this) | **0.12–0.15** | **0.17–0.20** | **0.104–0.110** | **0.112–0.143** | **70.3 MiB** |
//!
//! Ward's queue is only hundreds of events deep, so any heap beats the
//! wheel's cascades and per-slot reallocation. Campus held ≈100k pending
//! 48 B events before the horizon cut (≈33k after), more than a 2 MiB
//! L2: there a binary heap's 17-level pops
//! cost +15–22% in the event loop (not in set-up), and the 4-ary layout's
//! halved depth, with siblings on adjacent cache lines, wins it back.
//! When the lane was measured, slots were 2.78M of ward's 2.94M events at
//! seed 1, and 97% of them found no backlogged tag and returned at once,
//! so a heap push and pop per slot was most of the loop; the lane made it
//! a copy at each end. Idle carriers now sleep: at seed 1 ward ran 0.83M
//! events and 0.67M slots, 0.60M of them from the coex ward's carriers,
//! which then sensed the medium every slot and never slept. Re-measured then
//! with the lane deleted and slots in the heap behind a flag bit in the
//! key (`at`, then a slot bit, then carrier and `seq`): digests identical
//! (ward `a73e386b617a1f22`, campus `5508da4d1b7cb487`), and over 10
//! alternating pairs at seed 1, `--seconds 5`, on a 2-core x86-64 host,
//! medians lane → heap: ward `wall_s` 0.058 → 0.117 s (slower in 10/10),
//! `setup_s` 0.083 → 0.143 s; campus `wall_s` 0.073 → 0.083 s (slower in
//! 9/10), `setup_s` 0.096 → 0.105 s, RSS 70.8 → 70.4 MiB. The lane stays.
//! Since occupancy sensing moved to its own once-per-window tick, coex
//! carriers sleep too: the coex ward fires 38,294 slots at seed 1 instead
//! of 600,000, and ward's events fall to ≈0.28M, so the lane now carries
//! a smaller share of them.

use crate::time::Time;
use std::collections::VecDeque;

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
    /// A carrier's AM-OFDM poll of a closed-loop transaction completes
    /// (see [`crate::mac`] for the transaction structure): the tag's
    /// envelope detector decides whether it decoded.
    PollEnd {
        /// The tag the poll addresses.
        tag: usize,
        /// Identifier of the in-flight frame in the medium.
        tx_id: u64,
    },
    /// A sink's AM-OFDM ack of a closed-loop transaction completes: the
    /// carrier's radio decides whether it decoded.
    AckEnd {
        /// The tag whose response the ack confirms.
        tag: usize,
        /// Identifier of the in-flight frame in the medium.
        tx_id: u64,
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
    /// [`crate::mobility::MobilityModel::step`] and the engine refreshes the
    /// [`crate::links::LinkMatrix`] budgets the moves touch. Scheduled on the
    /// integer-nanosecond grid (tick `k` fires at exactly `k · period`),
    /// so the cadence never drifts against the carrier slots.
    MobilityTick,
    /// A coex run's occupancy-sensing tick, one per
    /// [`crate::coex`] sensing window on the integer-nanosecond grid:
    /// every receiver channel's busy share of the window feeds its EWMA,
    /// carriers record their occupancy samples and run the re-striping
    /// check. At a nanosecond it shares, it pops in scheduling order among
    /// the other non-slot events, before every carrier slot; a busy-time
    /// reading is the same on either side of an emission that starts or
    /// ends on that nanosecond.
    SenseTick,
    /// End of the simulated horizon; processing stops here.
    Horizon,
}

impl EventKind {
    /// Every kind's name, indexed by [`EventKind::index`]: the vocabulary
    /// of a profiled run's per-kind totals ([`crate::prof`]).
    pub(crate) const NAMES: [&'static str; 10] = [
        "PacketArrival",
        "CarrierSlot",
        "TxEnd",
        "PollEnd",
        "AckEnd",
        "CoexStart",
        "CoexEnd",
        "MobilityTick",
        "SenseTick",
        "Horizon",
    ];

    /// This kind's position in [`EventKind::NAMES`].
    pub(crate) fn index(&self) -> usize {
        match self {
            EventKind::PacketArrival { .. } => 0,
            EventKind::CarrierSlot { .. } => 1,
            EventKind::TxEnd { .. } => 2,
            EventKind::PollEnd { .. } => 3,
            EventKind::AckEnd { .. } => 4,
            EventKind::CoexStart { .. } => 5,
            EventKind::CoexEnd { .. } => 6,
            EventKind::MobilityTick => 7,
            EventKind::SenseTick => 8,
            EventKind::Horizon => 9,
        }
    }
}

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: Time,
    /// Scheduling order, the tie-break between events that are not
    /// carrier slots.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl Ord for Event {
    /// Earlier first. At one nanosecond, every event but a carrier slot
    /// pops in scheduling order (`seq`), then the slots pop in carrier
    /// order: a slot's place never depends on when it was scheduled, so
    /// an arrival on a slot's nanosecond is always served by that slot.
    /// (Two slots of one carrier at one instant, which the engine never
    /// schedules, fall back to `seq`.)
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        self.at
            .cmp(&other.at)
            .then_with(|| match (self.kind, other.kind) {
                (EventKind::CarrierSlot { carrier: a }, EventKind::CarrierSlot { carrier: b }) => {
                    a.cmp(&b).then(self.seq.cmp(&other.seq))
                }
                (EventKind::CarrierSlot { .. }, _) => Ordering::Greater,
                (_, EventKind::CarrierSlot { .. }) => Ordering::Less,
                _ => self.seq.cmp(&other.seq),
            })
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Children per heap node. Four halves the depth of a binary heap and
/// keeps a node's siblings within one or two 64 B cache lines of 48 B
/// events, so a pop scans adjacent memory instead of chasing a deeper
/// path.
const ARITY: usize = 4;

/// The heap's `(at, seq)` order as one integer, so a sibling comparison
/// is a single compare the sift-down can select on. The heap holds no
/// carrier slot, and among the other events this is `Ord for Event`.
#[inline]
fn key(e: &Event) -> u128 {
    (u128::from(e.at.0) << 64) | u128::from(e.seq)
}

/// A deterministic event queue in the order of `Ord for Event`: carrier
/// slots in a sorted FIFO lane, every other event in an implicit 4-ary
/// min-heap.
///
/// `heap[0]` is the earliest pending non-slot event; the children of
/// `heap[i]` are `heap[4i + 1 ..= 4i + 4]`, each no earlier than their
/// parent. `slots` holds the pending [`EventKind::CarrierSlot`]s sorted by
/// `(at, carrier)`, so its front is the first slot to pop. Sequence
/// numbers are unique and globally monotone across both, so the order is
/// total and the pop order is fully determined by the schedule stream —
/// same-instant non-slot events resolve in scheduling order, slots after
/// them in carrier order, and an event scheduled behind the last pop
/// simply pops next.
#[derive(Debug)]
pub struct EventQueue {
    heap: Vec<Event>,
    slots: VecDeque<Event>,
    next_seq: u64,
    /// Events later than this are never stored: the run stops at its
    /// `Horizon`, which is scheduled at this instant.
    horizon: Time,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::until(Time(u64::MAX))
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Creates an empty queue for a run that ends at `horizon`: a
    /// schedule strictly later than it is dropped, since it could only
    /// pop after the `Horizon` event that ends the loop. Such a schedule
    /// still takes its sequence number, so every stored event keeps the
    /// `seq` it would have had.
    pub(crate) fn until(horizon: Time) -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: VecDeque::new(),
            next_seq: 0,
            horizon,
        }
    }

    /// Schedules `kind` at time `at`.
    pub fn schedule(&mut self, at: Time, kind: EventKind) {
        let e = Event {
            at,
            seq: self.next_seq,
            kind,
        };
        self.next_seq += 1;
        if at > self.horizon {
            return;
        }
        if let EventKind::CarrierSlot { .. } = kind {
            // `e` goes after every slot that pops before it: the tail when
            // all carriers share one slot interval, a binary-searched
            // insert otherwise.
            if self.slots.back().is_none_or(|last| *last <= e) {
                self.slots.push_back(e);
            } else {
                let i = self.slots.partition_point(|s| *s <= e);
                self.slots.insert(i, e);
            }
            return;
        }
        // Sift up: move later parents down into the hole until `e` fits.
        let e_key = key(&e);
        let mut hole = self.heap.len();
        self.heap.push(e);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if key(&self.heap[parent]) <= e_key {
                break;
            }
            self.heap[hole] = self.heap[parent];
            hole = parent;
        }
        self.heap[hole] = e;
    }

    /// Pops the first event by `Ord for Event`: the earliest, and at a
    /// shared nanosecond every other event before the carrier slots.
    pub fn pop(&mut self) -> Option<Event> {
        if let Some(slot) = self.slots.front() {
            if self.heap.first().is_none_or(|root| slot.at < root.at) {
                return self.slots.pop_front();
            }
        }
        self.pop_heap()
    }

    /// Pops the heap's root.
    fn pop_heap(&mut self) -> Option<Event> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(last);
        };
        // Sift down: the root is a hole; move the earliest child up into
        // it until `last` (the old tail) fits.
        let n = self.heap.len();
        let last_key = key(&last);
        let mut hole = 0;
        loop {
            let first = hole * ARITY + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let mut min_key = key(&self.heap[first]);
            // Selects rather than branches: which sibling is earliest is
            // a coin flip the branch predictor cannot learn.
            for child in first + 1..(first + ARITY).min(n) {
                let k = key(&self.heap[child]);
                let less = k < min_key;
                min = if less { child } else { min };
                min_key = if less { k } else { min_key };
            }
            if last_key <= min_key {
                break;
            }
            self.heap[hole] = self.heap[min];
            hole = min;
        }
        self.heap[hole] = last;
        Some(top)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.slots.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.slots.is_empty()
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
    /// Creates a trace; a disabled trace records nothing (used by
    /// [`crate::run_trials`] and benches, where only metrics matter).
    pub fn new(enabled: bool) -> Self {
        EventTrace {
            records: Vec::new(),
            enabled,
        }
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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

    #[test]
    fn events_are_48_bytes() {
        // The module's queue measurements and `ARITY`'s cache-line note
        // assume 48 B events; a wider variant would silently void them.
        assert_eq!(std::mem::size_of::<Event>(), 48);
    }

    /// The tie rule spelled out as a sort key, apart from `Ord for
    /// Event`: time, then every non-slot event (rank 0) before the slots
    /// (rank 1 + carrier), then scheduling order.
    fn reference_key(e: &Event) -> (Time, usize, u64) {
        let rank = match e.kind {
            EventKind::CarrierSlot { carrier } => 1 + carrier,
            _ => 0,
        };
        (e.at, rank, e.seq)
    }

    /// The queue under test beside a reference — `std`'s binary heap over
    /// [`reference_key`], with its own sequence counter. Every schedule
    /// goes to both; every pop must agree.
    #[derive(Default)]
    struct Twin {
        queue: EventQueue,
        reference: BinaryHeap<Reverse<(Time, usize, u64)>>,
        /// Every scheduled event, indexed by its sequence number.
        scheduled: Vec<Event>,
    }

    impl Twin {
        fn schedule(&mut self, at: u64, tag: usize) {
            self.schedule_kind(at, EventKind::PacketArrival { tag });
        }

        fn schedule_kind(&mut self, at: u64, kind: EventKind) {
            let at = Time(at);
            self.queue.schedule(at, kind);
            let e = Event {
                at,
                seq: self.scheduled.len() as u64,
                kind,
            };
            self.scheduled.push(e);
            self.reference.push(Reverse(reference_key(&e)));
            assert_eq!(self.queue.len(), self.reference.len());
        }

        /// The reference's next event.
        fn expected(&mut self) -> Option<Event> {
            let Reverse((_, _, seq)) = self.reference.pop()?;
            Some(self.scheduled[seq as usize])
        }

        /// Pops both; they must agree.
        fn pop(&mut self, what: std::fmt::Arguments) -> Option<Event> {
            let e = self.expected();
            assert_eq!(self.queue.pop(), e, "{what} diverged");
            e
        }

        /// Pops both to the end: the tails must agree too.
        fn drain(&mut self, what: std::fmt::Arguments) {
            while self.pop(what).is_some() {}
        }
    }

    #[test]
    fn queue_matches_reference_heap() {
        // Random schedule/pop interleavings through the queue and the
        // reference heap side by side: every pop must agree exactly,
        // including same-instant seq tie-breaks. The time distribution is
        // deliberately lumpy — exact ties, schedules behind the last pop,
        // near-future µs/ms deltas, and jumps of 2^36 ns (≈ 68.7 s) and
        // more.
        const FAR_NS: u64 = 1 << 36;
        for trial in 0..20u64 {
            #[expect(
                clippy::disallowed_methods,
                reason = "property-test stream fuzzing the event queue, not an engine entity"
            )]
            let mut rng = SmallRng::seed_from_u64(0x57EE1 ^ trial);
            let mut twin = Twin::default();
            let mut now = 0u64;
            let mut last_at = Vec::new();
            for step in 0..4000usize {
                if rng.gen_bool(0.55) || twin.queue.is_empty() {
                    let at = match rng.gen_range(0u32..10) {
                        // Exact tie with a previously scheduled event.
                        0 if !last_at.is_empty() => last_at[rng.gen_range(0usize..last_at.len())],
                        // The current instant itself.
                        1 => now,
                        // Far future: 2^36 ns to 2^37 ns ahead.
                        2 => now + FAR_NS + rng.gen_range(0u64..FAR_NS),
                        // Behind the last pop (allowed, pops first).
                        3 if now > 0 => rng.gen_range(0u64..now),
                        // Near future, 1 ns to ≈ 0.5 s ahead.
                        _ => {
                            let magnitude = rng.gen_range(1u32..30);
                            now + rng.gen_range(1u64..1 << magnitude)
                        }
                    };
                    if last_at.len() < 64 {
                        last_at.push(at);
                    }
                    twin.schedule(at, step);
                } else if let Some(e) = twin.pop(format_args!("trial {trial} step {step}")) {
                    now = now.max(e.at.0);
                }
            }
            twin.drain(format_args!("trial {trial} drain"));
        }
    }

    #[test]
    fn deep_queue_hold_model_matches_reference_heap() {
        // The campus regime: 100k pending events, each pop followed by one
        // schedule a random delay ahead (the classic hold model), so every
        // pop sifts a hole down through ≈9 levels of a full heap.
        const DEPTH: usize = 100_000;
        #[expect(
            clippy::disallowed_methods,
            reason = "property-test stream fuzzing the event queue, not an engine entity"
        )]
        let mut rng = SmallRng::seed_from_u64(0xDEE9);
        let mut twin = Twin::default();
        for tag in 0..DEPTH {
            twin.schedule(rng.gen_range(0u64..1_000_000_000), tag);
        }
        for step in 0..2 * DEPTH {
            let e = twin
                .pop(format_args!("step {step}"))
                .expect("hold model never drains");
            // Coarse delays (multiples of 1 µs) make exact ties common.
            twin.schedule(e.at.0 + 1_000 * rng.gen_range(0u64..1_000_000), step);
        }
        assert_eq!(twin.queue.len(), DEPTH);
        twin.drain(format_args!("deep drain"));
    }

    #[test]
    fn slot_lane_matches_reference_heap() {
        // The ward regime: periodic carrier-slot streams (each popped slot
        // re-schedules itself one interval later) interleaved with Poisson
        // arrivals. Two intervals are mixed, so a re-scheduled slot can
        // land before the lane's tail, and carriers share priming offsets,
        // so slots tie each other and pop in carrier order. Arrivals often
        // land on the exact nanosecond of a pending slot, scheduled after
        // it, or of the instant just popped, so lane and heap events tie
        // and the arrival must pop first.
        const INTERVALS: [u64; 2] = [1_000_000, 1_500_000];
        for trial in 0..10u64 {
            #[expect(
                clippy::disallowed_methods,
                reason = "property-test stream fuzzing the event queue, not an engine entity"
            )]
            let mut rng = SmallRng::seed_from_u64(0x5107 ^ trial);
            let mut twin = Twin::default();
            let carriers = 12usize;
            let interval = |carrier: usize| INTERVALS[carrier % 2];
            for carrier in 0..carriers {
                // Pairs of carriers share an offset: exact slot-slot ties.
                let offset = 1_000 * rng.gen_range(0u64..1_000) * (carrier as u64 / 2 + 1);
                twin.schedule_kind(offset, EventKind::CarrierSlot { carrier });
            }
            for tag in 0..40 {
                twin.schedule(rng.gen_range(0u64..2_000_000), tag);
            }
            let mut pending_slot_times = Vec::new();
            for step in 0..20_000usize {
                let e = twin
                    .pop(format_args!("trial {trial} step {step}"))
                    .expect("slots re-schedule forever");
                match e.kind {
                    EventKind::CarrierSlot { carrier } => {
                        let next = e.at.0 + interval(carrier);
                        twin.schedule_kind(next, e.kind);
                        pending_slot_times.push(next);
                        if pending_slot_times.len() > 32 {
                            pending_slot_times.remove(0);
                        }
                    }
                    EventKind::PacketArrival { tag } => {
                        let at = match rng.gen_range(0u32..4) {
                            0 if !pending_slot_times.is_empty() => {
                                pending_slot_times[rng.gen_range(0..pending_slot_times.len())]
                            }
                            1 => e.at.0,
                            _ => e.at.0 + rng.gen_range(1u64..3_000_000),
                        };
                        twin.schedule(at.max(e.at.0), tag);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(twin.queue.slots.len(), carriers);
            twin.drain(format_args!("trial {trial} drain"));
        }
    }

    #[test]
    fn slot_lane_inserts_behind_equal_slots() {
        // A slot earlier than the lane's tail goes in behind every slot at
        // an earlier instant, or at its own instant with a lower carrier,
        // whenever either was scheduled; a heap event at the same instant
        // pops before all of them.
        let mut q = EventQueue::new();
        q.schedule(Time(100), EventKind::CarrierSlot { carrier: 0 });
        q.schedule(Time(300), EventKind::CarrierSlot { carrier: 1 });
        q.schedule(Time(200), EventKind::CarrierSlot { carrier: 3 });
        q.schedule(Time(200), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(200), EventKind::CarrierSlot { carrier: 2 });
        q.schedule(Time(100), EventKind::CarrierSlot { carrier: 4 });
        q.schedule(Time(200), EventKind::CarrierSlot { carrier: 5 });
        assert_eq!(q.len(), 7);
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            [
                EventKind::CarrierSlot { carrier: 0 },
                EventKind::CarrierSlot { carrier: 4 },
                EventKind::PacketArrival { tag: 0 },
                EventKind::CarrierSlot { carrier: 2 },
                EventKind::CarrierSlot { carrier: 3 },
                EventKind::CarrierSlot { carrier: 5 },
                EventKind::CarrierSlot { carrier: 1 },
            ]
        );
    }

    #[test]
    fn an_arrival_on_a_slot_nanosecond_pops_first() {
        // The slot was scheduled first and the arrival long after it, and
        // still the arrival pops first: the slot that falls on an
        // arrival's nanosecond serves it, however the slot was scheduled.
        let mut q = EventQueue::new();
        q.schedule(Time(5_000_000), EventKind::CarrierSlot { carrier: 0 });
        q.schedule(Time(1_000), EventKind::MobilityTick);
        assert_eq!(q.pop().unwrap().kind, EventKind::MobilityTick);
        q.schedule(Time(5_000_000), EventKind::PacketArrival { tag: 7 });
        q.schedule(Time(5_000_000), EventKind::Horizon);
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            order,
            [
                EventKind::PacketArrival { tag: 7 },
                EventKind::Horizon,
                EventKind::CarrierSlot { carrier: 0 },
            ]
        );
    }

    #[test]
    fn events_past_the_horizon_are_dropped() {
        let mut q = EventQueue::until(Time(100));
        q.schedule(Time(101), EventKind::PacketArrival { tag: 0 });
        q.schedule(Time(101), EventKind::CarrierSlot { carrier: 0 });
        q.schedule(Time(100), EventKind::Horizon);
        q.schedule(Time(100), EventKind::CarrierSlot { carrier: 1 });
        q.schedule(Time(u64::MAX), EventKind::MobilityTick);
        assert_eq!(q.len(), 2, "only events at or before the horizon stay");
        // Dropped schedules still take their sequence numbers, so the
        // stored events keep the seqs an unbounded queue gives them.
        let horizon = q.pop().unwrap();
        assert_eq!((horizon.kind, horizon.seq), (EventKind::Horizon, 2));
        let slot = q.pop().unwrap();
        assert_eq!(
            (slot.kind, slot.seq),
            (EventKind::CarrierSlot { carrier: 1 }, 3)
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn kind_names_match_the_variants() {
        let kinds = [
            EventKind::PacketArrival { tag: 0 },
            EventKind::CarrierSlot { carrier: 0 },
            EventKind::TxEnd {
                tag: 0,
                tx_id: 0,
                started: Time::ZERO,
            },
            EventKind::PollEnd { tag: 0, tx_id: 0 },
            EventKind::AckEnd { tag: 0, tx_id: 0 },
            EventKind::CoexStart { source: 0 },
            EventKind::CoexEnd {
                source: 0,
                tx_id: 0,
            },
            EventKind::MobilityTick,
            EventKind::SenseTick,
            EventKind::Horizon,
        ];
        assert_eq!(kinds.len(), EventKind::NAMES.len());
        for (i, kind) in kinds.iter().enumerate() {
            assert_eq!(kind.index(), i);
            let debug = format!("{kind:?}");
            let variant = debug.split([' ', '{']).next().unwrap();
            assert_eq!(EventKind::NAMES[i], variant);
        }
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // A horizon far beyond every near event: same-instant far events
        // pop in scheduling order, after everything nearer.
        let mut q = EventQueue::new();
        let horizon = 3 * (1u64 << 36) + 17;
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
        assert!(second.seq > first.seq, "ties pop in scheduling order");
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_behind_the_cursor_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(Time(1000), EventKind::Horizon);
        q.schedule(Time(100), EventKind::PacketArrival { tag: 0 });
        assert_eq!(q.pop().unwrap().at, Time(100));
        // The last pop was at 100; a late event behind it still pops
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
