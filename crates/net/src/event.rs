//! The event queue and the trace it leaves behind.
//!
//! Events are ordered by `(time, sequence)`: the sequence number is the
//! order of scheduling, so ties at the same nanosecond resolve identically
//! on every run. The queue is an implicit **4-ary min-heap** over a
//! `Vec<Event>`: `schedule` sifts up and `pop` sifts a hole down from the
//! root. Both are O(log₄ n), with no per-slot storage, cursor or side
//! buffers. The pop order is the exact `(at, seq)` total order — the
//! byte-identical-trace contract pins it, and the
//! `queue_matches_reference_heap` property test drives random streams
//! through this queue and a `std` binary heap side by side.
//!
//! The design was chosen by measurement. Perfbench at seed 1, `--seconds
//! 8`, 3 alternating runs per candidate on a 2-core x86-64 host; every
//! workload digest identical and 0 failed operations (ranges in seconds):
//!
//! | queue | ward `wall_s` | ward `setup_s` | campus `wall_s` | campus `setup_s` | campus RSS |
//! |---|---|---|---|---|---|
//! | hierarchical timing wheel (6 × 64 slots + far-future heap) | 0.57–0.68 | 0.58–0.68 | 0.105–0.123 | 0.122–0.162 | 90.8 MiB |
//! | same wheel, slot capacity kept across drains | 0.36–0.42 | 0.43–0.48 | — | — | — |
//! | `std` `BinaryHeap<Reverse<Event>>` | 0.28–0.31 | 0.29–0.31 | 0.130–0.154 | 0.159–0.185 | 88.5 MiB |
//! | binary heap of 24 B keys + event-kind slab | — | — | 0.126–0.148 | 0.17–0.23 | 91.4 MiB |
//! | **4-ary heap of `Event`** (this) | **0.30–0.32** | **0.28–0.35** | **0.105–0.121** | **0.119–0.149** | **88.5 MiB** |
//!
//! Ward's queue is only hundreds of events deep, so any heap beats the
//! wheel's cascades and per-slot reallocation. Campus holds ≈100k pending
//! 48 B events, more than a 2 MiB L2: there a binary heap's 17-level pops
//! cost +15–22% in the event loop (not in set-up), and the 4-ary layout's
//! halved depth, with siblings on adjacent cache lines, wins it back.

use crate::time::Time;

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
    /// [`crate::mobility::MobilityModel::step`] and the engine refreshes the
    /// [`crate::links::LinkMatrix`] budgets the moves touch. Scheduled on the
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

/// Children per heap node. Four halves the depth of a binary heap and
/// keeps a node's siblings within one or two 64 B cache lines of 48 B
/// events, so a pop scans adjacent memory instead of chasing a deeper
/// path.
const ARITY: usize = 4;

/// The `(at, seq)` order of `Ord for Event` as one integer, so a sibling
/// comparison is a single compare the sift-down can select on.
#[inline]
fn key(e: &Event) -> u128 {
    (u128::from(e.at.0) << 64) | u128::from(e.seq)
}

/// A deterministic event queue: an implicit 4-ary min-heap over `(at,
/// seq)`.
///
/// `heap[0]` is the earliest pending event; the children of `heap[i]` are
/// `heap[4i + 1 ..= 4i + 4]`, each no earlier than their parent. Sequence
/// numbers are unique and globally monotone, so `(at, seq)` is a total
/// order and the pop order is fully determined by the schedule stream —
/// same-instant events resolve in scheduling order, and an event
/// scheduled behind the last pop simply pops next.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at time `at`.
    pub fn schedule(&mut self, at: Time, kind: EventKind) {
        let e = Event {
            at,
            seq: self.next_seq,
            kind,
        };
        self.next_seq += 1;
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

    /// Pops the earliest event; ties resolve in scheduling order.
    pub fn pop(&mut self) -> Option<Event> {
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
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    /// The queue under test beside a reference — `std`'s binary heap over
    /// the same `(at, seq)` order, with its own sequence counter. Every
    /// schedule goes to both; every pop must agree.
    #[derive(Default)]
    struct Twin {
        queue: EventQueue,
        reference: BinaryHeap<Reverse<Event>>,
        next_seq: u64,
    }

    impl Twin {
        fn schedule(&mut self, at: u64, tag: usize) {
            let (at, kind) = (Time(at), EventKind::PacketArrival { tag });
            self.queue.schedule(at, kind);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.reference.push(Reverse(Event { at, seq, kind }));
            assert_eq!(self.queue.len(), self.reference.len());
        }

        /// The reference's next event.
        fn expected(&mut self) -> Option<Event> {
            self.reference.pop().map(|Reverse(e)| e)
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
